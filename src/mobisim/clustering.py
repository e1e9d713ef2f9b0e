"""Pairwise dissimilarity matrices and k-medoids clustering.

The measures only give pairwise values, so clustering must pick actual
patterns as centers; k-medoids (PAM) does exactly that, whereas k-means
would need a vector-space mean that does not exist here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import baselines, measures
from .errors import DomainError, GraphNotConnectedError, as_int
from .graph import CellGraph
from .measures import DEFAULT_WEIGHTS, Weights
from .patterns import SLOT_COUNT, MobilityPattern

MeasureFn = Callable[[MobilityPattern, MobilityPattern], float]


@dataclass(frozen=True)
class Measure:
    """A measure's function and the inputs it reads besides the two patterns.

    fn takes (a, b), then the graph if reads_graph, then the weights if
    reads_weights. similarity marks the raw-unit similarities, integer
    counts that read only the two patterns; every other measure is a [0,1]
    dissimilarity. table, given the patterns and the graph and weights as fn
    takes them, gives a positional measure's whole matrix at once, or, when
    a pair fails, the index j of the first failing pair (0, j), on which fn
    names the failure. A measure without a table is cell-local: it reads
    only the cells two patterns share, so it has one value on every pair
    that shares no cell.
    """

    fn: Callable[..., float]
    reads_graph: bool = False
    reads_weights: bool = False
    similarity: bool = False
    table: Callable[..., np.ndarray | int] | None = None


# A term is split into 30-bit limbs, and no temporary of the pair sums
# holds more than _CHUNK values.
_LIMB = 30
_CHUNK = 1 << 16


def _exact_means(codes: np.ndarray, pick: np.ndarray, terms: list[float]) -> np.ndarray:
    """values[i, j] = math.fsum(terms[pick[codes[i, l], codes[j, l]]] for
    each of the L columns l) / L, bit for bit, for every pair at once.

    Every term is a non-negative double, so each is an integer multiple k of
    2**-e for the largest e any of them needs, and fsum returns a pair's
    exact sum of k's times 2**-e, rounded once. While they stay below 2**53,
    the k's are summed in two int64 limbs, k = hi * 2**30 + lo: each limb
    sum is an exact double, and one float addition of the two scaled sums
    rounds their exact total once. Past that bound they are summed as
    Python ints, and one int division by 2**e rounds each total once. Rows
    are taken in chunks, so memory grows with n^2, not n^2 * L.
    """
    ratios = [t.as_integer_ratio() for t in terms]
    e = max(den.bit_length() - 1 for _, den in ratios)
    ks = [num << (e - den.bit_length() + 1) for num, den in ratios]
    n, length = codes.shape
    if length * max(max(ks) >> _LIMB, 1 << _LIMB) < 2**53:
        hi = np.array([k >> _LIMB for k in ks], dtype=np.int64)
        lo = np.array([k & ((1 << _LIMB) - 1) for k in ks], dtype=np.int64)
        limbs = (hi, lo)
        scale = lambda hi_sum, lo_sum: hi_sum * 2.0 ** (_LIMB - e) + lo_sum * 2.0 ** -e
    else:
        limbs = (np.array(ks, dtype=object),)
        scale = lambda total: total / (1 << e)
    values = np.empty((n, n))
    step = max(1, _CHUNK // n)
    for start in range(0, n, step):
        rows = codes[start : start + step]
        sums = [np.zeros((len(rows), n), dtype=limb.dtype) for limb in limbs]
        for a, b in zip(rows.T, codes.T):
            term = pick[a[:, None], b]
            for total, limb in zip(sums, limbs):
                total += limb[term]
        values[start : start + step] = scale(*sums) / length
    return values


def _first_failing(
    patterns: Sequence[MobilityPattern], graph: CellGraph | None, points: int
) -> int | None:
    """The first pattern a tiakas measure fails on, or None if none does.

    Each precondition tests one pattern: a length equal to pattern 0's and
    at least points long, and, given a graph, a connected graph holding
    every cell. So a row-major pair loop first fails on (0, j), where j is
    the first pattern failing one, or 0 when pattern 0 or the graph does.
    """
    if graph is not None:
        try:
            graph.diameter()
        except GraphNotConnectedError:
            return 0
    length = len(patterns[0])
    if length < points:
        return 0
    for j, p in enumerate(patterns):
        if len(p) != length or graph is not None and max(p.cells) >= graph.vertex_count:
            return j
    return None


def _tiakas_net_table(
    patterns: Sequence[MobilityPattern], graph: CellGraph
) -> np.ndarray | int:
    """tiakas_net on every pair: one hop table over the cells in use, whose
    entries index the dia + 1 possible terms."""
    failing = _first_failing(patterns, graph, 1)
    if failing is not None:
        return failing
    dia = graph.diameter()
    # Each cell's row in the hop table; a dict, since np.unique alone adds
    # about 0.75 MB of resident memory to a process.
    code: dict[int, int] = {}
    codes = np.array([[code.setdefault(c, len(code)) for c in p.cells] for p in patterns])
    terms = [baselines.net_term(h, dia) for h in range(dia + 1)]
    return _exact_means(codes, graph.hop_table(list(code)), terms)


# Index of the term for slot increments (da, db) in _tiakas_time_table.
_STEP_PICK = np.arange(SLOT_COUNT**2).reshape(SLOT_COUNT, SLOT_COUNT)


def _tiakas_time_table(patterns: Sequence[MobilityPattern]) -> np.ndarray | int:
    """tiakas_time on every pair, from each pattern's slot increments and
    the term of each increment pair in baselines.TIME_TERMS."""
    failing = _first_failing(patterns, None, 2)
    if failing is not None:
        return failing
    terms = [t for row in baselines.TIME_TERMS for t in row]
    increments = np.diff(np.array([p.slots for p in patterns]), axis=1)
    return _exact_means(increments, _STEP_PICK, terms)


def _tiakas_total_table(
    patterns: Sequence[MobilityPattern], graph: CellGraph, weights: Weights | None
) -> np.ndarray | int:
    """tiakas_total on every pair, from the net and time tables."""
    failing = _first_failing(patterns, graph, 2)
    if failing is not None:
        return failing
    net, time = _tiakas_net_table(patterns, graph), _tiakas_time_table(patterns)
    w = DEFAULT_WEIGHTS if weights is None else weights
    return w.space * net + w.time * time


MEASURE_TABLE: dict[str, Measure] = {
    "space": Measure(measures.spatial_dissimilarity),
    "time": Measure(measures.temporal_dissimilarity),
    "composite": Measure(measures.weighted_dissimilarity, reads_weights=True),
    "tiakas-net": Measure(
        baselines.tiakas_net, reads_graph=True, table=_tiakas_net_table
    ),
    "tiakas-time": Measure(baselines.tiakas_time, table=_tiakas_time_table),
    "tiakas-total": Measure(
        baselines.tiakas_total,
        reads_graph=True,
        reads_weights=True,
        table=_tiakas_total_table,
    ),
    "oss": Measure(baselines.oss),
    "lcss": Measure(baselines.lcss, similarity=True),
    "cvti": Measure(baselines.cvti, similarity=True),
}

MEASURES: tuple[str, ...] = tuple(MEASURE_TABLE)

# Two one-point patterns on different cells: a cell-local measure's value on
# this pair is its value on every pair that shares no cell.
_DISJOINT_PAIR = (MobilityPattern([(0, 1)]), MobilityPattern([(1, 1)]))


def resolve_measure(
    name: str,
    graph: CellGraph | None = None,
    weights: Weights | None = None,
) -> MeasureFn:
    """Turn a measure selector into a two-pattern callable.

    Measures that read a graph require one; measures that read weights
    default to 0.5/0.5. Similarities are returned as floats.
    """
    spec = MEASURE_TABLE.get(name)
    if spec is None:
        raise DomainError(
            f"unknown measure {name!r}; expected one of {', '.join(MEASURES)}"
        )
    if spec.reads_graph and graph is None:
        raise DomainError(f"measure {name!r} requires a cell graph")

    fn = spec.fn
    if spec.similarity:
        return lambda a, b: float(fn(a, b))
    extra = _extra(spec, graph, weights)
    if not extra:
        return fn
    return lambda a, b: fn(a, b, *extra)


def _extra(spec: Measure, graph: CellGraph | None, weights: Weights | None) -> tuple:
    """The inputs a measure reads after the two patterns."""
    return (graph,) * spec.reads_graph + (weights,) * spec.reads_weights


def pair_failed(measure: str, id_a: object, id_b: object, exc: Exception) -> DomainError:
    """The error for a measure that failed on one pair, naming both patterns."""
    return DomainError(
        f"measure {measure!r} failed for patterns {id_a!r} and {id_b!r}: {exc}"
    )


@dataclass(frozen=True)
class DissimilarityMatrix:
    """Square table of pairwise measure values, rows named by ids if given."""

    values: np.ndarray
    ids: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        shape = self.values.shape
        if len(shape) != 2 or shape[0] != shape[1]:
            raise DomainError(f"matrix shape {shape} is not square")
        if not np.isfinite(self.values).all():
            raise DomainError("matrix contains non-finite entries")
        if self.ids is not None and len(self.ids) != self.n:
            raise DomainError(f"{len(self.ids)} ids for {self.n} patterns")

    @property
    def n(self) -> int:
        return self.values.shape[0]


def _sharing_pairs(patterns: Sequence[MobilityPattern]) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices, in row-major order, of the pairs i <= j whose
    patterns share a cell; the diagonal is always included."""
    visitors: dict[int, list[int]] = {}
    for i, p in enumerate(patterns):
        for cell in set(p.cells):
            visitors.setdefault(cell, []).append(i)
    shared = np.eye(len(patterns), dtype=bool)
    for group in visitors.values():
        if len(group) > 1:
            shared[np.ix_(group, group)] = True
    return np.nonzero(np.triu(shared))


def build_matrix(
    patterns: Sequence[MobilityPattern],
    measure: str,
    graph: CellGraph | None = None,
    weights: Weights | None = None,
    ids: Sequence[str] | None = None,
) -> DissimilarityMatrix:
    """Evaluate the measure on every ordered pair, diagonal included.

    Every measure is exactly symmetric (d(a, b) == d(b, a) bit for bit), so
    only pairs i <= j are evaluated and each value is mirrored to (j, i).
    A cell-local measure reads only the cells two patterns share: an
    index from each cell to the patterns visiting it gives the candidate
    pairs, those that share a cell (inverted-index candidate generation,
    as in Bayardo, Ma & Srikant, WWW 2007), and the measure runs on those
    alone. Every other pair gets the measure's value on _DISJOINT_PAIR,
    the same as on any pair sharing no cell. The tiakas measures have a
    table function that computes every pair at once. When a pair fails,
    the table names the first failing pair (0, j), and the measure runs on
    that pair alone to raise its error. Candidates run in row-major order,
    so a failing measure names the first pair that a full row-major scan
    would.

    The index and the tables are plain Python and numpy: importing
    scipy.sparse alone costs more time and memory than building the whole
    matrix does on traces where few pairs share a cell.
    """
    if not patterns:
        raise DomainError("need at least one pattern")
    fn = resolve_measure(measure, graph=graph, weights=weights)
    spec = MEASURE_TABLE[measure]
    n = len(patterns)
    ids = None if ids is None else tuple(ids)
    if ids is not None and len(ids) != n:
        raise DomainError(f"{len(ids)} ids for {n} patterns")
    names = range(n) if ids is None else ids
    if spec.table is None:
        rows, cols = _sharing_pairs(patterns)
        fill = fn(*_DISJOINT_PAIR)
    else:
        values = spec.table(patterns, *_extra(spec, graph, weights))
        if isinstance(values, np.ndarray):
            values.setflags(write=False)
            return DissimilarityMatrix(values=values, ids=ids)
        # Pair (0, values) fails. NaN marks every entry the loop leaves
        # unset, so a pair on which fn does not fail fails the finite check.
        rows, cols, fill = np.array([0]), np.array([values]), np.nan
    values = np.full((n, n), fill, dtype=np.float64)
    found = []
    for i, j in zip(rows.tolist(), cols.tolist()):
        try:
            found.append(fn(patterns[i], patterns[j]))
        except DomainError as exc:
            raise pair_failed(measure, names[i], names[j], exc) from exc
    values[rows, cols] = found
    values[cols, rows] = found
    values.setflags(write=False)
    return DissimilarityMatrix(values=values, ids=ids)


@dataclass(frozen=True)
class ClusterAssignment:
    """Result of a k-medoids run.

    assignment[i] is the pattern index of the medoid pattern i belongs to;
    every medoid belongs to itself, every other pattern to its
    least-dissimilar medoid (ties broken by lowest medoid index).
    cost_history holds the total cost after initialization and after each
    accepted swap.
    """

    medoids: tuple[int, ...]
    assignment: tuple[int, ...]
    total_cost: float
    cost_history: tuple[float, ...] = field(repr=False)


def _column_costs(contrib: np.ndarray) -> np.ndarray:
    """Sum each column (or a 1-D array) strictly top to bottom, overwriting
    contrib with the running sums.

    np.sum may use pairwise summation, whose last bits differ from the
    sequential ``cost += x`` definition and can flip near-ties between swaps;
    a running accumulate adds the rows in order, and adding the 0.0 of an
    excluded row is exact.
    """
    return np.add.accumulate(contrib, axis=0, out=contrib)[-1]


def kmedoids(m: DissimilarityMatrix, k: int, seed: int = 0) -> ClusterAssignment:
    """PAM-style k-medoids over a precomputed matrix.

    Starts from a seeded random medoid selection, then repeatedly applies
    the single best strictly-improving medoid/non-medoid swap until none
    exists. Deterministic for fixed (matrix, k, seed): swaps are scanned in
    ascending (medoid, candidate) order and ties keep the earliest.

    A configuration's cost is the sum, over non-medoid patterns in index
    order, of each pattern's distance to its nearest medoid. Each round
    evaluates all k*(n-k) swaps as array operations, O(k*n^2) per round:
    for each medoid, every candidate's cost is one column of
    min(nearest other medoid, candidate) with the trial's medoid rows
    zeroed. Costs are summed left to right, so they equal the sequential
    definition bit for bit. total_cost is the last cost_history entry.
    """
    k = as_int(k, "k")
    if not 1 <= k <= m.n:
        raise DomainError(f"k={k} outside 1..{m.n}")

    values = m.values
    rng = random.Random(seed)
    medoids = sorted(rng.sample(range(m.n), k))
    # Medoid rows contribute nothing: the diagonal need not be zero for
    # every measure.
    nearest = values[:, medoids].min(axis=1)
    nearest[medoids] = 0.0
    cost = _column_costs(nearest)
    history = [cost]

    trial = np.empty((m.n, m.n))
    while True:
        table = np.empty((k, m.n))
        for row, med in enumerate(medoids):
            others = [c for c in medoids if c != med]
            d_other = (
                values[:, others].min(axis=1) if others else np.full(m.n, np.inf)
            )
            np.minimum(d_other[:, None], values, out=trial)
            trial[others] = 0.0
            np.fill_diagonal(trial, 0.0)
            table[row] = _column_costs(trial)
        table[:, medoids] = np.inf
        row, cand = divmod(int(np.argmin(table)), m.n)
        if not table[row, cand] < cost:
            break
        cost = table[row, cand]
        medoids = sorted([c for c in medoids if c != medoids[row]] + [cand])
        history.append(cost)

    assignment = np.array(medoids)[np.argmin(values[:, medoids], axis=1)]
    assignment[medoids] = medoids
    return ClusterAssignment(
        medoids=tuple(medoids),
        assignment=tuple(int(a) for a in assignment),
        total_cost=cost,
        cost_history=tuple(history),
    )
