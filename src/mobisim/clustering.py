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
from .errors import DomainError, as_int
from .graph import CellGraph
from .measures import Weights
from .patterns import SLOT_COUNT, MobilityPattern

MeasureFn = Callable[[MobilityPattern, MobilityPattern], float]


@dataclass(frozen=True)
class Measure:
    """A measure's function, its whole-matrix table, and the inputs both
    read besides the patterns.

    fn takes (a, b), then the graph if reads_graph, then the weights if
    reads_weights; table takes the list of patterns, then the same inputs,
    and gives fn on every ordered pair, bit for bit. similarity marks the
    raw-unit similarities, integer counts that read only the two patterns;
    every other measure is a [0,1] dissimilarity. A positional (tiakas)
    table raises baselines._RowError, the error of the first failing pair
    (0, j), when a pair fails, and its fn is its table on the one pair. The
    other measures are cell-local: they read only the cells two patterns
    share, so each has one value on every pair that shares no cell, and
    each table is _cell_local, one _SameCellJoin and one value function.
    """

    fn: Callable[..., float]
    table: Callable[..., np.ndarray]
    reads_graph: bool = False
    reads_weights: bool = False
    similarity: bool = False


# Two one-point patterns on different cells: a cell-local measure's value on
# this pair is its value on every pair that shares no cell.
_DISJOINT_PAIR = (MobilityPattern([(0, 1)]), MobilityPattern([(1, 1)]))

# For two slots ta and tb, at (ta - 1) * SLOT_COUNT + tb - 1: the GAP
# numerator of the temporal term, and the minutes the two slots share.
_GAP = np.array([g for row in measures.GAP[1:] for g in row[1:]], dtype=np.float64)
_OVERLAP_MINUTES = np.array(baselines._SLOT_OVERLAP, dtype=np.float64).ravel()
# _SameCellJoin marks candidates in chunks of _JOIN_CHUNK point pairs, sums in
# chunks of max(_JOIN_CHUNK, candidates), all at most baselines._CHUNK: 8 192,
# not 65 536, kept cluster-dense's peak RSS about 0.45 MB lower, as fast.
_JOIN_CHUNK = 1 << 13


class _SameCellJoin:
    """Exact sums over the point pairs on a common cell, for each pair of
    patterns rows[c] <= cols[c] that shares a cell, in row-major order. Each
    cell-local measure has one value function over these candidates: space,
    time, composite, oss and cvti combine the sums, and lcss runs on the two
    patterns.

    la and lb are the two lengths; count is the number of point pairs (p, q)
    on a common cell, p of the row pattern and q of the column pattern; gap
    sums their measures.GAP numerators; uncommon is la + lb less the points
    on a shared cell; overlap sums their _OVERLAP_MINUTES; displacement sums
    |pos_p - pos_q| over the pairs where p is the row pattern's k-th point
    on the cell and q the column pattern's k-th.

    A dict groups the points by cell, each group in pattern and position
    order, so a pattern's points on a cell are one run of its group. Each
    point p is joined with the points q from the start of its own run to
    the end of its group: the points of later patterns once each, and those
    of its own pattern in both orders, p with itself included, as a pattern
    compared with itself needs. The join is these slices one after another.
    It is built twice in chunks of at most baselines._CHUNK point pairs, not
    stored: first to mark the candidate pairs i * n + j in one n * n array,
    whose np.flatnonzero is the row-major candidate list (inverted-index
    candidate generation, as in Bayardo, Ma & Srikant, WWW 2007), then to
    sum each candidate's integers with np.bincount. Nothing is sorted. The
    mark then maps each candidate to its place in the list: as int32 it is
    half the size of the matrix filled after it is freed, and a binary
    search of the list took longer than the rest of the join. A double sums
    integers exactly below 2**53: every GAP numerator is below 2**15, so gap
    is exact while a candidate has fewer than about 3.6e11 point pairs.
    """

    def __init__(self, patterns: Sequence[MobilityPattern]):
        n = len(patterns)
        lengths = np.array([len(p) for p in patterns])
        visitors: dict[int, list[int]] = {}
        for point, cell in enumerate([c for p in patterns for c in p.cells]):
            visitors.setdefault(cell, []).append(point)
        order = np.array([point for group in visitors.values() for point in group])
        sizes = [len(group) for group in visitors.values()]
        ends = np.cumsum(sizes)
        group_end = np.repeat(ends, sizes)
        owner = np.repeat(np.arange(n), lengths)[order]
        pos = (np.arange(len(order)) - np.repeat(np.cumsum(lengths) - lengths, lengths))[order]
        slot = np.array([t for p in patterns for t in p.slots])[order] - 1
        # Each run starts where the owner changes or a group starts.
        here = np.arange(len(order))
        starts = np.ones(len(order), dtype=bool)
        starts[1:] = owner[1:] != owner[:-1]
        starts[ends[:-1]] = True
        run = np.maximum.accumulate(here * starts)
        rank = here - run
        # Point k's slice of the join is entries bounds[k] up to bounds[k + 1],
        # and entry e of it pairs k with point e + shift[k].
        bounds = np.concatenate(([0], np.cumsum(group_end - run)))
        shift = group_end - bounds[1:]

        def chunks(step):
            """Each chunk of step pairs as (left, q): left(x) is the per-point
            array x at each pair's first point, and q each pair's second point."""
            total = int(bounds[-1])
            for start in range(0, total, step):
                end = min(start + step, total)
                lo = int(np.searchsorted(bounds, start, side="right")) - 1
                hi = int(np.searchsorted(bounds, end))
                cut = np.clip(bounds[lo : hi + 1], start, end)
                counts = cut[1:] - cut[:-1]
                left = lambda x: np.repeat(x[lo:hi], counts)
                yield left, np.arange(start, end) + left(shift)

        # Marked with 1, then each candidate's position in keys.
        index = np.zeros(n * n, dtype=np.int32)
        row_key = owner * n
        for left, q in chunks(min(baselines._CHUNK, _JOIN_CHUNK)):
            index[left(row_key) + owner[q]] = 1
        keys = np.flatnonzero(index)
        self.patterns = patterns
        self.rows, self.cols = np.divmod(keys, n)
        size = len(keys)
        index[keys] = np.arange(size)
        slot_row = slot * SLOT_COUNT
        first = (rank == 0) * 1.0
        count, gap, shared, minutes, displacement = np.zeros((5, size))
        # Each chunk's bincounts write size-long arrays: a shorter chunk
        # would spend its time there.
        for left, q in chunks(min(baselines._CHUNK, max(_JOIN_CHUNK, size))):
            pair = index[left(row_key) + owner[q]]
            term = left(slot_row) + slot[q]
            count += np.bincount(pair, minlength=size)
            gap += np.bincount(pair, _GAP[term], size)
            shared += np.bincount(pair, left(first) + first[q], size)
            minutes += np.bincount(pair, _OVERLAP_MINUTES[term], size)
            moved = np.abs(left(pos) - pos[q]) * (left(rank) == rank[q])
            displacement += np.bincount(pair, moved, size)
        self.la, self.lb = lengths[self.rows], lengths[self.cols]
        self.count = count
        self.gap = gap
        self.uncommon = self.la + self.lb - shared
        self.overlap = minutes
        self.displacement = displacement


def _cell_local(fn: Callable[..., float], value: Callable[..., object], **flags) -> Measure:
    """A cell-local measure: fn, and the table that puts value(join, *extra)
    on the pairs that share a cell and fn on _DISJOINT_PAIR on the rest."""

    def table(patterns: Sequence[MobilityPattern], *extra) -> np.ndarray:
        join = _SameCellJoin(patterns)
        # lcss and cvti fill with an int, and the matrix is float64 all the same.
        values = np.full((len(patterns),) * 2, fn(*_DISJOINT_PAIR, *extra), dtype=np.float64)
        values[join.rows, join.cols] = values[join.cols, join.rows] = value(join, *extra)
        return values

    return Measure(fn, table, **flags)


# The cell-local values from the join's sums, each with the float operations
# of its per-pair function, in the same order.
def _space(j: _SameCellJoin) -> np.ndarray:
    return j.uncommon / (j.la + j.lb)


def _time(j: _SameCellJoin) -> np.ndarray:
    return j.gap / (measures.GAP_SCALE * j.count)


def _composite(j: _SameCellJoin, weights: Weights | None) -> np.ndarray:
    w = measures.DEFAULT_WEIGHTS if weights is None else weights
    return w.space * _space(j) + w.time * _time(j)


def _oss(j: _SameCellJoin) -> np.ndarray:
    longest = np.maximum(j.la, j.lb)
    return (j.displacement + j.uncommon * longest) / (longest * (j.la + j.lb))


def _lcss(j: _SameCellJoin) -> list[int]:
    """A longest common subsequence is no sum: lcss runs on each candidate."""
    pairs = zip(j.rows.tolist(), j.cols.tolist())
    return [baselines.lcss(j.patterns[a], j.patterns[b]) for a, b in pairs]


MEASURE_TABLE: dict[str, Measure] = {
    "space": _cell_local(measures.spatial_dissimilarity, _space),
    "time": _cell_local(measures.temporal_dissimilarity, _time),
    "composite": _cell_local(measures.weighted_dissimilarity, _composite, reads_weights=True),
    "tiakas-net": Measure(baselines.tiakas_net, baselines._tiakas_net_table, reads_graph=True),
    "tiakas-time": Measure(baselines.tiakas_time, baselines._tiakas_time_table),
    "tiakas-total": Measure(
        baselines.tiakas_total,
        baselines._tiakas_total_table,
        reads_graph=True,
        reads_weights=True,
    ),
    "oss": _cell_local(baselines.oss, _oss),
    "lcss": _cell_local(baselines.lcss, _lcss, similarity=True),
    "cvti": _cell_local(baselines.cvti, lambda j: j.overlap, similarity=True),
}

MEASURES: tuple[str, ...] = tuple(MEASURE_TABLE)


def resolve_measure(
    name: str,
    graph: CellGraph | None = None,
    weights: Weights | None = None,
) -> MeasureFn:
    """Turn a measure selector into a two-pattern callable.

    Measures that read a graph require one; measures that read weights
    default to 0.5/0.5. Every measure's value comes back as a Python float.
    """
    spec = MEASURE_TABLE.get(name)
    if spec is None:
        raise DomainError(
            f"unknown measure {name!r}; expected one of {', '.join(MEASURES)}"
        )
    if spec.reads_graph and graph is None:
        raise DomainError(f"measure {name!r} requires a cell graph")

    extra = _extra(spec, graph, weights)
    return lambda a, b: float(spec.fn(a, b, *extra))


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
        try:
            raw = np.asarray(self.values)
            if raw.dtype.kind in "cSUV" or raw.dtype == object and any(
                isinstance(v, (str, bytes, complex, np.complexfloating)) for v in raw.flat
            ):
                raise TypeError("str, bytes, complex or void values are not real numbers")
            object.__setattr__(self, "values", np.asarray(raw, dtype=np.float64))
        except (TypeError, ValueError) as exc:
            raise DomainError(f"matrix values are not numbers: {exc}") from None
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


def build_matrix(
    patterns: Sequence[MobilityPattern],
    measure: str,
    graph: CellGraph | None = None,
    weights: Weights | None = None,
    ids: Sequence[str] | None = None,
) -> DissimilarityMatrix:
    """Evaluate the measure on every ordered pair, diagonal included, by
    its table.

    Every measure is exactly symmetric (d(a, b) == d(b, a) bit for bit), so
    a table evaluates only pairs i <= j and mirrors each value to (j, i). A
    cell-local table reads the pairs that share a cell from one join of the
    points on each cell (_SameCellJoin), by the measure's value function on
    the join. Every other pair gets the measure's value on _DISJOINT_PAIR,
    the same as on any pair sharing no cell. A tiakas table computes every
    pair at once, or raises the error of the first failing pair (0, j), the
    pair a row-major loop over all pairs fails on first.

    The join and the tables are plain Python and numpy: importing
    scipy.sparse alone costs more time and memory than building the whole
    matrix does on traces where few pairs share a cell.
    """
    if not patterns:
        raise DomainError("need at least one pattern")
    resolve_measure(measure, graph=graph, weights=weights)
    spec = MEASURE_TABLE[measure]
    n = len(patterns)
    ids = None if ids is None else tuple(ids)
    if ids is not None and len(ids) != n:
        raise DomainError(f"{len(ids)} ids for {n} patterns")
    names = range(n) if ids is None else ids
    try:
        values = spec.table(patterns, *_extra(spec, graph, weights))
    except baselines._RowError as exc:
        j, error = exc.args
        raise pair_failed(measure, names[0], names[j], error) from error
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
    zeroed. np.add.reduce over axis 0 of that C-order table adds whole rows
    one after another, so each column is summed top to bottom, as the
    sequential ``cost += x`` definition does, bit for bit; a test pins this
    past numpy's buffer size. The starting cost is the first round's swap
    of the first medoid for itself. total_cost is the last cost_history
    entry.
    """
    k = as_int(k, "k")
    if not 1 <= k <= m.n:
        raise DomainError(f"k={k} outside 1..{m.n}")

    values = m.values
    rng = random.Random(seed)
    medoids = sorted(rng.sample(range(m.n), k))
    history: list[float] = []

    trial = np.empty((m.n, m.n))
    while True:
        table = np.empty((k, m.n))
        for row, med in enumerate(medoids):
            others = [c for c in medoids if c != med]
            d_other = (
                values[:, others].min(axis=1) if others else np.full(m.n, np.inf)
            )
            np.minimum(d_other[:, None], values, out=trial)
            # Medoid rows contribute nothing: the diagonal need not be zero
            # for every measure.
            trial[others] = 0.0
            np.fill_diagonal(trial, 0.0)
            table[row] = np.add.reduce(trial, axis=0)
        if not history:
            cost = float(table[0, medoids[0]])
            history.append(cost)
        table[:, medoids] = np.inf
        row, cand = divmod(int(np.argmin(table)), m.n)
        if not table[row, cand] < cost:
            break
        cost = float(table[row, cand])
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
