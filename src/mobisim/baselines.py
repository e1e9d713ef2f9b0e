"""Reference trajectory measures: network/time distance, OSS, LCSS, CVTI.

These are the classical measures the weighted spatial-temporal
dissimilarity is compared against. Naming follows the literature: the
network-constrained pair is exposed as tiakas_net / tiakas_time, the
origin-sequence similarity as oss, the longest common subsequence length
as lcss, and the common-visit-time interval as cvti.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import sub
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DomainError
from .graph import CellGraph
from .measures import DEFAULT_WEIGHTS, GAP_TERMS, Weights, uncommon_cell_count
from .patterns import SLOT_COUNT, MobilityPattern, slot_minutes


def _check_pair(
    a: MobilityPattern, b: MobilityPattern, graph: CellGraph | None, points: int
) -> None:
    """Raise the error a tiakas measure gives on (a, b), if any.

    In order: unequal lengths; given a graph, a disconnected graph, then
    the first cell off it by position, a's before b's; then fewer than
    points points (1 for tiakas_net, 2 for tiakas_time and tiakas_total).
    """
    if len(a) != len(b):
        raise DomainError(f"patterns must have equal length, got {len(a)} and {len(b)}")
    if graph is not None:
        graph.diameter()
        if max(a.cells) >= graph.vertex_count or max(b.cells) >= graph.vertex_count:
            for va, vb in zip(a.cells, b.cells):
                graph._check_cell(va)
                graph._check_cell(vb)
    if len(a) < points:
        raise DomainError("patterns need at least two points")


class _RowError(DomainError):
    """args (j, error): a tiakas table's first failing pair (0, j) raised error."""


def _check_row(
    patterns: Sequence[MobilityPattern], graph: CellGraph | None, points: int
) -> None:
    """Raise _RowError for the first pair (0, j) that fails _check_pair.

    Each precondition tests one pattern: a length equal to pattern 0's and
    at least points long, and, given a graph, a connected graph holding
    every cell. So a row-major pair loop first fails in row 0, on (0, j)
    for the first failing pattern j, or on (0, 0) when pattern 0 or the
    graph fails.
    """
    for j, p in enumerate(patterns):
        try:
            _check_pair(patterns[0], p, graph, points)
        except DomainError as exc:
            raise _RowError(j, exc) from exc


# A term is split into 30-bit limbs, and no temporary of the pair sums
# holds more than _CHUNK values.
_LIMB = 30
_CHUNK = 1 << 16


def _limbs(terms: list[float], most: int) -> tuple[tuple[np.ndarray, ...], Callable]:
    """(limbs, scale): the terms as exact integers, to be summed up to most
    at a time, and how to turn such an integer sum back into a double.

    Every term is a non-negative double, so each is an integer multiple k of
    2**-e for the largest e any of them needs, and math.fsum of some terms
    is their exact sum of k's times 2**-e, rounded once. While most of them
    stay below 2**53, the k's are two limbs, k = hi * 2**30 + lo, held as
    doubles: every limb sum stays below 2**53, so it is exact in any order,
    and scale(hi_sum, lo_sum), one float addition of the two scaled sums,
    rounds their exact total once. Past that bound limbs holds the k's as
    Python ints, and scale(total), one int division by 2**e, rounds each
    total once. Integer sums are exact in any order.
    """
    ratios = [t.as_integer_ratio() for t in terms]
    e = max(den.bit_length() - 1 for _, den in ratios)
    ks = [num << (e - den.bit_length() + 1) for num, den in ratios]
    if most * max(max(ks) >> _LIMB, 1 << _LIMB) < 2**53:
        hi, lo = [k >> _LIMB for k in ks], [k & (1 << _LIMB) - 1 for k in ks]
        limbs = (np.array(hi, dtype=np.float64), np.array(lo, dtype=np.float64))
        return limbs, lambda hi_sum, lo_sum: hi_sum * 2.0 ** (_LIMB - e) + lo_sum * 2.0 ** -e
    return (np.array(ks, dtype=object),), lambda total: total / (1 << e)


def _exact_means(codes: np.ndarray, pick: np.ndarray, terms: list[float]) -> np.ndarray:
    """values[i, j] = math.fsum(terms[pick[codes[i, l], codes[j, l]]] for
    each of the L columns l) / L, bit for bit, for every pair at once.

    The terms are summed as the exact integers of _limbs. Each chunk of rows
    sums blocks of columns at once, no temporary holding more than about
    _CHUNK values: memory grows with n^2, not n^2 * L.
    """
    n, length = codes.shape
    limbs, scale = _limbs(terms, length)
    values = np.empty((n, n))
    step = max(1, _CHUNK // n)
    for start in range(0, n, step):
        rows = codes[start : start + step, None]
        width = max(1, _CHUNK // (len(rows) * n))
        sums = [0] * len(limbs)
        for col in range(0, length, width):
            term = pick[rows[..., col : col + width], codes[:, col : col + width]]
            sums = [total + limb[term].sum(axis=2) for total, limb in zip(sums, limbs)]
        values[start : start + step] = scale(*sums) / length
    return values


def net_term(hops: int, dia: int) -> float:
    """One position's tiakas_net term: hops / dia, and 0.0 for 0 hops, so a
    one-cell graph (diameter 0) never divides by 0."""
    return hops / dia if hops else 0.0


def _coded(rows: Iterable[Iterable[int]]) -> tuple[np.ndarray, list[int]]:
    """The rows as an array of codes, each value's code its rank in order
    of first use, and the values in that order. A dict, since np.unique
    alone adds about 0.75 MB of resident memory to a process."""
    code: dict[int, int] = {}
    codes = np.array([[code.setdefault(v, len(code)) for v in row] for row in rows])
    return codes, list(code)


def _tiakas_net_table(patterns: Sequence[MobilityPattern], graph: CellGraph) -> np.ndarray:
    """tiakas_net on every pair: one hop table over the cells in use, whose
    entries index the dia + 1 possible terms."""
    _check_row(patterns, graph, 1)
    dia = graph.diameter()
    codes, cells = _coded(p.cells for p in patterns)
    terms = [net_term(h, dia) for h in range(dia + 1)]
    return _exact_means(codes, graph.hop_table(cells), terms)


def tiakas_net(a: MobilityPattern, b: MobilityPattern, graph: CellGraph) -> float:
    """Network distance: mean per-position hop distance scaled by diameter.

    Defined only for patterns of equal length whose cells are all in a
    connected graph. Each position contributes net_term of the hop distance
    between its two cells, and the terms are summed exactly, as by fsum.
    """
    _check_pair(a, b, graph, 1)
    return float(_tiakas_net_table([a, b], graph)[0, 1])


def _tiakas_time_table(patterns: Sequence[MobilityPattern]) -> np.ndarray:
    """tiakas_time on every pair, from each pattern's slot increments, each
    0..SLOT_COUNT - 1 since slots never decrease, and the term in GAP_TERMS
    of every two increments in use."""
    _check_row(patterns, None, 2)
    codes, steps = _coded(map(sub, p.slots[1:], p.slots) for p in patterns)
    pick = np.arange(len(steps) ** 2).reshape(len(steps), -1)
    terms = [GAP_TERMS[da][db] for da in steps for db in steps]
    return _exact_means(codes, pick, terms)


def tiakas_time(a: MobilityPattern, b: MobilityPattern) -> float:
    """Time distance: mean normalized gap between successive-step durations.

    Compares the i-th timestamp increment of one pattern against the i-th
    of the other; a step where both increments are zero contributes zero.
    Needs equal lengths of at least two points.
    """
    _check_pair(a, b, None, 2)
    return float(_tiakas_time_table([a, b])[0, 1])


def _tiakas_total_table(
    patterns: Sequence[MobilityPattern], graph: CellGraph, weights: Weights | None
) -> np.ndarray:
    """tiakas_total on every pair, from the net and time tables."""
    _check_row(patterns, graph, 2)
    w = DEFAULT_WEIGHTS if weights is None else weights
    return w.space * _tiakas_net_table(patterns, graph) + w.time * _tiakas_time_table(patterns)


def tiakas_total(
    a: MobilityPattern,
    b: MobilityPattern,
    graph: CellGraph,
    weights: Weights | None = None,
) -> float:
    """Weighted combination of the network and time distances."""
    _check_pair(a, b, graph, 2)
    return float(_tiakas_total_table([a, b], graph, weights)[0, 1])


def oss_components(a: MobilityPattern, b: MobilityPattern) -> tuple[float, int]:
    """The (f, g) parts of the origin-sequence similarity.

    g counts points whose cell the other pattern never visits. f measures
    positional displacement of the shared cells: for each cell occurring in
    both patterns its occurrence positions are paired off in ascending
    order, absolute position differences are summed over all cells, and the
    total is divided by max(n, m).
    """
    va, vb = a.visits, b.visits
    f = sum(abs(i - j) for c in va.keys() & vb.keys() for i, j in zip(va[c], vb[c]))
    return f / max(len(a), len(b)), uncommon_cell_count(a, b)


def oss(a: MobilityPattern, b: MobilityPattern) -> float:
    """Origin-sequence dissimilarity (f + g) / (n + m)."""
    f, g = oss_components(a, b)
    return (f + g) / (len(a) + len(b))


def lcss(a: MobilityPattern, b: MobilityPattern) -> int:
    """Length of the longest common subsequence of the two cell sequences.

    Hunt & Szymanski (CACM 1977): tails[k] is the least position in b that
    ends a common subsequence of length k + 1. b's positions on each cell of
    a are taken last first, so one point of a extends at most one of them.
    """
    vb, tails = b.visits, []
    for cell in a.cells:
        for j in reversed(vb.get(cell, ())):
            k = bisect_left(tails, j)
            if k == len(tails):
                tails.append(j)
            else:
                tails[k] = j
    return len(tails)


# Minutes shared by the closed intervals of slots i + 1 and j + 1.
_BOUNDS = [slot_minutes(t) for t in range(1, SLOT_COUNT + 1)]
_SLOT_OVERLAP = [
    [max(0, min(ea, eb) - max(sa, sb) + 1) for sb, eb in _BOUNDS]
    for sa, ea in _BOUNDS
]


def cvti(a: MobilityPattern, b: MobilityPattern) -> int:
    """Common visit time: total minutes of slot overlap on shared cells.

    Every pair of visits to the same cell contributes the length of the
    intersection of their slot intervals, in minutes (intervals are closed,
    so two identical full slots overlap for 135 minutes). Higher means more
    similar; this is the one similarity, not dissimilarity, in the module.
    """
    sa, sb, va, vb = a.slots, b.slots, a.visits, b.visits
    return sum(
        _SLOT_OVERLAP[sa[i] - 1][sb[j] - 1]
        for c in va.keys() & vb.keys() for i in va[c] for j in vb[c]
    )
