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
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError
from .graph import CellGraph
from .measures import DEFAULT_WEIGHTS, GAP, GAP_SCALE, Weights, uncommon_cell_count
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


# No temporary of the pair sums holds more than _CHUNK values.
_CHUNK = 1 << 16


def _pair_sums(codes: np.ndarray, table: np.ndarray) -> np.ndarray:
    """sums[i, j] = the sum of table[codes[i, l], codes[j, l]] over the L
    columns l, as int64, for every pair at once. Below 2**53 each sum is
    an exact double, so one division by an int rounds each exact mean once.

    Each chunk of rows sums blocks of columns at once, no temporary holding
    more than about _CHUNK values: memory grows with n^2, not n^2 * L.
    """
    n, length = codes.shape
    sums = np.zeros((n, n), dtype=np.int64)
    step = max(1, _CHUNK // n)
    for start in range(0, n, step):
        rows = codes[start : start + step, None]
        width = max(1, _CHUNK // (len(rows) * n))
        for col in range(0, length, width):
            terms = table[rows[..., col : col + width], codes[:, col : col + width]]
            sums[start : start + step] += terms.sum(axis=2, dtype=np.int64)
    return sums


def _coded(rows: Iterable[Iterable[int]]) -> tuple[np.ndarray, list[int]]:
    """The rows as an array of codes, each value's code its rank in order
    of first use, and the values in that order. A dict, since np.unique
    alone adds about 0.75 MB of resident memory to a process."""
    code: dict[int, int] = {}
    codes = np.array([[code.setdefault(v, len(code)) for v in row] for row in rows])
    return codes, list(code)


def _tiakas_net_table(patterns: Sequence[MobilityPattern], graph: CellGraph) -> np.ndarray:
    """tiakas_net on every pair: the hops of one hop table over the cells in
    use, summed, over the diameter times the length; a one-cell graph, every
    hop 0, gives 0.0."""
    _check_row(patterns, graph, 1)
    dia = graph.diameter()
    codes, cells = _coded(p.cells for p in patterns)
    return _pair_sums(codes, graph.hop_table(cells)) / (max(dia, 1) * codes.shape[1])


def tiakas_net(a: MobilityPattern, b: MobilityPattern, graph: CellGraph) -> float:
    """Network distance: mean per-position hop distance scaled by diameter.

    Defined only for patterns of equal length whose cells are all in a
    connected graph. Each position contributes the hop distance between its
    two cells over the diameter: the value is the hop sum over diameter
    times length, two exact integers divided once.
    """
    _check_pair(a, b, graph, 1)
    return float(_tiakas_net_table([a, b], graph)[0, 1])


def _tiakas_time_table(patterns: Sequence[MobilityPattern]) -> np.ndarray:
    """tiakas_time on every pair, from each pattern's slot increments, each
    0..SLOT_COUNT - 1 since slots never decrease: the GAP of every two
    increments in use, summed, over GAP_SCALE times the step count."""
    _check_row(patterns, None, 2)
    codes, steps = _coded(map(sub, p.slots[1:], p.slots) for p in patterns)
    table = np.array([[GAP[da][db] for db in steps] for da in steps])
    return _pair_sums(codes, table) / (GAP_SCALE * codes.shape[1])


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
