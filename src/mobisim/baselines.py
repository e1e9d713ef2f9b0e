"""Reference trajectory measures: network/time distance, OSS, LCSS, CVTI.

These are the classical measures the weighted spatial-temporal
dissimilarity is compared against. Naming follows the literature: the
network-constrained pair is exposed as tiakas_net / tiakas_time, the
origin-sequence similarity as oss, the longest common subsequence length
as lcss, and the common-visit-time interval as cvti.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Callable

from .errors import DomainError
from .graph import CellGraph
from .measures import DEFAULT_WEIGHTS, Weights, uncommon_cell_count
from .patterns import SLOT_COUNT, MobilityPattern, slot_minutes


def tiakas_net(a: MobilityPattern, b: MobilityPattern, graph: CellGraph) -> float:
    """Network distance: mean per-position hop distance scaled by diameter.

    Defined only for patterns of equal length whose cells are all in the
    graph. Each position contributes the hop distance between the two cells
    divided by the graph diameter, and 0 when both sit on the same cell.
    """
    # BFS levels are reused within this call only: a graph-wide cache would
    # keep a V-long list for every cell any pattern ever used.
    return _tiakas_net(a, b, graph, graph.hop_lookup())


def _tiakas_net(
    a: MobilityPattern,
    b: MobilityPattern,
    graph: CellGraph,
    hop_distance: Callable[[int, int], int],
) -> float:
    """tiakas_net with its hop lookup given, so that a caller scoring many
    pairs can run each source cell's BFS once."""
    if len(a) != len(b):
        raise DomainError(
            f"patterns must have equal length, got {len(a)} and {len(b)}"
        )
    dia = graph.diameter()
    terms = []
    for va, vb in zip(a.cells, b.cells):
        # Every cell is looked up, even where both patterns sit on it. Hop
        # distance is symmetric on the undirected graph, and 0 hops is 0.0,
        # so a one-cell graph (diameter 0) never divides by 0.
        hops = hop_distance(va, vb)
        terms.append(hops / dia if hops else 0.0)
    return math.fsum(terms) / len(terms)


def tiakas_time(a: MobilityPattern, b: MobilityPattern) -> float:
    """Time distance: mean normalized gap between successive-step durations.

    Compares the i-th timestamp increment of one pattern against the i-th
    of the other; a step where both increments are zero contributes zero.
    Needs equal lengths of at least two points.
    """
    if len(a) != len(b):
        raise DomainError(
            f"patterns must have equal length, got {len(a)} and {len(b)}"
        )
    if len(a) < 2:
        raise DomainError("patterns need at least two points")
    slots_a, slots_b = a.slots, b.slots
    terms = []
    for i in range(len(a) - 1):
        da = slots_a[i + 1] - slots_a[i]
        db = slots_b[i + 1] - slots_b[i]
        terms.append(0.0 if da == db == 0 else abs(da - db) / max(da, db))
    return math.fsum(terms) / len(terms)


def tiakas_total(
    a: MobilityPattern,
    b: MobilityPattern,
    graph: CellGraph,
    weights: Weights | None = None,
) -> float:
    """Weighted combination of the network and time distances."""
    return _tiakas_total(a, b, graph, weights, graph.hop_lookup())


def _tiakas_total(
    a: MobilityPattern,
    b: MobilityPattern,
    graph: CellGraph,
    weights: Weights | None,
    hop_distance: Callable[[int, int], int],
) -> float:
    """tiakas_total with its hop lookup given, as in _tiakas_net."""
    w = DEFAULT_WEIGHTS if weights is None else weights
    return w.space * _tiakas_net(a, b, graph, hop_distance) + w.time * tiakas_time(a, b)


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
