"""Weighted spatial-temporal dissimilarity between mobility patterns.

All three functions return 0 for "as similar as possible" and 1 for "as
different as possible". The spatial part counts cells of one pattern that
the other never visits; the temporal part averages normalized timestamp
gaps over every index pair that lands on a common cell. Both fold over the
cells the two patterns share, read from each pattern's `visits` index, as
do oss, lcss (Hunt-Szymanski, from the same matches) and cvti.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError
from .patterns import SLOT_COUNT, MobilityPattern


@dataclass(frozen=True)
class Weights:
    """Convex weighting of the spatial and temporal parts."""

    space: float = 0.5
    time: float = 0.5

    def __post_init__(self) -> None:
        if not (math.isfinite(self.space) and math.isfinite(self.time)):
            raise DomainError(f"weights must be finite, got {self}")
        if self.space < 0 or self.time < 0:
            raise DomainError(f"weights must be non-negative, got {self}")
        if abs(self.space + self.time - 1.0) > 1e-12:
            raise DomainError(f"weights must sum to 1, got {self}")


DEFAULT_WEIGHTS = Weights()

# GAP[x][y] / GAP_SCALE is the normalized gap |x - y| / max(x, y) of two
# slots (1..SLOT_COUNT) or two slot increments (0..SLOT_COUNT - 1), 0 at
# (0, 0). GAP_SCALE is a multiple of every max(x, y), so each GAP is an int.
GAP_SCALE = math.lcm(*range(1, SLOT_COUNT + 1))
GAP = [
    [abs(x - y) * (GAP_SCALE // max(x, y)) if x or y else 0 for y in range(SLOT_COUNT + 1)]
    for x in range(SLOT_COUNT + 1)
]


def uncommon_cell_count(a: MobilityPattern, b: MobilityPattern) -> int:
    """Number of points whose cell does not occur anywhere in the other pattern.

    Counted in both directions: points of a with a cell absent from b, plus
    points of b with a cell absent from a. Repeated visits count once each.
    """
    va, vb = a.visits, b.visits
    return len(a) + len(b) - sum(len(va[c]) + len(vb[c]) for c in va.keys() & vb.keys())


def spatial_dissimilarity(a: MobilityPattern, b: MobilityPattern) -> float:
    """Share of points sitting on cells the other pattern never visits."""
    return uncommon_cell_count(a, b) / (len(a) + len(b))


def temporal_dissimilarity(a: MobilityPattern, b: MobilityPattern) -> float:
    """Mean normalized timestamp gap over all cross-pattern matches.

    Every index pair (i, j) with the same cell contributes
    |ta_i - tb_j| / max(ta_i, tb_j); the mean is over the number of such
    pairs. With no common cell there is nothing to compare and the
    patterns count as temporally maximally apart: the result is 1.
    """
    sa, sb, va, vb = a.slots, b.slots, a.visits, b.visits
    terms = [GAP[sa[i]][sb[j]] for c in va.keys() & vb.keys() for i in va[c] for j in vb[c]]
    if not terms:
        return 1.0
    # An int sum is the same in any order, and int / int rounds the exact
    # mean once, so swapping the arguments yields the bit-identical result.
    return sum(terms) / (GAP_SCALE * len(terms))


def weighted_dissimilarity(
    a: MobilityPattern, b: MobilityPattern, weights: Weights | None = None
) -> float:
    """Convex combination of the spatial and temporal dissimilarities."""
    w = DEFAULT_WEIGHTS if weights is None else weights
    return w.space * spatial_dissimilarity(a, b) + w.time * temporal_dissimilarity(a, b)
