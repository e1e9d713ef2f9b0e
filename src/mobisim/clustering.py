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
from .errors import DomainError
from .graph import CellGraph
from .measures import Weights
from .patterns import MobilityPattern

MeasureFn = Callable[[MobilityPattern, MobilityPattern], float]

MEASURES: tuple[str, ...] = (
    "space",
    "time",
    "composite",
    "tiakas-net",
    "tiakas-time",
    "tiakas-total",
    "oss",
    "lcss",
    "cvti",
)

# Raw-unit similarities; everything else is a [0,1] dissimilarity.
SIMILARITY_MEASURES: tuple[str, ...] = ("lcss", "cvti")

# The measures that read a cell graph.
GRAPH_MEASURES: tuple[str, ...] = ("tiakas-net", "tiakas-total")


def resolve_measure(
    name: str,
    graph: CellGraph | None = None,
    weights: Weights | None = None,
) -> MeasureFn:
    """Turn a measure selector into a two-pattern callable.

    tiakas-net and tiakas-total need a graph; composite and tiakas-total
    accept weights (default 0.5/0.5).
    """
    if name not in MEASURES:
        raise DomainError(
            f"unknown measure {name!r}; expected one of {', '.join(MEASURES)}"
        )
    if name in GRAPH_MEASURES and graph is None:
        raise DomainError(f"measure {name!r} requires a cell graph")

    if name == "space":
        return measures.spatial_dissimilarity
    if name == "time":
        return measures.temporal_dissimilarity
    if name == "composite":
        return lambda a, b: measures.weighted_dissimilarity(a, b, weights)
    if name == "tiakas-net":
        return lambda a, b: baselines.tiakas_net(a, b, graph)
    if name == "tiakas-time":
        return baselines.tiakas_time
    if name == "tiakas-total":
        return lambda a, b: baselines.tiakas_total(a, b, graph, weights)
    if name == "oss":
        return baselines.oss
    if name == "lcss":
        return lambda a, b: float(baselines.lcss(a, b))
    return lambda a, b: float(baselines.cvti(a, b))


@dataclass(frozen=True)
class DissimilarityMatrix:
    """Square table of pairwise measure values with provenance tag."""

    n: int
    values: np.ndarray
    measure_tag: str
    ids: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.values.shape != (self.n, self.n):
            raise DomainError(
                f"matrix shape {self.values.shape} does not match n={self.n}"
            )
        if not np.isfinite(self.values).all():
            raise DomainError("matrix contains non-finite entries")
        if self.ids is not None and len(self.ids) != self.n:
            raise DomainError(f"{len(self.ids)} ids for {self.n} patterns")


def build_matrix(
    patterns: Sequence[MobilityPattern],
    measure: str,
    graph: CellGraph | None = None,
    weights: Weights | None = None,
    ids: Sequence[str] | None = None,
) -> DissimilarityMatrix:
    """Evaluate the measure on every ordered pair, diagonal included."""
    if not patterns:
        raise DomainError("need at least one pattern")
    fn = resolve_measure(measure, graph=graph, weights=weights)
    n = len(patterns)
    ids = None if ids is None else tuple(ids)
    if ids is not None and len(ids) != n:
        raise DomainError(f"{len(ids)} ids for {n} patterns")
    names = range(n) if ids is None else ids
    values = np.empty((n, n), dtype=np.float64)
    for i, pa in enumerate(patterns):
        for j, pb in enumerate(patterns):
            try:
                values[i, j] = fn(pa, pb)
            except DomainError as exc:
                raise DomainError(
                    f"measure {measure!r} failed for patterns "
                    f"{names[i]!r} and {names[j]!r}: {exc}"
                ) from exc
    values.setflags(write=False)
    return DissimilarityMatrix(
        n=n,
        values=values,
        measure_tag=measure,
        ids=ids,
    )


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


def _assign(values: np.ndarray, medoids: Sequence[int]) -> tuple[list[int], float]:
    assignment = []
    cost = 0.0
    for i in range(values.shape[0]):
        if i in medoids:
            assignment.append(i)
            continue
        best = min(medoids, key=lambda m: (values[i, m], m))
        assignment.append(best)
        cost += values[i, best]
    return assignment, cost


def _config_cost(values: np.ndarray, medoids: Sequence[int]) -> float:
    cost = 0.0
    for i in range(values.shape[0]):
        if i not in medoids:
            cost += min(values[i, m] for m in medoids)
    return cost


def kmedoids(m: DissimilarityMatrix, k: int, seed: int = 0) -> ClusterAssignment:
    """PAM-style k-medoids over a precomputed matrix.

    Starts from a seeded random medoid selection, then repeatedly applies
    the single best strictly-improving medoid/non-medoid swap until none
    exists. Deterministic for fixed (matrix, k, seed): swaps are scanned in
    ascending (medoid, candidate) order and ties keep the earliest.
    """
    if not 1 <= k <= m.n:
        raise DomainError(f"k={k} outside 1..{m.n}")

    rng = random.Random(seed)
    medoids = sorted(rng.sample(range(m.n), k))
    cost = _config_cost(m.values, medoids)
    history = [cost]

    while True:
        best_swap: tuple[int, int] | None = None
        best_cost = cost
        for med in medoids:
            for cand in range(m.n):
                if cand in medoids:
                    continue
                trial = sorted(c for c in medoids if c != med) + [cand]
                trial_cost = _config_cost(m.values, trial)
                if trial_cost < best_cost:
                    best_cost = trial_cost
                    best_swap = (med, cand)
        if best_swap is None:
            break
        med, cand = best_swap
        medoids = sorted([c for c in medoids if c != med] + [cand])
        cost = best_cost
        history.append(cost)

    assignment, final_cost = _assign(m.values, medoids)
    # The diagonal need not be zero for every measure, so recompute the
    # reported cost from the final assignment (medoids contribute 0).
    return ClusterAssignment(
        medoids=tuple(medoids),
        assignment=tuple(assignment),
        total_cost=final_cost,
        cost_history=tuple(history),
    )
