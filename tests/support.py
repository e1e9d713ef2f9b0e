"""Shared helpers for the test suite: brute-force oracles and generators.

The oracles are written straight off the definitions with nested loops and
no shared code with the package, so agreement is meaningful.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from fractions import Fraction
from typing import Sequence

import numpy as np

from mobisim.clustering import ClusterAssignment, DissimilarityMatrix, resolve_measure
from mobisim.errors import DomainError, GraphNotConnectedError
from mobisim.graph import CellGraph
from mobisim.measures import DEFAULT_WEIGHTS, Weights
from mobisim.patterns import MobilityPattern


def _integer(value, name: str) -> int:
    if not hasattr(type(value), "__index__"):
        raise DomainError(f"{name} {value!r} is not an integer")
    return type(value).__index__(value)


def brute_make_pattern(
    pairs: Sequence[tuple[int, int]], strict: bool = False
) -> MobilityPattern:
    """The construction rules, checked one by one: for each pair the slot
    (an integer in 1..11), then the cell (a non-negative integer); then
    emptiness, order and strictness. The result is assembled without
    MobilityPattern's own validation."""
    cells, slots = [], []
    for cell, t in pairs:
        slot = _integer(t, "timestamp index")
        if slot < 1 or slot > 11:
            raise DomainError(f"timestamp index {t} outside 1..11")
        cell_id = _integer(cell, "cell id")
        if cell_id < 0:
            raise DomainError(f"cell id must be non-negative, got {cell}")
        cells.append(cell_id)
        slots.append(slot)
    if not cells:
        raise DomainError("a pattern needs at least one point")
    for i in range(1, len(slots)):
        if slots[i] < slots[i - 1]:
            raise DomainError(
                "timestamps must be non-decreasing "
                f"(({cells[i - 1]},t{slots[i - 1]}) then ({cells[i]},t{slots[i]}))"
            )
    if strict:
        for i in range(2, len(slots)):
            if slots[i - 2] == slots[i - 1] == slots[i]:
                raise DomainError(f"more than two consecutive points share t{slots[i]}")
    pattern = object.__new__(MobilityPattern)
    pattern.cells = tuple(cells)
    pattern.slots = tuple(slots)
    pattern._visits = None
    return pattern


def brute_uncommon(a: MobilityPattern, b: MobilityPattern) -> int:
    count = 0
    for ca in a.cells:
        if all(ca != cb for cb in b.cells):
            count += 1
    for cb in b.cells:
        if all(cb != ca for ca in a.cells):
            count += 1
    return count


def brute_d_space(a: MobilityPattern, b: MobilityPattern) -> float:
    return brute_uncommon(a, b) / (len(a) + len(b))


def brute_d_time(a: MobilityPattern, b: MobilityPattern) -> float:
    total = 0.0
    k = 0
    for ca, ta in zip(a.cells, a.slots):
        for cb, tb in zip(b.cells, b.slots):
            if ca == cb:
                total += abs(ta - tb) / max(ta, tb)
                k += 1
    return total / k if k else 1.0


def exact_d_time(a: MobilityPattern, b: MobilityPattern) -> float:
    """The L_a x L_b scan over all point pairs, each term an exact Fraction,
    and float() of their mean, which rounds it once: the temporal
    dissimilarity bit for bit."""
    terms = []
    for ca, ta in zip(a.cells, a.slots):
        for cb, tb in zip(b.cells, b.slots):
            if ca == cb:
                terms.append(Fraction(abs(ta - tb), max(ta, tb)))
    return float(sum(terms) / len(terms)) if terms else 1.0


def scan_displacement(a: MobilityPattern, b: MobilityPattern) -> int:
    """oss's displacement sum, each shared cell's positions found by
    rescanning both patterns."""
    displacement = 0
    for cell in set(a.cells) & set(b.cells):
        pos_a = [i for i, c in enumerate(a.cells) if c == cell]
        pos_b = [i for i, c in enumerate(b.cells) if c == cell]
        displacement += sum(abs(i - j) for i, j in zip(pos_a, pos_b))
    return displacement


def scan_oss_components(a: MobilityPattern, b: MobilityPattern) -> tuple[float, int]:
    """oss's (f, g), from scan_displacement."""
    return scan_displacement(a, b) / max(len(a), len(b)), brute_uncommon(a, b)


def exact_oss(a: MobilityPattern, b: MobilityPattern) -> float:
    """(f + g) / (n + m) as an exact Fraction, rounded once."""
    f = Fraction(scan_displacement(a, b), max(len(a), len(b)))
    return float((f + brute_uncommon(a, b)) / (len(a) + len(b)))


def dp_lcss(a: MobilityPattern, b: MobilityPattern) -> int:
    """The O(L_a * L_b) dynamic-programming table, kept one row at a time."""
    prev = [0] * (len(b) + 1)
    for ca in a.cells:
        cur = [0]
        for j, cb in enumerate(b.cells):
            cur.append(prev[j] + 1 if ca == cb else max(prev[j + 1], cur[j]))
        prev = cur
    return prev[-1]


def brute_lcss(a: MobilityPattern, b: MobilityPattern) -> int:
    """Exponential subsequence enumeration; only usable for short patterns."""
    ca, cb = a.cells, b.cells
    assert len(ca) <= 7 and len(cb) <= 7
    best = 0
    for r in range(len(ca), 0, -1):
        if r <= best:
            break
        for combo in itertools.combinations(ca, r):
            it = iter(cb)
            if all(any(x == y for y in it) for x in combo):
                best = max(best, r)
                break
    return best


def brute_cvti(a: MobilityPattern, b: MobilityPattern) -> int:
    """Overlap via explicit minute sets instead of interval arithmetic.

    Slot t covers minutes 135·(t−1) … min(135·t, 1440) − 1 of the day."""

    def minutes(t: int) -> set[int]:
        return set(range(135 * (t - 1), min(135 * t, 1440)))

    total = 0
    for ca, ta in zip(a.cells, a.slots):
        for cb, tb in zip(b.cells, b.slots):
            if ca == cb:
                total += len(minutes(ta) & minutes(tb))
    return total


def exact_tiakas_net(
    a: MobilityPattern, b: MobilityPattern, graph: CellGraph, hops: dict | None = None
) -> float:
    """tiakas_net per position: equal lengths, then the diameter, then the
    hop_distance of each position (a's cell checked before b's), and
    float() of the mean of the Fractions h / dia (0 for 0 hops), each
    distinct h counted once with its multiplicity. hops, if given, keeps
    each distance, under its cells in ascending order, for later calls on
    the same graph."""
    if len(a) != len(b):
        raise DomainError(f"patterns must have equal length, got {len(a)} and {len(b)}")
    dia = graph.diameter()
    hops = {} if hops is None else hops
    seen = Counter()
    for va, vb in zip(a.cells, b.cells):
        key = min(va, vb), max(va, vb)
        if key not in hops:
            hops[key] = graph.hop_distance(va, vb)
        seen[hops[key]] += 1
    total = sum(n * Fraction(h, dia) for h, n in seen.items() if h)
    return float(Fraction(total) / len(a))


def exact_tiakas_time(a: MobilityPattern, b: MobilityPattern) -> float:
    """tiakas_time per step: float() of the mean of the Fractions
    |da - db| / max(da, db) of the two slot increments, 0 where both are 0."""
    if len(a) != len(b):
        raise DomainError(f"patterns must have equal length, got {len(a)} and {len(b)}")
    if len(a) < 2:
        raise DomainError("patterns need at least two points")
    terms = []
    for i in range(len(a) - 1):
        da, db = a.slots[i + 1] - a.slots[i], b.slots[i + 1] - b.slots[i]
        terms.append(Fraction(0) if da == db == 0 else Fraction(abs(da - db), max(da, db)))
    return float(sum(terms) / len(terms))


def exact_tiakas_total(
    a: MobilityPattern,
    b: MobilityPattern,
    graph: CellGraph,
    weights: Weights | None = None,
    hops: dict | None = None,
) -> float:
    w = DEFAULT_WEIGHTS if weights is None else weights
    return w.space * exact_tiakas_net(a, b, graph, hops) + w.time * exact_tiakas_time(a, b)


def exact_tiakas(measure: str, graph: CellGraph | None, weights: Weights | None):
    """The two-pattern oracle of a tiakas-* measure, sharing one hop cache
    across its calls, or None for the other measures."""
    hops: dict = {}
    return {
        "tiakas-net": lambda a, b: exact_tiakas_net(a, b, graph, hops),
        "tiakas-time": exact_tiakas_time,
        "tiakas-total": lambda a, b: exact_tiakas_total(a, b, graph, weights, hops),
    }.get(measure)


def brute_diameter(g: CellGraph) -> int:
    """The all-sources loop: a BFS from every cell, keeping the largest
    level; any unreachable cell means the graph is not connected. Each
    cell's neighbours are read once, before the first BFS."""
    neighbors = [g.neighbors(v) for v in range(g.vertex_count)]
    best = 0
    for v in range(g.vertex_count):
        levels = [-1] * g.vertex_count
        levels[v] = 0
        frontier = [v]
        while frontier:
            nxt = []
            for x in frontier:
                for y in neighbors[x]:
                    if levels[y] < 0:
                        levels[y] = levels[x] + 1
                        nxt.append(y)
            frontier = nxt
        worst = max(levels)
        if min(levels) < 0:
            raise GraphNotConnectedError("graph is not connected")
        best = max(best, worst)
    return best


def random_connected_graph(rng: random.Random, lo: int = 6, hi: int = 30) -> CellGraph:
    """Random spanning tree plus a few extra edges."""
    n = rng.randint(lo, hi)
    edges = {(rng.randrange(i), i) for i in range(1, n)}
    for _ in range(rng.randint(0, n)):
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            edges.add((min(a, b), max(a, b)))
    return CellGraph(n, edges)


def random_pattern(
    rng: random.Random, n_cells: int, min_len: int = 1, max_len: int = 12
) -> MobilityPattern:
    length = rng.randint(min_len, max_len)
    slots = sorted(rng.randint(1, 11) for _ in range(length))
    return MobilityPattern([(rng.randrange(n_cells), t) for t in slots])


def has_repeat_at_distinct_slots(p: MobilityPattern) -> bool:
    """True when some cell is revisited at two different timestamps."""
    seen: dict[int, int] = {}
    for cell, slot in zip(p.cells, p.slots):
        if cell in seen and seen[cell] != slot:
            return True
        seen.setdefault(cell, slot)
    return False


def brute_build_matrix(
    patterns: Sequence[MobilityPattern],
    measure: str,
    graph: CellGraph | None = None,
    weights: Weights | None = None,
    ids: Sequence[str] | None = None,
) -> DissimilarityMatrix:
    """The loop build: evaluate the measure on every ordered pair, diagonal
    included, in row-major order; a tiakas-* measure by its exact oracle."""
    if not patterns:
        raise DomainError("need at least one pattern")
    fn = resolve_measure(measure, graph=graph, weights=weights)
    fn = exact_tiakas(measure, graph, weights) or fn
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
    return DissimilarityMatrix(values=values, ids=ids)


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


def brute_kmedoids(m: DissimilarityMatrix, k: int, seed: int = 0) -> ClusterAssignment:
    """The loop PAM, recomputing every trial configuration's cost in Python.

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
