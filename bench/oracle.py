"""Output checks, made apart from the program.

The measures are written again here from their definitions, over plain
(cell, slot) lists, and the files mobisim writes are parsed by this module's
own readers. Nothing in this module imports mobisim. Every check raises
CheckError on the first thing it finds wrong.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import Callable

import numpy as np

from workloads import SLOT_COUNT, Pattern, Workload, axial, grid_diameter, hex_distance, neighbours

# Values are written at 6 decimals: a printed value is within 5e-7 of the
# program's value, which is within a few ulps of the value defined here.
ROUND = 1e-6
WEIGHTS = (0.5, 0.5)  # the CLI's default --wspace / --wtime


class CheckError(Exception):
    """An output of mobisim is not what the definitions give."""


# --- measures from their definitions ----------------------------------------


def space(a: Pattern, b: Pattern) -> float:
    """Share of points sitting on a cell the other pattern never visits."""
    cells_a = {c for c, _ in a}
    cells_b = {c for c, _ in b}
    alone = sum(c not in cells_b for c, _ in a) + sum(c not in cells_a for c, _ in b)
    return alone / (len(a) + len(b))


def time(a: Pattern, b: Pattern) -> float:
    """Mean of |ta - tb| / max(ta, tb) over index pairs on a common cell; 1 if none."""
    gaps = [abs(ta - tb) / max(ta, tb) for ca, ta in a for cb, tb in b if ca == cb]
    return sum(gaps) / len(gaps) if gaps else 1.0


def composite(a: Pattern, b: Pattern) -> float:
    return WEIGHTS[0] * space(a, b) + WEIGHTS[1] * time(a, b)


def oss(a: Pattern, b: Pattern) -> float:
    """(f + g) / (n + m): g counts points on cells the other never visits;
    f sums position shifts of shared cells' occurrences, paired in order,
    over max(n, m)."""
    cells_a = [c for c, _ in a]
    cells_b = [c for c, _ in b]
    g = sum(c not in cells_b for c in cells_a) + sum(c not in cells_a for c in cells_b)
    shift = 0
    for cell in set(cells_a) & set(cells_b):
        at_a = [i for i, c in enumerate(cells_a) if c == cell]
        at_b = [j for j, c in enumerate(cells_b) if c == cell]
        shift += sum(abs(i - j) for i, j in zip(at_a, at_b))
    return (shift / max(len(a), len(b)) + g) / (len(a) + len(b))


def lcss(a: Pattern, b: Pattern) -> float:
    """Length of the longest common subsequence of the two cell sequences."""
    cells_a = tuple(c for c, _ in a)
    cells_b = tuple(c for c, _ in b)

    @lru_cache(maxsize=None)
    def longest(i: int, j: int) -> int:
        if i == len(cells_a) or j == len(cells_b):
            return 0
        if cells_a[i] == cells_b[j]:
            return 1 + longest(i + 1, j + 1)
        return max(longest(i + 1, j), longest(i, j + 1))

    return float(longest(0, 0))


def _minutes(slot: int) -> tuple[int, int]:
    # Closed interval of minutes covered by a 135-minute slot; slot 11 ends at 23:59.
    return 135 * (slot - 1), min(135 * slot, 1440) - 1


def cvti(a: Pattern, b: Pattern) -> float:
    """Minutes of slot overlap, summed over every pair of visits to one cell."""
    total = 0
    for ca, ta in a:
        for cb, tb in b:
            if ca == cb:
                (sa, ea), (sb, eb) = _minutes(ta), _minutes(tb)
                total += max(0, min(ea, eb) - max(sa, sb) + 1)
    return float(total)


def tiakas_net(a: Pattern, b: Pattern, w: Workload) -> float:
    """Mean per-position hex distance over the grid diameter."""
    dia = grid_diameter(w.rows, w.cols)
    steps = [hex_distance(ca, cb, w.cols) / dia for (ca, _), (cb, _) in zip(a, b)]
    return sum(steps) / len(steps)


def tiakas_time(a: Pattern, b: Pattern) -> float:
    """Mean over steps of |da - db| / max(da, db), 0 where both stay put."""
    terms = []
    for i in range(len(a) - 1):
        da, db = a[i + 1][1] - a[i][1], b[i + 1][1] - b[i][1]
        terms.append(0.0 if da == db == 0 else abs(da - db) / max(da, db))
    return sum(terms) / len(terms)


def measure(name: str, w: Workload) -> Callable[[Pattern, Pattern], float]:
    table: dict[str, Callable[[Pattern, Pattern], float]] = {
        "space": space,
        "time": time,
        "composite": composite,
        "oss": oss,
        "lcss": lcss,
        "cvti": cvti,
        "tiakas-net": lambda a, b: tiakas_net(a, b, w),
        "tiakas-time": tiakas_time,
        "tiakas-total": lambda a, b: WEIGHTS[0] * tiakas_net(a, b, w)
        + WEIGHTS[1] * tiakas_time(a, b),
    }
    return table[name]


# Values for a pair with no common cell. tiakas-* is positional and has none.
DISJOINT = {"space": 1.0, "time": 1.0, "composite": 1.0, "oss": 1.0, "lcss": 0.0, "cvti": 0.0}


def sharing(patterns: dict[str, Pattern], cells: int) -> np.ndarray:
    """Boolean n x n table: do patterns i and j visit a common cell?"""
    seen = np.zeros((len(patterns), cells), dtype=np.int32)
    for i, points in enumerate(patterns.values()):
        seen[i, [c for c, _ in points]] = 1
    return (seen @ seen.T) > 0


def pairs_sharing_cell(patterns: dict[str, Pattern], cells: int) -> int:
    """Unordered pairs of distinct patterns that share a cell."""
    return int(np.triu(sharing(patterns, cells), k=1).sum())


# --- readers for mobisim's output files --------------------------------------


def read_trace(text: str) -> dict[str, Pattern]:
    """Parse a trace: header, contiguous ids in ascending order, seq 0, 1, ..."""
    lines = text.split("\n")
    if lines[0] != "pattern_id,seq,cell,timestamp_index" or lines[-1] != "":
        raise CheckError("trace header or final newline missing")
    patterns: dict[str, Pattern] = {}
    last = None
    for n, line in enumerate(lines[1:-1], start=2):
        fields = line.split(",")
        if len(fields) != 4:
            raise CheckError(f"trace line {n}: {line!r}")
        try:
            pid, seq, cell, slot = fields[0], *map(int, fields[1:])
        except ValueError:
            raise CheckError(f"trace line {n}: {line!r}") from None
        if pid != last:
            if last is not None and pid <= last:
                raise CheckError(f"trace line {n}: id {pid!r} after {last!r}")
            patterns[pid] = []
            last = pid
        if seq != len(patterns[pid]):
            raise CheckError(f"trace line {n}: seq {seq} in {pid!r}")
        patterns[pid].append((cell, slot))
    return patterns


def read_matrix(text: str, ids: list[str]) -> np.ndarray:
    """Parse a matrix file; check ids in trace order and exact symmetry."""
    lines = text.split("\n")
    if lines[-1] != "" or len(lines) != len(ids) + 2:
        raise CheckError(f"matrix has {len(lines) - 2} rows for {len(ids)} patterns")
    if lines[0] != "id," + ",".join(ids):
        raise CheckError("matrix header ids are not the trace ids in order")
    cells = []
    for pid, line in zip(ids, lines[1:-1]):
        fields = line.split(",")
        if fields[0] != pid or len(fields) != len(ids) + 1:
            raise CheckError(f"matrix row {fields[0]!r} out of place or of wrong width")
        cells.append(fields[1:])
    table = np.array(cells)
    if not (table == table.T).all():
        i, j = np.argwhere(table != table.T)[0]
        raise CheckError(f"matrix not symmetric at ({ids[i]}, {ids[j]})")
    return table.astype(np.float64)


# --- checks ------------------------------------------------------------------


def _close(got: float, want: float, what: str) -> None:
    if not abs(got - want) <= ROUND:
        raise CheckError(f"{what}: mobisim gives {got!r}, the definition {want!r}")


def check_gen(text: str, w: Workload) -> None:
    """`gen` output: loads back, count, lengths, slots and steps of the walk."""
    patterns = read_trace(text)
    if len(patterns) != w.count:
        raise CheckError(f"gen wrote {len(patterns)} patterns, asked for {w.count}")
    for pid, points in patterns.items():
        if not w.min_len <= len(points) <= w.max_len:
            raise CheckError(f"gen pattern {pid} has {len(points)} points")
        slots = [s for _, s in points]
        if slots != sorted(slots) or not 1 <= slots[0] <= slots[-1] <= SLOT_COUNT:
            raise CheckError(f"gen pattern {pid} slots {slots}")
        cells = [c for c, _ in points]
        if not 0 <= cells[0] < w.cells:
            raise CheckError(f"gen pattern {pid} starts off the grid at {cells[0]}")
        for here, there in zip(cells, cells[1:]):
            if there != here and there not in neighbours(here, w.rows, w.cols):
                raise CheckError(f"gen pattern {pid} jumps from {here} to {there}")


def check_matrix(
    text: str, measure_name: str, w: Workload, patterns: dict[str, Pattern], share: np.ndarray, seed: int
) -> np.ndarray:
    """Matrix file: layout, symmetry, sampled entries, disjoint closed forms."""
    ids = list(patterns)
    values = read_matrix(text, ids)
    fn = measure(measure_name, w)
    rng = random.Random(f"{measure_name}/{seed}")
    points = list(patterns.values())
    for _ in range(40):
        i, j = rng.randrange(len(ids)), rng.randrange(len(ids))
        _close(values[i, j], fn(points[i], points[j]), f"{measure_name}({ids[i]}, {ids[j]})")
    if measure_name in DISJOINT:
        wrong = ~share & (values != DISJOINT[measure_name])
        if wrong.any():
            i, j = np.argwhere(wrong)[0]
            raise CheckError(
                f"{measure_name}({ids[i]}, {ids[j]}) = {values[i, j]} on a disjoint pair"
            )
    if measure_name == "tiakas-net":
        # Every entry, from closed-form hex distances.
        coords = np.array([[axial(c, w.cols) for c, _ in p] for p in points])
        dq = coords[:, None, :, 0] - coords[None, :, :, 0]
        dr = coords[:, None, :, 1] - coords[None, :, :, 1]
        hops = (np.abs(dq) + np.abs(dr) + np.abs(dq + dr)) // 2
        want = hops.mean(axis=2) / grid_diameter(w.rows, w.cols)
        if not (np.abs(values - want) <= ROUND).all():
            i, j = np.argwhere(np.abs(values - want) > ROUND)[0]
            raise CheckError(f"tiakas-net({ids[i]}, {ids[j]}) = {values[i, j]}, hex distance gives {want[i, j]}")
    return values


def config_cost(values: np.ndarray, medoids: list[int]) -> float:
    rest = np.ones(len(values), dtype=bool)
    rest[medoids] = False
    return float(values[rest][:, medoids].min(axis=1).sum())


def check_cluster(table: str, summary: str, values: np.ndarray, ids: list[str], k: int) -> None:
    """Cluster output against the matrix file of the same measure.

    k distinct medoids, each assigned to itself; every pattern with a medoid
    of least dissimilarity; the printed cost is the sum of the assigned
    dissimilarities; no single swap lowers that cost by more than rounding.
    """
    lines = table.split("\n")
    if lines[0] != "pattern_id,medoid_id" or lines[-1] != "" or len(lines) != len(ids) + 2:
        raise CheckError("cluster table layout")
    index = {pid: i for i, pid in enumerate(ids)}
    assigned = []
    for pid, line in zip(ids, lines[1:-1]):
        row, _, medoid = line.partition(",")
        if row != pid or medoid not in index:
            raise CheckError(f"cluster row {line!r}")
        assigned.append(index[medoid])
    out = summary.strip().split("\n")
    if len(out) != 2 or not out[0].startswith("medoids: ") or not out[1].startswith("total cost = "):
        raise CheckError(f"cluster summary {summary!r}")
    try:
        medoids = [index[m] for m in out[0][len("medoids: "):].split(",")]
        cost = float(out[1][len("total cost = "):])
    except (KeyError, ValueError):
        raise CheckError(f"cluster summary {summary!r}") from None
    if len(set(medoids)) != k or len(medoids) != k:
        raise CheckError(f"cluster gave medoids {out[0]!r} for k={k}")
    if sorted(set(assigned)) != sorted(medoids) or any(assigned[m] != m for m in medoids):
        raise CheckError("cluster assigns to a non-medoid, or a medoid not to itself")
    slack = ROUND * (len(ids) + 1)
    for i, m in enumerate(assigned):
        if i not in medoids and values[i, m] > values[i, medoids].min() + ROUND:
            raise CheckError(f"cluster puts {ids[i]} with {ids[m]}, not its nearest medoid")
    assigned_cost = sum(values[i, m] for i, m in enumerate(assigned) if i not in medoids)
    if abs(assigned_cost - cost) > slack:
        raise CheckError(f"cluster prints cost {cost}, assignments sum to {assigned_cost}")
    total = config_cost(values, medoids)
    for m in medoids:
        for c in range(len(ids)):
            if c not in medoids:
                trial = [x for x in medoids if x != m] + [c]
                if config_cost(values, trial) < total - 2 * slack:
                    raise CheckError(f"swapping {ids[m]} for {ids[c]} lowers the cost")


def check_dist(printed: str, a: Pattern, b: Pattern, measure_name: str, w: Workload) -> None:
    try:
        got = float(printed)
    except ValueError:
        raise CheckError(f"dist printed {printed!r}") from None
    _close(got, measure(measure_name, w)(a, b), f"dist {measure_name}")
