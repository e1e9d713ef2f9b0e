"""Workload definitions and the benchmark's own seeded input generator.

The graph and trace files are written here, not by `mobisim gen` or
`mobisim.hex_grid`, so a change to either cannot change what the benchmark
measures. Nothing in this module imports mobisim.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Measures whose CLI commands need `--graph`; the others are run without it,
# as a user would.
GRAPH_MEASURES = ("tiakas-net", "tiakas-total")
BASELINE_MEASURES = (
    "space",
    "time",
    "tiakas-net",
    "tiakas-time",
    "tiakas-total",
    "oss",
    "lcss",
    "cvti",
)
SLOT_COUNT = 11


@dataclass(frozen=True)
class Workload:
    """Sizes of one workload's inputs and the commands it runs per round."""

    name: str
    rows: int
    cols: int
    count: int
    min_len: int
    max_len: int
    # Planted route groups: pattern i follows route i % groups and patterns
    # 0..groups-1 are the routes themselves. 0 means independent walks.
    groups: int
    jitter: float
    matrix_measures: tuple[str, ...]
    cluster_measure: str
    k: int
    dist_measure: str
    dists_per_round: int

    @property
    def cells(self) -> int:
        return self.rows * self.cols


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        # A 25-cell grid and walks of 8-16 points: most pairs share a cell,
        # and PAM at k=8 is most of `cluster`. The planted routes make the
        # number of PAM swaps nearly the same for every seed.
        Workload(
            name="cluster-dense",
            rows=5,
            cols=5,
            count=64,
            min_len=8,
            max_len=16,
            groups=8,
            jitter=0.25,
            matrix_measures=("composite",),
            cluster_measure="composite",
            k=8,
            dist_measure="composite",
            dists_per_round=30,
        ),
        # A 1600-cell grid and walks of 2-6 points: almost no pair shares a
        # cell, so `matrix` is build_matrix plus writing n^2 values.
        Workload(
            name="matrix-sparse",
            rows=40,
            cols=40,
            count=160,
            min_len=2,
            max_len=6,
            groups=0,
            jitter=0.0,
            matrix_measures=("composite",),
            cluster_measure="composite",
            k=2,
            dist_measure="composite",
            dists_per_round=30,
        ),
        # Equal lengths satisfy every measure's precondition; each tiakas
        # command reloads the graph and recomputes its diameter.
        Workload(
            name="baselines-equal",
            rows=20,
            cols=20,
            count=60,
            min_len=6,
            max_len=6,
            groups=0,
            jitter=0.0,
            matrix_measures=BASELINE_MEASURES,
            cluster_measure="tiakas-total",
            k=3,
            dist_measure="tiakas-total",
            dists_per_round=10,
        ),
    )
}


# --- hex grid ---------------------------------------------------------------
#
# Cell id = row * cols + col, and even rows are shifted right by half a cell.
# In axial coordinates (q, r) that layout is q = col - (row + (row & 1)) // 2,
# and two cells are adjacent exactly when their hex distance is 1, so the
# closed-form distance below is the hop distance of the grid graph.

AXIAL_STEPS = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1))


def axial(cell: int, cols: int) -> tuple[int, int]:
    row, col = divmod(cell, cols)
    return col - (row + (row & 1)) // 2, row


def hex_distance(a: int, b: int, cols: int) -> int:
    qa, ra = axial(a, cols)
    qb, rb = axial(b, cols)
    dq, dr = qa - qb, ra - rb
    return (abs(dq) + abs(dr) + abs(dq + dr)) // 2


def neighbours(cell: int, rows: int, cols: int) -> list[int]:
    q, r = axial(cell, cols)
    out = []
    for dq, dr in AXIAL_STEPS:
        row = r + dr
        if not 0 <= row < rows:
            continue
        col = q + dq + (row + (row & 1)) // 2
        if 0 <= col < cols:
            out.append(row * cols + col)
    return sorted(out)


def grid_diameter(rows: int, cols: int) -> int:
    """Largest hex distance in the grid.

    Hex distance is a maximum of linear functions of the axial coordinates,
    so its largest value over the grid is reached between border cells.
    """
    border = sorted(
        {r * cols + c for r in (0, rows - 1) for c in range(cols)}
        | {r * cols + c for r in range(rows) for c in (0, cols - 1)}
    )
    return max(hex_distance(a, b, cols) for a in border for b in border)


def graph_text(rows: int, cols: int) -> str:
    lines = [f"cells {rows * cols}"]
    for a in range(rows * cols):
        lines += [f"edge {a} {b}" for b in neighbours(a, rows, cols) if a < b]
    return "\n".join(lines) + "\n"


# --- traces -----------------------------------------------------------------

Pattern = list[tuple[int, int]]  # (cell, slot) points


def pattern_id(i: int) -> str:
    return f"p{i:04d}"


def _walk(rng: random.Random, w: Workload, length: int) -> Pattern:
    slots = sorted(rng.randint(1, SLOT_COUNT) for _ in range(length))
    cell = rng.randrange(w.cells)
    points = [(cell, slots[0])]
    for slot in slots[1:]:
        cell = rng.choice([cell, *neighbours(cell, w.rows, w.cols)])
        points.append((cell, slot))
    return points


def make_patterns(w: Workload, seed: int) -> dict[str, Pattern]:
    """Seeded patterns, in id order. Lengths cycle through the range, so
    every seed gives the same number of points."""
    rng = random.Random(f"{w.name}/{seed}")
    span = w.max_len - w.min_len
    if not w.groups:
        return {
            pattern_id(i): _walk(rng, w, w.min_len + i % (span + 1))
            for i in range(w.count)
        }
    routes = [
        _walk(rng, w, w.min_len + g * span // max(1, w.groups - 1))
        for g in range(w.groups)
    ]
    patterns = {}
    for i in range(w.count):
        route = routes[i % w.groups]
        if i >= w.groups:
            route = [
                (rng.choice(neighbours(c, w.rows, w.cols)), s)
                if rng.random() < w.jitter
                else (c, s)
                for c, s in route
            ]
        patterns[pattern_id(i)] = route
    return patterns


def trace_text(patterns: dict[str, Pattern]) -> str:
    lines = ["pattern_id,seq,cell,timestamp_index"]
    for pid, points in patterns.items():
        lines += [f"{pid},{seq},{c},{s}" for seq, (c, s) in enumerate(points)]
    return "\n".join(lines) + "\n"


def write_inputs(w: Workload, seed: int, graph_path: str, trace_path: str) -> dict[str, Pattern]:
    """Generate and write the workload's graph and trace; return the patterns."""
    patterns = make_patterns(w, seed)
    for path, text in ((graph_path, graph_text(w.rows, w.cols)), (trace_path, trace_text(patterns))):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    return patterns

