"""Cell adjacency graphs for a cellular coverage region.

A coverage region is modeled as an unweighted bidirected graph: vertices are
cell ids 0..n-1, and an edge means a mobile node can move between the two
cells directly. Distances are hop counts from breadth-first search.
"""

from __future__ import annotations

from importlib import resources
from typing import Iterable

from .errors import DomainError, FormatError, GraphNotConnectedError, as_int, load_text


class CellGraph:
    """Unweighted bidirected graph over cell ids 0..vertex_count-1.

    Immutable after construction. Two things are cached: the diameter value,
    and the BFS levels of each source cell that `hop_distance` has been
    asked about, so repeated lookups from one cell are cheap and memory
    grows only with the sources queried. Edges are stored both ways: adding
    (a, b) implies (b, a).
    """

    def __init__(self, vertex_count: int, edges: Iterable[tuple[int, int]] = ()):
        vertex_count = as_int(vertex_count, "cell count")
        if vertex_count <= 0:
            raise DomainError("graph needs at least one cell")
        self._n = vertex_count
        adjacency: list[set[int]] = [set() for _ in range(vertex_count)]
        for a, b in edges:
            a, b = self._check_cell(a), self._check_cell(b)
            if a == b:
                raise DomainError(f"self-loop on cell {a}")
            adjacency[a].add(b)
            adjacency[b].add(a)
        self._adj: tuple[tuple[int, ...], ...] = tuple(
            tuple(sorted(s)) for s in adjacency
        )
        self._bfs_cache: dict[int, list[int]] = {}
        self._diameter: int | None = None

    @property
    def vertex_count(self) -> int:
        return self._n

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        """All directed edges, each undirected link appearing both ways."""
        return frozenset(
            (a, b) for a in range(self._n) for b in self._adj[a]
        )

    def neighbors(self, cell: int) -> tuple[int, ...]:
        return self._adj[self._check_cell(cell)]

    def has_edge(self, a: int, b: int) -> bool:
        a, b = self._check_cell(a), self._check_cell(b)
        return b in self._adj[a]

    def _check_cell(self, cell: int) -> int:
        # Runs on every hop lookup: a plain int skips the call to as_int.
        if type(cell) is not int:
            cell = as_int(cell, "cell id")
        if not 0 <= cell < self._n:
            raise DomainError(
                f"cell id {cell} out of range for graph with {self._n} cells"
            )
        return cell

    def _bfs(self, source: int) -> list[int]:
        # BFS level per vertex, -1 where unreachable; nothing is cached.
        levels = [-1] * self._n
        levels[source] = 0
        frontier = [source]
        depth = 0
        while frontier:
            depth += 1
            nxt = []
            for v in frontier:
                for w in self._adj[v]:
                    if levels[w] < 0:
                        levels[w] = depth
                        nxt.append(w)
            frontier = nxt
        return levels

    def hop_distance(self, src: int, dst: int) -> int:
        """Length of the shortest path between two cells, in hops."""
        src, dst = self._check_cell(src), self._check_cell(dst)
        levels = self._bfs_cache.get(src)
        if levels is None:
            levels = self._bfs_cache[src] = self._bfs(src)
        d = levels[dst]
        if d < 0:
            raise GraphNotConnectedError(
                f"no path between cells {src} and {dst}"
            )
        return d

    def diameter(self) -> int:
        """Largest hop distance over all cell pairs.

        Exact iFUB (Crescenzi, Grossi, Habib, Lanzi & Marino, "On computing
        the diameter of real-world undirected graphs", TCS 2013). A double
        sweep from a max-degree cell gives a lower bound and a path whose
        midpoint u is the centre; the BFS fringes of u are then scanned from
        the farthest in, each cell's eccentricity raising the lower bound,
        until no cell nearer to u can reach beyond it. Each BFS is dropped
        as soon as its eccentricity is read, so memory stays O(V).
        """
        if self._diameter is None:
            start = max(range(self._n), key=lambda v: len(self._adj[v]))
            levels = self._bfs(start)
            if min(levels) < 0:
                raise GraphNotConnectedError("graph is not connected")
            # Double sweep: a is a farthest cell from start, b one from a.
            a = levels.index(max(levels))
            levels = self._bfs(a)
            lower = max(levels)
            u = levels.index(lower)  # b, then walked lower // 2 hops toward a
            for depth in range(lower - 1, lower - lower // 2 - 1, -1):
                u = next(w for w in self._adj[u] if levels[w] == depth)
            levels = self._bfs(u)
            i = max(levels)
            lower = max(lower, i)
            fringes: list[list[int]] = [[] for _ in range(i + 1)]
            for v, depth in enumerate(levels):
                fringes[depth].append(v)
            # Fringes beyond i are scanned, so a longer path than lower must
            # join two cells within i of u, which are at most 2i apart.
            while lower < 2 * i:
                for v in fringes[i]:
                    lower = max(lower, max(self._bfs(v)))
                i -= 1
            self._diameter = lower
        return self._diameter

    def is_connected(self) -> bool:
        return min(self._bfs(0)) >= 0

    def __repr__(self) -> str:
        links = sum(len(a) for a in self._adj) // 2
        return f"CellGraph({self._n} cells, {links} links)"


# Offset scheme for hex_grid: cell id = row*cols + col, even rows shifted
# right by half a cell relative to odd rows.
_EVEN_ROW_SHIFTS = ((0, -1), (0, 1), (-1, 0), (-1, 1), (1, 0), (1, 1))
_ODD_ROW_SHIFTS = ((0, -1), (0, 1), (-1, -1), (-1, 0), (1, -1), (1, 0))


def hex_grid(rows: int, cols: int) -> CellGraph:
    """Connected graph of rows x cols cells tiled hexagonally.

    Interior cells have six neighbors; border cells fewer.
    """
    rows, cols = as_int(rows, "hex_grid rows"), as_int(cols, "hex_grid cols")
    if rows < 1 or cols < 1:
        raise DomainError("hex_grid dimensions must be positive")
    edges = []
    for r in range(rows):
        shifts = _EVEN_ROW_SHIFTS if r % 2 == 0 else _ODD_ROW_SHIFTS
        for c in range(cols):
            here = r * cols + c
            for dr, dc in shifts:
                rr, cc = r + dr, c + dc
                if 0 <= rr < rows and 0 <= cc < cols:
                    there = rr * cols + cc
                    if here < there:
                        edges.append((here, there))
    return CellGraph(rows * cols, edges)


def parse_graph(text: str) -> CellGraph:
    """Parse the text graph format.

    Format: a `cells <N>` header line, then one `edge <a> <b>` line per
    undirected link; the reverse direction is implied. Blank lines and lines
    starting with `#` are ignored. Duplicate links (in either direction) and
    self-loops are rejected.
    """
    n = 0  # the cell count, once the header line is read
    seen: set[tuple[int, int]] = set()
    edges: list[tuple[int, int]] = []
    for lineno, ln in enumerate(text.splitlines(), start=1):
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        parts = ln.split()
        if not n:
            if len(parts) != 2 or parts[0] != "cells":
                raise FormatError(f"line {lineno}: expected 'cells <N>' header, got {ln!r}")
            try:
                n = int(parts[1])
            except ValueError:
                raise FormatError(f"line {lineno}: bad cell count {parts[1]!r}") from None
            if n <= 0:
                raise FormatError(f"line {lineno}: cell count must be positive")
            continue
        if len(parts) != 3 or parts[0] != "edge":
            raise FormatError(f"line {lineno}: expected 'edge <a> <b>', got {ln!r}")
        try:
            a, b = int(parts[1]), int(parts[2])
        except ValueError:
            raise FormatError(f"line {lineno}: bad edge endpoints in {ln!r}") from None
        if a == b:
            raise FormatError(f"line {lineno}: self-loop on cell {a}")
        if not (0 <= a < n and 0 <= b < n):
            raise FormatError(f"line {lineno}: edge {a} {b} outside 0..{n - 1}")
        key = (min(a, b), max(a, b))
        if key in seen:
            raise FormatError(f"line {lineno}: duplicate edge {a} {b}")
        seen.add(key)
        edges.append((a, b))
    if not n:
        raise FormatError("empty graph file")
    return CellGraph(n, edges)


def format_graph(g: CellGraph) -> str:
    """Canonical text form of a graph: sorted `edge a b` lines with a < b."""
    undirected = sorted({(min(a, b), max(a, b)) for a, b in g.edges})
    lines = [f"cells {g.vertex_count}"]
    lines += [f"edge {a} {b}" for a, b in undirected]
    return "\n".join(lines) + "\n"


def load_graph(path: str) -> CellGraph:
    return load_text(path, parse_graph)


def save_graph(g: CellGraph, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(format_graph(g))


_example: CellGraph | None = None


def example_graph() -> CellGraph:
    """The bundled 12-cell sample coverage region.

    A hexagonal patch with diameter 4, used by the `casestudy` command and
    handy as a small realistic fixture. Loaded once from package data.
    """
    global _example
    if _example is None:
        text = (
            resources.files("mobisim.data")
            .joinpath("example_graph.txt")
            .read_text(encoding="utf-8")
        )
        _example = parse_graph(text)
    return _example
