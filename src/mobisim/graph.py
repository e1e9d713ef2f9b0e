"""Cell adjacency graphs for a cellular coverage region.

A coverage region is modeled as an unweighted bidirected graph: vertices are
cell ids 0..n-1, and an edge means a mobile node can move between the two
cells directly. Distances are hop counts from breadth-first search.
"""

from __future__ import annotations

from importlib import resources
from itertools import chain
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import DomainError, FormatError, GraphNotConnectedError, as_int, load_text

# Sources per bit-parallel pass of CellGraph.diameter: 16 words a cell.
_BATCH = 1024


class CellGraph:
    """Unweighted bidirected graph over cell ids 0..vertex_count-1.

    Immutable after construction. Only the diameter value is cached: BFS
    levels live no longer than the call, or the `hop_lookup` function, that
    asked for them, so memory never grows with the sources queried; a
    tiakas_net call keeps one lookup, and a tiakas matrix reads hop_table.
    Edges are stored both ways: adding (a, b) implies (b, a).
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
        self._freeze(adjacency)

    def _freeze(self, adjacency: list[set[int]]) -> None:
        # adjacency must be symmetric, with every cell in range and no self-loop.
        self._n = len(adjacency)
        self._adj: tuple[tuple[int, ...], ...] = tuple(
            tuple(sorted(s)) for s in adjacency
        )
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

    def hop_lookup(self) -> Callable[[int, int], int]:
        """A hop_distance that keeps the BFS levels of each source cell it is
        asked about for as long as the returned function lives."""
        rows: dict[int, list[int]] = {}

        def hops(src: int, dst: int) -> int:
            src, dst = self._check_cell(src), self._check_cell(dst)
            if src == dst:
                return 0
            levels = rows.get(src)
            if levels is None:
                levels = rows[src] = self._bfs(src)
            d = levels[dst]
            if d < 0:
                raise GraphNotConnectedError(
                    f"no path between cells {src} and {dst}"
                )
            return d

        return hops

    def hop_distance(self, src: int, dst: int) -> int:
        """Length of the shortest path between two cells, in hops."""
        return self.hop_lookup()(src, dst)

    def _padded_neighbors(self) -> np.ndarray:
        # Row k holds every cell's k-th neighbour, or n past its degree,
        # which is the all-zero padding row of _bit_bfs's frontier.
        degree = np.fromiter(map(len, self._adj), dtype=np.intp, count=self._n)
        nbr = np.full((max(1, int(degree.max())), self._n), self._n, dtype=np.intp)
        nbr.T[np.arange(len(nbr)) < degree[:, None]] = np.fromiter(
            chain.from_iterable(self._adj), dtype=np.intp, count=int(degree.sum())
        )
        return nbr

    def _bit_bfs(self, nbr: np.ndarray, sources: Sequence[int]) -> Iterator[np.ndarray]:
        """One BFS from every source at once, one bit per source (Then et
        al., "The More the Merrier: Efficient Multi-Source Graph Traversal",
        VLDB 2015), yielding after level 0, 1, ... the bits of the sources
        that have not yet reached each cell, for as long as a level reaches
        a new cell.

        Bits are packed into 64-bit words, and each level ORs the frontier
        words of every cell's neighbours, one row of nbr (_padded_neighbors)
        at a time; row n of the frontier is the all-zero padding row, and
        the buffers are reused from level to level. Every source's bit
        spreads on its own, so the levels yielded are one more than the
        largest eccentricity of the sources.
        """
        n, u = self._n, len(sources)
        words = -(-u // 64)
        bits = np.packbits(np.eye(u, words * 64, dtype=bool), axis=1).view(np.uint64)
        frontier = np.zeros((n + 1, words), dtype=np.uint64)
        np.bitwise_or.at(frontier, sources, bits)
        unseen = ~frontier[:n]
        spare, gathered = np.zeros_like(frontier), np.empty_like(unseen)
        while True:
            yield unseen
            # Every index is in range: "clip" skips the default mode's bounds
            # check and the temporary it writes before copying into out.
            step = np.take(frontier, nbr[0], axis=0, out=spare[:n], mode="clip")
            for col in nbr[1:]:
                step |= np.take(frontier, col, axis=0, out=gathered, mode="clip")
            step &= unseen
            if not step.any():
                return
            unseen ^= step
            frontier, spare = spare, frontier

    def hop_table(self, cells: Sequence[int]) -> np.ndarray:
        """Hop distances between every two of the given cells, as a U x U
        int32 array, -1 where no path joins them.

        One bit-parallel BFS from all U cells at once (_bit_bfs): entry
        (i, j) counts the levels after which cell i still lacked cell j's
        bit, which is their distance; the graph is undirected, so the table
        is symmetric. Memory is O(V * (U / 64 + max degree) + U^2): the
        neighbour array pads every cell to the largest degree, 30.5 MB of
        the 34.5 MB peak for two cells of a 2000-cell star.
        """
        cells = [self._check_cell(c) for c in cells]
        u = len(cells)
        table = np.zeros((u, u), dtype=np.int32)
        for unseen in self._bit_bfs(self._padded_neighbors(), cells):
            missing = np.unpackbits(unseen[cells].view(np.uint8), axis=1, count=u).view(bool)
            if not missing.any():
                return table
            table += missing
        table[missing] = -1
        return table

    def diameter(self) -> int:
        """Largest hop distance over all cell pairs.

        Exact iFUB (Crescenzi, Grossi, Habib, Lanzi & Marino, "On computing
        the diameter of real-world undirected graphs", TCS 2013). A double
        sweep from a max-degree cell gives a lower bound L and a path whose
        midpoint u is the centre: three Python BFS runs in all. A path
        longer than L has an end v with 2 d(u, v) > L, so the eccentricities
        of those cells, the outer fringes of u, settle the diameter. They
        are scanned farthest first, _BATCH sources at a time, each batch one
        bit-parallel BFS (_bit_bfs) whose level count is the largest
        eccentricity among its sources; once L has risen to 2 d(u, v) of a
        batch's first cell, that batch and all later ones are skipped.
        Memory is O(V * (max degree + _BATCH / 64)); no level outlives the
        call.
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
            lower = max(lower, max(levels))
            far = [v for v, depth in enumerate(levels) if 2 * depth > lower]
            far.sort(key=levels.__getitem__, reverse=True)
            # Padded to the largest degree, so a star's would be V x V.
            nbr = self._padded_neighbors() if far else None
            for first in range(0, len(far), _BATCH):
                if 2 * levels[far[first]] <= lower:
                    break
                passes = self._bit_bfs(nbr, far[first : first + _BATCH])
                lower = max(lower, sum(1 for _ in passes) - 1)
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
    adjacency: list[set[int]] = []
    for lineno, ln in enumerate(text.splitlines(), start=1):
        parts = ln.split()
        if not parts or parts[0][0] == "#":
            continue
        if not n:
            if len(parts) != 2 or parts[0] != "cells":
                raise FormatError(
                    f"line {lineno}: expected 'cells <N>' header, got {ln.strip()!r}"
                )
            try:
                n = int(parts[1])
            except ValueError:
                raise FormatError(f"line {lineno}: bad cell count {parts[1]!r}") from None
            if n <= 0:
                raise FormatError(f"line {lineno}: cell count must be positive")
            adjacency = [set() for _ in range(n)]
            continue
        if len(parts) != 3 or parts[0] != "edge":
            raise FormatError(f"line {lineno}: expected 'edge <a> <b>', got {ln.strip()!r}")
        try:
            a, b = int(parts[1]), int(parts[2])
        except ValueError:
            raise FormatError(f"line {lineno}: bad edge endpoints in {ln.strip()!r}") from None
        if a == b:
            raise FormatError(f"line {lineno}: self-loop on cell {a}")
        if not (0 <= a < n and 0 <= b < n):
            raise FormatError(f"line {lineno}: edge {a} {b} outside 0..{n - 1}")
        if b in adjacency[a]:
            raise FormatError(f"line {lineno}: duplicate edge {a} {b}")
        adjacency[a].add(b)
        adjacency[b].add(a)
    if not n:
        raise FormatError("empty graph file")
    # Every edge is checked above, so the graph is built without a second pass.
    g = CellGraph.__new__(CellGraph)
    g._freeze(adjacency)
    return g


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
