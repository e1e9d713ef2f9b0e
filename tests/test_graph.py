import itertools
import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mobisim import graph as graph_module
from mobisim.clustering import DissimilarityMatrix, kmedoids
from mobisim.errors import DomainError, FormatError, GraphNotConnectedError
from mobisim.graph import (
    CellGraph,
    example_graph,
    format_graph,
    hex_grid,
    load_graph,
    parse_graph,
    save_graph,
)
from support import brute_diameter, random_connected_graph


def floyd_warshall(g: CellGraph) -> list[list[float]]:
    n = g.vertex_count
    dist = [[0.0 if i == j else float("inf") for j in range(n)] for i in range(n)]
    for a, b in g.edges:
        dist[a][b] = dist[b][a] = 1.0
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if dist[i][k] + dist[k][j] < dist[i][j]:
                    dist[i][j] = dist[i][k] + dist[k][j]
    return dist


class TestExampleGraph:
    def test_listed_edges_present(self):
        g = example_graph()
        required = [(0, 1), (0, 2), (1, 2), (1, 9), (2, 3), (2, 8), (2, 9),
                    (11, 6), (11, 7), (11, 10)]
        for a, b in required:
            assert g.has_edge(a, b)
            assert g.has_edge(b, a)

    def test_size_and_diameter(self):
        g = example_graph()
        assert g.vertex_count == 12
        assert g.diameter() == 4

    def test_required_unit_distances(self):
        g = example_graph()
        assert g.hop_distance(7, 4) == 1
        assert g.hop_distance(0, 1) == 1
        assert g.hop_distance(0, 2) == 1
        assert g.hop_distance(2, 3) == 1

    def test_self_distance_zero(self):
        assert example_graph().hop_distance(8, 8) == 0

    def test_diameter_matches_all_pairs_check(self):
        g = example_graph()
        dist = floyd_warshall(g)
        assert g.diameter() == max(max(row) for row in dist)


class TestHopDistance:
    def test_square_cycle(self):
        g = CellGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert g.hop_distance(0, 2) == 2
        assert g.diameter() == 2

    def test_path_graph(self):
        g = CellGraph(5, [(i, i + 1) for i in range(4)])
        assert g.hop_distance(0, 4) == 4
        assert g.diameter() == 4

    def test_matches_floyd_warshall_on_random_graphs(self):
        rng = random.Random(1)
        for _ in range(20):
            g = random_connected_graph(rng, 4, 15)
            dist = floyd_warshall(g)
            assert g.diameter() == max(max(row) for row in dist)
            for i in range(g.vertex_count):
                for j in range(g.vertex_count):
                    assert g.hop_distance(i, j) == dist[i][j]

    def test_symmetry_and_triangle_inequality(self):
        rng = random.Random(2)
        for _ in range(10):
            g = random_connected_graph(rng, 4, 12)
            n = g.vertex_count
            for a in range(n):
                for b in range(n):
                    assert g.hop_distance(a, b) == g.hop_distance(b, a)
                    for c in range(n):
                        assert g.hop_distance(a, c) <= (
                            g.hop_distance(a, b) + g.hop_distance(b, c)
                        )

    def test_unreachable_vertex(self):
        g = CellGraph(3, [(0, 1)])
        assert not g.is_connected()
        with pytest.raises(GraphNotConnectedError):
            g.hop_distance(0, 2)
        with pytest.raises(GraphNotConnectedError):
            g.diameter()

    def test_bad_vertex_ids(self):
        g = CellGraph(3, [(0, 1), (1, 2)])
        with pytest.raises(DomainError):
            g.hop_distance(0, 3)
        with pytest.raises(DomainError):
            g.hop_distance(-1, 0)
        with pytest.raises(DomainError):
            g.neighbors(5)


class TestHopTable:
    def test_matches_floyd_warshall_on_random_graphs(self):
        # Up to 80 cells drawn with repeats: more sources than one 64-bit
        # word holds, and on some graphs cells that no path joins. Stars and
        # brooms add hubs, cells above twice the mean degree, alone, in
        # pairs, next to each other and beside a second component.
        rng = random.Random(3)
        hubs = [_star(n) for n in (2, 3, 9, 65)]
        hubs += [_broom(h, leaves) for h, leaves in ((0, 5), (1, 2), (3, 30))]
        hubs += [_disjoint_union(_broom(2, 20), _star(12)), _disjoint_union(_star(5), _star(30))]
        # Lazy, so each random graph is drawn just before its cells.
        random_graphs = (random_connected_graph(rng, 1, 40) for _ in range(40))
        for g in itertools.chain(
            (
                _disjoint_union(g, random_connected_graph(rng, 1, 10)) if rng.random() < 0.3 else g
                for g in random_graphs
            ),
            hubs,
        ):
            dist = floyd_warshall(g)
            cells = [rng.randrange(g.vertex_count) for _ in range(rng.randint(0, 80))]
            table = g.hop_table(cells)
            assert table.dtype == np.int32
            assert table.tolist() == [
                [-1 if dist[a][b] == float("inf") else int(dist[a][b]) for b in cells]
                for a in cells
            ]

    def test_matches_hop_distance(self):
        rng = random.Random(4)
        for _ in range(20):
            g = random_connected_graph(rng, 2, 60)
            cells = rng.sample(range(g.vertex_count), rng.randint(1, g.vertex_count))
            assert g.hop_table(cells).tolist() == [
                [g.hop_distance(a, b) for b in cells] for a in cells
            ]

    def test_off_graph_cell_is_the_hop_distance_error(self):
        g = CellGraph(3, [(0, 1), (1, 2)])
        with pytest.raises(DomainError) as table_exc:
            g.hop_table([0, 3])
        with pytest.raises(DomainError) as pair_exc:
            g.hop_distance(0, 3)
        assert str(table_exc.value) == str(pair_exc.value)

    def test_graph_keeps_no_levels(self):
        g = hex_grid(6, 6)
        for v in range(g.vertex_count):
            g.hop_distance(v, 0)
        g.hop_table(range(g.vertex_count))
        g.diameter()
        # Besides the diameter, only the cap x V neighbour array is kept.
        assert set(vars(g)) == {"_n", "_adj", "_diameter", "_neighbors"}
        assert g._neighbors[0].shape == (6, 36)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: CellGraph(3, [(0, 1.5)]), "cell id 1.5 is not an integer"),
        (lambda: CellGraph(2.5), "cell count 2.5 is not an integer"),
        (lambda: hex_grid(2, 2).hop_distance(0, 1.0), "cell id 1.0 is not an integer"),
        (lambda: hex_grid(2, 2).neighbors(1.0), "cell id 1.0 is not an integer"),
        (lambda: hex_grid(2, 2).has_edge("0", 1), "cell id '0' is not an integer"),
        (lambda: hex_grid(2.5, 2), "hex_grid rows 2.5 is not an integer"),
        (
            lambda: kmedoids(DissimilarityMatrix(np.zeros((3, 3))), 1.0),
            "k 1.0 is not an integer",
        ),
    ],
)
def test_non_integer_cell_ids_and_k_are_domain_errors(call, message):
    # Each of these once ended in a TypeError traceback.
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("count, edges, message", [
    (0, [], "graph needs at least one cell"),
    (3, [(1, 1)], "self-loop on cell 1"),
])
def test_constructor_rejects_empty_graph_and_self_loop(count, edges, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        CellGraph(count, edges)


def _tree(parents: list[int]) -> CellGraph:
    return CellGraph(len(parents) + 1, [(p % (i + 1), i + 1) for i, p in enumerate(parents)])


def _disjoint_union(a: CellGraph, b: CellGraph) -> CellGraph:
    shift = a.vertex_count
    edges = list(a.edges) + [(x + shift, y + shift) for x, y in b.edges]
    return CellGraph(shift + b.vertex_count, {(min(e), max(e)) for e in edges})


def _cycle(n: int) -> CellGraph:
    return CellGraph(n, [(i, (i + 1) % n) for i in range(n)])


def _star(n: int) -> CellGraph:
    return CellGraph(n, [(0, i) for i in range(1, n)])


def _broom(handle: int, leaves: int) -> CellGraph:
    """A path of handle + 2 cells whose two end cells each get leaves - 1
    more neighbours, all leaves of the tree."""
    ends = (0, handle + 1)
    edges = [(i, i + 1) for i in range(handle + 1)]
    for k in range(2 * leaves - 2):
        edges.append((ends[k % 2], handle + 2 + k))
    return CellGraph(handle + 2 * leaves, edges)


# Up to about 300 cells, so that on some cycles, brooms, grids and random
# graphs the outer fringes of the centre hold more than 64 cells.
_connected = st.one_of(
    st.integers(1, 300).map(lambda n: CellGraph(n, [(i, i + 1) for i in range(n - 1)])),
    st.integers(3, 300).map(_cycle),
    st.integers(1, 300).map(lambda n: CellGraph(n, [(0, i) for i in range(1, n)])),
    st.lists(st.integers(0, 10**6), max_size=300).map(_tree),
    st.tuples(st.integers(0, 20), st.integers(1, 140)).map(lambda hl: _broom(*hl)),
    st.tuples(st.integers(1, 30), st.integers(1, 30)).map(lambda rc: hex_grid(*rc)),
    st.randoms(use_true_random=False).map(lambda r: random_connected_graph(r, 1, 300)),
)
_graphs = st.one_of(
    _connected,
    st.tuples(_connected, _connected).map(lambda ab: _disjoint_union(*ab)),
)


def _outcome(fn, g):
    try:
        return fn(g)
    except GraphNotConnectedError as exc:
        return type(exc), str(exc)


class TestDiameter:
    @settings(max_examples=300, deadline=None)
    @given(_graphs, st.sampled_from([1, 64, graph_module._BATCH]))
    def test_matches_all_sources_oracle(self, g, batch):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graph_module, "_BATCH", batch)
            assert _outcome(CellGraph.diameter, g) == _outcome(brute_diameter, g)

    @pytest.mark.parametrize("batch", [1, 64])
    def test_fringes_wider_than_a_batch(self, batch, monkeypatch):
        monkeypatch.setattr(graph_module, "_BATCH", batch)
        passes, bit_bfs = [], CellGraph._bit_bfs

        def counted(self, sources):
            passes.append(len(sources))
            return bit_bfs(self, sources)

        monkeypatch.setattr(CellGraph, "_bit_bfs", counted)
        for g in (_cycle(301), _broom(4, 100), hex_grid(30, 30)):
            passes.clear()
            assert g.diameter() == brute_diameter(g)
            assert len(passes) > 1 and max(passes) == batch

    def test_paths_need_no_fringe_pass(self, monkeypatch):
        # On a path with an even number of cells the one fringe cell is the
        # second sweep's source, whose eccentricity is already known; a
        # one-source pass for it made a 99 992-cell path take about 41 s.
        passes, bit_bfs = [], CellGraph._bit_bfs

        def counted(self, sources):
            passes.append((self.vertex_count, list(sources)))
            return bit_bfs(self, sources)

        monkeypatch.setattr(CellGraph, "_bit_bfs", counted)
        for n in range(2, 65):
            g = CellGraph(n, [(i, i + 1) for i in range(n - 1)])
            assert g.diameter() == n - 1
        assert passes == []

    def test_three_python_sweeps(self, monkeypatch):
        sweeps, bfs = [], CellGraph._bfs

        def counted(self, source):
            sweeps.append(source)
            return bfs(self, source)

        monkeypatch.setattr(CellGraph, "_bfs", counted)
        assert hex_grid(40, 40).diameter() == 59
        assert len(sweeps) == 3

    def test_one_neighbour_build_per_graph(self, monkeypatch):
        builds, padded = [], CellGraph._padded_neighbors

        def counted(self):
            builds.append(self.vertex_count)
            return padded(self)

        monkeypatch.setattr(CellGraph, "_padded_neighbors", counted)
        g = hex_grid(30, 30)
        assert g.diameter() == brute_diameter(g)
        assert builds == [900]
        assert g.hop_table([0, 899])[0, 1] == g.hop_distance(0, 899)
        assert g.hop_table([5]).tolist() == [[0]]
        assert builds == [900]

    def test_keeps_no_level_lists(self):
        g = hex_grid(40, 40)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            assert g.diameter() == 59
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert grown < 2**20


class TestHexGrid:
    def test_single_cell(self):
        g = hex_grid(1, 1)
        assert g.vertex_count == 1
        assert not g.edges

    def test_two_cells(self):
        g = hex_grid(1, 2)
        assert g.vertex_count == 2
        assert g.has_edge(0, 1)

    def test_interior_degree_six(self):
        g = hex_grid(4, 4)
        # id 5 is row 1, col 1: surrounded on all sides.
        assert len(g.neighbors(5)) == 6
        assert len(g.neighbors(10)) == 6

    def test_connected_various_shapes(self):
        for rows, cols in [(1, 5), (5, 1), (2, 2), (3, 7), (6, 3)]:
            g = hex_grid(rows, cols)
            assert g.vertex_count == rows * cols
            assert g.is_connected()

    def test_zero_dimension_rejected(self):
        with pytest.raises(DomainError):
            hex_grid(0, 4)
        with pytest.raises(DomainError):
            hex_grid(3, 0)


class TestGraphFiles:
    @settings(deadline=None)
    @given(_graphs)
    @example(example_graph())
    def test_round_trip(self, g):
        # The canonical text: every undirected edge once as (a, b), a < b, sorted.
        undirected = sorted({(min(a, b), max(a, b)) for a, b in g.edges})
        want = [f"cells {g.vertex_count}"] + [f"edge {a} {b}" for a, b in undirected]
        text = format_graph(g)
        assert text == "\n".join(want) + "\n"
        again = parse_graph(text)
        assert again.vertex_count == g.vertex_count
        assert again.edges == g.edges
        assert vars(again) == vars(CellGraph(g.vertex_count, g.edges))

    def test_comments_and_blanks_tolerated(self):
        g = parse_graph("# coverage map\n\ncells 3\nedge 0 1\n# mid comment\nedge 1 2\n")
        assert g.vertex_count == 3
        assert g.has_edge(2, 1)
        indented = parse_graph("\t# map\n  cells 3\n   # edge 0 2\n \t\n edge 0 1 \nedge 2 1\n")
        assert indented.edges == g.edges

    def test_missing_header(self):
        with pytest.raises(FormatError):
            parse_graph("edge 0 1\n")

    def test_self_loop_rejected(self):
        with pytest.raises(FormatError):
            parse_graph("cells 3\nedge 1 1\n")

    def test_duplicate_edge_rejected(self):
        with pytest.raises(FormatError):
            parse_graph("cells 3\nedge 0 1\nedge 1 0\n")

    def test_out_of_range_vertex(self):
        with pytest.raises(FormatError):
            parse_graph("cells 3\nedge 0 3\n")

    def test_non_integer_field(self):
        with pytest.raises(FormatError):
            parse_graph("cells 3\nedge 0 x\n")

    @pytest.mark.parametrize("text, message", [
        ("# map\n\nedge 0 1\n", "line 3: expected 'cells <N>' header, got 'edge 0 1'"),
        ("  cells 3 4 \n", "line 1: expected 'cells <N>' header, got 'cells 3 4'"),
        ("\tcell 3\n", "line 1: expected 'cells <N>' header, got 'cell 3'"),
        ("\ncells x\n", "line 2: bad cell count 'x'"),
        ("cells 0\n", "line 1: cell count must be positive"),
        ("cells -2\nedge 0 1\n", "line 1: cell count must be positive"),
        ("cells 3\n edge 0 \n", "line 2: expected 'edge <a> <b>', got 'edge 0'"),
        ("cells 3\nedge 0 1 2\n", "line 2: expected 'edge <a> <b>', got 'edge 0 1 2'"),
        ("cells 3\nlink 0 1\n", "line 2: expected 'edge <a> <b>', got 'link 0 1'"),
        ("cells 3\n# c\n\n  edge 0 x\n", "line 4: bad edge endpoints in 'edge 0 x'"),
        ("cells 3\nedge 1.0 2\n", "line 2: bad edge endpoints in 'edge 1.0 2'"),
        ("cells 3\nedge 0 1\nedge 2 2\n", "line 3: self-loop on cell 2"),
        ("cells 3\nedge 0 3\n", "line 2: edge 0 3 outside 0..2"),
        ("cells 3\nedge -1 2\n", "line 2: edge -1 2 outside 0..2"),
        ("cells 3\nedge 0 1\nedge 0 1\n", "line 3: duplicate edge 0 1"),
        ("cells 3\nedge 0 1\n  # edge 1 0\nedge 1 0\n", "line 4: duplicate edge 1 0"),
        # Canonical texts, read in bulk until an edge breaks a rule.
        ("cells 3\nedge 0 1\nedge 1 0\nedge 1 2\n", "line 3: duplicate edge 1 0"),
        ("cells 3\nedge 0 18446744073709551617\n",
         "line 2: edge 0 18446744073709551617 outside 0..2"),
        ("cells 2\nedge 0 2\n", "line 2: edge 0 2 outside 0..1"),
        ("cells 2\nedge 1 1\n", "line 2: self-loop on cell 1"),
        ("", "empty graph file"),
        ("# only a comment\n\n   \n\t# indented\n", "empty graph file"),
    ])
    def test_errors_count_raw_lines(self, text, message):
        with pytest.raises(FormatError) as exc:
            parse_graph(text)
        assert str(exc.value) == message

    @settings(deadline=None)
    @given(_graphs, st.randoms(use_true_random=False))
    @example(CellGraph(1), random.Random(0))
    @example(CellGraph(5), random.Random(0))
    @example(CellGraph(6, [(0, 5), (3, 2)]), random.Random(0))
    def test_bulk_read_equals_line_reader(self, g, rng):
        # format_graph's text, and the same links in any order and direction.
        links = [line.split()[1:] for line in format_graph(g).splitlines()[1:]]
        rng.shuffle(links)
        shuffled = [(b, a) if rng.random() < 0.5 else (a, b) for a, b in links]
        want = vars(CellGraph(g.vertex_count, g.edges))
        for text in (
            format_graph(g),
            "".join([f"cells {g.vertex_count}\n"] + [f"edge {a} {b}\n" for a, b in shuffled]),
        ):
            lines = graph_module._parse_lines(text)
            with pytest.MonkeyPatch.context() as mp:
                # With no line reader, only the bulk path can read the text.
                mp.setattr(graph_module, "_parse_lines", None)
                bulk = parse_graph(text)
            assert vars(bulk) == vars(lines) == want

    @pytest.mark.parametrize("text", [
        "cells 3\nedge 01 2\n",
        "cells 03\nedge 0 1\n",
        "cells 3\nedge 0  1\n",
        "cells 3\nedge 0 1 \n",
        "cells 3\nedge 0 1\nedge 1 2",
        "cells 3\r\nedge 0 1\r\n",
    ])
    def test_other_texts_reach_the_line_reader(self, text, monkeypatch):
        read, parse_lines = [], graph_module._parse_lines

        def counted(text):
            read.append(text)
            return parse_lines(text)

        monkeypatch.setattr(graph_module, "_parse_lines", counted)
        assert vars(parse_graph(text)) == vars(parse_lines(text))
        assert read == [text]

    def test_bulk_read_of_a_large_grid_in_bounded_memory(self, monkeypatch):
        # 0.42 MB of text. One fullmatch of all of it kept sre's repeat stack,
        # a 9.98 MB traced peak; matched in windows of 64 KiB the peak was
        # 5.63 MB on a shared 2-core x86-64 machine.
        want = hex_grid(100, 100)
        text = format_graph(want)
        # With no line reader, only the bulk path can read the text.
        monkeypatch.setattr(graph_module, "_parse_lines", None)
        tracemalloc.start()
        try:
            got = parse_graph(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert vars(got) == vars(want)
        assert peak < 7 * 2**20

    def test_byte_order_mark_loads_equal(self, tmp_path):
        plain, bom = tmp_path / "plain.txt", tmp_path / "bom.txt"
        save_graph(example_graph(), str(plain))
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert load_graph(str(bom)).edges == load_graph(str(plain)).edges == example_graph().edges
