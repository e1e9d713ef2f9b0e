import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
            # diameter() first, so hop_distance is checked on the cache it fills itself
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


def _tree(parents: list[int]) -> CellGraph:
    return CellGraph(len(parents) + 1, [(p % (i + 1), i + 1) for i, p in enumerate(parents)])


def _disjoint_union(a: CellGraph, b: CellGraph) -> CellGraph:
    shift = a.vertex_count
    edges = list(a.edges) + [(x + shift, y + shift) for x, y in b.edges]
    return CellGraph(shift + b.vertex_count, {(min(e), max(e)) for e in edges})


_connected = st.one_of(
    st.integers(1, 40).map(lambda n: CellGraph(n, [(i, i + 1) for i in range(n - 1)])),
    st.integers(3, 40).map(lambda n: CellGraph(n, [(i, (i + 1) % n) for i in range(n)])),
    st.integers(1, 40).map(lambda n: CellGraph(n, [(0, i) for i in range(1, n)])),
    st.lists(st.integers(0, 10**6), max_size=40).map(_tree),
    st.tuples(st.integers(1, 12), st.integers(1, 12)).map(lambda rc: hex_grid(*rc)),
    st.randoms(use_true_random=False).map(random_connected_graph),
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
    @given(_graphs)
    def test_matches_all_sources_oracle(self, g):
        assert _outcome(CellGraph.diameter, g) == _outcome(brute_diameter, g)

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
    def test_round_trip(self, tmp_path):
        g = example_graph()
        text = format_graph(g)
        again = parse_graph(text)
        assert again.vertex_count == g.vertex_count
        assert again.edges == g.edges

    def test_comments_and_blanks_tolerated(self):
        g = parse_graph("# coverage map\n\ncells 3\nedge 0 1\n# mid comment\nedge 1 2\n")
        assert g.vertex_count == 3
        assert g.has_edge(2, 1)

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
        ("\ncells x\n", "line 2: bad cell count 'x'"),
        ("cells 0\n", "line 1: cell count must be positive"),
        ("cells 3\n# c\n\n  edge 0 x\n", "line 4: bad edge endpoints in 'edge 0 x'"),
    ])
    def test_errors_count_raw_lines(self, text, message):
        with pytest.raises(FormatError) as exc:
            parse_graph(text)
        assert str(exc.value) == message

    def test_byte_order_mark_loads_equal(self, tmp_path):
        plain, bom = tmp_path / "plain.txt", tmp_path / "bom.txt"
        save_graph(example_graph(), str(plain))
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert load_graph(str(bom)).edges == load_graph(str(plain)).edges == example_graph().edges
