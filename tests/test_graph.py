import random

import pytest

from mobisim.errors import DomainError, FormatError, GraphNotConnectedError
from mobisim.graph import (
    CellGraph,
    example_graph,
    format_graph,
    hex_grid,
    parse_graph,
)
from support import random_connected_graph


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
