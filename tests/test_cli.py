import argparse
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mobisim
from mobisim import cli
from mobisim.casestudy import SA, SB
from mobisim.cli import main
from mobisim.clustering import DissimilarityMatrix, build_matrix
from mobisim.graph import CellGraph, example_graph, save_graph
from mobisim.measures import weighted_dissimilarity
from mobisim.patterns import load_trace, make_pattern, save_trace


@pytest.fixture
def trace_path(tmp_path):
    path = tmp_path / "pair.csv"
    save_trace({"Sa": SA, "Sb": SB}, str(path))
    return str(path)


@pytest.fixture
def graph_path(tmp_path):
    path = tmp_path / "graph.txt"
    save_graph(example_graph(), str(path))
    return str(path)


@pytest.fixture
def off_graph(tmp_path):
    """A 3-cell path graph and a trace whose one pattern lies off it."""
    graph = tmp_path / "path.txt"
    save_graph(CellGraph(3, [(0, 1), (1, 2)]), str(graph))
    trace = tmp_path / "off.csv"
    save_trace({"p0": make_pattern([(999, 1), (998, 2)])}, str(trace))
    return str(graph), str(trace)


def per_value_text(m: DissimilarityMatrix) -> str:
    """The matrix text written one f-string per value."""
    lines = ["id," + ",".join(m.ids)]
    for pid, row in zip(m.ids, m.values.tolist()):
        lines.append(pid + "," + ",".join(f"{v:.6f}" for v in row))
    return "\n".join(lines) + "\n"


# Values whose bits differ but whose text may not (-0.0, 0.0 and -1e-9), and
# values %.6f rounds at a tie or carries into a new digit.
TEXT_POOL = (-0.0, 0.0, -1e-9, 2.5e-7, 0.1234565, 999999.9999995, 135.0, 7.0)


@st.composite
def text_matrices(draw):
    """Small square matrices whose values repeat, drawn mostly from TEXT_POOL."""
    n = draw(st.integers(1, 9))
    value = st.sampled_from(TEXT_POOL) | st.floats(allow_nan=False, allow_infinity=False)
    values = draw(st.lists(value, min_size=n * n, max_size=n * n))
    ids = tuple(f"p{i}" for i in range(n))
    return DissimilarityMatrix(np.array(values).reshape(n, n), ids=ids)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


MEASURE_NAMES = (
    "space", "time", "composite", "tiakas-net", "tiakas-time", "tiakas-total",
    "oss", "lcss", "cvti",
)
HELP = (("-h", "--help"), "help", argparse.SUPPRESS, False, None, None)
TRACE = (("--trace",), "trace", None, True, None, None)
MEASURE_OPTS = [
    (("--measure",), "measure", "composite", False, MEASURE_NAMES, None),
    (("--wspace",), "wspace", 0.5, False, None, float),
    (("--wtime",), "wtime", 0.5, False, None, float),
    (("--graph",), "graph", None, False, None, None),
]
OUT = (("--out",), "out", None, False, None, None)
SEED = (("--seed",), "seed", 0, False, None, int)

# (option_strings, dest, default, required, choices, type) of every argument,
# in the order argparse holds them.
SURFACE = {
    "dist": [
        HELP,
        ((), "id_a", None, True, None, None),
        ((), "id_b", None, True, None, None),
        TRACE, *MEASURE_OPTS,
    ],
    "matrix": [HELP, TRACE, OUT, *MEASURE_OPTS],
    "cluster": [
        HELP, TRACE, (("--k",), "k", None, True, None, int), SEED, OUT, *MEASURE_OPTS,
    ],
    "casestudy": [HELP],
    "gen": [
        HELP,
        (("--graph",), "graph", None, True, None, None),
        (("--count",), "count", None, True, None, int),
        (("--min-len",), "min_len", 2, False, None, int),
        (("--max-len",), "max_len", 8, False, None, int),
        SEED, OUT,
    ],
}


def subparsers() -> dict[str, argparse.ArgumentParser]:
    parser = cli.build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def test_subcommands_are_pinned():
    assert list(subparsers()) == list(SURFACE)


@pytest.mark.parametrize("name", list(SURFACE))
def test_subcommand_arguments_are_pinned(name):
    got = [
        (tuple(a.option_strings), a.dest, a.default, a.required, a.choices, a.type)
        for a in subparsers()[name]._actions
    ]
    assert got == SURFACE[name]


def test_main_builds_the_parser_once(monkeypatch, capsys):
    built = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
    monkeypatch.setattr(cli, "_parser", None)
    assert main(["casestudy"]) == main(["casestudy"]) == 0
    assert built == [1]


class TestDist:
    def test_composite_reference_value(self, capsys, trace_path):
        code, out, _ = run_cli(capsys, "dist", "Sa", "Sb", "--trace", trace_path)
        assert code == 0
        assert out.strip() == "0.200000"

    def test_identical_ids_space(self, capsys, trace_path):
        code, out, _ = run_cli(
            capsys, "dist", "Sa", "Sa", "--trace", trace_path, "--measure", "space"
        )
        assert code == 0
        assert out.strip() == "0.000000"

    def test_oss_reference_value(self, capsys, trace_path):
        code, out, _ = run_cli(
            capsys, "dist", "Sa", "Sb", "--trace", trace_path, "--measure", "oss"
        )
        assert code == 0
        assert out.strip() == "0.440000"

    def test_tiakas_needs_graph(self, capsys, trace_path, graph_path):
        code, out, _ = run_cli(
            capsys, "dist", "Sa", "Sb", "--trace", trace_path,
            "--measure", "tiakas-net", "--graph", graph_path,
        )
        assert code == 0
        assert out.strip() == "0.200000"

        code, _, err = run_cli(
            capsys, "dist", "Sa", "Sb", "--trace", trace_path,
            "--measure", "tiakas-net",
        )
        assert code == 3
        assert "error:" in err

    @pytest.mark.parametrize("measure", ["tiakas-net", "tiakas-total"])
    def test_cells_outside_graph(self, capsys, off_graph, measure):
        graph, trace = off_graph
        code, out, err = run_cli(
            capsys, "dist", "p0", "p0", "--trace", trace,
            "--measure", measure, "--graph", graph,
        )
        assert code == 3
        assert out == ""
        assert err == (
            f"error: measure {measure!r} failed for patterns 'p0' and 'p0': "
            "cell id 999 out of range for graph with 3 cells\n"
        )

    def test_measure_errors_name_pattern_ids_as_matrix_does(self, capsys, tmp_path):
        path = tmp_path / "mixed.csv"
        save_trace({"p0": make_pattern([(0, 1), (1, 2)]), "p1": make_pattern([(0, 1)])}, str(path))
        code, out, err = run_cli(
            capsys, "dist", "p0", "p1", "--trace", str(path), "--measure", "tiakas-time"
        )
        assert code == 3
        assert out == ""
        assert err == (
            "error: measure 'tiakas-time' failed for patterns 'p0' and 'p1': "
            "patterns must have equal length, got 2 and 1\n"
        )
        assert run_cli(
            capsys, "matrix", "--trace", str(path), "--measure", "tiakas-time"
        ) == (3, "", err)

    def test_unknown_id(self, capsys, trace_path):
        code, _, err = run_cli(capsys, "dist", "Sa", "Zz", "--trace", trace_path)
        assert code == 3
        assert "Zz" in err

    def test_missing_trace_file(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "dist", "a", "b", "--trace", str(tmp_path / "nope.csv")
        )
        assert code == 3
        assert "error:" in err

    def test_bad_weights(self, capsys, trace_path):
        code, _, err = run_cli(
            capsys, "dist", "Sa", "Sb", "--trace", trace_path,
            "--wspace", "0.9", "--wtime", "0.9",
        )
        assert code == 3
        assert "error:" in err

    def test_non_finite_weights(self, capsys, trace_path):
        code, out, err = run_cli(
            capsys, "dist", "Sa", "Sb", "--trace", trace_path,
            "--wspace", "nan", "--wtime", "0.5",
        )
        assert code == 3
        assert out == ""
        assert "error:" in err and "finite" in err

    def test_weights_read_only_by_weighted_measures(self, capsys, trace_path, graph_path):
        nan_weights = ("--wspace", "nan", "--wtime", "0.5")
        code, out, _ = run_cli(
            capsys, "dist", "Sa", "Sb", "--trace", trace_path,
            "--measure", "oss", *nan_weights,
        )
        assert code == 0
        assert out == "0.440000\n"
        code, out, err = run_cli(
            capsys, "dist", "Sa", "Sb", "--trace", trace_path,
            "--measure", "tiakas-total", "--graph", graph_path, *nan_weights,
        )
        assert code == 3
        assert out == ""
        assert "finite" in err

    def test_graph_ignored_by_graph_free_measures(self, capsys, trace_path, graph_path):
        _, without, _ = run_cli(capsys, "dist", "Sa", "Sb", "--trace", trace_path)
        code, with_graph, _ = run_cli(
            capsys, "dist", "Sa", "Sb", "--trace", trace_path, "--graph", graph_path
        )
        assert code == 0
        assert with_graph == without == "0.200000\n"

    def test_undecodable_trace(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"\xff\xfepattern_id,seq,cell,timestamp_index\n")
        code, _, err = run_cli(capsys, "dist", "a", "b", "--trace", str(path))
        assert code == 3
        assert err.startswith(f"error: {path}: not UTF-8 text") and err.count(str(path)) == 1
        assert "Traceback" not in err

    def test_undecodable_graph(self, capsys, trace_path, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"cells 3\nedge 0 1\n\xff\n")
        code, _, err = run_cli(
            capsys, "dist", "Sa", "Sb", "--trace", trace_path,
            "--measure", "tiakas-net", "--graph", str(path),
        )
        assert code == 3
        assert err.startswith(f"error: {path}: not UTF-8 text") and err.count(str(path)) == 1

    @pytest.mark.parametrize("line, message", [
        ("edg 1 2", "line 5: expected 'edge <a> <b>', got 'edg 1 2'"),
        ("edge 1 5", "line 5: edge 1 5 outside 0..2"),
        ("edge 1 1", "line 5: self-loop on cell 1"),
        ("edge 1 0", "line 5: duplicate edge 1 0"),
    ])
    def test_graph_errors_name_file_and_line(self, capsys, trace_path, tmp_path, line, message):
        # Comments and blank lines count: the bad edge is the file's fifth line.
        path = tmp_path / "bad.txt"
        path.write_text(f"# three cells\ncells 3\nedge 0 1\n\n{line}\n")
        code, out, err = run_cli(
            capsys, "dist", "Sa", "Sb", "--trace", trace_path,
            "--measure", "tiakas-net", "--graph", str(path),
        )
        assert (code, out, err) == (3, "", f"error: {path}: {message}\n")

    @pytest.mark.parametrize("line, message", [
        ("p0,1,x,3", "line 3: non-integer field"),
        (",1,2,3", "line 3: empty pattern id"),
    ])
    def test_trace_errors_name_file_and_line(self, capsys, tmp_path, line, message):
        path = tmp_path / "bad.csv"
        path.write_text(f"pattern_id,seq,cell,timestamp_index\np0,0,1,2\n{line}\n")
        code, out, err = run_cli(capsys, "dist", "p0", "p0", "--trace", str(path))
        assert (code, out, err) == (3, "", f"error: {path}: {message}\n")

    def test_unknown_measure_is_usage_error(self, capsys, trace_path):
        with pytest.raises(SystemExit) as exc:
            main(["dist", "Sa", "Sb", "--trace", trace_path, "--measure", "haversine"])
        assert exc.value.code == 2


class TestMatrix:
    def test_two_pattern_table(self, capsys, trace_path):
        code, out, _ = run_cli(capsys, "matrix", "--trace", trace_path)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "id,Sa,Sb"
        assert lines[1] == "Sa,0.000000,0.200000"
        assert lines[2] == "Sb,0.200000,0.000000"

    def test_single_pattern_table(self, capsys, tmp_path):
        path = tmp_path / "one.csv"
        save_trace({"Sa": SA}, str(path))
        code, out, _ = run_cli(capsys, "matrix", "--trace", str(path))
        assert code == 0
        assert out.strip().splitlines() == ["id,Sa", "Sa,0.000000"]

    def test_out_file(self, capsys, trace_path, tmp_path):
        out_path = tmp_path / "m.csv"
        code, out, _ = run_cli(
            capsys, "matrix", "--trace", trace_path, "--out", str(out_path)
        )
        assert code == 0
        assert out == ""
        assert out_path.read_text().startswith("id,Sa,Sb\n")

    def test_entries_match_direct_calls(self, capsys, graph_path, tmp_path):
        gen_path = tmp_path / "gen.csv"
        code, _, _ = run_cli(
            capsys, "gen", "--graph", graph_path, "--count", "5",
            "--min-len", "2", "--max-len", "6", "--seed", "3",
            "--out", str(gen_path),
        )
        assert code == 0
        patterns = load_trace(str(gen_path))

        code, out, _ = run_cli(capsys, "matrix", "--trace", str(gen_path))
        assert code == 0
        lines = out.strip().splitlines()
        ids = lines[0].split(",")[1:]
        assert ids == list(patterns)
        for row in lines[1:]:
            fields = row.split(",")
            pid, entries = fields[0], [float(x) for x in fields[1:]]
            for other, got in zip(ids, entries):
                want = weighted_dissimilarity(patterns[pid], patterns[other])
                assert abs(got - want) <= 1e-6


    @pytest.mark.parametrize("block", [1, cli._TEXT_VALUES])
    @pytest.mark.parametrize("measure", ["lcss", "cvti", "composite"])
    def test_text_is_per_value_format(
        self, capsys, monkeypatch, graph_path, tmp_path, measure, block
    ):
        monkeypatch.setattr(cli, "_TEXT_VALUES", block)
        gen_path = tmp_path / "gen.csv"
        run_cli(
            capsys, "gen", "--graph", graph_path, "--count", "9",
            "--min-len", "1", "--max-len", "9", "--seed", "4", "--out", str(gen_path),
        )
        patterns = load_trace(str(gen_path))
        m = build_matrix(list(patterns.values()), measure, ids=list(patterns))
        if measure != "composite":
            assert m.values.max() >= 1.0
        code, out, _ = run_cli(capsys, "matrix", "--trace", str(gen_path), "--measure", measure)
        assert code == 0
        assert out == per_value_text(m)

    def test_signed_zero_text(self, capsys, monkeypatch, trace_path):
        values = np.array([[-0.0, 0.0, -1e-9], [135.0, 1e-7, 2.5e-7], [0.1234565, 999999.9999995, 7.0]])
        m = DissimilarityMatrix(values, ids=("a", "b", "c"))
        monkeypatch.setattr(cli, "_matrix", lambda args: m)
        code, out, _ = run_cli(capsys, "matrix", "--trace", trace_path)
        assert code == 0
        assert out == per_value_text(m)
        assert out.splitlines()[1] == "a,-0.000000,0.000000,-0.000000"

    @settings(max_examples=200, deadline=None)
    @given(text_matrices(), st.sampled_from([1, 7, None]))
    def test_blocked_text_is_per_value_format(self, m, rows):
        # Blocks of one row and of 7 rows, or the default size.
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "_matrix", lambda args: m)
            if rows:
                mp.setattr(cli, "_TEXT_VALUES", rows * m.n)
            assert cli.cmd_matrix(argparse.Namespace(out=None)) == per_value_text(m)

    @pytest.mark.parametrize("block", [1, cli._TEXT_VALUES])
    def test_stdout_equals_out_file(self, capsys, monkeypatch, trace_path, tmp_path, block):
        monkeypatch.setattr(cli, "_TEXT_VALUES", block)
        out_path = tmp_path / "m.csv"
        code, _, _ = run_cli(capsys, "matrix", "--trace", trace_path, "--out", str(out_path))
        assert code == 0
        code, out, _ = run_cli(capsys, "matrix", "--trace", trace_path)
        assert code == 0
        assert out.encode() == out_path.read_bytes()
        assert out.endswith("0.000000\n")

    @pytest.mark.parametrize("measure", ["tiakas-net", "tiakas-total"])
    def test_cells_outside_graph(self, capsys, off_graph, measure):
        graph, trace = off_graph
        code, out, err = run_cli(
            capsys, "matrix", "--trace", trace, "--measure", measure, "--graph", graph
        )
        assert code == 3
        assert out == ""
        assert "'p0' and 'p0'" in err
        assert "cell id 999 out of range for graph with 3 cells" in err

    def test_errors_name_pattern_ids(self, capsys, tmp_path):
        path = tmp_path / "mixed.csv"
        short = make_pattern([(0, 1), (1, 2)])
        save_trace({"p0003": SA, "p0007": short}, str(path))
        code, out, err = run_cli(
            capsys, "matrix", "--trace", str(path), "--measure", "tiakas-time"
        )
        assert code == 3
        assert out == ""
        assert "'p0003' and 'p0007'" in err


class TestCluster:
    def test_two_groups(self, capsys, tmp_path):
        patterns = {
            "a0": SA,
            "a1": SA,
            "b0": SB,
            "b1": SB,
        }
        path = tmp_path / "four.csv"
        save_trace(patterns, str(path))
        code, out, _ = run_cli(
            capsys, "cluster", "--trace", str(path), "--k", "2", "--seed", "1"
        )
        assert code == 0
        rows = dict(
            line.split(",") for line in out.strip().splitlines()[1:5]
        )
        assert rows["a0"] == rows["a1"]
        assert rows["b0"] == rows["b1"]
        assert rows["a0"] != rows["b0"]
        assert "total cost = 0.000000" in out

    def test_out_file_keeps_summary_on_stdout(self, capsys, trace_path, tmp_path):
        out_path = tmp_path / "clusters.csv"
        code, out, _ = run_cli(
            capsys, "cluster", "--trace", trace_path, "--k", "1",
            "--out", str(out_path),
        )
        assert code == 0
        assert "medoids:" in out
        assert out_path.read_text().startswith("pattern_id,medoid_id\n")

    def test_exact_bytes_with_and_without_out(self, capsys, trace_path, tmp_path):
        out_path = tmp_path / "clusters.csv"
        argv = ["cluster", "--trace", trace_path, "--k", "1"]
        table = "pattern_id,medoid_id\nSa,Sb\nSb,Sb\n"
        summary = "medoids: Sb\ntotal cost = 0.200000\n"
        assert run_cli(capsys, *argv) == (0, table + summary, "")
        assert run_cli(capsys, *argv, "--out", str(out_path)) == (0, summary, "")
        assert out_path.read_bytes() == table.encode()

    def test_similarity_measures_rejected(self, capsys, trace_path):
        for name in ("lcss", "cvti"):
            code, _, err = run_cli(
                capsys, "cluster", "--trace", trace_path, "--k", "1",
                "--measure", name,
            )
            assert code == 3
            assert "similarity" in err

    @pytest.mark.parametrize("measure", ["tiakas-net", "tiakas-total"])
    def test_cells_outside_graph(self, capsys, off_graph, measure):
        graph, trace = off_graph
        code, out, err = run_cli(
            capsys, "cluster", "--trace", trace, "--k", "1",
            "--measure", measure, "--graph", graph,
        )
        assert code == 3
        assert out == ""
        assert "cell id 999 out of range for graph with 3 cells" in err

    def test_k_too_large(self, capsys, trace_path):
        code, _, err = run_cli(capsys, "cluster", "--trace", trace_path, "--k", "3")
        assert code == 3
        assert "error:" in err


class TestCasestudy:
    def test_report_values(self, capsys):
        code, out, _ = run_cli(capsys, "casestudy")
        assert code == 0
        for needle in (
            "Sa = <(1,t1) (0,t3) (2,t4) (8,t6) (7,t9)>\n",
            "Sb = <(0,t3) (2,t4) (3,t5) (8,t6) (4,t8)>\n",
            "D_net = 0.200",
            "D_time(tiakas) = 0.333",
            "D_total(tiakas) = 0.267",
            "g = 4",
            "f = 0.400",
            "d_OSS = 0.440",
            "f(Sa,Sb) = 4",
            "D_space = 0.400",
            "D_time(proposed) = 0.000",
            "D_total(proposed) = 0.200",
        ):
            assert needle in out


class TestGen:
    def test_zero_count_header_only(self, capsys, graph_path):
        code, out, _ = run_cli(capsys, "gen", "--graph", graph_path, "--count", "0")
        assert code == 0
        assert out.strip() == "pattern_id,seq,cell,timestamp_index"

    def test_walks_respect_graph(self, capsys, graph_path, tmp_path):
        path = tmp_path / "walks.csv"
        code, _, _ = run_cli(
            capsys, "gen", "--graph", graph_path, "--count", "30",
            "--min-len", "2", "--max-len", "10", "--seed", "9",
            "--out", str(path),
        )
        assert code == 0
        g = example_graph()
        patterns = load_trace(str(path))
        assert len(patterns) == 30
        for p in patterns.values():
            for a, b in zip(p.cells, p.cells[1:]):
                assert a == b or g.has_edge(a, b)

    def test_same_seed_byte_identical(self, capsys, graph_path, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for target in (p1, p2):
            code, _, _ = run_cli(
                capsys, "gen", "--graph", graph_path, "--count", "12",
                "--seed", "42", "--out", str(target),
            )
            assert code == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_round_trip_stable(self, capsys, graph_path, tmp_path):
        path = tmp_path / "walks.csv"
        run_cli(
            capsys, "gen", "--graph", graph_path, "--count", "8",
            "--seed", "5", "--out", str(path),
        )
        patterns = load_trace(str(path))
        resaved = tmp_path / "again.csv"
        save_trace(patterns, str(resaved))
        assert resaved.read_bytes() == path.read_bytes()

    def test_stdout_equals_out_file(self, capsys, graph_path, tmp_path):
        argv = ["gen", "--graph", graph_path, "--count", "2", "--seed", "3"]
        out_path = tmp_path / "g.csv"
        code, _, _ = run_cli(capsys, *argv, "--out", str(out_path))
        assert code == 0
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out.encode() == out_path.read_bytes()
        assert not out.endswith("\n\n")

    def test_ids_widen_past_9999(self, capsys, graph_path, tmp_path):
        path = tmp_path / "many.csv"
        code, _, _ = run_cli(
            capsys, "gen", "--graph", graph_path, "--count", "10001",
            "--min-len", "1", "--max-len", "1", "--out", str(path),
        )
        assert code == 0
        ids = list(load_trace(str(path)))
        assert len(ids) == 10001
        assert ids[:2] == ["p00000", "p00001"] and ids[-1] == "p10000"

    @settings(max_examples=30, deadline=None)
    @given(
        count=st.integers(0, 30),
        min_len=st.integers(1, 6),
        extra=st.integers(0, 6),
        seed=st.integers(0, 2**32),
    )
    def test_output_loads_back(self, count, min_len, extra, seed):
        with tempfile.TemporaryDirectory() as tmp:
            graph_path = os.path.join(tmp, "graph.txt")
            out_path = os.path.join(tmp, "walks.csv")
            save_graph(example_graph(), graph_path)
            code = main([
                "gen", "--graph", graph_path, "--count", str(count),
                "--min-len", str(min_len), "--max-len", str(min_len + extra),
                "--seed", str(seed), "--out", out_path,
            ])
            assert code == 0
            patterns = load_trace(out_path)
        assert len(patterns) == count
        assert all(min_len <= len(p) <= min_len + extra for p in patterns.values())

    @pytest.mark.parametrize("args, message", [
        (("--count", "2", "--min-len", "5", "--max-len", "3"), "need 1 <= min-len <= max-len"),
        (("--count", "-1"), "count must be non-negative, got -1"),
    ])
    def test_bad_bounds(self, capsys, graph_path, args, message):
        code, _, err = run_cli(capsys, "gen", "--graph", graph_path, *args)
        assert code == 3
        assert err.startswith(f"error: {message}")

    def test_missing_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


class TestEntryPoint:
    """`python -m mobisim` exits with main's return code."""

    @staticmethod
    def env():
        """This environment, with this checkout's mobisim first on the path."""
        src = str(Path(mobisim.__file__).resolve().parent.parent)
        pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        return {**os.environ, "PYTHONPATH": pythonpath}

    def run_python(self, *argv):
        return subprocess.run(
            [sys.executable, *argv],
            env=self.env(),
            capture_output=True,
            text=True,
            timeout=60,
        )

    def test_casestudy_exits_zero(self):
        proc = self.run_python("-m", "mobisim", "casestudy")
        assert proc.returncode == 0
        assert "D_total(proposed) = 0.200" in proc.stdout

    def test_missing_subcommand_exits_two(self):
        proc = self.run_python("-m", "mobisim")
        assert proc.returncode == 2
        assert proc.stdout == ""

    def test_data_error_exits_three(self, tmp_path):
        missing = str(tmp_path / "nope.csv")
        proc = self.run_python("-m", "mobisim", "dist", "a", "b", "--trace", missing)
        assert proc.returncode == 3
        assert proc.stderr.startswith("error: ") and missing in proc.stderr

    def test_closed_stdout_ends_without_traceback(self, tmp_path):
        # `mobisim matrix ... | head -c 10`: the matrix text (about 1.4 MB)
        # is far larger than a pipe's buffer, so the write fails after the
        # reader closes its end.
        rng = random.Random(7)
        path = tmp_path / "big.csv"
        save_trace(
            {f"p{i:04d}": make_pattern([(rng.randrange(500), 1)]) for i in range(400)},
            str(path),
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "mobisim", "matrix", "--trace", str(path)],
            env=self.env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        assert proc.stdout.read(10) == b"id,p0000,p"
        proc.stdout.close()
        try:
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 1
        finally:
            proc.kill()
            proc.stderr.close()
        assert b"Traceback" not in err
        assert err == b""

    def test_import_builds_no_parser(self):
        proc = self.run_python("-c", "import mobisim.cli; print(mobisim.cli._parser)")
        assert proc.returncode == 0
        assert proc.stdout == "None\n"

    def test_import_leaves_scipy_unloaded(self):
        # scipy costs about 0.15 s and 20 MB to import; nothing may pull it in.
        proc = self.run_python(
            "-c",
            "import sys, mobisim.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        assert proc.returncode == 0
        assert proc.stdout == "[]\n"
