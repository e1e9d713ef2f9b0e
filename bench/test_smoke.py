"""Smoke test of the benchmark: every workload at tiny sizes, and checks
that reject corrupted outputs.

Run from the root of the repository:

    python3 -m pytest -q bench/test_smoke.py
"""

from __future__ import annotations

import dataclasses
import json

import pytest

import oracle
import run
from workloads import WORKLOADS, Workload, hex_distance


def tiny(w: Workload) -> Workload:
    return dataclasses.replace(
        w, rows=min(w.rows, 6), cols=min(w.cols, 6), count=max(12, 2 * w.groups), dists_per_round=2
    )


@pytest.fixture(scope="module")
def ms():
    return run.load_mobisim()


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_runs_clean(ms, name, trace):
    result, _ = run.run(ms, tiny(WORKLOADS[name]), seed=3, seconds=0, trace=trace)
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert result["correct"]
    assert result["attempted"] > 0
    assert result["failed"] == 0
    assert set(result["metrics"]) == names


@pytest.fixture(scope="module")
def outputs(ms, tmp_path_factory):
    """One checked round of cluster-dense at tiny size; its files stay on disk."""
    w = tiny(WORKLOADS["cluster-dense"])
    r = run.Run(ms, w, seed=5, workdir=tmp_path_factory.mktemp("round"))
    r.setup()
    r.round()
    assert r.attempted > 0 and r.failed == 0
    return r


def test_corrupted_matrix_is_caught(outputs):
    r = outputs
    text = run.read(r.matrix_out["composite"])
    oracle.check_matrix(text, "composite", r.w, r.patterns, r.share, r.seed)
    lines = text.split("\n")
    fields = lines[1].split(",")
    fields[2] = "0.123456" if fields[2] != "0.123456" else "0.654321"
    lines[1] = ",".join(fields)
    with pytest.raises(oracle.CheckError, match="not symmetric"):
        oracle.check_matrix("\n".join(lines), "composite", r.w, r.patterns, r.share, r.seed)


def test_corrupted_cluster_is_caught(outputs):
    r = outputs
    values = oracle.read_matrix(run.read(r.matrix_out["composite"]), r.ids)
    table = run.read(r.cluster_out)
    medoids = [r.ids.index(m) for m in r.last_medoids[len("medoids: "):].split(",")]
    rows = table.split("\n")
    summary = r.last_medoids + f"\ntotal cost = {oracle.config_cost(values, medoids):.6f}"
    oracle.check_cluster(table, summary, values, r.ids, r.w.k)
    # Move one pattern to a medoid that is farther from it than its own.
    for i in range(len(r.ids)):
        own = r.ids.index(rows[i + 1].split(",")[1])
        farther = [m for m in medoids if values[i, m] > values[i, own] + 1e-3]
        if i not in medoids and farther:
            rows[i + 1] = f"{r.ids[i]},{r.ids[farther[0]]}"
            break
    else:
        pytest.fail("no pattern with a farther medoid")
    with pytest.raises(oracle.CheckError, match="nearest medoid"):
        oracle.check_cluster("\n".join(rows), summary, values, r.ids, r.w.k)


def test_corrupted_gen_is_caught(outputs):
    r = outputs
    text = run.read(r.gen_out)
    oracle.check_gen(text, r.w)
    lines = text.split("\n")
    pid, _, first, slot = lines[1].split(",")
    far = next(c for c in range(r.w.cells) if hex_distance(int(first), c, r.w.cols) >= 2)
    assert lines[2].startswith(pid + ",1,")
    lines[2] = f"{pid},1,{far},{lines[2].split(',')[3]}"
    with pytest.raises(oracle.CheckError, match="jumps"):
        oracle.check_gen("\n".join(lines), r.w)
