#!/usr/bin/env python3
"""Benchmark of mobisim's CLI commands, end to end and per layer.

Run from the root of the repository:

    python3 bench/run.py --workload cluster-dense --seed 1 --seconds 20 --trace 0

Each run generates its own graph and trace from --seed, then repeats whole
rounds of `gen`, `matrix`, `cluster` and `dist` through mobisim.cli.main for
--seconds, checking every output against bench/oracle.py. With --trace 0 it
reports the end-to-end metrics; with --trace 1 it also replays each command
as direct calls into mobisim's modules, with spans around them, and reports
the per-layer metrics. The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics; the metric names and units are
those of BENCHMARK.json.
"""

from __future__ import annotations

import os

# One thread: numpy reads these when it is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import io
import json
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import oracle
import tracing
from workloads import GRAPH_MEASURES, WORKLOADS, Workload, grid_diameter, pattern_id, write_inputs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
# The dist median must repeat within a tenth between the first half of its
# samples and all of them; rounds go on past --seconds (up to a fifth
# longer) until it does.
SETTLE = 0.1
OVERRUN = 1.2
# PAM's round count depends on its starting medoids. Round r runs `cluster
# --seed` with start (r - 1) % PAM_STARTS + 1, every run makes at least
# PAM_STARTS rounds, and the PAM figures are medians over the starts of each
# start's median: every run, on any machine and at any speed of the code,
# weighs the same starts.
PAM_STARTS = 7
# `gen` draws its lengths from its seed, so it gets the same seed in every
# run and does the same work whatever --seed is.
GEN_SEED = 1

IMPORT_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import mobisim.cli; print(time.perf_counter() - t)"
)


def load_mobisim():
    """Import mobisim from this checkout's src/, never from elsewhere."""
    if not (SRC / "mobisim" / "__init__.py").is_file():
        raise SystemExit(f"error: no mobisim sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import mobisim
    import mobisim.cli

    if Path(mobisim.__file__).resolve().parent != SRC / "mobisim":
        raise SystemExit(f"error: imported mobisim from {mobisim.__file__}")
    return mobisim


def import_seconds() -> float:
    """Time to import mobisim.cli in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_CODE, str(SRC)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(done.stdout)


def median_over_starts(pairs) -> float:
    """Median over PAM starts of each start's median; `pairs` are (start, value)."""
    by_start: dict[int, list[float]] = {}
    for start, value in pairs:
        by_start.setdefault(start, []).append(value)
    return statistics.median(statistics.median(v) for v in by_start.values())


def settled(samples: list[float]) -> bool:
    if len(samples) < 20:
        return False
    whole = statistics.median(samples)
    return abs(statistics.median(samples[: len(samples) // 2]) - whole) <= SETTLE * whole


class Run:
    """One workload on one seed: its inputs, its commands and their checks."""

    def __init__(self, ms, w: Workload, seed: int, workdir: Path):
        self.ms = ms
        self.w = w
        self.seed = seed
        self.graph = str(workdir / "graph.txt")
        self.trace = str(workdir / "trace.csv")
        self.gen_out = str(workdir / "gen.csv")
        self.cluster_out = str(workdir / "cluster.csv")
        self.matrix_out = {m: str(workdir / f"matrix-{m}.csv") for m in w.matrix_measures}
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self.last_medoids = ""
        self.rounds = 0
        self.starts: list[int] = []
        self.kmedoids_rounds: list[int] = []
        self.pair_rng = random.Random(f"{w.name}/dist/{seed}")

    def setup(self) -> tuple[list[float], list[float]]:
        """Set up SETUP_REPEATS times: import mobisim, generate and write the inputs."""
        totals, imports = [], []
        for _ in range(SETUP_REPEATS):
            imported = import_seconds()
            start = perf_counter()
            self.patterns = write_inputs(self.w, self.seed, self.graph, self.trace)
            totals.append(imported + perf_counter() - start)
            imports.append(imported)
        self.ids = list(self.patterns)
        self.share = oracle.sharing(self.patterns, self.w.cells)
        return totals, imports

    # --- commands ------------------------------------------------------------

    def _opts(self, measure: str) -> list[str]:
        return ["--measure", measure] + (["--graph", self.graph] if measure in GRAPH_MEASURES else [])

    def cli(self, argv: list[str]) -> tuple[float, int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        gc.collect()
        with redirect_stdout(out), redirect_stderr(err):
            start = perf_counter()
            try:
                code = self.ms.cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:
                code = -1
                traceback.print_exc()
            seconds = perf_counter() - start
        return seconds, code, out.getvalue(), err.getvalue()

    def op(self, argv: list[str], check) -> float:
        """Run one counted command and check its output; return its time."""
        seconds, code, out, err = self.cli(argv)
        self.attempted += 1
        if code != 0:
            self.failed += 1
            print(f"failed (exit {code}): mobisim {' '.join(argv)}\n{err}", file=sys.stderr)
            return seconds
        try:
            check(out)
        except oracle.CheckError as exc:
            self.failed += 1
            self.wrong.append(str(exc))
            print(f"wrong output: mobisim {' '.join(argv)}: {exc}", file=sys.stderr)
        return seconds

    def dist_argv(self, a: str, b: str) -> list[str]:
        return ["dist", a, b, "--trace", self.trace, *self._opts(self.w.dist_measure)]

    def next_pair(self) -> tuple[str, str]:
        a, b = self.pair_rng.sample(range(self.w.count), 2)
        return pattern_id(a), pattern_id(b)

    def check_dist(self, a: str, b: str):
        return lambda out: oracle.check_dist(
            out.strip(), self.patterns[a], self.patterns[b], self.w.dist_measure, self.w
        )

    def round(self) -> dict:
        """One round of every command the workload runs; their times."""
        w = self.w
        self.rounds += 1
        self.starts.append((self.rounds - 1) % PAM_STARTS + 1)
        self.last_medoids = ""
        times = {}
        times["gen"] = self.op(
            ["gen", "--graph", self.graph, "--count", str(w.count), "--min-len", str(w.min_len),
             "--max-len", str(w.max_len), "--seed", str(GEN_SEED), "--out", self.gen_out],
            lambda out: oracle.check_gen(read(self.gen_out), w),
        )
        matrices = {}

        def check_matrix(measure):
            def check(out):
                matrices[measure] = oracle.check_matrix(
                    read(self.matrix_out[measure]), measure, w, self.patterns, self.share, self.seed
                )
            return check

        times["matrix"] = sum(
            self.op(["matrix", "--trace", self.trace, "--out", self.matrix_out[m], *self._opts(m)],
                    check_matrix(m))
            for m in w.matrix_measures
        )

        def check_cluster(out):
            if w.cluster_measure not in matrices:
                raise oracle.CheckError("no checked matrix to check the clustering against")
            oracle.check_cluster(read(self.cluster_out), out, matrices[w.cluster_measure], self.ids, w.k)
            self.last_medoids = out.split("\n")[0]

        times["cluster"] = self.op(
            ["cluster", "--trace", self.trace, "--k", str(w.k), "--seed", str(self.starts[-1]),
             "--out", self.cluster_out, *self._opts(w.cluster_measure)],
            check_cluster,
        )
        times["dist"] = []
        for _ in range(w.dists_per_round):
            a, b = self.next_pair()
            times["dist"].append(self.op(self.dist_argv(a, b), self.check_dist(a, b)))
        return times


def read(path: str) -> str:
    with open(path, encoding="utf-8", newline="") as fh:
        return fh.read()


def cluster_seconds(run: Run, cli_times: list[dict]) -> float:
    return median_over_starts(zip(run.starts, (t["cluster"] for t in cli_times)))


def replay_round(run: Run, replay: tracing.Replay, generated: dict, round_no: int) -> float:
    """Replay one round as direct calls; return its wall time. `generated`
    stands in for the patterns `gen` formats: the workload's own, of the
    same count and length range."""
    w = run.w
    start = perf_counter()
    replay.gen(generated, round_no)
    for m in w.matrix_measures:
        replay.matrix(m, round_no)
    result = replay.cluster(round_no, run.starts[-1])
    medoids = "medoids: " + ",".join(run.ids[i] for i in result.medoids)
    if run.last_medoids and medoids != run.last_medoids:
        run.wrong.append(f"replayed kmedoids gives {medoids!r}, the CLI {run.last_medoids!r}")
    for _ in range(w.dists_per_round):
        replay.dist(*run.next_pair(), round_no)
    seconds = perf_counter() - start
    run.kmedoids_rounds.append(len(result.cost_history))
    return seconds


def layer_report(run: Run, tracer: tracing.Tracer, cli_times: list[dict], imports: list[float]) -> dict:
    """Per-layer metrics from the spans, the untraced command times and the micro timings."""
    w = run.w
    spans = tracer.spans
    med = statistics.median

    def durations(name):
        return [tracing.duration(s) for s in spans if s["name"] == name]

    def roots(name):
        return [s for s in spans if s["name"] == name and s["parent"] is None]

    def per_round(name, child=None):
        """Time in the children of each round's `name` spans (only those
        named `child`, if given), summed per round and keyed by round."""
        round_of = {s["id"]: s["round"] for s in roots(name)}
        sums: dict[int, float] = {}
        for s in spans:
            if s["parent"] in round_of and child in (None, s["name"]):
                r = round_of[s["parent"]]
                sums[r] = sums.get(r, 0.0) + tracing.duration(s)
        return sums

    pam = list(zip(run.starts, durations("clustering.kmedoids"), run.kmedoids_rounds))
    metrics = {
        "patterns.parse_trace_s": med(durations("patterns.load_trace")),
        "patterns.format_trace_s": med(durations("patterns.format_trace")),
        "graph.load_graph_s": med(durations("graph.load_graph")),
        "clustering.build_matrix_s": med(per_round("cli.matrix", "clustering.build_matrix").values()),
        "clustering.pairs_sharing_cell": oracle.pairs_sharing_cell(run.patterns, w.cells),
        "clustering.kmedoids_s": median_over_starts((st, s) for st, s, _ in pam),
        "clustering.kmedoids_rounds": median_over_starts((st, n) for st, _, n in pam),
        "clustering.kmedoids_ms_per_round": median_over_starts((st, s / n * 1e3) for st, s, n in pam),
        "clustering.computed_swaps_per_s": median_over_starts(
            (st, n * w.k * (w.count - w.k) / s) for st, s, n in pam
        ),
        "cli.import_s": med(imports),
        "cli.gen_self_s": med(t["gen"] for t in cli_times) - med(per_round("cli.gen").values()),
        "cli.matrix_self_s": med(t["matrix"] for t in cli_times) - med(per_round("cli.matrix").values()),
        "cli.cluster_self_s": cluster_seconds(run, cli_times)
        - median_over_starts((run.starts[r - 1], x) for r, x in per_round("cli.cluster").items()),
        "cli.dist_self_s": med(x for t in cli_times for x in t["dist"])
        - med(tracing.child_seconds(spans, s) for s in roots("cli.dist")),
    }
    layers, dia = tracing.layer_metrics(run.ms, w, run.graph, run.trace, run.seed)
    if dia != grid_diameter(w.rows, w.cols):
        run.wrong.append(f"diameter() = {dia}, the hex grid's is {grid_diameter(w.rows, w.cols)}")
    metrics.update(layers)
    return metrics


def run(ms, w: Workload, seed: int, seconds: float, trace: bool) -> tuple[dict, str]:
    """Set up, run whole rounds for `seconds`, and return the result object
    and a human-readable report."""
    workroot = BENCH / "work"
    workroot.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=workroot) as tmp:
        r = Run(ms, w, seed, Path(tmp))
        setup, imports = r.setup()
        # Warm-up, not counted: one dist command. The rounds check the same command.
        r.cli(r.dist_argv(*r.next_pair()))

        tracer = tracing.Tracer(w.name)
        replay = tracing.Replay(ms, tracer, w, r.graph, r.trace)
        cli_times, replayed = [], 0.0
        generated = ms.load_trace(r.trace) if trace else None
        start = perf_counter()
        while True:
            elapsed = perf_counter() - start
            dists = [x for t in cli_times for x in t["dist"]]
            if len(cli_times) >= PAM_STARTS and elapsed >= seconds and (
                settled(dists) or elapsed >= OVERRUN * seconds
            ):
                break
            cli_times.append(r.round())
            if trace:
                replayed += replay_round(r, replay, generated, len(cli_times))

        if trace:
            metrics = layer_report(r, tracer, cli_times, imports)
            results = BENCH / "results"
            results.mkdir(exist_ok=True)
            tracer.write(str(results / f"spans-{w.name}-seed{seed}.json"))
            spent = tracing.span_seconds() * len(tracer.spans)
            note = (
                f"tracing overhead: {len(tracer.spans)} spans cost about {spent:.6f} s "
                f"of {replayed:.3f} s replayed ({spent / replayed:.4%})"
            )
        else:
            metrics = {
                "setup_s": statistics.median(setup),
                "gen_s": statistics.median(t["gen"] for t in cli_times),
                "matrix_s": statistics.median(t["matrix"] for t in cli_times),
                "cluster_s": cluster_seconds(r, cli_times),
                "dist_s": statistics.median(x for t in cli_times for x in t["dist"]),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            note = ""
    result = {
        "correct": not r.wrong,
        "attempted": r.attempted,
        "failed": r.failed,
        "metrics": metrics,
    }
    report = (
        f"{w.name} seed {seed}: {len(cli_times)} rounds, {r.attempted} commands, "
        f"{r.failed} failed, {len(dists)} dist lookups\n" + (note + "\n" if note else "")
    )
    return result, report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    ms = load_mobisim()
    result, report = run(ms, WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    measured = result["metrics"]
    if set(measured) != set(units):
        raise SystemExit(f"error: metrics {sorted(set(measured) ^ set(units))} differ from BENCHMARK.json")
    result["metrics"] = {name: {"value": measured[name], "unit": units[name]} for name in units}

    print(report, end="")
    for name, unit in units.items():
        print(f"  {name:40s} {measured[name]:>14.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
