"""The traced run: spans around direct calls into mobisim's modules.

Each CLI command is replayed as the calls it makes to the public functions
load_graph, load_trace, resolve_measure, build_matrix, kmedoids and
format_trace. Spans are recorded here, around those calls, and nothing
inside mobisim is patched or wrapped. Spans stay in memory until the run
ends and are then written out once.
"""

from __future__ import annotations

import json
import random
import statistics
import tracemalloc
from contextlib import contextmanager
from time import perf_counter
from typing import Iterator

from workloads import GRAPH_MEASURES, Workload

LAYER_OF = {
    "space": "measures",
    "time": "measures",
    "composite": "measures",
}


class Tracer:
    """In-memory spans: name, start, end, parent and workload, plus attributes."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[None]:
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "workload": self.workload,
            **attrs,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        record["start"] = perf_counter()
        try:
            yield
        finally:
            record["end"] = perf_counter()
            self._open.pop()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def span_seconds(count: int = 20000) -> float:
    """Cost of recording one span around nothing."""
    tracer = Tracer("calibration")
    start = perf_counter()
    for _ in range(count):
        with tracer.span("empty"):
            pass
    return (perf_counter() - start) / count


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def child_seconds(spans: list[dict], root: dict) -> float:
    """Time covered by the direct children of a span (they never overlap)."""
    return sum(duration(s) for s in spans if s["parent"] == root["id"])


class Replay:
    """The CLI commands of one workload as direct calls into mobisim."""

    def __init__(self, ms, tracer: Tracer, w: Workload, graph_path: str, trace_path: str):
        self.ms = ms  # the mobisim package
        self.tr = tracer
        self.w = w
        self.graph_path = graph_path
        self.trace_path = trace_path
        self.weights = ms.Weights(0.5, 0.5)

    def _inputs(self, measure: str):
        with self.tr.span("patterns.load_trace"):
            patterns = self.ms.load_trace(self.trace_path)
        graph = None
        if measure in GRAPH_MEASURES:
            with self.tr.span("graph.load_graph"):
                graph = self.ms.load_graph(self.graph_path)
        return patterns, graph

    def gen(self, generated: dict, round_no: int) -> None:
        with self.tr.span("cli.gen", round=round_no):
            with self.tr.span("graph.load_graph"):
                self.ms.load_graph(self.graph_path)
            with self.tr.span("patterns.format_trace"):
                self.ms.patterns.format_trace(generated)

    def matrix(self, measure: str, round_no: int) -> None:
        with self.tr.span("cli.matrix", round=round_no, measure=measure):
            patterns, graph = self._inputs(measure)
            with self.tr.span("clustering.build_matrix", measure=measure):
                self.ms.build_matrix(
                    list(patterns.values()), measure, graph=graph, weights=self.weights, ids=list(patterns)
                )

    def cluster(self, round_no: int, seed: int):
        measure = self.w.cluster_measure
        with self.tr.span("cli.cluster", round=round_no, measure=measure):
            patterns, graph = self._inputs(measure)
            with self.tr.span("clustering.build_matrix", measure=measure):
                m = self.ms.build_matrix(
                    list(patterns.values()), measure, graph=graph, weights=self.weights, ids=list(patterns)
                )
            with self.tr.span("clustering.kmedoids", k=self.w.k, seed=seed):
                return self.ms.kmedoids(m, self.w.k, seed=seed)

    def dist(self, id_a: str, id_b: str, round_no: int) -> float:
        measure = self.w.dist_measure
        with self.tr.span("cli.dist", round=round_no, measure=measure):
            patterns, graph = self._inputs(measure)
            with self.tr.span("clustering.resolve_measure"):
                fn = self.ms.resolve_measure(measure, graph=graph, weights=self.weights)
            with self.tr.span(f"{LAYER_OF.get(measure, 'baselines')}.{measure}"):
                return fn(patterns[id_a], patterns[id_b])


def _us_per_call(calls: list, reps: int = 5) -> float:
    """Median over reps of the mean time of one call, in microseconds."""
    times = []
    for _ in range(reps):
        start = perf_counter()
        for fn, args in calls:
            fn(*args)
        times.append((perf_counter() - start) / len(calls))
    return statistics.median(times) * 1e6


def layer_metrics(ms, w: Workload, graph_path: str, trace_path: str, seed: int) -> tuple[dict[str, float], int]:
    """Per-call costs of the measure, pattern and graph layers, and the
    diameter mobisim computed."""
    patterns = ms.load_trace(trace_path)
    points = list(patterns.values())
    out = {
        "patterns.access_us_per_pattern": _us_per_call([(lambda p: (p.cells, p.slots), (p,)) for p in points]),
    }

    rng = random.Random(f"{w.name}/layers/{seed}")
    pairs = [tuple(rng.sample(points, 2)) for _ in range(300)]
    by_length: dict[int, list] = {}
    for p in points:
        by_length.setdefault(len(p), []).append(p)
    equal = [group for group in by_length.values() if len(group) > 1]
    equal_pairs = [tuple(rng.sample(rng.choice(equal), 2)) for _ in range(300)]

    # Cold diameter on fresh loads; the last load stays warm for tiakas-*.
    cold = []
    for _ in range(3):
        graph = ms.load_graph(graph_path)
        start = perf_counter()
        dia = graph.diameter()
        cold.append(perf_counter() - start)
    out["graph.diameter_s"] = statistics.median(cold)
    fresh = ms.load_graph(graph_path)
    tracemalloc.start()
    before = tracemalloc.get_traced_memory()[0]
    fresh.diameter()
    out["graph.diameter_retained_mb"] = (tracemalloc.get_traced_memory()[0] - before) / 2**20
    tracemalloc.stop()
    del fresh

    weights = ms.Weights(0.5, 0.5)
    per_pair = {
        "measures.space_us_per_pair": (ms.spatial_dissimilarity, pairs, ()),
        "measures.time_us_per_pair": (ms.temporal_dissimilarity, pairs, ()),
        "measures.composite_us_per_pair": (ms.weighted_dissimilarity, pairs, (weights,)),
        "baselines.oss_us_per_pair": (ms.oss, pairs, ()),
        "baselines.lcss_us_per_pair": (ms.lcss, pairs, ()),
        "baselines.cvti_us_per_pair": (ms.cvti, pairs, ()),
        "baselines.tiakas_net_us_per_pair": (ms.tiakas_net, equal_pairs, (graph,)),
        "baselines.tiakas_time_us_per_pair": (ms.tiakas_time, equal_pairs, ()),
        "baselines.tiakas_total_us_per_pair": (ms.tiakas_total, equal_pairs, (graph, weights)),
    }
    for name, (fn, sample, extra) in per_pair.items():
        out[name] = _us_per_call([(fn, (a, b, *extra)) for a, b in sample])
    return out, dia
