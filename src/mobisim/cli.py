"""Command-line front end.

Subcommands: dist, matrix, cluster, casestudy, gen. Exit codes: 0 on
success, 2 for usage errors (argparse), 3 for data or precondition errors.
"""

from __future__ import annotations

import argparse
import os
import random
import sys

from . import casestudy
from .clustering import (
    MEASURE_TABLE,
    MEASURES,
    DissimilarityMatrix,
    build_matrix,
    kmedoids,
    resolve_measure,
)
from .errors import DomainError
from .graph import CellGraph, load_graph
from .measures import Weights
from .patterns import MobilityPattern, format_trace, load_trace


def _weights(args: argparse.Namespace) -> Weights | None:
    if MEASURE_TABLE[args.measure].reads_weights:
        return Weights(args.wspace, args.wtime)
    return None


def _graph(args: argparse.Namespace) -> CellGraph | None:
    """The --graph file, read only for the measures that use one."""
    if args.graph and MEASURE_TABLE[args.measure].reads_graph:
        return load_graph(args.graph)
    return None


def _emit(text: str, out_path: str | None) -> str:
    """Write to the output file when given, else hand back for stdout."""
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        return ""
    return text


def cmd_dist(args: argparse.Namespace) -> str:
    weights = _weights(args)
    patterns = load_trace(args.trace)
    for pid in (args.id_a, args.id_b):
        if pid not in patterns:
            raise DomainError(f"pattern id {pid!r} not in trace")
    fn = resolve_measure(args.measure, graph=_graph(args), weights=weights)
    return f"{fn(patterns[args.id_a], patterns[args.id_b]):.6f}"


def _matrix(args: argparse.Namespace) -> DissimilarityMatrix:
    """The measure's matrix over the --trace file, rows in file order."""
    weights = _weights(args)
    patterns = load_trace(args.trace)
    return build_matrix(
        list(patterns.values()),
        args.measure,
        graph=_graph(args),
        weights=weights,
        ids=list(patterns),
    )


def cmd_matrix(args: argparse.Namespace) -> str:
    m = _matrix(args)
    lines = ["id," + ",".join(m.ids)]
    # One %-template per row gives the same bytes as f"{v:.6f}" per value,
    # with one format call per row instead of one per value.
    template = ",".join(["%.6f"] * m.n)
    for pid, row in zip(m.ids, m.values.tolist()):
        lines.append(pid + "," + template % tuple(row))
    return _emit("\n".join(lines) + "\n", args.out)


def cmd_cluster(args: argparse.Namespace) -> str:
    if MEASURE_TABLE[args.measure].similarity:
        raise DomainError(
            f"measure {args.measure!r} is a similarity; "
            "clustering needs a dissimilarity measure"
        )
    m = _matrix(args)
    ids = m.ids
    result = kmedoids(m, args.k, seed=args.seed)
    lines = ["pattern_id,medoid_id"]
    for i, pid in enumerate(ids):
        lines.append(f"{pid},{ids[result.assignment[i]]}")
    table = "\n".join(lines) + "\n"
    written = _emit(table, args.out)
    summary = (
        f"medoids: {','.join(ids[i] for i in result.medoids)}\n"
        f"total cost = {result.total_cost:.6f}"
    )
    return summary if not written else written.rstrip("\n") + "\n" + summary


def cmd_gen(args: argparse.Namespace) -> str:
    count, min_len, max_len = args.count, args.min_len, args.max_len
    if count < 0:
        raise DomainError(f"count must be non-negative, got {count}")
    if not 1 <= min_len <= max_len:
        raise DomainError(f"need 1 <= min-len <= max-len, got {min_len}..{max_len}")
    graph = load_graph(args.graph)
    rng = random.Random(args.seed)
    # Ids sort in file order only at a fixed width, so widen past p9999.
    width = max(4, len(str(count - 1)))
    patterns: dict[str, MobilityPattern] = {}
    for i in range(count):
        length = rng.randint(min_len, max_len)
        slots = sorted(rng.randint(1, 11) for _ in range(length))
        cell = rng.randrange(graph.vertex_count)
        pairs = [(cell, slots[0])]
        for slot in slots[1:]:
            cell = rng.choice((cell, *graph.neighbors(cell)))
            pairs.append((cell, slot))
        patterns[f"p{i:0{width}d}"] = MobilityPattern(pairs)
    return _emit(format_trace(patterns), args.out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mobisim",
        description="Spatial-temporal dissimilarity toolkit for cellular mobility traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_measure_opts(p: argparse.ArgumentParser) -> None:
        p.add_argument("--measure", choices=MEASURES, default="composite")
        p.add_argument("--wspace", type=float, default=0.5)
        p.add_argument("--wtime", type=float, default=0.5)
        p.add_argument("--graph", help="cell graph file (tiakas measures)")

    p_dist = sub.add_parser("dist", help="measure one pattern pair")
    p_dist.add_argument("id_a")
    p_dist.add_argument("id_b")
    p_dist.add_argument("--trace", required=True)
    add_measure_opts(p_dist)
    p_dist.set_defaults(run=cmd_dist)

    p_matrix = sub.add_parser("matrix", help="pairwise measure table")
    p_matrix.add_argument("--trace", required=True)
    p_matrix.add_argument("--out")
    add_measure_opts(p_matrix)
    p_matrix.set_defaults(run=cmd_matrix)

    p_cluster = sub.add_parser("cluster", help="k-medoids over a trace")
    p_cluster.add_argument("--trace", required=True)
    p_cluster.add_argument("--k", type=int, required=True)
    p_cluster.add_argument("--seed", type=int, default=0)
    p_cluster.add_argument("--out")
    add_measure_opts(p_cluster)
    p_cluster.set_defaults(run=cmd_cluster)

    p_case = sub.add_parser("casestudy", help="print the worked example report")
    p_case.set_defaults(run=lambda args: casestudy.report())

    p_gen = sub.add_parser("gen", help="generate random-walk traces")
    p_gen.add_argument("--graph", required=True)
    p_gen.add_argument("--count", type=int, required=True)
    p_gen.add_argument("--min-len", type=int, default=2, dest="min_len")
    p_gen.add_argument("--max-len", type=int, default=8, dest="max_len")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out")
    p_gen.set_defaults(run=cmd_gen)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        out = args.run(args)
    except (DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    if out:
        try:
            # Text that already ends in a newline (matrix, gen) goes out as it
            # is, so stdout holds the same bytes as an --out file. print's
            # own newline is a second write, which raises BrokenPipeError on
            # a closed pipe; a single large write can fail part way silently.
            print(out.removesuffix("\n"))
            sys.stdout.flush()
        except BrokenPipeError:
            # The reader closed the pipe early (`mobisim matrix ... | head`).
            # Send stdout to devnull so the flush at exit cannot raise again.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            return 1
    return 0


def run() -> None:
    raise SystemExit(main(sys.argv[1:]))
