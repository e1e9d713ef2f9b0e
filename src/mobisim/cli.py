"""Command-line front end.

Subcommands: dist, matrix, cluster, casestudy, gen. Each returns its full
stdout text, ending in a newline, or "" when it wrote an --out file.
Exit codes: 0 on success, 2 for usage errors (argparse), 3 for data or
precondition errors.
"""

from __future__ import annotations

import argparse
import os
import random
import sys

import numpy as np

from . import casestudy
from .clustering import MEASURE_TABLE, MEASURES, DissimilarityMatrix, build_matrix
from .clustering import kmedoids, pair_failed, resolve_measure
from .errors import DomainError
from .graph import CellGraph, load_graph
from .measures import Weights
from .patterns import MobilityPattern, format_trace, load_trace

# cmd_matrix formats the text in blocks of whole rows holding at most this
# many values, each distinct value of a block once: the block's strings are
# one object array, and a whole n x n one raises the peak memory.
_TEXT_VALUES = 1 << 16


def _inputs(args: argparse.Namespace) -> tuple[dict, CellGraph | None, Weights | None]:
    """(patterns, graph, weights): weights are made first, then --trace and
    --graph are read; graph and weights are None unless the measure reads them."""
    spec = MEASURE_TABLE[args.measure]
    weights = Weights(args.wspace, args.wtime) if spec.reads_weights else None
    patterns = load_trace(args.trace)
    graph = load_graph(args.graph) if args.graph and spec.reads_graph else None
    return patterns, graph, weights


def _emit(text: str, out_path: str | None) -> str:
    """Write to the output file when given, else hand back for stdout."""
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        return ""
    return text


def cmd_dist(args: argparse.Namespace) -> str:
    patterns, graph, weights = _inputs(args)
    for pid in (args.id_a, args.id_b):
        if pid not in patterns:
            raise DomainError(f"pattern id {pid!r} not in trace")
    fn = resolve_measure(args.measure, graph=graph, weights=weights)
    try:
        value = fn(patterns[args.id_a], patterns[args.id_b])
    except DomainError as exc:
        raise pair_failed(args.measure, args.id_a, args.id_b, exc) from exc
    return f"{value:.6f}\n"


def _matrix(args: argparse.Namespace) -> DissimilarityMatrix:
    """The measure's matrix over the --trace file, rows in file order."""
    patterns, graph, weights = _inputs(args)
    return build_matrix(list(patterns.values()), args.measure, graph, weights, list(patterns))


def cmd_matrix(args: argparse.Namespace) -> str:
    m = _matrix(args)
    lines = ["id," + ",".join(m.ids)]
    rows = max(1, _TEXT_VALUES // m.n)
    for start in range(0, m.n, rows):
        block = m.values[start : start + rows]
        # Keyed by bits, not by value, so -0.0 and 0.0 stay apart.
        keys, inverse = np.unique(block.view(np.int64), return_inverse=True)
        # %.6f never writes a comma: one template call formats every key.
        text = ",".join(["%.6f"] * len(keys)) % tuple(keys.view(np.float64).tolist())
        # numpy 1.x returns the inverse flat, 2.x in the block's shape.
        cells = np.array(text.split(","), dtype=object)[inverse.reshape(block.shape)]
        for pid, row in zip(m.ids[start : start + rows], cells.tolist()):
            lines.append(pid + "," + ",".join(row))
    return _emit("\n".join(lines) + "\n", args.out)


def cmd_cluster(args: argparse.Namespace) -> str:
    if MEASURE_TABLE[args.measure].similarity:
        why = "is a similarity; clustering needs a dissimilarity measure"
        raise DomainError(f"measure {args.measure!r} {why}")
    m = _matrix(args)
    ids = m.ids
    result = kmedoids(m, args.k, seed=args.seed)
    rows = "".join(f"{pid},{ids[i]}\n" for pid, i in zip(ids, result.assignment))
    return _emit("pattern_id,medoid_id\n" + rows, args.out) + (
        f"medoids: {','.join(ids[i] for i in result.medoids)}\n"
        f"total cost = {result.total_cost:.6f}\n"
    )


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


MEASURE_OPTIONS = {
    "--measure": dict(choices=MEASURES, default="composite"),
    "--wspace": dict(type=float, default=0.5),
    "--wtime": dict(type=float, default=0.5),
    "--graph": dict(help="cell graph file (tiakas measures)"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mobisim",
        description="Spatial-temporal dissimilarity toolkit for cellular mobility traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, run, options=None, measured=False) -> None:
        """Add subcommand `name` running run(args), one argument per options
        entry; a measured command also takes --trace and MEASURE_OPTIONS."""
        if measured:
            options = {"--trace": dict(required=True), **options, **MEASURE_OPTIONS}
        p = sub.add_parser(name, help=help)
        # Positionals first: usage errors list missing arguments in this order.
        for flag, kwargs in sorted((options or {}).items(), key=lambda o: o[0][0] == "-"):
            p.add_argument(flag, **kwargs)
        p.set_defaults(run=run)

    seed, count = dict(type=int, default=0), dict(type=int, required=True)
    command("dist", "measure one pattern pair", cmd_dist, {"id_a": {}, "id_b": {}}, measured=True)
    command("matrix", "pairwise measure table", cmd_matrix, {"--out": {}}, measured=True)
    command("cluster", "k-medoids over a trace", cmd_cluster,
            {"--k": count, "--seed": seed, "--out": {}}, measured=True)
    command("casestudy", "print the worked example report", lambda _: casestudy.report() + "\n")
    command("gen", "generate random-walk traces", cmd_gen, {
        "--graph": dict(required=True), "--count": count,
        "--min-len": dict(type=int, default=2), "--max-len": dict(type=int, default=8),
        "--seed": seed, "--out": {},
    })
    return parser


# Built by the first main() call, not at import, and reused by later calls:
# building all five subparsers costs about a millisecond per command.
_parser: argparse.ArgumentParser | None = None


def main(argv: list[str] | None = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        out = args.run(args)
    except (DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    if out:
        try:
            # print's newline is a second write, which raises BrokenPipeError
            # on a closed pipe; one large write can fail part way silently.
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
