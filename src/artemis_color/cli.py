"""Batch front door: color, detect, generate and bench subcommands.

Each subcommand does its work and lets errors propagate; ``main`` alone turns
a failure into a message and an exit code: 0 success, 1 the input could not be
colored as an Artemis graph (or verification failed), 2 unreadable or
unparsable input, an unwritable trace file or standard output, or generator
and bench arguments that are refused (a density outside [0, 1], malformed or
refused sizes, an edgeless instance or a constant n^2*m or n*m in a fit),
3 oracle-budget refusal.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .bench import bench, run_instance
from .dimacs import DimacsError, parse_dimacs, write_coloring, write_dimacs
from .engine import ColoringError, NotArtemisError
from .generators import FAMILIES, generate
from .graphs import ContractionTrace, Graph, GraphError
from .oracles import MAX_SUBSET_N, BudgetExceeded, find_antihole, find_odd_hole, find_prism
from .verify import OracleVerifier

EXIT_OK = 0
EXIT_NOT_ARTEMIS = 1
EXIT_PARSE = 2
EXIT_BUDGET = 3


def _read_graph(path: str) -> Graph:
    raw = sys.stdin.buffer.read() if path == "-" else Path(path).read_bytes()
    try:
        text = raw.decode("utf-8-sig")  # a leading byte-order mark is not text
    except UnicodeDecodeError as exc:
        raise DimacsError(f"input is not UTF-8 text: {exc}") from exc
    return parse_dimacs(text, on_warning=lambda msg: print(f"warning: {msg}", file=sys.stderr))


def residue_cliques(trace: ContractionTrace) -> list[list[int]]:
    """The engine's residue as the sorted clique lists of the trace JSON,
    ordered by smallest member."""
    return [sorted(part) for part in trace.residue]


def _trace_json(trace: ContractionTrace, chain_depths: tuple[int, ...]) -> str:
    steps = [
        {"a": step.a, "b": step.b, "merged": step.merged, "chain_depth": depth}
        for step, depth in zip(trace.steps, chain_depths)
    ]
    payload = {"original_n": trace.original_n, "steps": steps,
               "residue_cliques": residue_cliques(trace)}
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def _cmd_color(args: argparse.Namespace) -> int:
    g = _read_graph(args.file)
    verifier = None
    if args.verify:
        if g.n <= MAX_SUBSET_N:
            verifier = OracleVerifier()
        else:
            print(f"note: n={g.n} exceeds the oracle budget of "
                  f"{MAX_SUBSET_N}; verifying properness and residue "
                  f"consistency only", file=sys.stderr)
    report, coloring, trace = run_instance(g, observer=verifier)
    if verifier is not None:
        for failure in verifier.failures:
            print(f"verify: {failure}", file=sys.stderr)
        if not verifier.ok:
            return EXIT_NOT_ARTEMIS
        print(f"verify: {sum(verifier.checks.values())} oracle checks passed",
              file=sys.stderr)
    if args.trace_json:
        try:
            Path(args.trace_json).write_text(_trace_json(trace, report.chain_depths))
        except OSError as exc:
            raise OSError(f"cannot write trace: {exc}") from exc
    sys.stdout.write(write_coloring(coloring))
    return EXIT_OK


def _cmd_detect(args: argparse.Namespace) -> int:
    g = _read_graph(args.file)
    found = [find_odd_hole(g), find_antihole(g), find_prism(g)]
    for name, witness in zip(("odd-hole", "antihole", "prism"), found):
        if witness is None:
            print(f"{name}: none")
        else:
            print(f"{name}: {' '.join(str(v + 1) for v in witness.vertices)}")
    print(f"artemis: {'yes' if all(w is None for w in found) else 'no'}")
    return EXIT_OK


def _cmd_generate(args: argparse.Namespace) -> int:
    g = generate(args.family, args.n, args.density, args.seed)
    comment = (f"family={args.family} n={args.n} density={args.density} "
               f"seed={args.seed}")
    sys.stdout.write(write_dimacs(g, comments=[comment]))
    return EXIT_OK


def _cmd_bench(args: argparse.Namespace) -> int:
    try:
        sizes = sorted(int(s) for s in args.sizes.split(","))
    except ValueError as exc:
        raise GraphError(f"--sizes needs comma-separated integers, got {args.sizes!r}") from exc
    print(bench(args.family, sizes, args.seed).table())
    return EXIT_OK


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args keeps no state
    in it, and a caller that runs main many times in one process pays for the
    tree of subparsers once."""
    parser = argparse.ArgumentParser(
        prog="artemis-color",
        description="Optimal coloring of Artemis graphs by even-pair contraction.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_color = sub.add_parser("color", help="color a DIMACS graph optimally")
    p_color.add_argument("file", metavar="FILE", help="DIMACS .col file, or - for stdin")
    p_color.add_argument("--verify", action="store_true",
                         help="cross-check the run with the brute-force oracles "
                              "(full checks only within the oracle budget)")
    p_color.add_argument("--trace-json", metavar="PATH", default=None,
                         help="write the contraction trace as JSON")
    p_color.set_defaults(func=_cmd_color)

    p_detect = sub.add_parser("detect", help="run the three structure detectors")
    p_detect.add_argument("file", metavar="FILE", help="DIMACS .col file, or - for stdin")
    p_detect.set_defaults(func=_cmd_detect)

    p_gen = sub.add_parser("generate", help="emit a test instance as DIMACS")
    p_gen.add_argument("--family", required=True,
                       choices=tuple(FAMILIES))
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--density", type=float, required=True)
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.set_defaults(func=_cmd_generate)

    p_bench = sub.add_parser("bench", help="operation-count scaling across sizes")
    p_bench.add_argument("--family", required=True,
                         choices=tuple(FAMILIES))
    p_bench.add_argument("--sizes", required=True,
                         help="comma-separated instance sizes, e.g. 50,100,200,400")
    p_bench.add_argument("--seed", type=int, required=True)
    p_bench.set_defaults(func=_cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (NotArtemisError, ColoringError) as exc:
        code, message = EXIT_NOT_ARTEMIS, f"input is not colorable as an Artemis graph: {exc}"
    except BudgetExceeded as exc:
        code, message = EXIT_BUDGET, str(exc)
    except (DimacsError, OSError, GraphError) as exc:
        code, message = EXIT_PARSE, str(exc)
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
