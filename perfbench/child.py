"""Child processes of the benchmark; run with the package's src on PYTHONPATH.

    child.py cli --spawned-at T --result OUT.json -- color --trace-json PATH FILE
        One traced `color` run in a fresh interpreter.  Standard output is the
        CLI's own; the span summary goes to OUT.json.

    child.py verify --spawned-at T --inputs LIST.json --out-dir DIR
                    --seconds S --trace 0|1 --result OUT.json
        Batches of `color --verify --trace-json` runs over the files in LIST,
        in-process through artemis_color.cli.main, until S seconds have
        passed.  With --trace 1 untraced and traced batches alternate.

T is the parent's time.perf_counter() just before the spawn; on Linux that
clock is system-wide, so the cli.import span covers interpreter start-up.
"""

import sys
import time

import artemis_color.cli  # first, so cli.import covers what a plain run imports

IMPORTED_AT = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import re  # noqa: E402
from pathlib import Path  # noqa: E402

from tracer import Tracer  # noqa: E402

CHECKS_LINE = re.compile(r"^verify: (\d+) oracle checks passed$", re.MULTILINE)


def _traced_cli(args: argparse.Namespace) -> int:
    tracer = Tracer()
    tracer.record("cli.import", args.spawned_at, IMPORTED_AT)
    tracer.install()
    rc = tracer.call("cli.main", artemis_color.cli.main, args.cli_args)
    sys.stdout.flush()
    Path(args.result).write_text(json.dumps(tracer.summary()))
    return rc


def _verify_batch(paths: list[str], out_dir: Path, tracer: Tracer | None,
                  first: list[dict] | None) -> dict:
    """One run per path.  A run whose outputs equal those of the same path in
    ``first`` (the first batch) omits them, so the worker's memory, which its
    peak RSS reports, does not grow with the number of batches."""
    trace_path = out_dir / "trace.json"
    runs = []
    if tracer is not None:
        tracer.reset()
        tracer.install()
    for i, path in enumerate(paths):
        trace_path.unlink(missing_ok=True)
        argv = ["color", "--verify", "--trace-json", str(trace_path), path]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                rc = (artemis_color.cli.main(argv) if tracer is None
                      else tracer.call("cli.main", artemis_color.cli.main, argv))
            except Exception as exc:  # a crash is a failed run, not a dead worker
                rc = -1
                print(f"uncaught {exc!r}", file=err)
            wall = time.perf_counter() - start
        checks = CHECKS_LINE.search(err.getvalue())
        run = {"rc": rc, "wall": wall, "checks": int(checks.group(1)) if checks else 0}
        texts = {"stdout": out.getvalue(),
                 "trace": trace_path.read_text() if trace_path.exists() else ""}
        if first is None or texts != {k: first[i][k] for k in texts}:
            run.update(texts)
        runs.append(run)
    batch = {"traced": tracer is not None, "wall": sum(r["wall"] for r in runs), "runs": runs}
    if tracer is not None:
        tracer.uninstall()
        batch["layers"] = tracer.summary()
        batch["layers"]["counts"]["verify.checks"] = sum(r["checks"] for r in runs)
    return batch


def _verify_worker(args: argparse.Namespace) -> int:
    paths = json.loads(Path(args.inputs).read_text())
    tracer = Tracer() if args.trace else None
    deadline = time.perf_counter() + args.seconds
    batches = []
    first = None
    while True:
        batches.append(_verify_batch(paths, Path(args.out_dir), None, first))
        first = batches[0]["runs"]
        if tracer is not None:
            batches.append(_verify_batch(paths, Path(args.out_dir), tracer, first))
        if time.perf_counter() >= deadline:
            break
    Path(args.result).write_text(json.dumps(
        {"import_s": IMPORTED_AT - args.spawned_at, "batches": batches}))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p_cli = sub.add_parser("cli")
    p_cli.add_argument("--spawned-at", type=float, required=True)
    p_cli.add_argument("--result", required=True)
    p_cli.add_argument("cli_args", nargs=argparse.REMAINDER)
    p_cli.set_defaults(func=_traced_cli)
    p_ver = sub.add_parser("verify")
    p_ver.add_argument("--spawned-at", type=float, required=True)
    p_ver.add_argument("--inputs", required=True)
    p_ver.add_argument("--out-dir", required=True)
    p_ver.add_argument("--seconds", type=float, required=True)
    p_ver.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p_ver.add_argument("--result", required=True)
    p_ver.set_defaults(func=_verify_worker)
    args = parser.parse_args()
    if getattr(args, "cli_args", None) and args.cli_args[0] == "--":
        args.cli_args = args.cli_args[1:]
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
