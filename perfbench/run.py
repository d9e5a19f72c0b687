#!/usr/bin/env python3
"""Benchmark of `artemis-color color`, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload chordal-dense --seed 1 --seconds 25 --trace 0

Workloads: chordal-dense, bipartite-sparse, verify-small (see workloads.py
and README.md).  --trace 0 times untraced runs and reports the end-to-end
metrics; --trace 1 pairs every untraced run with a traced one and reports
the per-layer metrics.  Every output is checked.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; per-instance digests go to perfbench/work/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

# Standard library only in this process; see workloads.py.
from checks import check_run, sha256
from tracer import SPAN_NAMES
from workloads import WORKLOADS, Instance

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 150.0

END_TO_END_UNITS = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


@dataclass
class Attempt:
    """One `color` run of one pool instance and what it printed."""

    index: int
    rc: int
    stdout: str
    trace: str
    problems: list[str] = field(default_factory=list)


@dataclass
class Batch:
    """One run of the workload: one instance for the CLI workloads, the whole
    pool for verify-small.  ``layers`` is the span summary of a traced batch."""

    traced: bool
    wall: float
    layers: dict | None = None


@dataclass
class Measurement:
    attempts: list[Attempt] = field(default_factory=list)
    batches: list[Batch] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    import_s: float | None = None  # verify worker start-up, paid once outside the batches


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def spawn(argv: list[str], stdout: Path, stderr: Path, *, stamp: bool = False,
          ) -> tuple[float, float, int]:
    """Run a child to completion: (wall seconds, peak RSS in MB, exit code).

    The rusage comes from this child alone (os.wait4), not from the maximum
    over every child ever run.  ``stamp`` passes the spawn time to the
    child for its cli.import span.
    """
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        if stamp:  # after the child's mode argument
            argv = argv[:3] + ["--spawned-at", repr(start)] + argv[3:]
        proc = subprocess.Popen(argv, cwd=ROOT, env=_child_env(), stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def _read(path: Path) -> str:
    return path.read_text() if path.exists() else ""


def measure_cli(paths: list[Path], seconds: float, trace: bool, out: Path) -> Measurement:
    """One `python -m artemis_color.cli color` subprocess per instance, one at a
    time, cycling through the pool until ``seconds`` have passed."""
    result = Measurement()
    trace_path, spans_path = out / "trace.json", out / "spans.json"
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        index = i % len(paths)
        for traced in ((False, True) if trace else (False,)):
            trace_path.unlink(missing_ok=True)
            spans_path.unlink(missing_ok=True)
            color = ["color", "--trace-json", str(trace_path), str(paths[index])]
            if traced:
                argv = [sys.executable, str(HERE / "child.py"), "cli",
                        "--result", str(spans_path), "--"] + color
            else:
                argv = [sys.executable, "-m", "artemis_color.cli"] + color
            wall, rss, rc = spawn(argv, out / "stdout", out / "stderr", stamp=traced)
            result.peak_rss_mb = max(result.peak_rss_mb, rss)
            layers = json.loads(spans_path.read_text()) if spans_path.exists() else None
            result.batches.append(Batch(traced, wall, layers))
            result.attempts.append(Attempt(index, rc, _read(out / "stdout"),
                                           _read(trace_path)))
        i += 1
        if time.perf_counter() >= deadline:
            return result


def measure_verify(paths: list[Path], seconds: float, trace: bool, out: Path) -> Measurement:
    """One worker runs `color --verify` in-process over the pool, batch after batch."""
    inputs, spans_path = out / "inputs.json", out / "worker.json"
    inputs.write_text(json.dumps([str(p) for p in paths]))
    argv = [sys.executable, str(HERE / "child.py"), "verify", "--inputs", str(inputs),
            "--out-dir", str(out), "--seconds", str(seconds), "--trace", str(int(trace)),
            "--result", str(spans_path)]
    _, rss, rc = spawn(argv, out / "stdout", out / "stderr", stamp=True)
    if rc != 0:
        raise RuntimeError(f"verify worker exited {rc}: {_read(out / 'stderr')[-2000:]}")
    report = json.loads(spans_path.read_text())
    result = Measurement(peak_rss_mb=rss, import_s=report["import_s"])
    first = report["batches"][0]["runs"]  # later runs omit outputs equal to these
    for batch in report["batches"]:
        result.batches.append(Batch(batch["traced"], batch["wall"], batch.get("layers")))
        for index, run in enumerate(batch["runs"]):
            result.attempts.append(Attempt(index, run["rc"],
                                           run.get("stdout", first[index]["stdout"]),
                                           run.get("trace", first[index]["trace"])))
    return result


def code_digest() -> str:
    """Identity of the program under test: its source files, not the git commit."""
    h = hashlib.sha256()
    for path in sorted((SRC / "artemis_color").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def check_attempts(attempts: list[Attempt], instances: list[Instance],
                   store: Path) -> dict[str, dict]:
    """Check every output and its digests; return the per-instance records.

    A run whose stdout or trace digest differs from the first run of the same
    instance, in this run or in an earlier run of the same code and seed
    (kept in ``store``), counts as failed.
    """
    known = json.loads(store.read_text()) if store.exists() else {}
    records: dict[str, dict] = {}
    for a in attempts:
        inst = instances[a.index]
        a.problems = check_run(inst.n, inst.edges, inst.omega, a.rc, a.stdout, a.trace)
        digests = {"input_sha256": inst.input_sha256, "stdout_sha256": sha256(a.stdout),
                   "trace_sha256": sha256(a.trace)}
        first = known.setdefault(inst.id, digests)
        if first != digests:
            a.problems.append("output digest differs from an earlier run of the same code")
        rec = records.setdefault(inst.id, {"n": inst.n, "m": inst.m, **first,
                                           "attempts": 0, "failed": 0, "problems": []})
        rec["attempts"] += 1
        if a.problems:
            rec["failed"] += 1
            rec["problems"] += [p for p in a.problems if p not in rec["problems"]]
    store.parent.mkdir(parents=True, exist_ok=True)
    store.write_text(json.dumps(known, indent=1, sort_keys=True))
    return records


def end_to_end_metrics(m: Measurement, setup_times: list[float]) -> dict[str, float]:
    walls = [b.wall for b in m.batches if not b.traced]
    return {"wall_s": statistics.median(walls), "peak_rss_mb": m.peak_rss_mb,
            "setup_s": statistics.median(setup_times)}


def per_layer_metrics(m: Measurement) -> tuple[dict[str, float], list[str]]:
    """Means per traced batch, and the self-time metrics that make up a batch.

    Ratios are taken over the totals of all traced batches.
    """
    traced = [b for b in m.batches if b.traced and b.layers is not None]
    if not traced:
        raise RuntimeError("no traced run produced a span summary")
    count = len(traced)
    self_s, calls, counts = Counter(), Counter(), Counter()
    for b in traced:
        self_s.update(b.layers["self"])
        calls.update(b.layers["calls"])
        counts.update(b.layers["counts"])
    metrics = {f"{name}_s": self_s[name] / count for name in SPAN_NAMES}
    in_batch = list(metrics)
    if m.import_s is not None:  # the verify worker imports once, outside its batches
        metrics["cli.import_s"] = m.import_s
        in_batch.remove("cli.import_s")
    trace_wall = statistics.fmean(b.wall for b in traced)
    searches = counts["engine.searches"]
    contractions = counts["engine.contractions"]
    even_pairs = calls["engine.even_pair"]
    outer_calls = calls["engine.outer_path"]
    metrics.update({
        "engine.interesting_ops": counts["engine.interesting_ops"] / count,
        "engine.outer_ops": counts["engine.outer_ops"] / count,
        "engine.even_pair_ops": counts["engine.even_pair_ops"] / count,
        "engine.even_pair_calls": even_pairs / count,
        "engine.pair_search_calls": calls["engine.pair_search"] / count,
        "engine.contractions": contractions / count,
        "engine.levels_per_search": counts["engine.search_levels"] / searches
        if searches else 0.0,
        "engine.bottom_pair_share": (contractions - even_pairs) / contractions
        if contractions else 0.0,
        "engine.outer_path_hit_ratio": counts["engine.outer_path_hits"] / outer_calls
        if outer_calls else 0.0,
        "graphs.graph_builds": calls["graphs.graph_build"] / count,
        "verify.checks": counts["verify.checks"] / count,
        "trace.wall_s": trace_wall,
        "trace.unattributed_s": trace_wall - sum(metrics[name] for name in in_batch),
        "trace.overhead_s": trace_wall - statistics.fmean(
            b.wall for b in m.batches if not b.traced),
    })
    return metrics, in_batch


def shape_checks(workload, metrics: dict[str, float]) -> list[tuple[str, bool]]:
    """What the workload must exercise; a generator change that alters it shows here."""
    checks = []
    if workload.expects_even_pairs is not None:
        want = "> 0" if workload.expects_even_pairs else "== 0"
        got = metrics["engine.even_pair_calls"] > 0
        checks.append((f"engine.even_pair_calls {want}", got == workload.expects_even_pairs))
    want = "> 0" if workload.verify else "== 0"
    checks.append((f"verify.checks {want}", (metrics["verify.checks"] > 0) == workload.verify))
    return checks


def set_up(workload, seed: int, inputs: Path, out: Path) -> Path:
    """Generate the pool in a child, SETUP_REPEATS times; return its report.

    The child also fills the bytecode cache, as an installed package has it.
    """
    report = out / "setup.json"
    argv = [sys.executable, str(HERE / "inputs.py"), "--shapes", json.dumps(workload.shapes),
            "--seed", str(seed), "--dest", str(inputs), "--repeats", str(SETUP_REPEATS),
            "--result", str(report)] + (["--verify"] if workload.verify else [])
    _, _, rc = spawn(argv, out / "stdout", out / "stderr")
    if rc != 0:
        raise RuntimeError(f"set-up failed: {_read(out / 'stderr')[-2000:]}")
    return report


def run(workload, seed: int, seconds: float, trace: bool, work: Path = WORK) -> dict:
    """Set up, measure and check one run; return the printable result."""
    run_dir = work / f"{workload.name}-s{seed}-t{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    out = run_dir / "out"
    out.mkdir(parents=True)
    setup_report = set_up(workload, seed, run_dir / "inputs", out)
    paths = [Path(p) for p in sorted((run_dir / "inputs").glob("*.col"))]

    measure = measure_verify if workload.verify else measure_cli
    m = measure(paths, seconds, trace, out)

    # Only now load the edge lists, so the parent stays small while it spawns.
    setup = json.loads(setup_report.read_text())
    setup_times = setup["setup_times"]
    instances = [Instance(**dict(inst, edges=tuple(map(tuple, inst["edges"]))))
                 for inst in setup["instances"]]
    code = code_digest()
    records = check_attempts(m.attempts, instances,
                             work / "digests" / code / f"{workload.name}-s{seed}.json")
    failed = sum(1 for a in m.attempts if a.problems)
    e2e = end_to_end_metrics(m, setup_times)
    layers, in_batch = per_layer_metrics(m) if trace else ({}, [])
    result = {
        "workload": workload.name, "seed": seed, "trace": int(trace), "code": code,
        "attempted": len(m.attempts), "failed": failed,
        "failed_frac": failed / len(m.attempts),
        "walls": [b.wall for b in m.batches if not b.traced],
        "end_to_end": e2e, "per_layer": layers, "decomposition": in_batch,
        "shape_checks": shape_checks(workload, layers) if trace else [],
        "instances": records,
    }
    results = work / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload.name}-s{seed}-t{int(trace)}.json").write_text(
        json.dumps(result, indent=1, sort_keys=True))
    shutil.rmtree(run_dir, ignore_errors=True)
    return result


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name == "engine.levels_per_search":
        return "levels"
    if name.endswith(("_share", "_ratio")):
        return "ratio"
    return "count"


def report(result: dict) -> dict:
    """Print the readable report and return the final JSON object."""
    print(f"workload {result['workload']} seed {result['seed']} trace {result['trace']} "
          f"code {result['code']}")
    print(f"  {'attempted':<28} {result['attempted']}")
    print(f"  {'failed':<28} {result['failed']}")
    print(f"  {'failed_frac':<28} {result['failed_frac']:.6g} ratio")
    for inst_id, rec in result["instances"].items():
        for problem in rec["problems"]:
            print(f"  FAILED {inst_id}: {problem}")
    if result["trace"]:
        metrics = {name: (value, per_layer_unit(name))
                   for name, value in result["per_layer"].items()}
    else:
        metrics = {name: (value, END_TO_END_UNITS[name])
                   for name, value in result["end_to_end"].items()}
        print(f"  (wall_s is the median over {len(result['walls'])} untraced runs)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28} {value:.6g} {unit}")
    if result["trace"]:
        layer, parts = result["per_layer"], result["decomposition"]
        print(f"  decomposition: sum of {len(parts)} self times "
              f"{sum(layer[p] for p in parts):.6g} s + trace.unattributed_s "
              f"{layer['trace.unattributed_s']:.6g} s = trace.wall_s {layer['trace.wall_s']:.6g} s")
        for label, ok in result["shape_checks"]:
            print(f"  shape check {label}: {'ok' if ok else 'FLAGGED'}")
    return {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of artemis-color color.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (SRC / "artemis_color" / "cli.py").is_file():
        print(f"error: the benchmark needs the artemis_color sources under {SRC}",
              file=sys.stderr)
        return 2
    # Turn SIGTERM into SystemExit, so spawn() still kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(report(result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
