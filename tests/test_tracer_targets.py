"""Every function the benchmark tracer wraps still exists under its name,
and a traced run still yields the tracer's counts.

``perfbench/tracer.py`` patches package attributes by name and reads fields
of their results, so renaming or deleting one breaks traced benchmark runs;
this suite does not run the benchmark's own tests, so the checks live here.
"""

import importlib.util
import json
import sys
from pathlib import Path

import artemis_color.cli  # imports every module the tracer patches
from artemis_color import bipartite, generate, write_dimacs

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ untouched
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve(monkeypatch):
    tracer = _load_tracer(monkeypatch)
    missing = [f"{path}.{attr}" for path, attr, _ in tracer.TARGETS
               if not callable(getattr(tracer._resolve(path), attr, None))]
    assert tracer.TARGETS and not missing, f"tracer targets that no longer resolve: {missing}"


def test_traced_cli_run_counts_contractions_and_outer_paths(monkeypatch, tmp_path):
    tracer_module = _load_tracer(monkeypatch)
    graph_file, trace_file = tmp_path / "g.col", tmp_path / "trace.json"
    graph_file.write_text(write_dimacs(bipartite(80, 0.1, 3)))
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        code = artemis_color.cli.main(["color", str(graph_file), "--trace-json", str(trace_file)])
    finally:
        tracer.uninstall()
    counts = tracer.summary()["counts"]
    assert code == 0
    assert counts["engine.contractions"] == len(json.loads(trace_file.read_text())["steps"])
    assert counts["engine.outer_path_hits"] > 0


def test_traced_verify_run_attributes_class_scans(monkeypatch, tmp_path):
    # The verifier scans every contracted graph for class membership through
    # verify.is_artemis; the tracer's oracles.is_artemis span reads it there.
    tracer_module = _load_tracer(monkeypatch)
    graph_file, trace_file = tmp_path / "g.col", tmp_path / "trace.json"
    graph_file.write_text(write_dimacs(generate("filtered-random", 12, 0.5, 1)))
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        code = artemis_color.cli.main(["color", str(graph_file), "--verify",
                                       "--trace-json", str(trace_file)])
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    steps = len(json.loads(trace_file.read_text())["steps"])
    assert code == 0 and steps > 0
    assert summary["calls"].get("oracles.is_artemis", 0) == steps
    assert summary["self"]["oracles.is_artemis"] > 0
