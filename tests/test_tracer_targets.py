"""Every function the benchmark tracer wraps still exists under its name.

``perfbench/tracer.py`` patches package attributes by name, so renaming or
deleting one breaks traced benchmark runs; this suite does not run the
benchmark's own tests, so the check lives here.
"""

import importlib.util
import sys
from pathlib import Path

import artemis_color.cli  # noqa: F401  imports every module the tracer patches

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
