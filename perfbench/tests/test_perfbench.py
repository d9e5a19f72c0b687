"""Tests of the benchmark itself.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
from workloads import WORKLOADS, Instance  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
WORK = run.WORK / "tests"

TINY_SHAPES = {
    "chordal-dense": (("chordal", 14, 0.5),) * 2,
    "bipartite-sparse": (("bipartite", 24, 0.15),) * 2,
    "verify-small": (("chordal", 7, 0.5), ("bipartite", 7, 0.4), ("filtered-random", 7, 0.5)),
}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_reports_every_metric(name, trace):
    workload = dataclasses.replace(WORKLOADS[name], shapes=TINY_SHAPES[name])
    result = run.run(workload, seed=3, seconds=0.2, trace=bool(trace), work=WORK)
    final = run.report(result)
    wanted = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    assert sorted(final["metrics"]) == sorted(wanted)
    assert result["failed_frac"] == 0
    assert final["correct"] and final["failed"] == 0 and final["attempted"] >= 1
    if trace:
        layer = result["per_layer"]
        parts = sum(layer[p] for p in result["decomposition"])
        assert parts + layer["trace.unattributed_s"] == pytest.approx(layer["trace.wall_s"])


def _triangle_with_pendant() -> Instance:
    # Triangle 1-2-3 plus vertex 4 hanging off 3: the clique number is 3.
    return Instance(id="triangle-pendant", path="unused.col", n=4,
                    edges=((0, 1), (0, 2), (1, 2), (2, 3)), omega=3,
                    input_sha256="0" * 64)


# Vertex 4 merged into vertex 1 leaves the triangle as the only residue clique.
TRACE = json.dumps({"original_n": 4,
                    "steps": [{"a": 0, "b": 3, "merged": 0, "chain_depth": 1}],
                    "residue_cliques": [[0, 1, 2]]})


def test_checker_accepts_an_optimal_coloring():
    inst = _triangle_with_pendant()
    stdout = "s 3\nv 1 1\nv 2 2\nv 3 3\nv 4 1\n"
    assert run.check_run(inst.n, inst.edges, inst.omega, 0, stdout, TRACE) == []


def test_checker_counts_improper_and_oversized_colorings_as_failures():
    inst = _triangle_with_pendant()
    improper = "s 3\nv 1 1\nv 2 2\nv 3 3\nv 4 3\n"
    too_many = "s 4\nv 1 1\nv 2 2\nv 3 3\nv 4 4\n"
    attempts = [run.Attempt(0, 0, improper, TRACE), run.Attempt(0, 0, too_many, TRACE)]
    store = WORK / "negative-digests.json"
    store.unlink(missing_ok=True)
    records = run.check_attempts(attempts, [inst], store)
    assert records[inst.id]["failed"] == 2
    assert all(a.problems for a in attempts)
    assert any("edges join equal colors" in p for p in attempts[0].problems)
    assert any("clique number is 3" in p for p in attempts[1].problems)
