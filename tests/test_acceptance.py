"""Acceptance suite: every criterion prints one pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The sweep fixture colors
five thousand small instances from the three families with the full oracle
verifier attached and the criteria read off its aggregated counts.
"""

import json
import random
from collections import Counter

import pytest

from artemis_color import (
    OpCounters,
    bipartite,
    chordal,
    chromatic_number_exact,
    cohandle_is_max_interesting,
    color_artemis,
    filtered_random,
    find_generalized_handle,
    is_artemis,
    is_proper,
    max_clique_exact,
    random_graph,
)
from artemis_color.bench import bench
from artemis_color.dimacs import write_dimacs
from artemis_color.generators import generate
from artemis_color.verify import OracleVerifier

PER_FAMILY_PER_SIZE = 240  # 3 families x 7 sizes x 240 = 5040 graphs
SIZES = range(4, 11)
DENSITIES = (0.2, 0.35, 0.5, 0.65, 0.8)


def _report(criterion, passed, detail):
    print(f"criterion {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, detail


@pytest.fixture(scope="module")
def sweep():
    makers = {"chordal": chordal, "bipartite": bipartite,
              "filtered-random": filtered_random}
    checks = Counter()
    failures = []
    graphs = 0
    optimal = 0
    bound_ok = 0
    for n in SIZES:
        for family, maker in makers.items():
            for k in range(PER_FAMILY_PER_SIZE):
                density = DENSITIES[k % len(DENSITIES)]
                g = maker(n, density, n * 10007 + k)
                label = f"{family} n={n} k={k}"
                ok, witness = is_artemis(g)
                if not ok:
                    failures.append(f"{label}: generator left the class: {witness}")
                    continue
                graphs += 1
                verifier = OracleVerifier()
                coloring, trace = color_artemis(g, observer=verifier)
                checks.update(verifier.checks)
                failures.extend(f"{label}: {msg}" for msg in verifier.failures)
                if not is_proper(g, coloring):
                    failures.append(f"{label}: improper coloring")
                if coloring.num_colors == chromatic_number_exact(g) == max_clique_exact(g):
                    optimal += 1
                else:
                    failures.append(f"{label}: {coloring.num_colors} colors is not optimal")
                if len(trace.steps) <= max(0, g.n - 1):
                    bound_ok += 1
                else:
                    failures.append(f"{label}: {len(trace.steps)} contractions")
    return {"graphs": graphs, "optimal": optimal, "bound_ok": bound_ok,
            "checks": checks, "failures": failures}


def test_criterion_1_optimality(sweep):
    relevant = [f for f in sweep["failures"] if "optimal" in f or "improper" in f]
    _report(1, sweep["graphs"] >= 5000 and sweep["optimal"] == sweep["graphs"]
            and not relevant,
            f"{sweep['optimal']}/{sweep['graphs']} colorings match the exact "
            f"chromatic and clique numbers")


def test_criterion_2_even_pair_soundness(sweep):
    checks = sweep["checks"]
    relevant = [f for f in sweep["failures"]
                if "pair_even" in f or "pair_special" in f or "pair_invariance" in f
                or "bottom_pair" in f]
    _report(2, checks["pair_even"] > 0 and not relevant,
            f"{checks['pair_even']} contractions all evenly paired, special, "
            f"and color/clique preserving")


def test_criterion_3_class_preservation(sweep):
    relevant = [f for f in sweep["failures"] if "class_preserved" in f]
    _report(3, sweep["checks"]["class_preserved"] > 0 and not relevant,
            f"{sweep['checks']['class_preserved']} contracted graphs stayed in the class")


def test_criterion_4_structural_outputs(sweep):
    checks = sweep["checks"]
    names = ("interesting_maximal", "interesting_complete", "disjoint_cliques",
             "outer_minimal", "outer_parity", "outer_none")
    relevant = [f for f in sweep["failures"] if any(name in f for name in names)]
    counted = {name: checks[name] for name in names}
    _report(4, all(checks[name] > 0 for name in names) and not relevant,
            f"interesting sets, outer paths and no-path verdicts all verified: {counted}")


def test_criterion_5_handle_bridge(sweep):
    rng = random.Random(8080)
    verified = 0
    samples = 0
    bad = []
    while verified < 1000 and samples < 20000:
        samples += 1
        g = random_graph(rng.randrange(4, 11), rng.choice((0.2, 0.35, 0.5, 0.65)),
                         rng.randrange(10**9))
        found = find_generalized_handle(g)
        if found is None:
            continue
        if cohandle_is_max_interesting(g, found):
            verified += 1
        else:
            bad.append(f"n={g.n} handle={sorted(found.handle)}")
    bridge_checks = sweep["checks"]["handle_bridge_from_interesting"]
    relevant = [f for f in sweep["failures"] if "handle_bridge" in f]
    _report(5, verified >= 1000 and not bad and bridge_checks > 0 and not relevant,
            f"{verified} co-handles were maximal interesting sets of the complement; "
            f"{bridge_checks} interesting sets produced complement handles")


def test_criterion_6_contraction_bound(sweep):
    _report(6, sweep["bound_ok"] == sweep["graphs"],
            f"{sweep['bound_ok']}/{sweep['graphs']} traces stayed within n-1 contractions")


def test_criterion_7_scaling():
    import time

    start = time.perf_counter()
    result = bench("chordal", [50, 100, 200, 400], 42)
    elapsed = time.perf_counter() - start
    total, first = result.total_slope, result.first_call_slope
    _report(7, 0.7 <= total <= 1.3 and 0.8 <= first <= 1.2 and elapsed < 120,
            f"log-log slopes: total ops vs n^2*m = {total:.3f} (want 0.7..1.3), "
            f"first search vs n*m = {first:.3f} (want 0.8..1.2), {elapsed:.1f}s")


def test_criterion_8_determinism(tmp_path):
    import subprocess
    import sys

    source = tmp_path / "instance.col"
    source.write_text(write_dimacs(generate("chordal", 40, 0.5, 99)))
    outputs = []
    for run in (1, 2):
        trace_path = tmp_path / f"trace{run}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "artemis_color.cli", "color",
             "--trace-json", str(trace_path), str(source)],
            capture_output=True, check=True)
        outputs.append((proc.stdout, trace_path.read_bytes()))
    same = outputs[0] == outputs[1]
    payload = json.loads(outputs[0][1])
    _report(8, same and outputs[0][0].startswith(b"s ") and payload["steps"],
            f"two runs produced byte-identical coloring output and trace JSON "
            f"({len(payload['steps'])} contraction steps)")
