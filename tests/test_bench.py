import networkx as nx

from artemis_color import OracleVerifier, chordal, components
from artemis_color.bench import bench, fit_loglog_slope, run_instance

from conftest import from_nx, to_nx


def test_counters_monotone_in_size():
    result = bench("chordal", [16, 32, 64], 13)
    totals = [r.total_ops for r in result.reports]
    assert totals == sorted(totals) and totals[0] > 0
    firsts = [r.first_call_ops for r in result.reports]
    assert firsts == sorted(firsts)


def test_single_size_has_no_slope():
    result = bench("chordal", [24], 5)
    assert result.total_slope is None and result.first_call_slope is None
    assert len(result.reports) == 1


def test_run_instance_report_fields():
    g = chordal(10, 0.5, 21)
    verifier = OracleVerifier()
    report, coloring, trace = run_instance(g, "probe", observer=verifier)
    assert report.n == 10 and report.m == g.m
    assert report.num_colors == coloring.num_colors
    assert report.contractions == len(trace.steps) <= 9
    assert report.total_ops == (report.interesting_ops + report.outer_ops
                                + report.even_pair_ops) > 0
    assert verifier.ok and verifier.checks
    assert len(report.chain_depths) == report.contractions + 1


def test_residue_cliques_partition_contracted_graph():
    g = chordal(12, 0.4, 3)
    _, coloring, trace = run_instance(g, "probe")
    final = g
    for step in trace.steps:  # replay with networkx as the reference
        lo, hi = sorted((step.a, step.b))
        final = from_nx(nx.contracted_nodes(to_nx(final), lo, hi, self_loops=False))
    assert list(trace.residue) == [frozenset(part) for part in components(final)]
    assert coloring.num_colors == max(len(p) for p in trace.residue)


def test_fit_loglog_slope_recovers_exact_power_law():
    xs = [3.0, 10.0, 41.0, 250.0, 1999.0]
    assert abs(fit_loglog_slope(xs, [0.37 * x ** 2.6 for x in xs]) - 2.6) < 1e-9
