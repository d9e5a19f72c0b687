"""The verifier's check counts and failure lines, pinned on inputs outside
the class, and its messages in the input's vertex ids."""

from collections import Counter

import pytest

from artemis_color import (BudgetExceeded, DisjointCliques, Graph, MaximalInteresting,
                           OracleVerifier, OuterPath, chordal, color_artemis, random_graph)
from artemis_color.engine import WorkingGraph


def test_disjoint_cliques_failure_names_input_ids():
    # The level {3, 4, 5, 6} is the two edges 3-4 and 5-6; the claimed
    # partition pairs the vertices the other way.
    g = Graph(7, [(3, 4), (5, 6), (0, 1), (0, 3), (0, 4), (0, 5), (0, 6)])
    verifier = OracleVerifier()
    claimed = DisjointCliques((frozenset({3, 5}), frozenset({4, 6})))
    verifier.interesting(WorkingGraph(g), frozenset({3, 4, 5, 6}), claimed)
    assert verifier.failures == [
        "disjoint_cliques: partition [[3, 5], [4, 6]] is not the clique components of the level"]
    right = DisjointCliques((frozenset({5, 6}), frozenset({3, 4})))
    verifier.interesting(WorkingGraph(g), frozenset({3, 4, 5, 6}), right)
    assert verifier.checks["disjoint_cliques"] == 2 and len(verifier.failures) == 1


def test_verifier_checks_the_empty_graph():
    verifier = OracleVerifier()
    color_artemis(Graph(0, []), observer=verifier)
    assert verifier.checks == {"disjoint_cliques": 1} and verifier.ok


def test_verifier_refuses_runs_past_the_oracle_budget():
    # Refused at the first hook, before any check; a run at the budget keeps
    # its checks.
    verifier = OracleVerifier()
    with pytest.raises(BudgetExceeded, match="oracle verifier: size 13 exceeds the budget of 12"):
        color_artemis(chordal(13, 0.4, 1), observer=verifier)
    assert not verifier.checks and verifier.ok
    color_artemis(chordal(12, 0.4, 1), observer=verifier)
    assert verifier.checks == {
        "interesting_maximal": 14, "interesting_complete": 14,
        "handle_bridge_from_interesting": 14, "outer_none": 14, "disjoint_cliques": 8,
        "bottom_pair_special": 7, "pair_even": 7, "pair_special": 7, "pair_invariance": 7,
        "class_preserved": 7}
    assert verifier.ok


def _verify(n, density, seed):
    verifier = OracleVerifier()
    color_artemis(random_graph(n, density, seed), observer=verifier)
    return verifier


def test_verifier_checks_and_failures_outside_the_class_are_pinned():
    total, failed = Counter(), Counter()
    for n in range(6, 11):
        for density in (0.3, 0.5, 0.7):
            for seed in range(4):
                verifier = _verify(n, density, 100 * n + seed)
                total += verifier.checks
                failed += Counter(line.split(":")[0] for line in verifier.failures)
    assert total == {
        "bottom_pair_special": 223, "class_preserved": 237, "disjoint_cliques": 283,
        "handle_bridge_from_interesting": 462, "interesting_complete": 462,
        "interesting_maximal": 462, "outer_minimal": 14, "outer_none": 448,
        "outer_parity": 14, "pair_even": 237, "pair_invariance": 237, "pair_special": 237}
    assert failed == {"class_preserved": 10, "outer_minimal": 14, "outer_parity": 14,
                      "pair_even": 14, "pair_invariance": 6, "pair_special": 14}
    assert _verify(8, 0.5, 803).failures == [
        "outer_parity: outer path (5, 7, 3, 0) has odd or short length 3",
        "outer_minimal: path (5, 7, 3, 0) is not a minimal T-outer path",
        "pair_even: contracted pair (5, 0) is not an even pair",
        "pair_special: contracted pair (5, 0) is not special",
        "pair_invariance: contracting (5, 0) changed the color or clique number"]
    assert _verify(9, 0.7, 900).failures == [
        "class_preserved: contracting (6, 8) left the class: "
        "StructureWitness(kind='odd_hole', vertices=(0, 4, 3, 1, 7))",
        "outer_parity: outer path (0, 7, 1, 3) has odd or short length 3",
        "outer_minimal: path (0, 7, 1, 3) is not a minimal T-outer path",
        "pair_even: contracted pair (0, 3) is not an even pair",
        "pair_special: contracted pair (0, 3) is not special"]
    assert _verify(10, 0.3, 1003).failures == [
        "class_preserved: contracting (0, 9) left the class: "
        "StructureWitness(kind='odd_hole', vertices=(0, 1, 3, 4, 5))"]


def test_malformed_structures_fail_their_checks_instead_of_raising():
    # Each oracle below rejects its input with GraphError; the verifier
    # records that as a failure of the check and goes on.
    g = WorkingGraph(Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)]))
    top = frozenset(g.vertices)
    verifier = OracleVerifier()
    verifier.interesting(g, top, MaximalInteresting(frozenset(), frozenset()))
    verifier.interesting(g, top, MaximalInteresting(frozenset({0}), frozenset({1})))
    verifier.outer_path(g, frozenset({0, 1, 2}), frozenset({0}), frozenset({1}),
                        OuterPath((1, 2, 3)))
    verifier.bottom_pair(g, top, DisjointCliques(()), (0, 1))
    assert sum(verifier.checks.values()) == 9
    assert verifier.failures == [
        "interesting_maximal: set [] is not maximal interesting in its level",
        "interesting_complete: complete set mismatch for []",
        "handle_bridge_from_interesting: set [] gives no handle in the complement: "
        "an interesting set is nonempty",
        "interesting_maximal: set [0] is not maximal interesting in its level",
        "handle_bridge_from_interesting: set [0] gives no handle in the complement: "
        "the complete set of an interesting set cannot be a clique",
        "outer_parity: outer path (1, 2, 3) has odd or short length 2",
        "outer_minimal: path (1, 2, 3) is not a minimal T-outer path: "
        "outer paths need vertices in range",
        "bottom_pair_special: bottom pair (0, 1) is not special in its level: "
        "even pairs are defined for non-adjacent vertices"]
