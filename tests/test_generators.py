import random

import networkx as nx
import pytest

from artemis_color import (
    BudgetExceeded,
    Graph,
    GraphError,
    bipartite,
    chordal,
    filtered_random,
    generate,
    is_artemis,
    random_graph,
)
from artemis_color.dimacs import write_dimacs

from conftest import to_nx


@pytest.mark.parametrize("family", ["chordal", "bipartite"])
def test_families_are_artemis_by_construction(family):
    for n in (4, 7, 10, 12):
        for seed in range(8):
            g = generate(family, n, (0.2, 0.4, 0.6, 0.8)[seed % 4], seed)
            ok, witness = is_artemis(g)
            assert ok, f"{family} n={n} seed={seed}: {witness}"


def test_filtered_random_is_artemis():
    for seed in range(8):
        g = filtered_random(8, 0.35, seed)
        assert is_artemis(g)[0]


def test_filtered_random_budget():
    with pytest.raises(BudgetExceeded):
        filtered_random(13, 0.3, 0)


def test_chordal_has_perfect_elimination_structure():
    # a graph is chordal exactly when removing a simplicial vertex repeatedly
    # consumes it, which networkx tests by maximum cardinality search
    assert nx.is_chordal(to_nx(chordal(12, 0.5, 7)))


def test_bipartite_has_two_sides():
    g = bipartite(12, 0.7, 3)
    from artemis_color import chromatic_number_exact

    assert chromatic_number_exact(g) <= 2


def test_determinism_byte_identical():
    for family in ("chordal", "bipartite", "filtered-random"):
        a = write_dimacs(generate(family, 9, 0.5, 123))
        b = write_dimacs(generate(family, 9, 0.5, 123))
        assert a == b
    assert generate("chordal", 9, 0.5, 1) != generate("chordal", 9, 0.5, 2)


def test_unknown_family_rejected():
    with pytest.raises(GraphError):
        generate("mystery", 5, 0.5, 0)


@pytest.mark.parametrize("maker, family", [
    (chordal, "chordal"), (bipartite, "bipartite"), (filtered_random, "filtered-random"),
    (random_graph, None),
])
def test_generate_alone_checks_the_size(maker, family):
    # A sampler takes n = 0 and leaves a negative n to Graph; generate, the
    # one gate for a request, refuses both.
    assert maker(0, 0.5, 1) == Graph(0, [])
    with pytest.raises(GraphError, match="^vertex count must be non-negative"):
        maker(-1, 0.5, 1)
    if family is not None:
        for n in (0, -1):
            with pytest.raises(GraphError, match=f"^{family} generator needs n >= 1$"):
                generate(family, n, 0.5, 1)


# The samplers' streams as the all-pairs comprehensions drew them, kept
# verbatim: a rewrite must make the same draws in the same order.
def _reference_bipartite(n, density, seed):
    rng = random.Random(seed)
    side = [rng.random() < 0.5 for _ in range(n)]
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if side[u] != side[v] and rng.random() < density]
    return Graph(n, edges)


def _reference_random_graph(n, density, seed):
    rng = random.Random(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < density]
    return Graph(n, edges)


def _reference_filtered_random(n, density, seed):
    rng = random.Random(seed)
    while True:
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < density]
        g = Graph(n, edges)
        ok, _ = is_artemis(g)
        if ok:
            return g


@pytest.mark.parametrize("n", [0, 1, 2, 5, 11, 64, 600])
@pytest.mark.parametrize("density", [0, 0.01, 0.3, 1])
def test_samplers_keep_their_streams(n, density):
    for seed in range(3):
        assert bipartite(n, density, seed) == _reference_bipartite(n, density, seed)
        assert random_graph(n, density, seed) == _reference_random_graph(n, density, seed)


def test_bipartite_stream_with_one_side_empty():
    # seeds 4 and 5 at n = 5 put every vertex on one side, each a different
    # one: no cross pair, so no draw after the sides
    for seed in (4, 5):
        rng = random.Random(seed)
        assert len({rng.random() < 0.5 for _ in range(5)}) == 1
        for density in (0.3, 1):
            assert bipartite(5, density, seed) == Graph(5, [])


def test_filtered_random_keeps_its_stream():
    # a rejected sample's draws fix where the next one starts
    for n, density in ((6, 0.5), (9, 0.35), (12, 0.5)):
        for seed in range(3):
            assert filtered_random(n, density, seed) == _reference_filtered_random(n, density, seed)
