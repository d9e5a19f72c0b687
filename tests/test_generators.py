import networkx as nx
import pytest

from artemis_color import (
    BudgetExceeded,
    GraphError,
    bipartite,
    chordal,
    filtered_random,
    generate,
    is_artemis,
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
