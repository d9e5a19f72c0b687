import pytest

from artemis_color import (
    ContractionStep,
    ContractionTrace,
    GraphError,
    common_complete,
    complement,
    components,
    contract,
    induced,
    is_clique,
    is_simplicial,
    new_graph,
)
from artemis_color.oracles import find_prism

from conftest import complete_graph, cycle_graph, path_graph, prism_graph


def test_new_graph_path():
    g = path_graph(4)
    assert g.n == 4 and g.m == 3
    assert tuple(sorted(g.adj[1])) == (0, 2)


def test_new_graph_single_vertex():
    g = new_graph(1, [])
    assert g.n == 1 and g.m == 0


def test_new_graph_prism():
    assert prism_graph().m == 9


def test_new_graph_dedupes():
    g = new_graph(3, [(0, 1), (1, 0), (0, 1)])
    assert g.m == 1


@pytest.mark.parametrize("edges", [[(0, 3)], [(1, 1)], [(-1, 0)]])
def test_new_graph_rejects_bad_edges(edges):
    with pytest.raises(GraphError):
        new_graph(3, edges)


def test_contract_p4():
    g, step = contract(path_graph(4), 0, 2)
    assert g.n == 3 and g.m == 2
    assert sorted(g.adj[step.merged]) == [1, 2]
    assert (step.a, step.b, step.merged) == (0, 2, 0)


def test_contract_c6_creates_four_hole():
    g, step = contract(cycle_graph(6), 0, 2)
    assert g.n == 5
    # 1 keeps its id; 3, 4 and 5 shift down to 2, 3 and 4.
    assert g.adj[step.merged] == {1, 2, 4}
    hole = [step.merged, 2, 3, 4]
    for i in range(4):
        assert hole[(i + 1) % 4] in g.adj[hole[i]]
    assert hole[2] not in g.adj[hole[0]] and hole[3] not in g.adj[hole[1]]


def test_contract_isolated_pair():
    g, _ = contract(new_graph(2, []), 0, 1)
    assert g.n == 1 and g.m == 0


def test_contract_rejects_adjacent():
    with pytest.raises(GraphError):
        contract(path_graph(2), 0, 1)


def test_contract_lifts_any_proper_coloring():
    # Copying the merged vertex's color back to both endpoints keeps any
    # proper coloring proper, whenever the endpoints were non-adjacent.  Over
    # a chain of contractions each original vertex gets the color of the
    # vertex it ended up in.
    import random

    from artemis_color import Coloring, lift_coloring, random_graph

    rng = random.Random(5)
    for _ in range(50):
        g = random_graph(8, 0.4, rng.randrange(10**6))
        trace = ContractionTrace(original_n=g.n)
        current, final_id = g, list(range(g.n))
        for _ in range(rng.randint(1, 3)):
            nonadj = [(u, v) for u in current.vertices for v in current.vertices
                      if u != v and v not in current.adj[u]]
            if not nonadj:
                break
            a, b = nonadj[rng.randrange(len(nonadj))]
            current, step = contract(current, a, b)
            trace.append(step)
            hi = max(a, b)
            final_id = [min(a, b) if w == hi else w - (w > hi) for w in final_id]
        rainbow = Coloring(tuple(range(current.n)), current.n)  # proper on any graph
        lifted = lift_coloring(trace, rainbow, original_graph=g)  # raises if improper
        assert lifted.colors == tuple(final_id)


def test_complement_k3():
    assert complement(complete_graph(3)).m == 0


def test_complement_c5_is_five_cycle():
    cc = complement(cycle_graph(5))
    assert cc.m == 5 and all(len(cc.adj[v]) == 2 for v in cc.vertices)
    assert len(components(cc)) == 1


def test_complement_c6_is_prism():
    assert find_prism(complement(cycle_graph(6))) is not None


def test_complement_involution():
    g = new_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 4)])
    assert complement(complement(g)) == g


def test_induced():
    sub, old_ids = induced(cycle_graph(6), {0, 1, 2})
    assert old_ids == (0, 1, 2)
    assert sub.n == 3 and sub.m == 2 and tuple(sorted(sub.adj[1])) == (0, 2)
    g = path_graph(5)
    same, _ = induced(g, g.vertices)
    assert same == g
    empty, ids = induced(g, set())
    assert empty.n == 0 and ids == ()


def test_common_complete():
    assert common_complete(path_graph(4), {1}) == {0, 2}
    assert common_complete(complete_graph(4), {0}) == {1, 2, 3}
    assert common_complete(cycle_graph(6), {0, 3}) == set()
    with pytest.raises(GraphError):
        common_complete(path_graph(3), set())


def test_common_complete_never_meets_the_set():
    import random

    from artemis_color import random_graph

    rng = random.Random(11)
    for _ in range(30):
        g = random_graph(9, 0.5, rng.randrange(10**6))
        tset = set(rng.sample(range(9), rng.randrange(1, 5)))
        assert not common_complete(g, tset) & tset


def test_is_clique():
    g = path_graph(4)
    assert is_clique(g, set())
    assert is_clique(g, {2})
    assert not is_clique(g, {0, 2})
    assert is_clique(complete_graph(3), {0, 1, 2})


def test_components():
    assert components(cycle_graph(6), {3, 4, 5}) == [{3, 4, 5}]
    from conftest import k3_plus_k2

    assert components(k3_plus_k2()) == [{0, 1, 2}, {3, 4}]
    assert components(path_graph(3), set()) == []


def test_components_cover_the_set():
    import random

    from artemis_color import random_graph

    rng = random.Random(3)
    for _ in range(30):
        g = random_graph(10, 0.25, rng.randrange(10**6))
        s = set(rng.sample(range(10), rng.randrange(0, 11)))
        parts = components(g, s)
        assert sum(len(p) for p in parts) == len(s)
        assert set().union(*parts) == s if parts else not s


def test_components_match_networkx():
    import random

    import networkx as nx

    from artemis_color import random_graph

    rng = random.Random(11)
    for n in range(1, 31):
        for density in (0.05, 0.15, 0.5):
            g = random_graph(n, density, rng.randrange(10**6))
            h = nx.Graph(list(g.edges()))
            h.add_nodes_from(g.vertices)
            for s in (set(), set(range(n)), set(rng.sample(range(n), rng.randrange(n + 1)))):
                expected = sorted(nx.connected_components(h.subgraph(s)), key=min)
                assert components(g, s) == expected


def test_edges_ascending_on_seeded_graphs():
    # Past id 7 a frozenset's own iteration order is no longer ascending, so
    # these graphs tell a sorted walk from a walk in set order.
    from artemis_color import random_graph

    for n in (10, 25, 40, 60):
        for seed in range(3):
            g = random_graph(n, 0.3, seed)
            expected = sorted((u, v) for u in g.vertices for v in g.adj[u] if u < v)
            assert list(g.edges()) == expected


def test_is_simplicial():
    assert is_simplicial(path_graph(4), 0)
    assert not is_simplicial(path_graph(3), 1)
    assert all(is_simplicial(complete_graph(4), v) for v in range(4))


def test_trace_rejects_overlong_and_mismatched_steps():
    g = path_graph(3)
    _, step = contract(g, 0, 2)
    trace = ContractionTrace(original_n=3)
    trace.append(step)
    with pytest.raises(GraphError):
        trace.append(step)  # vertex 2 is gone after the first merge
    with pytest.raises(GraphError):
        trace.append(ContractionStep(a=-1, b=0))
    with pytest.raises(GraphError):
        ContractionStep(a=1, b=1)
    short = ContractionTrace(original_n=2)
    short.append(ContractionStep(a=1, b=0))
    assert short.current_n == 1 and short.steps[0].merged == 0
    with pytest.raises(GraphError):
        # a trace never holds more than n-1 contractions
        short.append(ContractionStep(a=0, b=1))
