import random

import networkx as nx
import pytest

from artemis_color import (
    brute_maximal_interesting_check,
    cohandle_is_max_interesting,
    DisjointCliques,
    Graph,
    GraphError,
    find_generalized_handle,
    find_interesting,
    interesting_gives_handle_check,
    is_generalized_handle,
    is_interesting_set,
    OpCounters,
    random_graph,
)
from artemis_color import handles

from conftest import complete_graph, cycle_graph, from_nx, path_graph, to_nx


def test_complete_graph_has_no_handle():
    for n in (1, 2, 5):
        assert find_generalized_handle(complete_graph(n)) is None


def test_complete_multipartite_has_no_handle():
    # every vertex sees at least one endpoint of every edge
    k22 = Graph(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    assert find_generalized_handle(k22) is None
    k222 = Graph(6, [(u, v) for u in range(6) for v in range(u + 1, 6)
                     if u // 2 != v // 2])
    assert find_generalized_handle(k222) is None


def test_p4_handle():
    g = path_graph(4)
    found = find_generalized_handle(g)
    assert found is not None
    assert is_generalized_handle(g, found.handle, found.cohandle)
    assert cohandle_is_max_interesting(g, found)
    assert brute_maximal_interesting_check(from_nx(nx.complement(to_nx(g))), found.cohandle)


def test_is_generalized_handle_rejections():
    # On the 4-path 0-1-2-3, H = {2, 3} with J = {0} is a handle.
    p4 = path_graph(4)
    assert is_generalized_handle(p4, {2, 3}, {0})
    assert not is_generalized_handle(p4, {2, 3}, set())  # empty J
    assert not is_generalized_handle(p4, {2, 3}, {0, 3})  # J meets H
    assert not is_generalized_handle(p4, {3}, {0})  # H has no edge
    assert not is_generalized_handle(p4, {2, 3}, {1})  # N(J) = {0, 2} differs
    # J = {0, 4} has boundary {1} = N(H) but is two components of G - N(H)
    fork = Graph(5, [(0, 1), (1, 2), (2, 3), (1, 4)])
    assert not is_generalized_handle(fork, {2, 3}, {0, 4})
    # on the 5-path the boundary vertex 1 sees neither end of the edge 3-4
    assert not is_generalized_handle(path_graph(5), {2, 3, 4}, {0})


def test_handle_checks_reject_out_of_range_vertices():
    c6 = cycle_graph(6)
    # 9 is past the last vertex; -1 would wrap to vertex 5
    for check, args in ((is_generalized_handle, ({9}, {0})),
                        (is_generalized_handle, ({-1, 0}, {2, 3})),
                        (interesting_gives_handle_check, ({9},)),
                        (interesting_gives_handle_check, ({-1},))):
        with pytest.raises(GraphError, match="in range"):
            check(c6, *args)


def test_handle_sweep_properties():
    rng = random.Random(50)
    found = 0
    for _ in range(250):
        g = random_graph(rng.randrange(4, 11), rng.choice((0.2, 0.35, 0.5, 0.65)),
                         rng.randrange(10**6))
        result = find_generalized_handle(g)
        if result is None:
            continue
        found += 1
        assert is_generalized_handle(g, result.handle, result.cohandle)
        # a co-handle is an interesting set of the complement, and the one the
        # search returns is even maximal there
        assert is_interesting_set(from_nx(nx.complement(to_nx(g))), result.cohandle)
        assert cohandle_is_max_interesting(g, result)
    assert found > 100


def test_cohandle_grows_at_every_refit(monkeypatch):
    # The termination proof of find_generalized_handle: each refit's
    # co-handle strictly contains the one before, so at most n refits run.
    cohandles = []
    refit = handles._refit

    def recording(g, v, a, b):
        handle, cohandle = refit(g, v, a, b)
        if cohandles:
            assert cohandle != cohandles[-1] and cohandle & cohandles[-1] == cohandles[-1]
        cohandles.append(cohandle)
        return handle, cohandle

    monkeypatch.setattr(handles, "_refit", recording)
    rng = random.Random(51)
    longest = 0
    for _ in range(150):
        g = random_graph(rng.randrange(4, 11), rng.random(), rng.randrange(10**6))
        cohandles.clear()
        find_generalized_handle(g)
        longest = max(longest, len(cohandles))
    assert longest >= 3


def test_interesting_gives_handle_on_zoo():
    assert interesting_gives_handle_check(path_graph(4), {1})
    assert interesting_gives_handle_check(cycle_graph(6), {1})


def test_interesting_gives_handle_on_samples():
    rng = random.Random(52)
    hits = 0
    for _ in range(120):
        g = random_graph(rng.randrange(4, 11), rng.choice((0.25, 0.4, 0.55)),
                         rng.randrange(10**6))
        res = find_interesting(g, frozenset(g.vertices), OpCounters())
        if isinstance(res, DisjointCliques):
            continue
        hits += 1
        assert interesting_gives_handle_check(g, res.tset)
    assert hits > 60
