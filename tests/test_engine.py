import random
from heapq import heapify, heappop, heappush

import networkx as nx
import pytest

from artemis_color import (
    Coloring,
    ColoringError,
    ContractionStep,
    ContractionTrace,
    DisjointCliques,
    Graph,
    MaximalInteresting,
    NotArtemisError,
    OpCounters,
    OracleVerifier,
    OuterPath,
    PipelineObserver,
    bipartite,
    brute_maximal_interesting_check,
    brute_minimal_outer_path_check,
    chordal,
    chromatic_number_exact,
    color_artemis,
    components,
    filtered_random,
    find_even_pair,
    find_interesting,
    find_outer_path,
    find_special_even_pair,
    greedy_color_cliques,
    is_artemis,
    is_even_pair_exact,
    is_interesting_set,
    is_proper,
    is_special_even_pair_exact,
    lift_coloring,
    max_clique_exact,
    outer_path_exists_criterion,
    random_graph,
)
from artemis_color.engine import WorkingGraph, contract
from artemis_color.oracles import _is_clique, _view, mask_of

from conftest import complete_graph, cycle_graph, from_nx, k3_plus_k2, path_graph, to_nx


def top(g):
    """The whole vertex set: the domain of a pair search's top level."""
    return frozenset(g.vertices)


def artemis_samples(count_per_size, sizes=range(4, 11)):
    makers = (chordal, bipartite, filtered_random)
    for n in sizes:
        for k in range(count_per_size):
            density = (0.2, 0.35, 0.5, 0.65, 0.8)[k % 5]
            yield makers[k % 3](n, density, n * 997 + k)


# --- find_interesting -------------------------------------------------------

def test_find_interesting_disjoint_cliques():
    g = k3_plus_k2()
    res = find_interesting(g, top(g), OpCounters())
    assert res == DisjointCliques((frozenset({0, 1, 2}), frozenset({3, 4})))


def test_find_interesting_p4():
    g = path_graph(4)
    res = find_interesting(g, top(g), OpCounters())
    assert res == MaximalInteresting(frozenset({1}), frozenset({0, 2}))


def test_find_interesting_c6():
    g = cycle_graph(6)
    res = find_interesting(g, top(g), OpCounters())
    assert res == MaximalInteresting(frozenset({1}), frozenset({0, 2}))


def test_find_interesting_c4_grows_past_first_seed():
    g = cycle_graph(4)
    res = find_interesting(g, top(g), OpCounters())
    assert res == MaximalInteresting(frozenset({1, 3}), frozenset({0, 2}))
    assert brute_maximal_interesting_check(g, {1, 3})


def _all_interesting_supersets(g, tset):
    # Fully independent maximality route: enumerate every vertex subset.
    from itertools import combinations

    verts = list(g.vertices)
    for size in range(len(tset) + 1, g.n + 1):
        for cand in combinations(verts, size):
            cand = set(cand)
            if tset < cand and is_interesting_set(g, cand):
                return cand
    return None


def test_find_interesting_outputs_are_maximal():
    for g in artemis_samples(6, sizes=range(4, 9)):
        res = find_interesting(g, top(g), OpCounters())
        if isinstance(res, DisjointCliques):
            assert all(part - {v} <= g.adj[v] for part in res.cliques for v in part)
            continue
        assert is_interesting_set(g, res.tset)
        assert res.cset == frozenset.intersection(*(g.adj[v] for v in res.tset)) - res.tset
        assert not all(res.cset - {v} <= g.adj[v] for v in res.cset)
        assert brute_maximal_interesting_check(g, res.tset)
        assert _all_interesting_supersets(g, set(res.tset)) is None


def _reference_clique_probe(g, s, counters):
    size = len(s)
    if size <= 1:
        return True
    for v in sorted(s):
        counters.interesting += size
        if len(g.adj[v] & s) != size - 1:
            return False
    return True


def _reference_find_interesting(g, dom, counters):
    """The finder as the cost model describes it: a full component pass to
    find the start and a heap over every undecided vertex."""
    parts = components(g, dom)
    counters.interesting += len(dom) + sum(len(p) for p in parts)
    comp_size = {v: len(part) for part in parts for v in part}
    start = None
    for v in sorted(dom):
        counters.interesting += 1
        if len(g.adj[v] & dom) < comp_size[v] - 1:
            start = v
            break
    if start is None:
        return DisjointCliques(tuple(frozenset(p) for p in parts))
    counters.interesting += len(g.adj[start])
    beyond = dom - g.adj[start] - {start}
    for u in sorted(g.adj[start]):
        if u in dom:
            counters.interesting += len(g.adj[u])
            if not g.adj[u].isdisjoint(beyond):
                seed = u
                break
    tset = {seed}
    cset = g.adj[seed] & dom
    undecided = list(dom - tset - cset)
    heapify(undecided)
    while undecided:
        u = heappop(undecided)
        counters.interesting += len(g.adj[u])
        if _reference_clique_probe(g, g.adj[u] & cset, counters):
            continue
        tset.add(u)
        dropped = cset - g.adj[u]
        cset &= g.adj[u]
        for w in dropped:
            heappush(undecided, w)
        counters.interesting += len(dropped)
    return MaximalInteresting(frozenset(tset), frozenset(cset))


def test_find_interesting_matches_full_pass_reference():
    rng = random.Random(2024)
    kinds = set()
    for _ in range(2000):
        n = rng.randint(2, 40)
        density = rng.uniform(0.05, 0.95)
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                      if rng.random() < density])
        keep = rng.random()
        dom = frozenset(v for v in range(n) if rng.random() < keep)
        got, want = OpCounters(), OpCounters()
        res = find_interesting(g, dom, got)
        assert res == _reference_find_interesting(g, dom, want)
        assert got.interesting == want.interesting
        kinds.add(type(res))
    assert kinds == {DisjointCliques, MaximalInteresting}


# Expected values computed with the full-pass finder.
@pytest.mark.parametrize("n, edges, dom, tset, cset, charge", [
    # Ahead of the first non-clique component (a C4 with a pendant 11 on 8):
    # 0 and 6 isolated inside dom but not in g, a K2 and a triangle.  The
    # set grows past its seed and drops 11, which is shelved unpicked.
    (13, [(1, 2), (3, 4), (3, 5), (4, 5), (7, 8), (8, 9), (9, 10), (10, 7), (8, 11),
          (0, 12), (6, 12), (10, 12)],
     range(12), {8, 10}, {7, 9}, 54),
    # A K2, then a star whose center 2 sees its whole component, so the start
    # is the first leaf 3; 7 lies outside dom.
    (8, [(0, 1), (2, 3), (2, 4), (2, 5), (2, 6), (3, 7), (5, 7)],
     range(7), {2}, {3, 4, 5, 6}, 26),
], ids=["cliques-first", "star-center"])
def test_find_interesting_hand_built_starts(n, edges, dom, tset, cset, charge):
    g = Graph(n, edges)
    counters = OpCounters()
    res = find_interesting(g, frozenset(dom), counters)
    assert res == MaximalInteresting(frozenset(tset), frozenset(cset))
    assert counters.interesting == charge


def test_find_interesting_clique_levels_need_no_component_pass(monkeypatch):
    # The start walk collects the parts of a clique level as it goes; they
    # equal the level's components, in the same order.
    import artemis_color.engine as engine

    calls = []

    def counted(g, s=None):
        calls.append(s)
        return components(g, s)

    verdicts = []

    class Verdicts(PipelineObserver):
        def interesting(self, g, domain, result):
            if isinstance(result, DisjointCliques):
                verdicts.append(result.cliques == tuple(map(frozenset, components(g, domain))))

    monkeypatch.setattr(engine, "components", counted)
    for g in (bipartite(80, 0.1, 3), chordal(40, 0.5, 2), bipartite(200, 0.01, 5)):
        color_artemis(g, observer=Verdicts())
    assert calls == []
    assert len(verdicts) > 100 and all(verdicts)


# --- find_outer_path --------------------------------------------------------

def test_find_outer_path_c6():
    g = cycle_graph(6)
    path = find_outer_path(g, top(g), frozenset({1}), frozenset({0, 2}), OpCounters())
    assert path.vertices == (0, 5, 4, 3, 2)
    assert path.length == 4 and path.vertices[1:-1] == (5, 4, 3)


def test_find_outer_path_p4_none():
    g = path_graph(4)
    assert find_outer_path(g, top(g), frozenset({1}), frozenset({0, 2}), OpCounters()) is None
    assert not outer_path_exists_criterion(g, {1}, {0, 2})


def test_find_outer_path_c4_after_find_interesting():
    g = cycle_graph(4)
    res = find_interesting(g, top(g), OpCounters())
    assert find_outer_path(g, top(g), res.tset, res.cset, OpCounters()) is None


def test_find_outer_path_skips_clique_boundary_component():
    # vertex 3 hangs off the complete set through a clique boundary, so its
    # component is searched first, marked, and abandoned; the path comes from
    # the second component
    g = Graph(7, [(0, 1), (1, 2), (2, 3), (2, 4), (4, 5), (5, 6), (6, 0)])
    res = find_interesting(g, top(g), OpCounters())
    assert res == MaximalInteresting(frozenset({1}), frozenset({0, 2}))
    path = find_outer_path(g, top(g), res.tset, res.cset, OpCounters())
    assert path.vertices == (0, 6, 5, 4, 2)
    assert brute_minimal_outer_path_check(g, res.tset, res.cset, path.vertices)
    assert find_even_pair(g, top(g), res.tset, res.cset, path, OpCounters()) == (0, 2)
    assert is_even_pair_exact(g, 0, 2)


def test_outer_paths_verify_against_brute_force():
    # Every finder gets plain mutable copies of the level's sets, which must
    # come back unchanged: the finders only read what they are lent.
    for g in artemis_samples(6, sizes=range(4, 10)):
        counters = OpCounters()
        dom = set(g.vertices)
        res = find_interesting(g, dom, counters)
        assert dom == set(g.vertices)
        if isinstance(res, DisjointCliques):
            continue
        tset, cset = set(res.tset), set(res.cset)
        path = find_outer_path(g, dom, tset, cset, counters)
        assert (dom, tset, cset) == (set(g.vertices), res.tset, res.cset)
        if path is None:
            assert not outer_path_exists_criterion(g, res.tset, res.cset)
            continue
        assert path.length % 2 == 0 and path.length >= 4
        assert brute_minimal_outer_path_check(g, res.tset, res.cset, path.vertices)
        pair = find_even_pair(g, dom, tset, cset, path, counters)
        assert (dom, tset, cset) == (set(g.vertices), res.tset, res.cset)
        assert is_even_pair_exact(g, *pair)


# --- find_even_pair ---------------------------------------------------------

def test_find_even_pair_c6():
    g = cycle_graph(6)
    pair = find_even_pair(g, top(g), frozenset({1}), frozenset({0, 2}),
                          OuterPath((0, 5, 4, 3, 2)), OpCounters())
    assert pair == (0, 2)
    assert is_even_pair_exact(g, 0, 2)


def test_find_even_pair_c8():
    g = cycle_graph(8)
    res = find_interesting(g, top(g), OpCounters())
    path = find_outer_path(g, top(g), res.tset, res.cset, OpCounters())
    assert path.vertices == (0, 7, 6, 5, 4, 3, 2)
    assert find_even_pair(g, top(g), res.tset, res.cset, path, OpCounters()) == (0, 2)
    assert is_even_pair_exact(g, 0, 2)


def test_outer_path_endpoints_land_in_their_classes():
    # x always qualifies for the first endpoint class and y for the second.
    for g in artemis_samples(6, sizes=range(5, 11)):
        res = find_interesting(g, top(g), OpCounters())
        if isinstance(res, DisjointCliques):
            continue
        path = find_outer_path(g, top(g), res.tset, res.cset, OpCounters())
        if path is None:
            continue
        x, v, w, y = path.vertices[0], path.vertices[1], path.vertices[-2], path.vertices[-1]
        aside = (g.adj[v] & res.cset) - g.adj[y]
        bside = (g.adj[w] & res.cset) - g.adj[x]
        assert x in aside and y in bside


# --- find_special_even_pair -------------------------------------------------

def test_special_even_pair_examples():
    assert isinstance(find_special_even_pair(k3_plus_k2()), DisjointCliques)
    assert find_special_even_pair(cycle_graph(6)) == (0, 2)
    assert find_special_even_pair(path_graph(4)) == (0, 2)
    assert is_even_pair_exact(path_graph(4), 0, 2)


def test_special_even_pairs_check_out_exactly():
    for g in artemis_samples(5):
        res = find_special_even_pair(g)
        if isinstance(res, DisjointCliques):
            continue
        a, b = res
        assert is_even_pair_exact(g, a, b)
        assert is_special_even_pair_exact(g, a, b)


class _LevelInvariants(PipelineObserver):
    """Asserts at every level what the pair search relies on unchecked: a
    complete set is never a clique, so a nested level splits into two or more
    cliques, and an outer path is found exactly when one exists."""

    def __init__(self):
        self.nested_bottoms = self.paths = self.no_paths = 0

    def interesting(self, g, domain, result):
        if isinstance(result, MaximalInteresting):
            assert not _is_clique(_view(g, on=domain).masks, mask_of(result.cset))
        elif len(domain) < len(g.vertices):  # below the top level
            assert len(result.cliques) >= 2
            self.nested_bottoms += 1

    def outer_path(self, g, domain, tset, cset, path):
        exists = outer_path_exists_criterion(_view(g, on=domain), tset, cset)
        assert (path is not None) == exists
        self.paths += exists
        self.no_paths += not exists


def test_level_invariants_hold_on_any_graph():
    rng = random.Random(53)
    seen = _LevelInvariants()
    outside = 0
    for _ in range(300):
        g = random_graph(rng.randrange(5, 13), rng.choice((0.2, 0.35, 0.5, 0.65, 0.8)),
                         rng.randrange(10**6))
        outside += not is_artemis(g)[0]
        try:
            color_artemis(g, observer=seen)
        except (NotArtemisError, ColoringError):
            pass  # the levels searched before the refusal were still checked
    assert outside > 50 and seen.nested_bottoms > 100
    assert seen.paths > 100 and seen.no_paths > 100


def test_chain_depth_recorded():
    counters = OpCounters()
    find_special_even_pair(path_graph(4), counters=counters)
    assert counters.chain_depths == [2]  # no outer path at the top level
    assert len(counters.per_call) == 1 and counters.per_call[0] > 0


# --- coloring driver --------------------------------------------------------

def test_color_complete_graph():
    for n in (1, 4, 7):
        coloring, trace = color_artemis(complete_graph(n))
        assert coloring.num_colors == n and not trace.steps


def test_color_c6():
    g = cycle_graph(6)
    coloring, trace = color_artemis(g)
    assert coloring.num_colors == 2 == chromatic_number_exact(g)
    assert len(trace.steps) <= 4
    assert is_proper(g, coloring)


def test_color_p4():
    coloring, _ = color_artemis(path_graph(4))
    assert coloring.num_colors == 2


def test_color_empty_graph():
    coloring, trace = color_artemis(Graph(0, []))
    assert coloring == Coloring((), 0) and not trace.steps


def test_coloring_is_optimal_on_samples():
    for g in artemis_samples(4):
        coloring, trace = color_artemis(g)
        assert is_proper(g, coloring)
        assert coloring.num_colors == chromatic_number_exact(g) == max_clique_exact(g)
        assert len(trace.steps) <= max(0, g.n - 1)


# --- greedy residue coloring and lifting ------------------------------------

def test_greedy_color_cliques():
    coloring = greedy_color_cliques([{0, 1, 2}, {3, 4}])
    assert coloring.colors == (0, 1, 2, 0, 1) and coloring.num_colors == 3
    assert greedy_color_cliques([{0}]) == Coloring((0,), 1)
    assert greedy_color_cliques([]) == Coloring((), 0)


def test_lift_empty_trace_is_identity():
    coloring = Coloring((0, 1, 0), 2)
    g = path_graph(3)
    assert lift_coloring(ContractionTrace(original_n=3), coloring, original_graph=g) == coloring


def test_lift_single_step_copies_color_to_both_endpoints():
    g = path_graph(4)
    trace = ContractionTrace(original_n=4)
    trace.append(ContractionStep(0, 2))  # merged graph is the star 1 - 0 - 2
    residue = Coloring((0, 1, 1), 2)
    lifted = lift_coloring(trace, residue, original_graph=g)
    assert lifted.colors[0] == lifted.colors[2]
    assert lifted.num_colors == 2 and is_proper(g, lifted)


def test_lift_rejects_improper_input():
    g = path_graph(4)
    trace = ContractionTrace(original_n=4)
    trace.append(ContractionStep(0, 2))
    bad = Coloring((0, 0, 1), 2)  # lifts to (0, 0, 0, 1): edge 0-1 clashes
    with pytest.raises(ColoringError):
        lift_coloring(trace, bad, original_graph=g)


def test_lift_names_the_smallest_clashing_edge():
    # Vertex 0 sees 2 and 9, both colored like it; (0, 2) comes first in
    # ascending order, although 9 comes first in the set {2, 9}.
    g = Graph(10, [(0, 9), (0, 2), (2, 9), (1, 8)])
    bad = Coloring((0, 1, 0, 1, 1, 1, 1, 1, 0, 0), 2)
    with pytest.raises(ColoringError) as info:
        lift_coloring(ContractionTrace(original_n=10), bad, original_graph=g)
    assert str(info.value) == "lifted coloring gives both endpoints of edge (0, 2) color 0"


def test_coloring_type_rejects_unused_colors():
    with pytest.raises(ColoringError):
        Coloring((0, 2), 3)


def test_lift_from_driver_is_proper():
    g = cycle_graph(6)
    coloring, trace = color_artemis(g)
    assert is_proper(g, coloring)
    assert coloring.colors[0] == coloring.colors[2]  # first contraction merged them


# --- in-place driver against the immutable reference ------------------------

def _reference_color(g, observer=None):
    """The driver on immutable graphs: one fresh Graph per contraction."""
    counters = OpCounters()
    trace = ContractionTrace(original_n=g.n)
    current = g
    while True:
        res = find_special_even_pair(current, counters=counters, observer=observer)
        if isinstance(res, DisjointCliques):
            break
        lo, hi = sorted(res)
        current = from_nx(nx.contracted_nodes(to_nx(current), lo, hi, self_loops=False))
        step = ContractionStep(*res)
        if observer is not None:
            observer.contracted(current, *res)
        trace.append(step)
    coloring = lift_coloring(trace, greedy_color_cliques(res.cliques), original_graph=g)
    return coloring, trace.steps, res.cliques, counters


def _color_both(g, observer=None, ref_observer=None):
    counters = OpCounters()
    coloring, trace = color_artemis(g, counters=counters, observer=observer)
    assert (coloring, trace.steps, trace.residue, counters) == _reference_color(g, ref_observer)
    return counters


def test_in_place_driver_matches_immutable_reference():
    even_pair_ops = 0
    for maker, sizes, density in ((chordal, (6, 20, 45), 0.5),
                                  (bipartite, (6, 20, 60), 0.15),
                                  (filtered_random, (6, 9, 12), 0.5)):
        for n in sizes:
            for seed in range(3):
                even_pair_ops += _color_both(maker(n, density, 31 * n + seed)).even_pair
    assert even_pair_ops > 0  # outer-path pairs were exercised, not just bottom pairs


def test_in_place_driver_feeds_verifier_like_reference():
    g = bipartite(12, 0.3, 5)
    verifier, ref_verifier = OracleVerifier(), OracleVerifier()
    _color_both(g, verifier, ref_verifier)
    assert verifier.checks["pair_even"] > 0 and verifier.checks == ref_verifier.checks
    assert not verifier.failures and not ref_verifier.failures


@pytest.mark.parametrize("n, seed", [(8, 18), (9, 1)])
def test_verifier_reused_for_a_second_run_checks_like_a_fresh_one(n, seed):
    # The second input is outside the class and its first contracted graph
    # keeps a structure away from the merged vertex, so a verifier that
    # carried "the last scan passed" over from the first run would scan only
    # through that vertex and miss it.
    bad = random_graph(n, 0.5, seed)
    fresh, reused = OracleVerifier(), OracleVerifier()
    color_artemis(bad, observer=fresh)
    color_artemis(bipartite(12, 0.3, 5), observer=reused)
    assert reused.ok and reused.checks["class_preserved"] > 0
    checks_before = reused.checks.copy()
    color_artemis(bad, observer=reused)
    assert any(f.startswith("class_preserved: ") for f in fresh.failures)
    assert reused.checks - checks_before == fresh.checks
    assert reused.failures == fresh.failures


def test_verifier_names_class_witnesses_by_input_ids():
    g = random_graph(8, 0.5, 18)
    verifier = OracleVerifier()
    color_artemis(g, observer=verifier)
    hole = (1, 4, 7, 5, 6)
    assert verifier.failures[0] == ("class_preserved: contracting (0, 2) left the class: "
                                    f"StructureWitness(kind='odd_hole', vertices={hole})")
    # the witness is a chordless cycle of the working graph after that merge
    work = WorkingGraph(g)
    contract(work, 0, 2)
    for i, v in enumerate(hole):
        assert {w for w in hole if w in work.adj[v]} == {hole[i - 1], hole[(i + 1) % 5]}


def test_in_place_contract_matches_dense_replay():
    """Chains of 1-5 merges on a working graph: after each one every neighbor
    set is symmetric and live, the graph equals the same merges made by
    networkx, and the step names the pair by its ranks before the merge."""
    rng = random.Random(1717)
    makers = (chordal, bipartite, random_graph)
    kinds = {True: 0, False: 0}  # merges with and without a common neighbor
    for k in range(90):
        n = rng.randint(2, 30)
        g = makers[k % 3](n, rng.choice((0.1, 0.3, 0.6)), 500 + k)
        work, h = WorkingGraph(g), to_nx(g)
        for turn in range(rng.randint(1, 5)):
            live = work.vertices
            pairs = {True: [], False: []}
            for i, a in enumerate(live):
                for b in live[i + 1:]:
                    if b not in work.adj[a]:
                        shared = bool(work.adj[a] & work.adj[b])
                        pairs[shared].append((a, b))
            pool = pairs[turn % 2 == 0] or pairs[turn % 2 == 1]
            if not pool:
                break
            a, b = rng.choice(pool)
            kinds[bool(work.adj[a] & work.adj[b])] += 1
            if rng.random() < 0.5:
                a, b = b, a
            ranks = (live.index(a), live.index(b))
            step = contract(work, a, b)
            assert (step.a, step.b) == ranks
            h = nx.contracted_nodes(h, min(a, b), max(a, b), self_loops=False)
            alive = set(work.vertices)
            for v in work.vertices:
                nbrs = work.adj[v]
                assert v not in nbrs and nbrs <= alive
                assert all(v in work.adj[w] for w in nbrs)
            assert {v: set(h.adj[v]) for v in h} == {v: work.adj[v] for v in work.vertices}
    assert kinds[True] > 20 and kinds[False] > 20
