import random
from itertools import combinations

import networkx as nx
import pytest

from artemis_color import (
    ANTIHOLE,
    ODD_HOLE,
    PRISM,
    BudgetExceeded,
    Graph,
    GraphError,
    MaskGraph,
    OpCounters,
    StructureWitness,
    bipartite,
    brute_maximal_interesting_check,
    brute_minimal_outer_path_check,
    chordal,
    chromatic_number_exact,
    enumerate_chordless_paths,
    filtered_random,
    find_antihole,
    find_interesting,
    find_odd_hole,
    find_prism,
    fonlupt_uhry_check,
    interesting_gives_handle_check,
    is_artemis,
    is_even_pair_exact,
    is_interesting_set,
    is_special_even_pair_exact,
    max_clique_exact,
    MaximalInteresting,
    outer_path_exists_criterion,
    random_graph,
)

from artemis_color.oracles import _neighbor_masks, _prism_check, enumerate_outer_paths, mask_of
from conftest import complete_graph, cycle_graph, from_nx, path_graph, prism_graph, to_nx


# --- detectors on the zoo ---------------------------------------------------

def test_odd_hole_c5():
    witness = find_odd_hole(cycle_graph(5))
    assert witness.kind == ODD_HOLE and witness.vertices == (0, 1, 2, 3, 4)


def test_odd_hole_even_cycle():
    assert find_odd_hole(cycle_graph(6)) is None


def test_odd_hole_chorded_c7():
    # The chord splits the 7-cycle into a triangle and a 6-hole: nothing odd.
    g = Graph(7, [(i, (i + 1) % 7) for i in range(7)] + [(0, 2)])
    assert find_odd_hole(g) is None


def test_antihole_co_c7():
    witness = find_antihole(from_nx(nx.complement(to_nx(cycle_graph(7)))))
    assert witness.kind == ANTIHOLE and len(witness.vertices) == 7


def test_antihole_bipartite_none():
    for seed in range(5):
        assert find_antihole(bipartite(9, 0.5, seed)) is None


def test_antihole_c6_none():
    # The complement of a 6-cycle is the prism; it carries no long antihole.
    assert find_antihole(cycle_graph(6)) is None


def test_prism_detects_itself():
    witness = find_prism(prism_graph())
    assert witness.kind == PRISM and witness.vertices == (0, 1, 2, 3, 4, 5)


def test_prism_complement_c6():
    assert find_prism(from_nx(nx.complement(to_nx(cycle_graph(6))))) is not None


def test_prism_triangle_free_none():
    assert find_prism(cycle_graph(6)) is None


def test_prism_subdivided():
    # One side path of length two: still two triangles joined by three
    # disjoint paths.
    g = Graph(7, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                  (0, 6), (6, 3), (1, 4), (2, 5)])
    witness = find_prism(g)
    assert witness is not None and len(witness.vertices) == 7


def test_prism_rejects_walk_back_into_its_triangle():
    # Two diamonds joined by the edge 2-6: the prism's degree profile, and the
    # degree-3 vertices form the triangles {0, 1, 2} and {4, 5, 6}, but the
    # walk leaving 0 by 0-3 comes back to 1, in its own triangle.  The graph
    # is chordal, hence Artemis.
    g = Graph(8, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 3),
                  (4, 5), (5, 6), (4, 6), (4, 7), (5, 7), (2, 6)])
    assert find_prism(g) is None
    assert is_artemis(g)[0]


def test_prism_rejects_leftover_cycle():
    # A triangle beside a prism: the whole vertex set has the prism's degree
    # profile, but the walks miss the triangle, so only {3, ..., 8} counts.
    g = Graph(9, [(0, 1), (1, 2), (0, 2),
                  (3, 4), (4, 5), (3, 5), (6, 7), (7, 8), (6, 8),
                  (3, 6), (4, 7), (5, 8)])
    assert find_prism(g).vertices == (3, 4, 5, 6, 7, 8)


def test_is_artemis():
    ok, witness = is_artemis(cycle_graph(5))
    assert not ok and witness.kind == ODD_HOLE
    for seed in range(5):
        assert is_artemis(chordal(10, 0.5, seed))[0]
        assert is_artemis(bipartite(10, 0.5, seed))[0]


def _prism_with_paths(lengths):
    """Triangles {0, 1, 2} and {3, 4, 5}, with a path of lengths[i] edges
    from i to 3 + i."""
    edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
    n = 6
    for i, length in enumerate(lengths):
        stops = [i] + list(range(n, n + length - 1)) + [3 + i]
        n += length - 1
        edges += list(zip(stops, stops[1:]))
    return Graph(n, edges)


def _relabeled(n, edges, rng):
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph(n, [(perm[u], perm[v]) for u, v in edges])


def test_class_scan_through_a_vertex_matches_full_scan():
    # For every v with g - v in the class, the scan through v gives the full
    # scan's verdict and witness.  The graphs are Artemis graphs plus one
    # vertex, and single structures with pendant trees, relabeled at random so
    # that v is seldom a structure's smallest vertex.
    rng = random.Random(15)
    makers = (chordal, bipartite, filtered_random)
    graphs = []
    for i in range(150):
        n = rng.randint(5, 12)
        base = makers[i % 3](n - 1, rng.choice((0.2, 0.4, 0.6)), rng.randrange(10**6))
        extra = [(u, n - 1) for u in range(n - 1) if rng.random() < 0.5]
        graphs.append(_relabeled(n, list(base.edges()) + extra, rng))
    cores = [cycle_graph(5), cycle_graph(7), from_nx(nx.complement(to_nx(cycle_graph(6)))),
             from_nx(nx.complement(to_nx(cycle_graph(8)))), _prism_with_paths((1, 1, 3)),
             _prism_with_paths((2, 2, 2))]
    for core in cores:
        for _ in range(8):
            n = rng.randint(core.n, 12)
            pendants = [(rng.randrange(v), v) for v in range(core.n, n)]
            graphs.append(_relabeled(n, list(core.edges()) + pendants, rng))
    kinds = {ODD_HOLE: 0, ANTIHOLE: 0, PRISM: 0}
    for g in graphs:
        full = is_artemis(g)
        for v in g.vertices:
            if is_artemis(from_nx(to_nx(g).subgraph(set(g.vertices) - {v})))[0]:
                assert is_artemis(g, through=v) == full, (sorted(g.edges()), v)
                if not full[0]:
                    kinds[full[1].kind] += 1
    assert all(count >= 40 for count in kinds.values()), kinds
    for through in (-1, 4):
        with pytest.raises(GraphError, match="in range"):
            is_artemis(path_graph(4), through=through)


def test_budget_refusal():
    # Subset enumeration is capped at 12 vertices, branch and bound at 16.
    big = path_graph(13)
    for fn in (find_odd_hole, find_antihole, find_prism):
        with pytest.raises(BudgetExceeded):
            fn(big)
        assert fn(path_graph(12)) is None
    # the minimal-outer-path check refuses even a path that is not T-outer
    with pytest.raises(BudgetExceeded):
        brute_minimal_outer_path_check(big, {1}, {0, 2}, (0, 3, 2))
    at_cap, over_cap = path_graph(16), path_graph(17)
    assert max_clique_exact(at_cap) == 2 and chromatic_number_exact(at_cap) == 2
    assert fonlupt_uhry_check(at_cap, 0, 2)
    for check in (max_clique_exact, chromatic_number_exact,
                  lambda g: fonlupt_uhry_check(g, 0, 2)):
        with pytest.raises(BudgetExceeded):
            check(over_cap)


# --- detector completeness against an independent implementation ------------

def _nx_has_odd_hole(g):
    h = to_nx(g)
    for size in (5, 7, 9):
        for sub in combinations(g.vertices, size):
            if nx.is_isomorphic(h.subgraph(sub), nx.cycle_graph(size)):
                return True
    return False


def _nx_has_antihole(g):
    h = nx.complement(to_nx(g))
    for size in range(6, g.n + 1):
        for sub in combinations(g.vertices, size):
            if nx.is_isomorphic(h.subgraph(sub), nx.cycle_graph(size)):
                return True
    return False


def _prism_templates(size):
    # path lengths (p1, p2, p3) with three extra vertices per unit of length
    # beyond one: size = 3 + p1 + p2 + p3
    for p1 in range(1, size - 4):
        for p2 in range(p1, size - 3 - p1):
            p3 = size - 3 - p1 - p2
            if p3 < p2:
                continue
            tmpl = nx.Graph()
            tmpl.add_edges_from([("a0", "a1"), ("a1", "a2"), ("a0", "a2"),
                                 ("b0", "b1"), ("b1", "b2"), ("b0", "b2")])
            for i, length in enumerate((p1, p2, p3)):
                chain = [f"a{i}"] + [f"p{i}_{j}" for j in range(length - 1)] + [f"b{i}"]
                tmpl.add_edges_from(zip(chain, chain[1:]))
            yield tmpl


def _nx_has_prism(g):
    h = to_nx(g)
    for size in range(6, g.n + 1):
        templates = list(_prism_templates(size))
        for sub in combinations(g.vertices, size):
            view = h.subgraph(sub)
            if any(nx.is_isomorphic(view, t) for t in templates):
                return True
    return False


def test_detectors_match_independent_enumeration():
    rng = random.Random(20)
    for _ in range(40):
        g = random_graph(rng.randrange(5, 10), rng.choice((0.25, 0.4, 0.55, 0.7)),
                         rng.randrange(10**6))
        assert (find_odd_hole(g) is not None) == _nx_has_odd_hole(g)
        assert (find_antihole(g) is not None) == _nx_has_antihole(g)
        assert (find_prism(g) is not None) == _nx_has_prism(g)


def test_max_clique_matches_networkx():
    rng = random.Random(22)
    for _ in range(60):
        g = random_graph(rng.randrange(1, 17), rng.choice((0.2, 0.4, 0.6, 0.8)),
                         rng.randrange(10**6))
        expected = max((len(c) for c in nx.find_cliques(to_nx(g))), default=0)
        assert max_clique_exact(g) == expected


def _nx_chordless_paths(g, x, y):
    h = to_nx(g)
    return sorted(tuple(p) for p in nx.all_simple_paths(h, x, y)
                  if not any(h.has_edge(p[i], p[j])
                             for i in range(len(p)) for j in range(i + 2, len(p))))


def test_chordless_paths_match_networkx():
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randrange(2, 11)
        g = random_graph(n, rng.choice((0.25, 0.4, 0.55)), rng.randrange(10**6))
        for x, y in (rng.sample(range(n), 2) for _ in range(3)):
            assert enumerate_chordless_paths(g, x, y) == _nx_chordless_paths(g, x, y)


def test_witnesses_reverify():
    rng = random.Random(21)
    seen = {ODD_HOLE: 0, ANTIHOLE: 0, PRISM: 0}
    samples = [cycle_graph(5), from_nx(nx.complement(to_nx(cycle_graph(7)))), prism_graph()]
    samples += [random_graph(rng.randrange(6, 10), rng.choice((0.3, 0.5, 0.7)),
                             rng.randrange(10**6)) for _ in range(57)]
    for g in samples:
        for witness in (find_odd_hole(g), find_antihole(g), find_prism(g)):
            if witness is None:
                continue
            seen[witness.kind] += 1
            verts = witness.vertices
            if witness.kind == ODD_HOLE:
                assert len(verts) % 2 == 1 and len(verts) >= 5
                assert all(verts[(i + 1) % len(verts)] in g.adj[verts[i]]
                           for i in range(len(verts)))
                assert all(verts[j] not in g.adj[verts[i]]
                           for i in range(len(verts))
                           for j in range(i + 2, len(verts))
                           if (i, j) != (0, len(verts) - 1))
            elif witness.kind == ANTIHOLE:
                co = nx.complement(to_nx(g))
                assert len(verts) >= 6
                assert all(verts[(i + 1) % len(verts)] in co.adj[verts[i]]
                           for i in range(len(verts)))
            else:
                sub = to_nx(g).subgraph(verts)
                assert any(nx.is_isomorphic(sub, t)
                           for t in _prism_templates(len(verts)))
    assert all(count > 0 for count in seen.values())


# --- the connected searches against a walk over every subset ---------------

DETECTORS = {ODD_HOLE: find_odd_hole, ANTIHOLE: find_antihole, PRISM: find_prism}


def _all_subsets_preorder(n):
    # Sorted tuples: lexicographic order, with a prefix before its extensions.
    return sorted(c for r in range(1, n + 1) for c in combinations(range(n), r))


def _first_witness(subsets, min_size, check):
    return next((w for w in (check(s) for s in subsets if len(s) >= min_size)
                 if w is not None), None)


def _cycle_order(masks, subset):
    """Cycle order of the subset from its smallest vertex toward that vertex's
    smaller neighbor in the subset if it induces a chordless cycle, else None."""
    smask = mask_of(subset)
    for v in subset:
        if (masks[v] & smask).bit_count() != 2:
            return None
    start = subset[0]
    first = masks[start] & smask
    order = [start]
    prev, cur = start, (first & -first).bit_length() - 1
    while cur != start:
        order.append(cur)
        prev, cur = cur, (masks[cur] & smask & ~(1 << prev)).bit_length() - 1
    if len(order) != len(subset):
        return None  # two-regular but disconnected: a union of shorter cycles
    return tuple(order)


def _walk_witnesses(g, subsets):
    """Per kind, the first witness of a walk over every subset of g in
    lexicographic order, as (kind, vertices), or None."""
    masks, co_masks = _neighbor_masks(g), _neighbor_masks(from_nx(nx.complement(to_nx(g))))
    checks = {
        ODD_HOLE: (5, lambda s: _cycle_order(masks, s) if len(s) % 2 else None),
        ANTIHOLE: (6, lambda s: _cycle_order(co_masks, s)),
        PRISM: (6, lambda s: s if _prism_check(masks, s) else None),
    }
    result = {}
    for kind, (min_size, check) in checks.items():
        witness = _first_witness(subsets, min_size, check)
        result[kind] = None if witness is None else (kind, witness)
    return result


def _detected(g):
    witnesses = {kind: detector(g) for kind, detector in DETECTORS.items()}
    return {kind: None if w is None else (w.kind, w.vertices) for kind, w in witnesses.items()}


def test_first_witnesses_match_unpruned_walk():
    # Kind and exact vertex order of each detector's first witness, against
    # the first hit of a walk over every subset in the same order.
    rng = random.Random(25)
    preorder = {n: _all_subsets_preorder(n) for n in range(5, 13)}
    found = {ODD_HOLE: 0, ANTIHOLE: 0, PRISM: 0}
    for i in range(320):
        n = 5 + i % 8
        g = random_graph(n, rng.uniform(0.2, 0.85), rng.randrange(10**6))
        got, expected = _detected(g), _walk_witnesses(g, preorder[n])
        for kind in DETECTORS:
            assert got[kind] == expected[kind], (i, kind)
            found[kind] += got[kind] is not None
    assert all(count >= 20 for count in found.values()), found


def test_connected_searches_match_subset_walk():
    graphs = []
    for n in range(4, 13):
        graphs += [filtered_random(n, 0.4, seed) for seed in range(4)]
        for seed in range(23):
            density = (0.2, 0.4, 0.6, 0.8)[seed % 4]
            graphs += [chordal(n, density, seed), bipartite(n, density, seed)]
            graphs += [random_graph(n, d, 100 * seed + n) for d in (0.3, 0.5, 0.7)]
    assert len(graphs) >= 1000
    preorder = {n: _all_subsets_preorder(n) for n in range(4, 13)}
    present = {ODD_HOLE: 0, ANTIHOLE: 0, PRISM: 0}
    for i, g in enumerate(graphs):
        got, expected = _detected(g), _walk_witnesses(g, preorder[g.n])
        for kind in DETECTORS:
            assert got[kind] == expected[kind], (i, kind, sorted(g.edges()))
            present[kind] += expected[kind] is not None
    assert all(20 <= count <= len(graphs) - 20 for count in present.values()), present


def test_connected_searches_on_hand_built_graphs():
    for n in (5, 7):
        assert find_odd_hole(cycle_graph(n)).vertices == tuple(range(n))
    assert find_odd_hole(cycle_graph(6)) is None
    for n in (6, 7):
        antihole = from_nx(nx.complement(to_nx(cycle_graph(n))))
        assert find_antihole(antihole).vertices == tuple(range(n))
    # Triangles {0, 1, 2} and {3, 4, 5} joined by paths of lengths 1, 2 and 3.
    triangles = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
    prism = Graph(9, triangles + [(0, 3), (1, 6), (6, 4), (2, 7), (7, 8), (8, 5)])
    assert find_prism(prism).vertices == tuple(range(9))
    two_paths = Graph(7, triangles + [(0, 3), (1, 6), (6, 4)])
    assert find_prism(two_paths) is None


@pytest.mark.parametrize("kind", [ODD_HOLE, ANTIHOLE, PRISM])
def test_connected_searches_find_structures_above_low_pendants(kind):
    # Vertices 0 and 1 are pendants, so no structure can hold them, and the
    # searches must start at a later smallest vertex.
    core = {ODD_HOLE: cycle_graph(7), ANTIHOLE: from_nx(nx.complement(to_nx(cycle_graph(7)))),
            PRISM: prism_graph()}[kind]
    g = Graph(core.n + 2, [(u + 2, v + 2) for u, v in core.edges()] + [(0, 2), (1, 4)])
    witness = _detected(g)[kind]
    assert witness == _walk_witnesses(g, _all_subsets_preorder(g.n))[kind]
    assert witness is not None and min(witness[1]) >= 2


# Two structures share the smallest vertex 0.  The hole search pops the
# largest extension first, and the prism walk adds 0's neighbor 2 before its
# non-neighbor 1, so each meets the second structure first; the witness is
# still the one whose sorted vertex set comes first.
_TWO_HOLES = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 5), (5, 6), (6, 7), (7, 0)]
_TWO_LONG_HOLES = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0),
                   (1, 6), (6, 7), (7, 8), (8, 9), (9, 0)]
_TWO_PRISMS = [(0, 3), (3, 4), (0, 4), (1, 5), (5, 6), (1, 6), (0, 5), (3, 1), (4, 6),
               (0, 2), (2, 7), (0, 7), (8, 9), (9, 10), (8, 10), (0, 8), (2, 9), (7, 10)]


@pytest.mark.parametrize("kind, graph, expected", [
    (ODD_HOLE, Graph(8, _TWO_HOLES), (0, 1, 2, 3, 4)),
    (ANTIHOLE, from_nx(nx.complement(to_nx(Graph(10, _TWO_LONG_HOLES)))), (0, 1, 2, 3, 4, 5)),
    (PRISM, Graph(11, _TWO_PRISMS), (0, 1, 3, 4, 5, 6)),
])
def test_witness_is_first_by_vertex_set_not_first_met(kind, graph, expected):
    assert DETECTORS[kind](graph) == StructureWitness(kind, expected)


# --- chordless paths and even pairs -----------------------------------------

def test_chordless_paths_p4():
    assert enumerate_chordless_paths(path_graph(4), 0, 3) == [(0, 1, 2, 3)]


def test_chordless_paths_c6():
    assert enumerate_chordless_paths(cycle_graph(6), 0, 2) == [(0, 1, 2), (0, 5, 4, 3, 2)]


def test_chordless_paths_k4_adjacent_pair():
    assert enumerate_chordless_paths(complete_graph(4), 0, 3) == [(0, 3)]


def test_even_pair_c6():
    g = cycle_graph(6)
    assert is_even_pair_exact(g, 0, 2)
    assert not is_even_pair_exact(g, 0, 3)


def test_even_pair_disconnected_is_vacuous():
    g = Graph(4, [(0, 1), (2, 3)])
    assert is_even_pair_exact(g, 0, 2)


def test_even_pair_rejects_adjacent():
    with pytest.raises(GraphError):
        is_even_pair_exact(path_graph(2), 0, 1)


@pytest.mark.parametrize("check", [is_even_pair_exact, is_special_even_pair_exact])
@pytest.mark.parametrize("x, y", [(5, 0), (-1, 3), (2, 2)])
def test_even_pair_rejects_pairs_out_of_range(check, x, y):
    with pytest.raises(GraphError, match="two distinct vertices in range"):
        check(path_graph(5), x, y)


def test_even_pair_is_symmetric():
    rng = random.Random(31)
    for _ in range(40):
        g = random_graph(8, 0.4, rng.randrange(10**6))
        u, v = rng.sample(range(8), 2)
        if v in g.adj[u]:
            continue
        assert is_even_pair_exact(g, u, v) == is_even_pair_exact(g, v, u)


def test_special_even_pair_exact():
    assert is_special_even_pair_exact(cycle_graph(6), 0, 2)
    g = chordal(8, 0.5, 2)
    pairs = [(u, v) for u in range(8) for v in range(u + 1, 8) if v not in g.adj[u]]
    for u, v in pairs:
        if is_even_pair_exact(g, u, v):
            merged = from_nx(nx.contracted_nodes(to_nx(g), u, v, self_loops=False))
            if find_prism(merged) is None:
                assert is_special_even_pair_exact(g, u, v)
    assert not is_special_even_pair_exact(cycle_graph(6), 0, 3)  # not even


# --- exact chromatic number and clique number --------------------------------

@pytest.mark.parametrize("n", [1, 3, 5])
def test_chi_omega_complete(n):
    assert chromatic_number_exact(complete_graph(n)) == n
    assert max_clique_exact(complete_graph(n)) == n


def test_chi_omega_zoo():
    assert chromatic_number_exact(cycle_graph(6)) == 2
    assert max_clique_exact(cycle_graph(6)) == 2
    assert chromatic_number_exact(prism_graph()) == 3
    assert max_clique_exact(prism_graph()) == 3
    assert chromatic_number_exact(cycle_graph(5)) == 3


def test_chi_at_least_omega_and_equal_on_artemis():
    rng = random.Random(41)
    for _ in range(30):
        g = random_graph(9, 0.5, rng.randrange(10**6))
        chi, omega = chromatic_number_exact(g), max_clique_exact(g)
        assert chi >= omega
        if is_artemis(g)[0]:
            assert chi == omega


# --- structural brute-force checks ------------------------------------------

def test_brute_maximal_interesting():
    assert brute_maximal_interesting_check(path_graph(4), {1})
    assert not brute_maximal_interesting_check(cycle_graph(4), {1})
    assert brute_maximal_interesting_check(cycle_graph(4), {1, 3})
    # {9} is past the last vertex and {-1} would wrap to vertex 3
    for check in (is_interesting_set, brute_maximal_interesting_check):
        for tset in ({9}, {-1}, {1, 9}):
            with pytest.raises(GraphError, match="in range"):
                check(path_graph(4), tset)


def test_brute_minimal_outer_path():
    g = cycle_graph(6)
    assert brute_minimal_outer_path_check(g, {1}, {0, 2}, (0, 5, 4, 3, 2))
    # the endpoint 1 lies in T, not in the complete set
    assert not brute_minimal_outer_path_check(g, {1}, {0, 2}, (0, 5, 4, 3, 2, 1))
    # too short, or a vertex repeated
    assert not brute_minimal_outer_path_check(g, {1}, {0, 2}, (0, 2))
    assert not brute_minimal_outer_path_check(g, {1}, {0, 2}, (0, 5, 4, 5, 2))
    # interior touching T
    assert not brute_minimal_outer_path_check(g, {1}, {0, 2}, (0, 1, 2))
    # interior touching the complete set
    assert not brute_minimal_outer_path_check(g, {1}, {0, 2, 4}, (0, 5, 4, 3, 2))
    # consecutive vertices 5 and 3 are not adjacent
    assert not brute_minimal_outer_path_check(g, {1}, {0, 2}, (0, 5, 3, 2))
    # the chord 3-5
    chorded = Graph(6, [(i, (i + 1) % 6) for i in range(6)] + [(3, 5)])
    assert not brute_minimal_outer_path_check(chorded, {1}, {0, 2}, (0, 5, 4, 3, 2))
    # a complete vertex 6 sees 4, so the outer path 0-5-4-6 has a smaller interior
    shortcut = Graph(7, [(i, (i + 1) % 6) for i in range(6)] + [(1, 6), (4, 6)])
    assert not brute_minimal_outer_path_check(shortcut, {1}, {0, 2, 6}, (0, 5, 4, 3, 2))
    # odd length is rejected outright
    c5 = cycle_graph(5)
    assert not brute_minimal_outer_path_check(c5, {1}, {0, 2}, (0, 4, 3, 2))


def test_outer_path_oracles_reject_out_of_range_vertices():
    g = cycle_graph(6)
    # 9 is past the last vertex; -1 would wrap to vertex 5
    cases = [
        (brute_minimal_outer_path_check, ({0}, {9, 5}, (9, 2, 3, 4, 5))),
        (brute_minimal_outer_path_check, ({0}, {-1, 1}, (-1, 4, 3, 2, 1))),
        (outer_path_exists_criterion, ({0}, {1, 9})),
        (enumerate_outer_paths, ({0}, {1, 9})),
    ]
    for check, args in cases:
        with pytest.raises(GraphError, match="in range"):
            check(g, *args)


def test_outer_path_oracles_match_networkx():
    rng = random.Random(29)
    found = 0
    for _ in range(400):
        n = rng.randrange(3, 11)
        g = random_graph(n, rng.choice((0.2, 0.35, 0.5, 0.65)), rng.randrange(10**6))
        roles = [rng.randrange(3) for _ in range(n)]  # 0: in T, 1: in C, 2: neither
        tset = {v for v in range(n) if roles[v] == 0}
        cset = {v for v in range(n) if roles[v] == 1}
        expected = sorted(p for x, y in combinations(sorted(cset), 2)
                          for p in _nx_chordless_paths(g, x, y)
                          if len(p) > 2 and not set(p[1:-1]) & (tset | cset))
        paths = enumerate_outer_paths(g, tset, cset)
        assert paths == expected
        assert outer_path_exists_criterion(g, tset, cset) == bool(paths)
        found += bool(paths)
    assert found > 50


def test_fonlupt_uhry():
    assert fonlupt_uhry_check(cycle_graph(6), 0, 2)
    assert fonlupt_uhry_check(path_graph(4), 0, 2)
    g = Graph(4, [(0, 1), (2, 3)])
    assert fonlupt_uhry_check(g, 0, 2)
    # Odd pair: merging 0 and 2 of C5 closes the triangle {0, 3, 4}.
    assert not fonlupt_uhry_check(cycle_graph(5), 0, 2)


# --- mask views against Graph inputs ------------------------------------------

def test_mask_views_agree_with_induced_graphs():
    # A view of a domain in the input's ids must give what the same oracle
    # gives on the induced Graph, with witnesses and paths in the input's ids.
    rng = random.Random(26)
    seen = {"outside the class": 0, "interesting": 0, "outer paths": 0}
    for _ in range(150):
        n = rng.randrange(2, 13)
        g = random_graph(n, rng.choice((0.25, 0.4, 0.55, 0.7)), rng.randrange(10**6))
        domain = frozenset(v for v in range(n) if rng.random() < 0.8) or frozenset({0})
        sub, old_ids = from_nx(to_nx(g).subgraph(domain)), tuple(sorted(domain))
        new_id = {old: new for new, old in enumerate(old_ids)}
        view = MaskGraph([mask_of(g.adj[v] & domain) if v in domain else 0 for v in range(n)],
                         mask_of(domain))

        def old(seq):
            return tuple(old_ids[i] for i in seq)

        def in_old_ids(result):
            ok, witness = result
            return ok, witness and StructureWitness(witness.kind, old(witness.vertices))

        assert is_artemis(view) == in_old_ids(is_artemis(sub))
        seen["outside the class"] += not is_artemis(view)[0]
        for v in domain:
            assert is_artemis(view, through=v) == in_old_ids(is_artemis(sub, through=new_id[v]))
        assert find_prism(view) == in_old_ids((None, find_prism(sub)))[1]
        assert max_clique_exact(view) == max_clique_exact(sub)
        assert chromatic_number_exact(view) == chromatic_number_exact(sub)
        for x, y in combinations(sorted(domain), 2):
            a, b = new_id[x], new_id[y]
            if y in g.adj[x]:
                continue
            assert enumerate_chordless_paths(view, x, y) == [
                old(p) for p in enumerate_chordless_paths(sub, a, b)]
            for check in (is_even_pair_exact, is_special_even_pair_exact, fonlupt_uhry_check):
                assert check(view, x, y) == check(sub, a, b)
            # The merge keeps the smaller id, as the dense merge does after
            # renumbering: a < b, and the ids above b shift down by one.
            merged, kept = view.merge(x, y), [v for v in old_ids if v != max(x, y)]
            dense = from_nx(nx.contracted_nodes(to_nx(sub), a, b, self_loops=False))
            assert merged.live == mask_of(kept)
            assert [merged.masks[v] for v in kept] == [
                mask_of(kept[w] for w in dense.adj[i]) for i in range(dense.n)]
        level = find_interesting(sub, set(sub.vertices), OpCounters())
        tsets = [set(rng.sample(sorted(domain), rng.randrange(1, 3) if len(domain) > 1 else 1))]
        if isinstance(level, MaximalInteresting):
            tsets.append(set(old(sorted(level.tset))))
        for tset in tsets:
            t_new = {new_id[v] for v in tset}
            assert is_interesting_set(view, tset) == is_interesting_set(sub, t_new)
            assert (brute_maximal_interesting_check(view, tset)
                    == brute_maximal_interesting_check(sub, t_new))
            if not is_interesting_set(sub, t_new):
                continue
            seen["interesting"] += 1
            assert interesting_gives_handle_check(view, tset) == \
                interesting_gives_handle_check(sub, t_new)
            c_new = set.intersection(*(set(sub.adj[v]) for v in t_new)) - t_new
            cset = set(old(sorted(c_new)))
            assert outer_path_exists_criterion(view, tset, cset) == \
                outer_path_exists_criterion(sub, t_new, c_new)
            outer = enumerate_outer_paths(sub, t_new, c_new)
            assert enumerate_outer_paths(view, tset, cset) == [old(p) for p in outer]
            seen["outer paths"] += bool(outer)
            for path in outer:
                assert brute_minimal_outer_path_check(view, tset, cset, old(path)) == \
                    brute_minimal_outer_path_check(sub, t_new, c_new, path)
    assert all(count >= 20 for count in seen.values()), seen
