"""The graph core, and each graph operation the pipeline runs on small
hand-checked cases: contraction in the engine's working graph; complement,
complete sets, cliques and induced views in the oracles' bitmasks."""

import ast
import inspect
import re
from dataclasses import fields
from pathlib import Path

import pytest

from artemis_color import (BenchResult, ContractionStep, ContractionTrace, Graph, GraphError,
                           OpCounters, OracleVerifier, components)
from artemis_color import graphs
from artemis_color.engine import WorkingGraph, contract
from artemis_color.oracles import (_complement, _complete, _components, _is_clique, _view,
                                   find_prism, mask_of)

from conftest import complete_graph, cycle_graph, path_graph, prism_graph, to_nx


def test_new_graph_path():
    g = path_graph(4)
    assert g.n == 4 and g.m == 3
    assert tuple(sorted(g.adj[1])) == (0, 2)


def test_new_graph_single_vertex():
    g = Graph(1, [])
    assert g.n == 1 and g.m == 0


def test_new_graph_prism():
    assert prism_graph().m == 9


def test_new_graph_dedupes():
    g = Graph(3, [(0, 1), (1, 0), (0, 1)])
    assert g.m == 1


@pytest.mark.parametrize("edges", [[(0, 3)], [(1, 1)], [(-1, 0)]])
def test_new_graph_rejects_bad_edges(edges):
    with pytest.raises(GraphError):
        Graph(3, edges)


def test_contract_p4():
    g = WorkingGraph(path_graph(4))
    step = contract(g, 0, 2)
    assert g.vertices == [0, 1, 3] and g.adj[0] == {1, 3} and not g.adj[2]
    assert (step.a, step.b, step.merged) == (0, 2, 0)


def test_contract_c6_creates_four_hole():
    g = WorkingGraph(cycle_graph(6))
    step = contract(g, 0, 2)
    # The survivors keep their ids; in the dense renumbering 3, 4 and 5 are
    # 2, 3 and 4.
    assert g.vertices == [0, 1, 3, 4, 5] and step.merged == 0
    assert g.adj[0] == {1, 3, 5}
    hole = [0, 3, 4, 5]
    for i in range(4):
        assert hole[(i + 1) % 4] in g.adj[hole[i]]
    assert hole[2] not in g.adj[hole[0]] and hole[3] not in g.adj[hole[1]]


def test_contract_isolated_pair():
    g = WorkingGraph(Graph(2, []))
    step = contract(g, 1, 0)
    assert g.vertices == [0] and not g.adj[0] and (step.a, step.b) == (1, 0)


def test_contract_rejects_adjacent():
    with pytest.raises(GraphError):
        contract(WorkingGraph(path_graph(2)), 0, 1)


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
        work, final_id = WorkingGraph(g), list(range(g.n))
        for _ in range(rng.randint(1, 3)):
            nonadj = [(u, v) for u in work.vertices for v in work.vertices
                      if u != v and v not in work.adj[u]]
            if not nonadj:
                break
            a, b = nonadj[rng.randrange(len(nonadj))]
            trace.append(contract(work, a, b))
            final_id = [min(a, b) if w == max(a, b) else w for w in final_id]
        # the rainbow coloring of the contracted graph, proper on any graph
        n = len(work.vertices)
        rainbow = Coloring(tuple(range(n)), n)
        lifted = lift_coloring(trace, rainbow, original_graph=g)  # raises if improper
        assert lifted.colors == tuple(work.vertices.index(w) for w in final_id)


def test_complement_k3():
    assert not any(_complement(_view(complete_graph(3))).masks)


def test_complement_c5_is_five_cycle():
    cc = _complement(_view(cycle_graph(5)))
    assert all(mask.bit_count() == 2 for mask in cc.masks)
    assert list(_components(cc.masks, cc.live)) == [cc.live]


def test_complement_c6_is_prism():
    assert find_prism(_complement(_view(cycle_graph(6)))) is not None


def test_complement_involution():
    g = _view(Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 4)]))
    assert _complement(_complement(g)) == g


def test_induced():
    # A view of a vertex subset keeps the input's ids; other ids read empty.
    sub = _view(cycle_graph(6), on={0, 1, 2})
    assert sub.live == 0b111 and sub.masks == [0b10, 0b101, 0b10]
    assert _view(cycle_graph(6), on={1, 4}) == ([0, 0, 0, 0, 0], 0b10010)
    assert _view(path_graph(5)) == ([0b10, 0b101, 0b1010, 0b10100, 0b1000], 0b11111)
    assert _view(path_graph(5), on=set()) == ([], 0)
    # The working graph's merged-away id reads empty and leaves the live mask.
    work = WorkingGraph(path_graph(5))
    contract(work, 1, 3)
    assert _view(work) == ([0b10, 0b10101, 0b10, 0, 0b10], 0b10111)


def test_common_complete():
    assert _complete(_view(path_graph(4)), mask_of({1})) == mask_of({0, 2})
    assert _complete(_view(complete_graph(4)), mask_of({0})) == mask_of({1, 2, 3})
    assert _complete(_view(cycle_graph(6)), mask_of({0, 3})) == 0


def test_common_complete_never_meets_the_set():
    import random

    from artemis_color import random_graph

    rng = random.Random(11)
    for _ in range(30):
        g = random_graph(9, 0.5, rng.randrange(10**6))
        tset = mask_of(rng.sample(range(9), rng.randrange(1, 5)))
        assert not _complete(_view(g), tset) & tset


def test_is_clique():
    masks = _view(path_graph(4)).masks
    assert _is_clique(masks, 0)
    assert _is_clique(masks, mask_of({2}))
    assert not _is_clique(masks, mask_of({0, 2}))
    assert _is_clique(_view(complete_graph(3)).masks, mask_of({0, 1, 2}))


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
            h = to_nx(g)
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


def test_trace_rejects_overlong_and_mismatched_steps():
    step = ContractionStep(0, 2)
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


@pytest.mark.parametrize("make, message", [
    (lambda: Graph(-1, []), "vertex count must be non-negative, got -1"),
    (lambda: Graph(2, [(0, 2)]), "edge (0, 2) out of range for n=2"),
    (lambda: Graph(2, [(1, 1)]), "self-loop at vertex 1 is not allowed"),
], ids=["negative-n", "edge-out-of-range", "self-loop"])
def test_graph_refusals_name_their_cause(make, message):
    with pytest.raises(GraphError, match=f"^{re.escape(message)}$"):
        make()


@pytest.mark.parametrize("record, arguments", [
    (ContractionTrace, ["original_n"]),
    (OpCounters, []),
    (OracleVerifier, []),
    (BenchResult, []),
])
def test_records_take_only_what_their_caller_knows(record, arguments):
    # Every other field is filled by the code that owns the record.
    assert [f.name for f in fields(record) if f.init] == arguments


def test_trace_steps_enter_only_through_append():
    # A constructor route would skip append's range check, and lift_coloring
    # would then fail with a bare IndexError.
    with pytest.raises(TypeError, match="steps"):
        ContractionTrace(2, steps=[ContractionStep(5, 9)])


def _graphs_names_used(module: Path) -> set[str]:
    """Names imported from ``graphs`` that the module reads outside its imports."""
    tree = ast.parse(module.read_text())
    imported = {alias.asname or alias.name: alias.name
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "graphs"
                for alias in node.names}
    return {imported[node.id] for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id in imported}


def test_every_public_graphs_function_has_a_package_caller():
    # No helper lives in graphs.py only for the tests.  components is the one
    # exception: the engine imports it unused because perfbench/tracer.py
    # times it as engine.components.
    package = Path(graphs.__file__).parent
    used = set().union(*(_graphs_names_used(path) for path in package.glob("*.py")
                         if path.name not in ("graphs.py", "__init__.py")))
    public = {name for name, obj in vars(graphs).items()
              if inspect.isfunction(obj) and obj.__module__ == graphs.__name__
              and not name.startswith("_")}
    assert not public - used - {"components"}, f"graphs functions no module calls: {public - used}"
