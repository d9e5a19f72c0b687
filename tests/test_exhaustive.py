"""Every Artemis graph on at most seven vertices, and opt-in on eight.

networkx's graph atlas lists every graph on at most seven vertices up to
isomorphism.  Tie-breaks depend on vertex ids, so the atlas sweep also runs
two seeded relabelings.  Each Artemis graph must pass every
``OracleVerifier`` check and be colored with chi colors.  The eight-vertex
sweep extends each seven-vertex atlas graph by a vertex 7 with each of its
128 neighborhoods, which reaches every graph on eight vertices; it takes
minutes, so it is marked ``slow`` and runs only with ``pytest -m slow``.
"""

import random
from functools import cache

import pytest
from networkx.generators.atlas import graph_atlas_g

from artemis_color import Graph, OracleVerifier, chromatic_number_exact, color_artemis, is_artemis


@cache
def _atlas():
    """(n, edges) of every non-empty atlas graph, in atlas order."""
    return [(h.number_of_nodes(), sorted(h.edges())) for h in graph_atlas_g()[1:]]


def _check_if_artemis(n, edges):
    """Colors and verifies the graph when it is Artemis; says whether it is."""
    g = Graph(n, edges)
    if not is_artemis(g)[0]:
        return False
    verifier = OracleVerifier()
    coloring, _ = color_artemis(g, observer=verifier)
    assert verifier.ok, (n, edges, verifier.failures)
    assert coloring.num_colors == chromatic_number_exact(g), (n, edges)
    return True


@pytest.mark.parametrize("seed", [None, 1, 2])
def test_every_artemis_graph_on_at_most_seven_vertices(seed):
    rng = random.Random(seed)
    artemis = 0
    for n, edges in _atlas():
        label = list(range(n))
        if seed is not None:
            rng.shuffle(label)
        artemis += _check_if_artemis(n, [(label[u], label[v]) for u, v in edges])
    assert artemis == 1094


@pytest.mark.slow
def test_every_artemis_graph_on_eight_vertices():
    graphs = artemis = 0
    for n, edges in _atlas():
        if n != 7:
            continue
        for nbrs in range(128):
            graphs += 1
            artemis += _check_if_artemis(8, edges + [(v, 7) for v in range(7) if nbrs >> v & 1])
    assert (graphs, artemis) == (133632, 94828)
