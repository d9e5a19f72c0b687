"""Deterministic instance generators for the three test families.

Chordal and bipartite graphs are Artemis by construction (chordal graphs have
no holes at all, and every antihole of length six or more and every prism
contains a four-hole; bipartite graphs have no odd cycles and no triangles,
which rules out the long antiholes and prisms too).  The filtered-random
family rejection-samples arbitrary graphs through the exact detectors.
``generate`` alone checks a request, n up to the DIMACS reader's limit
included; a sampler checks only its own rules, and takes n = 0.
"""

from __future__ import annotations

import random

from .dimacs import MAX_VERTICES
from .graphs import Graph, GraphError
from .oracles import MAX_SUBSET_N, BudgetExceeded, is_artemis


def _binomial(rng: random.Random, trials: int, p: float) -> int:
    return sum(1 for _ in range(trials) if rng.random() < p)


def chordal(n: int, density: float, seed: int) -> Graph:
    """Random chordal graph by incremental simplicial construction.

    A seed clique takes a density-sized share of the vertices; every later
    vertex picks an existing clique and attaches to a random subset of it, so
    its neighborhood is a clique at insertion time and the insertion order
    reversed is a perfect elimination ordering.
    """
    rng = random.Random(seed)
    base = max(1, min(n, round(density * n)))
    edges = [(u, v) for u in range(base) for v in range(u + 1, base)]
    cliques: list[tuple[int, ...]] = [tuple(range(base))]
    for v in range(base, n):
        anchor = cliques[rng.randrange(len(cliques))]
        want = 1 + _binomial(rng, len(anchor) - 1, density)
        nbrs = sorted(rng.sample(anchor, min(want, len(anchor))))
        edges.extend((u, v) for u in nbrs)
        cliques.append(tuple(nbrs) + (v,))
    return Graph(n, edges)


def bipartite(n: int, density: float, seed: int) -> Graph:
    """Random bipartition with each cross edge present independently."""
    rng = random.Random(seed)
    side = [rng.random() < 0.5 for _ in range(n)]
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if side[u] != side[v] and rng.random() < density]
    return Graph(n, edges)


def random_graph(n: int, density: float, seed: int) -> Graph:
    """Plain Erdos-Renyi style graph; not Artemis in general."""
    rng = random.Random(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < density]
    return Graph(n, edges)


def filtered_random(n: int, density: float, seed: int) -> Graph:
    """Random graph rejection-sampled through the exact class detectors."""
    if n > MAX_SUBSET_N:
        raise BudgetExceeded(
            f"filtered-random needs the detectors, capped at {MAX_SUBSET_N} vertices")
    rng = random.Random(seed)
    while True:
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < density]
        g = Graph(n, edges)
        ok, _ = is_artemis(g)
        if ok:
            return g


FAMILIES = {
    "chordal": chordal,
    "bipartite": bipartite,
    "filtered-random": filtered_random,
}


def generate(family: str, n: int, density: float, seed: int) -> Graph:
    """Check the request and dispatch by family name; deterministic for a fixed seed."""
    try:
        maker = FAMILIES[family]
    except KeyError:
        raise GraphError(f"unknown family {family!r}; pick one of {sorted(FAMILIES)}")
    if not 0 <= density <= 1:
        raise GraphError(f"density must lie in [0, 1], got {density}")
    if n < 1:
        raise GraphError(f"{family} generator needs n >= 1")
    if n > MAX_VERTICES:
        raise GraphError(f"{family} generator needs n <= {MAX_VERTICES}")
    return maker(n, density, seed)
