"""Deterministic instance generators for the three test families.

Chordal and bipartite graphs are Artemis by construction (chordal graphs have
no holes at all, and every antihole of length six or more and every prism
contains a four-hole; bipartite graphs have no odd cycles and no triangles,
which rules out the long antiholes and prisms too).  The filtered-random
family rejection-samples arbitrary graphs through the exact detectors.
``generate`` alone checks a request, n up to the DIMACS reader's limit
included; a sampler checks only its own rules, and takes n = 0.

The edge samplers draw one random number per candidate pair, in ascending
(u, v) order, so a seed fixes the graph.  ``bipartite``'s candidates are its
cross pairs; ``random_graph``'s and ``filtered_random``'s are all pairs.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from typing import Iterable, Iterator, Sequence

from .dimacs import MAX_VERTICES
from .graphs import Graph, GraphError
from .oracles import MAX_SUBSET_N, BudgetExceeded, is_artemis


def _binomial(rng: random.Random, trials: int, p: float) -> int:
    return sum(1 for _ in range(trials) if rng.random() < p)


def _draw_edges(rng: random.Random, density: float,
                rows: Iterable[tuple[int, Sequence[int]]]) -> list[tuple[int, int]]:
    """Keep each candidate pair with probability density, one draw per pair.

    ``rows`` yields (u, partners) with u ascending and the partners of u
    ascending and above u, so the draws come in ascending (u, v) order.
    """
    draw = rng.random
    return [(u, v) for u, partners in rows for v in partners if draw() < density]


def _all_pairs(n: int) -> Iterator[tuple[int, range]]:
    return ((u, range(u + 1, n)) for u in range(n))


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
    """Random bipartition with each cross edge present independently.

    After one draw per vertex for its side, one draw per cross pair in
    ascending (u, v) order; same-side pairs take no draw.
    """
    rng = random.Random(seed)
    side = [rng.random() < 0.5 for _ in range(n)]
    members = ([v for v in range(n) if not side[v]], [v for v in range(n) if side[v]])
    rows = ((u, other[bisect_right(other, u):])
            for u, other in enumerate(members[not s] for s in side))
    return Graph(n, _draw_edges(rng, density, rows))


def random_graph(n: int, density: float, seed: int) -> Graph:
    """Plain Erdos-Renyi style graph, one draw per pair; not Artemis in general."""
    return Graph(n, _draw_edges(random.Random(seed), density, _all_pairs(n)))


def filtered_random(n: int, density: float, seed: int) -> Graph:
    """Random graph rejection-sampled through the exact class detectors."""
    if n > MAX_SUBSET_N:
        raise BudgetExceeded(
            f"filtered-random needs the detectors, capped at {MAX_SUBSET_N} vertices")
    rng = random.Random(seed)
    while True:
        g = Graph(n, _draw_edges(rng, density, _all_pairs(n)))
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
