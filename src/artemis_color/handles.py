"""Generalized handles and their correspondence with maximal interesting sets.

A generalized handle is a vertex set H containing an edge such that some
component J of the graph minus N(H), distinct from H, has N(J) = N(H), and
every vertex of N(H) sees at least one endpoint of every edge inside H.  The
co-handle J of a found handle is a maximal interesting set of the complement,
which makes this module a cross-validation route for the main pipeline; it is
never used to color anything.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .graphs import Graph, GraphError, common_complete, complement, components, is_clique
from .oracles import MAX_SUBSET_N, brute_maximal_interesting_check, _require


class HandleSearchDiverged(RuntimeError):
    """The refit loop exceeded its iteration cap; surfaced, never swallowed."""


@dataclass(frozen=True)
class GeneralizedHandle:
    """A handle H, one of its co-handles J, and their shared boundary N(H)=N(J)."""

    handle: frozenset[int]
    cohandle: frozenset[int]
    boundary: frozenset[int]


def _neighborhood(g: Graph, vertices: Iterable[int]) -> set[int]:
    members = set(vertices)
    out: set[int] = set()
    for v in members:
        out |= g.adj[v]
    return out - members


def _first_missed(g: Graph, candidates: Iterable[int],
                  edges: Iterable[tuple[int, int]]) -> tuple[int, tuple[int, int]] | None:
    """Smallest vertex missing some edge, with the lexicographically smallest
    such edge (a vertex misses an edge when it sees neither endpoint and is
    not an endpoint itself)."""
    edge_list = sorted(edges)
    for v in sorted(set(candidates)):
        for a, b in edge_list:
            if v != a and v != b and a not in g.adj[v] and b not in g.adj[v]:
                return v, (a, b)
    return None


def _refit(g: Graph, v: int, edge: tuple[int, int]) -> tuple[set[int], set[int]]:
    """New co-handle: the component of v once everything seeing the edge is
    removed; the handle is whatever neither touches nor belongs to it."""
    a, b = edge
    removed = (g.adj[a] | g.adj[b]) - {a, b}
    domain = set(g.vertices) - removed
    cohandle = next(c for c in components(g, domain) if v in c)
    handle = set(g.vertices) - cohandle - _neighborhood(g, cohandle)
    return handle, cohandle


def _inner_edges(g: Graph, vertices: set[int]) -> list[tuple[int, int]]:
    return [(u, w) for u in vertices for w in g.adj[u]
            if w > u and w in vertices]


def find_generalized_handle(g: Graph, *, max_iterations: int | None = None,
                            ) -> GeneralizedHandle | None:
    """Generalized handle of g, or None when every vertex sees every edge.

    Starting from any vertex missing any edge, the co-handle/handle split is
    refitted while some boundary vertex still misses an edge of the handle.
    Choices follow smallest vertex id, then lexicographically smallest edge.
    The loop has no termination proof, so it carries an n^2 iteration cap and
    raises instead of spinning.
    """
    first = _first_missed(g, g.vertices, g.edges())
    if first is None:
        return None
    cap = max_iterations if max_iterations is not None else max(1, g.n * g.n)
    v, edge = first
    handle, cohandle = _refit(g, v, edge)
    iterations = 0
    while True:
        boundary = _neighborhood(g, handle)
        nxt = _first_missed(g, boundary, _inner_edges(g, handle))
        if nxt is None:
            break
        iterations += 1
        if iterations > cap:
            raise HandleSearchDiverged(
                f"handle refit did not settle within {cap} iterations")
        v, edge = nxt
        handle, cohandle = _refit(g, v, edge)
    boundary = _neighborhood(g, handle)
    # By construction the co-handle's boundary sits inside the removed
    # neighborhood of the last edge, whose endpoints stay in the handle, so
    # the two boundaries coincide.
    assert boundary == _neighborhood(g, cohandle)
    return GeneralizedHandle(frozenset(handle), frozenset(cohandle), frozenset(boundary))


def is_generalized_handle(g: Graph, handle: Iterable[int], cohandle: Iterable[int]) -> bool:
    """Definition check used by the property tests and the interesting-set route."""
    hset = set(handle)
    jset = set(cohandle)
    if not jset or hset & jset:
        return False
    inner = _inner_edges(g, hset)
    if not inner:
        return False
    boundary = _neighborhood(g, hset)
    if _neighborhood(g, jset) != boundary:
        return False
    if jset not in components(g, set(g.vertices) - boundary):
        return False
    for v in boundary:
        for a, b in inner:
            if a not in g.adj[v] and b not in g.adj[v]:
                return False
    return True


def cohandle_is_max_interesting(g: Graph, found: GeneralizedHandle) -> bool:
    """The co-handle of a found handle is a maximal interesting set of the
    complement; verified by the brute-force check."""
    return brute_maximal_interesting_check(complement(g), found.cohandle)


def interesting_gives_handle_check(g: Graph, tset: Iterable[int]) -> bool:
    """A maximal interesting set T of g yields a handle of the complement: any
    co-connected component H of the subgraph on T's complete set with at least
    two vertices is a handle there, with T as a co-handle."""
    _require(g.n, MAX_SUBSET_N, "interesting-to-handle check")
    members = set(tset)
    cset = common_complete(g, members)
    if is_clique(g, cset):
        raise GraphError("the complete set of an interesting set cannot be a clique")
    gc = complement(g)
    big = [comp for comp in components(gc, cset) if len(comp) >= 2]
    assert big, "a non-clique set always has a co-connected part with an edge"
    return is_generalized_handle(gc, big[0], members)
