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
from typing import Iterable, Sequence

from .graphs import Graph, GraphError
from .oracles import (MAX_SUBSET_N, MaskGraph, _complement, _complete, _components,
                      _is_clique, _members, _union, _view, brute_maximal_interesting_check,
                      iter_bits)


@dataclass(frozen=True)
class GeneralizedHandle:
    """A handle H and one of its co-handles J; they share the boundary N(H) = N(J)."""

    handle: frozenset[int]
    cohandle: frozenset[int]


def _first_missed(masks: Sequence[int], candidates: int,
                  within: int) -> tuple[int, int, int] | None:
    """Smallest candidate missing some edge inside within, with the
    lexicographically smallest such edge (a vertex misses an edge when it sees
    neither endpoint and is not an endpoint itself): its first endpoint is the
    smallest missed vertex with a missed neighbor, all of which lie above."""
    for v in iter_bits(candidates):
        missed = within & ~masks[v] & ~(1 << v)
        for a in iter_bits(missed):
            if masks[a] & missed:
                return v, a, (masks[a] & missed & -(masks[a] & missed)).bit_length() - 1
    return None


def _refit(g: MaskGraph, v: int, a: int, b: int) -> tuple[int, int]:
    """New co-handle: the component of v once everything seeing the edge ab is
    removed; the handle is whatever neither touches nor belongs to it."""
    removed = (g.masks[a] | g.masks[b]) & ~(1 << a | 1 << b)
    cohandle = next(c for c in _components(g.masks, g.live & ~removed) if c >> v & 1)
    return g.live & ~cohandle & ~_union(g.masks, cohandle), cohandle


def find_generalized_handle(g: Graph) -> GeneralizedHandle | None:
    """Generalized handle of g, or None when every vertex sees every edge.

    Starting from any vertex missing any edge, the co-handle/handle split is
    refitted while some boundary vertex still misses an edge of the handle.
    Choices follow smallest vertex id, then lexicographically smallest edge.
    Each refit grows the co-handle J, so at most n run: the next vertex v
    lies in the boundary, which is N(J) (the final assertion), and misses an
    edge ab of the handle; the refit removes only neighbors of a and b, and
    neither sees J or v, so the new co-handle, v's component, holds J and v.
    """
    g = _view(g)
    step = _first_missed(g.masks, g.live, g.live)
    if step is None:
        return None
    while step is not None:
        handle, cohandle = _refit(g, *step)
        boundary = _union(g.masks, handle) & ~handle
        step = _first_missed(g.masks, boundary, handle)
    # N(J) lies in the removed neighbors of the last edge, which stays in the
    # handle, so the two boundaries coincide.
    assert boundary == _union(g.masks, cohandle) & ~cohandle
    return GeneralizedHandle(frozenset(iter_bits(handle)), frozenset(iter_bits(cohandle)))


def is_generalized_handle(g: Graph | MaskGraph, handle: Iterable[int],
                          cohandle: Iterable[int]) -> bool:
    """Definition check used by the property tests and the interesting-set route."""
    g = _view(g)
    h, j = _members(g, handle, "handle checks"), _members(g, cohandle, "handle checks")
    masks = g.masks
    if not j or h & j or not any(masks[v] & h for v in iter_bits(h)):
        return False
    boundary = _union(masks, h) & ~h
    # Each boundary vertex sees an endpoint of every edge inside H: the part
    # of H it misses holds no edge.
    return (_union(masks, j) & ~j == boundary
            and j in _components(masks, g.live & ~boundary)
            and all(not _union(masks, miss) & miss
                    for miss in (h & ~masks[v] for v in iter_bits(boundary))))


def cohandle_is_max_interesting(g: Graph, found: GeneralizedHandle) -> bool:
    """The co-handle of a found handle is a maximal interesting set of the
    complement; verified by the brute-force check."""
    return brute_maximal_interesting_check(_complement(_view(g)), found.cohandle)


def interesting_gives_handle_check(g: Graph | MaskGraph, tset: Iterable[int]) -> bool:
    """A maximal interesting set T of g yields a handle of the complement: any
    co-connected component H of the subgraph on T's complete set with at least
    two vertices is a handle there, with T as a co-handle."""
    g = _view(g, MAX_SUBSET_N, "interesting-to-handle check")
    t = _members(g, tset, "handle checks")
    if not t:
        raise GraphError("an interesting set is nonempty")
    complete = _complete(g, t)
    if _is_clique(g.masks, complete):
        raise GraphError("the complete set of an interesting set cannot be a clique")
    gc = _complement(g)
    big = next((comp for comp in _components(gc.masks, complete) if comp & comp - 1), 0)
    assert big, "a non-clique set always has a co-connected part with an edge"
    return is_generalized_handle(gc, iter_bits(big), iter_bits(t))
