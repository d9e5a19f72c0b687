"""Immutable simple graphs and the search primitives the coloring pipeline is built on.

Vertices are dense 0-based integers.  Every tie is broken by smallest id, and
every scan whose order could show runs in ascending vertex order, so each
algorithm in the package produces the same output for the same input
labeling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator


class GraphError(ValueError):
    """Malformed construction input or misuse of a graph primitive."""


class Graph:
    """Simple undirected graph on vertices ``0..n-1``.

    Instances are immutable: contraction, complement and induced subgraphs
    return new graphs, which makes traces and parallel reads safe.  The read
    interface is ``vertices`` (``range(n)``) and ``adj``, the tuple of
    neighbor frozensets indexed by vertex: ``adj[v]`` is the neighborhood,
    ``len(adj[v])`` the degree and ``v in adj[u]`` the adjacency test, O(1)
    membership and O(deg) scans.  A set has no order, so a reader whose scan
    order could show sorts what it scans; ``edges()`` is the one such reader
    here.
    """

    __slots__ = ("n", "m", "adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]) -> None:
        if n < 0:
            raise GraphError(f"vertex count must be non-negative, got {n}")
        adj: list[set[int]] = [set() for _ in range(n)]
        m = 0
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise GraphError(f"self-loop at vertex {u} is not allowed")
            if v not in adj[u]:
                adj[u].add(v)
                adj[v].add(u)
                m += 1
        self.n = n
        self.m = m
        self.adj: tuple[frozenset[int], ...] = tuple(frozenset(s) for s in adj)

    @property
    def vertices(self) -> range:
        return range(self.n)

    def edges(self) -> Iterator[tuple[int, int]]:
        """All edges as (u, v) with u < v, in ascending lexicographic order."""
        for u in range(self.n):
            for v in sorted(self.adj[u]):
                if v > u:
                    yield (u, v)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.adj == other.adj

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def new_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from a vertex count and an edge list.

    Duplicate edges are collapsed; out-of-range endpoints and self-loops are
    rejected with a diagnostic.
    """
    return Graph(n, edges)


@dataclass(frozen=True)
class ContractionStep:
    """One merge of two non-adjacent vertices, in the dense ids before it.

    The smaller id survives as ``merged`` and ids above the larger one shift
    down by one, so the pair alone determines the renumbering.
    """

    a: int
    b: int

    def __post_init__(self) -> None:
        if self.a == self.b:
            raise GraphError("contraction step needs two distinct vertices")

    @property
    def merged(self) -> int:
        return min(self.a, self.b)


@dataclass
class ContractionTrace:
    """Ordered log of contractions; replaying it backwards lifts a coloring.

    ``residue`` is the clique partition of the fully contracted graph in its
    dense ids, set by the driver that ran the contractions.
    """

    original_n: int
    steps: list[ContractionStep] = field(default_factory=list)
    residue: tuple[frozenset[int], ...] = ()

    def append(self, step: ContractionStep) -> None:
        # Two distinct ids in range need current_n >= 2, so this check alone
        # keeps a trace within n-1 steps.
        if not (0 <= step.a < self.current_n and 0 <= step.b < self.current_n):
            raise GraphError(
                f"step ({step.a}, {step.b}) out of range, trace is at {self.current_n}")
        self.steps.append(step)

    @property
    def current_n(self) -> int:
        return self.original_n - len(self.steps)


def contract(g: Graph, a: int, b: int) -> tuple[Graph, ContractionStep]:
    """Merge the non-adjacent vertices a and b into one vertex.

    The merged vertex keeps the smaller of the two ids and is adjacent to the
    union of both neighborhoods; ids above the larger one shift down by one so
    the result stays dense.
    """
    if a == b:
        raise GraphError("cannot contract a vertex with itself")
    if not (0 <= a < g.n and 0 <= b < g.n):
        raise GraphError(f"contraction endpoints ({a}, {b}) out of range")
    if b in g.adj[a]:
        raise GraphError(f"vertices {a} and {b} are adjacent; contraction of an edge is undefined")
    lo, hi = (a, b) if a < b else (b, a)
    to_new = tuple(
        lo if v == a or v == b else (v - 1 if v > hi else v)
        for v in range(g.n))
    # a and b are not adjacent, so no edge becomes a loop; the two edges from
    # a and b to a common neighbor become one, which the constructor merges.
    successor = Graph(g.n - 1, ((to_new[u], to_new[v]) for u, v in g.edges()))
    return successor, ContractionStep(a=a, b=b)


def complement(g: Graph) -> Graph:
    """Graph on the same vertices with exactly the missing edges."""
    edges = []
    for u in range(g.n):
        nbrs = g.adj[u]
        for v in range(u + 1, g.n):
            if v not in nbrs:
                edges.append((u, v))
    return Graph(g.n, edges)


def induced(g: Graph, keep: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Subgraph on ``keep``, relabeled densely.

    Returns the subgraph and the old ids in ascending order, indexed by new id.
    ``g`` may be any graph with ``vertices`` and ``adj``.
    """
    old_ids = tuple(sorted(set(keep)))
    present = g.vertices
    if any(v not in present for v in old_ids):
        raise GraphError("induced subgraph vertices out of range")
    to_new = {old: new for new, old in enumerate(old_ids)}
    edges = []
    for new, old in enumerate(old_ids):
        for w in g.adj[old]:
            if w > old and w in to_new:
                edges.append((new, to_new[w]))
    return Graph(len(old_ids), edges), old_ids


def common_complete(g: Graph, tset: Iterable[int]) -> set[int]:
    """Vertices outside ``tset`` adjacent to every vertex of ``tset``."""
    members = set(tset)
    if not members:
        raise GraphError("common_complete needs a nonempty vertex set")
    result: set[int] | None = None
    for v in members:
        nbrs = g.adj[v]
        result = set(nbrs) if result is None else result & nbrs
    assert result is not None
    return result - members


def is_clique(g: Graph, s: Iterable[int]) -> bool:
    """True when every pair inside s is adjacent; the empty set is a clique."""
    members = set(s)
    need = len(members) - 1
    return all(len(g.adj[v] & members) == need for v in members)


def components(g: Graph, s: Iterable[int] | None = None) -> list[set[int]]:
    """Connected components of the subgraph induced on s, ordered by smallest member.

    Each part is expanded by set intersection in no particular order; only the
    parts and their order are returned, so the scan order cannot show.
    """
    remaining = set(g.vertices) if s is None else set(s)
    parts = []
    for seed in sorted(remaining):
        if seed not in remaining:
            continue
        comp = {seed}
        stack = [seed]
        remaining.discard(seed)
        while stack:
            fresh = g.adj[stack.pop()] & remaining
            remaining -= fresh
            comp |= fresh
            stack.extend(fresh)
        parts.append(comp)
    return parts


def is_simplicial(g: Graph, v: int) -> bool:
    """True when the neighborhood of v is a clique."""
    return is_clique(g, g.adj[v])
