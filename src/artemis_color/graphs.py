"""Immutable simple graphs, the contraction trace, and connected components.

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

    Built from a vertex count and an edge list: duplicate edges are
    collapsed, and out-of-range endpoints and self-loops are rejected with a
    diagnostic.  Instances are immutable, which makes shared reads safe; the
    engine contracts a mutable copy of its own.  The read interface is
    ``vertices`` (``range(n)``) and ``adj``, the tuple of neighbor frozensets
    indexed by vertex: ``adj[v]`` is the neighborhood, ``len(adj[v])`` the
    degree and ``v in adj[u]`` the adjacency test, O(1) membership and
    O(deg) scans.  A set has no order, so a reader whose scan order could
    show sorts what it scans; ``edges()`` is the one such reader here.
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

