"""Even-pair contraction coloring for Artemis graphs.

An Artemis graph has no odd hole, no antihole of length five or more and no
prism.  Such graphs are colored optimally by repeatedly contracting a special
even pair (an even pair whose contraction leaves the graph prism-free) until
only disjoint cliques remain, coloring those greedily, and copying colors back
through the contractions.

The pair search works level by level: grow a maximal interesting set T, look
for a minimal T-outer path, and either extract the pair from the path or
recurse into the set of T-complete vertices.  Every nondeterministic choice is
resolved by smallest vertex id.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from typing import AbstractSet, Callable, Iterable, Union

from .graphs import ContractionStep, ContractionTrace, Graph, GraphError
from .graphs import components  # noqa: F401  (perfbench/tracer.py wraps engine.components)


class NotArtemisError(RuntimeError):
    """A guarantee that holds for Artemis inputs failed; the input is outside the class."""


class ColoringError(ValueError):
    """A coloring violates properness or does not fit the graph it is applied to."""


@dataclass(frozen=True)
class MaximalInteresting:
    """A maximal interesting set and its complete neighborhood.

    ``tset`` is nonempty and connected in the complement; ``cset`` holds the
    vertices adjacent to all of ``tset`` and is not a clique.
    """

    tset: frozenset[int]
    cset: frozenset[int]


@dataclass(frozen=True)
class DisjointCliques:
    """Verdict that the (sub)graph is a disjoint union of cliques."""

    cliques: tuple[frozenset[int], ...]


InterestingSetResult = Union[MaximalInteresting, DisjointCliques]


@dataclass(frozen=True)
class OuterPath:
    """A chordless path whose endpoints are T-complete and whose interior
    avoids both T and the T-complete vertices."""

    vertices: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.vertices) < 3:
            raise GraphError("an outer path needs at least one interior vertex")

    @property
    def length(self) -> int:
        return len(self.vertices) - 1


@dataclass(frozen=True)
class Coloring:
    """Total vertex-to-color map using colors ``0..num_colors-1``, all of them."""

    colors: tuple[int, ...]
    num_colors: int

    def __post_init__(self) -> None:
        used = set(self.colors)
        if self.colors and used != set(range(self.num_colors)):
            raise ColoringError("colors must be exactly 0..num_colors-1, all used")
        if not self.colors and self.num_colors != 0:
            raise ColoringError("an empty graph takes zero colors")


@dataclass
class OpCounters:
    """Basic-operation tallies per pipeline phase.

    One unit is one neighbor-scan step or one pairwise adjacency probe, the
    cost model under which the pipeline is an O(n^2 m) algorithm.  The charges
    count the algorithm's scans even where a C-level set operation does the
    work, and even where a finder skips a scan whose outcome it already
    knows; those scans are charged in aggregate: the component pass of
    :func:`find_interesting`, whose parts partition its domain, and the
    count of vertices its start walk visits; and the search from each
    trivial root of :func:`find_outer_path`, which would scan only the root
    and its one complete neighbor, if any.  So the counts, and the slopes
    fitted to them, do not depend on how a finder is written.  A finder's
    charges build up in locals and reach the counters before it returns or
    raises.  ``per_call`` and ``chain_depths`` get one entry per
    special-even-pair search.
    """

    interesting: int = 0
    outer: int = 0
    even_pair: int = 0
    per_call: list[int] = field(default_factory=list)
    chain_depths: list[int] = field(default_factory=list)

    def total(self) -> int:
        return self.interesting + self.outer + self.even_pair


class WorkingGraph:
    """Mutable copy of the input graph that :func:`color_artemis` contracts in place.

    Vertices keep the input's ids; a contraction removes the larger id of the
    merged pair, so the survivors keep their relative order and every
    smallest-id tie-break matches the one on the dense renumbering.  Adjacency
    is kept as neighbor sets only; a scan whose order decides the output
    sorts what it scans.  The read interface is ``vertices`` (the live ids,
    ascending), ``adj`` (the neighbor sets indexed by vertex) and ``rank``;
    only :func:`contract` mutates the first two.
    """

    __slots__ = ("vertices", "adj")

    def __init__(self, g: Graph) -> None:
        self.adj: list[set[int]] = [set(nbrs) for nbrs in g.adj]
        self.vertices: list[int] = list(g.vertices)

    def rank(self, v: int) -> int:
        """Position of the live vertex v in ``vertices``: its dense id."""
        r = bisect_left(self.vertices, v)
        if r == len(self.vertices) or self.vertices[r] != v:
            raise GraphError(f"vertex {v} is not in the working graph")
        return r


def contract(g: WorkingGraph, a: int, b: int) -> ContractionStep:
    """Merge the non-adjacent vertices a and b of the working graph in place.

    The smaller id survives with the union of both neighborhoods; only a, b
    and the neighbors of the larger id are touched.  The returned step is in
    dense ids, the ranks of a and b among the vertices live before the merge.
    """
    if a == b:
        raise GraphError("cannot contract a vertex with itself")
    ra, rb = g.rank(a), g.rank(b)
    adj = g.adj
    if b in adj[a]:
        raise GraphError(f"vertices {a} and {b} are adjacent; contraction of an edge is undefined")
    lo, hi = (a, b) if a < b else (b, a)
    gone = adj[hi]
    for w in gone:
        nbr_set = adj[w]
        nbr_set.discard(hi)
        nbr_set.add(lo)
    adj[lo] |= gone
    adj[hi] = set()
    del g.vertices[max(ra, rb)]
    return ContractionStep(a=ra, b=rb)


class PipelineObserver:
    """Hooks fired by the pair search and the driver; all no-ops by default.

    Subclasses can cross-check every intermediate structure (used by the
    oracle-backed verify mode).  Under :func:`color_artemis` every hook sees
    the run's :class:`WorkingGraph`, read through ``vertices``, ``adj`` and
    ``rank``, and vertex ids of the input graph; the working graph changes in
    place at each contraction, so a hook that needs a graph later must copy
    it, as the verifier does into bitmask views.
    """

    def interesting(self, g: WorkingGraph, domain: frozenset[int],
                    result: InterestingSetResult) -> None:
        pass

    def outer_path(self, g: WorkingGraph, domain: frozenset[int], tset: frozenset[int],
                   cset: frozenset[int], path: OuterPath | None) -> None:
        pass

    def bottom_pair(self, g: WorkingGraph, domain: frozenset[int], pair: tuple[int, int]) -> None:
        """pair: the smallest vertices of the first two cliques ``interesting`` got."""

    def contracted(self, g: WorkingGraph, a: int, b: int) -> None:
        """a and b were merged; ``g`` is the graph after the merge, the one
        the next pair search runs on."""


_SILENT = PipelineObserver()

# The finders read a neighbor set through ``g.adj.__getitem__``, bound once
# per call, and charge a degree as the length of that set.
Neighbors = Callable[[int], AbstractSet[int]]


def _clique_probe(nbr: Neighbors, s: AbstractSet[int], counters: OpCounters) -> bool:
    """Clique test charged one probe per candidate pair examined."""
    size = len(s)
    if size <= 1:
        return True
    ops = 0
    ok = True
    for v in sorted(s):
        ops += size
        if len(nbr(v) & s) != size - 1:
            ok = False
            break
    counters.interesting += ops
    return ok


def find_interesting(g: Graph | WorkingGraph, dom: AbstractSet[int],
                     counters: OpCounters) -> InterestingSetResult:
    """Maximal interesting set of the subgraph on ``dom``, or the clique
    partition when every vertex is simplicial.

    Start: the smallest vertex s with a vertex at distance exactly two inside
    ``dom``, found by one ascending walk; the smallest neighbor of s that
    sees past N[s] is non-simplicial and seeds the set.  The walk meets each
    component of ``dom`` first at its smallest member v, and one without such
    an s is then N[v]; without any s, ``dom`` is a disjoint union of cliques
    and those parts, collected in walk order, are the partition, so no
    component pass runs.  Growth: each undecided vertex whose neighborhood
    inside the complete set is a clique is shelved for good; otherwise it
    joins the set and the complete set shrinks to its neighbors, re-opening
    what fell out.  The min-heap of undecided vertices holds only
    candidates, those with two or more neighbors in the complete set.
    ``dom`` holds vertices of g and is only read.
    """
    nbr = g.adj.__getitem__
    # A dom as large as the vertex set is the vertex set, already ascending.
    walk = g.vertices if len(dom) == len(g.vertices) else sorted(dom)
    # A vertex with no vertex at distance two sees its whole component, N[v]
    # inside dom; the component's later members only compare their degree
    # with its size.
    whole: dict[int, int] = {}
    parts: list[frozenset[int]] = []
    start = seed = None
    walked = 0
    for walked, v in enumerate(walk, 1):
        size = whole.get(v)
        if size is None and nbr(v).isdisjoint(dom):
            parts.append(frozenset((v,)))  # an isolated vertex is a component of its own
            continue
        near = nbr(v) & dom
        if len(near) + 1 == size:
            continue
        beyond = dom - near - {v}
        # A neighbor of v that sees past N[v] sees two non-adjacent vertices,
        # so it is non-simplicial.
        seed = next((u for u in sorted(near) if not nbr(u).isdisjoint(beyond)), None)
        if seed is not None:
            start = v
            break
        # Only a component's first member gets here: a later one that misses
        # part of N[first] has first as a neighbor seeing past its own N[v].
        size = len(near) + 1
        whole.update(dict.fromkeys(near, size))
        parts.append(frozenset(near | {v}))
    # The component pass of the cost model, whose parts partition dom, and
    # one unit per vertex walked.
    ops = 2 * len(dom) + walked
    if start is None:
        counters.interesting += ops
        return DisjointCliques(tuple(parts))
    ops += len(nbr(start)) + sum(len(nbr(u)) for u in near if u <= seed)

    tset = {seed}
    cset = nbr(seed) & dom
    # Every vertex outside tset and cset becomes undecided once, at the start
    # or when cset drops it, and is charged its degree then.  cset only
    # shrinks, so one with at most one neighbor in cset at that moment would
    # be shelved when picked, at no further charge: the min-heap holds only
    # the others, the candidates, and the pick order is unchanged.
    undecided = dom - cset - {seed}
    ops += sum(map(len, map(nbr, undecided)))
    if len(cset) < len(undecided):
        # The candidates are the vertices seen from two members of cset.
        once, twice = set(), set()
        for c in cset:
            twice |= once & nbr(c)
            once |= nbr(c)
        candidates = list(undecided & twice)
    else:
        candidates = [w for w in undecided if len(nbr(w) & cset) >= 2]
    heapify(candidates)
    while candidates:
        u = heappop(candidates)
        cap = nbr(u) & cset
        if _clique_probe(nbr, cap, counters):
            continue  # shelved: the complete set only shrinks, so this stays a clique
        tset.add(u)
        dropped = cset - nbr(u)
        cset &= nbr(u)
        ops += len(dropped) + sum(map(len, map(nbr, dropped)))
        for w in dropped:
            if len(nbr(w) & cset) >= 2:
                heappush(candidates, w)
    counters.interesting += ops
    return MaximalInteresting(frozenset(tset), frozenset(cset))


def find_outer_path(g: Graph | WorkingGraph, dom: AbstractSet[int], tset: AbstractSet[int],
                    cset: AbstractSet[int], counters: OpCounters) -> OuterPath | None:
    """Minimal T-outer path for a maximal interesting set, or None.

    One search per component of the vertices outside T and its complete set:
    a breadth-first search that collects the complete vertices it meets as
    leaves.  A root whose only neighbor outside T, if any, is complete is a
    component of its own that cannot hold a path; it is charged its degree
    and that neighbor's, and no search starts.  The met set stays a clique
    (subset-checked) until some vertex x breaks it; a second search from x
    inside the vertices seen so far, with x's met neighbors removed, runs to
    the first met vertex not adjacent to x.  The search path between them is
    the answer; x reaches one through the first search's tree.  The level's
    sets are only read.
    """
    nbr = g.adj.__getitem__
    searchable = dom - tset
    unmarked = set(searchable - cset)
    ops = 0
    found = None
    for root in sorted(unmarked):
        if root not in unmarked:
            continue  # absorbed by an earlier component's search
        around = nbr(root)
        near = around & searchable
        if len(near) <= 1 and near <= cset:
            ops += len(around)
            for c in near:
                ops += len(nbr(c))
            continue
        found = _component_search(nbr, root, cset, unmarked, counters)
        if found is not None:
            break
    counters.outer += ops
    return found


def _component_search(nbr: Neighbors, root: int, cset: AbstractSet[int],
                      unmarked: set[int], counters: OpCounters) -> OuterPath | None:
    # Unmarked vertices are the searchable ones outside cset that no search
    # has seen, so a neighbor outside cset is new exactly when it is unmarked,
    # and a complete neighbor exactly when it is not met.
    seen = {root}
    unmarked.discard(root)
    met: set[int] = set()      # complete vertices met so far
    queue = deque([root])
    ops = 0
    while queue:
        u = queue.popleft()
        nu = nbr(u)
        ops += len(nu)
        fresh = nu & unmarked
        reach = nu & cset
        if reach <= met:
            unmarked -= fresh
            seen |= fresh
            queue.extend(sorted(fresh))
            continue
        # Ascending order: the first met vertex that breaks the clique decides
        # which path is dug out, from the vertices seen up to it.
        for w in sorted(fresh | (reach - met)):
            seen.add(w)
            if w in cset:
                if not met <= nbr(w):
                    # w misses someone already met: the met set just stopped
                    # being a clique, and a path between the two sides exists.
                    counters.outer += ops
                    return _dig_out_path(nbr, w, met, seen, cset, counters)
                ops += len(nbr(w))
                met.add(w)
            else:
                unmarked.discard(w)
                queue.append(w)
    counters.outer += ops
    return None


def _dig_out_path(nbr: Neighbors, x: int, met: set[int], seen: set[int],
                  cset: AbstractSet[int], counters: OpCounters) -> OuterPath:
    met_x = met & nbr(x)
    ops = len(met)
    targets = met - met_x
    allowed = seen - met_x
    parent: dict[int, int | None] = {x: None}
    inner_seen = {x}
    queue = deque([x])
    while True:  # a target is always reached; see find_outer_path
        u = queue.popleft()
        nu = nbr(u)
        ops += len(nu)
        # Ascending order: the first target reached decides the path.
        for w in sorted((nu & allowed) - inner_seen):
            inner_seen.add(w)
            parent[w] = u
            if w in targets:
                counters.outer += ops
                path = [w]
                while (p := parent[path[-1]]) is not None:
                    path.append(p)
                path.reverse()
                return OuterPath(tuple(path))
            if w not in cset:
                queue.append(w)


def find_even_pair(g: Graph | WorkingGraph, dom: AbstractSet[int], tset: AbstractSet[int],
                   cset: AbstractSet[int], path: OuterPath,
                   counters: OpCounters) -> tuple[int, int]:
    """Special even pair extracted from a minimal T-outer path.

    With the path written x-v-...-w-y, A holds the complete vertices seeing v
    but not y, and B those seeing w but not x.  A vertex of A adjacent to all
    of N(A) reachable from B (avoiding T and A), paired with the symmetric
    choice in B, is a special even pair.  Ties go to the smallest id.  The
    level's sets are only read.
    """
    nbr = g.adj.__getitem__
    verts = path.vertices
    x, v, w, y = verts[0], verts[1], verts[-2], verts[-1]
    counters.even_pair += len(nbr(v)) + len(nbr(y)) + len(nbr(w)) + len(nbr(x))
    aside = (nbr(v) & cset) - nbr(y)
    bside = (nbr(w) & cset) - nbr(x)
    if not aside or not bside:
        raise NotArtemisError("an outer-path endpoint class came out empty")
    if aside & bside:
        raise NotArtemisError("the two endpoint classes overlap; input is outside the class")
    reach_a = _reached_boundary(nbr, dom, tset, aside, bside, counters)
    reach_b = _reached_boundary(nbr, dom, tset, bside, aside, counters)
    a = _sees_all(nbr, aside, reach_a, counters)
    b = _sees_all(nbr, bside, reach_b, counters)
    if a is None:
        raise NotArtemisError("no vertex of the first endpoint class sees its whole reachable boundary")
    if b is None:
        raise NotArtemisError("no vertex of the second endpoint class sees its whole reachable boundary")
    return a, b


def _reached_boundary(nbr: Neighbors, dom: AbstractSet[int], tset: AbstractSet[int],
                      aside: AbstractSet[int], bside: AbstractSet[int],
                      counters: OpCounters) -> set[int]:
    """Vertices of N(A) reached by a search from B avoiding T and A.

    The boundary vertices are leaves: they are reached but never expanded.
    Each expanded vertex is charged its degree.
    """
    ops = sum(map(len, map(nbr, aside)))
    boundary = set().union(*map(nbr, aside))
    boundary &= dom
    boundary -= aside
    unseen = set(dom)
    unseen.difference_update(tset, aside)
    targets = boundary & unseen
    if targets & bside:
        counters.even_pair += ops
        raise NotArtemisError("an edge joins the two endpoint classes; input is outside the class")
    unseen -= bside
    reached: set[int] = set()
    stack = list(bside)
    while stack:
        nu = nbr(stack.pop())
        ops += len(nu)
        for w in nu:
            if w in unseen:
                unseen.remove(w)
                if w in targets:
                    reached.add(w)
                else:
                    stack.append(w)
    counters.even_pair += ops
    return reached


def _sees_all(nbr: Neighbors, side: AbstractSet[int], reached: set[int],
              counters: OpCounters) -> int | None:
    # reached never meets side, so v sees all of it exactly when it is a subset.
    ops = sum(map(len, map(nbr, reached)))
    found = None
    for v in sorted(side):
        ops += 1
        if reached <= nbr(v):
            found = v
            break
    counters.even_pair += ops
    return found


def find_special_even_pair(g: Graph | WorkingGraph, *, counters: OpCounters | None = None,
                           observer: PipelineObserver | None = None,
                           ) -> tuple[int, int] | DisjointCliques:
    """One special even pair of g, or the clique partition when none is needed.

    Levels descend through complete sets: find a maximal interesting set of
    the current level, return a pair from a minimal outer path if one exists,
    otherwise recurse into the complete set.  A level with no interesting set
    is a disjoint union of cliques; at the top that is the final verdict, and
    below the top the smallest vertices of its two first cliques form a pair
    (no path joins them inside the level, so the pair is vacuously even, and
    contracting it leaves the level chordal, hence prism-free).
    """
    counters = counters if counters is not None else OpCounters()
    observer = observer if observer is not None else _SILENT
    before = counters.total()
    dom = frozenset(g.vertices)
    depth = 0
    result: tuple[int, int] | DisjointCliques
    while True:
        depth += 1
        res = find_interesting(g, dom, counters)
        observer.interesting(g, dom, res)
        if isinstance(res, DisjointCliques):
            result = res
            if depth > 1:
                # A complete set starts with two non-adjacent vertices and only
                # shrinks to non-cliques, so a nested level has two or more.
                result = (min(res.cliques[0]), min(res.cliques[1]))
                observer.bottom_pair(g, dom, result)
            break
        path = find_outer_path(g, dom, res.tset, res.cset, counters)
        observer.outer_path(g, dom, res.tset, res.cset, path)
        if path is not None:
            result = find_even_pair(g, dom, res.tset, res.cset, path, counters)
            break
        dom = res.cset  # strictly smaller than dom, so the descent terminates
    counters.per_call.append(counters.total() - before)
    counters.chain_depths.append(depth)
    return result


def greedy_color_cliques(cliques: Iterable[Iterable[int]]) -> Coloring:
    """Color a disjoint union of cliques: the j-th smallest vertex of each
    clique gets color j, so the count equals the largest clique size."""
    assigned: dict[int, int] = {}
    width = 0
    for part in cliques:
        members = sorted(part)
        for j, v in enumerate(members):
            if v in assigned:
                raise GraphError(f"vertex {v} appears in two cliques")
            assigned[v] = j
        width = max(width, len(members))
    n = len(assigned)
    if assigned and set(assigned) != set(range(n)):
        raise GraphError("cliques must partition a dense vertex range")
    return Coloring(tuple(assigned[v] for v in range(n)), width)


def _improper(g: Graph, coloring: Coloring) -> str | None:
    """Why the coloring is not proper on g, or None when it is."""
    cols = coloring.colors
    if len(cols) != g.n:
        return f"covers {len(cols)} vertices, graph has {g.n}"
    for u, v in g.edges():
        if cols[u] == cols[v]:
            return f"gives both endpoints of edge ({u}, {v}) color {cols[u]}"
    return None


def is_proper(g: Graph, coloring: Coloring) -> bool:
    return _improper(g, coloring) is None


def lift_coloring(trace: ContractionTrace, coloring: Coloring, *,
                  original_graph: Graph) -> Coloring:
    """Copy a coloring of the fully contracted graph back to the original one.

    Walking the trace backwards, each step reinserts the larger endpoint with
    the merged vertex's color, which undoes the shift of the ids above it.
    The color count never changes.  The lifted coloring is checked to be
    proper on the original graph.
    """
    if len(coloring.colors) != trace.current_n:
        raise ColoringError(
            f"coloring covers {len(coloring.colors)} vertices, trace ends at {trace.current_n}")
    cols = list(coloring.colors)
    for step in reversed(trace.steps):
        cols.insert(max(step.a, step.b), cols[step.merged])
    lifted = Coloring(tuple(cols), coloring.num_colors)
    problem = _improper(original_graph, lifted)
    if problem is not None:
        raise ColoringError(f"lifted coloring {problem}")
    return lifted


def color_artemis(g: Graph, *, counters: OpCounters | None = None,
                  observer: PipelineObserver | None = None,
                  ) -> tuple[Coloring, ContractionTrace]:
    """Optimal coloring of an Artemis graph with the contraction log.

    Contracts special even pairs until only disjoint cliques remain (at most
    n-1 times), colors the residue greedily and lifts the colors back.  Each
    contraction preserves both the chromatic number and the largest clique, so
    the result uses exactly as many colors as the largest clique of g.
    Non-Artemis inputs surface as NotArtemisError or ColoringError.

    The contractions run in place on one :class:`WorkingGraph`; the trace
    records them, and its residue, in dense ids.
    """
    counters = counters if counters is not None else OpCounters()
    observer = observer if observer is not None else _SILENT
    trace = ContractionTrace(original_n=g.n)
    work = WorkingGraph(g)
    while True:
        res = find_special_even_pair(work, counters=counters, observer=observer)
        if isinstance(res, DisjointCliques):
            break
        a, b = res
        step = contract(work, a, b)
        observer.contracted(work, a, b)
        trace.append(step)
    trace.residue = tuple(frozenset(work.rank(v) for v in part) for part in res.cliques)
    coloring = greedy_color_cliques(trace.residue)
    lifted = lift_coloring(trace, coloring, original_graph=g)
    return lifted, trace
