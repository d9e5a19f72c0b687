"""Exponential-time reference implementations of every structural definition.

These are the trusted side of the dual-route checks: exhaustive search and
branch-and-bound at desk scale, used to validate the fast pipeline instance by
instance.  Each exponential entry point refuses inputs beyond its budget
instead of silently running forever.  The polynomial checks are uncapped:
``is_interesting_set``, ``outer_path_exists_criterion`` and, in ``handles``,
``is_generalized_handle``, ``find_generalized_handle`` and
``cohandle_is_max_interesting``; on a ``Graph`` each builds a mask of up to n
bits per vertex.  Nothing in the package calls them above 12 vertices.

Holes, antiholes and prisms are connected, so each structure detector is one
connected search: chordless paths grown from a hole's smallest vertex (in the
complement for antiholes), and a walk over connected vertex sets for prisms.
The same searches rooted at one vertex find the structures through it, which
is all ``is_artemis`` needs to search when the rest of the graph is known to
be in the class.  The witness is the structure whose sorted vertex set comes
first.  A hole or antihole is given in cycle order, from its smallest vertex
toward the smaller of that vertex's two hole neighbors (in the complement for
antiholes); a prism is given as its sorted vertex set.  A set with six
vertices of degree 3 and the rest of degree 2 is a prism exactly when its
degree-3 vertices split into triangles A and B such that the three walks
leaving A by non-triangle edges end in B and, with the triangles, cover the
set; under those degrees each walk is a path, and what they miss is a cycle.
Both path enumerations run one chordless-path walker, and the minimal
outer-path check looks its path up in the outer-path enumeration.

Every oracle takes a :class:`Graph` or a :class:`MaskGraph`, neighbor bitmasks
keyed by vertex id plus the mask of the live vertices, and reads only bitmasks;
``_view`` alone builds a view from a graph, in the graph's own ids.  Ids need
not be dense: contraction merges two masks and moves no id, and only the order
of ids shows, so verdicts, witnesses and paths follow any monotone renaming.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from operator import and_, or_
from typing import TYPE_CHECKING, AbstractSet, Iterable, Iterator, NamedTuple, Sequence

from .graphs import Graph, GraphError

if TYPE_CHECKING:
    from .engine import WorkingGraph

ODD_HOLE = "odd_hole"
ANTIHOLE = "antihole"
PRISM = "prism"

# Input-size caps: the detectors and the path and set checks run up to
# MAX_SUBSET_N vertices, branch and bound (clique and chromatic number) up to
# MAX_BB_N.  Path enumeration needs no cap of its own: a chordless path is
# fixed by its vertex set, so MAX_SUBSET_N bounds the count by 2**MAX_SUBSET_N.
MAX_SUBSET_N = 12
MAX_BB_N = 16


class BudgetExceeded(RuntimeError):
    """The input is larger than the oracle is willing to handle."""


@dataclass(frozen=True)
class StructureWitness:
    """A vertex sequence exhibiting a forbidden structure, ordered as the
    module docstring says."""

    kind: str
    vertices: tuple[int, ...]


def mask_of(vertices: Iterable[int]) -> int:
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def iter_bits(mask: int) -> Iterator[int]:
    """Set bit positions of mask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class MaskGraph(NamedTuple):
    """Immutable graph view the oracles run on: ``masks[v]`` is the neighbor
    bitmask of the live vertex v and ``live`` the mask of the live vertices.
    Each mask holds live vertices only; ``masks`` is indexed by vertex id,
    no oracle reads its entries at other ids, and nothing mutates it."""

    masks: Sequence[int]
    live: int

    def merge(self, a: int, b: int) -> MaskGraph:
        """The view with the non-adjacent live vertices a and b merged: the
        smaller id keeps the union of both neighborhoods and the larger one
        leaves; no other id moves."""
        _require_pair(self, a, b, "contractions")
        masks = self.masks
        if masks[a] >> b & 1:
            raise GraphError(f"vertices {a} and {b} are adjacent; "
                             "contraction of an edge is undefined")
        lo, hi = (a, b) if a < b else (b, a)
        merged = list(masks)
        for v in iter_bits(masks[hi]):
            merged[v] = masks[v] & ~(1 << hi) | 1 << lo
        merged[lo], merged[hi] = masks[lo] | masks[hi], 0
        return MaskGraph(merged, self.live & ~(1 << hi))


def _view(g: Graph | WorkingGraph | MaskGraph, cap: int | None = None, what: str = "",
          on: AbstractSet[int] | None = None) -> MaskGraph:
    """g if it is a view, else the view on ``on`` (all vertices by default) of
    the graph g, read through ``vertices`` and ``adj`` in g's own ids; refused
    with BudgetExceeded past cap vertices, before any mask is built."""
    view = isinstance(g, MaskGraph)
    size = g.live.bit_count() if view else len(g.vertices if on is None else on)
    if cap is not None and size > cap:
        raise BudgetExceeded(f"{what}: size {size} exceeds the budget of {cap}")
    if view:
        return g
    if on is None:  # all neighbors are live, and all n ids unless a merge removed some
        n = len(g.adj)
        return MaskGraph([mask_of(nbrs) for nbrs in g.adj],
                         (1 << n) - 1 if len(g.vertices) == n else mask_of(g.vertices))
    masks = [0] * (max(on, default=-1) + 1)
    for v in on:
        masks[v] = mask_of(g.adj[v] & on)
    return MaskGraph(masks, mask_of(on))


def _require_pair(g: MaskGraph, x: int, y: int, what: str) -> None:
    if x == y or x < 0 or y < 0 or not g.live >> x & g.live >> y & 1:
        raise GraphError(f"{what} need two distinct vertices in range")


def _members(g: MaskGraph, vertices: Iterable[int], what: str) -> int:
    """Mask of the vertices, which must all be live in g."""
    vertices = list(vertices)
    if any(v < 0 or not g.live >> v & 1 for v in vertices):
        raise GraphError(f"{what} need vertices in range")
    return mask_of(vertices)


def _union(masks: Sequence[int], s: int) -> int:
    """Every neighbor of a vertex of s."""
    return reduce(or_, map(masks.__getitem__, iter_bits(s)), 0)


def _complete(g: MaskGraph, t: int) -> int:
    """Vertices outside t adjacent to every vertex of t."""
    return reduce(and_, map(g.masks.__getitem__, iter_bits(t)), g.live & ~t)


def _is_clique(masks: Sequence[int], s: int) -> bool:
    """Every pair inside s is adjacent; the empty set is a clique."""
    return all(s & ~masks[v] == 1 << v for v in iter_bits(s))


def _components(masks: Sequence[int], within: int) -> Iterator[int]:
    """Components of the subgraph on within, by smallest member."""
    while within:
        comp = frontier = within & -within
        while frontier:
            frontier = _union(masks, frontier) & within & ~comp
            comp |= frontier
        within &= ~comp
        yield comp


def _complement(g: MaskGraph) -> MaskGraph:
    live, co = g.live, [0] * len(g.masks)
    for v in iter_bits(live):
        co[v] = live & ~g.masks[v] & ~(1 << v)
    return MaskGraph(co, live)


# (root, floor) pairs: a search from a root walks only the floor's vertices.
Starts = Sequence[tuple[int, int]]


def _starts(live: int, through: int | None = None) -> list[tuple[int, int]]:
    """Every live vertex v with the live vertices above v, which meets each
    structure once, at its smallest vertex; or the one vertex through with
    every other live vertex, which meets each structure through it once."""
    if through is None:
        return [(v, live & -(2 << v)) for v in range(live.bit_length()) if live >> v & 1]
    return [(through, live & ~(1 << through))]


def _first_hole(masks: Sequence[int], starts: Starts, min_len: int,
                odd: bool) -> tuple[int, ...] | None:
    """The first chordless cycle of at least min_len vertices under masks
    through a root of starts, of odd length when odd is set (min_len is at
    least 4), in cycle order.

    Every hole through a root v is found once, from the smaller a of v's two
    hole neighbors: a chordless path grows from a through floor vertices
    outside N[v], and closes at a neighbor b > a of v that sees no path vertex
    but the last.  The search pops the largest extension first, so it keeps
    every hole through v and returns the first by sorted vertex set, as
    (v, a, ..., b)."""
    for v, floor in starts:
        inner = floor & ~masks[v]
        holes: list[tuple[int, ...]] = []
        for a in iter_bits(masks[v] & floor):
            ends = masks[v] & -(2 << a)
            # Each entry: the path, and the path with the neighborhoods of
            # all but its last vertex.
            stack = [((a,), 1 << a)]
            while stack:
                path, seen = stack.pop()
                step = masks[path[-1]] & ~seen
                if len(path) + 2 >= min_len and (not odd or len(path) % 2):
                    holes += [(v,) + path + (b,) for b in iter_bits(step & ends)]
                seen |= masks[path[-1]]
                for w in iter_bits(step & inner):
                    stack.append((path + (w,), seen | 1 << w))
        if holes:
            return min(holes, key=sorted)
    return None


def _one_edge(masks: Sequence[int], trio: int) -> bool:
    """The three vertices of trio span exactly one edge under masks."""
    p = trio & -trio
    q = trio ^ p
    r = q & (q - 1)
    q ^= r
    return ((masks[p.bit_length() - 1] & (q | r)).bit_count()
            + (masks[q.bit_length() - 1] & r).bit_count()) == 1


def _first_prism(masks: Sequence[int], starts: Starts) -> tuple[int, ...] | None:
    """The first vertex set inducing a prism under masks through a root of
    starts, sorted.

    An ESU walk (Wernicke, 2006) grows every connected set of a root and its
    floor vertices that holds the root once.  It skips a set together with its
    extensions once a member's induced degree exceeds 3, or once a member of
    degree 3 has neighbors spanning other than one edge: a prism's degree-3
    vertex sees its two triangle mates and one vertex adjacent to neither, and
    the degree cap keeps those neighbors in every extension.  A set whose
    degrees fit a prism goes to _prism_check; the walk keeps every prism it
    finds from a root and returns the first of them."""
    prisms: list[tuple[int, ...]] = []

    def grow(sub: int, ext: int, near: int, d1: int, d2: int, d3: int,
             floor: int) -> None:
        while ext:
            low = ext & -ext
            ext ^= low
            w = low.bit_length() - 1
            nb = masks[w] & sub
            k = nb.bit_count()
            if k > 3 or nb & d3:
                continue
            grown = sub | low
            e3 = d3 | d2 & nb | (low if k > 2 else 0)
            fresh = e3 ^ d3
            while fresh and _one_edge(masks, masks[(fresh & -fresh).bit_length() - 1] & grown):
                fresh &= fresh - 1
            if fresh:
                continue
            e2 = d2 | d1 & nb | (low if k > 1 else 0)
            e1 = d1 | nb | (low if k else 0)
            if e2 == grown and e3.bit_count() == 6:
                subset = tuple(iter_bits(grown))
                if _prism_check(masks, subset):
                    prisms.append(subset)
            grow(grown, ext | masks[w] & ~near & floor, near | masks[w],
                 e1, e2, e3, floor)

    for v, floor in starts:
        grow(1 << v, masks[v] & floor, masks[v] | 1 << v, 0, 0, 0, floor)
        if prisms:
            return min(prisms)
    return None


def _walks_join(masks: Sequence[int], smask: int, tri_a: tuple[int, ...],
                triangles: int, k: int) -> bool:
    """Each walk leaving tri_a by a non-triangle edge ends in the other
    triangle of the six vertices in triangles, and the three walks with those
    six cover all k vertices of smask."""
    amask = mask_of(tri_a)
    covered = 6
    for a in tri_a:
        prev, cur = a, (masks[a] & smask & ~amask).bit_length() - 1
        while not triangles >> cur & 1:
            covered += 1
            prev, cur = cur, (masks[cur] & smask & ~(1 << prev)).bit_length() - 1
        if amask >> cur & 1:
            return False
    return covered == k


def _prism_check(masks: Sequence[int], subset: tuple[int, ...]) -> bool:
    """True when the subset induces a prism: its degree-3 vertices split into
    triangles A and B whose three walks from A end in B and cover the subset,
    which is exact because the degree prefilter leaves every triangle vertex
    one edge out of its triangle and every other vertex degree 2."""
    k = len(subset)
    smask = mask_of(subset)
    degrees = [(masks[v] & smask).bit_count() for v in subset]
    # Six vertices of degree 3 and k - 6 of degree 2, hence k + 3 edges.
    if degrees.count(3) != 6 or degrees.count(2) != k - 6:
        return False
    deg3 = [v for v, d in zip(subset, degrees) if d == 3]
    triangles = mask_of(deg3)
    anchor = deg3[0]
    rest = [v for v in deg3 if v != anchor]
    for two in combinations(rest, 2):
        tri_a = (anchor,) + two
        tri_b = tuple(v for v in deg3 if v not in tri_a)
        if all(masks[v] >> w & 1 for tri in (tri_a, tri_b) for v, w in combinations(tri, 2)) \
           and _walks_join(masks, smask, tri_a, triangles, k):
            return True
    return False


def _first_structure(g: MaskGraph, starts: Starts,
                     kinds: Sequence[str] = (ODD_HOLE, ANTIHOLE, PRISM),
                     ) -> StructureWitness | None:
    """The first witness of the first of kinds that g has through a root of starts."""
    for kind in kinds:
        if kind == ODD_HOLE:
            found = _first_hole(g.masks, starts, 5, True)
        elif kind == ANTIHOLE:
            found = _first_hole(_complement(g).masks, starts, 6, False)
        else:
            found = _first_prism(g.masks, starts)
        if found is not None:
            return StructureWitness(kind, found)
    return None


def find_odd_hole(g: Graph | MaskGraph) -> StructureWitness | None:
    """First chordless odd cycle of length at least five."""
    g = _view(g, MAX_SUBSET_N, "odd-hole detector")
    return _first_structure(g, _starts(g.live), (ODD_HOLE,))


def find_antihole(g: Graph | MaskGraph) -> StructureWitness | None:
    """First antihole of length at least six; a five-antihole is a five-hole."""
    g = _view(g, MAX_SUBSET_N, "antihole detector")
    return _first_structure(g, _starts(g.live), (ANTIHOLE,))


def find_prism(g: Graph | MaskGraph) -> StructureWitness | None:
    """First prism: two disjoint triangles joined by three disjoint paths."""
    g = _view(g, MAX_SUBSET_N, "prism detector")
    return _first_structure(g, _starts(g.live), (PRISM,))


def is_artemis(g: Graph | MaskGraph, *,
               through: int | None = None) -> tuple[bool, StructureWitness | None]:
    """Class membership: no odd hole, no antihole of length five or more, no
    prism.  Returns the verdict with the first witness, odd holes before
    antiholes before prisms, if any.

    With ``through``, the caller promises that g minus that vertex is in the
    class.  The class is closed under induced subgraphs, so only structures
    through that vertex can be left; the scan searches those first and runs
    in full only when it finds one, so the result is that of ``is_artemis(g)``."""
    g = _view(g, MAX_SUBSET_N, "class scan")
    if through is not None:
        _members(g, (through,), "class scans")
        if _first_structure(g, _starts(g.live, through)) is None:
            return True, None
    witness = _first_structure(g, _starts(g.live))
    return witness is None, witness


def _chordless_paths(masks: Sequence[int], start: int, interior: int,
                     ends: int) -> list[tuple[int, ...]]:
    """Every chordless path under masks from start through inner vertices of
    the interior mask to a vertex of the ends mask, depth-first in ascending
    vertex order, hence in lexicographic order.

    The prune: a new vertex may be adjacent only to the path's last vertex, so
    each step forbids the neighborhoods of all earlier path vertices."""
    result: list[tuple[int, ...]] = []
    path = [start]

    def extend(forbid: int) -> None:
        last = path[-1]
        for w in iter_bits(masks[last] & ~forbid & (interior | ends)):
            if ends >> w & 1:
                result.append(tuple(path) + (w,))
                continue
            path.append(w)
            extend(forbid | masks[last] | 1 << w)
            path.pop()

    extend(1 << start)
    return result


def enumerate_chordless_paths(g: Graph | MaskGraph, x: int, y: int) -> list[tuple[int, ...]]:
    """All chordless paths from x to y, in lexicographic order."""
    g = _view(g, MAX_SUBSET_N, "chordless-path enumeration")
    _require_pair(g, x, y, "chordless paths")
    return _chordless_paths(g.masks, x, g.live, 1 << y)


def is_even_pair_exact(g: Graph | MaskGraph, x: int, y: int) -> bool:
    """True when every chordless path between the non-adjacent pair has even
    length; vacuously true when no path exists."""
    g = _view(g, MAX_SUBSET_N, "chordless-path enumeration")
    _require_pair(g, x, y, "even pairs")
    if g.masks[x] >> y & 1:
        raise GraphError("even pairs are defined for non-adjacent vertices")
    return all(len(p) % 2 for p in enumerate_chordless_paths(g, x, y))


def is_special_even_pair_exact(g: Graph | MaskGraph, x: int, y: int) -> bool:
    """An even pair whose contraction leaves a prism-free graph."""
    g = _view(g, MAX_SUBSET_N, "chordless-path enumeration")
    return is_even_pair_exact(g, x, y) and find_prism(g.merge(x, y)) is None


def max_clique_exact(g: Graph | MaskGraph) -> int:
    """Largest clique size by branch and bound over candidate bitmasks."""
    g = _view(g, MAX_BB_N, "max-clique search")
    masks = g.masks
    best = 0

    def expand(cand: int, size: int) -> None:
        nonlocal best
        if size > best:
            best = size
        while cand:
            if size + cand.bit_count() <= best:
                return
            low = cand & -cand
            v = low.bit_length() - 1
            cand ^= low
            expand(cand & masks[v], size + 1)

    expand(g.live, 0)
    return best


def chromatic_number_exact(g: Graph | MaskGraph) -> int:
    """Smallest color count admitting a proper coloring, by backtracking with
    a clique lower bound."""
    g = _view(g, MAX_BB_N, "chromatic-number search")
    return _chromatic_from(g, max_clique_exact(g))


def _chromatic_from(g: MaskGraph, lower: int) -> int:
    """Chromatic number of g, searched upward from ``lower``, its clique
    number.  Vertices are placed by descending degree, each in the first
    color class it sees nothing of, or else in a new class."""
    masks = g.masks
    order = sorted(iter_bits(g.live), key=lambda v: (-masks[v].bit_count(), v))

    def colorable(i: int, classes: tuple[int, ...], k: int) -> bool:
        """order[i:] fits into the color classes, k classes at most."""
        if i == len(order):
            return True
        v = order[i]
        for c, members in enumerate(classes):
            if not members & masks[v] and colorable(
                    i + 1, classes[:c] + (members | 1 << v,) + classes[c + 1:], k):
                return True
        return len(classes) < k and colorable(i + 1, classes + (1 << v,), k)

    k = lower
    while not colorable(0, (), k):
        k += 1
    return k


def _interesting_complete(g: MaskGraph, t: int) -> int | None:
    """The complete set of t when t is interesting in g, else None."""
    if not t or next(_components(_complement(g).masks, t)) != t:
        return None
    complete = _complete(g, t)
    return None if _is_clique(g.masks, complete) else complete


def is_interesting_set(g: Graph | MaskGraph, tset: Iterable[int]) -> bool:
    """Nonempty, connected in the complement, and with a complete neighborhood
    that is not a clique."""
    g = _view(g)
    return _interesting_complete(g, _members(g, tset, "interesting sets")) is not None


def brute_maximal_interesting_check(g: Graph | MaskGraph, tset: Iterable[int]) -> bool:
    """T is interesting and no outside vertex has a non-clique neighborhood
    inside T's complete set (which would let T grow)."""
    g = _view(g, MAX_SUBSET_N, "maximal-interesting check")
    t = _members(g, tset, "interesting sets")
    complete = _interesting_complete(g, t)
    if complete is None:
        return False
    masks = g.masks
    return all(_is_clique(masks, masks[u] & complete)
               for u in iter_bits(g.live & ~t & ~complete))


def enumerate_outer_paths(g: Graph | MaskGraph, tset: Iterable[int],
                          cset: Iterable[int]) -> list[tuple[int, ...]]:
    """All T-outer paths: chordless, both endpoints complete, at least one
    interior vertex, interior disjoint from T and the complete set.  Each path
    is listed once, with its smaller endpoint first, in lexicographic order."""
    g = _view(g, MAX_SUBSET_N, "outer-path enumeration")
    t, c = _members(g, tset, "outer paths"), _members(g, cset, "outer paths")
    interior = g.live & ~(t | c)
    return [path for start in iter_bits(c)
            for path in _chordless_paths(g.masks, start, interior, c & -(2 << start))
            if len(path) > 2]


def brute_minimal_outer_path_check(g: Graph | MaskGraph, tset: Iterable[int],
                                   cset: Iterable[int], verts: Sequence[int]) -> bool:
    """The path ``verts`` is a T-outer path of even length at least four and no
    other T-outer path has its interior strictly inside this one's."""
    g = _view(g, MAX_SUBSET_N, "outer-path enumeration")
    _members(g, verts, "outer paths")
    outer = enumerate_outer_paths(g, tset, cset)
    path = min(tuple(verts), tuple(verts)[::-1])
    length = len(path) - 1
    if path not in outer or length % 2 or length < 4:
        return False
    interior = set(path[1:-1])
    return not any(set(other[1:-1]) < interior for other in outer)


def outer_path_exists_criterion(g: Graph | MaskGraph, tset: Iterable[int],
                                cset: Iterable[int]) -> bool:
    """Existence test for T-outer paths: some component of the leftover
    vertices meets the complete set in a non-clique."""
    g = _view(g)
    t, c = _members(g, tset, "outer paths"), _members(g, cset, "outer paths")
    masks = g.masks
    return any(not _is_clique(masks, _union(masks, comp) & c)
               for comp in _components(masks, g.live & ~t & ~c))


def fonlupt_uhry_check(g: Graph | MaskGraph, x: int, y: int) -> bool:
    """Contracting an even pair changes neither the chromatic number nor the
    largest clique size; checked exactly on both sides."""
    g = _view(g, MAX_BB_N, "contraction invariance check")
    merged = g.merge(x, y)
    omega, omega_merged = max_clique_exact(g), max_clique_exact(merged)
    return (omega == omega_merged
            and _chromatic_from(g, omega) == _chromatic_from(merged, omega_merged))
