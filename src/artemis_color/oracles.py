"""Exponential-time reference implementations of every structural definition.

These are the trusted side of the dual-route checks: exhaustive search and
branch-and-bound at desk scale, used to validate the fast pipeline instance by
instance.  Each entry point refuses inputs beyond its budget instead of
silently running forever.

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
The detectors and the path oracles read adjacency only from their own bitmasks.
Both path enumerations run one chordless-path walker, and the minimal
outer-path check looks its path up in the outer-path enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, Sequence

from .graphs import Graph, GraphError, common_complete, components, contract, is_clique

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


def _require(value: int, cap: int, what: str) -> None:
    if value > cap:
        raise BudgetExceeded(f"{what}: size {value} exceeds the budget of {cap}")


def _require_pair(g: Graph, x: int, y: int, what: str) -> None:
    if x == y or not (0 <= x < g.n and 0 <= y < g.n):
        raise GraphError(f"{what} need two distinct vertices in range")


def _require_in_range(g: Graph, vertices: Iterable[int], what: str) -> None:
    if not all(0 <= v < g.n for v in vertices):
        raise GraphError(f"{what} need vertices in range")


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


def _neighbor_masks(g: Graph) -> list[int]:
    """Neighborhood of every vertex as a bitmask, indexed by vertex."""
    return [mask_of(g.adj[v]) for v in g.vertices]


# (root, floor) pairs: a search from a root walks only the floor's vertices.
Starts = Sequence[tuple[int, int]]


def _starts(n: int, through: int | None = None) -> list[tuple[int, int]]:
    """Every vertex v with the vertices above v, which meets each structure
    once, at its smallest vertex; or the one vertex through with every other
    vertex, which meets each structure through it once."""
    if through is None:
        return [(v, -(2 << v)) for v in range(n)]
    return [(through, ~(1 << through))]


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


def _odd_hole(masks: Sequence[int], starts: Starts) -> StructureWitness | None:
    hole = _first_hole(masks, starts, 5, True)
    return None if hole is None else StructureWitness(ODD_HOLE, hole)


def _antihole(masks: Sequence[int], starts: Starts) -> StructureWitness | None:
    full = (1 << len(masks)) - 1
    co_masks = [full & ~mask & ~(1 << v) for v, mask in enumerate(masks)]
    hole = _first_hole(co_masks, starts, 6, False)
    return None if hole is None else StructureWitness(ANTIHOLE, hole)


def _prism(masks: Sequence[int], starts: Starts) -> StructureWitness | None:
    prism = _first_prism(masks, starts)
    return None if prism is None else StructureWitness(PRISM, prism)


def find_odd_hole(g: Graph) -> StructureWitness | None:
    """First chordless odd cycle of length at least five."""
    _require(g.n, MAX_SUBSET_N, "odd-hole detector")
    return _odd_hole(_neighbor_masks(g), _starts(g.n))


def find_antihole(g: Graph) -> StructureWitness | None:
    """First antihole of length at least six; a five-antihole is a five-hole."""
    _require(g.n, MAX_SUBSET_N, "antihole detector")
    return _antihole(_neighbor_masks(g), _starts(g.n))


def find_prism(g: Graph) -> StructureWitness | None:
    """First prism: two disjoint triangles joined by three disjoint paths."""
    _require(g.n, MAX_SUBSET_N, "prism detector")
    return _prism(_neighbor_masks(g), _starts(g.n))


def _first_structure(masks: Sequence[int], starts: Starts) -> StructureWitness | None:
    return _odd_hole(masks, starts) or _antihole(masks, starts) or _prism(masks, starts)


def is_artemis(g: Graph, *, through: int | None = None) -> tuple[bool, StructureWitness | None]:
    """Class membership: no odd hole, no antihole of length five or more, no
    prism.  Returns the verdict with the first witness, odd holes before
    antiholes before prisms, if any.

    With ``through``, the caller promises that g minus that vertex is in the
    class.  The class is closed under induced subgraphs, so only structures
    through that vertex can be left; the scan searches those first and runs
    in full only when it finds one, so the result is that of ``is_artemis(g)``."""
    _require(g.n, MAX_SUBSET_N, "class scan")
    masks = _neighbor_masks(g)
    if through is not None:
        if not 0 <= through < g.n:
            raise GraphError("the class scan needs its through vertex in range")
        if _first_structure(masks, _starts(g.n, through)) is None:
            return True, None
    witness = _first_structure(masks, _starts(g.n))
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


def enumerate_chordless_paths(g: Graph, x: int, y: int) -> list[tuple[int, ...]]:
    """All chordless paths from x to y, in lexicographic order."""
    _require(g.n, MAX_SUBSET_N, "chordless-path enumeration")
    _require_pair(g, x, y, "chordless paths")
    return _chordless_paths(_neighbor_masks(g), x, (1 << g.n) - 1, 1 << y)


def is_even_pair_exact(g: Graph, x: int, y: int) -> bool:
    """True when every chordless path between the non-adjacent pair has even
    length; vacuously true when no path exists."""
    _require_pair(g, x, y, "even pairs")
    if y in g.adj[x]:
        raise GraphError("even pairs are defined for non-adjacent vertices")
    paths = enumerate_chordless_paths(g, x, y)
    return all((len(p) - 1) % 2 == 0 for p in paths)


def is_special_even_pair_exact(g: Graph, x: int, y: int) -> bool:
    """An even pair whose contraction leaves a prism-free graph."""
    if not is_even_pair_exact(g, x, y):
        return False
    merged, _ = contract(g, x, y)
    return find_prism(merged) is None


def max_clique_exact(g: Graph) -> int:
    """Largest clique size by branch and bound over candidate bitmasks."""
    _require(g.n, MAX_BB_N, "max-clique search")
    if g.n == 0:
        return 0
    masks = _neighbor_masks(g)
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

    expand((1 << g.n) - 1, 0)
    return best


def chromatic_number_exact(g: Graph) -> int:
    """Smallest color count admitting a proper coloring, by backtracking with
    a clique lower bound."""
    _require(g.n, MAX_BB_N, "chromatic-number search")
    if g.n == 0:
        return 0
    return _chromatic_from(g, max_clique_exact(g))


def _chromatic_from(g: Graph, lower: int) -> int:
    """Chromatic number of a nonempty g, searched upward from ``lower``, its
    clique number."""
    order = sorted(g.vertices, key=lambda v: (-len(g.adj[v]), v))
    n = g.n

    def colorable(k: int) -> bool:
        assigned: dict[int, int] = {}

        def place(i: int) -> bool:
            if i == n:
                return True
            v = order[i]
            used_new = max(assigned.values(), default=-1) + 1
            taken = {assigned[w] for w in g.adj[v] if w in assigned}
            for c in range(min(used_new + 1, k)):
                if c in taken:
                    continue
                assigned[v] = c
                if place(i + 1):
                    return True
                del assigned[v]
            return False

        return place(0)

    k = lower
    while not colorable(k):
        k += 1
    return k


def is_interesting_set(g: Graph, tset: Iterable[int]) -> bool:
    """Nonempty, connected in the complement, and with a complete neighborhood
    that is not a clique."""
    members = set(tset)
    _require_in_range(g, members, "interesting sets")
    if not members:
        return False
    seed = min(members)
    seen = {seed}
    stack = [seed]
    while stack:
        u = stack.pop()
        for w in members - g.adj[u]:
            if w != u and w not in seen:
                seen.add(w)
                stack.append(w)
    if seen != members:
        return False
    return not is_clique(g, common_complete(g, members))


def brute_maximal_interesting_check(g: Graph, tset: Iterable[int]) -> bool:
    """T is interesting and no outside vertex has a non-clique neighborhood
    inside T's complete set (which would let T grow)."""
    _require(g.n, MAX_SUBSET_N, "maximal-interesting check")
    members = set(tset)
    if not is_interesting_set(g, members):
        return False
    complete = common_complete(g, members)
    outside = set(g.vertices) - members - complete
    return all(is_clique(g, g.adj[u] & complete) for u in outside)


def enumerate_outer_paths(g: Graph, tset: Iterable[int],
                          cset: Iterable[int]) -> list[tuple[int, ...]]:
    """All T-outer paths: chordless, both endpoints complete, at least one
    interior vertex, interior disjoint from T and the complete set.  Each path
    is listed once, with its smaller endpoint first, in lexicographic order."""
    _require(g.n, MAX_SUBSET_N, "outer-path enumeration")
    tset = set(tset)
    cset = set(cset)
    _require_in_range(g, tset | cset, "outer paths")
    masks = _neighbor_masks(g)
    cmask = mask_of(cset)
    interior = (1 << g.n) - 1 & ~mask_of(tset | cset)
    return [path for start in sorted(cset)
            for path in _chordless_paths(masks, start, interior, cmask & -(2 << start))
            if len(path) > 2]


def brute_minimal_outer_path_check(g: Graph, tset: Iterable[int], cset: Iterable[int],
                                   verts: Sequence[int]) -> bool:
    """The path ``verts`` is a T-outer path of even length at least four and no
    other T-outer path has its interior strictly inside this one's."""
    _require_in_range(g, verts, "outer paths")
    outer = enumerate_outer_paths(g, tset, cset)
    path = min(tuple(verts), tuple(verts)[::-1])
    length = len(path) - 1
    if path not in outer or length % 2 or length < 4:
        return False
    interior = set(path[1:-1])
    return not any(set(other[1:-1]) < interior for other in outer)


def outer_path_exists_criterion(g: Graph, tset: Iterable[int],
                                cset: Iterable[int]) -> bool:
    """Existence test for T-outer paths: some component of the leftover
    vertices meets the complete set in a non-clique."""
    tset = set(tset)
    cset = set(cset)
    _require_in_range(g, tset | cset, "outer paths")
    for comp in components(g, set(g.vertices) - tset - cset):
        boundary: set[int] = set()
        for v in comp:
            boundary |= g.adj[v]
        if not is_clique(g, boundary & cset):
            return True
    return False


def fonlupt_uhry_check(g: Graph, x: int, y: int) -> bool:
    """Contracting an even pair changes neither the chromatic number nor the
    largest clique size; checked exactly on both sides."""
    _require(g.n, MAX_BB_N, "contraction invariance check")
    merged, _ = contract(g, x, y)
    omega, omega_merged = max_clique_exact(g), max_clique_exact(merged)
    return (omega == omega_merged
            and _chromatic_from(g, omega) == _chromatic_from(merged, omega_merged))
