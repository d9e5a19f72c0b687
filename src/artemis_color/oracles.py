"""Exponential-time reference implementations of every structural definition.

These are the trusted side of the dual-route checks: subset enumeration and
branch-and-bound at desk scale, used to validate the fast pipeline instance by
instance.  Each entry point refuses inputs beyond its budget instead of
silently running forever.

Holes, antiholes and prisms are connected, so the three structure detectors
reach their verdict by connected searches: chordless paths grown from a
hole's smallest vertex (in the complement for antiholes), and a walk over
connected vertex sets for prisms.  Only when a structure exists do they run
the lexicographic subset walk that produces the witness.  That walk skips
every prefix in which some vertex already exceeds the structure's degree
limit: 2 for odd holes, 2 in the complement for antiholes, 3 for prisms.
Induced degrees only grow as a subset is extended, so the walk stays
exhaustive and the first witness is the one a walk over all subsets would
find.  A subset with six vertices of degree 3 and the rest of degree 2 is a
prism exactly when its degree-3 vertices split into triangles A and B such
that the three walks leaving A by non-triangle edges end in B and, with the
triangles, cover the subset; under those degrees each walk is a path, and
what they miss is a cycle.
The subset and path oracles read adjacency only from their own bitmasks.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, Sequence

from .graphs import Graph, GraphError, common_complete, components, contract, is_clique

ODD_HOLE = "odd_hole"
ANTIHOLE = "antihole"
PRISM = "prism"

# Input-size caps: subset enumeration runs up to MAX_SUBSET_N vertices, branch
# and bound (clique and chromatic number) up to MAX_BB_N.  Path enumeration
# needs no cap of its own: a chordless path is fixed by its vertex set, so
# MAX_SUBSET_N bounds the count by 2**MAX_SUBSET_N.
MAX_SUBSET_N = 12
MAX_BB_N = 16


class BudgetExceeded(RuntimeError):
    """The input is larger than the oracle is willing to handle."""


@dataclass(frozen=True)
class StructureWitness:
    """A vertex sequence exhibiting a forbidden structure.

    For holes and antiholes the vertices are in cycle order (cycle order in
    the complement for antiholes); for prisms they are the sorted subset.
    """

    kind: str
    vertices: tuple[int, ...]


def _require(value: int, cap: int, what: str) -> None:
    if value > cap:
        raise BudgetExceeded(f"{what}: size {value} exceeds the budget of {cap}")


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
    return [mask_of(g.neighbor_set(v)) for v in g.vertices]


def _subsets_lex(n: int, min_size: int, masks: Sequence[int],
                 cap: int) -> Iterator[tuple[int, ...]]:
    """Subsets of 0..n-1 with at least min_size elements whose induced degrees
    under masks are at most cap (2 or 3), in lexicographic order of their
    sorted tuples (a prefix precedes its extensions).

    Adding a vertex never lowers a member's induced degree, so a prefix with
    a vertex above cap is skipped together with all its extensions; every
    other subset is yielded, in the same order as by a walk without the skip.
    """
    prefix: list[int] = []
    # The prefix's members and, bit-sliced, its members of induced degree at
    # least 1, 2 and 3; the same for every shorter prefix on the stack.
    inside = d1 = d2 = d3 = 0
    stack: list[tuple[int, int, int, int]] = []
    v = 0
    while True:
        if v == n:
            if not prefix:
                return
            v = prefix.pop() + 1
            inside, d1, d2, d3 = stack.pop()
            continue
        nb = masks[v] & inside
        k = nb.bit_count()
        if k > cap or nb & (d2 if cap == 2 else d3):
            v += 1
            continue
        stack.append((inside, d1, d2, d3))
        bit = 1 << v
        inside |= bit
        d3 |= d2 & nb | (bit if k > 2 else 0)
        d2 |= d1 & nb | (bit if k > 1 else 0)
        d1 |= nb | (bit if k else 0)
        prefix.append(v)
        if len(prefix) >= min_size:
            yield tuple(prefix)
        v += 1


def _cycle_order(masks: Sequence[int], subset: tuple[int, ...]) -> tuple[int, ...] | None:
    """Cycle order of the subset if it induces a chordless cycle, else None."""
    smask = mask_of(subset)
    for v in subset:
        if (masks[v] & smask).bit_count() != 2:
            return None
    start = subset[0]
    first = masks[start] & smask
    order = [start]
    prev, cur = start, (first & -first).bit_length() - 1
    while cur != start:
        order.append(cur)
        prev, cur = cur, (masks[cur] & smask & ~(1 << prev)).bit_length() - 1
    if len(order) != len(subset):
        return None  # two-regular but disconnected: a union of shorter cycles
    return tuple(order)


def _has_hole(masks: Sequence[int], n: int, min_len: int, odd: bool) -> bool:
    """True when masks induce a chordless cycle of at least min_len vertices,
    of odd length when odd is set (min_len is at least 4).

    A hole is found from its smallest vertex v and the smaller a of v's two
    hole neighbors: a chordless path grows from a through vertices above v
    outside N[v], and closes at a neighbor b > a of v that sees no path
    vertex but the last."""
    for v in range(n):
        above = -(2 << v)
        inner = above & ~masks[v]
        for a in iter_bits(masks[v] & above):
            ends = masks[v] & -(2 << a)
            # Each entry: the path's last vertex, the path with the
            # neighborhoods of all but its last vertex, and its vertex count.
            stack = [(a, 1 << a, 1)]
            while stack:
                last, seen, k = stack.pop()
                step = masks[last] & ~seen
                if k + 2 >= min_len and (not odd or k % 2) and step & ends:
                    return True
                seen |= masks[last]
                for w in iter_bits(step & inner):
                    stack.append((w, seen | 1 << w, k + 1))
    return False


def _one_edge(masks: Sequence[int], trio: int) -> bool:
    """The three vertices of trio span exactly one edge under masks."""
    p = trio & -trio
    q = trio ^ p
    r = q & (q - 1)
    q ^= r
    return ((masks[p.bit_length() - 1] & (q | r)).bit_count()
            + (masks[q.bit_length() - 1] & r).bit_count()) == 1


def _has_prism(masks: Sequence[int], n: int) -> bool:
    """True when masks induce a prism.

    An ESU walk (Wernicke, 2006) grows every connected vertex set once, from
    its smallest vertex.  It skips a set together with its extensions once a
    member's induced degree exceeds 3, or once a member of degree 3 has
    neighbors spanning other than one edge: a prism's degree-3 vertex sees
    its two triangle mates and one vertex adjacent to neither, and the degree
    cap keeps those neighbors in every extension.  A set whose degrees fit a
    prism goes to _prism_check."""

    def grow(sub: int, ext: int, near: int, d1: int, d2: int, d3: int,
             floor: int) -> bool:
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
            if (e2 == grown and e3.bit_count() == 6
                    and _prism_check(masks, tuple(iter_bits(grown)))):
                return True
            if grow(grown, ext | masks[w] & ~near & floor, near | masks[w],
                    e1, e2, e3, floor):
                return True
        return False

    for v in range(n):
        floor = -(2 << v)
        if grow(1 << v, masks[v] & floor, masks[v] | 1 << v, 0, 0, 0, floor):
            return True
    return False


def find_odd_hole(g: Graph) -> StructureWitness | None:
    """First chordless odd cycle of length at least five, by subset enumeration.

    The verdict comes from the path search of _has_hole; only a graph with an
    odd hole pays for the walk.  Prefixes with a vertex of induced degree
    above 2 are skipped; degrees only grow along the walk, so the search
    stays exhaustive and the first witness is unchanged."""
    _require(g.n, MAX_SUBSET_N, "odd-hole detector")
    masks = _neighbor_masks(g)
    if not _has_hole(masks, g.n, 5, True):
        return None
    for subset in _subsets_lex(g.n, 5, masks, 2):
        if len(subset) % 2 == 0:
            continue
        order = _cycle_order(masks, subset)
        if order is not None:
            return StructureWitness(ODD_HOLE, order)
    return None


def find_antihole(g: Graph) -> StructureWitness | None:
    """First antihole of length at least six: a subset inducing a chordless
    cycle in the complement.  Length-five antiholes are self-complementary
    five-holes and belong to the odd-hole detector.

    The verdict comes from _has_hole on the complement; only a graph with an
    antihole pays for the walk.  Prefixes with a vertex of degree above 2 in
    the complement are skipped; degrees only grow along the walk, so the
    search stays exhaustive and the first witness is unchanged."""
    _require(g.n, MAX_SUBSET_N, "antihole detector")
    full = (1 << g.n) - 1
    co_masks = [full & ~mask & ~(1 << v) for v, mask in enumerate(_neighbor_masks(g))]
    if not _has_hole(co_masks, g.n, 6, False):
        return None
    for subset in _subsets_lex(g.n, 6, co_masks, 2):
        order = _cycle_order(co_masks, subset)
        if order is not None:
            return StructureWitness(ANTIHOLE, order)
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


def find_prism(g: Graph) -> StructureWitness | None:
    """First vertex subset inducing a prism: two disjoint triangles joined by
    three vertex-disjoint paths and nothing else.

    The verdict comes from the connected walk of _has_prism; only a graph
    with a prism pays for the subset walk.  Prefixes with a vertex of induced
    degree above 3 are skipped; degrees only grow along the walk, so the
    search stays exhaustive and the first witness is unchanged."""
    _require(g.n, MAX_SUBSET_N, "prism detector")
    masks = _neighbor_masks(g)
    if not _has_prism(masks, g.n):
        return None
    for subset in _subsets_lex(g.n, 6, masks, 3):
        if _prism_check(masks, subset):
            return StructureWitness(PRISM, subset)
    return None


def is_artemis(g: Graph) -> tuple[bool, StructureWitness | None]:
    """Class membership: no odd hole, no antihole of length five or more, no
    prism.  Returns the verdict with the first witness found, if any."""
    witness = find_odd_hole(g)
    if witness is None:
        witness = find_antihole(g)
    if witness is None:
        witness = find_prism(g)
    return witness is None, witness


def enumerate_chordless_paths(g: Graph, x: int, y: int) -> list[tuple[int, ...]]:
    """All chordless paths from x to y, depth-first with the prune that a new
    vertex may only be adjacent to the current last path vertex."""
    _require(g.n, MAX_SUBSET_N, "chordless-path enumeration")
    if x == y or not (0 <= x < g.n and 0 <= y < g.n):
        raise GraphError("chordless paths need two distinct vertices in range")
    masks = _neighbor_masks(g)
    result: list[tuple[int, ...]] = []
    path = [x]

    def extend(forbid: int) -> None:
        last = path[-1]
        for w in iter_bits(masks[last] & ~forbid):
            if w == y:
                result.append(tuple(path) + (y,))
                continue
            path.append(w)
            extend(forbid | masks[last] | 1 << w)
            path.pop()

    extend(1 << x)
    return result


def is_even_pair_exact(g: Graph, x: int, y: int) -> bool:
    """True when every chordless path between the non-adjacent pair has even
    length; vacuously true when no path exists."""
    if g.adjacent(x, y):
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
    order = sorted(g.vertices, key=lambda v: (-g.degree(v), v))
    n = g.n

    def colorable(k: int) -> bool:
        assigned: dict[int, int] = {}

        def place(i: int) -> bool:
            if i == n:
                return True
            v = order[i]
            used_new = max(assigned.values(), default=-1) + 1
            taken = {assigned[w] for w in g.neighbor_set(v) if w in assigned}
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
    if not members:
        return False
    seed = min(members)
    seen = {seed}
    stack = [seed]
    while stack:
        u = stack.pop()
        for w in members - g.neighbor_set(u):
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
    return all(is_clique(g, g.neighbor_set(u) & complete) for u in outside)


def enumerate_outer_paths(g: Graph, tset: Iterable[int],
                          cset: Iterable[int]) -> list[tuple[int, ...]]:
    """All T-outer paths: chordless, both endpoints complete, at least one
    interior vertex, interior disjoint from T and the complete set.  Each path
    is listed once, with its smaller endpoint first."""
    _require(g.n, MAX_SUBSET_N, "outer-path enumeration")
    tset = set(tset)
    cset = set(cset)
    interior_pool = set(g.vertices) - tset - cset
    masks = _neighbor_masks(g)
    result: list[tuple[int, ...]] = []
    for start in sorted(cset):
        path = [start]

        def extend(forbid: int) -> None:
            last = path[-1]
            for w in iter_bits(masks[last] & ~forbid):
                if w in cset:
                    if w > start and len(path) >= 2:
                        result.append(tuple(path) + (w,))
                    continue
                if w not in interior_pool:
                    continue
                path.append(w)
                extend(forbid | masks[last] | 1 << w)
                path.pop()

        extend(1 << start)
    return result


def brute_minimal_outer_path_check(g: Graph, tset: Iterable[int], cset: Iterable[int],
                                   verts: Sequence[int]) -> bool:
    """The path ``verts`` is a T-outer path of even length at least four and no
    other T-outer path has its interior strictly inside this one's."""
    tset = set(tset)
    cset = set(cset)
    if len(verts) < 3 or len(set(verts)) != len(verts):
        return False
    if verts[0] not in cset or verts[-1] not in cset:
        return False
    interior = set(verts[1:-1])
    if interior & (tset | cset):
        return False
    for i in range(len(verts) - 1):
        if not g.adjacent(verts[i], verts[i + 1]):
            return False
    for i in range(len(verts)):
        for j in range(i + 2, len(verts)):
            if g.adjacent(verts[i], verts[j]):
                return False
    length = len(verts) - 1
    if length % 2 != 0 or length < 4:
        return False
    for other in enumerate_outer_paths(g, tset, cset):
        if set(other[1:-1]) < interior:
            return False
    return True


def outer_path_exists_criterion(g: Graph, tset: Iterable[int],
                                cset: Iterable[int]) -> bool:
    """Existence test for T-outer paths: some component of the leftover
    vertices meets the complete set in a non-clique."""
    tset = set(tset)
    cset = set(cset)
    for comp in components(g, set(g.vertices) - tset - cset):
        boundary: set[int] = set()
        for v in comp:
            boundary |= g.neighbor_set(v)
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
