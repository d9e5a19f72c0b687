"""Oracle-backed verification of every intermediate structure the pipeline emits.

Attach an :class:`OracleVerifier` as the pipeline observer and each maximal
interesting set, outer path, to-be-contracted pair and contracted graph gets
cross-checked against the brute-force oracles.  Failures are collected, not
raised, so a whole run can be audited in one pass.

The oracles run on :class:`oracles.MaskGraph` views in the input's vertex
ids, read straight from the working graph, so the verifier builds no
:class:`Graph` and keeps no id map.  The whole graph's view, the replica, is
read at the first whole-graph hook of a run within the oracle budget and again
after each contraction, and kept to check the next contraction against.

Each contracted replica gets one class scan, :func:`oracles.is_artemis`.  It
passes ``through``, the merged vertex, only when the replica before the merge
passed its own scan: the class is closed under induced subgraphs, and the
contracted replica minus the merged vertex is the replica before minus the
pair, so that is ``through``'s precondition.  A replica built from scratch
counts as unscanned, and its first contraction gets the full scan.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .engine import (DisjointCliques, InterestingSetResult, OuterPath, PipelineObserver,
                     WorkingGraph)
from .graphs import Graph
from .handles import interesting_gives_handle_check
from .oracles import (MAX_SUBSET_N, PRISM, MaskGraph, _complete,
                      brute_maximal_interesting_check, brute_minimal_outer_path_check,
                      find_prism, fonlupt_uhry_check, is_artemis, is_even_pair_exact,
                      is_special_even_pair_exact, mask_of, outer_path_exists_criterion)


def _view_of(g: WorkingGraph | Graph, domain: frozenset[int] | set[int]) -> MaskGraph:
    """The subgraph of g on domain as a view in g's vertex ids."""
    masks = [0] * (max(domain, default=-1) + 1)
    for v in domain:
        masks[v] = mask_of(g.adj[v] & domain)
    return MaskGraph(masks, mask_of(domain))


@dataclass
class OracleVerifier(PipelineObserver):
    """Collects one named check per oracle-verified guarantee.

    ``checks`` counts how often each check ran, ``failures`` holds a message
    per violated guarantee.  Checks silently skip levels larger than the
    oracle budget.  Messages name vertices by their ids in the input graph.
    """

    checks: Counter = field(default_factory=Counter)
    failures: list[str] = field(default_factory=list)
    # The graph of the current run, its replica (None while the whole graph
    # exceeds the budget), and whether the replica passed its last class scan.
    _source: WorkingGraph | Graph | None = field(default=None, init=False, repr=False)
    _replica: MaskGraph | None = field(default=None, init=False, repr=False)
    _in_class: bool = field(default=False, init=False, repr=False)

    @property
    def ok(self) -> bool:
        return not self.failures

    def _record(self, name: str, passed: bool, detail: str) -> None:
        self.checks[name] += 1
        if not passed:
            self.failures.append(f"{name}: {detail}")

    def _level(self, g: WorkingGraph, domain: frozenset[int]) -> MaskGraph:
        """The view of the level on domain; the replica for the whole graph."""
        if len(domain) < len(g.vertices):
            return _view_of(g, domain)
        if self._replica is None:
            self._replica, self._in_class = _view_of(g, domain), False
        return self._replica

    def interesting(self, g: WorkingGraph, domain: frozenset[int],
                    result: InterestingSetResult) -> None:
        if g is not self._source:  # first hook of a new run
            self._source, self._replica = g, None
        if len(domain) > MAX_SUBSET_N:
            return
        level = self._level(g, domain)
        if isinstance(result, DisjointCliques):
            # The parts are the clique components exactly when they partition
            # the level and each is the closed neighborhood of its members.
            parts = [mask_of(part) for part in result.cliques]
            good = (sum(part.bit_count() for part in parts) == len(domain)
                    and set(parts) == {level.masks[v] | 1 << v for v in domain})
            self._record("disjoint_cliques", good,
                         f"partition {sorted(map(sorted, result.cliques))} "
                         "is not the clique components of the level")
            return
        complete = _complete(level, mask_of(result.tset))
        self._record("interesting_maximal",
                     brute_maximal_interesting_check(level, result.tset),
                     f"set {sorted(result.tset)} is not maximal interesting in its level")
        self._record("interesting_complete", mask_of(result.cset) == complete,
                     f"complete set mismatch for {sorted(result.tset)}")
        self._record("handle_bridge_from_interesting",
                     interesting_gives_handle_check(level, result.tset),
                     f"set {sorted(result.tset)} gives no handle in the complement")

    def outer_path(self, g: WorkingGraph, domain: frozenset[int], tset: frozenset[int],
                   cset: frozenset[int], path: OuterPath | None) -> None:
        if len(domain) > MAX_SUBSET_N:
            return
        level = self._level(g, domain)
        if path is None:
            self._record("outer_none",
                         not outer_path_exists_criterion(level, tset, cset),
                         f"a T-outer path exists but none was returned (T={sorted(tset)})")
            return
        self._record("outer_parity", path.length % 2 == 0 and path.length >= 4,
                     f"outer path {path.vertices} has odd or short length {path.length}")
        self._record("outer_minimal",
                     brute_minimal_outer_path_check(level, tset, cset, path.vertices),
                     f"path {path.vertices} is not a minimal T-outer path")

    def bottom_pair(self, g: WorkingGraph, domain: frozenset[int],
                    result: DisjointCliques, pair: tuple[int, int]) -> None:
        if len(domain) > MAX_SUBSET_N:
            return
        self._record("bottom_pair_special",
                     is_special_even_pair_exact(self._level(g, domain), *pair),
                     f"bottom pair {pair} is not special in its level")

    def contracted(self, g: WorkingGraph, a: int, b: int) -> None:
        before = self._replica
        if before is None:  # the graph before the merge exceeded the budget
            return
        after = _view_of(g, set(g.vertices))
        self._source, self._replica = g, after
        even = is_even_pair_exact(before, a, b)
        ok, witness = is_artemis(after, through=min(a, b) if self._in_class else None)
        self._in_class = ok
        # Special means even with a prism-free contraction; the class scan
        # already settles the prism question unless it stopped at an odd hole
        # or an antihole first.
        special = even and (ok or (witness.kind != PRISM and find_prism(after) is None))
        self._record("pair_even", even, f"contracted pair ({a}, {b}) is not an even pair")
        self._record("pair_special", special, f"contracted pair ({a}, {b}) is not special")
        self._record("pair_invariance", fonlupt_uhry_check(before, a, b),
                     f"contracting ({a}, {b}) changed the color or clique number")
        self._record("class_preserved", ok, f"contracting ({a}, {b}) left the class: {witness}")
