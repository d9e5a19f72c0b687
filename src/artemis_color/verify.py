"""Oracle-backed verification of every intermediate structure the pipeline emits.

Attach an :class:`OracleVerifier` as the pipeline observer and each maximal
interesting set, outer path, to-be-contracted pair and contracted graph gets
cross-checked against the brute-force oracles.  Failures are collected, not
raised, so a whole run can be audited in one pass.

The oracles run on dense :class:`Graph` copies.  The verifier keeps one dense
replica of the engine's working graph, built at the first level of a run that
fits the oracle budget and advanced with :func:`graphs.contract` at every
contraction, and materializes smaller levels with :func:`graphs.induced`.

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

from .engine import (
    DisjointCliques,
    InterestingSetResult,
    OuterPath,
    PipelineObserver,
    WorkingGraph,
)
from .graphs import (
    Graph,
    common_complete,
    components,
    contract,
    induced,
    is_clique,
    is_simplicial,
)
from .handles import interesting_gives_handle_check
from .oracles import (
    MAX_SUBSET_N,
    PRISM,
    brute_maximal_interesting_check,
    brute_minimal_outer_path_check,
    find_prism,
    fonlupt_uhry_check,
    is_artemis,
    is_even_pair_exact,
    is_special_even_pair_exact,
    outer_path_exists_criterion,
)


@dataclass
class OracleVerifier(PipelineObserver):
    """Collects one named check per oracle-verified guarantee.

    ``checks`` counts how often each check ran, ``failures`` holds a message
    per violated guarantee.  Checks silently skip levels larger than the
    oracle budget.  Messages name vertices by their ids in the input graph.
    """

    checks: Counter = field(default_factory=Counter)
    failures: list[str] = field(default_factory=list)
    # The graph of the current run, its dense replica (None while the whole
    # graph exceeds the budget), the replica id of each of its vertices, and
    # whether the replica passed its last class scan.
    _source: WorkingGraph | Graph | None = field(default=None, init=False, repr=False)
    _dense: Graph | None = field(default=None, init=False, repr=False)
    _local: dict[int, int] = field(default_factory=dict, init=False, repr=False)
    _in_class: bool = field(default=False, init=False, repr=False)

    @property
    def ok(self) -> bool:
        return not self.failures

    def _record(self, name: str, passed: bool, detail: str) -> None:
        self.checks[name] += 1
        if not passed:
            self.failures.append(f"{name}: {detail}")

    def _level(self, g: WorkingGraph, domain: frozenset[int]):
        """Materialized level subgraph plus the original-to-local id map."""
        if len(domain) < len(g.vertices):
            sub, old_ids = induced(g, domain)
            return sub, {old: new for new, old in enumerate(old_ids)}
        if self._dense is None:
            self._dense, old_ids = induced(g, g.vertices)
            self._local = {old: new for new, old in enumerate(old_ids)}
            self._in_class = False
        return self._dense, self._local

    def interesting(self, g: WorkingGraph, domain: frozenset[int],
                    result: InterestingSetResult) -> None:
        if g is not self._source:  # first hook of a new run
            self._source, self._dense = g, None
        if len(domain) > MAX_SUBSET_N:
            return
        sub, to_local = self._level(g, domain)
        if isinstance(result, DisjointCliques):
            parts = [frozenset(to_local[v] for v in part) for part in result.cliques]
            good = (sorted(map(sorted, parts)) == sorted(map(sorted, components(sub)))
                    and all(is_clique(sub, p) for p in parts)
                    and all(is_simplicial(sub, v) for v in sub.vertices))
            self._record("disjoint_cliques", good,
                         f"partition {parts} is not the clique components of the level")
            return
        tset = {to_local[v] for v in result.tset}
        cset = {to_local[v] for v in result.cset}
        self._record("interesting_maximal",
                     brute_maximal_interesting_check(sub, tset),
                     f"set {sorted(result.tset)} is not maximal interesting in its level")
        self._record("interesting_complete", cset == common_complete(sub, tset),
                     f"complete set mismatch for {sorted(result.tset)}")
        self._record("handle_bridge_from_interesting",
                     interesting_gives_handle_check(sub, tset),
                     f"set {sorted(result.tset)} gives no handle in the complement")

    def outer_path(self, g: WorkingGraph, domain: frozenset[int], tset: frozenset[int],
                   cset: frozenset[int], path: OuterPath | None) -> None:
        if len(domain) > MAX_SUBSET_N:
            return
        sub, to_local = self._level(g, domain)
        t_local = {to_local[v] for v in tset}
        c_local = {to_local[v] for v in cset}
        if path is None:
            self._record("outer_none",
                         not outer_path_exists_criterion(sub, t_local, c_local),
                         f"a T-outer path exists but none was returned (T={sorted(tset)})")
            return
        local = tuple(to_local[v] for v in path.vertices)
        self._record("outer_parity", path.length % 2 == 0 and path.length >= 4,
                     f"outer path {path.vertices} has odd or short length {path.length}")
        self._record("outer_minimal",
                     brute_minimal_outer_path_check(sub, t_local, c_local, local),
                     f"path {path.vertices} is not a minimal T-outer path")

    def bottom_pair(self, g: WorkingGraph, domain: frozenset[int],
                    result: DisjointCliques, pair: tuple[int, int]) -> None:
        if len(domain) > MAX_SUBSET_N:
            return
        sub, to_local = self._level(g, domain)
        a, b = (to_local[pair[0]], to_local[pair[1]])
        self._record("bottom_pair_special",
                     is_special_even_pair_exact(sub, a, b),
                     f"bottom pair {pair} is not special in its level")

    def contracted(self, g: WorkingGraph, a: int, b: int) -> None:
        before = self._dense
        if before is None:  # the graph before the merge exceeded the budget
            return
        da, db = self._local[a], self._local[b]
        after, _ = contract(before, da, db)
        self._source, self._dense = g, after
        self._local = {v: i for i, v in enumerate(g.vertices)}
        even = is_even_pair_exact(before, da, db)
        ok, witness = is_artemis(after, through=min(da, db) if self._in_class else None)
        self._in_class = ok
        # Special means even with a prism-free contraction; the class scan
        # already settles the prism question unless it stopped at an odd hole
        # or an antihole first.
        special = even and (ok or (witness.kind != PRISM and find_prism(after) is None))
        self._record("pair_even", even,
                     f"contracted pair ({a}, {b}) is not an even pair")
        self._record("pair_special", special,
                     f"contracted pair ({a}, {b}) is not special")
        self._record("pair_invariance", fonlupt_uhry_check(before, da, db),
                     f"contracting ({a}, {b}) changed the color or clique number")
        self._record("class_preserved", ok,
                     f"contracting ({a}, {b}) left the class: {witness}")
