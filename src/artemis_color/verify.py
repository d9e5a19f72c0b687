"""Oracle-backed verification of every intermediate structure the pipeline emits.

Attach an :class:`OracleVerifier` as the pipeline observer and each maximal
interesting set, outer path, to-be-contracted pair and contracted graph gets
cross-checked against the brute-force oracles.  Failures are collected, not
raised, so a whole run can be audited in one pass: an oracle that rejects a
malformed structure with :class:`GraphError` fails its check with that message.

The oracles run on :class:`oracles.MaskGraph` views in the input's vertex
ids, read straight from the working graph, so the verifier builds no
:class:`Graph` and keeps no id map.  The whole graph's view, the replica, is
read at the first hook of a run, refused with :class:`oracles.BudgetExceeded`
past ``MAX_SUBSET_N`` vertices, and again after each contraction, and kept
to check the next contraction against.

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
from .graphs import Graph, GraphError
from .handles import interesting_gives_handle_check
from .oracles import (MAX_SUBSET_N, PRISM, MaskGraph, _complete, _view,
                      brute_maximal_interesting_check, brute_minimal_outer_path_check,
                      find_prism, fonlupt_uhry_check, is_artemis, is_even_pair_exact,
                      is_special_even_pair_exact, mask_of, outer_path_exists_criterion)


@dataclass
class OracleVerifier(PipelineObserver):
    """Collects one named check per oracle-verified guarantee.

    ``checks`` counts how often each check ran, ``failures`` holds a message
    per violated guarantee.  A run on more than ``MAX_SUBSET_N`` vertices is
    refused with ``BudgetExceeded`` before any check.  Messages name vertices
    by their ids in the input graph.
    """

    checks: Counter = field(default_factory=Counter, init=False)
    failures: list[str] = field(default_factory=list, init=False)
    # The run's graph, its replica, and whether the replica passed its last class scan.
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

    def _check(self, name: str, detail: str, oracle, *args) -> bool:
        """Record whether ``oracle(*args)`` holds; a malformed input fails the check."""
        try:
            passed = oracle(*args)
        except GraphError as exc:
            passed, detail = False, f"{detail}: {exc}"
        self._record(name, passed, detail)
        return passed

    def _level(self, g: WorkingGraph, domain: frozenset[int]) -> MaskGraph:
        """The view of the level on domain; the replica for the whole graph."""
        return self._replica if len(domain) == len(g.vertices) else _view(g, on=domain)

    def interesting(self, g: WorkingGraph, domain: frozenset[int],
                    result: InterestingSetResult) -> None:
        if g is not self._source:  # first hook of a new run
            self._replica = _view(g, MAX_SUBSET_N, "oracle verifier")
            self._source, self._in_class = g, False
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
        self._check("interesting_maximal",
                    f"set {sorted(result.tset)} is not maximal interesting in its level",
                    brute_maximal_interesting_check, level, result.tset)
        self._record("interesting_complete", mask_of(result.cset) == complete,
                     f"complete set mismatch for {sorted(result.tset)}")
        self._check("handle_bridge_from_interesting",
                    f"set {sorted(result.tset)} gives no handle in the complement",
                    interesting_gives_handle_check, level, result.tset)

    def outer_path(self, g: WorkingGraph, domain: frozenset[int], tset: frozenset[int],
                   cset: frozenset[int], path: OuterPath | None) -> None:
        level = self._level(g, domain)
        if path is None:
            self._check("outer_none",
                        f"a T-outer path exists but none was returned (T={sorted(tset)})",
                        lambda: not outer_path_exists_criterion(level, tset, cset))
            return
        self._record("outer_parity", path.length % 2 == 0 and path.length >= 4,
                     f"outer path {path.vertices} has odd or short length {path.length}")
        self._check("outer_minimal", f"path {path.vertices} is not a minimal T-outer path",
                    brute_minimal_outer_path_check, level, tset, cset, path.vertices)

    def bottom_pair(self, g: WorkingGraph, domain: frozenset[int], pair: tuple[int, int]) -> None:
        self._check("bottom_pair_special", f"bottom pair {pair} is not special in its level",
                    is_special_even_pair_exact, self._level(g, domain), *pair)

    def contracted(self, g: WorkingGraph, a: int, b: int) -> None:
        before, after = self._replica, _view(g)
        self._source, self._replica = g, after
        even = self._check("pair_even", f"contracted pair ({a}, {b}) is not an even pair",
                           is_even_pair_exact, before, a, b)
        ok, witness = is_artemis(after, through=min(a, b) if self._in_class else None)
        self._in_class = ok
        # Special means even with a prism-free contraction; the class scan
        # already settles the prism question unless it stopped at an odd hole
        # or an antihole first.
        special = even and (ok or (witness.kind != PRISM and find_prism(after) is None))
        self._record("pair_special", special, f"contracted pair ({a}, {b}) is not special")
        self._check("pair_invariance",
                    f"contracting ({a}, {b}) changed the color or clique number",
                    fonlupt_uhry_check, before, a, b)
        self._record("class_preserved", ok, f"contracting ({a}, {b}) left the class: {witness}")
