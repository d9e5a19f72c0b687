"""Span recorder that times artemis_color's layers from outside the package.

Each public function is wrapped at the name where its caller looks it up:
``artemis_color.engine.contract``, not ``artemis_color.graphs.contract``,
because the engine calls its own imported reference.  Spans stay in memory
as [name, start, end, parent index]; a span's self time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

# (module or class path, attribute, span name).  Several attributes may share
# a span name; the span names are the benchmark's per-layer metrics.
TARGETS = (
    ("artemis_color.cli", "parse_dimacs", "dimacs.parse"),
    ("artemis_color.cli", "write_coloring", "dimacs.write"),
    ("artemis_color.cli", "run_instance", "bench.run_instance"),
    ("artemis_color.cli", "residue_cliques", "bench.residue_replay"),
    ("artemis_color.bench", "color_artemis", "engine.color_artemis"),
    ("artemis_color.engine", "find_special_even_pair", "engine.pair_search"),
    ("artemis_color.engine", "find_interesting", "engine.interesting"),
    ("artemis_color.engine", "components", "graphs.components"),
    ("artemis_color.engine", "find_outer_path", "engine.outer_path"),
    ("artemis_color.engine", "find_even_pair", "engine.even_pair"),
    ("artemis_color.engine", "contract", "graphs.contract"),
    ("artemis_color.engine", "greedy_color_cliques", "engine.greedy_lift"),
    ("artemis_color.engine", "lift_coloring", "engine.greedy_lift"),
    ("artemis_color.graphs:Graph", "__init__", "graphs.graph_build"),
    ("artemis_color.verify:OracleVerifier", "interesting", "verify.observer"),
    ("artemis_color.verify:OracleVerifier", "outer_path", "verify.observer"),
    ("artemis_color.verify:OracleVerifier", "bottom_pair", "verify.observer"),
    ("artemis_color.verify:OracleVerifier", "contracted", "verify.observer"),
    ("artemis_color.verify", "is_artemis", "oracles.is_artemis"),
    ("artemis_color.verify", "is_special_even_pair_exact", "oracles.special_pair"),
    ("artemis_color.verify", "fonlupt_uhry_check", "oracles.fonlupt_uhry"),
    ("artemis_color.verify", "is_even_pair_exact", "oracles.other"),
    ("artemis_color.verify", "brute_maximal_interesting_check", "oracles.other"),
    ("artemis_color.verify", "brute_minimal_outer_path_check", "oracles.other"),
    ("artemis_color.verify", "outer_path_exists_criterion", "oracles.other"),
    ("artemis_color.verify", "interesting_gives_handle_check", "handles.handle_check"),
)

# Every span name a traced run can record, in report order.  cli.import is
# recorded by the child itself, cli.main is the root span of each run.
SPAN_NAMES = ("cli.import", "cli.main") + tuple(dict.fromkeys(t[2] for t in TARGETS))


def _resolve(path: str):
    # Modules come from sys.modules: `import artemis_color.bench` would give
    # the bench() function the package re-exports under that name.
    module, _, cls = path.partition(":")
    owner = sys.modules[module]
    return getattr(owner, cls) if cls else owner


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def record(self, name: str, start: float, end: float) -> None:
        """Add a finished span measured elsewhere."""
        self.spans.append([name, start, end, self._stack[-1] if self._stack else -1])

    def call(self, name: str, fn, *args, **kwargs):
        span = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            span[2] = time.perf_counter()

    def install(self) -> None:
        """Wrap every target; the package must already be imported."""
        hooks = {"bench.run_instance": self._count_report,
                 "engine.outer_path": self._count_outer_path}
        for path, attr, name in TARGETS:
            self._patch(_resolve(path), attr, name, hooks.get(name))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def _patch(self, owner, attr: str, name: str, on_result) -> None:
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            result = self.call(name, original, *args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def _count_report(self, result) -> None:
        report = result[0]
        self.counts["engine.interesting_ops"] += report.interesting_ops
        self.counts["engine.outer_ops"] += report.outer_ops
        self.counts["engine.even_pair_ops"] += report.even_pair_ops
        self.counts["engine.contractions"] += report.contractions
        self.counts["engine.search_levels"] += sum(report.chain_depths)
        self.counts["engine.searches"] += len(report.chain_depths)

    def _count_outer_path(self, path) -> None:
        if path is not None:
            self.counts["engine.outer_path_hits"] += 1

    def summary(self) -> dict:
        """Self seconds and call count per span name, plus the counters."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for i, (name, start, end, _) in enumerate(self.spans):
            self_s[name] += end - start - child[i]
            calls[name] += 1
        return {"self": dict(self_s), "calls": dict(calls), "counts": dict(self.counts)}
