"""Run reports and the scaling benchmark.

The scaling claim is asymptotic: one special-even-pair search costs O(nm) and
the whole coloring O(n^2 m) in the neighbor-scan cost model.  The benchmark
stands in for that with a log-log fit of instrumented operation counts against
n*m and n^2*m over a family of growing instances.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass, field

from .engine import Coloring, OpCounters, PipelineObserver, color_artemis
from .generators import generate
from .graphs import ContractionTrace, Graph, GraphError

DEFAULT_BENCH_DENSITY = 0.5


@dataclass
class RunReport:
    """One pipeline run: sizes, result, per-phase operation counts, timing."""

    n: int
    m: int
    num_colors: int
    contractions: int
    interesting_ops: int
    outer_ops: int
    even_pair_ops: int
    first_call_ops: int
    chain_depths: tuple[int, ...]
    wall_time: float

    @property
    def total_ops(self) -> int:
        return self.interesting_ops + self.outer_ops + self.even_pair_ops


def run_instance(g: Graph, *,
                 observer: PipelineObserver | None = None,
                 ) -> tuple[RunReport, Coloring, ContractionTrace]:
    counters = OpCounters()
    start = time.perf_counter()
    coloring, trace = color_artemis(g, counters=counters, observer=observer)
    wall = time.perf_counter() - start
    report = RunReport(
        n=g.n,
        m=g.m,
        num_colors=coloring.num_colors,
        contractions=len(trace.steps),
        interesting_ops=counters.interesting,
        outer_ops=counters.outer,
        even_pair_ops=counters.even_pair,
        first_call_ops=counters.per_call[0],  # every run ends with a search
        chain_depths=tuple(counters.chain_depths),
        wall_time=wall,
    )
    return report, coloring, trace


def fit_loglog_slope(xs: list[float], ys: list[float]) -> float:
    """Least-squares slope of log(y) against log(x)."""
    fit = statistics.linear_regression([math.log(x) for x in xs], [math.log(y) for y in ys])
    return fit.slope


@dataclass
class BenchResult:
    reports: list[RunReport] = field(default_factory=list)
    total_slope: float | None = None       # total ops against n^2 * m
    first_call_slope: float | None = None  # first search ops against n * m

    def table(self) -> str:
        header = (f"{'n':>6} {'m':>8} {'colors':>6} {'contr':>6} "
                  f"{'interesting':>12} {'outer':>10} {'evenpair':>10} "
                  f"{'total':>12} {'first_call':>12} {'wall_s':>8}")
        rows = [header]
        for r in self.reports:
            rows.append(f"{r.n:>6} {r.m:>8} {r.num_colors:>6} {r.contractions:>6} "
                        f"{r.interesting_ops:>12} {r.outer_ops:>10} {r.even_pair_ops:>10} "
                        f"{r.total_ops:>12} {r.first_call_ops:>12} {r.wall_time:>8.3f}")
        if self.total_slope is not None:
            rows.append(f"slope log(total ops) vs log(n^2*m):      {self.total_slope:.3f}")
        if self.first_call_slope is not None:
            rows.append(f"slope log(first-call ops) vs log(n*m):   {self.first_call_slope:.3f}")
        return "\n".join(rows)


def bench(family: str, sizes: list[int], seed: int) -> BenchResult:
    """Color one instance per size, at density ``DEFAULT_BENCH_DENSITY``, and
    fit the operation-count scaling.

    With a single size there is nothing to fit and the slopes stay None.
    A fit takes logarithms of n^2*m and n*m, so it refuses with GraphError an
    edgeless instance, or sizes that give every instance the same n^2*m or
    n*m.
    """
    result = BenchResult()
    for i, n in enumerate(sizes):
        g = generate(family, n, DEFAULT_BENCH_DENSITY, seed + i)
        if len(sizes) > 1 and g.m == 0:
            raise GraphError(f"cannot fit the scaling: the instance with n={n} has no edges")
        report, _, _ = run_instance(g)
        result.reports.append(report)
    if len(sizes) > 1:
        xs_total = [r.n * r.n * r.m for r in result.reports]
        xs_first = [r.n * r.m for r in result.reports]
        for xs, what in ((xs_total, "n^2*m"), (xs_first, "n*m")):
            if len(set(xs)) == 1:
                raise GraphError(f"cannot fit the scaling: every instance has {what} = {xs[0]}")
        result.total_slope = fit_loglog_slope(xs_total, [r.total_ops for r in result.reports])
        result.first_call_slope = fit_loglog_slope(
            xs_first, [r.first_call_ops for r in result.reports])
    return result
