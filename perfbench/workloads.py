"""The benchmark's workloads and the instances generated for them.

This module needs only the standard library: the process that times the
runs stays small, so the peak RSS its children report is their own (Linux
keeps a forked child's pre-exec high-water mark).  Generation lives in
inputs.py, which runs in a child process.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    """One set of inputs the benchmark runs; BENCHMARK.json says why each exists.

    ``shapes`` lists (family, n, density) per pool instance.  A workload with
    ``verify`` runs ``color --verify`` in-process in one worker and times
    batches of the whole pool; otherwise every instance is one
    ``python -m artemis_color.cli color`` subprocess.
    """

    name: str
    shapes: tuple[tuple[str, int, float], ...]
    verify: bool = False
    # Expected sign of engine.even_pair_calls in the traced run; None: either.
    expects_even_pairs: bool | None = None


def _verify_small_shapes() -> tuple[tuple[str, int, float], ...]:
    shapes = []
    for i in range(30):
        n = 10 + i % 3
        shapes += [("chordal", n, 0.5), ("bipartite", n, 0.3), ("filtered-random", n, 0.5)]
    return tuple(shapes)


WORKLOADS = {
    w.name: w for w in (
        # Deep descents, every pair from the bottom-level clique rule: the
        # bypass case for even-pair extraction.
        Workload(
            name="chordal-dense",
            shapes=(("chordal", 200, 0.5),) * 6,
            expects_even_pairs=False,
        ),
        # About a quarter of the pairs come from outer paths: the workload
        # that times find_outer_path and find_even_pair.
        Workload(
            name="bipartite-sparse",
            shapes=(("bipartite", 600, 0.01),) * 8,
            expects_even_pairs=True,
        ),
        # color --verify: thousands of tiny graph builds, and the brute-force
        # oracles take most of the time.
        Workload(
            name="verify-small",
            shapes=_verify_small_shapes(),
            verify=True,
        ),
    )
}


@dataclass(frozen=True)
class Instance:
    """One generated input file with what the checker needs to judge its output."""

    id: str
    path: str
    n: int
    edges: tuple[tuple[int, int], ...]
    omega: int
    input_sha256: str

    @property
    def m(self) -> int:
        return len(self.edges)
