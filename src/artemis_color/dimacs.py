"""DIMACS .col reading and the matching coloring output format.

Input: optional ``c`` comment lines, one ``p edge <n> <m>`` line, then
``e <u> <v>`` lines with 1-based endpoints.  Output: ``s <colors>`` followed
by one ``v <vertex> <color>`` line per vertex, 1-based on both sides.
"""

from __future__ import annotations

from typing import Callable

from .engine import Coloring
from .graphs import Graph

# Largest declared vertex count: each costs memory even without edges.
MAX_VERTICES = 100_000


class DimacsError(ValueError):
    """Hard parse error; the message carries the offending line number."""


def parse_dimacs(text: str, *, on_warning: Callable[[str], None] | None = None) -> Graph:
    """Graph from DIMACS text, 0-based ids.

    Duplicate edges are dropped with a warning; a declared edge count that
    disagrees with the actual one is a warning and the actual count wins.
    Missing or repeated ``p`` lines, a vertex count above MAX_VERTICES,
    edges before ``p``, endpoints out of range and self-loops are hard errors.
    """
    warn = on_warning if on_warning is not None else (lambda _msg: None)
    n = None
    declared_m = 0
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        if fields[0] == "p":
            if n is not None:
                raise DimacsError(f"line {lineno}: second 'p' line")
            if len(fields) != 4 or fields[1] != "edge":
                raise DimacsError(f"line {lineno}: expected 'p edge <n> <m>'")
            try:
                n, declared_m = int(fields[2]), int(fields[3])
            except ValueError:
                raise DimacsError(f"line {lineno}: non-integer sizes in 'p' line")
            if n < 0:
                raise DimacsError(f"line {lineno}: negative vertex count")
            if n > MAX_VERTICES:
                raise DimacsError(
                    f"line {lineno}: vertex count {n} exceeds the limit of {MAX_VERTICES}")
        elif fields[0] == "e":
            if n is None:
                raise DimacsError(f"line {lineno}: 'e' line before 'p' line")
            if len(fields) != 3:
                raise DimacsError(f"line {lineno}: expected 'e <u> <v>'")
            try:
                u, v = int(fields[1]), int(fields[2])
            except ValueError:
                raise DimacsError(f"line {lineno}: non-integer endpoints")
            if not (1 <= u <= n and 1 <= v <= n):
                raise DimacsError(f"line {lineno}: endpoint out of range 1..{n}")
            if u == v:
                raise DimacsError(f"line {lineno}: self-loop at vertex {u}")
            edges.append((u - 1, v - 1))
        else:
            raise DimacsError(f"line {lineno}: unrecognized line type {fields[0]!r}")
    if n is None:
        raise DimacsError("missing 'p edge <n> <m>' line")
    g = Graph(n, edges)
    if len(edges) > g.m:
        warn(f"{len(edges) - g.m} duplicate edge line(s) ignored")
    if declared_m != g.m:
        warn(f"'p' line declares {declared_m} edges, file defines {g.m}")
    return g


def write_dimacs(g: Graph, *, comments: list[str] | None = None) -> str:
    lines = [f"c {c}" for c in comments or []]
    lines.append(f"p edge {g.n} {g.m}")
    lines.extend(f"e {u + 1} {v + 1}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def write_coloring(coloring: Coloring) -> str:
    lines = [f"s {coloring.num_colors}"]
    lines.extend(f"v {v + 1} {c + 1}" for v, c in enumerate(coloring.colors))
    return "\n".join(lines) + "\n"
