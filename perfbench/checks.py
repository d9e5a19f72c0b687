"""Independent check of one `color` run, made outside the timed region.

A run passes when it exits 0, colors every vertex once with a color in
1..k, gives the two ends of every input edge different colors, reports k
equal to the reference clique number, and writes a trace whose residue
cliques partition the n - |steps| surviving vertices with the largest of
them of size k.
"""

from __future__ import annotations

import hashlib
import json


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def check_run(n: int, edges, omega: int, rc: int, stdout: str,
              trace_json: str) -> list[str]:
    """Problems found in one run's exit code, coloring output and trace; empty when it passes."""
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        k, colors = _parse_coloring(stdout)
    except ValueError as exc:
        return [f"malformed coloring output: {exc}"]
    problems = []
    if sorted(colors) != list(range(1, n + 1)):
        problems.append("the v lines do not color each of the n vertices exactly once")
    out_of_range = sorted(v for v, c in colors.items() if not 1 <= c <= k)
    if out_of_range:
        problems.append(f"{len(out_of_range)} vertices use a color outside 1..{k}, "
                        f"first {out_of_range[0]}")
    clashes = [(u, v) for u, v in edges if colors.get(u + 1) == colors.get(v + 1)]
    if clashes:
        u, v = clashes[0]
        problems.append(f"{len(clashes)} edges join equal colors, first ({u + 1}, {v + 1})")
    if k != omega:
        problems.append(f"s line says {k} colors, the clique number is {omega}")
    try:
        problems += _check_trace(n, k, json.loads(trace_json))
    except (ValueError, KeyError, TypeError) as exc:
        problems.append(f"malformed trace JSON: {exc!r}")
    return problems


def _parse_coloring(stdout: str) -> tuple[int, dict[int, int]]:
    lines = stdout.splitlines()
    if not lines:
        raise ValueError("empty output")
    head = lines[0].split()
    if len(head) != 2 or head[0] != "s":
        raise ValueError(f"first line {lines[0]!r} is not 's <colors>'")
    k = int(head[1])
    colors: dict[int, int] = {}
    for line in lines[1:]:
        fields = line.split()
        if len(fields) != 3 or fields[0] != "v":
            raise ValueError(f"line {line!r} is not 'v <vertex> <color>'")
        v, c = int(fields[1]), int(fields[2])
        if v in colors:
            raise ValueError(f"vertex {v} colored twice")
        colors[v] = c
    return k, colors


def _check_trace(n: int, k: int, payload: dict) -> list[str]:
    problems = []
    if payload["original_n"] != n:
        problems.append(f"trace original_n {payload['original_n']} != {n}")
    survivors = n - len(payload["steps"])
    residue = payload["residue_cliques"]
    if sorted(v for clique in residue for v in clique) != list(range(survivors)):
        problems.append(f"residue cliques do not partition the {survivors} surviving vertices")
    if max((len(c) for c in residue), default=0) != k:
        problems.append(f"largest residue clique is not of size {k}")
    return problems
