"""Set-up of one benchmark run: generate the inputs and compute their reference answers.

    inputs.py --shapes JSON --seed S --dest DIR --repeats R [--verify] --result OUT.json

Runs in a child process with the package's src on PYTHONPATH.  Instance i
of shapes [[family, n, density], ...] uses generator seed 1000*S + i and is
written to DIR/<i>.col.  The set-up is done R times; OUT.json holds the
seconds each took and the instances of the last one.  Reference clique
numbers come from networkx, an implementation independent of the one under
test.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import asdict
from pathlib import Path

import networkx as nx

import artemis_color.cli  # noqa: F401  (fills the bytecode cache the timed runs use)
from artemis_color.dimacs import write_dimacs
from artemis_color.generators import generate
from workloads import Instance


def reference_omega(n: int, edges, family: str, verify: bool) -> int:
    """Clique number by networkx: the chordal clique listing for chordal
    inputs, 2 for bipartite inputs with an edge, and maximal-clique
    enumeration for the small verify inputs."""
    if family == "bipartite" and not verify:
        return 2 if edges else 1
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    cliques = nx.chordal_graph_cliques(g) if family == "chordal" and not verify \
        else nx.find_cliques(g)
    return max(len(c) for c in cliques)


def make_inputs(shapes, verify: bool, seed: int, dest: Path) -> list[Instance]:
    dest.mkdir(parents=True, exist_ok=True)
    instances = []
    for i, (family, n, density) in enumerate(shapes):
        gen_seed = 1000 * seed + i
        g = generate(family, n, density, gen_seed)
        text = write_dimacs(g, comments=[
            f"family={family} n={n} density={density} seed={gen_seed}"])
        path = dest / f"{i:03d}.col"
        path.write_text(text)
        edges = tuple(g.edges())
        instances.append(Instance(
            id=f"{i:03d}-{family}-n{n}-s{gen_seed}",
            path=str(path),
            n=g.n,
            edges=edges,
            omega=reference_omega(g.n, edges, family, verify),
            input_sha256=hashlib.sha256(text.encode()).hexdigest(),
        ))
    return instances


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--shapes", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dest", required=True)
    parser.add_argument("--repeats", type=int, required=True)
    parser.add_argument("--verify", action="store_true")
    parser.add_argument("--result", required=True)
    args = parser.parse_args()
    shapes = json.loads(args.shapes)
    times = []
    for _ in range(args.repeats):
        start = time.perf_counter()
        instances = make_inputs(shapes, args.verify, args.seed, Path(args.dest))
        times.append(time.perf_counter() - start)
    Path(args.result).write_text(json.dumps(
        {"setup_times": times, "instances": [asdict(inst) for inst in instances]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
