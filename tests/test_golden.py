"""Byte-identity of every output, pinned by one digest.

One sha256 covers the exit code, standard output, standard error and trace
JSON of in-process CLI runs over a fixed corpus, and the operation counters
(or the refusal) of ``color_artemis`` on each input.  A change that keeps
outputs identical leaves the digest alone; a change that alters an output on
purpose updates ``GOLDEN`` and says why in CHANGES.md.
"""

import contextlib
import hashlib
import io

from artemis_color import (ColoringError, NotArtemisError, OpCounters, bipartite, chordal,
                           color_artemis, filtered_random, random_graph)
from artemis_color.cli import main
from artemis_color.dimacs import parse_dimacs, write_dimacs

GOLDEN = "ff67813588794e174a567341238614d43ef5470aff0771982b5fda7eca096169"

SIZES = (1, 2, 5, 8, 10, 12, 13, 16, 20, 40, 90)

# Edge lines reversed, repeated and miscounted against the 'p' line.
DIMACS_TEXTS = (
    "p edge 3 2\ne 1 2\ne 2 1\ne 2 3\n",
    "p edge 3 5\ne 1 2\ne 2 1\ne 1 2\ne 2 3\n",
    "c comment\np edge 4 4\ne 2 1\ne 3 2\ne 4 3\ne 1 4\n",
    "p edge 5 0\ne 1 3\ne 3 1\ne 5 4\ne 4 5\ne 2 4\n",
    "p edge 5 9\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 5 1\n",
    "p edge 6 3\ne 1 2\ne 2 3\ne 3 1\ne 4 5\ne 5 6\ne 6 4\ne 1 4\ne 2 5\ne 3 6\ne 6 3\n",
    "p edge 7 1\ne 7 1\ne 1 7\ne 7 1\n",
    "p edge 8 7\n" + "".join(f"e {v + 1} {v}\ne {v} {v + 1}\n" for v in range(1, 8)),
    "p edge 13 12\n" + "".join(f"e {v} {v + 1}\n" for v in range(12, 0, -1)) + "e 1 2\n",
    "p edge 14 1\n" + "".join(f"e 1 {v}\ne {v} 1\n" for v in range(2, 15)),
)


def _inputs():
    for maker, density in ((chordal, 0.4), (bipartite, 0.2), (random_graph, 0.5)):
        for n in SIZES:
            for seed in range(3):
                yield write_dimacs(maker(n, density, 7 * n + seed))
    for n in (6, 9, 12):
        for seed in range(4):
            yield write_dimacs(filtered_random(n, 0.5, 7 * n + seed))
    for seed in (8, 89):  # two random graphs the engine rejects
        yield write_dimacs(random_graph(13, 0.5, seed))
    yield from DIMACS_TEXTS


def _run(argv, tmp):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return [str(rc), out.getvalue().replace(tmp, "<tmp>"), err.getvalue().replace(tmp, "<tmp>")]


def _counters(text):
    counters = OpCounters()
    try:
        color_artemis(parse_dimacs(text), counters=counters)
    except (NotArtemisError, ColoringError) as exc:  # the refusal is part of what is pinned
        return f"{type(exc).__name__}: {exc}"
    return repr(vars(counters))


def test_outputs_match_the_golden_digest(tmp_path):
    tmp = str(tmp_path)
    digest = hashlib.sha256()

    def add(parts):
        for part in parts:
            digest.update(part.encode())
            digest.update(b"\0")

    for i, text in enumerate(_inputs()):
        path, trace = tmp_path / f"in{i}.col", tmp_path / f"trace{i}.json"
        path.write_text(text)
        add(_run(["color", "--trace-json", str(trace), str(path)], tmp))
        add([trace.read_text() if trace.exists() else "<no trace>"])
        add(_run(["color", "--verify", str(path)], tmp))
        add(_run(["detect", str(path)], tmp))
        add([_counters(text)])
    for family in ("chordal", "bipartite", "filtered-random"):
        for n in (0, 5, 12, 13, 20):
            add(_run(["generate", "--family", family, "--n", str(n), "--density", "0.4",
                      "--seed", str(n)], tmp))
    assert digest.hexdigest() == GOLDEN
