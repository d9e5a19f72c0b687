import errno
import io
import json
import re
import sys

import networkx as nx
import pytest

from artemis_color import Coloring, Graph, color_artemis, generate, random_graph
from artemis_color import cli
from artemis_color.cli import _parser, main
from artemis_color.dimacs import MAX_VERTICES, DimacsError, parse_dimacs, write_coloring, write_dimacs
from artemis_color.graphs import GraphError
from artemis_color.oracles import BudgetExceeded

from conftest import cycle_graph, from_nx, prism_graph, to_nx


# --- parsing -----------------------------------------------------------------

def test_parse_p3():
    g = parse_dimacs("p edge 3 2\ne 1 2\ne 2 3")
    assert g.n == 3 and g.m == 2 and 1 in g.adj[0] and 2 in g.adj[1]


def test_parse_comment_and_k1():
    g = parse_dimacs("c x\np edge 1 0")
    assert g.n == 1 and g.m == 0


def test_parse_out_of_range():
    with pytest.raises(DimacsError, match="line 2"):
        parse_dimacs("p edge 2 1\ne 1 3")


def test_parse_edge_before_p():
    with pytest.raises(DimacsError, match="line 1"):
        parse_dimacs("e 1 2\np edge 2 1")


def test_parse_missing_p():
    with pytest.raises(DimacsError, match="missing"):
        parse_dimacs("c nothing here")


def test_parse_self_loop():
    with pytest.raises(DimacsError, match="self-loop"):
        parse_dimacs("p edge 2 1\ne 2 2")


@pytest.mark.parametrize("text, message", [
    # int() alone would read each of these numbers
    ("p edge 3 1\ne 1_0 2", "line 2: non-integer endpoints"),
    ("p edge 3 1\ne +1 2", "line 2: non-integer endpoints"),
    ("p edge 3 1\ne \u0661 2", "line 2: non-integer endpoints"),
    ("p edge 1_2 0", "line 1: non-integer sizes in 'p' line"),
    ("p edge 3 +1", "line 1: non-integer sizes in 'p' line"),
    ("p edge 3 1\ne 1 x", "line 2: non-integer endpoints"),
    ("p edge -3 0", "line 1: negative vertex count"),
    ("p edge 3 -1", "line 1: negative edge count"),
    ("p edge 3 1\ne -1 2", "line 2: endpoint out of range 1..3"),
])
def test_parse_takes_only_ascii_decimals(text, message):
    with pytest.raises(DimacsError, match=f"^{re.escape(message)}$"):
        parse_dimacs(text)


@pytest.mark.parametrize("text, message", [
    ("p edge 2 0\np edge 2 0", "line 2: second 'p' line"),
    ("p edge 2", "line 1: expected 'p edge <n> <m>'"),
    ("p col 2 0", "line 1: expected 'p edge <n> <m>'"),
    ("p edge 2 1\ne 1", "line 2: expected 'e <u> <v>'"),
    ("p edge 2 1\ne 1 2 2", "line 2: expected 'e <u> <v>'"),
    ("p edge 2 0\nx 1 2", "line 2: unrecognized line type 'x'"),
], ids=["second-p", "short-p", "not-edge-p", "short-e", "long-e", "unknown-type"])
def test_parse_refuses_malformed_lines(text, message):
    with pytest.raises(DimacsError, match=f"^{re.escape(message)}$"):
        parse_dimacs(text)


def test_parse_caps_the_declared_vertex_count():
    # A 20-byte header must not be able to ask for a graph of a billion vertices.
    with pytest.raises(DimacsError, match="line 2: vertex count 1000000000 exceeds the limit"):
        parse_dimacs("c big\np edge 1000000000 0")
    assert parse_dimacs(f"p edge {MAX_VERTICES} 0").n == MAX_VERTICES == 100_000


def test_parse_warnings():
    # A reversed duplicate, a repeated line and a wrong declared count.
    warnings = []
    g = parse_dimacs("p edge 3 5\ne 1 2\ne 2 1\ne 2 3\ne 2 3",
                     on_warning=warnings.append)
    assert g.m == 2
    assert warnings == ["2 duplicate edge line(s) ignored",
                        "'p' line declares 5 edges, file defines 2"]


def test_round_trip():
    g = generate("chordal", 11, 0.5, 4)
    assert parse_dimacs(write_dimacs(g)) == g


def test_write_dimacs_lists_edges_in_ascending_order():
    g = Graph(10, [(0, 9), (0, 2), (2, 9), (1, 8)])
    assert write_dimacs(g) == "p edge 10 4\ne 1 3\ne 1 10\ne 2 9\ne 3 10\n"


# --- coloring output ---------------------------------------------------------

def test_write_coloring_k1():
    assert write_coloring(Coloring((0,), 1)) == "s 1\nv 1 1\n"


def test_write_coloring_empty():
    assert write_coloring(Coloring((), 0)) == "s 0\n"


def test_write_coloring_c6():
    coloring, _ = color_artemis(cycle_graph(6))
    text = write_coloring(coloring)
    lines = text.splitlines()
    assert lines[0] == "s 2" and len(lines) == 7


# --- command line ------------------------------------------------------------

@pytest.fixture
def chordal_file(tmp_path):
    target = tmp_path / "g.col"
    target.write_text(write_dimacs(generate("chordal", 10, 0.5, 3)))
    return target


def test_cli_color(chordal_file, capsys):
    assert main(["color", str(chordal_file)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("s ") and out.count("\nv ") == 10


def test_cli_color_verify_ok(chordal_file):
    assert main(["color", "--verify", str(chordal_file)]) == 0


def test_cli_color_verify_rejects_c5(tmp_path, capsys):
    bad = tmp_path / "c5.col"
    bad.write_text(write_dimacs(cycle_graph(5)))
    assert main(["color", "--verify", str(bad)]) == 1
    assert "verify:" in capsys.readouterr().err


@pytest.mark.parametrize("seed, reason", [
    (1826, "no vertex of the first endpoint class sees its whole reachable boundary"),
    (8, "no vertex of the second endpoint class sees its whole reachable boundary"),
    (89, "an edge joins the two endpoint classes; input is outside the class"),
])
def test_cli_color_rejects_non_artemis(seed, reason, tmp_path, capsys):
    # Three of the rare random graphs the engine itself rejects; n = 13 is past
    # the oracle budget, so the rejection comes from the engine alone.
    path = tmp_path / "g.col"
    path.write_text(write_dimacs(random_graph(13, 0.5, seed)))
    assert main(["color", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: input is not colorable as an Artemis graph: {reason}\n"


def test_cli_color_parse_error(tmp_path):
    broken = tmp_path / "broken.col"
    broken.write_text("p edge 2 1\ne 1 9\n")
    assert main(["color", str(broken)]) == 2


@pytest.mark.parametrize("command", ["color", "detect"])
def test_cli_missing_input_file(command, tmp_path, capsys):
    path = tmp_path / "absent.col"
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: [Errno 2] No such file or directory: '{path}'\n"


class _ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")


def _close_stdout(monkeypatch):
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())


def _run_instance_raises(exc):
    def patch(monkeypatch):
        def run_instance(*args, **kwargs):
            raise exc
        monkeypatch.setattr(cli, "run_instance", run_instance)
    return patch


@pytest.mark.parametrize("command, failure, code, message", [
    ("color", _close_stdout, 2, None),
    ("detect", _close_stdout, 2, None),
    ("generate", _close_stdout, 2, None),
    ("color", _run_instance_raises(GraphError("x")), 2, "error: x\n"),
    ("color", _run_instance_raises(BudgetExceeded("y")), 3, "error: y\n"),
], ids=["color-closed-stdout", "detect-closed-stdout", "generate-closed-stdout",
        "color-graph-error", "color-budget"])
def test_cli_main_maps_failures_raised_inside_a_command(command, failure, code, message,
                                                        chordal_file, capsys, monkeypatch):
    # main alone turns a failure into its message and exit code, wherever in
    # the command it is raised.
    argv = ([command, "--family", "chordal", "--n", "5", "--density", "0.5", "--seed", "1"]
            if command == "generate" else [command, str(chordal_file)])
    failure(monkeypatch)
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") if message is None else err == message


@pytest.mark.parametrize("command", ["color", "detect"])
def test_cli_refuses_a_vertex_count_over_the_limit(command, tmp_path, capsys):
    huge = tmp_path / "huge.col"
    huge.write_text(f"p edge {MAX_VERTICES + 1} 0\n")
    assert main([command, str(huge)]) == 2
    assert "exceeds the limit of 100000" in capsys.readouterr().err


@pytest.mark.parametrize("source", ["file", "stdin"])
@pytest.mark.parametrize("command", ["color", "detect"])
def test_cli_rejects_non_utf8_input(command, source, tmp_path, capsys, monkeypatch):
    # The stray byte sits in a comment line, which the parser would skip.
    data = b"p edge 2 1\ne 1 2\nc \xff\n"
    if source == "stdin":
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
        path = "-"
    else:
        path = tmp_path / "raw.col"
        path.write_bytes(data)
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: input is not UTF-8 text")
    assert captured.out == ""


def test_cli_reads_through_a_byte_order_mark(chordal_file, tmp_path, capsys):
    marked = tmp_path / "bom.col"
    marked.write_bytes(b"\xef\xbb\xbf" + chordal_file.read_bytes())
    assert main(["color", str(chordal_file)]) == 0
    plain = capsys.readouterr()
    assert main(["color", str(marked)]) == 0
    assert capsys.readouterr() == plain


def test_cli_color_verify_over_budget_note(tmp_path, capsys):
    # The full oracle checks run up to n = 12; beyond it, only the note.
    for n in (12, 13, 14):
        path = tmp_path / f"chordal{n}.col"
        path.write_text(write_dimacs(generate("chordal", n, 0.4, 1)))
        assert main(["color", "--verify", str(path)]) == 0
        err = capsys.readouterr().err
        if n == 12:
            assert re.search(r"^verify: \d+ oracle checks passed$", err, re.M)
            assert "exceeds" not in err
        else:
            assert f"note: n={n} exceeds the oracle budget of 12;" in err
            assert "oracle checks passed" not in err


def test_cli_detect(chordal_file, capsys):
    assert main(["detect", str(chordal_file)]) == 0
    out = capsys.readouterr().out
    assert "artemis: yes" in out and out.count(": none") == 3


@pytest.mark.parametrize("graph, expected", [
    (cycle_graph(5), ["odd-hole: 1 2 3 4 5", "antihole: none", "prism: none"]),
    (from_nx(nx.complement(to_nx(cycle_graph(7)))),
     ["odd-hole: none", "antihole: 1 2 3 4 5 6 7", "prism: none"]),
    # The prism's complement is C6, so the prism is also a six-antihole.
    (prism_graph(), ["odd-hole: none", "antihole: 1 5 3 4 2 6", "prism: 1 2 3 4 5 6"]),
    (random_graph(12, 0.6, 0), ["odd-hole: 1 5 12 2 7", "antihole: 1 8 11 10 5 7 12",
                                "prism: 1 8 9 10 11 12"]),
], ids=["c5", "co-c7", "prism", "random-12"])
def test_cli_detect_witness_lines(graph, expected, tmp_path, capsys):
    # Exact first witnesses, 1-based and in the detectors' vertex order.
    path = tmp_path / "g.col"
    path.write_text(write_dimacs(graph))
    assert main(["detect", str(path)]) == 0
    assert capsys.readouterr().out.splitlines() == expected + ["artemis: no"]


def test_cli_detect_budget_refusal(tmp_path):
    big = tmp_path / "big.col"
    big.write_text(write_dimacs(generate("chordal", 13, 0.4, 1)))
    assert main(["detect", str(big)]) == 3


def test_cli_generate_deterministic(capsys):
    args = ["generate", "--family", "bipartite", "--n", "9", "--density", "0.5",
            "--seed", "11"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first
    assert first.startswith("c family=bipartite")


def test_cli_generate_budget_refusal(capsys):
    assert main(["generate", "--family", "filtered-random", "--n", "20",
                 "--density", "0.3", "--seed", "0"]) == 3


def test_cli_generate_rejects_empty_filtered_random(capsys):
    assert main(["generate", "--family", "filtered-random", "--n", "0", "--density", "0.5",
                 "--seed", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: filtered-random generator needs n >= 1\n"


def test_cli_generate_refuses_more_vertices_than_the_reader_takes(capsys):
    # What generate writes, color reads back: both stop at MAX_VERTICES.
    args = ["generate", "--family", "chordal", "--density", "0", "--seed", "1", "--n"]
    assert main(args + [str(MAX_VERTICES + 1)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: chordal generator needs n <= 100000\n"
    assert main(args + [str(MAX_VERTICES)]) == 0
    assert parse_dimacs(capsys.readouterr().out).n == MAX_VERTICES


@pytest.mark.parametrize("density", ["-1", "1.5", "nan"])
def test_cli_generate_rejects_density_outside_unit_interval(density, capsys):
    assert main(["generate", "--family", "chordal", "--n", "3", "--density", density,
                 "--seed", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: density must lie in [0, 1], got {float(density)}\n"


def test_cli_trace_json_replays_lift(chordal_file, tmp_path, capsys):
    trace_path = tmp_path / "trace.json"
    assert main(["color", "--trace-json", str(trace_path), str(chordal_file)]) == 0
    stdout = capsys.readouterr().out
    payload = json.loads(trace_path.read_text())
    assert payload["original_n"] == 10
    assert all(step["chain_depth"] >= 1 for step in payload["steps"])

    # replay: color the residue greedily, walk the steps backwards
    n = payload["original_n"] - len(payload["steps"])
    colors = {}
    for part in payload["residue_cliques"]:
        for j, v in enumerate(sorted(part)):
            colors[v] = j
    assignment = [colors[v] for v in range(n)]
    for step in reversed(payload["steps"]):
        merged, a, b = step["merged"], step["a"], step["b"]
        hi = max(a, b)
        previous = []
        for old in range(len(assignment) + 1):
            if old == a or old == b:
                previous.append(assignment[merged])
            else:
                previous.append(assignment[old - 1 if old > hi else old])
        assignment = previous
    expected = [int(line.split()[2]) - 1 for line in stdout.splitlines()[1:]]
    assert assignment == expected


def test_cli_trace_json_unwritable_path(chordal_file, tmp_path, capsys):
    target = tmp_path / "missing" / "trace.json"
    assert main(["color", "--trace-json", str(target), str(chordal_file)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: cannot write trace: ")
    assert captured.out == "" and not target.exists()


def test_cli_parser_built_once_carries_no_state(chordal_file, tmp_path, capsys):
    # main builds its parser once per process; each run after another gives
    # what it gives right after a fresh build, so no option of a run sticks.
    trace = tmp_path / "trace.json"
    runs = [["color", "--verify", "--trace-json", str(trace), str(chordal_file)],
            ["color", str(chordal_file)],
            ["detect", str(chordal_file)]]

    def outcome(argv):
        trace.unlink(missing_ok=True)
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err, trace.exists()

    _parser.cache_clear()
    in_one_process = [outcome(argv) for argv in runs]
    assert _parser.cache_info().misses == 1
    fresh = []
    for argv in runs:
        _parser.cache_clear()
        fresh.append(outcome(argv))
    assert in_one_process == fresh
    assert [code for code, *_ in fresh] == [0, 0, 0]
    assert [wrote for *_, wrote in fresh] == [True, False, False]
    assert "oracle checks passed" in fresh[0][2] and fresh[1][2] == ""


def test_cli_bench_single_size(capsys):
    assert main(["bench", "--family", "chordal", "--sizes", "30", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert "slope" not in out and "total" in out


@pytest.mark.parametrize("family, sizes, code, message", [
    ("chordal", "50,x", 2, "error: --sizes needs comma-separated integers, got '50,x'"),
    ("chordal", ",", 2, "error: --sizes needs comma-separated integers, got ','"),
    ("chordal", "0", 2, "error: chordal generator needs n >= 1"),
    ("filtered-random", "5,100001", 2, "error: filtered-random generator needs n <= 100000"),
    ("filtered-random", "13", 3,
     "error: filtered-random needs the detectors, capped at 12 vertices"),
    ("chordal", "1,2", 2, "error: cannot fit the scaling: the instance with n=1 has no edges"),
    ("chordal", "2,2", 2, "error: cannot fit the scaling: every instance has n^2*m = 4"),
], ids=["malformed", "empty", "refused-size", "over-the-limit", "budget", "edgeless-fit", "constant-fit"])
def test_cli_bench_rejects(family, sizes, code, message, capsys):
    assert main(["bench", "--family", family, "--sizes", sizes, "--seed", "1"]) == code
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == message + "\n"
