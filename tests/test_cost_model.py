"""The pair search's cost model, pinned to known values.

``OpCounters`` charges one unit per neighbor-scan step or adjacency probe.
The charges are the algorithm's cost model, so a refactor of the finders must
leave every field, and the contractions they lead to, exactly as they are.
They count the algorithm's scans even where C-level set operations do the
work: identical counts, and so identical criterion 7 slopes, are the contract.
The in-place and immutable drivers share the finders, so comparing them
cannot catch a changed charge; these fixed values can.
"""

import hashlib
import json

import pytest

from artemis_color import (
    NotArtemisError,
    OpCounters,
    PipelineObserver,
    bipartite,
    chordal,
    color_artemis,
    filtered_random,
    random_graph,
)

PINNED = [
    dict(
        graph=(chordal, (60, 0.5, 7)),
        interesting=75970, outer=39403, even_pair=0,
        per_call=[10218, 8156, 9436, 6977, 6979, 5331, 5470, 5303, 7862, 7223, 2849,
                  7611, 3842, 5751, 4198, 5484, 2008, 1179, 1170, 2258, 1030, 2061, 393,
                  510, 611, 363, 353, 225, 219, 213, 90],
        chain_depths=[16, 8, 11, 7, 8, 4, 5, 4, 18, 16, 2, 14, 3, 12, 7, 14, 4, 3, 3, 6,
                      4, 5, 3, 4, 5, 3, 3, 2, 2, 2, 1],
        steps=[(0, 30), (0, 30), (0, 40), (1, 47), (3, 48), (0, 30), (1, 35), (0, 36),
               (1, 30), (1, 31), (0, 41), (0, 36), (0, 42), (1, 31), (1, 33), (2, 39),
               (1, 30), (1, 30), (1, 31), (2, 33), (2, 38), (30, 36), (2, 30), (3, 33),
               (4, 33), (2, 30), (2, 30), (1, 30), (1, 30), (1, 30)],
    ),
    dict(
        graph=(bipartite, (80, 0.1, 3)),
        interesting=18074, outer=24990, even_pair=6829,
        per_call=[1315, 1325, 938, 1243, 1094, 1219, 751, 1031, 1118, 992, 949, 1072,
                  959, 1055, 843, 1154, 1182, 1210, 1275, 1257, 1236, 1343, 1471, 604,
                  1743, 1820, 1939, 2019, 2016, 2184, 2227, 2311, 287, 281, 275, 269,
                  263, 257, 251, 245, 239, 233, 227, 221, 215, 209, 203, 197, 191, 185,
                  179, 173, 167, 161, 155, 149, 143, 137, 131, 125, 119, 113, 107, 101,
                  95, 89, 83, 77, 71, 65, 59, 53, 47, 41, 35, 29, 23, 17, 6],
        chain_depths=[1, 1, 1, 1, 1, 1, 2, 1, 1, 1, 1, 1, 1, 2, 1, 2, 2, 2, 2, 2, 2, 2,
                      2, 1, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2,
                      2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2,
                      2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 1],
        steps=[(38, 43), (0, 38), (24, 0), (21, 0), (30, 0), (70, 0), (0, 13), (5, 0),
               (71, 0), (13, 0), (57, 0), (61, 53), (53, 0), (0, 28), (36, 0), (0, 63),
               (0, 31), (0, 5), (0, 57), (0, 54), (0, 55), (0, 34), (0, 19), (0, 28),
               (0, 2), (0, 39), (0, 28), (0, 6), (0, 44), (0, 18), (0, 5), (0, 6)]
              + [(1, 2)] * 46,
    ),
    dict(
        graph=(filtered_random, (12, 0.5, 4)),
        interesting=883, outer=235, even_pair=0,
        per_call=[243, 255, 214, 163, 123, 102, 18],
        chain_depths=[3, 4, 3, 6, 5, 5, 1],
        steps=[(2, 6), (3, 7), (0, 5), (6, 8), (1, 4), (1, 4)],
    ),
]


@pytest.mark.parametrize("case", PINNED, ids=lambda case: case["graph"][0].__name__)
def test_cost_model_is_pinned(case):
    maker, args = case["graph"]
    counters = OpCounters()
    _, trace = color_artemis(maker(*args), counters=counters)
    assert vars(counters) == {key: case[key] for key in
                              ("interesting", "outer", "even_pair", "per_call", "chain_depths")}
    assert [(step.a, step.b) for step in trace.steps] == case["steps"]


SPARSE_STEPS = [
    (0, 35), (0, 71), (0, 114), (0, 179), (0, 103), (0, 70), (3, 59), (3, 39), (3, 154),
    (5, 155), (8, 96), (8, 19), (8, 46), (8, 107), (8, 23), (8, 114), (10, 129), (11, 18),
    (11, 117), (14, 81), (15, 120), (16, 43), (16, 87), (16, 174), (18, 61), (23, 29),
    (23, 59), (23, 137), (33, 70), (37, 51), (37, 77), (37, 127), (38, 45), (38, 75),
    (38, 75), (38, 110), (38, 120), (41, 64), (71, 82), (72, 115), (75, 137), (75, 140),
    (75, 149), (77, 99), (80, 102), (82, 119), (91, 122), (94, 148), (97, 104),
]


def test_sparse_cost_model_is_pinned():
    # 89 of its 120 components are isolated vertices, so the levels walk
    # past many singleton and clique components before a start, if any.
    g = bipartite(200, 0.01, 5)
    counters = OpCounters()
    _, trace = color_artemis(g, counters=counters)
    assert vars(counters) == dict(
        interesting=25070, outer=5371, even_pair=0,
        per_call=[723, 717, 711, 706, 703, 704, 691, 687, 688, 673, 671, 668, 668, 664,
                  665, 670, 637, 640, 637, 626, 617, 612, 606, 600, 596, 595, 589, 583,
                  587, 585, 579, 573, 568, 562, 556, 550, 544, 541, 567, 561, 557, 551,
                  545, 541, 538, 534, 537, 534, 531, 453],
        chain_depths=[2] * 49 + [1])
    assert [(step.a, step.b) for step in trace.steps] == SPARSE_STEPS


def _digest(value):
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()


class _PairSources(PipelineObserver):
    def __init__(self):
        self.outer = self.bottom = 0

    def outer_path(self, g, domain, tset, cset, path):
        self.outer += path is not None

    def bottom_pair(self, g, domain, pair):
        self.bottom += 1


def test_mixed_sparse_cost_model_is_pinned():
    # Pairs come from outer paths and from the bottom-level clique rule, and
    # many outer-path roots are components of their own that meet at most
    # one complete vertex.
    sources = _PairSources()
    counters = OpCounters()
    _, trace = color_artemis(bipartite(200, 0.02, 1), counters=counters, observer=sources)
    assert (counters.interesting, counters.outer, counters.even_pair) == (85842, 231183, 21898)
    assert (sources.outer, sources.bottom) == (34, 141)
    assert len(trace.steps) == 175
    assert _digest([(step.a, step.b) for step in trace.steps]) == (
        "a1975fb7b6f475f02f2ec2b6ee641928bb2d46d526d791b2c3cd8becd9f9d080")
    assert _digest([counters.per_call, counters.chain_depths]) == (
        "4bca3b8fb990123a8d8c20d84c09a8372121ffd5257b3d82c886d32142b1c835")


def test_rejected_run_cost_model_is_pinned():
    # The charges up to the raise: the failing search has no per_call entry.
    counters = OpCounters()
    with pytest.raises(NotArtemisError, match="no vertex of the second endpoint class"):
        color_artemis(random_graph(30, 0.2, 4), counters=counters)
    assert vars(counters) == dict(
        interesting=1716, outer=891, even_pair=2054,
        per_call=[724, 692, 665, 340, 606, 577, 581],
        chain_depths=[1, 1, 1, 2, 1, 1, 1])
