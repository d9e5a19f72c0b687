"""Shared builders for the small graph zoo used across the test modules, and
the bridge to networkx, the independent implementation the tests compare
against."""

from __future__ import annotations

import networkx as nx

from artemis_color import Graph


def to_nx(g):
    """g as a networkx graph on the same vertex ids; g may be any graph with
    ``vertices`` and ``adj``."""
    h = nx.Graph()
    h.add_nodes_from(g.vertices)
    h.add_edges_from((u, v) for u in g.vertices for v in g.adj[u])
    return h


def from_nx(h):
    """h as a Graph, its nodes relabeled densely in sorted order."""
    ids = {v: i for i, v in enumerate(sorted(h))}
    return Graph(len(ids), ((ids[u], ids[v]) for u, v in h.edges()))


def path_graph(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n):
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def prism_graph():
    return Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                     (0, 3), (1, 4), (2, 5)])


def k3_plus_k2():
    return Graph(5, [(0, 1), (1, 2), (0, 2), (3, 4)])
