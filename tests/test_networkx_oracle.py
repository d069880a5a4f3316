"""Differential checks against networkx's VF2 matcher, an implementation
independent of the package's refined backtracking search. Skipped when
networkx is not installed; the package itself never imports it."""

import random

import pytest

from helpers import random_graph, random_regular, two_diamonds
from symbreak.autgroup import automorphism_group, isomorphism
from symbreak.graphs import Graph, enumerate_graphs, parse_graph6, permuted
from symbreak.perms import Perm

nx = pytest.importorskip("networkx")
from networkx.algorithms.isomorphism import GraphMatcher  # noqa: E402


def to_networkx(g: Graph):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from((u, v) for v in range(g.n) for u in range(v) if g.adj[v] >> u & 1)
    return h


def test_group_order_matches_vf2_count(graphs7_path):
    for record in graphs7_path.read_text().split():
        g = parse_graph6(record)
        h = to_networkx(g)
        count = sum(1 for _ in GraphMatcher(h, h).isomorphisms_iter())
        assert automorphism_group(g).order == count, record


def test_regular_group_order_matches_vf2_count():
    """Seeded connected 3- and 4-regular graphs on 10-16 vertices, whose
    search starts from triangle counts, and two_diamonds, whose counts
    split it into two cells."""
    rng = random.Random(0)
    graphs = [two_diamonds()]
    graphs += [
        random_regular(rng, rng.choice((10, 12, 14, 16)), rng.choice((3, 4)))
        for _ in range(40)
    ]
    orders = []
    for g in graphs:
        h = to_networkx(g)
        count = sum(1 for _ in GraphMatcher(h, h).isomorphisms_iter())
        orders.append(automorphism_group(g).order)
        assert orders[-1] == count, g
    assert orders[0] == 16 and orders.count(1) < len(orders) - 1


def maps_edges_onto(g: Graph, h: Graph, s) -> bool:
    """s sends each pair of g's vertices to a pair of h's with the same adjacency."""
    return all(
        (g.adj[v] >> u & 1) == (h.adj[s[v]] >> s[u] & 1) for v in range(g.n) for u in range(v)
    )


def perturbed(rng, g: Graph) -> Graph:
    """g with one pair of vertices toggled between edge and non-edge."""
    u, v = rng.sample(range(g.n), 2)
    adj = list(g.adj)
    adj[u] ^= 1 << v
    adj[v] ^= 1 << u
    return Graph(g.n, tuple(adj))


def isomorphism_cases():
    """Each graph against a relabelling of itself and of a perturbed copy:
    all graphs on 5 vertices, seeded random graphs on 6-9 vertices and
    seeded connected 3- and 4-regular graphs on 10-24 vertices."""
    rng = random.Random(0)
    graphs = list(enumerate_graphs(5))
    graphs += [random_graph(rng, rng.randint(6, 9)) for _ in range(60)]
    graphs += [
        random_regular(rng, rng.choice((10, 12, 16, 20, 24)), rng.choice((3, 4)))
        for _ in range(40)
    ]
    for g in graphs:
        for h in (g, perturbed(rng, g)):
            yield g, permuted(h, Perm(tuple(rng.sample(range(g.n), g.n))))


def test_isomorphism_matches_networkx():
    agreed = {True: 0, False: 0}
    for g, h in isomorphism_cases():
        found = isomorphism(g, h)
        expected = nx.is_isomorphic(to_networkx(g), to_networkx(h))
        assert (found is not None) == expected, (g, h)
        if found is not None:
            assert maps_edges_onto(g, h, found.images), (g, h)
        agreed[expected] += 1
    assert min(agreed.values()) > 50  # both answers are exercised
