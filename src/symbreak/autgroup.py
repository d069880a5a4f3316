"""Exact automorphism groups of small graphs, orbits, and stabilizers.

_first_leaf is the one search for adjacency-preserving bijections g1 -> g2:
g1's vertices, by descending degree then index, go to vertices of g2 with the
same (degree, sorted neighbor degrees) that fit all those already mapped. On
one walk of g -> g down the identity path, the first leaf under order[i] -> x
represents a coset of the stabilizer of order[:i+1] in that of order[:i]
(Sims), and Aut(g) is every product of one such leaf or the identity per i.
"""

from __future__ import annotations

from math import prod
from operator import itemgetter

from . import config
from .errors import GroupTooLargeError, UnsupportedSizeError
from .graphs import Graph
from .perms import Perm, PermGroup, check_bijection


def _vertex_invariants(g: Graph) -> list[tuple]:
    degs = [g.adj[v].bit_count() for v in range(g.n)]
    return [
        (degs[v], tuple(sorted(degs[u] for u in range(g.n) if g.adj[v] >> u & 1)))
        for v in range(g.n)
    ]


def _plan(g1: Graph, g2: Graph):
    """g1's search order, each vertex's neighbors placed before it, its
    candidate images in g2, and g2's rows; None if the invariants differ."""
    inv1 = _vertex_invariants(g1)
    inv2 = inv1 if g2 is g1 else _vertex_invariants(g2)
    if sorted(inv1) != sorted(inv2):
        return None
    order = sorted(range(g1.n), key=lambda v: (-g1.adj[v].bit_count(), v))
    back = [[u for u in order[:pos] if g1.adj[v] >> u & 1] for pos, v in enumerate(order)]
    candidates = [[w for w in range(g1.n) if inv2[w] == inv1[v]] for v in order]
    return order, back, candidates, g2.adj


def _first_leaf(order, back, candidates, adj2, img: list[int], used: int, pos: int):
    """The first bijection extending img, which maps order[:pos] onto used."""
    if pos == len(order):
        return tuple(img)
    need = 0  # images of the neighbors placed before order[pos]
    for u in back[pos]:
        need |= 1 << img[u]
    for w in candidates[pos]:
        if not used >> w & 1 and adj2[w] & used == need:
            img[order[pos]] = w
            leaf = _first_leaf(order, back, candidates, adj2, img, used | 1 << w, pos + 1)
            if leaf is not None:
                return leaf
    return None


def isomorphism(g1: Graph, g2: Graph):
    """A vertex bijection g1 -> g2 preserving adjacency, or None."""
    plan = _plan(g1, g2)
    leaf = None if plan is None else _first_leaf(*plan, [0] * g1.n, 0, 0)
    return None if leaf is None else Perm(leaf)


def automorphism_elements(g: Graph, element_cap: int | None = None):
    """Every automorphism's image tuple; GroupTooLargeError if over element_cap."""
    order, _, candidates, adj = plan = _plan(g, g)
    img = list(range(g.n))
    used = 0  # order[:pos], fixed by the identity path
    levels = []  # per position, the coset representatives besides the identity
    for pos, v in enumerate(order):
        levels.append(reps := [])
        for w in candidates[pos]:
            if w != v and not used >> w & 1 and adj[w] & used == adj[v] & used:
                img[v] = w
                leaf = _first_leaf(*plan, img, used | 1 << w, pos + 1)
                if leaf is not None:
                    check_bijection(leaf)  # so every product is one too
                    reps.append(leaf)
        img[v] = v
        used |= 1 << v
    if element_cap is not None and prod(len(r) + 1 for r in levels) > element_cap:
        raise GroupTooLargeError(element_cap)
    elements = [tuple(img)]
    getters = []  # itemgetter(*h)(t) is t after h, a tuple as reps need n >= 2
    for reps in reversed(levels):  # elements: the stabilizer of order[:pos], pos = n..0
        if reps:
            getters += [itemgetter(*h) for h in elements[len(getters) :]]
            elements += [get(t) for t in reps for get in getters]
    return elements


def automorphism_group(
    g: Graph, element_cap: int = config.MAX_AUT_ELEMENTS
) -> PermGroup:
    """Aut(g) as an explicit PermGroup."""
    if g.n > config.MAX_AUT_VERTICES:
        raise UnsupportedSizeError(
            f"automorphism search supports n <= {config.MAX_AUT_VERTICES}, got {g.n}"
        )
    return PermGroup.from_images(g.n, automorphism_elements(g, element_cap=element_cap))


def orbits(group: PermGroup) -> tuple[frozenset[int], ...]:
    """Vertex orbits, as a partition sorted by least member: the orbit of u
    is the set of images x whose maps_to[u][x] is not empty."""
    blocks = {frozenset(x for x, b in enumerate(row) if b) for row in group.maps_to}
    return tuple(sorted(blocks, key=min))


def _vertex_set(group: PermGroup, s) -> set[int]:
    """s as a set; IndexError for a vertex outside 0..degree-1."""
    s = set(s)
    for v in s:
        if not 0 <= v < group.degree:
            raise IndexError(f"vertex {v} out of range for n={group.degree}")
    return s


def pointwise_stabilizer(group: PermGroup, s) -> PermGroup:
    """Elements fixing every member of s."""
    s = _vertex_set(group, s)
    kept = [t for t in group.images if all(t[v] == v for v in s)]
    return PermGroup(group.degree, tuple(kept))


def setwise_stabilizer(group: PermGroup, s) -> PermGroup:
    """Elements mapping s onto itself as a set."""
    s = _vertex_set(group, s)
    kept = [t for t in group.images if all(t[v] in s for v in s)]
    return PermGroup(group.degree, tuple(kept))
