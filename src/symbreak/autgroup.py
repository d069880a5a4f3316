"""Exact automorphism groups of small graphs, orbits, and stabilizers.

search_bijections is the one backtracking search for adjacency-preserving
bijections g1 -> g2 (automorphisms when g1 = g2). Vertices of g1 are mapped
in descending-degree then index order, to vertices of g2 with the same
(degree, sorted neighbor degrees) invariant that are adjacency-consistent
with everything already mapped, so every such bijection is a leaf.
"""

from __future__ import annotations

from . import config
from .errors import GroupTooLargeError, UnsupportedSizeError
from .graphs import Graph
from .perms import Perm, PermGroup, apply_mask


def _vertex_invariants(g: Graph) -> list[tuple]:
    degs = [g.adj[v].bit_count() for v in range(g.n)]
    return [
        (degs[v], tuple(sorted(degs[u] for u in range(g.n) if g.adj[v] >> u & 1)))
        for v in range(g.n)
    ]


def search_bijections(g1: Graph, g2: Graph, visit) -> None:
    """Pass the image tuple of each adjacency-preserving bijection g1 -> g2
    to visit, in discovery order, for as long as visit returns True."""
    n = g1.n
    inv1 = _vertex_invariants(g1)
    inv2 = inv1 if g2 is g1 else _vertex_invariants(g2)
    if sorted(inv1) != sorted(inv2):
        return
    adj1, adj2 = g1.adj, g2.adj
    order = sorted(range(n), key=lambda v: (-adj1[v].bit_count(), v))
    candidates = [[w for w in range(n) if inv2[w] == inv1[v]] for v in order]
    img = [-1] * n
    used = 0  # bitmask of taken images

    def extend(pos: int) -> bool:  # False once visit has stopped the search
        nonlocal used
        if pos == n:
            return visit(tuple(img))
        v = order[pos]
        # images of the already-mapped neighbors of v
        need = 0
        for j in range(pos):
            u = order[j]
            if adj1[v] >> u & 1:
                need |= 1 << img[u]
        for w in candidates[pos]:
            if used >> w & 1 or adj2[w] & used != need:
                continue
            img[v] = w
            used |= 1 << w
            if not extend(pos + 1):
                return False
            used ^= 1 << w
            img[v] = -1
        return True

    try:
        extend(0)
    finally:
        del extend  # it refers to itself: free the search now, not at the next gc


def automorphism_elements(g: Graph, element_cap: int | None = None):
    """Image tuples of every adjacency-preserving bijection, in discovery order."""
    found: list[tuple[int, ...]] = []

    def collect(images: tuple[int, ...]) -> bool:
        found.append(images)
        if element_cap is not None and len(found) > element_cap:
            raise GroupTooLargeError(element_cap)
        return True

    search_bijections(g, g, collect)
    return found


def automorphism_group(
    g: Graph, element_cap: int = config.MAX_AUT_ELEMENTS
) -> PermGroup:
    """Aut(g) as an explicit PermGroup."""
    if g.n > config.MAX_AUT_VERTICES:
        raise UnsupportedSizeError(
            f"automorphism search supports n <= {config.MAX_AUT_VERTICES}, got {g.n}"
        )
    elements = automorphism_elements(g, element_cap=element_cap)
    return PermGroup.from_elements(g.n, (Perm(t) for t in elements))


def orbits(group: PermGroup) -> tuple[frozenset[int], ...]:
    """Vertex orbits, as a partition sorted by least member: the orbit of u
    is the set of images x whose maps_to[u][x] is not empty."""
    blocks = {frozenset(x for x, b in enumerate(row) if b) for row in group.maps_to}
    return tuple(sorted(blocks, key=min))


def pointwise_stabilizer(group: PermGroup, s) -> PermGroup:
    """Elements fixing every member of s."""
    s = set(s)
    kept = [p for p in group.elements if all(p.images[v] == v for v in s)]
    return PermGroup(group.degree, tuple(kept))


def setwise_stabilizer(group: PermGroup, s) -> PermGroup:
    """Elements mapping s onto itself as a set."""
    mask = 0
    for v in s:
        mask |= 1 << v
    kept = [p for p in group.elements if apply_mask(p.images, mask) == mask]
    return PermGroup(group.degree, tuple(kept))
