"""Exact automorphism groups of small graphs, and their orbits.

_first_leaf is the one search for adjacency-preserving bijections g1 -> g2:
g1's vertices, by descending degree then index, go in ascending order to the
vertices of g2 that fit all those already mapped, taken from the cell of an
ordered partition of g2 matched to the vertex's cell in one of g1.

The partitions come from colour refinement (_refine): a cell is split until
each of its vertices has as many neighbors in every cell as the others, the
coarsest equitable partition (1-dimensional Weisfeiler-Leman; McKay and
Piperno, "Practical graph isomorphism, II", 2014). Refinement commutes with
relabelling, so an isomorphism that maps the vertices individualized in g1 to
those in g2 maps each refined cell onto its counterpart, with the same trace
of splits. A branch whose trace differs thus has no leaf, and matched cells
hold every image a leaf can use: pruning drops only branches without a leaf,
and the first leaf is the one the unpruned walk finds. A discrete partition
leaves one candidate per vertex, its one possible leaf.

A regular graph's unit partition is already equitable, so _unit_refined
starts it from its vertices grouped by twice the number of triangles through
each, sum over u in N(v) of |N(u) & N(v)|, in ascending order of that count.
Its trace starts with -1, which no split's trace starts with, then lists each
count and cell size; every cell but the first largest is a splitter. An
isomorphism preserves triangle counts, so it maps each seeded cell onto its
counterpart: the seed also drops only branches without a leaf, and the groups
and first leaves stay those of the unit partition. A random regular graph
without automorphisms is mostly discrete at the root this way; a strongly
regular graph, whose counts are all equal, is not.

Refinement runs at the root of each branch order[i] -> x, with order[i]
individualized on one side and x on the other; below it the walk only reads
the cells. isomorphism refines the two unit partitions, then each branch
order[0] -> x. automorphism_elements walks g -> g down the identity path,
refined with order[:i] individualized; the first leaf under order[i] -> x
represents a coset of the stabilizer of order[:i+1] in that of order[:i]
(Sims), and Aut(g) is every product of one such leaf or the identity per i.
automorphism_group holds those leaves, the levels of the chain, as the
group: its order and maps_to come from them, and its image tuples are formed
only when a caller reads them.

group_of is how every function taking an optional group gets it: the
caller's group, checked against g's degree, or else Aut(g).
"""

from __future__ import annotations

from math import prod

from . import config
from .errors import DegreeError, GroupTooLargeError, UnsupportedSizeError
from .graphs import Graph
from .perms import Perm, PermGroup, check_bijection


def _plan(g: Graph):
    """g's search order, descending degree then index, and per position the
    neighbors placed before it."""
    order = sorted(range(g.n), key=[-row.bit_count() for row in g.adj].__getitem__)
    back = []
    placed = 0
    for v in order:
        nbrs, earlier = g.adj[v] & placed, []
        while nbrs:
            low = nbrs & -nbrs
            nbrs ^= low
            earlier.append(low.bit_length() - 1)
        back.append(earlier)
        placed |= 1 << v
    return order, back


def _refine(adj, cells: list[int], splitters: list[int], trace: list[int], ref=None):
    """cells, an ordered partition into vertex bitmasks, made equitable.

    A cell whose vertices have different numbers of neighbors in a splitter
    (a vertex bitmask) is replaced by its pieces, by ascending number; every
    piece but the first largest becomes a splitter (the largest's numbers
    follow from its cell's and the others'). Each split appends its position
    and its pieces' sizes to trace, and for a splitter of several vertices
    the numbers too. Given ref, another partition's trace, this returns None
    as soon as trace differs from it. A discrete partition is equitable, so
    refinement stops there. Every step depends on positions and sizes only,
    never on vertex labels.
    """
    n = len(adj)
    for s in splitters:  # grows as cells split
        if len(cells) == n:
            break
        out = None  # the refined cells, once one splits
        if not s & (s - 1):  # one vertex: split each cell into non-neighbors, neighbors
            nbrs = adj[s.bit_length() - 1]
            for i, cell in enumerate(cells):
                hit = cell & nbrs
                if hit and hit != cell:
                    if out is None:
                        out = cells[:i]
                    rest = cell ^ hit
                    t = len(trace)
                    trace += (len(out), hit.bit_count())
                    if ref is not None and ref[t : t + 2] != trace[t:]:
                        return None
                    out += (rest, hit)
                    splitters.append(hit if 2 * trace[-1] <= cell.bit_count() else rest)
                elif out is not None:
                    out.append(cell)
        else:
            touched = 0  # the vertices with a neighbor in s
            rest = s
            while rest:
                low = rest & -rest
                rest ^= low
                touched |= adj[low.bit_length() - 1]
            for i, cell in enumerate(cells):
                hit = cell & touched
                if hit and cell & (cell - 1):
                    # number of neighbors in s -> those vertices of cell
                    by_count = {0: cell ^ hit} if hit != cell else {}
                    while hit:
                        low = hit & -hit
                        hit ^= low
                        k = (adj[low.bit_length() - 1] & s).bit_count()
                        by_count[k] = by_count.get(k, 0) | low
                    if len(by_count) > 1:
                        if out is None:
                            out = cells[:i]
                        split = _tally(by_count, len(out), trace, ref)
                        if split is None:
                            return None
                        out += split[0]
                        splitters += split[1]
                        continue
                if out is not None:
                    out.append(cell)
        if out is not None:
            cells = out
    if ref is not None and len(trace) != len(ref):
        return None
    return cells


def _tally(by_count: dict, head: int, trace: list[int], ref):
    """The pieces of a split, the vertex bitmasks by_count maps each count to
    in ascending order of count, and its splitters, every piece but the first
    largest. Appends head, then each count and piece size, to trace; None if
    trace then differs from ref."""
    t = len(trace)
    trace.append(head)
    parts = []
    big = size = 0
    for k in sorted(by_count):
        parts.append(m := by_count[k])
        trace += (k, m.bit_count())
        if trace[-1] > size:
            big, size = m, trace[-1]
    if ref is not None and ref[t : len(trace)] != trace[t:]:
        return None
    return parts, [m for m in parts if m != big]


def _unit_refined(g: Graph, trace: list[int], ref=None):
    """The coarsest equitable partition of g's vertices (see _refine), or of
    a regular g's vertices grouped by triangle count."""
    adj = g.adj
    if len({row.bit_count() for row in adj}) > 1:
        every = (1 << g.n) - 1
        return _refine(adj, [every], [every], trace, ref)
    by_count = {}  # twice the triangles through v -> those vertices v
    for v, row in enumerate(adj):
        k = 0
        rest = row
        while rest:
            low = rest & -rest
            rest ^= low
            k += (adj[low.bit_length() - 1] & row).bit_count()
        by_count[k] = by_count.get(k, 0) | 1 << v
    seeded = _tally(by_count, -1, trace, ref)  # a split's head is its position, never -1
    return None if seeded is None else _refine(adj, *seeded, trace, ref)


def _slots(cells: list[int], order: list[int]) -> list[int]:
    """Per position, the index of the cell holding order[pos]."""
    where = [0] * len(order)
    for i, cell in enumerate(cells):
        while cell:
            low = cell & -cell
            cell ^= low
            where[low.bit_length() - 1] = i
    return [where[v] for v in order]


def _first_leaf(order, back, slot, cells2, adj2, img: list[int], used: int, pos: int):
    """The first bijection extending img, which maps order[:pos] onto used;
    order[pos] goes into cells2[slot[pos]], a vertex bitmask."""
    if pos == len(order):
        return tuple(img)
    need = 0  # images of the neighbors placed before order[pos]
    for u in back[pos]:
        need |= 1 << img[u]
    free = cells2[slot[pos]] & ~used
    while free:
        low = free & -free  # ascending
        free ^= low
        w = low.bit_length() - 1
        if adj2[w] & used == need:
            img[order[pos]] = w
            leaf = _first_leaf(order, back, slot, cells2, adj2, img, used | low, pos + 1)
            if leaf is not None:
                return leaf
    return None


def _individualized(adj, cells: list[int], i: int, bit: int, trace: list[int], ref=None):
    """cells with the vertex bit, a member of cells[i], split off in front of
    the rest of its cell, refined (see _refine); cells if it is alone there."""
    if cells[i] == bit:
        return cells
    split = [*cells[:i], bit, cells[i] ^ bit, *cells[i + 1 :]]
    return _refine(adj, split, [bit], trace, ref)


def isomorphism(g1: Graph, g2: Graph):
    """A vertex bijection g1 -> g2 preserving adjacency, or None."""
    if g1.n != g2.n:
        return None
    unit: list[int] = []
    cells1 = _unit_refined(g1, unit)
    cells2 = _unit_refined(g2, [], unit)
    if cells2 is None:
        return None
    order, back = _plan(g1)
    if not order:
        return Perm(())
    v = order[0]
    i = next(i for i, cell in enumerate(cells1) if cell >> v & 1)
    trace: list[int] = []
    slot = _slots(_individualized(g1.adj, cells1, i, 1 << v, trace), order)
    img = [0] * g1.n
    free = cells2[i]
    while free:  # order[0] -> w, refined with w individualized
        low = free & -free  # ascending
        free ^= low
        mapped = _individualized(g2.adj, cells2, i, low, [], trace)
        if mapped is not None:
            img[v] = low.bit_length() - 1
            leaf = _first_leaf(order, back, slot, mapped, g2.adj, img, low, 1)
            if leaf is not None:
                return Perm(leaf)
    return None


def automorphism_elements(g: Graph, element_cap: int) -> list[list[tuple[int, ...]]]:
    """Aut(g) as the levels of its stabilizer chain: per position of the
    search order, first position first, the coset representatives besides
    the identity, each checked to be a bijection. The elements are their
    products (PermGroup.from_levels), none of which is formed here, and
    the name stays the one bench/tracer.py times as the search.
    GroupTooLargeError if there are more than element_cap of them."""
    n, adj = g.n, g.adj
    cells = _unit_refined(g, [])  # refined with order[:pos] individualized
    # discrete at the root: only the identity, and no search order is needed
    order, back = _plan(g) if len(cells) < n else ((), ())
    img = list(range(n))
    used = 0  # order[:pos], fixed by the identity path
    levels = []
    for pos, v in enumerate(order):
        if len(cells) == n:  # discrete: no automorphism moves order[pos:]
            break
        levels.append(reps := [])
        i = next(i for i, cell in enumerate(cells) if cell >> v & 1)
        trace: list[int] = []
        fixed = _individualized(adj, cells, i, 1 << v, trace)
        slot = None
        others = cells[i] ^ 1 << v
        while others:  # order[pos] -> w, refined with w individualized
            low = others & -others  # ascending
            others ^= low
            mapped = _individualized(adj, cells, i, low, [], trace)
            if mapped is None:
                continue
            if slot is None:
                slot = _slots(fixed, order)
            img[v] = low.bit_length() - 1
            leaf = _first_leaf(order, back, slot, mapped, adj, img, used | low, pos + 1)
            if leaf is not None:
                check_bijection(leaf)  # so every product is one too
                reps.append(leaf)
        cells = fixed
        img[v] = v
        used |= 1 << v
    if prod(len(r) + 1 for r in levels) > element_cap:
        raise GroupTooLargeError(element_cap)
    return levels


def automorphism_group(
    g: Graph, element_cap: int = config.MAX_AUT_ELEMENTS
) -> PermGroup:
    """Aut(g), held as the search's stabilizer chain (PermGroup.from_levels)."""
    if g.n > config.MAX_AUT_VERTICES:
        raise UnsupportedSizeError(
            f"automorphism search supports n <= {config.MAX_AUT_VERTICES}, got {g.n}"
        )
    return PermGroup.from_levels(g.n, automorphism_elements(g, element_cap))


def group_of(g: Graph, aut: PermGroup | None) -> PermGroup:
    """aut, a group the caller already has, or Aut(g) when it is None.
    Raises DegreeError when aut does not act on g's vertices."""
    if aut is None:
        return automorphism_group(g)
    if aut.degree != g.n:
        raise DegreeError(f"group of degree {aut.degree} given for a graph on {g.n} vertices")
    return aut


def orbits(group: PermGroup) -> tuple[frozenset[int], ...]:
    """Vertex orbits, as a partition sorted by least member: the orbit of u
    is the set of images x whose maps_to[u][x] is not empty."""
    blocks = {frozenset(x for x, b in enumerate(row) if b) for row in group.maps_to}
    return tuple(sorted(blocks, key=min))
