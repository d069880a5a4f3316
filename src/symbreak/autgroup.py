"""Exact automorphism groups of small graphs.

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
regular graph, whose counts are all equal, is not. Any other graph starts
from its degree classes, in ascending order of degree, with the trace the
unit cell's first split writes (head 0): refined by itself, the unit cell
splits into exactly those classes first, so the cells and trace that follow
are the same, without that split's OR over every row and count per vertex.

Refinement runs at the root of each branch v -> x, with v individualized on
one side and x on the other; below it the walk only reads the cells.
isomorphism refines the two unit partitions, then each branch order[0] -> x.
automorphism_elements refines g's identity path on the base 0, 1, ...,
n-1, with 0..i-1 individualized at level i, and stops at the first
partition whose cells of two or more vertices are each a set of mutual
twins (_twin_cells): vertices with equal rows outside their cell, which is
a clique or an independent set. Refinement is label-invariant, so every
automorphism that fixes the vertices individualized there maps each refined
cell onto itself, and the stabilizer lies in the product of the symmetric
groups on the cells; swapping two twins is itself such an automorphism, so
the two are equal. This holds at the root too, where the triangle-count
seed is invariant as well, and a discrete partition is the case with no
such cell. The levels below that point are written in closed form
(_twin_levels), once the product of the cells' factorials is known to be
within config.MAX_AUT_ELEMENTS. Above it, a leaf under i -> x represents a
coset of the stabilizer of 0..i in that of 0..i-1 (Sims), and Aut(g) is
every product of one representative or the identity per level. The levels
are settled from the deepest up, so the representatives below i generate
the stabilizer of 0..i. With the leaves found at i they reach part of the
orbit of i, closed under them point by point (_close): the branch i -> x is
searched only for an x of i's cell they do not reach yet, and every point
they reach takes the product that reached it. This is nauty's pruning by
the orbits of the automorphisms found so far. Each branch walks the
vertices left by descending degree then index, as isomorphism does, and
each representative is then made the lexicographically least element of
its coset (_least_in_coset), read off the levels below it, final by then.
When that order is the index order, as on every regular graph, a searched
leaf is least already, since candidates go in ascending order and pruning
drops only branches without a leaf; only the products are replaced. Either
way the levels are a transversal that depends only on the group, and
group_key tells equal groups by them.
automorphism_group holds the levels of the chain as the group, PermGroup(n,
levels=...): its order, maps_to and orbits come from them, and its image
tuples are formed only when a caller reads them. A branch's search order is
planned once per base point that needs one (_plan).

group_of is how every function taking an optional group gets it: the
caller's group, checked against g's degree, or else Aut(g).
"""

from __future__ import annotations

import math

from . import config
from .errors import DegreeError, GroupTooLargeError, UnsupportedSizeError
from .graphs import Graph
from .perms import Perm, PermGroup, check_bijection


def _by_degree(g: Graph) -> list[int]:
    """g's vertices by descending degree then index."""
    return sorted(range(g.n), key=[-row.bit_count() for row in g.adj].__getitem__)


def _plan(g: Graph, order) -> list[list[int]]:
    """Per position of the search order, the neighbors of order[pos] placed
    before it; the vertices not in order are placed first."""
    placed = (1 << g.n) - 1
    for v in order:
        placed ^= 1 << v
    back = []
    for v in order:
        nbrs, earlier = g.adj[v] & placed, []
        while nbrs:
            low = nbrs & -nbrs
            nbrs ^= low
            earlier.append(low.bit_length() - 1)
        back.append(earlier)
        placed |= 1 << v
    return back


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
    a regular g's vertices grouped by triangle count. The unit cell refined
    by itself splits first into the degree classes, head 0, so a graph with
    more than one degree starts from those, with the trace that split
    writes, and gets the same cells and trace. A regular graph pays for
    the degree test only, not for the buckets."""
    adj = g.adj
    degrees = list(map(int.bit_count, adj))
    if len(set(degrees)) > 1:
        by_count = {}  # degree -> those vertices
        for v, k in enumerate(degrees):
            by_count[k] = by_count.get(k, 0) | 1 << v
        seeded = _tally(by_count, 0, trace, ref)
    else:
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
    where = {}  # vertex bit -> its cell
    for i, cell in enumerate(cells):
        while cell:
            low = cell & -cell
            cell ^= low
            where[low] = i
    return [where[1 << v] for v in order]


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
    order = _by_degree(g1)
    back = _plan(g1, order)
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


def _twin_cells(adj, cells: list[int]) -> bool:
    """Whether every cell of two or more vertices is a set of mutual twins:
    a clique whose vertices have equal closed neighborhoods, or an
    independent set whose vertices have equal open ones. True at once on a
    discrete partition; False at the first cell that is not twins."""
    if len(cells) == len(adj):
        return True
    for cell in cells:
        if cell & (cell - 1):
            low = cell & -cell
            row = adj[low.bit_length() - 1]
            closed = row & cell  # a clique: closed neighborhoods are compared
            if closed:
                row |= low
            rest = cell ^ low
            while rest:
                low = rest & -rest
                rest ^= low
                if adj[low.bit_length() - 1] | (low if closed else 0) != row:
                    return False
    return True


def _twin_levels(n: int, cells: list[int]) -> list:
    """The stabilizer chain of the product of the symmetric groups on the
    cells, disjoint vertex bitmasks, on the base 0..n-1: (c(a),
    representatives) for each cell c0 < c1 < ... < c(m-1) and a < m-1. The
    representative sending c(a) to c(k) maps c(i) to c(i-1) for a < i <= k
    and fixes every other point, the least element of its coset; they go in
    ascending order of c(k)."""
    below = []
    for cell in cells:
        c = []
        while cell:
            low = cell & -cell
            cell ^= low
            c.append(low.bit_length() - 1)
        for a in range(len(c) - 1):
            reps = []
            t = list(range(n))
            for k in range(a + 1, len(c)):
                t[c[a]], t[c[k]] = c[k], c[k - 1]
                reps.append(tuple(t))
            below.append((c[a], reps))
    below.sort()
    return below


def automorphism_elements(g: Graph) -> list[list[tuple[int, ...]]]:
    """Aut(g) as the levels of its stabilizer chain on the base 0..n-1: per
    vertex v, the coset representatives besides the identity, one per image
    x of v under the stabilizer of 0..v-1, in ascending order of x, each the
    least element of its coset.

    The identity path stops at the first refined partition whose cells of
    two or more vertices are each a set of mutual twins (_twin_cells).
    Refinement is label-invariant, so every automorphism fixing the
    vertices individualized there maps each refined cell onto itself: the
    stabilizer lies in the product of the symmetric groups on the cells.
    Swapping two twins is itself an automorphism fixing those vertices, so
    the product lies in the stabilizer, and the two are equal; at the root
    too, where the triangle-count seed is invariant as well. A discrete
    partition is the case without such a cell. The levels below that point
    are written in closed form (_twin_levels), once their order, the
    product of the cells' factorials, is known to be within the cap.

    The levels above it are settled from the deepest up: at v the branch
    v -> w is searched only for a w that the automorphisms found so far do
    not reach, and every point they reach takes the product that reached it
    (_close), made least in its coset from the levels below, final by then
    (_least_in_coset). Every leaf found is checked to be a bijection, so
    every product is one too. Trailing empty levels are dropped, so the
    levels depend only on the group. The elements are their products
    (PermGroup), none of which is formed here, and the name stays the one
    bench/tracer.py times as the search. GroupTooLargeError if there are
    more than config.MAX_AUT_ELEMENTS of them."""
    n, adj = g.n, g.adj
    cells = _unit_refined(g, [])  # refined with 0..v-1 individualized
    path = []  # (v, cells, v's cell index, its trace, cells with v too) per v individualized
    v = 0
    while not _twin_cells(adj, cells):  # some cell holds vertices that are not twins
        while 1 << v in cells:  # v is alone in its cell, fixed by every automorphism here
            v += 1
        bit = 1 << v
        for i, cell in enumerate(cells):
            if cell & bit:
                break
        trace: list[int] = []
        fixed = _individualized(adj, cells, i, bit, trace)
        path.append((v, cells, i, trace, fixed))
        cells = fixed
        v += 1
    twins = [cell for cell in cells if cell & (cell - 1)]
    size = 1  # the order of the stabilizer of 0..v-1
    for cell in twins:
        size *= math.factorial(cell.bit_count())
    if size > config.MAX_AUT_ELEMENTS:
        raise GroupTooLargeError(config.MAX_AUT_ELEMENTS)
    below = _twin_levels(n, twins)  # (j, representatives) for each non-empty level j > v
    gens = [t for _, reps in below for t in reps]  # they generate the stabilizer of 0..v
    if path:
        order = _by_degree(g)  # the vertices a branch places, in _first_leaf's order
        by_index = order == sorted(order)  # then every searched leaf is already least
        img = list(range(n))  # 0..v-1 stay fixed; a branch writes v and rest before reading them
    for v, cells, i, trace, fixed in reversed(path):
        bit = 1 << v
        found = {}  # image x of v -> an automorphism fixing 0..v-1 that sends v to x
        made = 0  # the images whose automorphism is a product, not a searched leaf
        rest = None  # the vertices a branch v -> w places, once one needs them
        others = cells[i] ^ bit
        while others:  # v -> w, refined with w individualized
            low = others & -others  # ascending
            others ^= low
            mapped = _individualized(adj, cells, i, low, [], trace)
            if mapped is None:
                continue
            if rest is None:
                rest = [u for u in order if u > v]
                back = _plan(g, rest)
                slot = _slots(fixed, rest)
            w = img[v] = low.bit_length() - 1
            leaf = _first_leaf(rest, back, slot, mapped, adj, img, bit - 1 | low, 0)
            if leaf is not None:
                check_bijection(leaf)
                found[w] = leaf
                gens.append(leaf)
                if others:  # drop the branches to the orbit's points
                    made |= _close(found, gens, v)
                    others &= ~made
        if not found:
            continue
        reps = []
        for x in sorted(found) if made else found:  # only closure adds out of order
            t = found[x]
            if below and (made >> x & 1 or not by_index):
                t = _least_in_coset(t, below)
            reps.append(t)
        size *= len(reps) + 1
        if size > config.MAX_AUT_ELEMENTS:
            raise GroupTooLargeError(config.MAX_AUT_ELEMENTS)
        below.insert(0, (v, reps))
    levels: list = []
    for v, reps in below:
        while len(levels) < v:
            levels.append([])
        levels.append(reps)
    return levels


def _close(orbit: dict, gens: list, base: int) -> int:
    """orbit, which maps points x other than base to automorphisms sending
    base to x, extended to the orbit of base under gens: each point s[x]
    reached by a generator s from a point x (or from base, the identity)
    takes the product s after orbit[x]. The bitmask of the points added."""
    added = 0
    frontier = [base, *orbit]
    for x in frontier:  # grows as points are added
        p = orbit.get(x)
        for s in gens:
            y = s[x]
            if y != base and y not in orbit:
                orbit[y] = s if p is None else tuple([s[z] for z in p])
                added |= 1 << y
                frontier.append(y)
    return added


def _least_in_coset(t: tuple[int, ...], below) -> tuple[int, ...]:
    """The lexicographically least element of tH, where t is on level i and
    H, the stabilizer of 0..i, has the levels below: (j, representatives)
    for each j > i whose level is not empty. Level by level, t after the
    representative r that gives j the least image t[r[j]], or t itself when
    t[j] is least; r fixes 0..j-1, so the images already settled stay."""
    for j, reps in below:
        best, pick = t[j], None
        for r in reps:
            if t[r[j]] < best:
                best, pick = t[r[j]], r
        if pick is not None:
            t = tuple([t[x] for x in pick])
    return t


def automorphism_group(g: Graph) -> PermGroup:
    """Aut(g), held as the search's stabilizer chain."""
    if g.n > config.MAX_AUT_VERTICES:
        raise UnsupportedSizeError(
            f"automorphism search supports n <= {config.MAX_AUT_VERTICES}, got {g.n}"
        )
    return PermGroup(g.n, levels=automorphism_elements(g))


def group_key(aut: PermGroup) -> tuple:
    """A key of a group automorphism_group returned, equal for two such
    groups exactly when they have the same elements: the degree and the
    levels, which hold the least element of each coset and so depend only
    on the group. No element is formed."""
    return aut.degree, tuple(map(tuple, aut.levels))


def group_of(g: Graph, aut: PermGroup | None) -> PermGroup:
    """aut, a group the caller already has, or Aut(g) when it is None.
    Raises DegreeError when aut does not act on g's vertices."""
    if aut is None:
        return automorphism_group(g)
    if aut.degree != g.n:
        raise DegreeError(f"group of degree {aut.degree} given for a graph on {g.n} vertices")
    return aut

