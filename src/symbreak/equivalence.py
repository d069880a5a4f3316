"""Distinguishable equivalence of graphs.

Two graphs are equivalent when some bijection of their vertex sets conjugates
the automorphism group of one onto the other, element for element; that is the
same as the two groups having equal labeled cycle representations under
suitable labelings. Under one labelling, two groups have equal representations
exactly when their image_set views are equal.

obstruction holds the checks that need no search, cheapest first: the
degrees and orders, the sorted orbit sizes (PermGroup.orbits, read off the
levels) and the cycle profiles (PermGroup.cycle_profile, the multiset of
(fixed points, 2-cycles) over the elements, read off maps_to). It forms no
element, and _conjugating_bijection and `symbreak equiv` both call it. A
group whose order is the product of |O|! over its orbits O is
orbit-symmetric: it always lies in the product of Sym(O), so it is that
product, and a group of equal order and orbit sizes is orbit-symmetric too.
Their profiles are then equal, and are not read. Two such products are
conjugate by any bijection mapping orbits onto orbits of equal size, and the
least of them is built directly: each orbit of the first group A, by least
member, takes the next unused orbit of its size of the second group B, by
least member, point for point in ascending order. That settles every trivial
group too, and forms no element and no maps_to. Otherwise, once the
profiles agree, the search chooses sigma(0), sigma(1), ... in the order of
A's base. Once 0..i-1 is mapped, sigma(i) is
tried only at the least unused point of each orbit of B_sigma(0..i-1), the
elements of B fixing the points mapped so far, whose size is that of i's
orbit under A_0..i-1, read off the levels of A's chain. B_sigma(0..i-1) is
the AND of the diagonal maps_to rows B[w][w] of those points, and the orbit
of x under it is {y : B[x][y] meets it}. Most heads asked for are of orbits
of one point, and x is one exactly when B_sigma(0..i-1) lies in B[x][x]: one
AND per point, with no orbit formed. This is exact: a conjugator sends
A_0..i-1 onto B_sigma(0..i-1), so it maps i's orbit onto an orbit of the
same size; and for b in B_sigma(0..i-1), b.sigma is again a conjugator that
agrees with sigma on 0..i-1, so one image per orbit is enough. Each coset
representative t of A's levels keeps a bitset of its possible images in B,
ANDed with a maps_to row as each vertex image is fixed; an empty bitset
prunes the branch. At a full leaf each bitset is {sigma.t.sigma^-1}, the
representatives generate A and the orders are equal, so sigma conjugates A
onto B.

equivalence_classes looks each group up before it searches, by
autgroup.group_key, its degree and the levels of its stabilizer chain,
which depend only on the group: a graph whose group equals, element for
element, one already placed joins that class without a search, since the
identity conjugates the one group onto the other. A new group is tried only
against the representatives of the classes with its n, order and sorted
orbit sizes, found by one dict lookup. For an orbit-symmetric group that
bucket holds at most one class, which it joins with no search node. A group
builds maps_to, for its profile and the search, only when another group that
is not orbit-symmetric has its n, order and orbit sizes. The cached views a
search reads, orbits, maps_to and cycle_profile, are built once per group,
so a class representative tried against many groups builds them once. No
group forms its elements.
"""

from __future__ import annotations

from math import factorial, prod

from . import config
from .autgroup import automorphism_group, group_key, group_of
from .errors import BudgetExceededError
from .graphs import Graph
from .perms import Perm, PermGroup


def _orbit_heads(B, fix: int, size: int, used: list[bool]):
    """The least point of each orbit of exactly size points under the
    elements fix of the group whose maps_to is B, in ascending order, where
    that point is not used: the orbit of x is {y : B[x][y] & fix}. Yielded
    one at a time, so that an orbit past the first head that settles is
    never formed; used must not change between heads. For size 1 no orbit
    is formed at all: x is alone in its orbit exactly when every element of
    fix lies in B[x][x], one AND per point."""
    if size == 1:
        for x, row in enumerate(B):
            if not (used[x] or fix & ~row[x]):
                yield x
        return
    seen = [False] * len(B)
    for x, row in enumerate(B):
        if not seen[x]:
            orbit = [y for y, b in enumerate(row) if b & fix]
            for y in orbit:
                seen[y] = True
            if len(orbit) == size and not used[x]:
                yield x


def _orbit_symmetric(aut: PermGroup) -> bool:
    """Whether aut is the symmetric group on each of its orbits: its order
    is the product of |O|! over its orbits O."""
    return aut.order == prod(factorial(len(orbit)) for orbit in aut.orbits)


def obstruction(autA: PermGroup, autB: PermGroup) -> str | None:
    """Why no bijection conjugates autA onto autB, from the checks that need
    no search, cheapest first, or None when every check passes: the degrees,
    the orders, the sorted orbit sizes and, unless both groups are
    orbit-symmetric, their cycle profiles. No element is formed."""
    if autA.degree != autB.degree:
        return f"vertex-count {autA.degree} != {autB.degree}"
    if autA.order != autB.order:
        return f"aut-order {autA.order} != {autB.order}"
    sizes = [sorted(map(len, aut.orbits)) for aut in (autA, autB)]
    if sizes[0] != sizes[1]:
        return f"orbit-sizes {sizes[0]} != {sizes[1]}"
    if not _orbit_symmetric(autA) and autA.cycle_profile != autB.cycle_profile:
        return "cycle-type multisets differ"
    return None


def _conjugating_bijection(autA: PermGroup, autB: PermGroup, budget: config.Budget):
    """A vertex bijection sigma with sigma.autA.sigma^-1 == autB, or None."""
    if obstruction(autA, autB) is not None:
        return None
    n = autA.degree
    if _orbit_symmetric(autA):  # Sym(O) on each orbit O, in both
        free: dict[int, list] = {}  # orbit size -> B's orbits of that size, least member last
        for orbit in reversed(autB.orbits):
            free.setdefault(len(orbit), []).append(orbit)
        sigma = [0] * n
        for orbit in autA.orbits:
            for v, w in zip(sorted(orbit), sorted(free[len(orbit)].pop())):
                sigma[v] = w
        return Perm(tuple(sigma))

    # per representative t of autA's levels (with its inverse), the elements
    # of autB that can still be sigma.t.sigma^-1: those that send sigma(u)
    # to sigma(t(u)) wherever u and t(u) are both mapped
    gens = [(t, tuple(sorted(range(n), key=t.__getitem__))) for reps in autA.levels for t in reps]
    B = autB.maps_to
    # wanted[v]: the size of v's orbit under the elements of autA fixing 0..v-1
    wanted = [len(reps) + 1 for reps in autA.levels] + [1] * (n - len(autA.levels))

    sigma = [-1] * n
    used = [False] * n
    nodes = 0
    every = (1 << autB.order) - 1
    # fixes[v]: the elements of autB fixing sigma(0..v-1); bits[v]: the
    # generators' candidate bitsets once 0..v-1 is mapped; tries[v]: the
    # orbit heads v has not yet been tried at
    fixes = [every]
    bits = [[every] * len(gens)]
    tries = [_orbit_heads(B, every, wanted[0], used)]
    while tries:
        v = len(tries) - 1
        if sigma[v] >= 0:  # back from the subtree under sigma[v]
            used[sigma[v]] = False
            fixes.pop()
            bits.pop()
        for w in tries[-1]:
            nodes += 1
            if nodes > budget.equivalence_nodes:
                raise BudgetExceededError(
                    f"bijection search exceeded {budget.equivalence_nodes} nodes"
                )
            sigma[v] = w
            kept = []
            for b, (t, inv) in zip(bits[-1], gens):
                if sigma[t[v]] >= 0:
                    b &= B[w][sigma[t[v]]]
                if sigma[inv[v]] >= 0:
                    b &= B[sigma[inv[v]]][w]
                if not b:
                    break  # pruned: try the next w
                kept.append(b)
            else:
                break  # every bitset kept a candidate: descend under w
        else:  # no candidate left for v: back up one level
            sigma[v] = -1
            tries.pop()
            continue
        # at a full leaf each bitset is exactly {sigma.t.sigma^-1}; the
        # representatives generate autA, and the orders are equal
        if v + 1 == n:
            return Perm(tuple(sigma))
        used[w] = True
        fixes.append(fix := fixes[-1] & B[w][w])
        bits.append(kept)
        tries.append(_orbit_heads(B, fix, wanted[v + 1], used))
    return None


def distinguishably_equivalent(
    g1: Graph,
    g2: Graph,
    budget: config.Budget = config.DEFAULT_BUDGET,
    aut1: PermGroup | None = None,
    aut2: PermGroup | None = None,
):
    """A bijection conjugating Aut(g1) onto Aut(g2) if the graphs are
    equivalent, else None; aut1 and aut2 are groups the caller already has.
    Raises DegreeError when either does not act on its graph's vertices, and
    BudgetExceededError when the search cannot be exhausted within budget."""
    if g1.n != g2.n:
        return None
    return _conjugating_bijection(group_of(g1, aut1), group_of(g2, aut2), budget)


def equivalence_classes(
    graphs, budget: config.Budget = config.DEFAULT_BUDGET
) -> tuple[list[list[int]], list[tuple[int, int]]]:
    """Partition indices of the input list under distinguishable equivalence.

    A graph whose group equals, element for element, the group of a graph
    already placed, found by group_key, joins that graph's class at once:
    the identity conjugates one group onto the other, so no maps_to and no
    search are needed. Any other graph is tested against the representative
    of each existing class with its key (n, |Aut| and sorted orbit sizes), in
    class creation order, so transitivity is exploited rather than
    re-derived; a representative whose cycle profile differs is ruled out
    before any search (obstruction). A graph whose group is the symmetric
    group on each of its orbits finds at most one class with its key, and
    _conjugating_bijection settles that pair without a search. A pair whose
    search ran out of budget is returned as unresolved, and the graph goes on
    to the next class with its key: it may join a later class, and starts its
    own only when no class with its key takes it. A later graph with the same
    group as one already placed, like a graph whose group is orbit-symmetric,
    is never unresolved, even under a budget too small to settle a pair by
    search. No element of any group is formed.
    """
    classes: list[list[int]] = []  # the members of each class, in creation order
    unresolved: list[tuple[int, int]] = []
    class_of: dict[tuple, list[int]] = {}  # group_key(aut) -> members of its class
    by_key: dict[tuple, list] = {}  # key -> (representative's group, members) per class
    for i, g in enumerate(graphs):
        aut = automorphism_group(g)
        members = class_of.get(chain := group_key(aut))
        if members is None:
            same_key = by_key.setdefault(
                (g.n, aut.order, tuple(sorted(map(len, aut.orbits)))), []
            )
            for rep, cls in same_key:
                try:
                    if _conjugating_bijection(rep, aut, budget) is not None:
                        members = cls
                        break
                except BudgetExceededError:
                    unresolved.append((cls[0], i))
            else:
                members = []
                classes.append(members)
                same_key.append((aut, members))
            class_of[chain] = members
        members.append(i)
    return classes, unresolved
