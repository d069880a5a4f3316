"""Distinguishable equivalence of graphs.

Two graphs are equivalent when some bijection of their vertex sets conjugates
the automorphism group of one onto the other, element for element; that is the
same as the two groups having equal labeled cycle representations under
suitable labelings. Under one labelling, two groups have equal representations
exactly when their image_set views are equal. Before any search, the two
groups' cycle indexes (PermGroup.cycle_index, the multiset of cycle types) and
signature indexes must agree. The search backtracks over vertex images,
filtered by per-vertex statistics (PermGroup.vertex_signatures: the multiset,
over all group elements, of the cycle length through the vertex paired with
the element's cycle type, held counted as its sorted (pair, multiplicity)
items, which are only compared for equality). It conjugates only a generating
set of the first group, PermGroup.generators: the coset representatives of
its stabilizer chain, read from its levels, each with its inverse and cycle
type. Each generator keeps a bitset of its possible images in the second
group, starting from the second group's elements of its cycle type
(PermGroup.type_bits) and ANDed with a maps_to row as each vertex image is
fixed; an empty bitset prunes the branch, and a full bijection whose bitsets
are all non-empty conjugates the whole group.

Every one of these views is built once per group and cached on it, so a
class representative searched against many groups derives its generators
and signatures once. equivalence_classes looks each group up before it
searches, by autgroup.group_key, its degree and the levels of its stabilizer
chain, which depend only on the group: a graph whose group equals, element
for element, one already placed joins that class without a search, since the
identity conjugates the one group onto the other, and none of its elements
is formed. The first graph of each distinct group is tried only against the
representatives of the classes with its n and order, found by one dict
lookup; _conjugating_bijection compares cycle indexes before it searches, so
a group forms its elements for the cycle views only when another group has
its n and order.
"""

from __future__ import annotations

from . import config
from .autgroup import automorphism_group, group_key, group_of
from .errors import BudgetExceededError
from .graphs import Graph
from .perms import Perm, PermGroup


def _conjugating_bijection(autA: PermGroup, autB: PermGroup, budget: config.Budget):
    """A vertex bijection sigma with sigma.autA.sigma^-1 == autB, or None."""
    n = autA.degree
    if autB.degree != n or autA.order != autB.order:
        return None
    if autA.order == 1:
        return Perm.identity(n)
    if autA.cycle_index != autB.cycle_index:
        return None
    if autA.signature_index != autB.signature_index:
        return None
    sigA = autA.vertex_signatures
    sigB = autB.vertex_signatures

    cand_vertices = {
        sig: [w for w in range(n) if sigB[w] == sig] for sig in set(sigA)
    }
    order = sorted(range(n), key=lambda v: (len(cand_vertices[sigA[v]]), v))

    # per generator a of autA (with its inverse), the elements of autB that
    # can still be sigma.a.sigma^-1: those of a's cycle type that send
    # sigma(u) to sigma(a(u)) wherever u and a(u) are both mapped
    gens = autA.generators
    B = autB.maps_to

    sigma = [-1] * n
    used = [False] * n
    nodes = 0
    # bits[pos]: the generators' candidate bitsets once order[:pos] is mapped;
    # tries[pos]: the candidate vertices order[pos] has not yet been tried at
    bits = [[autB.type_bits[ct] for _a, _inv, ct in gens]]
    tries = [iter(cand_vertices[sigA[order[0]]])]
    while tries:
        pos = len(tries) - 1
        v = order[pos]
        if sigma[v] >= 0:  # back from the subtree under sigma[v]
            used[sigma[v]] = False
            bits.pop()
        for w in tries[-1]:
            if used[w]:
                continue
            nodes += 1
            if nodes > budget.equivalence_nodes:
                raise BudgetExceededError(
                    f"bijection search exceeded {budget.equivalence_nodes} nodes"
                )
            sigma[v] = w
            kept = []
            for b, (a, inv, _ct) in zip(bits[-1], gens):
                if sigma[a[v]] >= 0:
                    b &= B[w][sigma[a[v]]]
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
        # at a full leaf each bitset is exactly {sigma.a.sigma^-1}, so
        # sigma.autA.sigma^-1 lies in autB, and the orders are equal
        if pos + 1 == n:
            return Perm(tuple(sigma))
        used[w] = True
        bits.append(kept)
        tries.append(iter(cand_vertices[sigA[order[pos + 1]]]))
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
    the identity conjugates one group onto the other, so no element, no
    cycle views and no search are needed.
    Any other graph is tested against the representative of each existing
    class with its key (n and |Aut|), in class creation order, so
    transitivity is exploited rather than re-derived; a representative whose
    cycle index differs is ruled out before any search. A pair whose search
    ran out of budget is returned as unresolved, and the graph goes on to the
    next class with its key: it may join a later class, and starts its own
    only when no class with its key takes it. A later graph with the same
    group as one already placed is never unresolved, even under a budget too
    small to settle the pair by search: it joins that graph's class.
    """
    classes: list[list[int]] = []  # the members of each class, in creation order
    unresolved: list[tuple[int, int]] = []
    class_of: dict[tuple, list[int]] = {}  # group_key(aut) -> members of its class
    by_key: dict[tuple, list] = {}  # key -> (representative's group, members) per class
    for i, g in enumerate(graphs):
        aut = automorphism_group(g)
        members = class_of.get(chain := group_key(aut))
        if members is None:
            same_key = by_key.setdefault((g.n, aut.order), [])
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
