"""Distinguishable equivalence of graphs.

Two graphs are equivalent when some bijection of their vertex sets conjugates
the automorphism group of one onto the other, element for element; that is the
same as the two groups having equal labeled cycle representations under
suitable labelings. The search backtracks over vertex images, filtered by
per-vertex statistics (PermGroup.vertex_signatures: the multiset, over all
group elements, of the cycle length through the vertex paired with the
element's cycle type) and by per-element candidate lists that shrink as
images are fixed.
"""

from __future__ import annotations

from . import config
from .autgroup import automorphism_group, search_bijections
from .errors import BudgetExceededError
from .graphs import Graph
from .perms import Perm, PermGroup, inverse

# per-element candidate lists are only maintained for groups up to this order;
# beyond it the search relies on signatures plus the exact leaf check
_LIST_LIMIT = 3000


def representations_equal(a: PermGroup, b: PermGroup) -> bool:
    """Same degree and identical element sets."""
    return a.degree == b.degree and a.image_set == b.image_set


def conjugate_group(aut: PermGroup, sigma: Perm) -> PermGroup:
    """sigma . aut . sigma^-1 as an explicit group on the image labels."""
    out = []
    s = sigma.images
    for p in aut.elements:
        img = [0] * aut.degree
        for v in range(aut.degree):
            img[s[v]] = s[p.images[v]]
        out.append(Perm(tuple(img)))
    return PermGroup.from_elements(aut.degree, out)


def _conjugating_bijection(autA: PermGroup, autB: PermGroup, budget: config.Budget):
    """A vertex bijection sigma with sigma.autA.sigma^-1 == autB, or None."""
    n = autA.degree
    if autB.degree != n or autA.order != autB.order:
        return None
    if autA.order == 1:
        return Perm.identity(n)
    if sorted(autA.cycle_types) != sorted(autB.cycle_types):
        return None
    sigA = autA.vertex_signatures
    sigB = autB.vertex_signatures
    if sorted(sigA) != sorted(sigB):
        return None

    A = autA.images
    Ainv = [inverse(p).images for p in autA.elements]
    Bset = autB.image_set
    cand_vertices = {
        sig: [w for w in range(n) if sigB[w] == sig] for sig in set(sigA)
    }
    order = sorted(range(n), key=lambda v: (len(cand_vertices[sigA[v]]), v))

    track_lists = autA.order <= _LIST_LIMIT
    if track_lists:
        by_type: dict[tuple, list] = {}
        for images, ct in zip(autB.images, autB.cycle_types):
            by_type.setdefault(ct, []).append(images)
        cand_elems = [list(by_type[ct]) for ct in autA.cycle_types]

    sigma = [-1] * n
    used = [False] * n
    nodes = 0

    def leaf_ok() -> bool:
        for a in A:
            img = [0] * n
            for v in range(n):
                img[sigma[v]] = sigma[a[v]]
            if tuple(img) not in Bset:
                return False
        return True

    def filter_lists(v: int, w: int):
        """Shrink element candidate lists for the new point sigma[v] = w.
        Returns an undo trail, or None when some list empties."""
        trail = []
        for i, a in enumerate(A):
            lst = cand_elems[i]
            u1 = a[v]
            t1 = sigma[u1]  # b must map w -> t1 when known
            u0 = Ainv[i][v]
            s0 = sigma[u0]  # b must map s0 -> w when known
            kept = [
                b
                for b in lst
                if (t1 < 0 or b[w] == t1) and (s0 < 0 or b[s0] == w)
            ]
            if len(kept) != len(lst):
                trail.append((i, lst))
                cand_elems[i] = kept
                if not kept:
                    for j, old in trail:
                        cand_elems[j] = old
                    return None
        return trail

    def extend(pos: int) -> bool:
        nonlocal nodes
        if pos == n:
            return leaf_ok()
        v = order[pos]
        for w in cand_vertices[sigA[v]]:
            if used[w]:
                continue
            nodes += 1
            if nodes > budget.equivalence_nodes:
                raise BudgetExceededError(
                    f"bijection search exceeded {budget.equivalence_nodes} nodes"
                )
            sigma[v] = w
            used[w] = True
            if track_lists:
                trail = filter_lists(v, w)
                if trail is not None:
                    if extend(pos + 1):
                        return True
                    for j, old in trail:
                        cand_elems[j] = old
            else:
                if extend(pos + 1):
                    return True
            used[w] = False
            sigma[v] = -1
        return False

    try:
        found = extend(0)
    finally:
        del extend  # it refers to itself: free the search now, not at the next gc
    return Perm(tuple(sigma)) if found else None


def distinguishably_equivalent(
    g1: Graph,
    g2: Graph,
    budget: config.Budget = config.DEFAULT_BUDGET,
    aut1: PermGroup | None = None,
    aut2: PermGroup | None = None,
):
    """A bijection conjugating Aut(g1) onto Aut(g2) if the graphs are
    equivalent, else None; aut1 and aut2 are groups the caller already has.
    Raises BudgetExceededError when the search cannot be exhausted within
    budget."""
    if g1.n != g2.n:
        return None
    if aut1 is None:
        aut1 = automorphism_group(g1)
    if aut2 is None:
        aut2 = automorphism_group(g2)
    return _conjugating_bijection(aut1, aut2, budget)


def isomorphism(g1: Graph, g2: Graph):
    """A vertex bijection g1 -> g2 preserving adjacency, or None."""
    found: list[tuple[int, ...]] = []
    search_bijections(g1, g2, found.append)  # append returns None: stop at one
    return Perm(found[0]) if found else None


def equivalence_classes(
    graphs, budget: config.Budget = config.DEFAULT_BUDGET
) -> tuple[list[list[int]], list[tuple[int, int]]]:
    """Partition indices of the input list under distinguishable equivalence.

    Each graph is tested against one representative per existing class, in
    class creation order, so transitivity is exploited rather than re-derived.
    Pairs whose search ran out of budget are returned as unresolved; the
    graph then starts its own class.
    """
    classes: list[dict] = []
    unresolved: list[tuple[int, int]] = []
    for i, g in enumerate(graphs):
        aut = automorphism_group(g)
        key = (g.n, aut.order, tuple(sorted(aut.cycle_types)))
        placed = False
        for cls in classes:
            if cls["key"] != key:
                continue
            try:
                if _conjugating_bijection(cls["aut"], aut, budget) is not None:
                    cls["members"].append(i)
                    placed = True
                    break
            except BudgetExceededError:
                unresolved.append((cls["members"][0], i))
        if not placed:
            classes.append({"key": key, "aut": aut, "members": [i]})
    return [cls["members"] for cls in classes], unresolved
