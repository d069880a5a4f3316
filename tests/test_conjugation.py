"""The ways _conjugating_bijection can fail once the orders agree: orbit
sizes that differ, cycle indexes that differ, and a search that exhausts
without a bijection."""

from itertools import permutations

import pytest

from symbreak.autgroup import orbits
from symbreak.config import Budget
from symbreak.equivalence import _conjugating_bijection
from symbreak.errors import BudgetExceededError
from symbreak.perms import PermGroup


def closure(n, generators) -> PermGroup:
    """The group generated by the image tuples generators."""
    seen = {tuple(range(n))}
    todo = list(seen)
    while todo:
        t = todo.pop()
        for g in generators:
            p = tuple(g[v] for v in t)
            if p not in seen:
                seen.add(p)
                todo.append(p)
    return PermGroup.from_images(n, seen)


def conjugates_into(sigma, generators, group: PermGroup) -> bool:
    """sigma.g.sigma^-1 lies in group for every g of generators."""
    inv = [0] * len(sigma)
    for v, w in enumerate(sigma):
        inv[w] = v
    return all(
        tuple(sigma[g[inv[w]]] for w in range(len(sigma))) in group.image_set
        for g in generators
    )


def test_klein_groups_with_equal_cycle_types_differ_in_orbit_sizes():
    a = closure(6, [(1, 0, 3, 2, 4, 5), (2, 3, 0, 1, 4, 5)])
    b = closure(6, [(1, 0, 3, 2, 4, 5), (1, 0, 2, 3, 5, 4)])
    assert a.order == b.order == 4
    assert a.cycle_index == b.cycle_index
    assert sorted(map(len, orbits(a))) == [1, 1, 4]
    assert sorted(map(len, orbits(b))) == [2, 2, 2]
    assert _conjugating_bijection(a, b, Budget(equivalence_nodes=0)) is None


def test_regular_groups_with_equal_orbit_sizes_differ_in_cycle_index():
    """Z2^5 and Z4 x Z2^3, each acting on itself by translation: one orbit
    of 32 points and order 32, so only the cycle index (Z4 x Z2^3 has
    elements of order 4) tells them apart before a search. Without that
    check the search runs past 10^6 nodes."""
    shifts = [tuple(x ^ 1 << k for x in range(32)) for k in range(5)]
    z2_5 = closure(32, shifts)

    def add(x, y):  # in Z4 x Z2^3, x and y as (x & 3, x >> 2)
        return ((x + y) & 3) | ((x ^ y) & ~3)

    z4_z2_3 = closure(32, [tuple(add(x, g) for x in range(32)) for g in (1, 4, 8, 16)])
    assert z2_5.order == z4_z2_3.order == 32
    assert [len(o) for o in orbits(z2_5)] == [len(o) for o in orbits(z4_z2_3)] == [32]
    assert z2_5.cycle_index != z4_z2_3.cycle_index
    assert _conjugating_bijection(z2_5, z4_z2_3, Budget(equivalence_nodes=0)) is None


def test_search_exhausts_on_non_conjugate_groups_with_equal_signatures():
    """Two transitive groups of order 192 on 8 points with equal cycle
    indexes (and equal per-vertex cycle statistics) that no bijection
    conjugates: the search exhausts after its first node."""
    gens_a = [(1, 5, 3, 6, 7, 2, 0, 4), (5, 0, 6, 2, 1, 4, 7, 3)]
    gens_b = [(7, 3, 4, 6, 0, 1, 5, 2), (1, 2, 3, 0, 6, 4, 7, 5)]
    a, b = closure(8, gens_a), closure(8, gens_b)
    assert a.order == b.order == 192
    assert a.cycle_index == b.cycle_index
    assert [len(o) for o in orbits(a)] == [len(o) for o in orbits(b)] == [8]
    assert not any(conjugates_into(s, gens_a, b) for s in permutations(range(8)))
    assert _conjugating_bijection(a, b, Budget(equivalence_nodes=1)) is None
    with pytest.raises(BudgetExceededError):  # None only once the search ran
        _conjugating_bijection(a, b, Budget(equivalence_nodes=0))
