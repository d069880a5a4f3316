"""The ways _conjugating_bijection can fail once the orders agree: orbit
sizes that differ, cycle profiles that differ, and a search that exhausts
without a bijection; and the bijection it builds, with no search, between
two groups that are the symmetric group on each of their orbits."""

import random
from collections import Counter
from itertools import permutations
from math import factorial, prod

import pytest

from helpers import conjugate_group, disjoint_cliques, per_element_cycle_types
from symbreak.autgroup import automorphism_group, group_key
from symbreak.config import Budget
from symbreak.equivalence import _conjugating_bijection, distinguishably_equivalent
from symbreak.errors import BudgetExceededError
from symbreak.graphs import (
    FamilySpec,
    clique_with_tails,
    complement,
    enumerate_graphs,
    generate_family,
    permuted,
)
from symbreak.perms import Perm, PermGroup


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
    assert Counter(per_element_cycle_types(a)) == Counter(per_element_cycle_types(b))
    assert a.cycle_profile == b.cycle_profile
    assert sorted(map(len, a.orbits)) == [1, 1, 4]
    assert sorted(map(len, b.orbits)) == [2, 2, 2]
    assert _conjugating_bijection(a, b, Budget(equivalence_nodes=0)) is None


def test_regular_groups_with_equal_orbit_sizes_differ_in_cycle_index():
    """Z2^5 and Z4 x Z2^3, each acting on itself by translation: one orbit
    of 32 points and order 32, so only the cycle index (Z4 x Z2^3 has
    elements of order 4) tells them apart before a search. The cycle profile
    does too, with no element formed: Z2^5 has 31 elements with sixteen
    2-cycles, Z4 x Z2^3 has 15. Without that check the search runs past
    10^6 nodes."""
    shifts = [tuple(x ^ 1 << k for x in range(32)) for k in range(5)]
    z2_5 = closure(32, shifts)

    def add(x, y):  # in Z4 x Z2^3, x and y as (x & 3, x >> 2)
        return ((x + y) & 3) | ((x ^ y) & ~3)

    z4_z2_3 = closure(32, [tuple(add(x, g) for x in range(32)) for g in (1, 4, 8, 16)])
    assert z2_5.order == z4_z2_3.order == 32
    assert [len(o) for o in z2_5.orbits] == [len(o) for o in z4_z2_3.orbits] == [32]
    assert Counter(per_element_cycle_types(z2_5)) != Counter(per_element_cycle_types(z4_z2_3))
    assert z2_5.cycle_profile[0, 16] == 31 and z4_z2_3.cycle_profile[0, 16] == 15
    assert _conjugating_bijection(z2_5, z4_z2_3, Budget(equivalence_nodes=0)) is None


def test_search_exhausts_on_non_conjugate_groups_with_equal_signatures():
    """Two transitive groups of order 192 on 8 points with equal cycle
    indexes (and equal per-vertex cycle statistics) that no bijection
    conjugates: the search exhausts after its first node."""
    gens_a = [(1, 5, 3, 6, 7, 2, 0, 4), (5, 0, 6, 2, 1, 4, 7, 3)]
    gens_b = [(7, 3, 4, 6, 0, 1, 5, 2), (1, 2, 3, 0, 6, 4, 7, 5)]
    a, b = closure(8, gens_a), closure(8, gens_b)
    assert a.order == b.order == 192
    assert Counter(per_element_cycle_types(a)) == Counter(per_element_cycle_types(b))
    assert a.cycle_profile == b.cycle_profile
    assert [len(o) for o in a.orbits] == [len(o) for o in b.orbits] == [8]
    assert not any(conjugates_into(s, gens_a, b) for s in permutations(range(8)))
    assert _conjugating_bijection(a, b, Budget(equivalence_nodes=1)) is None
    with pytest.raises(BudgetExceededError):  # None only once the search ran
        _conjugating_bijection(a, b, Budget(equivalence_nodes=0))


def test_orbit_symmetric_groups_get_the_least_conjugator_without_a_search():
    """Every ordered pair of groups, a group with itself included, that are
    the symmetric group on each of their orbits and have equal degree, order
    and sorted orbit sizes, among the graphs on at most 6 vertices and a
    seeded relabelled complement of each. Under a budget of zero nodes the
    bijection returned conjugates the one group onto the other, and it is
    the least, in lexicographic order, of the n! bijections that conjugate
    the first group's levels into the second group, which is what the
    search returns."""
    rng = random.Random(0)
    base = [g for n in range(1, 7) for g in enumerate_graphs(n)]
    graphs = base + [
        permuted(complement(g), Perm(tuple(rng.sample(range(g.n), g.n)))) for g in base
    ]
    by_key: dict[tuple, dict] = {}  # (n, order, orbit sizes) -> distinct groups by group_key
    for g in graphs:
        aut = automorphism_group(g)
        sizes = tuple(sorted(map(len, aut.orbits)))
        if aut.order == prod(map(factorial, sizes)):
            by_key.setdefault((g.n, aut.order, sizes), {})[group_key(aut)] = aut
    pairs = [(a, b) for same in by_key.values() for a in same.values() for b in same.values()]
    assert len(by_key) >= 20 and len(pairs) >= 1000
    for a, b in pairs:
        sigma = _conjugating_bijection(a, b, Budget(equivalence_nodes=0))
        assert conjugate_group(a, sigma).image_set == b.image_set
        gens = [t for reps in a.levels for t in reps]
        least = next(s for s in permutations(range(a.degree)) if conjugates_into(s, gens, b))
        assert sigma.images == least, (a, b)


def test_k8_against_a_relabelled_k8_forms_nothing():
    """K8 against a seeded relabelling of K8, the pair of the tests
    workflow: S8 against S8 settles at a budget of zero nodes, on the
    identity the search returned, and neither group forms its 40,320
    products, maps_to or cycle profile."""
    k8 = generate_family(FamilySpec("complete", 8))
    relabelled = permuted(k8, Perm(tuple(random.Random(0).sample(range(8), 8))))
    a, b = automorphism_group(k8), automorphism_group(relabelled)
    sigma = distinguishably_equivalent(k8, relabelled, Budget(equivalence_nodes=0), aut1=a, aut2=b)
    assert sigma == Perm.identity(8)
    formed = {"images", "maps_to", "cycle_profile"}
    assert formed.isdisjoint(a.__dict__) and formed.isdisjoint(b.__dict__)


def test_large_pairs_that_are_not_orbit_symmetric_form_no_element():
    """clique_with_tails(3) against a seeded relabelling (|Aut| = 40,320,
    the pair of the tests workflow, at the least budget that settles it) and
    4K3 against a seeded relabelling of its complement (|Aut| = 31,104):
    neither group is the symmetric group on each of its orbits, so their
    cycle profiles are compared, read off maps_to, and the search runs; no
    product of either group is formed."""
    k = disjoint_cliques(4, 3)
    tails = clique_with_tails(3)
    for g, h, budget in [
        (tails, permuted(tails, Perm(tuple(random.Random(0).sample(range(24), 24)))), 118),
        (k, permuted(complement(k), Perm(tuple(random.Random(0).sample(range(12), 12)))), 10**6),
    ]:
        a, b = automorphism_group(g), automorphism_group(h)
        sigma = distinguishably_equivalent(g, h, Budget(equivalence_nodes=budget), aut1=a, aut2=b)
        assert "cycle_profile" in a.__dict__ and "cycle_profile" in b.__dict__
        assert "images" not in a.__dict__ and "images" not in b.__dict__
        assert conjugates_into(sigma.images, [t for reps in a.levels for t in reps], b)
