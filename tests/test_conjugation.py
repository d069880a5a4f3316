"""The two ways _conjugating_bijection can fail after the cheap order and
cycle-type checks: per-vertex signatures that differ, and a search that
exhausts without a bijection."""

from itertools import permutations

import pytest

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


def test_klein_groups_with_equal_cycle_types_differ_in_signatures():
    a = closure(6, [(1, 0, 3, 2, 4, 5), (2, 3, 0, 1, 4, 5)])
    b = closure(6, [(1, 0, 3, 2, 4, 5), (1, 0, 2, 3, 5, 4)])
    assert a.order == b.order == 4
    assert sorted(a.cycle_types) == sorted(b.cycle_types)
    assert sorted(a.vertex_signatures) != sorted(b.vertex_signatures)
    assert _conjugating_bijection(a, b, Budget(equivalence_nodes=0)) is None


def test_search_exhausts_on_non_conjugate_groups_with_equal_signatures():
    gens_a = [(1, 5, 3, 6, 7, 2, 0, 4), (5, 0, 6, 2, 1, 4, 7, 3)]
    gens_b = [(7, 3, 4, 6, 0, 1, 5, 2), (1, 2, 3, 0, 6, 4, 7, 5)]
    a, b = closure(8, gens_a), closure(8, gens_b)
    assert a.order == b.order == 192
    assert sorted(a.cycle_types) == sorted(b.cycle_types)
    assert sorted(a.vertex_signatures) == sorted(b.vertex_signatures)
    assert not any(conjugates_into(s, gens_a, b) for s in permutations(range(8)))
    assert _conjugating_bijection(a, b, Budget(equivalence_nodes=100)) is None
    with pytest.raises(BudgetExceededError):  # None only once the search ran
        _conjugating_bijection(a, b, Budget(equivalence_nodes=10))
