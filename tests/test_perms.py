from collections import Counter
from itertools import permutations

import pytest
from hypothesis import given

from conftest import perm_lists
from helpers import (
    ElementList,
    compose,
    cycles,
    disjoint_cliques,
    from_cycles,
    inverse,
    mid_group_graphs,
    per_element_cycle_types,
    validate_group,
)
from symbreak.autgroup import automorphism_group
from symbreak.errors import DegreeError
from symbreak.graphs import FamilySpec, enumerate_graphs, generate_family, parse_graph6
from symbreak.perms import Perm, PermGroup, cycle_type


def test_compose_right_to_left():
    # q applied first: (0 1) after (1 2) is the 3-cycle (0 1 2)
    p = from_cycles(3, [(0, 1)])
    q = from_cycles(3, [(1, 2)])
    assert cycles(compose(p, q)) == ((0, 1, 2),)


def test_compose_transposition_self_inverse():
    t = from_cycles(4, [(0, 1)])
    assert compose(t, t).is_identity


def test_compose_half_swap_product():
    # (x d1)(y) followed right-to-left by (y d1)(x) gives the 3-cycle (x d1 y)
    # on symbols x,y,d1 -> 0,1,2
    a = from_cycles(3, [(0, 2)])
    b = from_cycles(3, [(1, 2)])
    assert cycles(compose(a, b)) == ((0, 2, 1),)


def test_compose_degree_mismatch():
    with pytest.raises(DegreeError):
        compose(Perm.identity(3), Perm.identity(4))


def test_inverse_goldens():
    assert inverse(Perm.identity(4)).is_identity
    assert inverse(from_cycles(3, [(0, 1, 2)])) == from_cycles(3, [(0, 2, 1)])
    t = from_cycles(5, [(1, 3)])
    assert inverse(t) == t


def test_cycle_type_goldens():
    assert cycle_type(Perm.identity(5)) == (1, 1, 1, 1, 1)
    assert cycle_type(from_cycles(5, [(0, 1), (2, 3)])) == (2, 2, 1)
    assert cycle_type(from_cycles(5, [(0, 1, 2, 3, 4)])) == (5,)


@given(perm_lists(count=3))
def test_compose_associative(ps):
    p, q, r = ps
    assert compose(compose(p, q), r) == compose(p, compose(q, r))


@given(perm_lists(count=1))
def test_identity_neutral_and_inverse_two_sided(ps):
    (p,) = ps
    e = Perm.identity(p.degree)
    assert compose(p, e) == p == compose(e, p)
    assert compose(p, inverse(p)).is_identity
    assert compose(inverse(p), p).is_identity


@given(perm_lists(count=2))
def test_conjugation_preserves_cycle_type(ps):
    p, s = ps
    conj = compose(s, compose(p, inverse(s)))
    assert cycle_type(conj) == cycle_type(p)


@given(perm_lists(count=1))
def test_cycles_partition_and_reproduce(ps):
    (p,) = ps
    cycle_list = cycles(p)
    seen = sorted(v for cyc in cycle_list for v in cyc)
    assert seen == list(range(p.degree))
    rebuilt = from_cycles(p.degree, cycle_list)
    assert rebuilt == p
    assert sum(cycle_type(p)) == p.degree


def test_permgroup_validate_accepts_symmetric_group():
    validate_group(ElementList(3, permutations(range(3))))


def test_permgroup_validate_rejects_non_closed():
    bad = ElementList(3, ((0, 1, 2), (1, 2, 0)))
    with pytest.raises(ValueError):
        validate_group(bad)


def oracle_profile(group: PermGroup) -> Counter:
    """The (fixed points, 2-cycles) multiset, counted from each element's
    cycle type."""
    return Counter((t.count(1), t.count(2)) for t in per_element_cycle_types(group))


def test_cycle_views_match_per_element_oracle():
    cases = [g for n in range(1, 7) for g in enumerate_graphs(n)]
    cases += [*mid_group_graphs().values(), generate_family(FamilySpec("hypercube", 5))]
    for g in cases:
        aut = automorphism_group(g)
        profile = aut.cycle_profile
        assert "images" not in aut.__dict__
        assert profile == oracle_profile(aut), g


def test_cycle_views_beyond_the_corpus():
    """The cycle profile of Aut(K8) (40,320 elements), Aut(4K3) and the
    degree-0 group of ?, against the per-element oracle counted; a cyclic
    group of degree 300, above maps_to's degree limit, has none."""
    groups = [
        automorphism_group(generate_family(FamilySpec("complete", 8))),
        automorphism_group(disjoint_cliques(4, 3)),
        automorphism_group(parse_graph6("?")),
    ]
    assert [g.order for g in groups] == [40320, 31104, 1]
    for aut in groups:
        assert aut.cycle_profile == oracle_profile(aut)
    shift = tuple((v + 1) % 300 for v in range(300))
    powers = [tuple(range(300))]
    while len(powers) < 300:
        powers.append(tuple(shift[v] for v in powers[-1]))
    with pytest.raises(DegreeError):
        PermGroup.from_images(300, powers).cycle_profile


def test_permgroup_from_elements_sorts_and_dedupes():
    g = PermGroup.from_elements(
        2, [Perm((1, 0)), Perm((0, 1)), Perm((1, 0))]
    )
    assert g.order == 2
    assert g.elements[0].is_identity


def test_permgroup_takes_levels_by_keyword_and_rejects_sets_its_chain_misses():
    """An image tuple given where levels go raises TypeError, and from_images
    raises ValueError on a set that the products of its levels do not
    reproduce: the identity, (0 1) and (2 3) lack (0 1)(2 3)."""
    with pytest.raises(TypeError):
        PermGroup(3, ((0, 1, 2), (1, 2, 0)))
    with pytest.raises(ValueError, match="not the products of their levels"):
        PermGroup.from_images(4, [(1, 0, 2, 3), (0, 1, 3, 2)])
