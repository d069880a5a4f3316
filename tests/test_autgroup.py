import hashlib
import itertools
import math
import random
from pathlib import Path

import pytest
from hypothesis import given, settings

from conftest import GRAPHS7_FILE, graphs
from helpers import (
    ElementList,
    brute_automorphisms,
    closure_orbits,
    conjugate_group,
    disjoint_cliques,
    latin_square_graph,
    mid_group_graphs,
    preserves_adjacency,
    random_graph,
    random_regular,
    two_diamonds,
    validate_group,
)
from symbreak import autgroup, checks, config, equivalence
from symbreak.autgroup import automorphism_group, isomorphism, orbits
from symbreak.checks import ScanOptions, scan_corpus
from symbreak.equivalence import distinguishably_equivalent
from symbreak.errors import DegreeError, GroupTooLargeError, UnsupportedSizeError
from symbreak.graphs import (
    FamilySpec,
    Graph,
    clique_with_tails,
    complement,
    encode_graph6,
    enumerate_graphs,
    generate_family,
    parse_graph6,
    permuted,
)
from symbreak.metrics import analyze, is_determining_set, is_distinguishing_class
from symbreak.perms import Perm, PermGroup


GOLDENS = Path(__file__).resolve().parent / "goldens"


def fam(kind, p):
    return generate_family(FamilySpec(kind, p))


def test_path_group_order_two():
    aut = automorphism_group(fam("path", 3))
    assert aut.order == 2
    assert sorted(p.images for p in aut.elements) == [(0, 1, 2), (2, 1, 0)]


def test_triangle_group_is_symmetric_group():
    assert automorphism_group(fam("complete", 3)).order == 6


def test_complete_graph_orders():
    for n in range(1, 7):
        assert automorphism_group(fam("complete", n)).order == math.factorial(n)


def test_cycle_group_orders_are_dihedral():
    for n in range(3, 9):
        assert automorphism_group(fam("cycle", n)).order == 2 * n


def test_hypercube_group_orders():
    for n in (2, 3, 4):
        aut = automorphism_group(fam("hypercube", n))
        assert aut.order == 2**n * math.factorial(n)


def test_every_element_preserves_adjacency():
    rng = random.Random(11)
    for _ in range(20):
        g = random_graph(rng, rng.randint(1, 8))
        for p in automorphism_group(g).elements:
            assert preserves_adjacency(g, p)


@settings(max_examples=40)
@given(graphs(max_n=6))
def test_matches_brute_force_filter(g):
    aut = automorphism_group(g)
    assert sorted(p.images for p in aut.elements) == brute_automorphisms(g)


def test_group_is_closed_small():
    for g in (fam("path", 4), fam("cycle", 5), fam("complete", 4)):
        validate_group(automorphism_group(g))


def test_orbits_examples():
    assert orbits(automorphism_group(fam("complete", 4))) == (frozenset({0, 1, 2, 3}),)
    assert orbits(automorphism_group(fam("path", 3))) == (
        frozenset({0, 2}),
        frozenset({1}),
    )


def test_trivial_group_orbits_are_singletons():
    from symbreak.graphs import enumerate_graphs

    asym = next(
        g for g in enumerate_graphs(6) if automorphism_group(g).is_trivial
    )
    assert orbits(automorphism_group(asym)) == tuple(
        frozenset({v}) for v in range(6)
    )


def _dihedral(n):
    """The rotations and reflections of an n-cycle's vertices, as images."""
    return [tuple((s * v + r) % n for v in range(n)) for r in range(n) for s in (1, -1)]


def test_maps_to_marks_each_element_at_its_images():
    """Each row partitions the elements (its bitsets are pairwise disjoint
    and OR to every element), and each element's bit is at its images; above
    5000 elements, at a seeded sample of 200 elements."""
    rng = random.Random(15)
    graph_cases = [g for n in range(1, 6) for g in enumerate_graphs(n)]
    with GRAPHS7_FILE.open(encoding="ascii") as fh:
        graph_cases += [parse_graph6(line.strip()) for line in fh]
    graph_cases += mid_group_graphs().values()
    rook36 = [(u, v) for v in range(18) for u in range(v) if u // 6 == v // 6 or u % 6 == v % 6]
    graph_cases += [
        fam("hypercube", 5),
        Graph.from_edges(18, rook36),  # K3 x K6
        fam("complete", 8),
        disjoint_cliques(4, 3),
        Graph(0, ()),
        fam("cycle", 40),
    ]
    groups = [automorphism_group(g) for g in graph_cases]
    assert {aut.degree for aut in groups} >= {0, 1, 40}
    assert max(aut.order for aut in groups) == 40320
    groups += [
        ElementList(3, [(0, 1, 2), (2, 1, 0), (1, 2, 0), (2, 1, 0), (2, 0, 1), (1, 2, 0)]),
        ElementList(4, [(0, 1, 2, 3), (3, 2, 1, 0), (1, 0, 3, 2), (3, 2, 1, 0)]),
        PermGroup.from_images(256, _dihedral(256)[::-1] + _dihedral(256)[:7]),
    ]
    for aut in groups:
        every = (1 << aut.order) - 1
        assert len(aut.maps_to) == aut.degree
        for row in aut.maps_to:
            assert len(row) == aut.degree
            union = 0
            for bits in row:
                union |= bits
            assert union == every
            assert sum(bits.bit_count() for bits in row) == aut.order  # disjoint
        picked = range(aut.order) if aut.order <= 5000 else rng.sample(range(aut.order), 200)
        for i in picked:
            t = aut.images[i]
            assert all(row[t[u]] >> i & 1 for u, row in enumerate(aut.maps_to)), (aut, i)
        assert aut.identity_bits == 1  # the identity is the first element
    assert groups[-1].order == 512
    with pytest.raises(DegreeError, match="degree <= 256, got 257"):
        PermGroup.from_images(257, _dihedral(257)).maps_to


def test_identity_bits_on_hand_built_element_lists():
    ident, swap = (0, 1, 2), (2, 1, 0)
    assert ElementList(3, (swap, ident, swap, ident)).identity_bits == 0b1010
    assert ElementList(3, (swap,)).identity_bits == 0
    assert ElementList(0, ((),)).identity_bits == 1
    empty = ElementList(3, ())
    assert empty.maps_to == ((0, 0, 0),) * 3
    assert empty.identity_bits == 0
    aut = automorphism_group(fam("hypercube", 3))
    fix_all = -1  # the elements that fix every vertex
    for v, row in enumerate(aut.maps_to):
        fix_all &= row[v]
    assert fix_all == aut.identity_bits == 1


def test_repr_of_a_chain_held_group_forms_no_images():
    """A group held as levels is shown by them, and its repr evaluates to an
    equal group."""
    k8 = automorphism_group(fam("complete", 8))
    assert repr(k8).startswith("PermGroup(8, levels=[[")
    assert "images" not in vars(k8)
    aut = automorphism_group(fam("cycle", 6))
    assert eval(repr(aut)) == aut and eval(repr(aut)).levels == aut.levels
    hand_built = PermGroup.from_images(3, [(2, 1, 0)])
    assert eval(repr(hand_built)) == hand_built


def _large_group_graphs():
    """The graphs of the large-groups benchmark workload, Q5, K3 x K6, K8 and
    4K3, and clique_with_tails(3)."""
    rook36 = [(u, v) for v in range(18) for u in range(v) if u // 6 == v // 6 or u % 6 == v % 6]
    return {
        "Q5": fam("hypercube", 5),
        "K3xK6": Graph.from_edges(18, rook36),
        "K8": fam("complete", 8),
        "4K3": disjoint_cliques(4, 3),
        "clique_with_tails(3)": clique_with_tails(3),
    }


def _relabelled_q5():
    return permuted(fam("hypercube", 5), Perm(tuple(random.Random(0).sample(range(32), 32))))


def test_folded_maps_to_matches_the_table_built_from_images():
    """Every searched group keeps its levels, and its maps_to, folded from
    them, equals the table built from its images alone by its definition;
    the identity is bit 0. On every graph with n <= 7, a relabelled
    complement of each, the large groups and a relabelled Q5."""
    rng = random.Random(22)
    cases = [g for n in range(1, 8) for g in enumerate_graphs(n)]
    cases += [permuted(complement(g), Perm(tuple(rng.sample(range(g.n), g.n)))) for g in cases]
    cases += [*_large_group_graphs().values(), _relabelled_q5()]
    for g in cases:
        aut = automorphism_group(g)
        assert PermGroup.from_images(aut.degree, aut.images).levels == aut.levels, g
        built = ElementList(aut.degree, aut.images)
        assert aut.maps_to == built.maps_to, g
        assert aut.identity_bits == built.identity_bits == 1, g


def test_relabelled_q5_keeps_its_levels_and_knows_its_order_unformed():
    """Relabelled Q5's products do not come out sorted; the group still
    holds its levels, and its order is known before any image is formed."""
    aut = automorphism_group(_relabelled_q5())
    assert aut.order == 3840 and not aut.is_trivial
    assert "images" not in vars(aut)
    assert PermGroup.from_images(aut.degree, aut.images).levels == aut.levels
    assert list(aut.images) != sorted(aut.images)
    assert aut == PermGroup.from_images(aut.degree, aut.images)  # the same elements
    assert hash(aut) == hash(PermGroup.from_images(aut.degree, aut.images))


def test_automorphism_group_searches_once_per_graph(monkeypatch):
    k8 = fam("complete", 8)
    assert math.prod(len(reps) + 1 for reps in autgroup.automorphism_elements(k8)) == 40320
    sizes = []
    search = autgroup.automorphism_elements

    def counted(*args, **kwargs):
        levels = search(*args, **kwargs)
        sizes.append(math.prod(len(reps) + 1 for reps in levels))
        return levels

    monkeypatch.setattr(autgroup, "automorphism_elements", counted)
    cases = [k8, fam("path", 3), fam("hypercube", 3)]
    orders = [automorphism_group(g).order for g in cases]
    assert sizes == orders == [40320, 2, 48]


def test_analysis_forms_no_images():
    large = _large_group_graphs()
    for name in ("K8", "Q5", "4K3"):
        aut = automorphism_group(large[name])
        assert aut.order > 1 and not aut.is_trivial
        analyze(large[name], aut=aut)
        assert "images" not in vars(aut), name


def test_sharing_survives_product_order(monkeypatch):
    """C@ and its complement C} have the same group, and equal groups have
    equal levels: the scan and the classes share it, and the classes form
    none of the group's elements. On every graph with n <= 7 and a
    relabelled complement of each, two groups have equal keys exactly when
    they have the same elements, and the levels are the least coset
    representatives that from_images derives from the elements alone."""
    g, h = parse_graph6("C@"), parse_graph6("C}")
    aut_g, aut_h = automorphism_group(g), automorphism_group(h)
    assert aut_g.levels == aut_h.levels and aut_g == aut_h

    analyzed = []

    def counted(*args, **kwargs):
        analyzed.append(args[0])
        return analyze(*args, **kwargs)

    monkeypatch.setattr(checks, "analyze", counted)
    scan_corpus([g, h], ScanOptions())
    assert len(analyzed) == 1

    searches = []
    bijection = equivalence._conjugating_bijection

    def searched(*args, **kwargs):
        searches.append(args)
        return bijection(*args, **kwargs)

    built = []  # no other group has their n and order: no element is formed

    def kept(g):
        built.append(automorphism_group(g))
        return built[-1]

    monkeypatch.setattr(equivalence, "_conjugating_bijection", searched)
    monkeypatch.setattr(equivalence, "automorphism_group", kept)
    assert equivalence.equivalence_classes([g, h]) == ([[0, 1]], [])
    assert searches == [] and len(built) == 2
    assert not any("images" in vars(aut) for aut in built)

    rng = random.Random(23)
    cases = [g for n in range(1, 8) for g in enumerate_graphs(n)]
    cases += [permuted(complement(g), Perm(tuple(rng.sample(range(g.n), g.n)))) for g in cases]
    unsorted = 0
    groups = {}  # group_key -> the (n, image_set) of each group with that key
    for g in cases:
        aut = automorphism_group(g)
        unsorted += list(aut.images) != sorted(aut.images)
        assert PermGroup.from_images(g.n, aut.images).levels == aut.levels, g
        groups.setdefault(autgroup.group_key(aut), set()).add((g.n, aut.image_set))
    assert unsorted > 0
    assert all(len(same) == 1 for same in groups.values())
    assert len(set().union(*groups.values())) == len(groups) < len(cases)


def test_least_in_coset_gives_the_levels_of_the_walk_by_index(monkeypatch):
    """On these graphs a branch walks by degree, not by index, and some of
    its first leaves are not least: made least, the levels are those of the
    walk by index, whose searched leaves are least already and kept as
    found (the products of orbit closure are made least under either
    walk)."""
    c = clique_with_tails(3)
    cases = [permuted(c, Perm(tuple(random.Random(s).sample(range(24), 24)))) for s in (1, 2, 3)]
    rng = random.Random(37)
    for n in (5, 6):
        half = random_graph(rng, n)
        twice = Graph.from_edges(2 * n, [(u + k, v + k) for u, v in half.edges() for k in (0, n)])
        cases.append(permuted(twice, Perm(tuple(rng.sample(range(2 * n), 2 * n)))))
    assert all(autgroup._by_degree(g) != list(range(g.n)) for g in cases)
    changed = []
    least = autgroup._least_in_coset

    def counted(t, below):
        got = least(t, below)
        changed.append(got != t)
        return got

    monkeypatch.setattr(autgroup, "_least_in_coset", counted)
    by_degree = [autgroup.automorphism_elements(g) for g in cases]
    assert any(changed)
    monkeypatch.setattr(autgroup, "_by_degree", lambda g: list(range(g.n)))
    leaves = []
    first_leaf = autgroup._first_leaf

    def searched(*args):
        leaf = first_leaf(*args)
        if leaf is not None:
            leaves.append(leaf)
        return leaf

    monkeypatch.setattr(autgroup, "_first_leaf", searched)
    by_index = [autgroup.automorphism_elements(g) for g in cases]
    assert by_index == by_degree
    kept = {t for levels in by_index for reps in levels for t in reps}
    assert leaves and all(leaf in kept for leaf in leaves)


def test_orbits_match_closure_oracle():
    cases = [g for n in range(1, 7) for g in enumerate_graphs(n)]
    cases += mid_group_graphs().values()
    for g in cases:
        aut = automorphism_group(g)
        assert orbits(aut) == closure_orbits(aut), g


def test_orbits_read_only_the_levels():
    """orbits takes any degree, past maps_to's 256, and forms neither the
    products nor the maps_to table."""
    swap = tuple([299, *range(1, 299), 0])  # (0 299)
    assert orbits(PermGroup(300, levels=[[swap]])) == (
        frozenset({0, 299}),
        *(frozenset({v}) for v in range(1, 299)),
    )
    aut = automorphism_group(fam("complete", 8))
    assert orbits(aut) == (frozenset(range(8)),)
    assert "maps_to" not in aut.__dict__ and "images" not in aut.__dict__


def test_pointwise_subset_of_setwise():
    """The pointwise stabilizer of s lies in its setwise stabilizer, so
    when only the identity maps s onto itself, only the identity fixes each
    member of s: a distinguishing class is a determining set."""
    rng = random.Random(5)
    for _ in range(20):
        g = random_graph(rng, rng.randint(2, 7))
        aut = automorphism_group(g)
        for k in range(g.n + 1):
            for s in itertools.combinations(range(g.n), k):
                if is_distinguishing_class(aut, s):
                    assert is_determining_set(aut, s), (g, s)


def test_analysis_builds_no_perm_objects(monkeypatch):
    cases = [fam("hypercube", 5), fam("complete", 8), *mid_group_graphs().values()]
    for g in cases:
        aut = automorphism_group(g)
        analyze(g, aut=aut)
        assert "elements" not in vars(aut), g

    built = []

    def recorded(g, *args, **kwargs):
        built.append(automorphism_group(g, *args, **kwargs))
        return built[-1]

    monkeypatch.setattr(checks, "automorphism_group", recorded)
    monkeypatch.setattr(equivalence, "automorphism_group", recorded)
    scan_corpus(cases, ScanOptions())
    assert len(built) >= len(cases)
    assert not any("elements" in vars(aut) for aut in built)

    q4 = fam("hypercube", 4)
    q4b = permuted(q4, Perm(tuple(random.Random(0).sample(range(16), 16))))
    aut1, aut2 = automorphism_group(q4), automorphism_group(q4b)
    assert distinguishably_equivalent(q4, q4b, aut1=aut1, aut2=aut2) is not None
    assert "elements" not in vars(aut1) and "elements" not in vars(aut2)


def test_non_bijective_representative_is_rejected(monkeypatch):
    """P4's cells {0, 3} and {1, 2} are not twins, so its level 0 is
    searched; P3's cells {1} and {0, 2} are, and it searches nothing."""
    first_leaf = autgroup._first_leaf

    def broken(*args):
        leaf = first_leaf(*args)
        return None if leaf is None else (leaf[0],) * len(leaf)

    monkeypatch.setattr(autgroup, "_first_leaf", broken)
    with pytest.raises(ValueError, match="not a bijection"):
        automorphism_group(fam("path", 4))


def _linear_q5():
    """Q5 as the Cayley graph of Z2^5 with x ~ x XOR s for s in a basis other
    than the unit vectors: Q5 under a linear relabelling."""
    s = (18, 21, 25, 28, 29)
    return Graph.from_edges(32, [(x, x ^ d) for x in range(32) for d in s if x < x ^ d])


def test_linearly_relabelled_q5_and_latin_square_graphs_are_searched():
    """Before the search skipped the branches its automorphisms already
    reach, automorphism_group ran for over 10 minutes on the first graph
    without finishing, and took 61-96 ms on each of these relabellings of
    the Latin-square graph of Z6, SRG(36, 15, 6, 6), whose triangle counts
    are all equal."""
    q5 = fam("hypercube", 5)
    g = _linear_q5()
    sigma = isomorphism(q5, g)
    aut = automorphism_group(g)
    assert aut.order == 3840
    assert aut.image_set == conjugate_group(automorphism_group(q5), sigma).image_set
    latin = latin_square_graph(6)
    aut = automorphism_group(latin)
    assert aut.order == 432
    for seed in range(3):
        pi = Perm(tuple(random.Random(seed).sample(range(36), 36)))
        image = automorphism_group(permuted(latin, pi))
        assert image.image_set == conjugate_group(aut, pi).image_set, seed


def _branch_roots(monkeypatch) -> list:
    """The branches v -> w the search tries, as they happen: each as the
    bitmask of the images of 0..v-1 and of w."""
    roots = []
    first_leaf = autgroup._first_leaf

    def counted(*args):
        if args[-1] == 0:
            roots.append(args[-2])
        return first_leaf(*args)

    monkeypatch.setattr(autgroup, "_first_leaf", counted)
    return roots


def test_search_skips_the_branches_its_automorphisms_reach(monkeypatch):
    """Each level searches v -> w only for a w outside the orbit of v that
    the automorphisms already found reach: Q5, which has no twins, tries at
    most 8 branches (41 with every w of v's cell searched). K8 tries none:
    its one cell is a clique of twins at the root, and its levels are
    written in closed form (7 branches, one per level, before that)."""
    branches = _branch_roots(monkeypatch)
    assert automorphism_group(fam("hypercube", 5)).order == 3840
    assert 5 <= len(branches) <= 8
    branches.clear()
    assert automorphism_group(fam("complete", 8)).order == 40320
    assert branches == []


def _small_graphs_and_relabelled_complements():
    """Every graph on 1 to 6 vertices, then its complement under a seeded
    relabelling, whose twin cells are not runs of consecutive vertices."""
    rng = random.Random(0)
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            yield g
            yield permuted(complement(g), Perm(tuple(rng.sample(range(n), n))))


def test_twin_levels_match_the_brute_force_chain():
    """The levels written in closed form below the first partition of twin
    cells, and those searched above it, are the least coset elements of the
    group found by filtering all n! permutations."""
    cases = list(_small_graphs_and_relabelled_complements())
    assert len(cases) == 416
    for g in cases:
        want = PermGroup.from_images(g.n, brute_automorphisms(g)).levels
        assert automorphism_group(g).levels == want, g


def test_twin_cells_after_a_searched_level_and_at_the_root(monkeypatch):
    """K3,3 is one cell of vertices that are not twins; with 0
    individualized, the cells {1, 2} and {3, 4, 5} are, and only level 0
    is searched. K3 joined to 3K1 is a clique cell and an independent cell
    at the root."""
    roots = _branch_roots(monkeypatch)
    k33 = Graph.from_edges(6, [(u, w) for u in range(3) for w in range(3, 6)])
    aut = automorphism_group(k33)
    assert aut.order == 72 == len(brute_automorphisms(k33))
    # 0 -> 1 and 0 -> 3: the twin swaps take 1 on to 2, and 3 on to 4 and 5
    assert roots == [1 << 1, 1 << 3]
    assert [len(reps) for reps in aut.levels] == [5, 1, 0, 2, 1]
    roots.clear()
    edges = [(0, 1), (0, 2), (1, 2), *((u, w) for u in range(3) for w in range(3, 6))]
    joined = Graph.from_edges(6, edges)
    assert len(autgroup._unit_refined(joined, [])) == 2
    aut = automorphism_group(joined)
    assert aut.order == 36 == len(brute_automorphisms(joined))
    assert roots == []
    assert aut.levels == PermGroup.from_images(6, brute_automorphisms(joined)).levels


def test_cap_is_applied_from_the_twin_cell_sizes(monkeypatch):
    """The empty graph on 40 vertices is one independent twin cell, 40!
    elements: refused from the cell sizes, before any representative."""

    def formed(*args):
        raise AssertionError("a representative was formed")

    monkeypatch.setattr(autgroup, "_twin_levels", formed)
    with pytest.raises(GroupTooLargeError):
        automorphism_group(Graph(40, (0,) * 40))


def test_search_work_on_every_graph_on_at_most_seven_vertices(monkeypatch):
    """Work counters over the 1252 graphs on 1 to 7 vertices: vertices
    individualized (_individualized calls, for the identity path and for
    each branch) and branches tried. Before the path stopped at the first
    partition of twin cells, they were 4340 and 2200."""
    individualized = 0
    individualize = autgroup._individualized

    def counted(*args):
        nonlocal individualized
        individualized += 1
        return individualize(*args)

    monkeypatch.setattr(autgroup, "_individualized", counted)
    roots = _branch_roots(monkeypatch)
    corpus = [g for n in range(1, 7) for g in enumerate_graphs(n)]
    corpus += map(parse_graph6, GRAPHS7_FILE.read_text().split())
    assert len(corpus) == 1252
    for g in corpus:
        automorphism_group(g)
    assert (individualized, len(roots)) == (1128, 594)


def test_vertex_ceiling():
    with pytest.raises(UnsupportedSizeError):
        automorphism_group(Graph(41, (0,) * 41))


def test_element_cap(monkeypatch):
    monkeypatch.setattr(config, "MAX_AUT_ELEMENTS", 1000)
    with pytest.raises(GroupTooLargeError):
        automorphism_group(fam("complete", 8))
    monkeypatch.setattr(config, "MAX_AUT_ELEMENTS", 40320)
    assert automorphism_group(fam("complete", 8)).order == 40320
    monkeypatch.setattr(config, "MAX_AUT_ELEMENTS", 40319)
    with pytest.raises(GroupTooLargeError):
        automorphism_group(fam("complete", 8))
    monkeypatch.undo()
    # 10! elements: refused from the group's order alone, before any is formed
    with pytest.raises(GroupTooLargeError):
        automorphism_group(fam("complete", 10))


def test_relabelled_graph_has_conjugate_group():
    """Aut(pi(g)) = pi.Aut(g).pi^-1: the group the search builds does not
    depend on the labelling it walks."""
    rng = random.Random(3)
    for name, g in mid_group_graphs().items():
        aut = automorphism_group(g)
        if aut.order <= 384:
            validate_group(aut)
        for _ in range(3):
            pi = Perm(tuple(rng.sample(range(g.n), g.n)))
            image = automorphism_group(permuted(g, pi))
            assert image.image_set == conjugate_group(aut, pi).image_set, (name, pi)
            if image.order <= 384:
                validate_group(image)


def test_regular_and_relabelled_graphs_are_settled_by_refinement():
    """Graphs on which the (degree, neighbor degrees) filter prunes nothing.
    Without refinement each n = 40 graph took over 40 s, Q5's relabellings
    0.2-6.5 s against Q5's 0.04 s, and isomorphism 12-14 s on each cubic
    pair below (refining only the unit partitions does not change that)."""
    for seed in range(3):
        g = random_regular(random.Random(seed), 40, 4)
        assert automorphism_group(g).is_trivial, seed
    g, h = random_regular(random.Random(1), 24, 3), random_regular(random.Random(2), 24, 3)
    assert isomorphism(g, h) is None
    pi = Perm(tuple(random.Random(5).sample(range(24), 24)))
    assert isomorphism(g, permuted(g, pi)) == pi
    q5 = fam("hypercube", 5)
    aut = automorphism_group(q5)
    for seed in range(7):
        pi = Perm(tuple(random.Random(seed).sample(range(32), 32)))
        image = automorphism_group(permuted(q5, pi))
        assert image.image_set == conjugate_group(aut, pi).image_set, seed


def test_regular_graph_is_split_by_triangle_counts():
    g = two_diamonds()
    assert {row.bit_count() for row in g.adj} == {3}
    trace: list[int] = []
    cells = autgroup._unit_refined(g, trace)
    # one triangle through each of 2, 3, 6, 7, then two through the rest
    assert cells == [0b11001100, 0b00110011]
    assert trace == [-1, 2, 4, 4, 4]
    assert automorphism_group(g).order == 16 == len(brute_automorphisms(g))


def test_regular_and_non_regular_graphs_are_never_isomorphic():
    """A regular graph's trace starts with -1 and a non-regular one's with
    0, so isomorphism stops at the unit partitions, in either direction."""
    for seed in range(5):
        g = random_regular(random.Random(seed), 12, 3)
        v = (g.adj[0] & -g.adj[0]).bit_length() - 1
        far = ~g.adj[0] & ((1 << 12) - 2)
        w = (far & -far).bit_length() - 1
        adj = list(g.adj)  # the edge 0-v becomes 0-w: the same n and m
        adj[0] ^= 1 << v | 1 << w
        adj[v] ^= 1
        adj[w] ^= 1
        h = Graph(12, tuple(adj))
        assert sum(map(int.bit_count, h.adj)) == sum(map(int.bit_count, g.adj))
        assert len({row.bit_count() for row in h.adj}) > 1
        for a, b in ((g, h), (h, g)):
            trace: list[int] = []
            autgroup._unit_refined(a, trace)
            assert trace[0] == (-1 if a is g else 0)
            assert isomorphism(a, b) is None, seed


def test_rigid_cubic_graphs_are_discrete_at_the_root(monkeypatch):
    """Triangle counts settle every rigid one before any vertex is
    individualized, so its search plans no search order. A graph with
    automorphisms plans only its own, and none when its group is a product
    of twin swaps (seed 4)."""
    planned = []
    plan = autgroup._plan
    monkeypatch.setattr(
        autgroup, "_plan", lambda g, order: planned.append(g) or plan(g, order)
    )
    rigid = 0
    for seed in range(50):
        g = random_regular(random.Random(seed), 12, 3)
        planned.clear()
        if automorphism_group(g).is_trivial:
            rigid += 1
            assert len(autgroup._unit_refined(g, [])) == g.n, seed
            assert planned == [], seed
        else:
            assert all(h is g for h in planned), seed
    assert rigid >= 10


def test_automorphism_search_leaves_no_reference_cycles(monkeypatch):
    import gc

    gc.collect()
    gc.disable()
    try:
        assert automorphism_group(fam("complete", 6)).order == 720
        assert gc.collect() == 0
        monkeypatch.setattr(config, "MAX_AUT_ELEMENTS", 10)
        with pytest.raises(GroupTooLargeError):
            automorphism_group(fam("complete", 6))
        assert gc.collect() == 0
        q4 = fam("hypercube", 4)
        pi = Perm(tuple(random.Random(0).sample(range(16), 16)))
        assert isomorphism(q4, permuted(q4, pi)) is not None  # stops at its first leaf
        assert gc.collect() == 0
    finally:
        gc.enable()


def _digest_cases():
    """(label, graph): every graph on at most 7 vertices by graph6 string, then
    the mid groups, Q5, K8, K9, clique_with_tails(3) and two relabellings of Q5."""
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            yield encode_graph6(g), g
    for record in GRAPHS7_FILE.read_text().split():
        yield record, parse_graph6(record)
    yield from mid_group_graphs().items()
    q5 = fam("hypercube", 5)
    yield "Q5", q5
    yield "K8", fam("complete", 8)
    yield "K9", fam("complete", 9)
    yield "clique_with_tails(3)", clique_with_tails(3)
    for s in (0, 6):
        pi = Perm(tuple(random.Random(s).sample(range(32), 32)))
        yield f"Q5-relabelled-Random({s})", permuted(q5, pi)


def images_digest(aut: PermGroup) -> str:
    """SHA-256 over the group's sorted image tuples, one line per element."""
    text = "\n".join(",".join(map(str, t)) for t in sorted(aut.images))
    return hashlib.sha256(text.encode("ascii")).hexdigest()


# Captured with the (degree, sorted neighbour degrees) candidate filter,
# before the search was pruned by colour refinement: pruning removes only
# branches without a leaf, so every group is the same, element for element.
def test_groups_match_digest_golden():
    lines = (GOLDENS / "aut_digests.txt").read_text().splitlines()
    cases = list(_digest_cases())
    assert len(lines) == len(cases)
    for (label, g), line in zip(cases, lines):
        assert f"{label} {images_digest(automorphism_group(g))}" == line
