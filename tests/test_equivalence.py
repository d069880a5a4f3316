import random
import sys
from collections import Counter
from itertools import permutations
from math import factorial, prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graphs
from helpers import (
    brute_equivalent,
    brute_group,
    check_shared_distinguishing_number,
    closure_orbits,
    conjugate_group,
    from_cycles,
    inverse,
    mid_group_graphs,
    net_graph,
    preserves_adjacency,
    random_graph,
    scanned_orbit_heads,
)
from symbreak import equivalence
from symbreak.autgroup import automorphism_group, group_key, isomorphism
from symbreak.equivalence import (
    _conjugating_bijection,
    distinguishably_equivalent,
    equivalence_classes,
)
from symbreak.checks import ScanOptions, scan_corpus
from symbreak.cli import main
from symbreak.errors import BudgetExceededError, DegreeError, NotApplicableError
from symbreak.config import Budget
from symbreak.graphs import (
    FamilySpec,
    Graph,
    complement,
    encode_graph6,
    enumerate_graphs,
    generate_family,
    parse_graph6,
    permuted,
)
from symbreak.metrics import analyze, distinguishing_number
from symbreak.perms import Perm, PermGroup, cycle_type

GOLDENS = Path(__file__).resolve().parent / "goldens"


def fam(kind, p):
    return generate_family(FamilySpec(kind, p))


# -- equal representations: equal image sets ---------------------------------


def test_group_equals_itself():
    aut = automorphism_group(fam("cycle", 4))
    assert aut.image_set == aut.image_set


def test_aligned_order_two_groups_equal():
    # P3 reflected through vertex 1 vs an edge {0,2} plus isolated vertex 1:
    # both groups are exactly {e, (0 2)}
    p3 = fam("path", 3)
    edge02 = Graph.from_edges(3, [(0, 2)])
    assert automorphism_group(p3).image_set == automorphism_group(edge02).image_set


def test_different_orders_not_equal():
    assert (
        automorphism_group(fam("path", 3)).image_set
        != automorphism_group(fam("complete", 3)).image_set
    )


def test_label_switch_breaks_representation_equality():
    """Two copies of one order-2 group stop being equal element-for-element
    after exchanging two labels that the moved pair does not respect."""
    a = PermGroup.from_elements(4, [from_cycles(4, [(0, 1)])])
    sigma = from_cycles(4, [(1, 2)])  # switch labels 1 and 2
    b = conjugate_group(a, sigma)
    assert a.image_set != b.image_set
    assert a.image_set == conjugate_group(b, inverse(sigma)).image_set


# -- distinguishably_equivalent ----------------------------------------------


def test_same_graph_identity_bijection():
    g = net_graph()
    sigma = distinguishably_equivalent(g, g)
    assert sigma is not None and sigma.is_identity


def test_p3_equivalent_to_edge_plus_isolated():
    p3 = fam("path", 3)
    other = Graph.from_edges(3, [(0, 1)])
    sigma = distinguishably_equivalent(p3, other)
    assert sigma is not None
    assert brute_equivalent(p3, other) is not None


def test_p3_not_equivalent_to_triangle():
    assert distinguishably_equivalent(fam("path", 3), fam("complete", 3)) is None
    assert brute_equivalent(fam("path", 3), fam("complete", 3)) is None


def test_isomorphic_groups_need_not_be_equivalent():
    # K3 and the net graph both have groups abstractly isomorphic to the
    # symmetric group on three letters, but on different vertex counts
    k3 = fam("complete", 3)
    net = net_graph()
    assert automorphism_group(k3).order == automorphism_group(net).order == 6
    assert distinguishably_equivalent(k3, net) is None


def test_order_mismatch_rejected_fast():
    assert distinguishably_equivalent(fam("path", 4), fam("cycle", 4)) is None


def test_degree_mismatch_rejected():
    assert distinguishably_equivalent(fam("path", 3), fam("path", 4)) is None


@pytest.mark.parametrize("which", ["aut1", "aut2"])
def test_a_group_of_another_degree_is_rejected(which):
    p4, c4 = fam("path", 4), fam("cycle", 4)
    groups = {which: automorphism_group(fam("cycle", 5))}
    with pytest.raises(DegreeError, match="degree 5 given for a graph on 4"):
        distinguishably_equivalent(p4, c4, **groups)


def test_complement_always_equivalent():
    rng = random.Random(31)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 8))
        sigma = distinguishably_equivalent(g, complement(g))
        assert sigma is not None


def test_relabeled_graph_equivalent_with_verified_conjugation():
    rng = random.Random(17)
    for _ in range(30):
        n = rng.randint(1, 8)
        g = random_graph(rng, n)
        h = permuted(g, Perm(tuple(rng.sample(range(n), n))))
        sigma = distinguishably_equivalent(g, h)
        assert sigma is not None
        conj = conjugate_group(automorphism_group(g), sigma)
        assert conj.image_set == automorphism_group(h).image_set


@settings(max_examples=30)
@given(graphs(max_n=4), graphs(max_n=4))
def test_matches_brute_force_on_small_pairs(g1, g2):
    fast = distinguishably_equivalent(g1, g2)
    slow = brute_equivalent(g1, g2)
    assert (fast is None) == (slow is None)


def test_found_bijection_conjugates_exactly():
    g1 = fam("path", 3)
    g2 = Graph.from_edges(3, [(0, 1)])
    sigma = distinguishably_equivalent(g1, g2)
    a1 = automorphism_group(g1)
    a2 = automorphism_group(g2)
    assert conjugate_group(a1, sigma).image_set == a2.image_set
    # consequences: equal orders and matching cycle-type multisets
    assert a1.order == a2.order
    assert sorted(cycle_type(p) for p in a1.elements) == sorted(
        cycle_type(p) for p in a2.elements
    )


def test_equivalent_graphs_share_distinguishing_number():
    rng = random.Random(23)
    for _ in range(20):
        g = random_graph(rng, rng.randint(1, 7))
        h = complement(g)
        assert distinguishing_number(g)[0] == distinguishing_number(h)[0]


def test_relation_is_symmetric_and_transitive_by_conjugation():
    g = fam("path", 3)
    h = Graph.from_edges(3, [(0, 1)])
    sigma = distinguishably_equivalent(g, h)
    back = distinguishably_equivalent(h, g)
    assert back is not None
    assert (
        conjugate_group(automorphism_group(h), inverse(sigma)).image_set
        == automorphism_group(g).image_set
    )


def test_vertex_transitive_group_above_old_list_limit_settles():
    """Q5 (|Aut| = 3840) against a relabelled Q5 settles within 1000 nodes,
    and the bijection found conjugates the one group onto the other."""
    g = fam("hypercube", 5)
    pi = Perm(tuple(random.Random(0).sample(range(32), 32)))
    h = permuted(g, pi)
    a = automorphism_group(g)
    # Aut(h) is pi.Aut(g).pi^-1: the automorphism search on this relabelling
    # of Q5 takes tens of seconds, and is not what this test is about
    b = conjugate_group(a, pi)
    assert all(preserves_adjacency(h, p) for p in b.elements[::64])
    sigma = distinguishably_equivalent(
        g, h, Budget(equivalence_nodes=1000), aut1=a, aut2=b
    )
    assert sigma is not None
    assert conjugate_group(a, sigma).image_set == b.image_set


def test_bijection_conjugates_cyclic_groups_exactly():
    """A cyclic group on up to 8 points against its image under a relabelling.
    In the first case, a search that tests each point pair (u, a(u)) of a
    generator a only when a(u) is mapped before u accepts a wrong bijection."""
    rng = random.Random(0)
    cases = [((2, 7, 0, 4, 1, 6, 3, 5), (2, 5, 0, 7, 1, 4, 3, 6))]
    for _ in range(300):
        n = rng.randint(3, 8)
        cases.append((tuple(rng.sample(range(n), n)), tuple(rng.sample(range(n), n))))
    for a, pi in cases:
        powers, x = [], a
        while x not in powers:
            powers.append(x)
            x = tuple(a[v] for v in x)
        group = PermGroup.from_elements(len(a), map(Perm, powers))
        image = conjugate_group(group, Perm(pi))
        sigma = _conjugating_bijection(group, image, Budget())
        assert conjugate_group(group, sigma).image_set == image.image_set, (a, pi)


def _complement_pairs():
    """Each graph on at most 6 vertices, then each mid-group graph, against
    its complement relabelled by one seeded stream."""
    rng = random.Random(0)
    graphs = [g for n in range(1, 7) for g in enumerate_graphs(n)]
    for g in graphs + list(mid_group_graphs().values()):
        images = list(range(g.n))
        rng.shuffle(images)
        yield g, permuted(complement(g), Perm(tuple(images)))


# Per pair, both graph6 strings, the bijection found and the smallest
# equivalence_nodes budget at which the search settles. The bijections were
# captured before the search conjugated only a generating set of the first
# group, the budgets since a pair of groups that are the symmetric group on
# each of their orbits settles before the search, at 0.
def test_bijection_node_counts_match_golden():
    lines = (GOLDENS / "equivalence_nodes.txt").read_text().splitlines()
    pairs = list(_complement_pairs())
    assert len(lines) == len(pairs)
    for (g, h), line in zip(pairs, lines):
        g6, h6, sigma, nodes = line.split()
        assert (encode_graph6(g), encode_graph6(h)) == (g6, h6)
        a, b = automorphism_group(g), automorphism_group(h)
        nodes = int(nodes)
        found = distinguishably_equivalent(
            g, h, Budget(equivalence_nodes=nodes), aut1=a, aut2=b
        )
        assert found.images == tuple(map(int, sigma.split(","))), line
        if nodes:  # an orbit-symmetric group settles before the search
            with pytest.raises(BudgetExceededError):
                distinguishably_equivalent(
                    g, h, Budget(equivalence_nodes=nodes - 1), aut1=a, aut2=b
                )


def test_orbit_heads_match_the_orbit_scan(monkeypatch):
    """Over the 215 pairs of the node-count golden, every head _orbit_heads
    yields is the next one found by forming each orbit
    (scanned_orbit_heads), and a call run to the end yields them all. used is restored before a paused call resumes, so the
    oracle's list is formed when the call is made."""
    calls = Counter()
    heads = equivalence._orbit_heads

    def checked(B, fix, size, used):
        want = scanned_orbit_heads(B, fix, size, used)
        calls[size == 1] += 1
        got = 0
        for x in heads(B, fix, size, used):
            assert x == want[got], (size, want, got)
            got += 1
            yield x
        assert got == len(want), (size, want)

    monkeypatch.setattr(equivalence, "_orbit_heads", checked)
    for g, h in _complement_pairs():
        assert distinguishably_equivalent(g, h) is not None, (g, h)
    assert calls[True] > 0 and calls[False] > 0, calls


def test_budget_exceeded_raised():
    g = fam("cycle", 6)
    h = permuted(g, Perm((3, 1, 4, 5, 0, 2)))
    with pytest.raises(BudgetExceededError):
        distinguishably_equivalent(g, h, Budget(equivalence_nodes=1))


# -- equivalence_classes -------------------------------------------------


def test_classes_on_three_vertex_graphs():
    all3 = list(enumerate_graphs(3))
    partition, unresolved = equivalence_classes(all3)
    assert not unresolved
    named = [
        {all3[i].edge_count for i in cls} for cls in partition
    ]
    # {empty, K3} have orders 6; {one edge, P3} have orders 2
    assert sorted(len(cls) for cls in partition) == [2, 2]
    assert {0, 3} in named and {1, 2} in named


def test_single_graph_corpus():
    partition, unresolved = equivalence_classes([net_graph()])
    assert partition == [[0]] and not unresolved


def test_asymmetric_graphs_all_one_class():
    asym = [g for g in enumerate_graphs(6) if automorphism_group(g).is_trivial]
    assert len(asym) >= 2
    partition, unresolved = equivalence_classes(asym[:4])
    assert len(partition) == 1 and not unresolved


def with_complements(base, seed):
    """base, then each graph's complement on the same labels, then each
    complement under a seeded relabelling."""
    rng = random.Random(seed)
    relabelled = [
        permuted(complement(g), Perm(tuple(rng.sample(range(g.n), g.n)))) for g in base
    ]
    return base + [complement(g) for g in base] + relabelled


def brute_partition(graphs):
    """Classes by brute-force conjugation against one member per class of
    equal n and group order, in input order."""
    classes = []
    for i, g in enumerate(graphs):
        order = brute_group(g).order
        for cls in classes:
            rep = graphs[cls[0]]
            if (rep.n, cls[1]) == (g.n, order) and brute_equivalent(rep, g) is not None:
                cls[2].append(i)
                break
        else:
            classes.append((i, order, [i]))
    return [cls[2] for cls in classes]


def test_classes_join_a_known_group_without_a_search(monkeypatch):
    import symbreak.equivalence as equivalence

    graphs = with_complements([g for n in range(1, 6) for g in enumerate_graphs(n)], seed=5)
    started = []  # graphs whose group was built, in order
    searched = []  # per search, the index of the graph being placed
    real_group = equivalence.automorphism_group
    real_search = equivalence._conjugating_bijection

    def group(g, *args, **kwargs):
        started.append(g)
        return real_group(g, *args, **kwargs)

    def search(*args, **kwargs):
        searched.append(len(started) - 1)
        return real_search(*args, **kwargs)

    monkeypatch.setattr(equivalence, "automorphism_group", group)
    monkeypatch.setattr(equivalence, "_conjugating_bijection", search)
    partition, unresolved = equivalence_classes(graphs)
    assert unresolved == []
    assert partition == brute_partition(graphs)

    keys = [automorphism_group(g).images for g in graphs]
    repeated = {i for i, key in enumerate(keys) if key in keys[:i]}
    assert len(repeated) >= len(graphs) // 3  # every same-label complement
    assert searched and not repeated & set(searched)


def conjugacy_key(aut: PermGroup) -> tuple:
    """The least sorted image set of sigma.aut.sigma^-1 over all n!
    bijections sigma: equal exactly for groups conjugate in S_n."""
    return min(
        tuple(sorted(conjugate_group(aut, Perm(sigma)).images))
        for sigma in permutations(range(aut.degree))
    )


def test_classes_match_conjugacy_by_every_bijection():
    """Every graph on at most 5 vertices and a seeded relabelled complement of
    each: the classes are those of equal conjugacy_key, which knows nothing
    of representatives, signatures or search order."""
    rng = random.Random(9)
    base = [g for n in range(1, 6) for g in enumerate_graphs(n)]
    graphs = base + [
        permuted(complement(g), Perm(tuple(rng.sample(range(g.n), g.n)))) for g in base
    ]
    keys: dict[tuple, tuple] = {}  # aut.images -> its conjugacy_key
    by_key: dict[tuple, list[int]] = {}
    for i, g in enumerate(graphs):
        aut = automorphism_group(g)
        if aut.images not in keys:
            keys[aut.images] = conjugacy_key(aut)
        by_key.setdefault((g.n, keys[aut.images]), []).append(i)
    partition, unresolved = equivalence_classes(graphs)
    assert unresolved == []
    assert partition == list(by_key.values())


def orbit_symmetric(aut: PermGroup) -> bool:
    """Whether aut is the symmetric group on each of its orbits, by the
    closure oracle's orbits."""
    return aut.order == prod(factorial(len(o)) for o in closure_orbits(aut))


def test_unresolved_pairs_follow_class_creation_order():
    """Under a budget of one node every search that needs a second node is
    unresolved, and the graph goes on to the next class with its key. The
    pairs below were captured before classes were looked up by key, when
    each graph scanned every class in creation order. A pair of
    orbit-symmetric groups settles with no search node, and such a group
    is tried only against groups of its orbit sizes, so only the pairs in
    which neither group is orbit-symmetric stay unresolved."""
    rng = random.Random(3)
    base = [g for n in range(1, 5) for g in enumerate_graphs(n)]
    graphs = base + [
        permuted(complement(g), Perm(tuple(rng.sample(range(g.n), g.n)))) for g in base
    ]
    partition, unresolved = equivalence_classes(graphs, Budget.uniform(1))
    captured = [
        (4, 5), (10, 11), (12, 15), (4, 22), (5, 22), (8, 26),
        (10, 29), (11, 29), (13, 31), (9, 32), (8, 34), (26, 34),
    ]
    symmetric = [orbit_symmetric(automorphism_group(g)) for g in graphs]
    assert unresolved == [(i, j) for i, j in captured if not (symmetric[i] or symmetric[j])]
    assert partition == [
        [0, 18], [1, 2, 19, 20], [3, 6, 21, 24], [4, 5, 22, 23], [7, 17, 25, 35],
        [8, 16, 26, 34], [9, 14, 27, 32], [10, 11, 28, 29], [12], [13],
        [15, 30, 33], [31],
    ]


def test_a_known_group_joins_its_class_under_any_budget():
    c = fam("cycle", 6)
    relabelled = permuted(c, Perm((3, 1, 4, 5, 0, 2)))
    partition, unresolved = equivalence_classes(
        [c, complement(c), relabelled], Budget.uniform(1)
    )
    # the complement shares C6's group; the relabelled copy needs a search
    assert partition == [[0, 1], [2]] and unresolved == [(0, 2)]


@pytest.fixture
def searched(monkeypatch):
    """The arguments of every _conjugating_bijection call that
    equivalence_classes makes."""
    import symbreak.equivalence as equivalence

    calls = []
    real_search = equivalence._conjugating_bijection

    def search(*args, **kwargs):
        calls.append(args)
        return real_search(*args, **kwargs)

    monkeypatch.setattr(equivalence, "_conjugating_bijection", search)
    return calls


def test_equal_order_groups_split_by_orbit_sizes(searched):
    """P4 and the paw both have n = 4 and |Aut| = 2, but <(0 3)(1 2)> and
    <(0 1)> are not conjugate. Their orbit sizes differ, so the paw starts
    its own class without being tried against P4."""
    p4 = fam("path", 4)
    paw = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    a, b = automorphism_group(p4), automorphism_group(paw)
    assert a.order == b.order == 2
    assert not orbit_symmetric(a) and orbit_symmetric(b)
    assert equivalence_classes([p4, paw]) == ([[0], [1]], [])
    assert searched == []
    assert distinguishably_equivalent(p4, paw) is None


def complete_multipartite(sizes) -> Graph:
    """Every edge between two of the consecutive parts of the given sizes."""
    part = [i for i, size in enumerate(sizes) for _ in range(size)]
    n = len(part)
    return Graph.from_edges(n, [(u, v) for v in range(n) for u in range(v) if part[u] != part[v]])


def test_orbit_symmetric_groups_join_by_orbit_sizes_without_a_search(monkeypatch):
    """Complete multipartite graphs and disjoint unions of cliques with parts
    of distinct sizes have Sym(part) on each part as their group, so seeded
    relabellings of those with equal part sizes form one class. Each pair
    settles with no search node, so none is unresolved under a budget of
    zero nodes, and no group forms its products, maps_to or cycle index."""
    import symbreak.equivalence as equivalence

    rng = random.Random(11)
    graphs = []
    for sizes in [(1, 2, 4), (3, 5), (2, 4, 1)]:
        multipartite = complete_multipartite(sizes)
        for g in (multipartite, complement(multipartite)):  # the cliques on the parts
            for _ in range(3):
                graphs.append(permuted(g, Perm(tuple(rng.sample(range(g.n), g.n)))))
    groups = []  # every group built, in order
    real_group = equivalence.automorphism_group

    def group(g):
        groups.append(real_group(g))
        return groups[-1]

    monkeypatch.setattr(equivalence, "automorphism_group", group)
    partition, unresolved = equivalence_classes(graphs, Budget(equivalence_nodes=0))
    assert unresolved == []
    assert partition == [[*range(6), *range(12, 18)], list(range(6, 12))]
    assert len(groups) == len(graphs) and len({group_key(a) for a in groups}) > 2
    formed = {"images", "maps_to", "cycle_profile"}
    assert all(formed.isdisjoint(a.__dict__) for a in groups)


def test_empty_graphs_and_a_single_vertex():
    """The trivial groups on 0 and on 1 vertices are orbit-symmetric and are
    not conjugate."""
    empty = Graph(0, ())
    assert equivalence_classes([empty, empty, Graph(1, (0,))]) == ([[0, 1], [2]], [])


def test_isomorphic_graphs_are_equivalent():
    rng = random.Random(41)
    for _ in range(10):
        n = rng.randint(2, 7)
        g = random_graph(rng, n)
        h = permuted(g, Perm(tuple(rng.sample(range(n), n))))
        assert isomorphism(g, h) is not None
        assert distinguishably_equivalent(g, h) is not None


# -- isomorphism -------------------------------------------------------------


def test_isomorphism_finds_correct_mapping():
    rng = random.Random(43)
    for _ in range(20):
        n = rng.randint(1, 8)
        g = random_graph(rng, n)
        per = Perm(tuple(rng.sample(range(n), n)))
        h = permuted(g, per)
        found = isomorphism(g, h)
        assert found is not None
        assert permuted(g, found) == h


def test_isomorphism_distinguishes_non_isomorphic():
    assert isomorphism(fam("path", 4), Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])) is None


def test_isomorphism_on_different_orders_and_empty_graphs():
    assert isomorphism(fam("path", 3), fam("path", 4)) is None
    assert isomorphism(Graph(0, ()), Graph(0, ())) == Perm(())


def _isomorphism_pairs():
    """Each graph on at most 6 vertices against itself (the same object), a
    relabelling drawn from one seeded stream, and its complement."""
    rng = random.Random(0)
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            yield g, g
            yield g, permuted(g, Perm(tuple(rng.sample(range(n), n))))
            yield g, complement(g)


# Captured before automorphism groups were built from coset representatives:
# per pair, both graph6 strings and the first bijection found, or None.
def test_isomorphism_matches_first_leaf_golden():
    lines = (GOLDENS / "isomorphism_first_leaf.txt").read_text().splitlines()
    pairs = list(_isomorphism_pairs())
    assert len(lines) == len(pairs)
    for (g, h), line in zip(pairs, lines):
        found = isomorphism(g, h)
        sigma = "None" if found is None else ",".join(map(str, found.images))
        assert f"{encode_graph6(g)} {encode_graph6(h)} {sigma}" == line


# -- each group is searched once ---------------------------------------------


@pytest.fixture
def aut_calls(monkeypatch):
    """Graphs handed to automorphism_group through any package module."""
    calls = []

    def counted(g, *args, **kwargs):
        calls.append(g)
        return automorphism_group(g, *args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.partition(".")[0] == "symbreak":
            if getattr(mod, "automorphism_group", None) is automorphism_group:
                monkeypatch.setattr(mod, "automorphism_group", counted)
    return calls


def test_equiv_command_searches_each_group_once(aut_calls, tmp_path, capsys):
    path = tmp_path / "pair.g6"
    path.write_text("Bg\nBw\n")
    assert main(["equiv", str(path)]) == 0
    assert capsys.readouterr().out == "not-equivalent aut-order 2 != 6\n"
    assert len(aut_calls) == 2


def test_shared_d_searches_each_group_once(aut_calls):
    g = fam("path", 4)
    with pytest.raises(NotApplicableError):
        check_shared_distinguishing_number(g, fam("path", 5))
    assert aut_calls == []
    assert check_shared_distinguishing_number(g, complement(g))
    assert len(aut_calls) == 2


def test_equivalence_reuses_given_groups(aut_calls):
    g, h = fam("path", 4), complement(fam("path", 4))
    a, b = automorphism_group(g), automorphism_group(h)
    assert distinguishably_equivalent(g, h, aut1=a, aut2=b) is not None
    assert aut_calls == []
    assert distinguishably_equivalent(g, fam("cycle", 4), aut1=a) is None
    assert len(aut_calls) == 1


def test_scan_searches_a_compared_representative_once(aut_calls, graphs7_path):
    graphs = [parse_graph6(record) for record in graphs7_path.read_text().split()]
    report = scan_corpus(graphs, ScanOptions())
    assert report.same_order_nonequivalent == ("F???W", "F??G_")
    # one search per graph: the evidence compares the groups the scan has
    assert len(aut_calls) == len(graphs)


def test_scan_of_the_rigid_graphs_searches_each_group_once(aut_calls):
    """No two of the 152 rigid graphs on 7 vertices give evidence, so every
    record after the first is compared with the first; each comparison takes
    both groups from the scan."""
    rigid = [g for g in enumerate_graphs(7) if automorphism_group(g).order == 1]
    assert len(rigid) == 152
    report = scan_corpus(rigid)
    assert len(aut_calls) == 152
    assert report.summary_obj() == {
        "analyzed": 152,
        "corpus_size": 152,
        "det2_d2_count": 0,
        "max_rho_per_det": {"0": 0},
        "rho4_witnesses": [],
        "rho_histogram": {},
        "rule_checks": 0,
        "same_order_nonequivalent": None,
        "skipped": [],
        "violations": [],
    }
    assert report.graph_reports == tuple(analyze(g) for g in rigid)


def test_bijection_search_leaves_no_reference_cycles():
    """C6 and its complement share a dihedral group of order 12, which is
    not the symmetric group on its orbit, so both calls run the search."""
    import gc

    c = fam("cycle", 6)
    d = complement(c)
    c_aut, d_aut = automorphism_group(c), automorphism_group(d)
    gc.collect()
    gc.disable()
    try:
        assert distinguishably_equivalent(c, d, aut1=c_aut, aut2=d_aut) is not None
        assert gc.collect() == 0
        with pytest.raises(BudgetExceededError):
            distinguishably_equivalent(c, d, Budget.uniform(1), aut1=c_aut, aut2=d_aut)
        assert gc.collect() == 0
    finally:
        gc.enable()
