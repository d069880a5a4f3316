import json
import random
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graphs
from helpers import (
    ElementList,
    brute_cost_number,
    brute_determining_number,
    brute_distinguishing_number,
    conjugate_group,
    disjoint_cliques,
    first_subsets,
    from_cycles,
    is_connected,
    mid_group_graphs,
    net_graph,
    per_element_is_determining_set,
    per_element_is_distinguishing,
    per_element_is_distinguishing_class,
)
from symbreak.autgroup import automorphism_group
from symbreak.config import Budget
from symbreak.errors import BudgetExceededError, DegreeError
from symbreak.graphs import (
    FamilySpec,
    Graph,
    clique_with_tails,
    enumerate_graphs,
    generate_family,
    parse_graph6,
)
from symbreak.metrics import (
    UNKNOWN,
    Coloring,
    _SubsetScan,
    analyze,
    cost_number,
    determining_number,
    distinguishing_number,
    is_determining_set,
    is_distinguishing,
    is_distinguishing_class,
)
from symbreak.perms import Perm, PermGroup


GOLDENS = Path(__file__).resolve().parent / "goldens"


def fam(kind, p):
    return generate_family(FamilySpec(kind, p))


# only the identity preserves it
RIGID6 = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (1, 3), (1, 4)])


# -- breaking ----------------------------------------------------------------


def test_is_distinguishing_goldens():
    """On the group {e, p}, a coloring is distinguishing iff it breaks p:
    some cycle of p carries two distinct colors."""

    def with_identity(p):
        return PermGroup.from_images(p.degree, [p.images])

    c = Coloring((0, 0, 0, 1), 2)
    assert is_distinguishing(with_identity(from_cycles(4, [(0, 1), (2, 3)])), c)
    mono = Coloring((0, 0), 1)
    assert not is_distinguishing(with_identity(from_cycles(2, [(0, 1)])), mono)
    assert is_distinguishing(with_identity(Perm.identity(3)), Coloring((0, 1, 2), 3))


def test_is_distinguishing_degree_mismatch():
    with pytest.raises(DegreeError):
        is_distinguishing(automorphism_group(fam("path", 3)), Coloring((0, 0), 1))


@given(graphs(max_n=7), st.randoms(use_true_random=False))
def test_breaking_is_relabeling_invariant(g, rnd):
    """Applying one relabeling to both the group and the coloring cannot
    change whether every non-identity element is broken."""
    aut = automorphism_group(g)
    colors = tuple(rnd.randrange(2) for _ in range(g.n))
    c = Coloring(colors, 2)
    sigma = Perm(tuple(rnd.sample(range(g.n), g.n)))
    aut_relab = conjugate_group(aut, sigma)
    relab_colors = [0] * g.n
    for v in range(g.n):
        relab_colors[sigma.images[v]] = colors[v]
    c_relab = Coloring(tuple(relab_colors), 2)
    assert is_distinguishing(aut, c) == is_distinguishing(aut_relab, c_relab)


@given(graphs(max_n=7), st.integers(0, 2**14))
def test_distinguishing_equals_no_preserver(g, seed):
    """Breaking every non-identity element is the same as no non-identity
    element preserving the coloring."""
    rng = random.Random(seed)
    k = rng.choice((2, 3))
    c = Coloring(tuple(rng.randrange(k) for _ in range(g.n)), k)
    aut = automorphism_group(g)
    direct = all(
        any(c.colors[img] != c.colors[v] for v, img in enumerate(p.images))
        for p in aut.elements
        if not p.is_identity
    )
    assert is_distinguishing(aut, c) == direct


@st.composite
def element_lists(draw):
    """A hand-built ElementList of degree <= 6 whose elements need not form a
    group: some repeat an element, some lack the identity."""
    n = draw(st.integers(0, 6))
    count = draw(st.integers(1, 5))
    perms = [Perm(tuple(draw(st.permutations(range(n))))) for _ in range(count)]
    perms += draw(st.lists(st.sampled_from(perms), max_size=2))
    if draw(st.booleans()):
        perms.append(Perm.identity(n))
    return ElementList(n, (p.images for p in draw(st.permutations(perms))))


@settings(max_examples=200)
@given(element_lists(), st.data())
def test_predicates_match_per_element_definitions(aut, data):
    n = aut.degree
    s = data.draw(st.sets(st.integers(0, n - 1)) if n else st.just(set()))
    k = data.draw(st.integers(1, 3))
    colors = data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    c = Coloring(tuple(colors), k)
    assert is_determining_set(aut, s) == per_element_is_determining_set(aut, s)
    assert is_distinguishing_class(aut, s) == (
        per_element_is_distinguishing_class(aut, s)
    )
    assert is_distinguishing(aut, c) == per_element_is_distinguishing(aut, c.colors)


# -- D -----------------------------------------------------------------------


def test_distinguishing_number_goldens():
    assert distinguishing_number(fam("cycle", 5))[0] == 3
    assert distinguishing_number(fam("cycle", 4))[0] == 3
    assert distinguishing_number(fam("complete", 3))[0] == 3
    assert distinguishing_number(net_graph())[0] == 2
    for n in (2, 3, 4, 5, 6):
        assert distinguishing_number(fam("complete", n))[0] == n
    for n in range(2, 13):
        assert distinguishing_number(fam("path", n))[0] == 2


def test_distinguishing_witness_passes():
    for g in (fam("cycle", 5), fam("complete", 4), net_graph(), fam("path", 6)):
        d, witness = distinguishing_number(g)
        assert witness.k == d
        assert is_distinguishing(automorphism_group(g), witness)


def test_endpoint_coloring_distinguishes_path():
    p4 = fam("path", 4)
    aut = automorphism_group(p4)
    assert is_distinguishing(aut, Coloring.from_class(4, {0}))


def test_no_two_coloring_distinguishes_c4():
    c4 = fam("cycle", 4)
    aut = automorphism_group(c4)
    for code in range(16):
        c = Coloring(tuple(code >> v & 1 for v in range(4)), 2)
        assert not is_distinguishing(aut, c)


def test_two_red_one_blue_triangle_fails():
    aut = automorphism_group(fam("complete", 3))
    assert not is_distinguishing(aut, Coloring((0, 0, 1), 2))


@settings(max_examples=30)
@given(graphs(max_n=5))
def test_distinguishing_number_matches_brute_force(g):
    assert distinguishing_number(g)[0] == brute_distinguishing_number(g)


# -- determining sets ----------------------------------------------------


def test_is_determining_set_examples():
    p4 = automorphism_group(fam("path", 4))
    assert is_determining_set(p4, {0})
    c4 = automorphism_group(fam("cycle", 4))
    assert not is_determining_set(c4, {0})
    k3 = automorphism_group(fam("complete", 3))
    assert is_determining_set(k3, {0, 1})


@pytest.mark.parametrize("predicate", [is_determining_set, is_distinguishing_class])
@pytest.mark.parametrize("g", [fam("path", 3), RIGID6])
def test_vertex_outside_range_is_rejected(predicate, g):
    aut = automorphism_group(g)
    assert aut.is_trivial == (g is RIGID6)
    for v in (-1, g.n):
        with pytest.raises(IndexError, match=f"vertex {v} out of range for n={g.n}"):
            predicate(aut, {0, v})
        with pytest.raises(IndexError, match=f"vertex {v} out of range for n={g.n}"):
            predicate(aut, {v})


@pytest.mark.parametrize("v", [5, -1])
def test_coloring_from_class_rejects_a_vertex_outside_the_graph(v):
    with pytest.raises(IndexError, match=f"vertex {v} out of range for n=3"):
        Coloring.from_class(3, {v})
    assert Coloring.from_class(3, {0, 2}) == Coloring((1, 0, 1), 2)


def test_determining_number_goldens():
    asym = RIGID6
    if automorphism_group(asym).is_trivial:
        assert determining_number(asym) == (0, frozenset())
    assert determining_number(clique_with_tails(2))[0] == 3
    assert determining_number(net_graph())[0] == 2


def test_determining_witness_passes():
    for g in (fam("cycle", 5), clique_with_tails(2), net_graph()):
        det, witness = determining_number(g)
        aut = automorphism_group(g)
        assert is_determining_set(aut, witness)
        assert len(witness) == det
        for smaller in combinations(sorted(witness), det - 1):
            assert not is_determining_set(aut, smaller)


@settings(max_examples=30)
@given(graphs(max_n=5))
def test_determining_number_matches_brute_force(g):
    assert determining_number(g)[0] == brute_determining_number(g)


# -- distinguishing classes and cost ------------------------------------


def test_is_distinguishing_class_examples():
    p4 = automorphism_group(fam("path", 4))
    assert is_distinguishing_class(p4, {0})
    c4 = automorphism_group(fam("cycle", 4))
    for k in range(5):
        for s in combinations(range(4), k):
            assert not is_distinguishing_class(c4, s)
    kt2 = automorphism_group(clique_with_tails(2))
    assert is_distinguishing_class(kt2, {2, 3, 5, 7})


def test_class_equals_two_coloring_route_exhaustively():
    from symbreak.graphs import enumerate_graphs

    for n in range(1, 6):
        for g in enumerate_graphs(n):
            aut = automorphism_group(g)
            for k in range(n + 1):
                for s in combinations(range(n), k):
                    direct = is_distinguishing_class(aut, s)
                    via_coloring = is_distinguishing(
                        aut, Coloring.from_class(n, s)
                    )
                    assert direct == via_coloring, (g, s)
                    # the per-element definitions are the oracle
                    assert direct == per_element_is_distinguishing_class(aut, s), (g, s)
                    assert is_determining_set(aut, s) == (
                        per_element_is_determining_set(aut, s)
                    ), (g, s)


def test_class_coloring_equality_sampled_larger_graphs(graphs7_path):
    """The two formulations of a distinguishing class agree on sampled
    subsets of 6- and 7-vertex graphs (exhaustive coverage at n <= 5 lives
    in the acceptance suite)."""
    from symbreak.graphs import enumerate_graphs, parse_graph6

    rng = random.Random(2025)
    pool = list(enumerate_graphs(6))
    with graphs7_path.open() as fh:
        lines = [line.strip() for line in fh if line.strip()]
    pool += [parse_graph6(line) for line in rng.sample(lines, 25)]
    for g in rng.sample(pool, 40):
        aut = automorphism_group(g)
        for _ in range(5):
            s = tuple(sorted(rng.sample(range(g.n), rng.randint(0, g.n))))
            assert is_distinguishing_class(aut, s) == is_distinguishing(
                aut, Coloring.from_class(g.n, s)
            )


def test_cost_number_goldens():
    for n in range(2, 9):
        assert cost_number(fam("path", n))[0] == 1
    assert cost_number(clique_with_tails(2))[0] == 4
    assert cost_number(fam("cycle", 4)) is None
    assert cost_number(fam("cycle", 5)) is None


def test_cost_witness_passes_and_bounds():
    for g in (fam("path", 7), clique_with_tails(2), net_graph()):
        rho, witness = cost_number(g)
        aut = automorphism_group(g)
        assert is_distinguishing_class(aut, witness)
        assert len(witness) == rho
        assert determining_number(g)[0] <= rho


@settings(max_examples=30)
@given(graphs(max_n=5))
def test_cost_number_matches_brute_force(g):
    got = cost_number(g)
    want = brute_cost_number(g)
    assert (got[0] if got else None) == want


# -- analyze -----------------------------------------------------------------


def test_analyze_c5():
    rep = analyze(fam("cycle", 5))
    assert (rep.aut_order, rep.d, rep.det, rep.rho) == (10, 3, 2, None)
    assert not rep.det2_d2_case and rep.rho_in_2_4 is None


def test_analyze_clique_with_tails_2():
    rep = analyze(clique_with_tails(2))
    assert (rep.aut_order, rep.d, rep.det, rep.rho) == (24, 2, 3, 4)
    assert not rep.det2_d2_case  # Det is 3 here
    assert rep.rho_in_2_4 is None


def test_analyze_single_vertex():
    rep = analyze(Graph(1, (0,)))
    assert (rep.aut_order, rep.d, rep.det, rep.rho) == (1, 1, 0, 0)
    assert rep.degenerate


def test_analyze_det2_d2_example():
    c5e = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 2)])
    rep = analyze(c5e)
    if rep.det2_d2_case:
        assert rep.rho_in_2_4 is True


@settings(max_examples=40)
@given(graphs(max_n=7))
def test_analyze_report_consistency(g):
    rep = analyze(g)
    aut = automorphism_group(g)
    assert rep.aut_order == aut.order
    if isinstance(rep.rho, int):
        assert rep.det <= rep.rho
        assert is_distinguishing_class(aut, rep.rho_witness)
        assert len(rep.rho_witness) == rep.rho
    if rep.det_witness is not None:
        assert is_determining_set(aut, rep.det_witness)
    if rep.d_witness is not None:
        assert is_distinguishing(aut, rep.d_witness)
    if rep.det2_d2_case:
        assert rep.rho_in_2_4 is True


def test_analyze_det_matches_det_only_walk():
    corpus = [Graph(0, ())] + [g for n in range(1, 7) for g in enumerate_graphs(n)]
    for g in corpus:
        aut = automorphism_group(g)
        rep = analyze(g, aut=aut)
        assert (rep.det, rep.det_witness) == determining_number(g, aut=aut)
        cost = cost_number(g, aut=aut)
        assert (rep.rho, rep.rho_witness) == (cost if cost is not None else (None, None))


def test_report_line_golden():
    line = analyze(fam("cycle", 5)).to_line()
    assert line == (
        "Dhc n=5 m=5 aut=10 D=3 Det=2 rho=- det2_d2=0 rho_in_2_4=- "
        "det_set=0,1 rho_class=- degenerate=0"
    )


def test_report_json_round_trips():
    obj = analyze(net_graph()).to_obj()
    parsed = json.loads(json.dumps(obj))
    assert parsed["D"] == 2 and parsed["Det"] == 2
    assert parsed["det2_d2"] is True
    assert parsed["rho_in_2_4"] is True


def test_budget_exhaustion_marks_unknown():
    g = fam("cycle", 8)
    rep = analyze(g, Budget(subset_tests=2, coloring_nodes=10))
    assert rep.d is UNKNOWN or isinstance(rep.d, int)
    assert rep.det is UNKNOWN
    assert rep.rho is UNKNOWN
    assert "Det=?" in rep.to_line()


def test_budget_error_raised_directly():
    with pytest.raises(BudgetExceededError):
        determining_number(fam("cycle", 8), Budget(subset_tests=2))


def test_subset_walk_yields_the_first_subset_of_each_orbit():
    """The walk yields, in combinations order, each subset that no element
    maps to an earlier one, with the order of its setwise stabilizer."""
    mid = mid_group_graphs()
    cases = [(g, g.n) for n in range(1, 6) for g in enumerate_graphs(n)]
    cases += [(mid[name], 4) for name in ("Q3", "K3xK3", "Petersen", "2K4")]
    for g, max_size in cases:
        aut = automorphism_group(g)
        walked = list(_SubsetScan(aut, Budget()).representatives(range(max_size + 1)))
        assert walked == first_subsets(aut, max_size), g
        for _k, mask, stab in walked:
            members = {v for v in range(g.n) if mask >> v & 1}
            onto = sum({t[v] for v in members} == members for t in aut.images)
            assert stab == onto, (g, members)


def test_subset_walk_expands_each_first_subset_once(graphs7_path):
    """Every candidate is the empty set or a first subset of size k < n
    extended by a vertex above its largest member, and only first subsets
    pass the test."""
    cases = [parse_graph6(line) for line in graphs7_path.read_text().split()]
    cases += mid_group_graphs().values()
    for g in cases:
        scan = _SubsetScan(automorphism_group(g), Budget())
        walked = list(scan.representatives(range(g.n + 1)))
        assert scan.tests == len(walked), g
        spawned = sum(g.n - mask.bit_length() for k, mask, _ in walked if k < g.n)
        assert scan.candidates == 1 + spawned, g


@pytest.mark.parametrize(
    "f", [analyze, distinguishing_number, determining_number, cost_number]
)
def test_a_group_of_another_degree_is_rejected(f):
    p4 = fam("path", 4)
    with pytest.raises(DegreeError, match="degree 5 given for a graph on 4"):
        f(p4, aut=automorphism_group(fam("cycle", 5)))
    assert f(p4, aut=automorphism_group(p4)) == f(p4)


# Captured before the walk extended first subsets instead of looping over all
# C(n, k) masks: the smallest subset_tests budget at which rho and Det settle,
# and the number of first subsets of every size.
SUBSET_TRIP_POINTS = {"4K3": (20, 28, 35), "K3xK3": (13, 6, 26), "Q3": (14, 6, 22)}


def test_subset_budget_trips_where_it_did_and_bounds_the_walk():
    named = {"4K3": disjoint_cliques(4, 3), **mid_group_graphs()}
    for name, (rho_tests, det_tests, firsts) in SUBSET_TRIP_POINTS.items():
        g = named[name]
        aut = automorphism_group(g)
        for f, tests in ((cost_number, rho_tests), (determining_number, det_tests)):
            f(g, Budget(subset_tests=tests), aut=aut)
            with pytest.raises(BudgetExceededError):
                f(g, Budget(subset_tests=tests - 1), aut=aut)
        for b in (0, 1, 5, det_tests, rho_tests, firsts - 1, firsts):
            scan = _SubsetScan(aut, Budget(subset_tests=b))
            walk = scan.representatives(range(g.n + 1))
            if b < firsts:
                with pytest.raises(BudgetExceededError):
                    for _ in walk:
                        pass
            else:
                assert sum(1 for _ in walk) == firsts
            assert scan.tests == min(b + 1, firsts)
            # each first subset spawns at most n candidates
            assert scan.tests <= scan.candidates <= g.n * (b + 1), (name, b)


# Captured before the subset walk swept all group elements column-wise and
# before the coloring search built its move table once per group: on groups of
# order 48 to 5040 each field turns into "?" exactly where it did, and K7 runs
# the coloring search for every k from 3 to 7.
def test_analyze_midgroups_matches_golden():
    named = mid_group_graphs()
    auts = {name: automorphism_group(g) for name, g in named.items()}
    lines = []
    for cap in ("default", 5, 10, 20, 50, 100):
        budget = Budget() if cap == "default" else Budget.uniform(cap)
        lines.append(f"# budget {cap}")
        lines += [analyze(g, budget, aut=auts[name]).to_line() for name, g in named.items()]
    assert lines == (GOLDENS / "analyze_midgroups.out").read_text().splitlines()


# Captured before the k >= 3 search tested its nodes through the element
# bitsets: per graph on <= 7 vertices with D >= 3, and K8, the graph6, D and
# the smallest coloring_nodes budget at which D settles (the budget counts
# the nodes of one k, so this is the largest count over k = 3..D).
def test_coloring_node_counts_match_golden():
    for line in (GOLDENS / "coloring_nodes.txt").read_text().splitlines():
        g6, d, nodes = line.split()
        g = parse_graph6(g6)
        aut = automorphism_group(g)
        nodes = int(nodes)
        assert distinguishing_number(g, Budget(coloring_nodes=nodes), aut=aut)[0] == int(d)
        with pytest.raises(BudgetExceededError):
            distinguishing_number(g, Budget(coloring_nodes=nodes - 1), aut=aut)


def test_coloring_search_leaves_no_reference_cycles():
    import gc

    g = fam("complete", 6)
    aut = automorphism_group(g)
    gc.collect()
    gc.disable()
    try:
        assert distinguishing_number(g, aut=aut)[0] == 6
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_rho_four_at_det_two_on_two_copies_of_a_cayley_graph():
    """H, the Cayley graph of Z2^5 with x ~ x XOR s for s in S, is connected
    and has only its 32 translations. G = 2H, two copies of H on 0..31 and
    32..63, has the group Aut(H) wr S2 of order 32^2 * 2, built here by hand
    (the search caps n at 40) and checked element by element against G's
    edges; there rho = 4 at D = Det = 2, the top of the bound rho in 2..4."""
    s = (1, 5, 9, 12, 13, 15, 17, 18, 19, 20, 22, 28, 31)
    h = Graph.from_edges(32, [(x, x ^ d) for x in range(32) for d in s if x < x ^ d])
    assert is_connected(h)
    aut_h = automorphism_group(h)
    assert aut_h.order == 32
    g = Graph.from_edges(64, [(a + k, b + k) for a, b in h.edges() for k in (0, 32)])
    images = []
    for t in aut_h.images:
        for u in aut_h.images:
            low, high = tuple(t), tuple(x + 32 for x in u)
            images += [low + high, high + low]  # the copies kept, then swapped
    aut = PermGroup.from_images(64, images)
    assert aut.order == 2048
    edges = g.edges()
    for p in aut.images:
        assert all(g.has_edge(p[a], p[b]) for a, b in edges)
    line = analyze(g, aut=aut).to_line()
    assert line.endswith(
        " n=64 m=416 aut=2048 D=2 Det=2 rho=4 det2_d2=1 rho_in_2_4=1"
        " det_set=0,32 rho_class=0,1,2,32 degenerate=0"
    )
