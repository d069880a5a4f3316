import random
from dataclasses import replace
from fractions import Fraction
from itertools import combinations
from math import comb, factorial, perm
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import GRAPHS7_FILE, REPO_ROOT
from helpers import (
    ElementList,
    from_cycles,
    mid_group_graphs,
    check_restriction,
    check_shared_distinguishing_number,
    net_graph,
    per_element_is_determining_set,
    per_element_pair_rules,
    per_subset_min_class_size,
    random_graph,
)
from symbreak import checks
from symbreak.autgroup import automorphism_group, group_key
from symbreak.checks import (
    RULES,
    ScanOptions,
    Violation,
    check_pair_rules,
    family_bounds_check,
    scan_corpus,
)
from symbreak.config import Budget
from symbreak.errors import (
    DegreeError,
    NotApplicableError,
    NotDeterminingPairError,
    UnsupportedSizeError,
)
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
from symbreak.metrics import analyze, determining_number, is_determining_set
from symbreak.perms import Perm, PermGroup


def fam(kind, p):
    return generate_family(FamilySpec(kind, p))


def synthetic_group(n, *cycle_lists):
    """Element list for rule-detector tests; not necessarily closed."""
    images = [tuple(range(n))]
    images += [from_cycles(n, cycles).images for cycles in cycle_lists]
    return ElementList(n, images)


# -- rule detectors on synthetic element lists -------------------------------
#
# Real graphs can never violate the rules, so the detectors are exercised on
# hand-built permutation lists that do.


def run_rules_on(group, g, pair, d=2):
    return check_pair_rules(g, pair, aut=group, d=d)


def carrier(n):
    """A graph whose actual automorphisms are irrelevant to the detector."""
    return Graph(n, (0,) * n)


def test_detects_pair_fixer():
    group = synthetic_group(4, [(2, 3)])
    with pytest.raises(NotDeterminingPairError):
        run_rules_on(group, carrier(4), (0, 1))


def test_detects_non_involution_swap():
    group = synthetic_group(5, [(0, 1), (2, 3, 4)])
    # element (0 1)(2 3 4): swaps the anchors but cubes, not squares, to e;
    # its non-identity square fixes both anchors, so the pair check fires
    # first unless the fixer is also present legitimately.
    rep = None
    try:
        rep = run_rules_on(group, carrier(5), (0, 1))
    except NotDeterminingPairError:
        pytest.skip("synthetic list rejected before rule ran")
    assert rep.statuses["swaps_are_involutions"] == "fail"


def test_detects_duplicate_swap_extension():
    group = synthetic_group(4, [(0, 1)], [(0, 1), (2, 3)])
    rep = run_rules_on(group, carrier(4), (0, 1), d=3)
    assert rep.statuses["swap_extension_unique"] == "fail"
    assert len(rep.violations) >= 1


def test_detects_rotation_through_pair():
    group = synthetic_group(
        4,
        [(0, 1), (2, 3)],  # anchor swap with outside 2-cycle (2 3)
        [(0, 2)],          # half swap x <-> d1 fixing y
        [(0, 1, 2)],       # forbidden rotation (x y d1)
    )
    rep = run_rules_on(group, carrier(4), (0, 1), d=3)
    assert rep.statuses["no_rotation_through_pair"] == "fail"


def test_detects_same_anchor_mirror():
    group = synthetic_group(
        4,
        [(0, 1), (2, 3)],
        [(0, 2)],  # x <-> d1, y fixed
        [(1, 2)],  # y <-> d1, x fixed: forbidden
    )
    rep = run_rules_on(group, carrier(4), (0, 1), d=3)
    assert rep.statuses["no_same_anchor_mirror"] == "fail"


def test_detects_anchor_chain_rotation():
    group = synthetic_group(
        6,
        [(0, 1), (2, 3), (4, 5)],  # anchor swap with two outside 2-cycles
        [(0, 2)],                  # half swap through d_i = 2
        [(0, 2, 4)],               # rotation x -> d_i -> d_j with y fixed
    )
    rep = run_rules_on(group, carrier(6), (0, 1), d=3)
    assert rep.statuses["no_anchor_chain_rotation"] == "fail"


def test_detects_missing_partner_mirror():
    group = synthetic_group(
        4,
        [(0, 1), (2, 3)],
        [(0, 2)],  # x <-> d1 exists but y <-> d2 does not
    )
    rep = run_rules_on(group, carrier(4), (0, 1), d=3)
    assert rep.statuses["partner_mirror_exists"] == "fail"


def test_detects_side_swap_fixing_rival():
    group = synthetic_group(
        5,
        [(0, 2)],          # x <-> d1, y fixed, d2=3 fixed: will be flagged
        [(0, 3), (2, 4)],  # x <-> d2, y fixed, moving d1
    )
    rep = run_rules_on(group, carrier(5), (0, 1), d=3)
    assert rep.statuses["side_swaps_move_rivals"] == "fail"


def test_detects_bare_swap_when_d_is_two():
    group = synthetic_group(4, [(0, 1)])
    rep = run_rules_on(group, carrier(4), (0, 1), d=2)
    assert rep.statuses["bare_swap_absent"] == "fail"
    rep = run_rules_on(group, carrier(4), (0, 1), d=3)
    assert rep.statuses["bare_swap_absent"] == "skipped"


def test_violation_details_reverify():
    group = synthetic_group(4, [(0, 1)], [(0, 1), (2, 3)])
    rep = run_rules_on(group, carrier(4), (0, 1), d=2)
    elems = set(p.images for p in group.elements)
    for v in rep.violations:
        for images in v.perms:
            assert images in elems


# -- pair rules against the per-element scan ---------------------------------


def assert_rules_match_scan(g, aut, pair, d):
    """check_pair_rules and the per-element scan of tests/helpers.py agree on
    every status and on every violation's perms and context."""
    rep = check_pair_rules(g, pair, aut=aut, d=d)
    statuses, flagged = per_element_pair_rules(aut, *pair, d)
    assert rep.statuses == statuses
    got = {rule: set() for rule in RULES}
    for v in rep.violations:
        got[v.rule].add((v.perms, tuple(sorted(v.context.items()))))
    assert got == flagged
    assert len(rep.violations) == sum(map(len, flagged.values()))
    return rep


def test_rules_match_the_scan_on_every_determining_pair_of_graphs7():
    """On every graph, the determining pairs are those the per-element oracle
    accepts; on the D = 2, Det = 2 graphs they are the pairs the scan's
    all-pairs (--props) mode runs the rules on, in the same order."""
    expected = []
    with GRAPHS7_FILE.open(encoding="ascii") as fh:
        corpus = [parse_graph6(line.strip()) for line in fh]
    for g in corpus:
        aut = automorphism_group(g)
        pairs = list(combinations(range(g.n), 2))
        determining = [p for p in pairs if per_element_is_determining_set(aut, p)]
        assert [p for p in pairs if is_determining_set(aut, p)] == determining
        report = analyze(g, aut=aut)
        if not report.det2_d2_case:
            continue
        for pair in determining:
            assert assert_rules_match_scan(g, aut, pair, report.d).passed
            expected.append((report.graph6, pair))
    assert len(expected) == 1674
    scan = scan_corpus(corpus, ScanOptions(all_pairs=True))
    assert [(rr.graph6, rr.pair) for rr in scan.rule_reports] == expected


@pytest.mark.parametrize("name", list(mid_group_graphs()))
def test_rules_match_the_scan_on_mid_groups_without_their_anchor_fixers(name):
    """Every graph of mid_group_graphs() has Det >= 3, so none of its pairs
    is determining; dropping the elements that fix both anchors makes every
    pair determining, in a list that is not closed and breaks rules. S_7
    maps every pair of K7 to (0, 1), which alone takes 0.4 s of its 8 s."""
    g = mid_group_graphs()[name]
    aut = automorphism_group(g)
    failed = set()
    for x, y in [(0, 1)] if name == "K7" else combinations(range(g.n), 2):
        kept = [t for t in aut.images if t[x] != x or t[y] != y or t == aut.images[0]]
        rep = assert_rules_match_scan(g, ElementList(g.n, kept), (x, y), 2)
        failed |= {rule for rule, status in rep.statuses.items() if status == "fail"}
    assert failed


SYNTHETIC_GROUPS = [  # (n, cycle lists) of the detector tests above
    (5, [[(0, 1), (2, 3, 4)]]),
    (4, [[(0, 1)], [(0, 1), (2, 3)]]),
    (4, [[(0, 1), (2, 3)], [(0, 2)], [(0, 1, 2)]]),
    (4, [[(0, 1), (2, 3)], [(0, 2)], [(1, 2)]]),
    (6, [[(0, 1), (2, 3), (4, 5)], [(0, 2)], [(0, 2, 4)]]),
    (4, [[(0, 1), (2, 3)], [(0, 2)]]),
    (5, [[(0, 2)], [(0, 3), (2, 4)]]),
    (4, [[(0, 1)]]),
]


@pytest.mark.parametrize("n, cycle_lists", SYNTHETIC_GROUPS)
@pytest.mark.parametrize("d", [2, 3])
def test_rules_match_the_scan_on_the_synthetic_groups(n, cycle_lists, d):
    group = synthetic_group(n, *cycle_lists)
    try:
        assert_rules_match_scan(carrier(n), group, (0, 1), d)
    except NotDeterminingPairError:
        statuses, _ = per_element_pair_rules(group, 0, 1, d)
        assert statuses["pair_fixers_trivial"] == "fail"


@st.composite
def anchored_lists(draw):
    """(n, the anchors, a duplicate-free element list that is not closed):
    the identity, a swap of the anchors, then elements that move an anchor,
    each a cycle through one or both anchors times disjoint 2- and 3-cycles
    of the other vertices."""
    n = draw(st.integers(4, 7))
    x, y = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))

    def element(shape):
        e, f, *rest = draw(st.permutations([v for v in range(n) if v not in (x, y)]))
        cycle_list = [tuple({"x": x, "y": y, "e": e, "f": f}[c] for c in shape)]
        rest = [v for v in rest + [e, f] if v not in cycle_list[0]]
        for k in draw(st.lists(st.sampled_from([2, 3]), max_size=2)):
            if len(rest) >= k:
                cycle_list.append(rest[:k])
                rest = rest[k:]
        return from_cycles(n, cycle_list).images

    shapes = st.sampled_from(["xy", "xe", "ye", "xye", "xey", "xef", "yef"])
    images = [tuple(range(n)), element("xy")]
    images += [element(shape) for shape in draw(st.lists(shapes, max_size=8))]
    return n, (x, y), tuple(dict.fromkeys(images))


@given(anchored_lists(), st.sampled_from([2, 3]))
def test_rules_match_the_scan_on_random_element_lists(case, d):
    n, pair, images = case
    assert_rules_match_scan(carrier(n), ElementList(n, images), pair, d)


def test_rules_reject_a_group_of_another_degree():
    p4 = fam("path", 4)
    with pytest.raises(DegreeError, match="degree 5 given for a graph on 4"):
        check_pair_rules(p4, (0, 1), aut=automorphism_group(fam("cycle", 5)), d=2)


# -- pair rules on real graphs -------------------------------------------


def test_rules_pass_on_triangle():
    rep = check_pair_rules(fam("complete", 3), (0, 1))
    assert rep.passed
    assert rep.statuses["bare_swap_absent"] == "skipped"  # D(K3) = 3


def test_bare_swap_rule_skipped_when_d_exceeds_the_budget():
    # C@: one edge and two isolated vertices, D = 2 and Det = 2; at a budget
    # of one the D search gives up, so the rule that needs D = 2 is skipped
    g = parse_graph6("C@")
    pair = tuple(sorted(determining_number(g)[1]))
    assert check_pair_rules(g, pair).statuses["bare_swap_absent"] == "pass"
    rep = check_pair_rules(g, pair, budget=Budget.uniform(1))
    assert rep.passed
    assert rep.statuses["bare_swap_absent"] == "skipped"


def test_rules_pass_on_net_graph():
    for pair in [(0, 1), (1, 2), (0, 2)]:
        rep = check_pair_rules(net_graph(), pair)
        assert rep.passed


def test_rules_pass_on_c4_pair():
    # {0,1} pointwise stabilizer in Aut(C4) is trivial, so it determines
    aut = automorphism_group(fam("cycle", 4))
    assert is_determining_set(aut, {0, 1})
    rep = check_pair_rules(fam("cycle", 4), (0, 1))
    assert rep.passed


def test_rules_reject_non_determining_pair():
    with pytest.raises(NotDeterminingPairError):
        check_pair_rules(fam("complete", 4), (0, 1))
    with pytest.raises(NotDeterminingPairError):
        check_pair_rules(fam("cycle", 4), (0, 0))
    for v, pair in ((-1, (-1, 0)), (4, (0, 4))):  # -1 would index maps_to from its end
        with pytest.raises(IndexError, match=f"vertex {v} out of range for n=4"):
            check_pair_rules(fam("cycle", 4), pair)


def test_rules_pass_on_random_det2_graphs():
    rng = random.Random(59)
    found = 0
    for _ in range(200):
        g = random_graph(rng, rng.randint(4, 7))
        aut = automorphism_group(g)
        from symbreak.metrics import determining_number

        det, witness = determining_number(g)
        if det != 2:
            continue
        found += 1
        rep = check_pair_rules(g, tuple(sorted(witness)), aut=aut)
        assert rep.passed, rep.violations
    assert found > 5


# -- restriction check ---------------------------------------------------


def test_restriction_on_clique_with_pendant():
    g = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4)])
    assert check_restriction(g, {1, 2, 3}) is True


def test_restriction_on_full_vertex_set():
    g = net_graph()
    assert check_restriction(g, set(range(6))) is True


def test_restriction_rejects_mismatched_neighborhoods():
    g = fam("path", 4)
    with pytest.raises(NotApplicableError):
        check_restriction(g, {0, 1})
    with pytest.raises(NotApplicableError):
        check_restriction(g, set())


@pytest.mark.parametrize("h", [{7}, {-1}, {2, 4}])
def test_restriction_rejects_a_vertex_outside_the_graph(h):
    with pytest.raises(NotApplicableError, match="outside 0..3"):
        check_restriction(fam("path", 4), h)


def test_restriction_on_matched_tail_pair():
    # both pendants of a 4-star share the center as outside neighborhood
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    assert check_restriction(star, {1, 2, 3}) is True


def test_restriction_on_random_twin_sets():
    """Vertex pairs with identical neighborhoods outside the pair satisfy the
    hypothesis; the conclusion must hold on every sampled coloring."""
    rng = random.Random(97)
    applicable = 0
    for _ in range(300):
        g = random_graph(rng, rng.randint(3, 7))
        for u in range(g.n):
            for v in range(u + 1, g.n):
                pair_mask = 1 << u | 1 << v
                if g.adj[u] & ~pair_mask == g.adj[v] & ~pair_mask:
                    assert check_restriction(g, {u, v}) is True
                    applicable += 1
        if applicable >= 25:
            break
    assert applicable >= 25


# -- shared distinguishing number -----------------------------------------


def test_shared_d_on_complement_pairs():
    rng = random.Random(61)
    for _ in range(25):
        g = random_graph(rng, rng.randint(1, 7))
        assert check_shared_distinguishing_number(g, complement(g)) is True


def test_shared_d_requires_equivalence():
    with pytest.raises(NotApplicableError):
        check_shared_distinguishing_number(fam("path", 3), fam("complete", 3))


# -- corpus scan -----------------------------------------------------------


def test_scan_small_corpus_clean():
    corpus = [g for n in range(1, 6) for g in enumerate_graphs(n)]
    report = scan_corpus(corpus)
    assert report.ok
    assert report.corpus_size == 52
    assert not report.skipped
    assert set(report.rho_histogram) <= {2, 3, 4}
    assert report.det2_d2_count == sum(report.rho_histogram.values())
    assert report.same_order_nonequivalent is not None


def test_scan_c5_has_empty_subset():
    report = scan_corpus([fam("cycle", 5)])
    assert report.det2_d2_count == 0 and report.ok


def test_scan_empty_corpus():
    report = scan_corpus([])
    assert report.corpus_size == 0 and report.ok
    assert report.rho_histogram == {}


def test_scan_lines_are_the_reports_of_analyze():
    # each complement on the same labels repeats a group, and the shuffle
    # spreads the records of one group over the list, so most records share
    # the result of an earlier record with their group
    rng = random.Random(3)
    base = [g for n in range(1, 6) for g in enumerate_graphs(n)]
    corpus = base + [complement(g) for g in base]
    corpus += [permuted(g, Perm(tuple(rng.sample(range(g.n), g.n)))) for g in corpus]
    rng.shuffle(corpus)
    assert len({automorphism_group(g).images for g in corpus}) < len(corpus) // 2
    report = scan_corpus(corpus)
    assert report.ok and not report.skipped
    lines = [rep.to_line() for rep in report.graph_reports]
    assert lines == [analyze(g).to_line() for g in corpus]


def test_scan_all_pairs_mode():
    corpus = [g for n in range(1, 5) for g in enumerate_graphs(n)]
    witness_only = scan_corpus(corpus, ScanOptions(all_pairs=False))
    all_pairs = scan_corpus(corpus, ScanOptions(all_pairs=True))
    assert all_pairs.ok and witness_only.ok
    assert len(all_pairs.rule_reports) >= len(witness_only.rule_reports)


def test_scan_records_skips_under_tiny_budget():
    report = scan_corpus([fam("cycle", 8)], ScanOptions(budget=Budget(subset_tests=2)))
    assert report.skipped and report.skipped[0][1] == "budget exceeded"


def test_scan_skips_a_graph_too_large_for_the_automorphism_search():
    big = Graph(63, (0,) * 63)
    report = scan_corpus([fam("path", 3), big])
    assert report.corpus_size == 2 and len(report.graph_reports) == 1
    assert report.skipped == (
        (encode_graph6(big), "automorphism group: automorphism search supports n <= 40, got 63"),
    )


def test_scan_skips_a_graph_the_graph6_encoder_refuses():
    """The encoder caps n at 512: that record is an error skip labelled by
    its vertex count, and the scan goes on past it."""
    report = scan_corpus([Graph(2, (0, 0)), Graph(513, (0,) * 513)], ScanOptions())
    assert report.corpus_size == 2 and len(report.graph_reports) == 1
    assert report.graph_reports[0].graph6 == "A?"
    assert report.skipped == (
        ("<n=513>", "error: UnsupportedSizeError: graph6 supports n <= 512, got 513"),
    )
    assert report.errors == report.skipped and not report.ok


def test_scan_skips_a_record_whose_analysis_raises(monkeypatch):
    corpus = [g for n in range(1, 6) for g in enumerate_graphs(n)]
    clean = scan_corpus(corpus, ScanOptions())
    assert clean.ok and not clean.errors
    bad = corpus[30]
    real_analyze = checks.analyze

    def analyze(g, *args, **kwargs):
        if g is bad:
            raise RuntimeError("injected fault")
        return real_analyze(g, *args, **kwargs)

    monkeypatch.setattr(checks, "analyze", analyze)
    report = scan_corpus(corpus, ScanOptions())
    assert report.corpus_size == len(corpus)
    assert report.skipped == ((encode_graph6(bad), "error: RuntimeError: injected fault"),)
    assert report.graph_reports == tuple(
        r for r in clean.graph_reports if r.graph6 != encode_graph6(bad)
    )
    assert not report.violations
    assert report.errors == report.skipped
    assert not report.ok


def test_scan_stamps_each_record_of_a_shared_group(monkeypatch):
    g = next(g for g in enumerate_graphs(5) if analyze(g).det2_d2_case)  # has pair rules
    h = complement(g)  # same labels, so the identical group
    assert automorphism_group(g).image_set == automorphism_group(h).image_set
    brute_calls = []

    def brute(aut, n):
        brute_calls.append(n)
        return -1  # disagrees with every rho, so each record has a violation

    monkeypatch.setattr(checks, "_brute_min_class_size", brute)
    report = scan_corpus([g, h], ScanOptions(all_pairs=True))
    assert len(brute_calls) == 1
    assert [r.to_line() for r in report.graph_reports] == [
        analyze(g).to_line(),
        analyze(h).to_line(),
    ]
    own = [encode_graph6(g), encode_graph6(h)]
    for items in (report.violations, report.rule_reports):
        half = len(items) // 2
        assert half and len(items) == 2 * half
        assert [item.graph6 for item in items] == [own[0]] * half + [own[1]] * half
        assert items[half:] == tuple(replace(item, graph6=own[1]) for item in items[:half])
    assert "smaller_class_mismatch" in {v.kind for v in report.violations}
    assert report.rule_checks == len(report.rule_reports)
    assert report.summary_obj()["rule_checks"] == len(report.rule_reports)

    # passed to an emit, the two records share one result and the scan keeps
    # no report of either; the summary is the same
    emitted = []
    streamed = scan_corpus([g, h], ScanOptions(all_pairs=True), emit=emitted.append)
    assert len(brute_calls) == 2
    assert [rec.to_line() for rec in emitted] == [r.to_line() for r in report.graph_reports]
    assert [rec.graph6 for rec in emitted] == own
    assert emitted[0].result is emitted[1].result
    assert streamed.graph_reports == streamed.rule_reports == ()
    assert streamed.summary_obj() == report.summary_obj()


def test_rule_reports_cover_every_rule():
    report = scan_corpus([g for g in enumerate_graphs(4)])
    assert report.rule_reports
    for rr in report.rule_reports:
        assert set(rr.statuses) == set(RULES)


# -- direct rho cross-check ------------------------------------------------


class CountedImages(tuple):
    """Image tuples that count the elements read through a slice of them."""

    reads = 0

    def __getitem__(self, key):
        got = super().__getitem__(key)
        return self._counted(got) if isinstance(key, slice) else got

    def _counted(self, images):
        for t in images:
            self.reads += 1
            yield t


def direct_rho(aut, n):
    """The cross-check's answer and the number of elements it read, on a
    stand-in with the group's image tuples and nothing else, so that it
    can read no other view of the group."""
    images = CountedImages(aut.images)
    return checks._brute_min_class_size(SimpleNamespace(images=images), n), images.reads


def distinct_groups(graphs):
    """The first record's (group, n) per distinct group, in input order."""
    groups = {}
    for g in graphs:
        aut = automorphism_group(g)
        groups.setdefault(group_key(aut), (aut, g.n))
    return list(groups.values())


def test_vertex_set_tables_hold_their_definitions():
    for n in range(11):
        agree, sizes = checks._vertex_set_tables(n)

        def holding(member):  # the integer with bit S set for each set S that is a member
            return sum(1 << s for s in range(1 << n) if member(s))

        assert agree == tuple(
            tuple(holding(lambda s: s >> a & 1 == s >> b & 1) for b in range(n))
            for a in range(n)
        ), n
        assert sizes == tuple(holding(lambda s: s.bit_count() == k) for k in range(n + 1)), n


def test_direct_rho_matches_the_per_subset_loop_on_every_group_on_at_most_8_vertices():
    """Over the distinct groups on n <= 7, a group with no distinguishing
    class stops the sweep early: 133 such groups with 11,610 elements are
    settled after 952 non-identity elements. Any other answer reads every
    non-identity element."""
    small = distinct_groups(g for n in range(1, 8) for g in enumerate_graphs(n))
    records = (REPO_ROOT / "data" / "graphs8.g6").read_text().split()
    eight = distinct_groups(map(parse_graph6, records))
    assert (len(small), len(small) + len(eight)) == (294, 999)
    none = []  # the order and the elements read of each group on n <= 7 with no class
    for i, (aut, n) in enumerate(small + eight):
        answer, reads = direct_rho(aut, n)
        assert answer == per_subset_min_class_size(aut, n), aut
        if answer is not None:
            assert reads == aut.order - 1
        elif i < len(small):
            none.append((aut.order, reads))
    assert (len(none), *map(sum, zip(*none))) == (133, 11610, 952)


@pytest.mark.parametrize(
    "name",
    [name for name, g in mid_group_graphs().items() if g.n <= checks.VERIFY_SMALLER_CLASS_UPTO],
)
def test_direct_rho_matches_the_per_subset_loop_on_mid_groups_and_relabellings(name):
    g = mid_group_graphs()[name]
    relabellings = [Perm(tuple(random.Random(seed).sample(range(g.n), g.n))) for seed in (0, 1)]
    for h in (g, *(permuted(g, pi) for pi in relabellings)):
        aut = automorphism_group(h)
        assert direct_rho(aut, h.n)[0] == per_subset_min_class_size(aut, h.n)


def test_direct_rho_at_its_widest_table_and_its_smallest():
    petersen = mid_group_graphs()["Petersen"]
    rigid = random_graph(random.Random(0), 10)
    cases = [petersen, rigid, Graph(0, ()), Graph(1, (0,))]
    assert [g.n for g in cases] == [10, 10, 0, 1]
    answers = []
    for g in cases:
        aut = automorphism_group(g)
        answers.append(direct_rho(aut, g.n)[0])
        assert answers[-1] == per_subset_min_class_size(aut, g.n)
    assert answers == [None, 0, 0, 0]


def test_direct_rho_skips_the_identity_of_a_group_built_from_shuffled_tuples():
    """from_images forms the identity first, whatever the order it is given
    its tuples in; the sweep skips images[0] and would read an identity
    anywhere else as an element keeping every set."""
    for g in (fam("path", 5), fam("cycle", 6), mid_group_graphs()["K3xK3"]):
        identity, *images = automorphism_group(g).images
        random.Random(g.n).shuffle(images)
        images.append(identity)
        aut = PermGroup.from_images(g.n, images)
        assert aut.images[0] == tuple(range(g.n))
        answer, reads = direct_rho(aut, g.n)
        assert answer == per_subset_min_class_size(aut, g.n)
        assert answer is None or reads == len(images) - 1


@pytest.mark.parametrize(
    "claimed", [lambda rho: rho + 1, lambda rho: None], ids=["plus-one", "none"]
)
def test_scan_reports_a_rho_the_direct_count_refutes(monkeypatch, claimed):
    g = fam("path", 3)  # colour an end vertex: rho = 1
    assert analyze(g).rho == 1 and not analyze(g).det2_d2_case
    real_analyze = checks.analyze

    def analyze_(h, *args, **kwargs):
        report = real_analyze(h, *args, **kwargs)
        return replace(report, rho=claimed(report.rho))

    monkeypatch.setattr(checks, "analyze", analyze_)
    report = scan_corpus([g])
    detail = f"direct enumeration gives 1, subset search gave {claimed(1)}"
    assert report.violations == (Violation("smaller_class_mismatch", encode_graph6(g), detail),)


# -- family bounds ---------------------------------------------------------


def test_family_check_n1_degenerate():
    fc = family_bounds_check(1)
    assert fc.ok and fc.degenerate
    assert fc.det_exact == 1 and fc.rho_exact == 1
    assert fc.det_target == 1 and fc.rho_target == 1
    assert fc.clique_subset_determining


def test_family_check_n2_exact():
    fc = family_bounds_check(2)
    assert fc.ok and not fc.degenerate
    assert fc.det_exact == 3 == fc.det_target
    assert fc.rho_exact == 4 == fc.rho_target
    assert fc.string_class_is_distinguishing
    assert fc.aut_order == 24
    assert fc.clique_subset_determining


def test_family_check_n3_exact():
    fc = family_bounds_check(3)
    assert fc.ok
    assert fc.aut_order == 40320 and fc.aut_order_is_clique_factorial
    assert fc.det_exact == 7 == fc.det_target
    assert fc.rho_exact == 12 == fc.rho_target
    assert len(fc.string_class) == 12 and fc.string_class_is_distinguishing
    assert fc.clique_subset_determining


def test_family_check_range():
    with pytest.raises(UnsupportedSizeError):
        family_bounds_check(4)


def test_string_class_matches_cost_on_n2():
    g = clique_with_tails(2)
    from symbreak.metrics import cost_number

    assert cost_number(g)[0] == 4


def test_free_theorem_checks_over_every_graph_on_at_most_7_vertices():
    """Four theorems that tie independent searches together, over the scan
    of every graph with n <= 7. Orbit-stabilizer: the n!/|Aut(G)| labelled
    copies of each G add up to the 2^C(n,2) labelled graphs, which ties the
    automorphism search to the enumeration. A determining set coloured
    1..Det, every other vertex 0, is distinguishing, so D <= Det + 1. An
    automorphism is fixed by where it sends a determining set, so |Aut| <=
    n!/(n - Det)!. A one-point determining set is a distinguishing class,
    so Det = 1 implies rho = 1. Both bounds are tight often enough on n = 7
    that an off-by-one would show."""
    reports = scan_corpus(g for n in range(1, 8) for g in enumerate_graphs(n)).graph_reports
    labelled: dict[int, Fraction] = {}
    tight_d = tight_aut = 0
    for r in reports:
        labelled[r.n] = labelled.get(r.n, 0) + Fraction(factorial(r.n), r.aut_order)
        assert r.d <= r.det + 1, r.graph6
        assert r.aut_order <= perm(r.n, r.det), r.graph6
        assert r.det != 1 or r.rho == 1, r.graph6
        if r.n == 7:
            tight_d += r.d == r.det + 1
            tight_aut += r.aut_order == perm(r.n, r.det)
    assert labelled == {n: 2 ** comb(n, 2) for n in range(1, 8)}
    assert (len(reports), tight_d, tight_aut) == (1252, 566, 154)
