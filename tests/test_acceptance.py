"""Acceptance suite: one test per gating criterion, each printing a pass line
with its runtime. Run with `pytest tests/test_acceptance.py -v -s`.
"""

import math
import random
import time
from itertools import combinations

from helpers import brute_automorphisms, conjugate_group, net_graph, random_graph
from symbreak.autgroup import automorphism_group
from symbreak.checks import ScanOptions, scan_corpus
from symbreak.equivalence import distinguishably_equivalent
from symbreak.graphs import (
    FamilySpec,
    clique_with_tails,
    complement,
    count_isomorphism_classes,
    encode_graph6,
    enumerate_graphs,
    generate_family,
    parse_graph6,
    permuted,
    string_color_class,
)
from symbreak.metrics import (
    Coloring,
    cost_number,
    distinguishing_number,
    is_determining_set,
    is_distinguishing,
    is_distinguishing_class,
)
from symbreak.perms import Perm

# rho(Q5): computed exactly by the subset search, frozen as a regression
# constant; the stated bounds are ceil(log2 5)+1 = 4 and 2*ceil(log2 5)-1 = 5.
RHO_Q5 = 5

# frozen observation from the full <= 7 scan (regression only; the gating
# assertion is that every entry lies in {2, 3, 4})
N7_HISTOGRAM = {2: 292, 3: 42}
N7_DET2_D2_COUNT = 334

JOBS = 2


def fam(kind, p):
    return generate_family(FamilySpec(kind, p))


def _report(number, name, t0, limit):
    elapsed = time.monotonic() - t0
    assert elapsed < limit, f"criterion {number} exceeded {limit}s: {elapsed:.1f}s"
    print(f"criterion {number} ({name}): PASS in {elapsed:.2f}s")


def test_criterion_1_distinguishing_goldens():
    t0 = time.monotonic()
    for n in range(2, 13):
        assert distinguishing_number(fam("path", n))[0] == 2, f"D(P_{n})"
    assert distinguishing_number(fam("cycle", 4))[0] == 3
    assert distinguishing_number(fam("cycle", 5))[0] == 3
    assert distinguishing_number(fam("complete", 3))[0] == 3
    assert distinguishing_number(net_graph())[0] == 2
    _report(1, "distinguishing numbers", t0, 5.0)


def test_criterion_2_hypercubes():
    t0 = time.monotonic()
    for n in (2, 3, 4):
        aut = automorphism_group(fam("hypercube", n))
        assert aut.order == 2**n * math.factorial(n), f"Aut(Q{n})"
    assert distinguishing_number(fam("hypercube", 4))[0] == 2
    rho, witness = cost_number(fam("hypercube", 5))
    low = math.ceil(math.log2(5)) + 1
    high = 2 * math.ceil(math.log2(5)) - 1
    assert low <= rho <= high, f"rho(Q5)={rho} outside [{low}, {high}]"
    assert rho == RHO_Q5, f"rho(Q5) regression: {rho} != {RHO_Q5}"
    assert is_distinguishing_class(automorphism_group(fam("hypercube", 5)), witness)
    _report(2, "hypercube group orders, D(Q4), rho(Q5)", t0, 120.0)


def test_criterion_3_clique_with_tails():
    t0 = time.monotonic()
    kt2 = clique_with_tails(2)
    from symbreak.metrics import determining_number

    assert determining_number(kt2)[0] == 3
    assert cost_number(kt2)[0] == 4
    kt3 = clique_with_tails(3)
    aut3 = automorphism_group(kt3)
    assert is_determining_set(aut3, set(range(7)))  # clique minus one vertex
    sclass = string_color_class(3)
    assert len(sclass) == 12
    assert is_distinguishing_class(aut3, sclass)  # certifies rho <= 12
    _report(3, "clique-with-tails family", t0, 60.0)


def test_criterion_4_and_5_full_scan(graphs7_path):
    t0 = time.monotonic()
    corpus = [g for n in range(1, 7) for g in enumerate_graphs(n)]
    with graphs7_path.open() as fh:
        seven = [parse_graph6(line) for line in fh if line.strip()]
    assert len(seven) == 1044 == count_isomorphism_classes(7)
    corpus += seven
    assert len(corpus) == 1252

    report = scan_corpus(corpus, ScanOptions(jobs=JOBS, all_pairs=True))
    assert not report.skipped
    assert report.violations == (), report.violations[:5]
    assert set(report.rho_histogram) <= {2, 3, 4}
    assert report.det2_d2_count == sum(report.rho_histogram.values())
    assert report.rho_histogram == N7_HISTOGRAM, "histogram regression"
    assert report.det2_d2_count == N7_DET2_D2_COUNT
    print(f"rho histogram over D=2,Det=2 subset: {report.rho_histogram}")
    print(f"rho=4 witnesses: {list(report.rho4_witnesses) or '(none found)'}")

    # criterion 5: the pair rules ran on every determining pair of the subset
    assert report.rule_reports, "rule suite must have run"
    for rr in report.rule_reports:
        assert rr.passed, (rr.graph6, rr.pair, rr.violations)
    _report(4, "rho-bound scan over all graphs on <= 7 vertices", t0, 600.0)
    print(
        f"criterion 5 (pair rules, {len(report.rule_reports)} "
        "(graph, pair) checks): PASS"
    )


def test_criterion_6_equal_d_transfer():
    t0 = time.monotonic()
    rng = random.Random(2718)
    for trial in range(200):
        g = random_graph(rng, rng.randint(1, 8))
        d_g = distinguishing_number(g)[0]

        comp = complement(g)
        sigma = distinguishably_equivalent(g, comp)
        assert sigma is not None, f"trial {trial}: complement not equivalent"
        assert (
            conjugate_group(automorphism_group(g), sigma).image_set
            == automorphism_group(comp).image_set
        )
        assert distinguishing_number(comp)[0] == d_g

        relab = permuted(g, Perm(tuple(rng.sample(range(g.n), g.n))))
        sigma2 = distinguishably_equivalent(g, relab)
        assert sigma2 is not None, f"trial {trial}: relabeling not equivalent"
        assert (
            conjugate_group(automorphism_group(g), sigma2).image_set
            == automorphism_group(relab).image_set
        )
        assert distinguishing_number(relab)[0] == d_g
    _report(6, "equal D across 200 random equivalent pairs", t0, 300.0)


def test_criterion_7_oracle_equivalence():
    t0 = time.monotonic()
    checked_groups = 0
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            fast = sorted(p.images for p in automorphism_group(g).elements)
            assert fast == brute_automorphisms(g), encode_graph6(g)
            checked_groups += 1
    assert checked_groups == 208

    checked_subsets = 0
    for n in range(1, 6):
        for g in enumerate_graphs(n):
            aut = automorphism_group(g)
            for k in range(n + 1):
                for s in combinations(range(n), k):
                    assert is_distinguishing_class(aut, s) == is_distinguishing(
                        aut, Coloring.from_class(n, s)
                    ), (encode_graph6(g), s)
                    checked_subsets += 1
    print(f"groups checked: {checked_groups}, subset equalities: {checked_subsets}")
    _report(7, "brute-force oracle equivalence", t0, 300.0)


def test_criterion_8_round_trips():
    t0 = time.monotonic()
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            line = encode_graph6(g)
            assert parse_graph6(line) == g
            assert encode_graph6(parse_graph6(line)) == line
    rng = random.Random(1414)
    for _ in range(1000):
        g = random_graph(rng, rng.randint(1, 10))
        line = encode_graph6(g)
        assert parse_graph6(line) == g
        assert encode_graph6(parse_graph6(line)) == line
    _report(8, "graph6 round trips", t0, 60.0)
