"""Corpus-scale verification of the structural facts behind the invariants.

Everything here runs against the whole automorphism group, through its
maps_to bitsets and its image tuples, so each fact is checked exactly, in
its strongest executable form, and nothing is sampled: the pair rules find
the elements of each hypothesis pattern, then assert the forbidden (or
required) pattern, listing only the few elements they name; the scan's
direct rho cross-check reads every image tuple; the clique-with-tails
family's Det and rho come from the exhaustive walk.

Each pair-rule pattern is a few ANDs of maps_to rows, M[a][b] being the
elements sending a to b: swaps M[x][y] & M[y][x], half swaps x <-> e with y
fixed M[y][y] & M[x][e] & M[e][x], rotations a -> b -> c M[a][b] & M[b][c] &
M[c][a]. Only the few swap-like elements are read one by one, for the
involution test. pair_fixers_trivial never fails in a report: an element
other than the identity fixing both anchors makes {x, y} not determining,
and check_pair_rules raises NotDeterminingPairError before any rule runs.

The pair rules, checked for a graph with a two-vertex determining set
{x, y} (the "anchors"):

  pair_fixers_trivial       no non-identity element fixes both anchors
  swaps_are_involutions     an element swapping the anchors, or exchanging one
                            anchor with an outside vertex while fixing the
                            other, squares to the identity
  swap_extension_unique     at most one element swaps the anchors
  no_rotation_through_pair  if the anchor swap has an outside 2-cycle through
                            d and some element exchanges x and d fixing y,
                            then no element contains a 3-cycle on {x, y, d}
  no_same_anchor_mirror     same hypothesis: no element exchanges y and d
                            while fixing x
  no_anchor_chain_rotation  if the anchor swap has two or more outside
                            2-cycles, a half swap through d_i forbids every
                            element rotating x (or y) through d_i, d_j while
                            the other anchor stays fixed
  partner_mirror_exists     for an outside 2-cycle (d1 d2) of the anchor swap:
                            x exchanges with d1 fixing y iff y exchanges with
                            d2 fixing x
  side_swaps_move_rivals    if x exchanges with each of d1 and d2 (y fixed),
                            no such element for d1 may fix d2, nor vice versa
  bare_swap_absent          when D(g) = 2: the bare anchor transposition
                            (everything else fixed) is not an automorphism

A violation of any rule on a real graph is a bug somewhere and carries the
offending permutations so it can be re-verified directly.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace
from functools import cache
from itertools import combinations, permutations

from . import config
from .autgroup import automorphism_group, group_key, group_of
from .equivalence import distinguishably_equivalent
from .errors import (
    BudgetExceededError,
    GroupTooLargeError,
    NotDeterminingPairError,
    UnsupportedSizeError,
)
from .graphs import (
    Graph,
    clique_with_tails,
    encode_graph6,
    string_color_class,
)
from .metrics import (
    UNKNOWN,
    SymmetryReport,
    analyze,
    distinguishing_number,
    is_determining_set,
    is_distinguishing,
    is_distinguishing_class,
)
from .perms import PermGroup

RULES = (
    "pair_fixers_trivial",
    "swaps_are_involutions",
    "swap_extension_unique",
    "no_rotation_through_pair",
    "no_same_anchor_mirror",
    "no_anchor_chain_rotation",
    "partner_mirror_exists",
    "side_swaps_move_rivals",
    "bare_swap_absent",
)


@dataclass(frozen=True)
class RuleViolation:
    rule: str
    perms: tuple[tuple[int, ...], ...]
    context: dict

    def describe(self) -> str:
        return f"{self.rule}: perms={self.perms} context={self.context}"


@dataclass(frozen=True)
class RuleReport:
    graph6: str
    pair: tuple[int, int]
    statuses: dict[str, str]  # rule -> "pass" | "fail" | "skipped"
    violations: tuple[RuleViolation, ...]

    @property
    def passed(self) -> bool:
        return all(s != "fail" for s in self.statuses.values())


def _images_of(aut: PermGroup, bits: int) -> list[tuple[int, ...]]:
    """The image tuples of the elements in the bitset bits, in images order."""
    out = []
    while bits:
        low = bits & -bits
        out.append(aut.images[low.bit_length() - 1])
        bits ^= low
    return out


def check_pair_rules(
    g: Graph,
    pair: tuple[int, int],
    aut: PermGroup | None = None,
    d: int | None = None,
    budget: config.Budget = config.DEFAULT_BUDGET,
) -> RuleReport:
    """Run every pair rule for the given determining pair of g.

    d is the distinguishing number when already known; the bare_swap_absent
    rule only applies at d == 2 and is computed on demand otherwise.
    """
    x, y = pair
    if x == y:
        raise NotDeterminingPairError("pair must consist of two distinct vertices")
    aut = group_of(g, aut)
    for v in (x, y):
        if not 0 <= v < aut.degree:
            raise IndexError(f"vertex {v} out of range for n={aut.degree}")
    m, identity = aut.maps_to, tuple(range(aut.degree))
    if m[x][x] & m[y][y] != aut.identity_bits:  # the elements fixing both anchors
        raise NotDeterminingPairError(f"{{{x}, {y}}} is not a determining set")

    outside = [v for v in range(aut.degree) if v not in (x, y)]

    def rot(a, b, c):  # the elements with the 3-cycle a -> b -> c -> a
        return m[a][b] & m[b][c] & m[c][a]

    def first(bits):  # the image tuple of the first element of bits
        return aut.images[(bits & -bits).bit_length() - 1]

    swaps = m[x][y] & m[y][x]
    # e -> the elements exchanging x (or y) and e while fixing the other anchor
    half_x = {e: h for e in outside if (h := m[y][y] & m[x][e] & m[e][x])}
    half_y = {e: h for e in outside if (h := m[x][x] & m[y][e] & m[e][y])}
    violations: list[RuleViolation] = []
    statuses = dict.fromkeys(RULES, "pass")

    def flag(rule, perms, **context):
        statuses[rule] = "fail"
        violations.append(RuleViolation(rule, tuple(perms), dict(context, x=x, y=y)))

    # the swap-like elements' bitsets are disjoint, so their sum is their union
    for t in _images_of(aut, swaps + sum(half_x.values()) + sum(half_y.values())):
        if tuple(map(t.__getitem__, t)) != identity:  # t squared
            flag("swaps_are_involutions", [t])
    swap_list = _images_of(aut, swaps)
    if len(swap_list) > 1:
        flag("swap_extension_unique", swap_list[:2])

    for s in swap_list:
        cycles2 = [(v, s[v]) for v in outside if v < s[v] and s[s[v]] == v]
        for a, b in cycles2:
            for d1, d2 in ((a, b), (b, a)):
                if d1 in half_x:
                    for t in _images_of(aut, rot(x, y, d1) | rot(x, d1, y)):
                        flag("no_rotation_through_pair", [s, first(half_x[d1]), t], d1=d1)
                    if d1 in half_y:
                        mirror = first(half_y[d1])
                        flag("no_same_anchor_mirror", [s, first(half_x[d1]), mirror], d1=d1)
                if (d1 in half_x) != (d2 in half_y):
                    flag("partner_mirror_exists", [s], d1=d1, d2=d2)
        dvals = [v for cyc in cycles2 for v in cyc] if len(cycles2) >= 2 else []
        for di, dj in permutations(dvals, 2):
            if di in half_x:
                x_rotates = m[y][y] & (rot(x, di, dj) | rot(x, dj, di))
                y_rotates = m[x][x] & (rot(y, di, dj) | rot(y, dj, di))
                for t in _images_of(aut, x_rotates | y_rotates):
                    flag("no_anchor_chain_rotation", [s, first(half_x[di]), t], di=di, dj=dj)

    for d1, d2 in permutations(half_x, 2):
        for t in _images_of(aut, half_x[d1] & m[d2][d2]):
            flag("side_swaps_move_rivals", [t], d1=d1, d2=d2)

    if d is None:
        try:
            d = distinguishing_number(g, budget, aut=aut)[0]
        except BudgetExceededError:
            d = UNKNOWN
    if d == 2:
        bare = swaps  # the anchor swaps that fix every outside vertex
        for v in outside:
            bare &= m[v][v]
        if bare:
            flag("bare_swap_absent", [first(bare)])
    else:
        statuses["bare_swap_absent"] = "skipped"

    return RuleReport(encode_graph6(g), (x, y), statuses, tuple(violations))


# ---------------------------------------------------------------------------
# corpus scan
# ---------------------------------------------------------------------------


# the scan cross-checks rho by direct enumeration, every vertex set against
# every element, up to this n; its tables hold 2^n-bit integers
VERIFY_SMALLER_CLASS_UPTO = 10

# skip reason of a record whose scan raised; such a skip fails the scan
ERROR_SKIP = "error: "


@dataclass(frozen=True)
class ScanOptions:
    budget: config.Budget = config.DEFAULT_BUDGET
    all_pairs: bool = False  # run pair rules on every size-2 determining pair


@dataclass(frozen=True)
class Violation:
    kind: str
    graph6: str
    detail: str


@dataclass(frozen=True)
class ScanReport:
    corpus_size: int
    skipped: tuple[tuple[str, str], ...]  # (graph6, reason)
    det2_d2_count: int
    rho_histogram: dict[int, int]
    rho4_witnesses: tuple[str, ...]
    max_rho_per_det: dict[int, int]
    violations: tuple[Violation, ...]
    rule_reports: tuple[RuleReport, ...]
    same_order_nonequivalent: tuple[str, str] | None
    graph_reports: tuple[SymmetryReport, ...]

    @property
    def errors(self) -> tuple[tuple[str, str], ...]:
        """The skips of records whose scan raised."""
        return tuple(s for s in self.skipped if s[1].startswith(ERROR_SKIP))

    @property
    def ok(self) -> bool:
        return not self.violations and not self.errors

    def summary_obj(self) -> dict:
        return {
            "corpus_size": self.corpus_size,
            "analyzed": self.corpus_size - len(self.skipped),
            "skipped": [list(s) for s in self.skipped],
            "det2_d2_count": self.det2_d2_count,
            "rho_histogram": {str(k): v for k, v in sorted(self.rho_histogram.items())},
            "rho4_witnesses": list(self.rho4_witnesses),
            "max_rho_per_det": {str(k): v for k, v in sorted(self.max_rho_per_det.items())},
            "violations": [
                {"kind": v.kind, "graph6": v.graph6, "detail": v.detail}
                for v in self.violations
            ],
            "rule_checks": len(self.rule_reports),
            "same_order_nonequivalent": (
                list(self.same_order_nonequivalent)
                if self.same_order_nonequivalent
                else None
            ),
        }


@cache
def _vertex_set_tables(n: int) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """The tables of the direct rho cross-check on n vertices, each a 2^n-bit
    integer whose bit S stands for the vertex set with bitmask S: agree[a][b]
    holds the sets that contain both a and b or neither, and sizes[k] (k = 0
    .. n) the sets of size k. The sets holding v are bits 2^v .. 2^(v+1) - 1
    of each block of 2^(v+1), a run of ones repeated by one division. A set
    of size k on the first v + 1 vertices has size k without v, or k - 1
    with it, where its index is 2^v higher."""
    full = (1 << (1 << n)) - 1
    has = [full // ((1 << (2 << v)) - 1) * (((1 << (1 << v)) - 1) << (1 << v)) for v in range(n)]
    agree = tuple(tuple(full ^ has[a] ^ has[b] for b in range(n)) for a in range(n))
    sizes = [1]  # the empty set, on no vertices
    for v in range(n):
        sizes = [a | b << (1 << v) for a, b in zip([*sizes, 0], [0, *sizes])]
    return agree, tuple(sizes)


def _brute_min_class_size(aut: PermGroup, n: int):
    """Smallest size over all 2-colorings of the smaller color class of a
    distinguishing 2-coloring; direct enumeration, no orbit pruning. Used as
    an independent cross-check of the subset search: it reads only the image
    tuples, and tests every vertex set of size at most n/2 against every
    element, all sets at once as the bits of one integer.

    An element t maps a set onto itself iff, for each u it moves, the set
    holds both u and t(u) or neither: the AND of agree[u][t(u)]. free keeps
    the sets no element so far maps onto itself, and the sweep stops once
    none is left. images[0] is the identity, which keeps every set."""
    agree, sizes = _vertex_set_tables(n)
    free = sum(sizes[: n // 2 + 1])  # the size classes are disjoint
    for t in aut.images[1:]:
        kept = -1  # every set, before any moved point is read
        for u, x in enumerate(t):
            if u != x:
                kept &= agree[u][x]
        free &= ~kept
        if not free:
            return None
    return next(k for k, sets in enumerate(sizes) if sets & free)


def _scan_one(g: Graph, options: ScanOptions, by_group: dict):
    """Per-graph work: the record's group, None when it was not built, and
    its result. Any exception, the graph6 encoding's included, becomes an
    error skip with its type and message (and its traceback goes to the log),
    so one bad record never aborts the scan but still fails it. A record with
    no graph6 text is labelled by its vertex count."""
    g6 = f"<n={g.n}>"
    try:
        g6 = encode_graph6(g)
        return _scan_record(g, g6, options, by_group)
    except Exception as exc:
        logging.getLogger(__name__).exception("scan of %s failed", g6)
        return None, {"graph6": g6, "skip": f"{ERROR_SKIP}{type(exc).__name__}: {exc}"}


def _restamp(res: dict, g: Graph, g6: str) -> dict:
    """The result of another record with the same group, carrying the graph6,
    n and m of this one: nothing else in it depends on the graph."""
    out = dict(res, graph6=g6)
    if "report" in res:
        out["report"] = replace(res["report"], graph6=g6, n=g.n, edge_count=g.edge_count)
    if "violations" in res:
        out["violations"] = [replace(v, graph6=g6) for v in res["violations"]]
        out["rule_reports"] = [replace(rr, graph6=g6) for rr in res["rule_reports"]]
    return out


def _scan_record(g: Graph, g6: str, options: ScanOptions, by_group: dict):
    """The record's group and a skip when the group cannot be built, else a
    re-stamped copy of the table's result for the group, else the group
    results, entered in the table only once they are complete."""
    try:
        aut = automorphism_group(g)
    except (GroupTooLargeError, UnsupportedSizeError) as exc:
        return None, {"graph6": g6, "skip": f"automorphism group: {exc}"}
    key = group_key(aut)
    if key in by_group:
        return aut, _restamp(by_group[key], g, g6)
    by_group[key] = _group_results(g, g6, aut, options)
    return aut, by_group[key]


def _group_results(g: Graph, g6: str, aut: PermGroup, options: ScanOptions):
    """Report, witness re-verification, pair rules."""
    report = analyze(g, options.budget, aut=aut)
    violations: list[Violation] = []
    rule_reports: list[RuleReport] = []

    if report.d is UNKNOWN or report.det is UNKNOWN or report.rho is UNKNOWN:
        return {"graph6": g6, "skip": "budget exceeded", "report": report}

    if report.det_witness is not None and not is_determining_set(aut, report.det_witness):
        violations.append(Violation("witness_reverify", g6, "det witness not determining"))
    if report.rho_witness is not None and not is_distinguishing_class(
        aut, report.rho_witness
    ):
        violations.append(Violation("witness_reverify", g6, "rho witness not a class"))
    if report.d_witness is not None and not is_distinguishing(aut, report.d_witness):
        violations.append(Violation("witness_reverify", g6, "D witness not distinguishing"))
    if report.rho is not None and report.det > report.rho:
        violations.append(
            Violation("det_le_rho", g6, f"Det={report.det} > rho={report.rho}")
        )

    if g.n <= VERIFY_SMALLER_CLASS_UPTO:
        brute = _brute_min_class_size(aut, g.n)
        if brute != report.rho:
            violations.append(
                Violation(
                    "smaller_class_mismatch",
                    g6,
                    f"direct enumeration gives {brute}, subset search gave {report.rho}",
                )
            )

    if report.det2_d2_case:
        if report.rho not in (2, 3, 4):
            violations.append(
                Violation("rho_bound", g6, f"D=2, Det=2 but rho={report.rho}")
            )
        if options.all_pairs:
            # the pairs whose diagonal rows maps_to[v][v] meet in the identity
            fixers = [row[v] for v, row in enumerate(aut.maps_to)]
            pairs = [
                (x, y)
                for x, y in combinations(range(g.n), 2)
                if fixers[x] & fixers[y] == aut.identity_bits
            ]
        else:
            pairs = [tuple(sorted(report.det_witness))]
        for pair in pairs:
            rr = check_pair_rules(g, pair, aut=aut, d=report.d, budget=options.budget)
            rule_reports.append(rr)
            for v in rr.violations:
                violations.append(Violation(f"rule:{v.rule}", g6, v.describe()))

    return {
        "graph6": g6,
        "report": report,
        "violations": violations,
        "rule_reports": rule_reports,
    }


def scan_corpus(graphs, options: ScanOptions = ScanOptions()) -> ScanReport:
    """Analyze every graph, enforce the rho bound and the pair rules on the
    D=2, Det=2 subset, and aggregate as it goes, in input order.

    The group results (the report's invariants and witnesses, their
    re-verification, the direct rho cross-check and the pair rules) are
    computed once per distinct group of the corpus: a table maps
    group_key(aut), equal for two groups exactly when they have the same
    elements, to the first such record's result, which is re-stamped with
    the graph6, n and m of each later record with that group. Each record's
    group is searched once; the hunt for two graphs with groups of one order
    that are not equivalent compares the groups the records already have."""
    by_group: dict[tuple, dict] = {}
    corpus_size = 0
    skipped: list[tuple[str, str]] = []
    det2_d2 = 0
    histogram: dict[int, int] = {}
    rho4: list[str] = []
    max_rho_per_det: dict[int, int] = {}
    violations: list[Violation] = []
    rule_reports: list[RuleReport] = []
    graph_reports: list[SymmetryReport] = []
    # per group order, the first record with it: graph, group and graph6
    first_by_order: dict[int, tuple[Graph, PermGroup, str]] = {}
    evidence: tuple[str, str] | None = None

    for g in graphs:
        corpus_size += 1
        aut, res = _scan_one(g, options, by_group)
        if "skip" in res:
            skipped.append((res["graph6"], res["skip"]))
            continue
        report: SymmetryReport = res["report"]
        graph_reports.append(report)
        violations.extend(res["violations"])
        rule_reports.extend(res["rule_reports"])
        if report.rho is not None:
            cur = max_rho_per_det.get(report.det)
            max_rho_per_det[report.det] = (
                report.rho if cur is None else max(cur, report.rho)
            )
        if report.det2_d2_case:
            det2_d2 += 1
            if isinstance(report.rho, int):
                histogram[report.rho] = histogram.get(report.rho, 0) + 1
                if report.rho == 4:
                    rho4.append(report.graph6)
        if evidence is None:
            seen = first_by_order.get(report.aut_order)
            if seen is None:
                first_by_order[report.aut_order] = (g, aut, report.graph6)
            else:
                seen_g, seen_aut, seen_g6 = seen
                try:
                    sigma = distinguishably_equivalent(
                        seen_g, g, options.budget, aut1=seen_aut, aut2=aut
                    )
                except BudgetExceededError:
                    pass  # undecided, so no evidence either way
                else:
                    if sigma is None:
                        evidence = (seen_g6, report.graph6)

    return ScanReport(
        corpus_size=corpus_size,
        skipped=tuple(skipped),
        det2_d2_count=det2_d2,
        rho_histogram=histogram,
        rho4_witnesses=tuple(rho4),
        max_rho_per_det=max_rho_per_det,
        violations=tuple(violations),
        rule_reports=tuple(rule_reports),
        same_order_nonequivalent=evidence,
        graph_reports=tuple(graph_reports),
    )


# ---------------------------------------------------------------------------
# clique-with-tails family
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FamilyCheck:
    n: int
    graph6: str
    aut_order: int
    aut_order_is_clique_factorial: bool
    det_target: int
    rho_target: int
    string_class: tuple[int, ...]
    string_class_is_distinguishing: bool
    det_exact: int
    rho_exact: int
    clique_subset_determining: bool
    degenerate: bool
    failures: tuple[str, ...] = field(default=())

    @property
    def ok(self) -> bool:
        return not self.failures


def family_bounds_check(
    n: int, budget: config.Budget = config.DEFAULT_BUDGET
) -> FamilyCheck:
    """Verify the clique-with-tails family facts at parameter n (1..3).

    The expected values: a minimum determining set drops one clique vertex
    (size 2**n - 1), and the binary-string coloring class of size n * 2**(n-1)
    is a distinguishing class. Det and rho are settled exactly by analyze,
    and the clique minus its last vertex must be a determining set.
    """
    if not 1 <= n <= 3:
        raise UnsupportedSizeError("family check supports n in 1..3")
    g = clique_with_tails(n)
    size = 1 << n
    det_target = size - 1
    rho_target = n * size // 2
    aut = automorphism_group(g)
    failures: list[str] = []
    fact_ok = aut.order == math.factorial(size)
    if not fact_ok:
        failures.append(f"aut order {aut.order} != {size}!")

    sclass = tuple(sorted(string_color_class(n)))
    if len(sclass) != rho_target:
        failures.append(f"string class size {len(sclass)} != {rho_target}")
    class_ok = is_distinguishing_class(aut, sclass)
    if not class_ok:
        failures.append("string class is not a distinguishing class")

    report = analyze(g, budget, aut=aut)
    if report.det is UNKNOWN or report.rho is UNKNOWN:
        raise BudgetExceededError("exact Det and rho search exceeded the budget")
    if report.det != det_target:
        failures.append(f"Det={report.det} != {det_target}")
    if report.rho != rho_target:
        failures.append(f"rho={report.rho} != {rho_target}")
    clique_ok = is_determining_set(aut, set(range(size - 1)))
    if not clique_ok:
        failures.append("clique-minus-one subset is not determining")

    return FamilyCheck(
        n=n,
        graph6=encode_graph6(g),
        aut_order=aut.order,
        aut_order_is_clique_factorial=fact_ok,
        det_target=det_target,
        rho_target=rho_target,
        string_class=sclass,
        string_class_is_distinguishing=class_ok,
        det_exact=report.det,
        rho_exact=report.rho,
        clique_subset_determining=clique_ok,
        degenerate=n == 1,
        failures=tuple(failures),
    )
