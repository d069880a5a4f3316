"""Corpus-scale verification of the structural facts behind the invariants.

Everything here runs against the whole automorphism group, through its
maps_to bitsets and its image tuples, so each fact is checked exactly, in
its strongest executable form, and nothing is sampled: the pair rules find
the elements of each hypothesis pattern, then assert the forbidden (or
required) pattern, listing only the few elements they name; the scan's
direct rho cross-check reads every image tuple; the clique-with-tails
family's Det and rho come from the exhaustive walk.

The corpus scan is one pass: a record's line is its own graph6, n and m and
its group's GroupResult, formed once per group, written as the record passes.

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
from dataclasses import dataclass, field
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


class GroupResult:
    """A group's scan result, with no graph6, n or m: the report's other
    fields, its line after m= and its other JSON fields, each violation's
    (kind, detail) and each pair rule check's (pair, statuses, violations)."""

    __slots__ = ("invariants", "suffix", "fields", "violations", "rules")

    def __init__(self, invariants, suffix, fields, violations, rules):
        self.invariants, self.suffix, self.fields = invariants, suffix, fields
        self.violations, self.rules = violations, rules


class ScannedRecord:
    """A scanned record, with the line and JSON object of its report."""

    __slots__ = ("graph6", "n", "m", "result")

    def __init__(self, graph6: str, n: int, m: int, result: GroupResult):
        self.graph6, self.n, self.m, self.result = graph6, n, m, result

    def to_line(self) -> str:
        return f"{self.graph6} n={self.n} m={self.m} {self.result.suffix}"

    def to_obj(self) -> dict:
        return {"graph6": self.graph6, "n": self.n, "m": self.m, **self.result.fields}


@dataclass(frozen=True)
class ScanReport:
    corpus_size: int
    skipped: tuple[tuple[str, str], ...]  # (graph6, reason)
    det2_d2_count: int
    rho_histogram: dict[int, int]
    rho4_witnesses: tuple[str, ...]
    max_rho_per_det: dict[int, int]
    violations: tuple[Violation, ...]
    rule_checks: int
    rule_reports: tuple[RuleReport, ...]  # empty under an emit, as graph_reports is
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
            "rule_checks": self.rule_checks,
            "same_order_nonequivalent": list(self.same_order_nonequivalent or ()) or None,
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
    """Per-record work: the graph6 text, the group (None when not built) and
    its result, entered in by_group once complete, or a skip reason. Any
    exception, the graph6 encoding's included, becomes an error skip with its
    type and message (its traceback goes to the log): one bad record never
    aborts the scan but fails it. A record with no graph6 text is <n=...>."""
    g6 = f"<n={g.n}>"
    try:
        g6 = encode_graph6(g)
        try:
            aut = automorphism_group(g)
        except (GroupTooLargeError, UnsupportedSizeError) as exc:
            return g6, None, f"automorphism group: {exc}"
        key = group_key(aut)
        res = by_group.get(key)
        if res is None:
            res = by_group[key] = _group_results(g, aut, options)
        return g6, aut, res
    except Exception as exc:
        logging.getLogger(__name__).exception("scan of %s failed", g6)
        return g6, None, f"{ERROR_SKIP}{type(exc).__name__}: {exc}"


def _group_results(g: Graph, aut: PermGroup, options: ScanOptions) -> GroupResult | str:
    """Report, witness re-verification, pair rules; or the skip reason."""
    report = analyze(g, options.budget, aut=aut)
    violations: list[tuple[str, str]] = []
    rules: list[tuple] = []

    if report.d is UNKNOWN or report.det is UNKNOWN or report.rho is UNKNOWN:
        return "budget exceeded"

    if report.det_witness is not None and not is_determining_set(aut, report.det_witness):
        violations.append(("witness_reverify", "det witness not determining"))
    if report.rho_witness is not None and not is_distinguishing_class(aut, report.rho_witness):
        violations.append(("witness_reverify", "rho witness not a class"))
    if report.d_witness is not None and not is_distinguishing(aut, report.d_witness):
        violations.append(("witness_reverify", "D witness not distinguishing"))
    if report.rho is not None and report.det > report.rho:
        violations.append(("det_le_rho", f"Det={report.det} > rho={report.rho}"))

    if g.n <= VERIFY_SMALLER_CLASS_UPTO:
        brute = _brute_min_class_size(aut, g.n)
        if brute != report.rho:
            detail = f"direct enumeration gives {brute}, subset search gave {report.rho}"
            violations.append(("smaller_class_mismatch", detail))

    if report.det2_d2_case:
        if report.rho not in (2, 3, 4):
            violations.append(("rho_bound", f"D=2, Det=2 but rho={report.rho}"))
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
            rules.append((rr.pair, rr.statuses, rr.violations))
            violations += [(f"rule:{v.rule}", v.describe()) for v in rr.violations]

    invariants, fields = dict(vars(report)), report.to_obj()
    del invariants["graph6"], invariants["n"], invariants["edge_count"]
    del fields["graph6"], fields["n"], fields["m"]
    suffix = report.to_line().split(" ", 3)[3]  # graph6 holds no space
    return GroupResult(invariants, suffix, fields, tuple(violations), tuple(rules))


def scan_corpus(graphs, options: ScanOptions = ScanOptions(), emit=None) -> ScanReport:
    """Analyze every graph, enforce the rho bound and the pair rules on the
    D=2, Det=2 subset, and tally the summary, in one pass in input order. An
    item of graphs is a Graph, or the (text, reason) of a record that did
    not parse, listed before the scan's own skips.

    The work on a group (its report, witness re-verification, direct rho
    cross-check and pair rules) is done once per distinct group, keyed by
    group_key. Each scanned record goes to emit as it passes; the default
    emit collects its report and rule reports, another keeps nothing per
    record. Each record's group is searched once, and the hunt for two graphs
    with groups of one order that are not equivalent compares those groups."""
    by_group: dict[tuple, GroupResult | str] = {}
    corpus_size = det2_d2 = rule_checks = 0
    unparsed: list[tuple[str, str]] = []
    skipped: list[tuple[str, str]] = []
    histogram: dict[int, int] = {}
    rho4: list[str] = []
    max_rho_per_det: dict[int, int] = {}
    violations: list[Violation] = []
    rule_reports: list[RuleReport] = []
    graph_reports: list[SymmetryReport] = []
    if emit is None:

        def emit(rec: ScannedRecord) -> None:
            graph_reports.append(SymmetryReport(rec.graph6, rec.n, rec.m, **rec.result.invariants))
            rule_reports.extend(RuleReport(rec.graph6, *rule) for rule in rec.result.rules)

    # per group order, the first record with it: graph, group and graph6
    first_by_order: dict[int, tuple[Graph, PermGroup, str]] = {}
    evidence: tuple[str, str] | None = None

    for g in graphs:
        corpus_size += 1
        if not isinstance(g, Graph):
            record, reason = g  # a record that did not parse
            unparsed.append((record, reason))
            continue
        g6, aut, res = _scan_one(g, options, by_group)
        if isinstance(res, str):
            skipped.append((g6, res))
            continue
        emit(ScannedRecord(g6, g.n, g.edge_count, res))
        violations += [Violation(kind, g6, detail) for kind, detail in res.violations]
        rule_checks += len(res.rules)
        inv = res.invariants
        det, rho = inv["det"], inv["rho"]
        if rho is not None:
            max_rho_per_det[det] = max(max_rho_per_det.get(det, rho), rho)
        if inv["d"] == 2 and det == 2:
            det2_d2 += 1
            if isinstance(rho, int):
                histogram[rho] = histogram.get(rho, 0) + 1
                if rho == 4:
                    rho4.append(g6)
        if evidence is None:
            seen = first_by_order.get(inv["aut_order"])
            if seen is None:
                first_by_order[inv["aut_order"]] = (g, aut, g6)
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
                        evidence = (seen_g6, g6)

    return ScanReport(
        corpus_size=corpus_size,
        skipped=(*unparsed, *skipped),
        det2_d2_count=det2_d2,
        rho_histogram=histogram,
        rho4_witnesses=tuple(rho4),
        max_rho_per_det=max_rho_per_det,
        violations=tuple(violations),
        rule_checks=rule_checks,
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
