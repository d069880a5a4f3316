"""Symmetry-breaking invariants: distinguishing colorings and the
distinguishing number D, determining sets and Det, distinguishing classes and
the cost number rho, and the per-graph report that aggregates them.

Search strategy notes:

* A vertex subset S is a distinguishing class exactly when no non-identity
  automorphism maps S onto itself; equivalently the 2-coloring "S red, rest
  blue" is distinguishing. Both rho and the 2-color case of D therefore run
  one subset search: subsets are enumerated by increasing size, and subsets
  equivalent under the group are pruned by visiting each subset orbit once.
  Since a class and its complement have the same setwise stabilizer, sizes
  above n/2 never need scanning. analyze settles Det in the same walk.
* The walk visits the first subset of each orbit in combinations order, the
  orbit's smallest image. If an element maps S minus its largest member to
  an earlier subset, it maps S to an earlier subset too, so each first
  subset extends a first subset one smaller by a vertex above its largest
  member (orderly generation). A candidate is tested greedily on PermGroup's
  maps_to bitsets (per vertex u and image x, the elements sending u to x):
  walking x upward, keep the elements that send S's members onto exactly
  its members below x; S is not first if a kept element sends a member to
  a non-member x. The elements kept to the end are S's setwise stabilizer.
  The walk loops over parents, the first subsets one smaller: it folds each
  parent's union rows (per x, the elements sending some member to x) once,
  tests each extension by v with one OR of v's row per x, and drops the rows
  before the next parent, so it holds one parent's rows at a time.
  subset_orbit_representatives is the walk's one entry: graphs enumerates
  the isomorphism classes with it, as the orbits of S_n on pair slots.
* For three or more colors, D falls back to a depth-first search over
  colorings in canonical form (a color id may appear only after all smaller
  ids), pruning a partial coloring as soon as some group element moving
  only colored vertices preserves it. The test combines maps_to bitsets, as
  do the predicates; it is the same predicate as testing the elements one by
  one, so the node counts do not depend on it. A determining test, in
  is_determining_set and the walk, is the AND of the diagonal rows
  maps_to[v][v] over the set: the elements fixing each member.

analyze and the invariant functions take their groups through autgroup.group_of.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from . import config
from .autgroup import automorphism_group, group_of  # noqa: F401 (bench/test_bench.py)
from .errors import BudgetExceededError, DegreeError
from .graphs import Graph, encode_graph6
from .perms import PermGroup


class _Unknown:
    """Sentinel for metric values a budget-limited search could not settle."""

    def __repr__(self):
        return "UNKNOWN"

    def __bool__(self):
        raise TypeError("UNKNOWN has no truth value")


UNKNOWN = _Unknown()


@dataclass(frozen=True)
class Coloring:
    """Total vertex coloring with color ids 0..k-1."""

    colors: tuple[int, ...]
    k: int

    def __post_init__(self):
        if self.k < 0:
            raise ValueError("color count must be non-negative")
        for v, c in enumerate(self.colors):
            if not 0 <= c < self.k:
                raise ValueError(f"vertex {v} has color {c} outside 0..{self.k - 1}")

    @classmethod
    def from_class(cls, n: int, members) -> "Coloring":
        """2-coloring with the given vertices as color class 1; IndexError
        for a vertex outside 0..n-1."""
        members = _vertex_set(n, members)
        return cls(tuple(1 if v in members else 0 for v in range(n)), 2)

    @property
    def degree(self) -> int:
        return len(self.colors)

    def color_classes(self) -> tuple[frozenset[int], ...]:
        return tuple(
            frozenset(v for v, c in enumerate(self.colors) if c == i)
            for i in range(self.k)
        )


def _preservers(aut: PermGroup, sets, among: int | None = None) -> int:
    """The elements among `among` (all by default) sending each u of each
    vertex set M in sets into M, which maps M onto itself. The entries of a
    maps_to row are disjoint bitsets, so their sum is their union."""
    maps_to = aut.maps_to
    keep = (1 << aut.order) - 1 if among is None else among
    for m in sets:
        for u in m:
            if not keep:
                return 0
            keep &= sum(map(maps_to[u].__getitem__, m))
    return keep


def is_distinguishing(aut: PermGroup, c: Coloring) -> bool:
    """True iff every non-identity element of aut is broken by c: some
    cycle of the element carries two distinct colors, so that c(p(v)) !=
    c(v) for some vertex v."""
    if aut.degree != c.degree:
        raise DegreeError(f"degree mismatch: {aut.degree} vs {c.degree}")
    return _preservers(aut, c.color_classes()) == aut.identity_bits


def _vertex_set(n: int, s) -> set[int]:
    s = set(s)
    for v in s:
        if not 0 <= v < n:
            raise IndexError(f"vertex {v} out of range for n={n}")
    return s


def _fixers(aut: PermGroup, vertices) -> int:
    """The elements fixing every vertex of vertices, the pointwise
    stabilizer: the AND of the diagonal maps_to rows maps_to[v][v]."""
    maps_to = aut.maps_to
    keep = (1 << aut.order) - 1
    for v in vertices:
        keep &= maps_to[v][v]
    return keep


def is_determining_set(aut: PermGroup, s) -> bool:
    """True iff only the identity fixes every member of s."""
    return _fixers(aut, _vertex_set(aut.degree, s)) == aut.identity_bits


def is_distinguishing_class(aut: PermGroup, s) -> bool:
    """True iff only the identity maps s onto itself, so that coloring s red
    and the rest blue is distinguishing."""
    return _preservers(aut, [_vertex_set(aut.degree, s)]) == aut.identity_bits


# ---------------------------------------------------------------------------
# subset searches
# ---------------------------------------------------------------------------


def _mask_bits(mask: int):
    """The members of the vertex bitmask mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _over_budget(cap: int) -> BudgetExceededError:
    """The error of a subset walk that needs more than cap first subsets."""
    return BudgetExceededError(f"subset search exceeded {cap} orbit representatives")


class _SubsetScan:
    """Shared machinery: subsets by increasing size, one visit per orbit."""

    def __init__(self, aut: PermGroup, budget: config.Budget):
        self.aut = aut
        self.n = aut.degree
        self.tests = 0  # representatives, which the budget caps
        self.candidates = 0  # at most n per representative, plus the empty set
        self.cap = budget.subset_tests

    def representatives(self, sizes):
        """(k, mask, |setwise stabilizer|) for the first subset of each orbit
        of each size k, subsets taken in combinations order; sizes count up
        from 0. A first subset minus its largest member is a first subset, so
        the candidates of size k extend a parent, a first subset of size
        k - 1, by one vertex v above its largest member. Each parent's union
        rows are folded once and dropped once its extensions are tested."""
        maps_to = self.aut.maps_to
        everything = (1 << self.aut.order) - 1
        parents = None  # the first subsets of the previous size, as members
        for k in sizes:
            if parents is None:  # the empty set, the one subset of size 0
                self.candidates += 1
                self._passed()
                parents = [()]
                yield k, 0, self.aut.order
                continue
            firsts = []
            for s in parents:
                # rows[x]: the elements sending some member of s to x
                rows = (0,) * self.n
                mask = 0
                for u in s:
                    rows = tuple(map(operator.or_, rows, maps_to[u]))
                    mask |= 1 << u
                for v in range(mask.bit_length(), self.n):
                    self.candidates += 1
                    # kept: the elements g with g(s + v) and s + v equal below
                    # x; a kept g with x in g(s + v) but not in s + v maps
                    # s + v to an earlier subset.
                    kept = everything
                    v_rows = maps_to[v]
                    for x in range(v):
                        reaching = rows[x] | v_rows[x]
                        if mask >> x & 1:
                            kept &= reaching
                        elif kept & reaching:
                            break
                    else:
                        self._passed()
                        firsts.append(s + (v,))
                        kept &= rows[v] | v_rows[v]
                        yield k, mask | 1 << v, kept.bit_count()
            parents = firsts

    def _passed(self):
        """Count a first subset, raising once there are more than the cap."""
        self.tests += 1
        if self.tests > self.cap:
            raise _over_budget(self.cap)


def subset_orbit_representatives(aut: PermGroup, sizes, budget: config.Budget):
    """(k, mask, |setwise stabilizer|) for the first subset, in combinations
    order, of each orbit of aut on the k-subsets of 0..degree-1, for each k
    of sizes (counting up from 0). Raises BudgetExceededError instead of
    yielding more than budget.subset_tests of them."""
    return _SubsetScan(aut, budget).representatives(sizes)


def _min_sets(aut: PermGroup, budget: config.Budget, det=UNKNOWN, rho=UNKNOWN):
    """(Det, rho) from one walk over the subset orbits, each as (size,
    vertices), rho None when no class has at most n/2 vertices, UNKNOWN when
    the budget ran out first; det=None or rho=None leaves that search out.
    A class (stab == 1) is a determining set, so Det <= rho. The walk stops
    once both are settled and settles rho = None before counting a subset
    above n/2, so each settles at the count a walk of its own would reach."""
    n = aut.degree
    if det is UNKNOWN and aut.is_trivial:
        det = 0, frozenset()

    def sizes():
        nonlocal rho
        for k in range(n + 1):
            if k > n // 2 and rho is UNKNOWN:
                rho = None
            if det is not UNKNOWN and rho is not UNKNOWN:
                return
            yield k

    try:
        for k, mask, stab in subset_orbit_representatives(aut, sizes(), budget):
            if det is UNKNOWN and _fixers(aut, _mask_bits(mask)) == aut.identity_bits:
                det = k, frozenset(_mask_bits(mask))
            if rho is UNKNOWN and stab == 1:
                rho = k, frozenset(_mask_bits(mask))
            if det is not UNKNOWN and rho is not UNKNOWN:
                break
    except BudgetExceededError:
        pass
    return det, rho


def _settled(value, budget: config.Budget):
    if value is UNKNOWN:
        raise _over_budget(budget.subset_tests)
    return value


def _min_distinguishing_class(aut: PermGroup, budget: config.Budget):
    """Smallest subset with trivial setwise stabilizer, or None."""
    return _settled(_min_sets(aut, budget, det=None)[1], budget)


def _min_determining_set(aut: PermGroup, budget: config.Budget):
    """Smallest subset whose pointwise stabilizer is trivial."""
    return _settled(_min_sets(aut, budget, rho=None)[0], budget)


# ---------------------------------------------------------------------------
# coloring search for k >= 3
# ---------------------------------------------------------------------------


def _search_coloring(aut: PermGroup, last_moved, k: int, budget: config.Budget):
    """A distinguishing k-coloring in canonical form, or None. Coloring
    vertex v is doomed iff an element of last_moved[v], which fixes every
    vertex above v, preserves the color classes of vertices 0..v."""
    n = aut.degree
    colors: list[int] = []
    classes: list[list[int]] = [[] for _ in range(k)]
    nodes = 0
    c = 0  # next color to try at vertex len(colors)
    while len(colors) < n:
        v = len(colors)
        if c <= min(max(colors, default=-1) + 1, k - 1):
            nodes += 1
            if nodes > budget.coloring_nodes:
                raise BudgetExceededError(
                    f"coloring search exceeded {budget.coloring_nodes} nodes"
                )
            colors.append(c)
            classes[c].append(v)
            if not _preservers(aut, classes, last_moved[v]):
                c = 0
                continue
        elif not colors:
            return None
        # doomed, or every color tried at v: take the next color of the last vertex
        c = colors.pop()
        classes[c].pop()
        c += 1
    return tuple(colors)


# ---------------------------------------------------------------------------
# the invariants
# ---------------------------------------------------------------------------


def distinguishing_number(
    g: Graph,
    budget: config.Budget = config.DEFAULT_BUDGET,
    aut: PermGroup | None = None,
) -> tuple[int, Coloring]:
    aut = group_of(g, aut)
    return _distinguishing(aut, budget, _min_sets(aut, budget, det=None)[1])


def _distinguishing(aut: PermGroup, budget: config.Budget, rho):
    """D with a witness coloring: 1 for a trivial group, else 2 when rho (as
    _min_sets gives it) is a class, else the k >= 3 search. Raises
    BudgetExceededError when either is unsettled."""
    if aut.is_trivial:
        return 1, Coloring((0,) * aut.degree, 1)
    found = _settled(rho, budget)
    if found is not None:
        return 2, Coloring.from_class(aut.degree, found[1])
    return _distinguishing_ge3(aut, budget)


def _distinguishing_ge3(aut: PermGroup, budget: config.Budget):
    last_moved = [0] * aut.degree
    fix_above = (1 << aut.order) - 1
    for v in reversed(range(aut.degree)):
        fixes_v = aut.maps_to[v][v]
        last_moved[v] = fix_above & ~fixes_v
        fix_above &= fixes_v
    for k in range(3, aut.degree + 1):
        colors = _search_coloring(aut, last_moved, k, budget)
        if colors is not None:
            return k, Coloring(colors, k)
    raise AssertionError("n distinct colors always distinguish")


def determining_number(
    g: Graph,
    budget: config.Budget = config.DEFAULT_BUDGET,
    aut: PermGroup | None = None,
) -> tuple[int, frozenset[int]]:
    return _min_determining_set(group_of(g, aut), budget)


def cost_number(
    g: Graph,
    budget: config.Budget = config.DEFAULT_BUDGET,
    aut: PermGroup | None = None,
):
    """(rho, witness class) for 2-distinguishable g, else None. A graph with
    trivial group gets the degenerate (0, empty set)."""
    return _min_distinguishing_class(group_of(g, aut), budget)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SymmetryReport:
    """Per-graph record of every invariant plus its witnesses.

    Budget-limited fields hold UNKNOWN; rho is None when the graph is not
    2-distinguishable. degenerate marks the rho = 0 case of a trivial group.
    """

    graph6: str
    n: int
    edge_count: int
    aut_order: int
    d: int | _Unknown
    d_witness: Coloring | None
    det: int | _Unknown
    det_witness: frozenset | None
    rho: int | None | _Unknown
    rho_witness: frozenset | None

    @property
    def degenerate(self) -> bool:
        return self.rho == 0 and self.aut_order == 1

    @property
    def det2_d2_case(self) -> bool:
        return self.d == 2 and self.det == 2

    @property
    def rho_in_2_4(self):
        """True/False when the D=2, Det=2 case applies and rho is known;
        None otherwise."""
        if not self.det2_d2_case or self.rho is UNKNOWN:
            return None
        return self.rho is not None and 2 <= self.rho <= 4

    def to_line(self) -> str:
        return " ".join(
            (
                self.graph6,
                f"n={self.n}",
                f"m={self.edge_count}",
                f"aut={self.aut_order}",
                f"D={_fmt_count(self.d)}",
                f"Det={_fmt_count(self.det)}",
                f"rho={_fmt_count(self.rho)}",
                f"det2_d2={int(self.det2_d2_case)}",
                f"rho_in_2_4={_fmt_flag(self.rho_in_2_4)}",
                f"det_set={_fmt_vertices(self.det_witness)}",
                f"rho_class={_fmt_vertices(self.rho_witness)}",
                f"degenerate={int(self.degenerate)}",
            )
        )

    def to_obj(self) -> dict:
        return {
            "graph6": self.graph6,
            "n": self.n,
            "m": self.edge_count,
            "aut": self.aut_order,
            "D": _obj_count(self.d),
            "Det": _obj_count(self.det),
            "rho": _obj_count(self.rho),
            "det2_d2": self.det2_d2_case,
            "rho_in_2_4": self.rho_in_2_4,
            "det_set": _obj_vertices(self.det_witness),
            "rho_class": _obj_vertices(self.rho_witness),
            "degenerate": self.degenerate,
        }


def _fmt_count(v) -> str:
    if v is UNKNOWN:
        return "?"
    if v is None:
        return "-"
    return str(v)


def _fmt_flag(v) -> str:
    return "-" if v is None else str(int(v))


def _fmt_vertices(s) -> str:
    if not s:
        return "-"
    return ",".join(str(v) for v in sorted(s))


def _obj_count(v):
    return "unknown" if v is UNKNOWN else v


def _obj_vertices(s):
    return None if s is None else sorted(s)


def analyze(
    g: Graph,
    budget: config.Budget = config.DEFAULT_BUDGET,
    aut: PermGroup | None = None,
) -> SymmetryReport:
    """Full invariant report for one graph. Budget overruns downgrade the
    affected field to UNKNOWN instead of failing the whole report."""
    aut = group_of(g, aut)
    det, rho = _min_sets(aut, budget)
    try:
        d, d_witness = _distinguishing(aut, budget, rho)
    except BudgetExceededError:
        d, d_witness = UNKNOWN, None
    det, det_witness = det if isinstance(det, tuple) else (det, None)
    rho, rho_witness = rho if isinstance(rho, tuple) else (rho, None)
    return SymmetryReport(
        graph6=encode_graph6(g),
        n=g.n,
        edge_count=g.edge_count,
        aut_order=aut.order,
        d=d,
        d_witness=d_witness,
        det=det,
        det_witness=det_witness,
        rho=rho,
        rho_witness=rho_witness,
    )
