"""Symmetry-breaking invariants of small graphs.

Core objects: Graph (bitmask adjacency), Perm / PermGroup (a group held as
its stabilizer chain, whose elements are formed only when read), Coloring.
Core invariants: the automorphism group, the distinguishing number D, the
determining number Det, and the cost number rho, with witnesses.
On top of those: distinguishable equivalence of graphs, structural rule
checking for two-vertex determining sets, and deterministic corpus scans.
"""

from .autgroup import automorphism_group, isomorphism
from .checks import (
    FamilyCheck,
    RuleReport,
    ScanOptions,
    ScanReport,
    check_pair_rules,
    family_bounds_check,
    scan_corpus,
)
from .config import Budget, DEFAULT_BUDGET
from .equivalence import distinguishably_equivalent, equivalence_classes
from .errors import (
    BudgetExceededError,
    DegreeError,
    FamilySpecError,
    GroupTooLargeError,
    NotApplicableError,
    NotDeterminingPairError,
    ParseError,
    SymbreakError,
    UnsupportedSizeError,
)
from .graphs import (
    FamilySpec,
    Graph,
    complement,
    encode_graph6,
    enumerate_graphs,
    generate_family,
    induced_subgraph,
    parse_graph6,
    permuted,
)
from .metrics import (
    Coloring,
    SymmetryReport,
    UNKNOWN,
    analyze,
    cost_number,
    determining_number,
    distinguishing_number,
    is_determining_set,
    is_distinguishing,
    is_distinguishing_class,
)
from .perms import Perm, PermGroup, cycle_type

__all__ = [
    "Budget",
    "BudgetExceededError",
    "Coloring",
    "DEFAULT_BUDGET",
    "DegreeError",
    "FamilyCheck",
    "FamilySpec",
    "FamilySpecError",
    "Graph",
    "GroupTooLargeError",
    "NotApplicableError",
    "NotDeterminingPairError",
    "ParseError",
    "Perm",
    "PermGroup",
    "RuleReport",
    "ScanOptions",
    "ScanReport",
    "SymbreakError",
    "SymmetryReport",
    "UNKNOWN",
    "UnsupportedSizeError",
    "analyze",
    "automorphism_group",
    "check_pair_rules",
    "complement",
    "cost_number",
    "cycle_type",
    "determining_number",
    "distinguishably_equivalent",
    "distinguishing_number",
    "encode_graph6",
    "enumerate_graphs",
    "equivalence_classes",
    "family_bounds_check",
    "generate_family",
    "induced_subgraph",
    "is_determining_set",
    "is_distinguishing",
    "is_distinguishing_class",
    "isomorphism",
    "parse_graph6",
    "permuted",
    "scan_corpus",
]
