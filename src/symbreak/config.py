"""Search budgets and caps used by the exhaustive searches."""

from dataclasses import dataclass


@dataclass(frozen=True)
class Budget:
    """Caps on search effort. Exceeding one raises BudgetExceededError,
    which callers surface as "unknown" rather than a wrong answer."""

    subset_tests: int = 10**8       # first subsets (orbit representatives) per walk
    equivalence_nodes: int = 10**7  # backtracking nodes in the bijection search
    coloring_nodes: int = 10**8     # backtracking nodes in the coloring search

    @classmethod
    def uniform(cls, cap):
        return cls(subset_tests=cap, equivalence_nodes=cap, coloring_nodes=cap)


DEFAULT_BUDGET = Budget()

# automorphism_group defaults
MAX_AUT_VERTICES = 40
MAX_AUT_ELEMENTS = 10**6
