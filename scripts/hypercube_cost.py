#!/usr/bin/env python3
"""Hypercube experiment: group orders for Q2..Q4, 2-distinguishability of Q4,
and the exact cost of 2-distinguishing Q5.

The known bracket for n >= 5 is ceil(log2 n) + 1 <= rho(Q_n) <= 2*ceil(log2 n) - 1,
so rho(Q5) lands in {4, 5}. The exhaustive subset-orbit walk settles it:
rho(Q5) = 5, the upper end. The script asserts that value and checks the
witness class with is_distinguishing_class.

Usage:
    python scripts/hypercube_cost.py
"""

import math
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from symbreak.autgroup import automorphism_group  # noqa: E402
from symbreak.graphs import FamilySpec, generate_family  # noqa: E402
from symbreak.metrics import (  # noqa: E402
    cost_number,
    distinguishing_number,
    is_distinguishing_class,
)


def main() -> int:
    for n in (2, 3, 4):
        q = generate_family(FamilySpec("hypercube", n))
        aut = automorphism_group(q)
        want = 2**n * math.factorial(n)
        print(f"|Aut(Q{n})| = {aut.order}  (2^{n} * {n}! = {want})")
        assert aut.order == want

    q4 = generate_family(FamilySpec("hypercube", 4))
    d, _ = distinguishing_number(q4)
    print(f"D(Q4) = {d}")

    q5 = generate_family(FamilySpec("hypercube", 5))
    t0 = time.time()
    aut5 = automorphism_group(q5)
    rho, witness = cost_number(q5, aut=aut5)
    low = math.ceil(math.log2(5)) + 1
    high = 2 * math.ceil(math.log2(5)) - 1
    print(f"rho(Q5) = {rho}  (bracket [{low}, {high}])  in {time.time() - t0:.1f}s")
    print(f"minimum distinguishing class: {sorted(witness)}")
    assert low <= rho <= high
    assert rho == 5 and len(witness) == rho
    assert is_distinguishing_class(aut5, witness)
    return 0


if __name__ == "__main__":
    sys.exit(main())
