#!/usr/bin/env python3
"""Regenerate data/graphs7.g6: one graph6 record per isomorphism class of
graphs on 7 vertices, in canonical-mask order.

The classes come from the subset-orbit walk over the action of S_7 on the 21
vertex pairs (see symbreak.graphs). The class count is cross-checked against
an independent Burnside count (average of 2**(pair orbits) over all vertex
permutations), and the records against duplicates, before writing.

Usage:
    python scripts/generate_corpus.py [outfile]
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from symbreak.graphs import (  # noqa: E402
    _mask_representatives,
    _mask_to_graph,
    count_isomorphism_classes,
    encode_graph6,
)


def main() -> int:
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else (
        Path(__file__).resolve().parent.parent / "data" / "graphs7.g6"
    )
    t0 = time.time()
    reps = _mask_representatives(7)
    expected = count_isomorphism_classes(7)
    if len(reps) != expected:
        print(f"FATAL: enumerated {len(reps)} classes, Burnside says {expected}")
        return 1
    lines = [encode_graph6(_mask_to_graph(7, m)) for m in reps]
    if len(set(lines)) != len(lines):
        print("FATAL: duplicate graph6 records")
        return 1
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text("\n".join(lines) + "\n", encoding="ascii")
    print(f"wrote {len(lines)} records to {out} in {time.time() - t0:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
