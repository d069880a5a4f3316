#!/usr/bin/env python3
"""Regenerate data/graphs{N}.g6: one graph6 record per isomorphism class of
graphs on N vertices (default 7), in canonical-mask order.

The classes come from the subset-orbit walk over the action of S_N on the
N(N-1)/2 vertex pairs (see symbreak.graphs). The class count is cross-checked
against an independent Burnside count (average of 2**(pair orbits) over all
vertex permutations), and the records against duplicates, before writing.
N = 8 (12,346 classes) takes a few seconds; N = 9 would place 9! group
elements and is out of reach, so N is at most 8.

Usage:
    python scripts/generate_corpus.py [--n N] [outfile]
"""

import argparse
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
    parser = argparse.ArgumentParser(
        description="Write one graph6 record per isomorphism class on N vertices."
    )
    parser.add_argument("--n", type=int, default=7, choices=range(1, 9), metavar="N",
                        help="vertex count, 1 to 8 (default 7)")
    parser.add_argument("outfile", nargs="?", type=Path,
                        help="output path (default data/graphs{N}.g6)")
    args = parser.parse_args()
    n = args.n
    out = args.outfile or (
        Path(__file__).resolve().parent.parent / "data" / f"graphs{n}.g6"
    )
    t0 = time.time()
    reps = _mask_representatives(n)
    expected = count_isomorphism_classes(n)
    if len(reps) != expected:
        print(f"FATAL: enumerated {len(reps)} classes, Burnside says {expected}")
        return 1
    lines = [encode_graph6(_mask_to_graph(n, m)) for m in reps]
    if len(set(lines)) != len(lines):
        print("FATAL: duplicate graph6 records")
        return 1
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text("\n".join(lines) + "\n", encoding="ascii")
    print(f"wrote {len(lines)} records to {out} in {time.time() - t0:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
