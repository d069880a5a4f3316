#!/usr/bin/env python3
"""Regenerate data/graphs{N}.g6: one graph6 record per isomorphism class of
graphs on N vertices (default 7), in the order enumerate_graphs yields them.

The class count is cross-checked against an independent Burnside count
(average of 2**(pair orbits) over all vertex permutations), and the records
against duplicates, before writing. N runs up to graphs.ENUM_MAX_N; N = 8
(12,346 classes) takes a few seconds.

Usage:
    python scripts/generate_corpus.py [--n N] [outfile]
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from symbreak.graphs import (  # noqa: E402
    ENUM_MAX_N,
    count_isomorphism_classes,
    encode_graph6,
    enumerate_graphs,
)


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Write one graph6 record per isomorphism class on N vertices."
    )
    parser.add_argument("--n", type=int, default=7, choices=range(1, ENUM_MAX_N + 1),
                        metavar="N", help=f"vertex count, 1 to {ENUM_MAX_N} (default 7)")
    parser.add_argument("outfile", nargs="?", type=Path,
                        help="output path (default data/graphs{N}.g6)")
    args = parser.parse_args()
    n = args.n
    out = args.outfile or (
        Path(__file__).resolve().parent.parent / "data" / f"graphs{n}.g6"
    )
    t0 = time.time()
    lines = [encode_graph6(g) for g in enumerate_graphs(n)]
    expected = count_isomorphism_classes(n)
    if len(lines) != expected:
        print(f"FATAL: enumerated {len(lines)} classes, Burnside says {expected}")
        return 1
    if len(set(lines)) != len(lines):
        print("FATAL: duplicate graph6 records")
        return 1
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text("\n".join(lines) + "\n", encoding="ascii")
    print(f"wrote {len(lines)} records to {out} in {time.time() - t0:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
