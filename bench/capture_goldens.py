#!/usr/bin/env python3
"""Capture the benchmark's goldens from the program in src/.

    python3 bench/capture_goldens.py [workload ...]

Writes bench/goldens/: the full output of corpus7 (report lines and summary
JSON) and of large-groups, the partition of equiv, and for regular the
SHA-256 prefix of every report line of seeds 0..9. Only run this on a
commit whose answers are known to be right; the benchmark compares every
later version against these files.
"""

from __future__ import annotations

import json
import sys

import run
import workloads

REGULAR_SEEDS = range(10)


def main(argv: list[str]) -> int:
    names = argv or list(workloads.WORKLOADS)
    sys.path.insert(0, str(run.SRC))
    workloads.GOLDENS.mkdir(exist_ok=True)
    for name in names:
        wl = workloads.WORKLOADS[name]
        sb = run.load_program()
        if name == "regular":
            seeds = {}
            for seed in REGULAR_SEEDS:
                _code, out = wl.run(sb, wl.build(sb, seed, run.WORK))
                seeds[str(seed)] = [workloads.line_digest(line) for line in out.splitlines()]
            text = json.dumps({"digest": "sha256 hex prefix of each report line", "seeds": seeds})
        elif name == "equiv":
            text = wl.run(sb, wl.build(sb, 0, run.WORK))
        else:
            _code, text = wl.run(sb, wl.build(sb, 0, run.WORK))
        if not text.endswith("\n"):
            text += "\n"
        wl.golden_file.write_text(text, encoding="ascii")
        print(f"wrote {wl.golden_file}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
