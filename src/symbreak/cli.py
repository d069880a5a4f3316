"""Command-line front end.

Subcommands:
  analyze  one report line per graph6 record (file or stdin)
  family   print a named family member as graph6, or its report
  equiv    decide distinguishable equivalence of exactly two graphs
  scan     corpus scan: rho bound, pair rules, histogram, witness hunts

Exit codes: 0 clean, 1 data or violation errors, 2 usage errors.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from functools import partial
from itertools import chain, islice

from . import config
from .autgroup import automorphism_group
from .checks import ERROR_SKIP, ScanOptions, scan_corpus
from .equivalence import distinguishably_equivalent, obstruction
from .errors import (
    BudgetExceededError,
    FamilySpecError,
    GroupTooLargeError,
    SymbreakError,
    UnsupportedSizeError,
)
from .graphs import (
    ENUM_MAX_N,
    FAMILY_KINDS,
    FamilySpec,
    encode_graph6,
    enumerate_graphs,
    generate_family,
    read_graph6_lines,
)
from .metrics import analyze

# records the scan reads and parses at a time (see cmd_scan)
SCAN_BLOCK = 256


def _read_records(path: str):
    """Yield (line_number, graph-or-error) from a graph6 file or stdin. The
    input is decoded as latin-1, one character per byte, so a non-ASCII byte
    is a parse error of its own record only."""
    if path == "-":
        stream = sys.stdin
        if isinstance(stream, io.TextIOWrapper):
            stream.reconfigure(encoding="latin-1")
    else:
        stream = open(path, encoding="latin-1")
    try:
        yield from read_graph6_lines(stream)
    finally:
        if stream is not sys.stdin:
            stream.close()


def _read_all(path: str) -> list:
    """Every graph of a graph6 file or stdin; the first bad record raises."""
    graphs = []
    for lineno, item in _read_records(path):
        if isinstance(item, Exception):
            raise SymbreakError(f"line {lineno}: {item}") from item
        graphs.append(item)
    return graphs


def _emit_report(report, fmt: str):
    if fmt == "json":
        print(json.dumps(report.to_obj(), sort_keys=True))
    else:
        print(report.to_line())


def cmd_analyze(args) -> int:
    budget = _budget(args)
    status = 0
    for lineno, item in _read_records(args.input):
        if not isinstance(item, Exception):
            try:
                _emit_report(analyze(item, budget), args.format)
                continue
            except (GroupTooLargeError, UnsupportedSizeError) as exc:
                item = exc
        print(f"error: line {lineno}: {item}", file=sys.stderr)
        status = 1
        if args.fail_fast:
            break
    return status


def cmd_family(args) -> int:
    try:
        g = generate_family(FamilySpec(args.kind, args.parameter))
    except FamilySpecError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    if args.analyze:
        try:
            _emit_report(analyze(g, _budget(args)), args.format)
        except (GroupTooLargeError, UnsupportedSizeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        return 0
    print(encode_graph6(g))
    return 0


def cmd_equiv(args) -> int:
    graphs = _read_all(args.input)
    if len(graphs) != 2:
        print(f"usage error: need exactly 2 records, got {len(graphs)}", file=sys.stderr)
        return 2
    g1, g2 = graphs
    if g1.n != g2.n:
        print(f"not-equivalent vertex-count {g1.n} != {g2.n}")
        return 0
    a1, a2 = automorphism_group(g1), automorphism_group(g2)
    try:
        sigma = distinguishably_equivalent(g1, g2, _budget(args), aut1=a1, aut2=a2)
    except BudgetExceededError as exc:
        print(f"unknown search-exhausted {exc}")
        return 1
    if sigma is None:
        print(f"not-equivalent {obstruction(a1, a2) or 'no conjugating bijection'}")
        return 0
    # the empty mapping of two 0-vertex graphs leaves the word alone on its line
    print(" ".join(["equivalent", *(f"{v}->{sigma.images[v]}" for v in range(g1.n))]))
    return 0


def _scan_items(path: str):
    """The records of a graph6 file or stdin for scan_corpus: each graph, or
    the text and reason of a record that does not parse, also sent to stderr."""
    for lineno, item in _read_records(path):
        if isinstance(item, Exception):
            reason = f"{ERROR_SKIP}line {lineno}: {item}"
            print(reason, file=sys.stderr)
            item = (item.record, reason)
        yield item


def cmd_scan(args) -> int:
    # one pass: records are read (or enumerated) SCAN_BLOCK at a time, as a
    # block parsed in one loop runs faster than records parsed one by one
    # between automorphism searches; each line goes out as its record passes
    if args.enumerate is not None:
        if not 1 <= args.enumerate <= ENUM_MAX_N:
            print(f"usage error: --enumerate takes n in 1..{ENUM_MAX_N}", file=sys.stderr)
            return 2
        items = (g for n in range(1, args.enumerate + 1) for g in enumerate_graphs(n))
    else:
        items = _scan_items(args.input)
    blocks = iter(lambda: list(islice(items, SCAN_BLOCK)), [])  # until one is empty
    options = ScanOptions(budget=_budget(args), all_pairs=args.props)
    emit = partial(_emit_report, fmt=args.format)
    report = scan_corpus(chain.from_iterable(blocks), options, emit=emit)
    print(json.dumps(report.summary_obj(), sort_keys=True))
    return 0 if report.ok else 1


def _budget(args) -> config.Budget:
    if getattr(args, "budget", None) is None:
        return config.DEFAULT_BUDGET
    return config.Budget.uniform(args.budget)


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_common(p, reports=True):
    p.add_argument("--budget", type=positive_int, default=None, help="search budget cap")
    if reports:
        p.add_argument(
            "--format", choices=("lines", "json"), default="lines", help="output format"
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symbreak",
        description="Symmetry-breaking invariants of small graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="analyze graph6 records")
    p.add_argument("input", nargs="?", default="-", help="graph6 file, or - for stdin")
    p.add_argument("--fail-fast", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("family", help="generate or analyze a named family member")
    p.add_argument("kind", choices=FAMILY_KINDS)
    p.add_argument("parameter", type=int)
    p.add_argument("--analyze", action="store_true", help="print the report, not graph6")
    _add_common(p)
    p.set_defaults(func=cmd_family)

    p = sub.add_parser("equiv", help="decide distinguishable equivalence of two graphs")
    p.add_argument("input", nargs="?", default="-", help="file with exactly 2 records")
    _add_common(p, reports=False)
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("scan", help="scan a corpus")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("input", nargs="?", default=None, help="graph6 corpus file")
    source.add_argument("--enumerate", type=int, default=None, metavar="N",
                        help=f"scan all graphs on up to N vertices (N <= {ENUM_MAX_N})")
    p.add_argument("--props", action="store_true",
                   help="run pair rules on every size-2 determining pair, not just the witness")
    _add_common(p)
    # the scan runs in one process; --jobs is still accepted because the
    # benchmark's corpus7 workload passes it, and goes with the next change
    # to the benchmark
    p.add_argument("--jobs", type=positive_int, default=1,
                   help="accepted for compatibility; has no effect")
    p.set_defaults(func=cmd_scan)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already
        return int(exc.code or 0)
    try:
        return args.func(args)
    except BrokenPipeError:
        return 1
    except (OSError, SymbreakError) as exc:  # OSError: an unreadable input path
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
