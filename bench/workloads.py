"""The benchmark's four workloads: how each builds its inputs, runs one pass
through the program, and checks that pass's output.

A workload receives the freshly imported ``symbreak`` package as ``sb`` and
touches the program only through it, so a traced run can rebind the
package's functions from outside. Every check compares against goldens
captured from the program (see capture_goldens.py) and also asserts facts
that hold for any seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import combinations
from math import comb
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDENS = Path(__file__).resolve().parent / "goldens"
CORPUS7_DATA = ROOT / "data" / "graphs7.g6"

# Subsets of one size tried when re-checking that a regular graph's Det or
# rho is minimal; larger searches are skipped.
MINIMALITY_SUBSETS = 2000


@dataclass
class Inputs:
    path: Path  # the graph6 file a pass reads
    records: list[str]  # its graph6 strings, in file order
    graphs: list  # the same graphs, parsed, for checks


@dataclass
class Check:
    graphs: int
    failed: set = field(default_factory=set)  # indices of failing input graphs
    facts: dict = field(default_factory=dict)  # seed-independent facts -> held
    exact: bool | None = None  # output equals the golden byte for byte

    @property
    def ok(self) -> bool:
        return not self.failed and all(self.facts.values()) and self.exact is not False


def write_graph6(path: Path, records: list[str]) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("".join(r + "\n" for r in records), encoding="ascii")
    return path


def run_cli(sb, argv: list[str], path: Path) -> tuple[int | None, str]:
    """Run the command line in this process on a graph6 file fed as stdin.
    Return the exit code and stdout. An exception counts as a failed pass:
    the code is None and whatever was printed before it stands."""
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with path.open(encoding="ascii") as fh:
                sys.stdin = fh
                try:
                    code = sb.cli.main(argv + ["-"])
                except Exception:  # reported and scored as failed graphs
                    traceback.print_exc()
                    code = None
    finally:
        sys.stdin = stdin
    if err.getvalue():
        sys.stderr.write(err.getvalue())
    return code, out.getvalue()


def match_lines(records: list[str], lines: list[str]) -> list[str | None]:
    """The report line of each record, matched by its leading graph6 string
    so that a missing line does not shift the rest; None when absent."""
    by = defaultdict(list)
    for line in lines:
        by[line.split(" ", 1)[0]].append(line)
    return [by[rec].pop(0) if by.get(rec) else None for rec in records]


def bad_lines(records: list[str], lines: list[str], golden: list[str]) -> set:
    """Indices of records whose report line is missing, shows '?', or
    differs from the golden line for that record."""
    got = match_lines(records, lines)
    want = match_lines(records, golden)
    return {
        i for i, (line, expected) in enumerate(zip(got, want))
        if line is None or "=?" in line or line != expected
    }


def fields_of(line: str) -> dict[str, str]:
    return dict(tok.split("=", 1) for tok in line.split()[1:])


def vertex_set(text: str) -> frozenset[int]:
    return frozenset() if text == "-" else frozenset(int(v) for v in text.split(","))


def line_digest(line: str) -> str:
    return hashlib.sha256(line.encode("ascii")).hexdigest()[:12]


# ---------------------------------------------------------------------------
# corpus7: the paper's main scan
# ---------------------------------------------------------------------------


def corpus7_graphs(sb) -> list:
    """Every graph on 1 to 7 vertices up to isomorphism: the package's own
    enumeration up to 6, then the checked-in 7-vertex corpus."""
    graphs = [g for n in range(1, 7) for g in sb.enumerate_graphs(n)]
    with CORPUS7_DATA.open(encoding="ascii") as fh:
        graphs += [sb.parse_graph6(line) for line in fh if line.strip()]
    return graphs


class Corpus7:
    """`symbreak scan --props --jobs 1` over all 1252 graphs on n <= 7. The
    corpus is fixed; the seed does not change it."""

    name = "corpus7"
    golden_file = GOLDENS / "corpus7.out"
    cycle_s = 1.0  # one pass and its check at the benchmark's commit

    def build(self, sb, seed: int, work: Path) -> Inputs:
        graphs = corpus7_graphs(sb)
        records = [sb.encode_graph6(g) for g in graphs]
        return Inputs(write_graph6(work / "corpus7.g6", records), records, graphs)

    def run(self, sb, inputs: Inputs):
        return run_cli(sb, ["scan", "--props", "--jobs", "1"], inputs.path)

    def golden(self, seed: int) -> str:
        return self.golden_file.read_text(encoding="ascii")

    def check(self, sb, inputs: Inputs, result, golden: str) -> Check:
        code, out = result
        lines = out.splitlines()
        summary_line = lines.pop() if lines and lines[-1].startswith("{") else ""
        golden_lines = golden.splitlines()
        golden_summary = golden_lines.pop()
        chk = Check(len(inputs.records), exact=out == golden)
        chk.failed = bad_lines(inputs.records, lines, golden_lines)
        try:
            summary = json.loads(summary_line)
        except ValueError:
            summary = {}
        for g6, _reason in summary.get("skipped", []):
            chk.failed.update(i for i, r in enumerate(inputs.records) if r == g6)
        for v in summary.get("violations", []):
            chk.failed.update(i for i, r in enumerate(inputs.records) if r == v["graph6"])
        chk.facts = {
            "exit code 0": code == 0,
            "summary matches golden": summary_line == golden_summary,
            "rho histogram {2: 292, 3: 42}": summary.get("rho_histogram") == {"2": 292, "3": 42},
            "no rho=4 witness": summary.get("rho4_witnesses") == [],
        }
        return chk


# ---------------------------------------------------------------------------
# large-groups: four highly symmetric graphs
# ---------------------------------------------------------------------------


def rook_graph(sb, a: int, b: int):
    """K_a box K_b: vertices (i, j) adjacent when they share a row or column."""
    n = a * b
    edges = [(u, v) for u, v in combinations(range(n), 2) if u // b == v // b or u % b == v % b]
    return sb.Graph.from_edges(n, edges)


def disjoint_cliques(sb, copies: int, size: int):
    edges = [
        (c * size + i, c * size + j)
        for c in range(copies)
        for i, j in combinations(range(size), 2)
    ]
    return sb.Graph.from_edges(copies * size, edges)


class LargeGroups:
    """`symbreak analyze` on Q5, K3xK6, K8 and 4K3 (|Aut| 3840 to 40320).
    Fixed graphs; the seed does not change them."""

    name = "large-groups"
    golden_file = GOLDENS / "large-groups.out"
    cycle_s = 5.0

    def build(self, sb, seed: int, work: Path) -> Inputs:
        graphs = [
            sb.generate_family(sb.FamilySpec("hypercube", 5)),
            rook_graph(sb, 3, 6),
            sb.generate_family(sb.FamilySpec("complete", 8)),
            disjoint_cliques(sb, 4, 3),
        ]
        records = [sb.encode_graph6(g) for g in graphs]
        return Inputs(write_graph6(work / "large-groups.g6", records), records, graphs)

    def run(self, sb, inputs: Inputs):
        return run_cli(sb, ["analyze"], inputs.path)

    def golden(self, seed: int) -> str:
        return self.golden_file.read_text(encoding="ascii")

    def check(self, sb, inputs: Inputs, result, golden: str) -> Check:
        code, out = result
        lines = out.splitlines()
        chk = Check(len(inputs.records), exact=out == golden)
        chk.failed = bad_lines(inputs.records, lines, golden.splitlines())
        q5 = match_lines(inputs.records[:1], lines)[0] or ""
        chk.facts = {"exit code 0": code == 0, "rho(Q5) = 5": " rho=5 " in q5}
        return chk


# ---------------------------------------------------------------------------
# regular: seeded random 3- and 4-regular graphs
# ---------------------------------------------------------------------------


def random_regular(sb, rng: random.Random, n: int, d: int):
    """A random connected simple d-regular graph on n vertices: points are
    paired at random, a pair that would make a loop or a repeated edge is
    redrawn, and the whole graph is drawn again when redrawing keeps failing
    or the result is disconnected."""
    while True:
        points = [v for v in range(n) for _ in range(d)]
        edges = set()
        while points:
            for _ in range(100):
                i, j = rng.sample(range(len(points)), 2)
                u, v = sorted((points[i], points[j]))
                if u != v and (u, v) not in edges:
                    break
            else:
                break
            edges.add((u, v))
            for k in sorted((i, j), reverse=True):
                points[k] = points[-1]
                points.pop()
        if not points:
            g = sb.Graph.from_edges(n, sorted(edges))
            if len(bfs_order(g)[1]) == 1:
                return g


class Regular:
    """`symbreak analyze` on random connected 3- and 4-regular graphs on 12
    vertices, drawn from the seed. Every vertex has the same degree
    invariant, so the automorphism search's filter prunes nothing; most
    groups are trivial."""

    name = "regular"
    golden_file = GOLDENS / "regular.json"
    cycle_s = 2.5
    n = 12
    count = 600  # graphs per pass, alternating degree 3 and 4

    def build(self, sb, seed: int, work: Path) -> Inputs:
        rng = random.Random(seed)
        graphs = [random_regular(sb, rng, self.n, 3 + i % 2) for i in range(self.count)]
        records = [sb.encode_graph6(g) for g in graphs]
        return Inputs(write_graph6(work / "regular.g6", records), records, graphs)

    def run(self, sb, inputs: Inputs):
        return run_cli(sb, ["analyze"], inputs.path)

    def golden(self, seed: int) -> list[str] | None:
        """Per-line digests captured for this seed, or None for a seed
        without goldens; its graphs are still re-verified."""
        seeds = json.loads(self.golden_file.read_text(encoding="ascii"))["seeds"]
        return seeds.get(str(seed))

    def check(self, sb, inputs: Inputs, result, golden: list[str] | None) -> Check:
        code, out = result
        got = match_lines(inputs.records, out.splitlines())
        chk = Check(len(inputs.records))
        chk.failed = {i for i, line in enumerate(got) if line is None or "=?" in line}
        if golden is not None:
            digests = [line and line_digest(line) for line in got]
            chk.exact = digests == golden
            chk.failed.update(i for i, d in enumerate(golden) if digests[i] != d)
        for i, (line, g) in enumerate(zip(got, inputs.graphs)):
            if i in chk.failed:
                continue
            try:
                ok = reverify(sb, g, fields_of(line))
            except (KeyError, ValueError):  # a malformed report line
                ok = False
            if not ok:
                chk.failed.add(i)
        chk.facts = {"exit code 0": code == 0}
        return chk


RIGID = {
    "aut": "1", "D": "1", "Det": "0", "rho": "0", "det2_d2": "0",
    "rho_in_2_4": "-", "det_set": "-", "rho_class": "-", "degenerate": "1",
}


def reverify(sb, g, f: dict[str, str]) -> bool:
    """Re-check one report line's witnesses with the public predicates, and
    that Det and rho are minimal where the smaller subsets are few."""
    if f["aut"] == "1":
        return all(f[k] == v for k, v in RIGID.items())
    aut = group_via_bfs_labelling(sb, g)
    if aut.order != int(f["aut"]):
        return False
    det_set = vertex_set(f["det_set"])
    if len(det_set) != int(f["Det"]) or not sb.is_determining_set(aut, det_set):
        return False
    if _smaller_exists(g.n, len(det_set), lambda s: sb.is_determining_set(aut, s)):
        return False
    if f["rho"] == "-":
        return int(f["D"]) >= 3 and not _smaller_exists(
            g.n, g.n // 2 + 1, lambda s: sb.is_distinguishing_class(aut, s), every_size=True
        )
    rho_class = vertex_set(f["rho_class"])
    return (
        f["D"] == "2"
        and len(rho_class) == int(f["rho"])
        and sb.is_distinguishing_class(aut, rho_class)
        and sb.is_distinguishing(aut, sb.Coloring.from_class(g.n, rho_class))
        and not _smaller_exists(
            g.n, len(rho_class), lambda s: sb.is_distinguishing_class(aut, s), every_size=True
        )
    )


def bfs_order(g) -> tuple[list[int], list[int]]:
    """Vertices in breadth-first order, and the root of each component."""
    order, roots, seen = [], [], set()
    for root in range(g.n):
        if root in seen:
            continue
        seen.add(root)
        roots.append(root)
        head = len(order)
        order.append(root)
        while head < len(order):
            v = order[head]
            head += 1
            for u in range(g.n):
                if g.adj[v] >> u & 1 and u not in seen:
                    seen.add(u)
                    order.append(u)
    return order, roots


def group_via_bfs_labelling(sb, g):
    """Aut(g), computed on a copy of g relabelled in breadth-first order and
    conjugated back. The search then meets every vertex next to one already
    placed, so it is fast, and it takes another path than the pass did."""
    order, _roots = bfs_order(g)
    pos = [0] * g.n
    for i, v in enumerate(order):
        pos[v] = i
    relabelled = sb.automorphism_group(sb.permuted(g, sb.Perm(tuple(pos))))
    back = [
        sb.Perm(tuple(order[p.images[pos[v]]] for v in range(g.n)))
        for p in relabelled.elements
    ]
    return sb.PermGroup.from_elements(g.n, back)


def _smaller_exists(n: int, k: int, pred, every_size: bool = False) -> bool:
    """Whether some subset of size k-1 (or, with every_size, of any size
    below k) satisfies pred; sizes with too many subsets are not searched."""
    sizes = range(k) if every_size else [k - 1] if k else []
    return any(
        pred(s)
        for size in sizes
        if comb(n, size) <= MINIMALITY_SUBSETS
        for s in combinations(range(n), size)
    )


# ---------------------------------------------------------------------------
# equiv: distinguishable-equivalence classes
# ---------------------------------------------------------------------------


class Equiv:
    """`equivalence_classes` over the 1252 graphs on n <= 7 followed by a
    relabelling of each one's complement, drawn from the seed. The partition
    does not depend on the seed."""

    name = "equiv"
    golden_file = GOLDENS / "equiv.json"
    cycle_s = 2.0

    def build(self, sb, seed: int, work: Path) -> Inputs:
        rng = random.Random(seed)
        base = corpus7_graphs(sb)
        graphs = list(base)
        for g in base:
            images = list(range(g.n))
            rng.shuffle(images)
            graphs.append(sb.permuted(sb.complement(g), sb.Perm(tuple(images))))
        records = [sb.encode_graph6(g) for g in graphs]
        return Inputs(write_graph6(work / "equiv.g6", records), records, graphs)

    def run(self, sb, inputs: Inputs) -> str:
        """The partition as one JSON line; empty when the pass raised."""
        try:
            with inputs.path.open(encoding="ascii") as fh:
                graphs = [g for _lineno, g in sb.graphs.read_graph6_lines(fh)]
            classes, unresolved = sb.equivalence_classes(graphs)
        except Exception:  # reported and scored as failed graphs
            traceback.print_exc()
            return ""
        return json.dumps({"classes": classes, "unresolved": unresolved}, separators=(",", ":"))

    def golden(self, seed: int) -> str:
        return self.golden_file.read_text(encoding="ascii").strip()

    def check(self, sb, inputs: Inputs, result, golden: str) -> Check:
        got = json.loads(result) if result else {"classes": [], "unresolved": []}
        want = json.loads(golden)
        chk = Check(len(inputs.records), exact=result == golden)
        class_of = {i: frozenset(c) for c in got["classes"] for i in c}
        want_of = {i: frozenset(c) for c in want["classes"] for i in c}
        chk.failed = {i for i in range(len(inputs.records)) if class_of.get(i) != want_of[i]}
        chk.failed.update(i for pair in got["unresolved"] for i in pair)
        half = len(inputs.records) // 2
        chk.facts = {
            "73 classes": len(got["classes"]) == 73,
            "0 unresolved": got["unresolved"] == [],
            "each graph shares a class with its relabelled complement": all(
                i + half in class_of.get(i, ()) for i in range(half)
            ),
        }
        return chk


WORKLOADS = {w.name: w for w in (Corpus7(), LargeGroups(), Regular(), Equiv())}
