"""Undirected simple graphs on 0..n-1, graph6 I/O, named families, enumeration.

Adjacency is stored as one neighbor bitmask per vertex, which keeps graphs
hashable, immutable, and cheap to permute. graph6 follows the standard format
(B. McKay, https://users.cecs.anu.edu.au/~bdm/data/formats.txt: one record
per line, optional ">>graph6<<" header). Both directions take the one-byte
size form (n <= 62) and the four-byte long form, up to GRAPH6_MAX_N
vertices; the eight-byte form is not supported. A graph keeps its record
once encoded, and a parsed graph the record it was parsed from when that is
the one the encoder would write, so neither is encoded again.

The body packs the upper triangle column by column, six bits per character,
first bit most significant. Read with bit k of the stream as bit k of an
integer, column v is the v bits at offset v(v - 1)/2, which are exactly
adj[v] below v. So the codec moves whole columns: the parser turns the body
into that integer with str.translate and int(), and the encoder ORs each row
below its diagonal into a pending integer that it empties six bits at a time
through a table of bit-reversed digits. No loop of either, nor of the check
in Graph, runs once per vertex pair: each runs once per vertex, per edge or
per character, up to the n = 512 cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, permutations

from .config import DEFAULT_BUDGET
from .errors import DegreeError, FamilySpecError, ParseError, UnsupportedSizeError
from .perms import Perm, PermGroup, apply_mask

GRAPH6_HEADER = ">>graph6<<"
GRAPH6_MAX_N = 512

FAMILY_KINDS = ("path", "cycle", "complete", "hypercube", "clique_with_tails")

_FAMILY_MIN_PARAM = {
    "path": 1,
    "cycle": 3,
    "complete": 1,
    "hypercube": 1,
    "clique_with_tails": 1,
}


@dataclass(frozen=True)
class Graph:
    """Graph on vertex ids 0..n-1; adj[v] is the neighbor bitmask of v."""

    n: int
    adj: tuple[int, ...]

    def __post_init__(self):
        if len(self.adj) != self.n:
            raise ValueError("adjacency length must equal vertex count")
        adj = self.adj
        full = (1 << self.n) - 1
        below = 0  # bits of the rows below their diagonal
        symmetric = True
        for v, row in enumerate(adj):
            if row & ~full:
                raise ValueError(f"adjacency of {v} references vertices >= {self.n}")
            bit = 1 << v
            if row & bit:
                raise ValueError(f"self-loop at {v}")
            low = row & (bit - 1)
            below += low.bit_count()
            while low:
                u = low.bit_length() - 1
                if not adj[u] & bit:
                    symmetric = False
                    break
                low ^= 1 << u
        # with every bit below the diagonal mirrored above it, the rows hold
        # at least as many bits above as below, and exactly as many only
        # when every bit above is mirrored too; the pairwise loop names the
        # first pair that is not
        if not symmetric or 2 * below != sum(map(int.bit_count, adj)):
            for v in range(self.n):
                for u in range(v):
                    if (adj[v] >> u & 1) != (adj[u] >> v & 1):
                        raise ValueError(f"asymmetric adjacency between {u} and {v}")

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        adj = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at {u}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return cls(n, tuple(adj))

    @property
    def edge_count(self) -> int:
        return sum(map(int.bit_count, self.adj)) // 2

    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(
            (u, v) for v in range(self.n) for u in range(v) if self.adj[v] >> u & 1
        )

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    @cached_property
    def graph6(self) -> str:
        """The graph6 record under the current vertex numbering, encoded on
        first read unless parse_graph6 kept the record it parsed. It is not a
        field: equality, hashing and repr ignore it, and pickling keeps it."""
        return _encoded(self)


def _symmetric_graph(n: int, adj) -> Graph:
    """The Graph with rows adj, which the caller has built symmetric,
    loop-free and inside 0..n-1, made without Graph's check."""
    g = object.__new__(Graph)
    object.__setattr__(g, "n", n)
    object.__setattr__(g, "adj", tuple(adj))
    return g


def complement(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    return _symmetric_graph(
        g.n, [(full ^ row) & ~(1 << v) for v, row in enumerate(g.adj)]
    )


def induced_subgraph(g: Graph, s) -> tuple[Graph, dict[int, int]]:
    """Subgraph induced on vertex set s, each vertex taken once, plus the
    old->new index map; IndexError for a vertex outside 0..n-1."""
    old = sorted(set(s))
    for v in old:
        if not 0 <= v < g.n:
            raise IndexError(f"vertex {v} out of range for n={g.n}")
    index = {v: i for i, v in enumerate(old)}
    adj = [0] * len(old)
    for v in old:
        for u in old:
            if u != v and g.adj[v] >> u & 1:
                adj[index[v]] |= 1 << index[u]
    return Graph(len(old), tuple(adj)), index


def permuted(g: Graph, p: Perm) -> Graph:
    """Relabeled copy: vertex v of g becomes vertex p(v); DegreeError
    unless p has degree n."""
    if p.degree != g.n:
        raise DegreeError(f"degree mismatch: {p.degree} vs {g.n}")
    images = p.images
    adj = [0] * g.n
    for v, row in enumerate(g.adj):
        adj[images[v]] = apply_mask(images, row)
    return _symmetric_graph(g.n, adj)


# ---------------------------------------------------------------------------
# graph6
# ---------------------------------------------------------------------------


# the six bits of each graph6 character, first bit first
_DIGIT_BITS = str.maketrans({63 + d: format(d, "06b") for d in range(64)})
# the graph6 character whose six bits, first bit first, are bits 0..5 of d
_REVERSED_DIGIT = tuple(chr(63 + int(format(d, "06b")[::-1], 2)) for d in range(64))


def parse_graph6(text: str) -> Graph:
    """Parse one graph6 record (optional header stripped, EOL tolerated).

    The body becomes one integer whose bit k is bit k of the stream: each
    character is translated to its six bits, and the reversed bit string is
    read by int(). Column v is then the next v bits, adj[v] below v, and the
    rows above the diagonal are filled from the set bits of each column."""
    record = text.strip("\r\n")
    if record.startswith(GRAPH6_HEADER):
        record = record[len(GRAPH6_HEADER):]
    if not record:
        raise ParseError("empty record", offset=0)
    if min(record) < "?" or max(record) > "~":
        for i, ch in enumerate(record):
            if not 63 <= ord(ch) <= 126:
                raise ParseError(f"character {ch!r} outside printable range 63..126", offset=i)
    first = ord(record[0]) - 63
    if first == 63:
        # long size form: 126 then three 6-bit digits, big-endian
        if record[1:2] == chr(126):
            raise UnsupportedSizeError("eight-byte size form not supported")
        if len(record) < 4:
            raise ParseError("truncated long size header", offset=len(record))
        n = 0
        for i in range(1, 4):
            n = n << 6 | (ord(record[i]) - 63)
        if n > GRAPH6_MAX_N:
            raise UnsupportedSizeError(f"record encodes n={n}, beyond supported sizes")
        body_start = 4
    else:
        n = first
        body_start = 1
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    body = record[body_start:]
    if len(body) != nbytes:
        raise ParseError(
            f"body has {len(body)} bytes, expected {nbytes} for n={n}",
            offset=body_start + min(len(body), nbytes),
        )
    stream = int(body.translate(_DIGIT_BITS)[::-1], 2) if body else 0
    # pad bits beyond the triangle must be zero
    if stream >> nbits:
        raise ParseError("nonzero trailing padding bits", offset=body_start + nbytes - 1)
    g = _symmetric_graph(n, _rows_of_stream(n, stream))
    # the encoder writes the short size form exactly when n <= 62, and the
    # checks above make a record in that form the one it writes
    if (body_start == 1) == (n <= 62):
        g.__dict__["graph6"] = record  # what reading g.graph6 would cache
    return g


def _rows_of_stream(n: int, stream: int) -> list[int]:
    """The rows of the graph on n vertices whose upper triangle, column by
    column, is stream read from bit 0 up: column v is the next v bits, which
    are adj[v] below v, and the rows above the diagonal are filled from the
    set bits of each column. Each row then holds its column and the mirrors
    of the other columns' bits, and nothing else: symmetric, loop-free and
    inside 0..n-1 by construction."""
    adj = [0] * n
    for v in range(1, n):
        column = stream & ((1 << v) - 1)
        stream >>= v
        adj[v] = column
        bit = 1 << v
        while column:
            u = column.bit_length() - 1
            adj[u] |= bit
            column ^= 1 << u
    return adj


def encode_graph6(g: Graph) -> str:
    """graph6 record of g under its current vertex numbering, encoded at most
    once per graph (Graph.graph6)."""
    return g.graph6


def _encoded(g: Graph) -> str:
    """The graph6 record of g. Each row's bits below the diagonal, which are
    its column of the stream, are ORed into a pending integer above the bits
    not yet written; whole characters are then taken off its low end, six
    bits at a time, through _REVERSED_DIGIT. The pending integer stays
    shorter than one row plus six bits, so the work is linear in the record
    at every size up to GRAPH6_MAX_N."""
    n = g.n
    if n > GRAPH6_MAX_N:
        raise UnsupportedSizeError(f"graph6 supports n <= {GRAPH6_MAX_N}, got {n}")
    if n <= 62:
        out = [chr(n + 63)]
    else:
        # long size form: 126 then three 6-bit digits, big-endian
        out = [chr(126)] + [chr((n >> shift & 63) + 63) for shift in (12, 6, 0)]
    pending = npending = 0
    for v, row in enumerate(g.adj):
        pending |= (row & ((1 << v) - 1)) << npending
        npending += v
        while npending >= 6:
            out.append(_REVERSED_DIGIT[pending & 63])
            pending >>= 6
            npending -= 6
    if npending:
        out.append(_REVERSED_DIGIT[pending])
    return "".join(out)


def read_graph6_lines(lines):
    """Yield (line_number, Graph-or-error) for each nonempty line. The error
    is a ParseError or UnsupportedSizeError whose record attribute holds the
    stripped line."""
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip(" \t\n\r\v\f")  # ASCII only: no non-ASCII byte is dropped
        if not line or line == GRAPH6_HEADER:
            continue
        try:
            yield lineno, parse_graph6(line)
        except (ParseError, UnsupportedSizeError) as exc:
            exc.record = line
            yield lineno, exc


# ---------------------------------------------------------------------------
# named families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FamilySpec:
    """A named graph family and its integer parameter; the member may have
    at most GRAPH6_MAX_N vertices."""

    kind: str
    parameter: int

    def __post_init__(self):
        if self.kind not in FAMILY_KINDS:
            raise FamilySpecError(f"unknown family kind {self.kind!r}")
        p = self.parameter
        if p < _FAMILY_MIN_PARAM[self.kind]:
            raise FamilySpecError(
                f"{self.kind} requires parameter >= {_FAMILY_MIN_PARAM[self.kind]}, got {p}"
            )
        # 2**p, except that an exponent past the cap's bit length stops at a
        # power already above the cap, so a huge p forms no huge integer
        power = 1 << min(p, GRAPH6_MAX_N.bit_length())
        n = {"hypercube": power, "clique_with_tails": p * power}.get(self.kind, p)
        if n > GRAPH6_MAX_N:
            raise FamilySpecError(
                f"{self.kind} {p} has more than {GRAPH6_MAX_N} vertices, the graph6 limit"
            )


def generate_family(spec: FamilySpec) -> Graph:
    k = spec.kind
    p = spec.parameter
    if k == "path":
        return Graph.from_edges(p, [(i, i + 1) for i in range(p - 1)])
    if k == "cycle":
        return Graph.from_edges(p, [(i, (i + 1) % p) for i in range(p)])
    if k == "complete":
        return Graph.from_edges(p, combinations(range(p), 2))
    if k == "hypercube":
        n = 1 << p
        edges = [(v, v ^ (1 << b)) for v in range(n) for b in range(p) if v < v ^ (1 << b)]
        return Graph.from_edges(n, edges)
    if k == "clique_with_tails":
        return clique_with_tails(p)
    raise FamilySpecError(f"unknown family kind {k!r}")


def clique_with_tails(n: int) -> Graph:
    """Clique on 2**n vertices, each clique vertex heading a fresh path of
    n-1 further edges; total n * 2**n vertices.

    Vertex layout: clique vertices 0..2**n-1, then the tail of clique vertex
    i occupies tail_vertices(n, i).
    """
    size = 1 << n
    total = n * size
    edges = list(combinations(range(size), 2))
    for i in range(size):
        prev = i
        for t in tail_vertices(n, i):
            edges.append((prev, t))
            prev = t
    return Graph.from_edges(total, edges)


def tail_vertices(n: int, i: int) -> tuple[int, ...]:
    """Tail of clique vertex i in clique_with_tails(n), nearest first."""
    size = 1 << n
    return tuple(size + i * (n - 1) + j for j in range(n - 1))


def string_cells(n: int, i: int) -> tuple[int, ...]:
    """The n-vertex string headed by clique vertex i: itself, then its tail."""
    return (i,) + tail_vertices(n, i)


def string_color_class(n: int) -> frozenset[int]:
    """Color class that writes each clique vertex's index in binary along its
    string, most significant bit on the clique vertex itself."""
    cells = set()
    for i in range(1 << n):
        for j, v in enumerate(string_cells(n, i)):
            if i >> (n - 1 - j) & 1:
                cells.add(v)
    return frozenset(cells)


# ---------------------------------------------------------------------------
# exhaustive enumeration up to isomorphism
# ---------------------------------------------------------------------------
#
# A graph on 0..n-1 is packed into a bitmask over its C(n, 2) pair slots in
# colex order ((0,1),(0,2),(1,2),(0,3),...), slot 0 most significant, which is
# the graph6 bit order. The canonical mask of a graph is its least image over
# all vertex relabellings. Relabelling permutes the slots, so the isomorphism
# classes are the orbits of S_n on slot sets, and metrics' subset-orbit walk
# yields the first slot set of each orbit in combinations order. Walked over
# non-edge sets, that first set is the complement of the canonical mask: for
# slot sets S and T of one size, mask(S) < mask(T) exactly when min(S ^ T) is
# in T, which is exactly when the complement of S comes first in
# combinations order. This is orderly generation (B. McKay, "Isomorph-free
# exhaustive generation", J. Algorithms 26, 1998). S_n's slot action is held
# as a stabilizer chain, level i the transpositions (i x) for x > i, so the
# walk's maps_to is folded from n(n - 1)/2 slot images and no element of S_n
# is formed. enumerate_graphs is the one path to every corpus: n = 7 takes
# about 0.1 s and n = 8 about 1.3 s on a 2-vCPU host under Python 3.11.

ENUM_MAX_N = 8  # n = 9 would walk over bitsets 9! = 362,880 bits wide

def _pair_slots(n: int) -> list[tuple[int, int]]:
    return [(u, v) for v in range(1, n) for u in range(v)]


def _mask_representatives(n: int) -> tuple[int, ...]:
    """Canonical masks of all isomorphism classes on n vertices, ascending."""
    from .metrics import subset_orbit_representatives  # metrics imports graphs

    pairs = _pair_slots(n)
    nslots = len(pairs)
    slot = {}
    for idx, (u, v) in enumerate(pairs):
        slot[(u, v)] = slot[(v, u)] = idx
    levels = []
    if n > 2:  # S_2 fixes its one slot, and the products must be distinct
        for i in range(n - 1):
            swaps = []
            for x in range(i + 1, n):  # the transposition (i x)
                perm = list(range(n))
                perm[i], perm[x] = x, i
                swaps.append(tuple(slot[(perm[u], perm[v])] for u, v in pairs))
            levels.append(swaps)
    slot_action = PermGroup(nslots, levels=levels)
    full = (1 << nslots) - 1
    reps = []
    walk = subset_orbit_representatives(slot_action, range(nslots + 1), DEFAULT_BUDGET)
    for _, non_edges, _ in walk:
        # walk bit idx is slot idx, which is mask bit nslots - 1 - idx
        reps.append(int(format(full ^ non_edges, f"0{nslots}b")[::-1], 2))
    return tuple(sorted(reps))


def _mask_to_graph(n: int, mask: int) -> Graph:
    """The graph whose slot mask is mask. Read backwards, the mask's bits
    are the graph6 stream, so the parser's column walk fills the rows."""
    nslots = n * (n - 1) // 2
    stream = int(format(mask, f"0{nslots}b")[::-1], 2)
    return _symmetric_graph(n, _rows_of_stream(n, stream))


def enumerate_graphs(n: int):
    """All graphs on n vertices up to isomorphism, one representative each."""
    if not 1 <= n <= ENUM_MAX_N:
        raise UnsupportedSizeError(
            f"internal enumeration supports 1 <= n <= {ENUM_MAX_N}, got {n}"
        )
    for mask in _mask_representatives(n):
        yield _mask_to_graph(n, mask)


def count_isomorphism_classes(n: int) -> int:
    """Burnside count of graphs on n vertices up to isomorphism: average over
    all vertex permutations of 2**(number of pair orbits). Independent of the
    enumeration above; used as its oracle."""
    pairs = _pair_slots(n)
    index = {p: i for i, p in enumerate(pairs)}
    total = 0
    nperms = 0
    for perm in permutations(range(n)):
        seen = [False] * len(pairs)
        orbits = 0
        for i, (u, v) in enumerate(pairs):
            if seen[i]:
                continue
            orbits += 1
            a, b = u, v
            while True:
                a, b = perm[a], perm[b]
                j = index[(a, b) if a < b else (b, a)]
                if seen[j]:
                    break
                seen[j] = True
        total += 1 << orbits
        nperms += 1
    return total // nperms
