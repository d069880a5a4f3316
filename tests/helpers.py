"""Shared oracles and generators for the test suite.

Everything here is deliberately independent of the library's search code:
brute-force filters over all n! permutations, all subsets, all colorings,
and a from-scratch graph6 codec. These are the reference implementations
the fast paths are checked against. The two lemma checks at the end are
the exception: they run the library's searches on a lemma's hypotheses.
"""

from functools import cached_property
from itertools import combinations, permutations, product
from math import factorial
from operator import itemgetter

from symbreak import autgroup
from symbreak.checks import RULES
from symbreak.config import DEFAULT_BUDGET
from symbreak.equivalence import distinguishably_equivalent
from symbreak.errors import DegreeError, NotApplicableError
from symbreak.graphs import FamilySpec, Graph, generate_family, induced_subgraph
from symbreak.metrics import distinguishing_number
from symbreak.perms import Perm, PermGroup, apply_mask


# -- permutations from first principles ---------------------------------------


def from_cycles(n: int, cycle_list) -> Perm:
    """The permutation of 0..n-1 sending each cycle member to the next."""
    images = list(range(n))
    for cyc in cycle_list:
        for i, v in enumerate(cyc):
            images[v] = cyc[(i + 1) % len(cyc)]
    return Perm(tuple(images))


def cycles(p: Perm) -> tuple[tuple[int, ...], ...]:
    """Disjoint cycles of p covering 0..n-1, singletons included, each
    starting at its least member, ordered by least member."""
    seen = [False] * p.degree
    out = []
    for start in range(p.degree):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        v = p.images[start]
        while v != start:
            cyc.append(v)
            seen[v] = True
            v = p.images[v]
        out.append(tuple(cyc))
    return tuple(out)


def compose(p: Perm, q: Perm) -> Perm:
    """p after q: result(v) = p(q(v)); q is applied first."""
    if p.degree != q.degree:
        raise DegreeError(f"degree mismatch: {p.degree} vs {q.degree}")
    return Perm(tuple(p.images[x] for x in q.images))


def inverse(p: Perm) -> Perm:
    images = [0] * p.degree
    for v, img in enumerate(p.images):
        images[img] = v
    return Perm(tuple(images))


class ElementList:
    """Image tuples on 0..degree-1 kept as given, in order: not necessarily
    closed, duplicate-free or holding the identity. It has the views of
    PermGroup that the predicates, the pair rules and the oracles here read,
    each computed from the tuples by its definition, so that its maps_to is
    also the oracle for the table PermGroup folds from its levels."""

    def __init__(self, degree: int, images):
        self.degree, self.images = degree, tuple(images)

    @property
    def order(self) -> int:
        return len(self.images)

    @cached_property
    def elements(self) -> tuple[Perm, ...]:
        return tuple(map(Perm, self.images))

    @cached_property
    def image_set(self) -> frozenset[tuple[int, ...]]:
        return frozenset(self.images)

    @cached_property
    def maps_to(self) -> tuple[tuple[int, ...], ...]:
        """maps_to[u][x], the bitset of the elements sending u to x: per
        vertex u, the column of u's images, last element first, translated
        to "1" where the image is x and "0" elsewhere, spells in binary a
        bitset with bit i for images[i]. An image is spelled as one byte."""
        n, images = self.degree, self.images
        if not images:  # no element sends anything anywhere, and int("", 2) raises
            return ((0,) * n,) * n
        marks = [b"0" * x + b"1" + b"0" * (255 - x) for x in range(n)]
        columns = (bytes(map(itemgetter(u), reversed(images))) for u in range(n))
        return tuple(tuple(int(col.translate(m), 2) for m in marks) for col in columns)

    @cached_property
    def identity_bits(self) -> int:
        """The bitset of the elements that fix every vertex."""
        bits = (1 << self.order) - 1
        for u, row in enumerate(self.maps_to):
            bits &= row[u]
        return bits


def validate_group(group: PermGroup) -> None:
    """ValueError unless group's image tuples are bijections that form a
    group: the identity, no duplicates, closure under products and inverses,
    and an order dividing degree!. Quadratic in the order."""
    n, images = group.degree, group.image_set
    for t in group.images:
        if sorted(t) != list(range(n)):
            raise ValueError(f"not a bijection on 0..{n - 1}: {t}")
    if tuple(range(n)) not in images:
        raise ValueError("identity missing")
    if len(images) != group.order:
        raise ValueError("duplicate elements")
    for t in group.images:
        if tuple(sorted(range(n), key=t.__getitem__)) not in images:
            raise ValueError(f"inverse of {t} missing")
        for u in group.images:
            if tuple(t[x] for x in u) not in images:
                raise ValueError(f"product {t}*{u} missing")
    if factorial(n) % group.order:
        raise ValueError("order does not divide degree factorial")


def brute_automorphisms(g: Graph) -> list[tuple[int, ...]]:
    """Filter all n! permutations for adjacency preservation."""
    out = []
    for per in permutations(range(g.n)):
        if all(
            (g.adj[v] >> u & 1) == (g.adj[per[v]] >> per[u] & 1)
            for v in range(g.n)
            for u in range(v)
        ):
            out.append(per)
    return sorted(out)


def brute_group(g: Graph) -> PermGroup:
    return PermGroup.from_elements(g.n, (Perm(t) for t in brute_automorphisms(g)))


def preserves_adjacency(g: Graph, p: Perm) -> bool:
    """p sends every pair of vertices to a pair with the same adjacency."""
    for v in range(g.n):
        for u in range(v):
            if (g.adj[v] >> u & 1) != (g.adj[p.images[v]] >> p.images[u] & 1):
                return False
    return True


def conjugate_group(aut: PermGroup, sigma: Perm) -> PermGroup:
    """sigma . aut . sigma^-1 as an explicit group on the image labels."""
    out = []
    s = sigma.images
    for p in aut.elements:
        img = [0] * aut.degree
        for v in range(aut.degree):
            img[s[v]] = s[p.images[v]]
        out.append(Perm(tuple(img)))
    return PermGroup.from_elements(aut.degree, out)


def brute_is_distinguishing(g: Graph, colors: tuple[int, ...]) -> bool:
    """No non-identity automorphism preserves the coloring."""
    for per in brute_automorphisms(g):
        if per == tuple(range(g.n)):
            continue
        if all(colors[per[v]] == colors[v] for v in range(g.n)):
            return False
    return True


def closure_orbits(group: PermGroup) -> tuple[frozenset[int], ...]:
    """Orbits by closing each vertex under the elements step by step, sorted
    by least member."""
    blocks = set()
    for v in range(group.degree):
        orbit, frontier = {v}, [v]
        while frontier:
            u = frontier.pop()
            for p in group.elements:
                if p.images[u] not in orbit:
                    orbit.add(p.images[u])
                    frontier.append(p.images[u])
        blocks.add(frozenset(orbit))
    return tuple(sorted(blocks, key=min))


# The predicates' definitions, one element at a time, over whatever element
# list the group holds (not necessarily closed, duplicate-free or containing
# the identity): each holds iff no non-identity element survives.


def cycle_broken(p: Perm, colors) -> bool:
    """Some cycle of p carries two distinct colors."""
    return any(len({colors[v] for v in cyc}) > 1 for cyc in cycles(p))


def per_element_is_determining_set(group: PermGroup, s) -> bool:
    return not any(
        all(p.images[v] == v for v in s) for p in group.elements if not p.is_identity
    )


def per_element_is_distinguishing_class(group: PermGroup, s) -> bool:
    s = set(s)
    return not any(
        {p.images[v] for v in s} == s for p in group.elements if not p.is_identity
    )


def per_element_is_distinguishing(group: PermGroup, colors) -> bool:
    return all(cycle_broken(p, colors) for p in group.elements if not p.is_identity)


def per_element_cycle_types(group: PermGroup) -> tuple[tuple[int, ...], ...]:
    """Each element's cycle lengths, sorted descending, from cycles()."""
    return tuple(
        tuple(sorted((len(c) for c in cycles(p)), reverse=True)) for p in group.elements
    )


def per_element_pair_rules(group: PermGroup, x: int, y: int, d):
    """The pair rules of symbreak.checks for the anchors x and y at
    distinguishing number d, checked by scanning the image tuples for each
    pattern: the status of each rule, and per rule the set of its violations
    as (perms, sorted context items). Unlike check_pair_rules it does not
    check that {x, y} is determining, so pair_fixers_trivial can fail here."""
    n = group.degree
    elems = group.images
    ident = tuple(range(n))
    statuses = dict.fromkeys(RULES, "pass")
    flagged = {rule: set() for rule in RULES}

    def flag(rule, perms, **context):
        statuses[rule] = "fail"
        flagged[rule].add((tuple(perms), tuple(sorted(dict(context, x=x, y=y).items()))))

    def rot3(t, a, b, c):
        return t[a] == b and t[b] == c and t[c] == a

    swaps = [t for t in elems if t[x] == y and t[y] == x]
    half_x: dict[int, list] = {}  # d -> the elements exchanging x and d, y fixed
    half_y: dict[int, list] = {}
    for t in elems:
        if t[y] == y and t[x] != x and t[t[x]] == x:
            half_x.setdefault(t[x], []).append(t)
        if t[x] == x and t[y] != y and t[t[y]] == y:
            half_y.setdefault(t[y], []).append(t)

    for t in elems:
        if t != ident and t[x] == x and t[y] == y:
            flag("pair_fixers_trivial", [t])
    swap_like = swaps + [t for lst in [*half_x.values(), *half_y.values()] for t in lst]
    for t in swap_like:
        if any(t[t[v]] != v for v in range(n)):
            flag("swaps_are_involutions", [t])
    if len(swaps) > 1:
        flag("swap_extension_unique", swaps[:2])

    for s in swaps:
        cycles2 = [
            (v, w)
            for v, w in enumerate(s)
            if v < w and s[w] == v and v not in (x, y) and w not in (x, y)
        ]
        for a, b in cycles2:
            for d1, d2 in ((a, b), (b, a)):
                if d1 in half_x:
                    for t in elems:
                        if rot3(t, x, y, d1) or rot3(t, x, d1, y):
                            flag("no_rotation_through_pair", [s, half_x[d1][0], t], d1=d1)
                    if d1 in half_y:
                        flag(
                            "no_same_anchor_mirror",
                            [s, half_x[d1][0], half_y[d1][0]],
                            d1=d1,
                        )
                if (d1 in half_x) != (d2 in half_y):
                    flag("partner_mirror_exists", [s], d1=d1, d2=d2)
        if len(cycles2) >= 2:
            dvals = [v for cyc in cycles2 for v in cyc]
            for di in dvals:
                if di not in half_x:
                    continue
                for dj in dvals:
                    if dj == di:
                        continue
                    for t in elems:
                        if (
                            t[y] == y and (rot3(t, x, di, dj) or rot3(t, x, dj, di))
                        ) or (t[x] == x and (rot3(t, y, di, dj) or rot3(t, y, dj, di))):
                            flag(
                                "no_anchor_chain_rotation",
                                [s, half_x[di][0], t],
                                di=di,
                                dj=dj,
                            )

    for d1, d2 in combinations(sorted(half_x), 2):
        for t in half_x[d1]:
            if t[d2] == d2:
                flag("side_swaps_move_rivals", [t], d1=d1, d2=d2)
        for t in half_x[d2]:
            if t[d1] == d1:
                flag("side_swaps_move_rivals", [t], d1=d2, d2=d1)

    if d == 2:
        bare = tuple(y if v == x else x if v == y else v for v in range(n))
        if bare in group.image_set:
            flag("bare_swap_absent", [bare])
    else:
        statuses["bare_swap_absent"] = "skipped"
    return statuses, flagged


def first_subsets(group: PermGroup, max_size: int) -> list[tuple[int, int, int]]:
    """(k, mask, |setwise stabilizer|) for each subset of size k <= max_size,
    in combinations order, that no element maps to an earlier subset of its
    size, with the number of elements mapping it onto itself. Subsets are
    visited in combinations order, so a subset comes first exactly when it
    is in no orbit met before it."""
    out = []
    for k in range(max_size + 1):
        seen = set()  # the orbits met so far, each subset as a sorted tuple
        for s in combinations(range(group.degree), k):
            if s in seen:
                continue
            images = [tuple(sorted(t[v] for v in s)) for t in group.images]
            seen.update(images)
            out.append((k, sum(1 << v for v in s), images.count(s)))
    return out


def reference_coloring_searches(group):
    """(k, first, nodes) for k = 3, 4, ... up to the first k with a
    distinguishing k-coloring, each from a depth-first search over the
    k-colorings in canonical form (a color id appears only after all smaller
    ids), color ids tried in increasing order: first is the first
    distinguishing coloring, or None, and nodes counts every color tried at
    a vertex. Coloring v is doomed iff an element that moves v and fixes
    every vertex above it sends each colored vertex into its own color
    class; each node is tested from scratch on group.maps_to, with those
    elements read off the image tuples."""
    n, maps_to = group.degree, group.maps_to
    last_moved = [0] * n
    for i, t in enumerate(group.images):
        v = n - 1
        while v >= 0 and t[v] == v:
            v -= 1
        if v >= 0:
            last_moved[v] |= 1 << i
    colors: list[int] = []

    def doomed(v: int) -> bool:
        keep = last_moved[v]
        for c in set(colors):
            members = [u for u, cu in enumerate(colors) if cu == c]
            for u in members:
                keep &= sum(maps_to[u][x] for x in members)
        return keep != 0

    def extend(k: int) -> bool:
        nonlocal nodes
        v = len(colors)
        if v == n:
            return True
        for c in range(min(max(colors, default=-1) + 1, k - 1) + 1):
            nodes += 1
            colors.append(c)
            if not doomed(v) and extend(k):
                return True
            colors.pop()
        return False

    for k in range(3, n + 1):
        nodes = 0
        if extend(k):
            yield k, tuple(colors), nodes
            return
        yield k, None, nodes


def slot_mask(g: Graph) -> int:
    """The pair slots (0,1),(0,2),(1,2),(0,3),... of g as bits, the first
    slot most significant: the graph6 bit string read as a binary number."""
    mask = 0
    for v in range(1, g.n):
        for u in range(v):
            mask = mask << 1 | (g.adj[v] >> u & 1)
    return mask


def canonical_mask(n: int, mask: int) -> int:
    """The least slot mask over all n! relabellings of the graph on n
    vertices whose slot mask is mask."""
    pairs = [(u, v) for v in range(1, n) for u in range(v)]
    bit = {p: len(pairs) - 1 - i for i, p in enumerate(pairs)}
    edges = [p for p in pairs if mask >> bit[p] & 1]
    least = mask
    for per in permutations(range(n)):
        img = sum(1 << bit[min(per[u], per[v]), max(per[u], per[v])] for u, v in edges)
        least = min(least, img)
    return least


def brute_distinguishing_number(g: Graph) -> int:
    for k in range(1, g.n + 1):
        for colors in product(range(k), repeat=g.n):
            if brute_is_distinguishing(g, colors):
                return k
    raise AssertionError("all-distinct coloring always distinguishes")


def brute_determining_number(g: Graph) -> int:
    auts = brute_automorphisms(g)
    ident = tuple(range(g.n))
    for k in range(g.n + 1):
        for s in combinations(range(g.n), k):
            if all(per == ident for per in auts if all(per[v] == v for v in s)):
                return k
    raise AssertionError("the full vertex set always determines")


def brute_cost_number(g: Graph):
    """Minimum size of the smaller color class over all distinguishing
    2-colorings, or None."""
    best = None
    for code in range(1 << g.n):
        colors = tuple(code >> v & 1 for v in range(g.n))
        if brute_is_distinguishing(g, colors):
            size = min(sum(colors), g.n - sum(colors))
            best = size if best is None else min(best, size)
    return best


def per_subset_min_class_size(aut: PermGroup, n: int):
    """Smallest size over all 2-colorings of the smaller color class of a
    distinguishing 2-coloring, or None: every subset of up to n/2 vertices,
    one at a time, against every element but the identity."""
    non_id = [t for t in aut.images if t != tuple(range(n))]
    for k in range(n // 2 + 1):
        for comb in combinations(range(n), k):
            mask = 0
            for v in comb:
                mask |= 1 << v
            if all(apply_mask(t, mask) != mask for t in non_id):
                return k
    return None


def brute_equivalent(g1: Graph, g2: Graph):
    """Try all n! bijections for one conjugating Aut(g1) onto Aut(g2)."""
    if g1.n != g2.n:
        return None
    a1 = brute_automorphisms(g1)
    a2 = set(brute_automorphisms(g2))
    if len(a1) != len(a2):
        return None
    for per in permutations(range(g1.n)):
        ok = True
        for a in a1:
            img = [0] * g1.n
            for v in range(g1.n):
                img[per[v]] = per[a[v]]
            if tuple(img) not in a2:
                ok = False
                break
        if ok:
            return per
    return None


def unseeded_unit_refined(g: Graph, trace: list[int], ref=None):
    """The unit partition refined by itself, with no seed: the root
    refinement of a graph with more than one degree before it started from
    the degree classes."""
    every = (1 << g.n) - 1
    return autgroup._refine(g.adj, [every], [every], trace, ref)


def scanned_orbit_heads(B, fix: int, size: int, used: list[bool]) -> list[int]:
    """The least point of each orbit of exactly size points under the
    elements fix of the group whose maps_to is B, where that point is not
    used, in ascending order: every orbit {y : B[x][y] & fix} is formed."""
    heads = []
    seen = [False] * len(B)
    for x, row in enumerate(B):
        if not seen[x]:
            orbit = [y for y, b in enumerate(row) if b & fix]
            for y in orbit:
                seen[y] = True
            if len(orbit) == size and not used[x]:
                heads.append(x)
    return heads


# -- independent graph6 codec ------------------------------------------------


def reference_encode_graph6(g: Graph) -> str:
    assert g.n <= 512
    bits = "".join(
        "1" if g.adj[v] >> u & 1 else "0" for v in range(1, g.n) for u in range(v)
    )
    bits += "0" * (-len(bits) % 6)
    if g.n <= 62:
        size = format(g.n, "06b")
    else:  # long size form: 126, then n in 18 bits
        size = "111111" + format(g.n, "018b")
    bits = size + bits
    return "".join(chr(int(bits[i : i + 6], 2) + 63) for i in range(0, len(bits), 6))


def reference_decode_graph6(record: str) -> tuple[int, set[tuple[int, int]]]:
    bits = "".join(format(ord(ch) - 63, "06b") for ch in record)
    if bits.startswith("111111"):
        n = int(bits[6:24], 2)
        bits = bits[24:]
    else:
        n = int(bits[:6], 2)
        bits = bits[6:]
    edges = set()
    k = 0
    for v in range(1, n):
        for u in range(v):
            if bits[k] == "1":
                edges.add((u, v))
            k += 1
    return n, edges


def first_asymmetric_pair(n: int, adj) -> tuple[int, int] | None:
    """The first pair u < v, by v and then by u, that one of adj[u] and
    adj[v] holds and the other does not; None when the rows are symmetric.
    Graph names this pair when it refuses the rows."""
    for v in range(n):
        for u in range(v):
            if (adj[v] >> u & 1) != (adj[u] >> v & 1):
                return u, v
    return None


# -- fixed graphs ------------------------------------------------------------


def net_graph() -> Graph:
    """Triangle with one pendant vertex hanging off each corner."""
    return Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 4), (2, 5)])


def random_graph(rng, n: int) -> Graph:
    edges = [(u, v) for v in range(n) for u in range(v) if rng.random() < 0.5]
    return Graph.from_edges(n, edges)


def disjoint_cliques(copies: int, size: int) -> Graph:
    """copies disjoint copies of K_size."""
    edges = [
        (i * size + u, i * size + v)
        for i in range(copies)
        for u, v in combinations(range(size), 2)
    ]
    return Graph.from_edges(copies * size, edges)


def latin_square_graph(k: int) -> Graph:
    """The Latin-square graph of Z_k: the cells (r, c) of its addition table,
    adjacent when they share a row, a column or a symbol r + c mod k.
    Strongly regular, SRG(k^2, 3(k - 1), k, 6) for k > 2."""
    n = k * k
    return Graph.from_edges(
        n,
        [
            (a, b)
            for b in range(n)
            for a in range(b)
            if a // k == b // k or a % k == b % k or (a // k + a % k - b // k - b % k) % k == 0
        ],
    )


def mid_group_graphs() -> dict[str, Graph]:
    """Graphs whose groups (order 48 to 5040) are larger than any on a few
    vertices but small enough to sweep in a test."""
    rook = [(u, v) for v in range(9) for u in range(v) if u // 3 == v // 3 or u % 3 == v % 3]
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return {
        "K3xK3": Graph.from_edges(9, rook),
        "Q3": generate_family(FamilySpec("hypercube", 3)),
        "Petersen": Graph.from_edges(10, outer + spokes + inner),
        "2K4": disjoint_cliques(2, 4),
        "3K3": disjoint_cliques(3, 3),
        "Q4": generate_family(FamilySpec("hypercube", 4)),
        "K7": generate_family(FamilySpec("complete", 7)),
    }


def is_connected(g: Graph) -> bool:
    reached, frontier = 1, 1  # vertex 0's component, as bitmasks
    while frontier:
        nbrs = 0
        for v in range(g.n):
            if frontier >> v & 1:
                nbrs |= g.adj[v]
        frontier = nbrs & ~reached
        reached |= frontier
    return g.n == 0 or reached == (1 << g.n) - 1


def random_regular(rng, n: int, d: int) -> Graph:
    """A random connected simple d-regular graph on n vertices: points are
    paired at random, a pair that would make a loop or a repeated edge is
    redrawn, and the whole graph is drawn again when redrawing keeps failing
    or the result is disconnected. The same draws as the benchmark's
    generator, so a seed gives the same graph."""
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
            g = Graph.from_edges(n, sorted(edges))
            if is_connected(g):
                return g


def two_diamonds() -> Graph:
    """Two copies of K4 - e, on 0..3 and 4..7 without the edges 2-3 and
    6-7, joined at their degree-2 vertices by 2-6 and 3-7: a cubic graph on
    8 vertices. Two triangles pass through each of 0, 1, 4 and 5, one
    through each of the others, and |Aut| = 16."""
    diamond = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]
    edges = diamond + [(u + 4, v + 4) for u, v in diamond]
    return Graph.from_edges(8, edges + [(2, 6), (3, 7)])


# -- lemma checks ------------------------------------------------------------
# Both read Aut through autgroup.automorphism_group at each call, so that a
# test can replace or count it there.


def check_restriction(g: Graph, h) -> bool:
    """For vertex sets h whose members all share the same neighbors outside h:
    every distinguishing coloring of g restricts to a distinguishing coloring
    of the subgraph induced on h.

    Checked as the lemma's proof step: since the members of h share their
    outside neighbors, every automorphism of g[h], extended by the identity
    outside h, is an automorphism of g. A non-identity automorphism of g[h]
    that preserved the restriction would then extend to one of g preserving
    the coloring, for any number of colors. Returns True iff every extension
    is in Aut(g).
    """
    h = sorted(set(h))
    if not h:
        raise NotApplicableError("h must be a nonempty vertex set")
    if h[0] < 0 or h[-1] >= g.n:
        raise NotApplicableError(f"h holds a vertex outside 0..{g.n - 1}")
    hmask = 0
    for v in h:
        hmask |= 1 << v
    outside = [g.adj[v] & ~hmask for v in h]
    if any(o != outside[0] for o in outside):
        raise NotApplicableError("members of h differ in their outside neighborhoods")

    aut_g = autgroup.automorphism_group(g).image_set
    sub, _ = induced_subgraph(g, h)  # vertex i of sub is h[i]
    for t in autgroup.automorphism_group(sub).images:
        extension = list(range(g.n))
        for i, v in enumerate(h):
            extension[v] = h[t[i]]
        if tuple(extension) not in aut_g:
            return False
    return True


def check_shared_distinguishing_number(g1: Graph, g2: Graph, budget=DEFAULT_BUDGET) -> bool:
    """Equivalent graphs must have equal distinguishing numbers."""
    if g1.n != g2.n:
        raise NotApplicableError("graphs are not distinguishably equivalent")
    aut1, aut2 = autgroup.automorphism_group(g1), autgroup.automorphism_group(g2)
    if distinguishably_equivalent(g1, g2, budget, aut1=aut1, aut2=aut2) is None:
        raise NotApplicableError("graphs are not distinguishably equivalent")
    d1 = distinguishing_number(g1, budget, aut=aut1)[0]
    return d1 == distinguishing_number(g2, budget, aut=aut2)[0]
