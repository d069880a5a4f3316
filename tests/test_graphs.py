from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import REPO_ROOT, graphs
from helpers import canonical_mask, first_asymmetric_pair, slot_mask
from symbreak.errors import DegreeError, FamilySpecError, UnsupportedSizeError
from symbreak.graphs import (
    FamilySpec,
    GRAPH6_MAX_N,
    Graph,
    clique_with_tails,
    complement,
    count_isomorphism_classes,
    encode_graph6,
    enumerate_graphs,
    generate_family,
    induced_subgraph,
    permuted,
    string_color_class,
    tail_vertices,
)
from symbreak.autgroup import isomorphism
from symbreak.perms import Perm


def P(n):
    return generate_family(FamilySpec("path", n))


def C(n):
    return generate_family(FamilySpec("cycle", n))


def K(n):
    return generate_family(FamilySpec("complete", n))


def test_complement():
    assert complement(K(3)).edge_count == 0
    assert complement(Graph(4, (0,) * 4)) == K(4)


def test_complement_is_self_inverse_on_p4():
    p4 = P(4)
    assert complement(complement(p4)) == p4
    # P4 is self-complementary up to isomorphism
    assert isomorphism(p4, complement(p4)) is not None


@given(graphs())
def test_complement_involution(g):
    assert complement(complement(g)) == g


def test_induced_subgraph_of_cycle_is_path():
    sub, index = induced_subgraph(C(5), {0, 1, 2, 3})
    assert isomorphism(sub, P(4)) is not None
    assert index == {0: 0, 1: 1, 2: 2, 3: 3}


def test_induced_subgraph_on_all_vertices_is_identity():
    g = C(5)
    sub, _ = induced_subgraph(g, range(5))
    assert sub == g


def test_induced_subgraph_two_disjoint_edges_pattern():
    # x=0, y=1, d1=2, d2=3 with edges {x,d1}, {y,d2}, {x,y}, {d1,d2}: a 4-cycle
    g = Graph.from_edges(6, [(0, 2), (1, 3), (0, 1), (2, 3), (4, 5), (0, 4)])
    sub, _ = induced_subgraph(g, {0, 1, 2, 3})
    assert isomorphism(sub, C(4)) is not None


def test_induced_subgraph_empty_set():
    sub, index = induced_subgraph(C(4), ())
    assert sub.n == 0 and index == {}


def test_induced_subgraph_takes_a_repeated_vertex_once():
    sub, index = induced_subgraph(P(4), [1, 1, 2])
    assert sub == Graph.from_edges(2, [(0, 1)])
    assert index == {1: 0, 2: 1}


@pytest.mark.parametrize("s", [{-1, 0}, {0, 9}, {4}])
def test_induced_subgraph_rejects_a_vertex_outside_the_graph(s):
    v = min(s) if min(s) < 0 else max(s)
    with pytest.raises(IndexError, match=f"vertex {v} out of range for n=4"):
        induced_subgraph(P(4), s)


def test_permuted_rejects_a_permutation_of_another_degree():
    for p in (Perm((1, 0, 2, 3, 4)), Perm((1, 0, 2))):
        with pytest.raises(DegreeError, match=f"degree mismatch: {p.degree} vs 4"):
            permuted(P(4), p)
    assert permuted(P(4), Perm((3, 2, 1, 0))) == P(4)


def test_family_validation():
    with pytest.raises(FamilySpecError):
        FamilySpec("cycle", 2)
    with pytest.raises(FamilySpecError):
        FamilySpec("path", 0)
    with pytest.raises(FamilySpecError):
        FamilySpec("banana", 3)


def test_family_member_beyond_graph6_is_refused_before_it_is_built():
    for kind, p in [("hypercube", 40), ("hypercube", 10), ("clique_with_tails", 7),
                    ("path", GRAPH6_MAX_N + 1), ("complete", 10**18)]:
        with pytest.raises(FamilySpecError):
            FamilySpec(kind, p)
    assert generate_family(FamilySpec("hypercube", 9)).n == GRAPH6_MAX_N
    assert generate_family(FamilySpec("clique_with_tails", 6)).n == 384


def test_hypercube_q4():
    q4 = generate_family(FamilySpec("hypercube", 4))
    assert q4.n == 16 and q4.edge_count == 32
    assert all(q4.degree(v) == 4 for v in range(16))


def test_clique_with_tails_shapes():
    for n in (1, 2, 3):
        g = clique_with_tails(n)
        size = 1 << n
        assert g.n == n * size
        assert g.edge_count == size * (size - 1) // 2 + (n - 1) * size
    assert clique_with_tails(1).edges() == ((0, 1),)


def test_clique_with_tails_tail_layout():
    g = clique_with_tails(3)
    for i in range(8):
        tail = tail_vertices(3, i)
        assert len(tail) == 2
        assert g.has_edge(i, tail[0]) and g.has_edge(tail[0], tail[1])
        assert g.degree(tail[1]) == 1


def test_string_color_class_size():
    for n in (1, 2, 3):
        assert len(string_color_class(n)) == n * (1 << n) // 2
    # clique vertex indices in binary along the strings: 00, 01, 10, 11
    assert string_color_class(2) == {2, 3, 5, 7}


def test_enumeration_counts_match_burnside():
    for n in range(1, 7):
        reps = list(enumerate_graphs(n))
        assert len(reps) == count_isomorphism_classes(n)


def test_enumeration_on_seven_vertices_is_the_checked_in_corpus(graphs7_path):
    records = [encode_graph6(g) for g in enumerate_graphs(7)]
    assert records == graphs7_path.read_text().split()


def test_the_walk_enumerates_every_class_on_eight_vertices():
    """The orderly walk over S_8 acting on the 28 pair slots, against the
    Burnside count and, record for record, the checked-in n = 8 corpus."""
    records = [encode_graph6(g) for g in enumerate_graphs(8)]
    assert len(set(records)) == len(records) == count_isomorphism_classes(8) == 12346
    assert records == (REPO_ROOT / "data" / "graphs8.g6").read_text().split()


def test_enumeration_known_counts():
    assert [len(list(enumerate_graphs(n))) for n in range(1, 7)] == [
        1, 2, 4, 11, 34, 156,
    ]


def test_enumeration_has_no_isomorphic_pair():
    for n in range(1, 6):
        reps = list(enumerate_graphs(n))
        for i in range(len(reps)):
            for j in range(i + 1, len(reps)):
                assert isomorphism(reps[i], reps[j]) is None, (n, i, j)


def test_enumeration_yields_the_masks_that_are_their_own_canonical_form():
    for n in range(1, 6):
        least = [m for m in range(1 << n * (n - 1) // 2) if canonical_mask(n, m) == m]
        assert [slot_mask(g) for g in enumerate_graphs(n)] == least, n
    masks = [slot_mask(g) for g in enumerate_graphs(6)]
    assert len(masks) == 156
    assert all(canonical_mask(6, m) == m for m in masks)


def test_enumeration_range_check():
    with pytest.raises(UnsupportedSizeError):
        list(enumerate_graphs(9))
    with pytest.raises(UnsupportedSizeError):
        list(enumerate_graphs(0))


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(2, (1, 0))  # asymmetric
    with pytest.raises(ValueError):
        Graph(1, (1,))  # self-loop
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 0)])


@pytest.mark.parametrize(
    "n, adj, message",
    [
        (2, (1, 0), "self-loop at 0"),
        (3, (0, 0), "adjacency length must equal vertex count"),
        (2, (0b100, 0), "adjacency of 0 references vertices >= 2"),
        (2, (-1, 0), "adjacency of 0 references vertices >= 2"),
        (3, (0b010, 0b100, 0b001), "asymmetric adjacency between 0 and 1"),
        (3, (0b110, 0, 0b001), "asymmetric adjacency between 0 and 1"),
        (3, (0b100, 0b100, 0b001), "asymmetric adjacency between 1 and 2"),
        (3, (0b100, 0b100, 0b100), "self-loop at 2"),
        (4, (0b1000, 0, 0, 0b0011), "asymmetric adjacency between 1 and 3"),
    ],
)
def test_graph_refusals_are_named(n, adj, message):
    with pytest.raises(ValueError) as exc:
        Graph(n, adj)
    assert str(exc.value) == message


def assert_graph_matches_the_pairwise_oracle(n, adj):
    pair = first_asymmetric_pair(n, adj)
    if pair is None:
        assert Graph(n, adj).adj == adj
    else:
        with pytest.raises(ValueError) as exc:
            Graph(n, adj)
        assert str(exc.value) == "asymmetric adjacency between {} and {}".format(*pair)


@pytest.mark.parametrize("n", range(5))
def test_every_loopless_row_set_on_few_vertices_meets_the_oracle(n):
    # all 2**(n(n - 1)) sets of rows without self-loops: 4096 at n = 4
    others = [[u for u in range(n) if u != v] for v in range(n)]
    for bits in product((0, 1), repeat=n * (n - 1)):
        adj = [0] * n
        k = 0
        for v in range(n):
            for u in others[v]:
                adj[v] |= bits[k] << u
                k += 1
        assert_graph_matches_the_pairwise_oracle(n, tuple(adj))


@st.composite
def loopless_rows(draw):
    """Rows on up to 16 vertices with no self-loop: random ones, which are
    almost never symmetric, or a symmetric set with up to three bits
    flipped."""
    n = draw(st.integers(1, 16))
    rows = [draw(st.integers(0, (1 << n) - 1)) & ~(1 << v) for v in range(n)]
    if draw(st.booleans()):
        rows = [
            sum(1 << u for u in range(n) if u != v and rows[max(u, v)] >> min(u, v) & 1)
            for v in range(n)
        ]
        if n > 1:
            for _ in range(draw(st.integers(0, 3))):
                u, v = draw(st.permutations(range(n)))[:2]
                rows[u] ^= 1 << v
    return n, tuple(rows)


@given(loopless_rows())
def test_graph_refuses_exactly_the_rows_the_oracle_does(rows):
    assert_graph_matches_the_pairwise_oracle(*rows)
