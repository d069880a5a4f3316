import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import graphs
from helpers import reference_decode_graph6, reference_encode_graph6
from symbreak.errors import ParseError, UnsupportedSizeError
from symbreak.graphs import Graph, encode_graph6, parse_graph6


def test_k2_round_trip_golden():
    assert encode_graph6(Graph.from_edges(2, [(0, 1)])) == "A_"
    assert parse_graph6("A_").edges() == ((0, 1),)


def test_two_isolated_vertices_golden():
    assert encode_graph6(Graph(2, (0, 0))) == "A?"
    g = parse_graph6("A?")
    assert g.n == 2 and g.edge_count == 0


def test_five_vertex_record_round_trips():
    g = parse_graph6("D?{")
    assert g.n == 5
    assert encode_graph6(g) == "D?{"


def test_header_is_stripped():
    assert parse_graph6(">>graph6<<A_") == parse_graph6("A_")


def test_crlf_terminator_accepted():
    assert parse_graph6("A_\r\n") == parse_graph6("A_")


def test_empty_record_rejected():
    with pytest.raises(ParseError) as exc:
        parse_graph6("")
    assert exc.value.offset == 0


def test_character_out_of_range_rejected():
    with pytest.raises(ParseError) as exc:
        parse_graph6("B" + chr(32))
    assert exc.value.offset == 1


def test_wrong_body_length_rejected():
    with pytest.raises(ParseError):
        parse_graph6("D?")  # n=5 needs 2 body bytes
    with pytest.raises(ParseError):
        parse_graph6("A__")


def test_nonzero_padding_rejected():
    # n=2 uses 1 of 6 bits; anything in the low 5 bits is padding
    with pytest.raises(ParseError) as exc:
        parse_graph6("A" + chr(63 + 1))
    assert exc.value.offset == 1


def test_single_vertex_and_empty_graph():
    assert parse_graph6("@").n == 1
    assert parse_graph6("?").n == 0
    assert encode_graph6(Graph(0, ())) == "?"


def test_long_size_form_parses():
    # 63 in the three-digit form: '~' then 0,0,63 encoded as '?','?','~'
    record = "~??~" + "?" * (63 * 62 // 2 // 6 + 1)
    g = parse_graph6(record)
    assert g.n == 63 and g.edge_count == 0


def test_eight_byte_size_form_unsupported():
    with pytest.raises(UnsupportedSizeError):
        parse_graph6("~~?????")


@pytest.mark.parametrize("n", [63, 100])
def test_long_size_form_round_trips(n):
    g = Graph.from_edges(n, [(v, (3 * v + 1) % n) for v in range(n) if (3 * v + 1) % n != v])
    record = encode_graph6(g)
    assert record.startswith("~") and parse_graph6(record) == g


def test_encode_rejects_n_above_512():
    with pytest.raises(UnsupportedSizeError):
        encode_graph6(Graph(513, (0,) * 513))


@given(graphs(max_n=10))
def test_parse_inverts_encode(g):
    assert parse_graph6(encode_graph6(g)) == g


@given(graphs(max_n=10))
def test_encoder_matches_reference(g):
    assert encode_graph6(g) == reference_encode_graph6(g)


@given(graphs(max_n=10))
def test_parser_matches_reference(g):
    record = reference_encode_graph6(g)
    n, edges = reference_decode_graph6(record)
    parsed = parse_graph6(record)
    assert parsed.n == n
    assert set(parsed.edges()) == edges
    assert encode_graph6(parsed) == record


@given(st.integers(0, 2**15 - 1))
def test_arbitrary_six_vertex_codes_round_trip(mask):
    adj = [0] * 6
    k = 0
    for v in range(1, 6):
        for u in range(v):
            if mask >> k & 1:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
            k += 1
    g = Graph(6, tuple(adj))
    assert parse_graph6(encode_graph6(g)) == g
