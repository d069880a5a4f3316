import pickle
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import GRAPHS7_FILE as GRAPHS7
from conftest import graphs
from helpers import reference_decode_graph6, reference_encode_graph6
from symbreak.errors import ParseError, UnsupportedSizeError
from symbreak.graphs import (
    Graph,
    complement,
    encode_graph6,
    enumerate_graphs,
    parse_graph6,
    permuted,
)
from symbreak.perms import Perm


def cached(g: Graph) -> bool:
    """Whether g holds its graph6 text, so that encode_graph6 reads it."""
    return "graph6" in vars(g)


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
    g = parse_graph6(">>graph6<<A_")
    assert g == parse_graph6("A_")
    assert cached(g) and encode_graph6(g) == "A_"


def test_crlf_terminator_accepted():
    for text in ("A_\r\n", ">>graph6<<A_\n"):
        g = parse_graph6(text)
        assert g == parse_graph6("A_")
        assert cached(g) and encode_graph6(g) == "A_"


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
    # n <= 62 in the long form: not the encoder's form, so not kept
    g = parse_graph6("~??A_")
    assert g.edges() == ((0, 1),) and not cached(g)
    assert encode_graph6(g) == "A_" == reference_encode_graph6(g)


def test_eight_byte_size_form_unsupported():
    with pytest.raises(UnsupportedSizeError):
        parse_graph6("~~?????")


@pytest.mark.parametrize("n", [63, 100])
def test_long_size_form_round_trips(n):
    g = Graph.from_edges(n, [(v, (3 * v + 1) % n) for v in range(n) if (3 * v + 1) % n != v])
    record = encode_graph6(g)
    parsed = parse_graph6(record)
    assert record.startswith("~") and parsed == g
    assert cached(parsed) and encode_graph6(parsed) == record


def test_encode_rejects_n_above_512():
    with pytest.raises(UnsupportedSizeError) as exc:
        encode_graph6(Graph(513, (0,) * 513))
    assert str(exc.value) == "graph6 supports n <= 512, got 513"


def test_a_dense_graph_at_the_size_cap_round_trips():
    rng = random.Random(0)
    g = Graph.from_edges(512, [(u, v) for v in range(512) for u in range(v) if rng.random() < 0.5])
    record = encode_graph6(g)
    assert record == reference_encode_graph6(g)
    parsed = parse_graph6(record)
    assert parsed == g and cached(parsed) and encode_graph6(parsed) == record


@pytest.mark.parametrize("n", [61, 62, 63, 64])
def test_both_sides_of_the_long_size_form_match_the_reference(n):
    rng = random.Random(n)
    g = Graph.from_edges(n, [(u, v) for v in range(n) for u in range(v) if rng.random() < 0.5])
    record = encode_graph6(g)
    assert record == reference_encode_graph6(g)
    assert record.startswith("~") == (n > 62)
    assert reference_decode_graph6(record) == (n, set(g.edges()))
    assert parse_graph6(record) == g


# every refusal of the parser, with its message and byte offset; the offset
# counts from the start of the record, after any header
N63_BODY = 63 * 62 // 2 // 6 + 1  # 326 body bytes, the last with 3 pad bits


@pytest.mark.parametrize(
    "text, message, offset",
    [
        ("", "empty record", 0),
        (">>graph6<<", "empty record", 0),
        ("\u00e9A", "character '\u00e9' outside printable range 63..126", 0),
        ("C\x00", "character '\\x00' outside printable range 63..126", 1),
        ("D? {", "character ' ' outside printable range 63..126", 2),
        ("D?\x7f", "character '\\x7f' outside printable range 63..126", 2),
        ("D?{\u00e9", "character '\u00e9' outside printable range 63..126", 3),
        (">>graph6<<A ", "character ' ' outside printable range 63..126", 1),
        ("A_ ", "character ' ' outside printable range 63..126", 2),
        ("A@", "nonzero trailing padding bits", 1),
        ("A~", "nonzero trailing padding bits", 1),
        ("D?}", "nonzero trailing padding bits", 2),
        ("~??~" + "?" * (N63_BODY - 1) + "@", "nonzero trailing padding bits", 329),
        ("D?", "body has 1 bytes, expected 2 for n=5", 2),
        ("D?{?", "body has 3 bytes, expected 2 for n=5", 3),
        ("A__", "body has 2 bytes, expected 1 for n=2", 2),
        ("@?", "body has 1 bytes, expected 0 for n=1", 1),
        ("~??~" + "?" * (N63_BODY - 1), "body has 325 bytes, expected 326 for n=63", 329),
        ("~??~" + "?" * (N63_BODY + 1), "body has 327 bytes, expected 326 for n=63", 330),
        ("~??", "truncated long size header", 3),
    ],
)
def test_parse_errors_name_the_defect_and_its_offset(text, message, offset):
    with pytest.raises(ParseError) as exc:
        parse_graph6(text)
    assert str(exc.value) == f"{message} (byte offset {offset})"
    assert exc.value.offset == offset


@pytest.mark.parametrize(
    "text, message",
    [
        ("~~?????", "eight-byte size form not supported"),
        ("~?G@", "record encodes n=513, beyond supported sizes"),
        ("~~~~", "eight-byte size form not supported"),
        ("~}~~", "record encodes n=258047, beyond supported sizes"),
    ],
)
def test_unsupported_sizes_are_named(text, message):
    with pytest.raises(UnsupportedSizeError) as exc:
        parse_graph6(text)
    assert str(exc.value) == message


def test_every_record_of_the_corpus_re_encodes_to_itself():
    records = GRAPHS7.read_text(encoding="ascii").split()
    assert len(records) == 1044
    for record in records:
        g = parse_graph6(record)
        fresh = Graph(g.n, g.adj)  # holds no text, so it is encoded
        assert encode_graph6(fresh) == record


@given(graphs(max_n=70))
def test_parse_inverts_encode(g):
    assert parse_graph6(encode_graph6(g)) == g


@given(graphs(max_n=70))
def test_encoder_matches_reference(g):
    assert encode_graph6(g) == reference_encode_graph6(g)


@given(graphs(max_n=70))
def test_parser_matches_reference(g):
    record = reference_encode_graph6(g)
    n, edges = reference_decode_graph6(record)
    parsed = parse_graph6(record)
    assert parsed.n == n
    assert set(parsed.edges()) == edges
    assert cached(parsed) and encode_graph6(parsed) == record


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


# -- the kept text --------------------------------------------------------


def built_graphs():
    """Graphs from every constructor that does not parse graph6."""
    g = Graph(4, (2, 5, 10, 4))
    yield g
    yield Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    yield permuted(g, Perm((2, 0, 3, 1)))
    yield complement(g)
    for n in range(1, 5):
        yield from enumerate_graphs(n)


@pytest.mark.parametrize("g", list(built_graphs()), ids=repr)
def test_a_built_graph_is_encoded_on_first_read(g):
    assert not cached(g)
    record = encode_graph6(g)
    assert cached(g) and record == reference_encode_graph6(g)
    assert encode_graph6(g) is record


def test_the_kept_text_does_not_change_equality_hash_or_repr():
    for g in built_graphs():
        fresh = Graph(g.n, g.adj)
        parsed = parse_graph6(reference_encode_graph6(g))
        encode_graph6(g)
        assert cached(g) and cached(parsed) and not cached(fresh)
        for other in (fresh, parsed):
            assert other == g and hash(other) == hash(g) and repr(other) == repr(g)
        assert len({g, fresh, parsed}) == 1


def test_pickling_keeps_the_graph_and_its_text():
    records = GRAPHS7.read_text(encoding="ascii").split()
    for record in random.Random(0).sample(records, 20) + ["?", "~??A_"]:
        g = parse_graph6(record)
        copy = pickle.loads(pickle.dumps(g))
        assert copy == g and cached(copy) == cached(g)
        assert encode_graph6(copy) == encode_graph6(g)
    built = Graph.from_edges(3, [(0, 1)])
    assert not cached(pickle.loads(pickle.dumps(built)))
    encode_graph6(built)
    copy = pickle.loads(pickle.dumps(built))
    assert cached(copy) and vars(copy)["graph6"] == reference_encode_graph6(built)
