"""The command line's handling of bad input, header and blank lines, refused
groups and the reasons equiv gives for a non-equivalent pair."""

import io
import sys

import pytest

from symbreak.cli import main
from symbreak.graphs import FamilySpec, Graph, encode_graph6, generate_family, permuted
from symbreak.perms import Perm, PermGroup

GOOD, BAD = "Bw", b"\x80"  # a triangle; a byte outside ASCII


def fam(kind, p):
    return generate_family(FamilySpec(kind, p))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_pair(tmp_path, g, h):
    path = tmp_path / "pair.g6"
    path.write_text(f"{encode_graph6(g)}\n{encode_graph6(h)}\n")
    return str(path)


@pytest.mark.parametrize("bad", [BAD, b"\xa0" + GOOD.encode()])  # \xa0: latin-1 NBSP
@pytest.mark.parametrize("command", ["analyze", "scan"])
def test_non_ascii_record_is_a_parse_error_of_its_line(tmp_path, capsys, command, bad):
    path = tmp_path / "mixed.g6"
    path.write_bytes(GOOD.encode() + b"\n" + bad + b"\n" + GOOD.encode() + b"\n")
    code, out, err = run_cli(capsys, command, str(path))
    assert code == 1
    char = repr(chr(bad[0]))
    assert err == f"error: line 2: character {char} outside printable range 63..126 (byte offset 0)\n"
    assert [line.split()[0] for line in out.splitlines()[:2]] == [GOOD, GOOD]


def test_non_ascii_record_on_stdin(capsys, monkeypatch):
    stdin = io.TextIOWrapper(io.BytesIO(GOOD.encode() + b"\n" + BAD + b"\n"), encoding="utf-8")
    monkeypatch.setattr(sys, "stdin", stdin)
    code, out, err = run_cli(capsys, "analyze", "-")
    assert code == 1
    assert out.startswith(GOOD + " ") and err.startswith("error: line 2: ")


def test_analyze_skips_header_and_blank_lines(tmp_path, capsys):
    path = tmp_path / "header.g6"
    path.write_text(f">>graph6<<\n\n{GOOD}\n\n")
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert (code, err) == (0, "")
    assert [line.split()[0] for line in out.splitlines()] == [GOOD]


def test_equiv_reports_a_bad_record_by_its_line(tmp_path, capsys):
    path = tmp_path / "pair.g6"
    path.write_text(f"{GOOD}\n!!bad\n")
    code, out, err = run_cli(capsys, "equiv", str(path))
    assert (code, out) == (1, "")
    assert err == "error: line 2: character '!' outside printable range 63..126 (byte offset 0)\n"


@pytest.mark.parametrize("command", ["analyze", "scan", "equiv"])
def test_missing_input_path_is_an_error_line(tmp_path, capsys, command):
    missing = tmp_path / "missing.g6"
    code, out, err = run_cli(capsys, command, str(missing))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and str(missing) in err and err.count("\n") == 1


@pytest.mark.parametrize("fail_fast", [False, True])
def test_analyze_reports_a_refused_group_and_goes_on(tmp_path, capsys, fail_fast):
    path = tmp_path / "k10.g6"
    path.write_text(f"{encode_graph6(fam('complete', 10))}\n{GOOD}\n")
    code, out, err = run_cli(capsys, "analyze", str(path), *["--fail-fast"] * fail_fast)
    assert code == 1
    assert err == "error: line 1: group exceeds element cap of 1000000\n"
    assert out == ("" if fail_fast else f"{GOOD} n=3 m=3 aut=6 D=3 Det=2 rho=- det2_d2=0 "
                   "rho_in_2_4=- det_set=0,1 rho_class=- degenerate=0\n")


def test_family_member_beyond_graph6_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "family", "hypercube", "10")
    assert (code, out) == (2, "")
    assert err == "usage error: hypercube 10 has more than 512 vertices, the graph6 limit\n"


def test_family_analyze_refuses_a_group_over_the_cap(capsys):
    code, out, err = run_cli(capsys, "family", "complete", "10", "--analyze")
    assert code == 1 and out == ""
    assert err == "error: group exceeds element cap of 1000000\n"


def test_equiv_reason_orbit_sizes(tmp_path, capsys):
    p3_k1 = Graph.from_edges(4, [(0, 1), (1, 2)])
    code, out, _ = run_cli(capsys, "equiv", write_pair(tmp_path, fam("path", 4), p3_k1))
    assert (code, out) == (0, "not-equivalent orbit-sizes [2, 2] != [1, 1, 2]\n")


def test_equiv_reason_cycle_types(tmp_path, capsys):
    """The first pair of graphs, by graph6, whose groups agree in order (8)
    and orbit sizes ([2, 2, 4]) but not in their (fixed points, 2-cycles)
    profiles; no such pair has fewer than 8 vertices."""
    path = tmp_path / "pair.g6"
    path.write_text("G??HmO\nG??XPo\n")
    code, out, _ = run_cli(capsys, "equiv", str(path))
    assert (code, out) == (0, "not-equivalent cycle-type multisets differ\n")


@pytest.mark.parametrize("pair", ["G???B{ G???GK", "G??HmO G??XPo"])
def test_equiv_reason_forms_no_element(tmp_path, capsys, monkeypatch, pair):
    """Two pairs of groups of equal order, told apart by orbit sizes (720
    elements each) and by cycle profiles: the reason is worded without
    forming a product of either group."""
    formed = []
    real = PermGroup.images.func

    def images(group):
        formed.append(group.order)
        return real(group)

    monkeypatch.setattr(PermGroup, "images", property(images))
    path = tmp_path / "pair.g6"
    path.write_text(pair.replace(" ", "\n") + "\n")
    code, out, _ = run_cli(capsys, "equiv", str(path))
    assert code == 0 and out.startswith("not-equivalent ") and formed == []


def test_equiv_reason_search_exhausted(tmp_path, capsys):
    """The pair is equivalent, so a search cut short by its budget settles
    nothing: the verdict is unknown, never not-equivalent."""
    c6 = fam("cycle", 6)
    path = write_pair(tmp_path, c6, permuted(c6, Perm((3, 1, 4, 5, 0, 2))))
    code, out, _ = run_cli(capsys, "equiv", path, "--budget", "1")
    assert code == 1
    assert out == "unknown search-exhausted bijection search exceeded 1 nodes\n"


def test_equiv_reason_vertex_count(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "equiv", write_pair(tmp_path, fam("path", 3), fam("path", 4)))
    assert (code, out) == (0, "not-equivalent vertex-count 3 != 4\n")


@pytest.mark.parametrize(
    "command, option", [("equiv", ["--format", "json"]), ("family", ["--emit"])]
)
def test_options_without_effect_are_usage_errors(tmp_path, capsys, command, option):
    """equiv prints one text line, and family prints graph6 unless given
    --analyze, so neither takes an option to choose that."""
    if command == "equiv":
        argv = ["equiv", write_pair(tmp_path, fam("path", 3), fam("path", 3))]
    else:
        argv = ["family", "cycle", "5"]
    code, out, err = run_cli(capsys, *argv, *option)
    assert (code, out) == (2, "")
    assert f"unrecognized arguments: {option[0]}" in err
