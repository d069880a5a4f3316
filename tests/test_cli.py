import json
from pathlib import Path

import pytest

from symbreak.cli import main
from symbreak.graphs import FamilySpec, encode_graph6, enumerate_graphs, generate_family

GOLDENS = Path(__file__).resolve().parent / "goldens"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_file(tmp_path, capsys):
    path = tmp_path / "c5.g6"
    path.write_text(encode_graph6(generate_family(FamilySpec("cycle", 5))) + "\n")
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert code == 0 and not err
    assert out.count("\n") == 1
    assert "D=3" in out and "aut=10" in out


def test_analyze_stdin(tmp_path, capsys, monkeypatch):
    import io
    import sys

    monkeypatch.setattr(sys, "stdin", io.StringIO("A_\nA?\n"))
    code, out, err = run_cli(capsys, "analyze", "-")
    assert code == 0
    assert len(out.strip().splitlines()) == 2


def test_analyze_empty_file(tmp_path, capsys):
    path = tmp_path / "empty.g6"
    path.write_text("")
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert code == 0 and out == ""


def test_analyze_malformed_line_reports_and_continues(tmp_path, capsys):
    path = tmp_path / "mixed.g6"
    path.write_text("A_\nD?\nBw\n")  # middle record truncated
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert code == 1
    assert len(out.strip().splitlines()) == 2
    assert "line 2" in err


def test_analyze_fail_fast(tmp_path, capsys):
    path = tmp_path / "mixed.g6"
    path.write_text("D?\nA_\n")
    code, out, err = run_cli(capsys, "analyze", str(path), "--fail-fast")
    assert code == 1
    assert out == ""


def test_analyze_json_format(tmp_path, capsys):
    path = tmp_path / "net.g6"
    path.write_text("EhEG\n")
    code, out, err = run_cli(capsys, "analyze", str(path), "--format", "json")
    assert code == 0
    obj = json.loads(out.strip())
    assert set(obj) >= {"graph6", "n", "m", "aut", "D", "Det", "rho"}


def test_family_emit(capsys):
    code, out, _ = run_cli(capsys, "family", "cycle", "5")
    assert code == 0
    assert out.strip() == encode_graph6(generate_family(FamilySpec("cycle", 5)))


def test_family_analyze(capsys):
    code, out, _ = run_cli(capsys, "family", "clique_with_tails", "2", "--analyze")
    assert code == 0
    assert "Det=3" in out and "rho=4" in out
    code, out, _ = run_cli(capsys, "family", "path", "5", "--analyze")
    assert code == 0
    assert "D=2" in out and "Det=1" in out and "rho=1" in out


def test_family_usage_error(capsys):
    code, out, err = run_cli(capsys, "family", "cycle", "2")
    assert code == 2
    assert "usage error" in err


def test_equiv_complement_pair(tmp_path, capsys):
    from symbreak.graphs import complement

    p3 = generate_family(FamilySpec("path", 3))
    path = tmp_path / "pair.g6"
    path.write_text(encode_graph6(p3) + "\n" + encode_graph6(complement(p3)) + "\n")
    code, out, _ = run_cli(capsys, "equiv", str(path))
    assert code == 0
    assert out.startswith("equivalent ")


def test_equiv_p3_triangle(tmp_path, capsys):
    path = tmp_path / "pair.g6"
    path.write_text("Bg\nBw\n")
    code, out, _ = run_cli(capsys, "equiv", str(path))
    assert code == 0
    assert out.startswith("not-equivalent")
    assert "aut-order" in out


def test_equiv_same_graph_identity(tmp_path, capsys):
    path = tmp_path / "pair.g6"
    path.write_text("Bw\nBw\n")
    code, out, _ = run_cli(capsys, "equiv", str(path))
    assert code == 0
    assert out.strip() == "equivalent 0->0 1->1 2->2"


def test_equiv_of_two_empty_graphs_is_the_word_alone(tmp_path, capsys):
    path = tmp_path / "pair.g6"
    path.write_text("?\n?\n")
    code, out, _ = run_cli(capsys, "equiv", str(path))
    assert code == 0
    assert out == "equivalent\n"


def test_equiv_wrong_record_count(tmp_path, capsys):
    path = tmp_path / "pair.g6"
    path.write_text("Bw\n")
    code, out, err = run_cli(capsys, "equiv", str(path))
    assert code == 2


def test_scan_enumerate_clean(capsys):
    code, out, _ = run_cli(capsys, "scan", "--enumerate", "5", "--jobs", "1")
    assert code == 0
    lines = out.strip().splitlines()
    summary = json.loads(lines[-1])
    assert summary["violations"] == []
    assert summary["corpus_size"] == 52
    assert len(lines) == 53  # one per graph + summary


def test_scan_deterministic_across_jobs(capsys):
    code1, out1, _ = run_cli(capsys, "scan", "--enumerate", "5", "--jobs", "1")
    code2, out2, _ = run_cli(capsys, "scan", "--enumerate", "5", "--jobs", "2")
    assert code1 == code2 == 0
    assert out1 == out2


def test_scan_exits_1_when_a_record_raises(capsys, monkeypatch):
    from symbreak import checks

    def analyze(g, *args, **kwargs):
        raise RuntimeError("injected fault")

    monkeypatch.setattr(checks, "analyze", analyze)
    code, out, _ = run_cli(capsys, "scan", "--enumerate", "3", "--jobs", "1")
    assert code == 1
    summary = json.loads(out.strip().splitlines()[-1])
    assert summary["violations"] == []
    assert len(summary["skipped"]) == summary["corpus_size"] == 7


def test_scan_props_flag(capsys):
    code, out, _ = run_cli(capsys, "scan", "--enumerate", "4", "--props", "--jobs", "1")
    assert code == 0
    summary = json.loads(out.strip().splitlines()[-1])
    assert summary["rule_checks"] >= 2


def test_scan_corpus_file(tmp_path, capsys):
    path = tmp_path / "corpus.g6"
    path.write_text("Bw\nDhc\n")
    code, out, _ = run_cli(capsys, "scan", str(path), "--jobs", "1")
    assert code == 0
    summary = json.loads(out.strip().splitlines()[-1])
    assert summary["corpus_size"] == 2
    assert summary["det2_d2_count"] == 0


def test_scan_reports_a_bad_record_and_scans_the_rest(tmp_path, capsys):
    path = tmp_path / "corpus.g6"
    path.write_text("Bw\n!!bad\nBg\n?bad\n")
    code, out, err = run_cli(capsys, "scan", str(path), "--jobs", "1")
    assert code == 1
    assert [line.split(":")[:2] for line in err.splitlines()] == [
        ["error", " line 2"],
        ["error", " line 4"],
    ]
    *lines, summary_line = out.splitlines()
    assert [line.split()[0] for line in lines] == ["Bw", "Bg"]
    summary = json.loads(summary_line)
    assert summary["corpus_size"] == 4 and summary["analyzed"] == 2
    assert summary["violations"] == []
    records = ["!!bad", "?bad"]
    assert summary["skipped"] == [list(skip) for skip in zip(records, err.splitlines())]
    assert summary["skipped"][0][1].startswith("error: line 2: character '!'")


def test_scan_requires_source(capsys):
    code, out, err = run_cli(capsys, "scan")
    assert code == 2


def test_scan_takes_a_file_or_enumerate_not_both(tmp_path, capsys):
    path = tmp_path / "corpus.g6"
    path.write_text("Bw\n")
    for argv in ([str(path), "--enumerate", "2"], ["--enumerate", "2", str(path)]):
        code, out, err = run_cli(capsys, "scan", *argv, "--jobs", "1")
        assert (code, out) == (2, "")
        assert "not allowed with argument" in err


def test_scan_enumerate_range(capsys):
    code, out, err = run_cli(capsys, "scan", "--enumerate", "9")
    assert code == 2


def test_unknown_subcommand_exits_2(capsys):
    assert main(["bogus"]) == 2


def test_scan_json_format(capsys):
    code, out, _ = run_cli(capsys, "scan", "--enumerate", "3", "--jobs", "1",
                           "--format", "json")
    assert code == 0
    for line in out.strip().splitlines():
        json.loads(line)


@pytest.mark.parametrize(
    "option", [["--jobs", "0"], ["--jobs", "-2"], ["--budget", "0"], ["--budget", "-5"]]
)
def test_scan_rejects_counts_below_one(capsys, option):
    code, out, err = run_cli(capsys, "scan", "--enumerate", "3", *option)
    assert code == 2 and not out
    assert "must be at least 1" in err


# Goldens captured before Det and rho shared one subset walk: under a tight
# budget each of D, Det and rho must turn into "?" exactly where it did when
# each had a walk of its own.
@pytest.mark.parametrize("budget", [1, 2, 5, 50])
def test_budget_limited_scan_matches_golden(capsys, budget):
    code, out, _ = run_cli(
        capsys, "scan", "--enumerate", "5", "--budget", str(budget), "--jobs", "1"
    )
    assert code == 0
    assert out == (GOLDENS / f"scan5_budget{budget}.out").read_text()


@pytest.mark.parametrize("budget", [1, 2, 5, 50])
def test_budget_limited_analyze_matches_golden(tmp_path, capsys, budget):
    path = tmp_path / "graphs6.g6"
    path.write_text(
        "".join(encode_graph6(g) + "\n" for n in range(1, 7) for g in enumerate_graphs(n))
    )
    code, out, _ = run_cli(capsys, "analyze", str(path), "--budget", str(budget))
    assert code == 0
    assert out == (GOLDENS / f"analyze6_budget{budget}.out").read_text()
