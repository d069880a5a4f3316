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
    code, out, _ = run_cli(capsys, "scan", "--enumerate", "5")
    assert code == 0
    lines = out.strip().splitlines()
    summary = json.loads(lines[-1])
    assert summary["violations"] == []
    assert summary["corpus_size"] == 52
    assert len(lines) == 53  # one per graph + summary


def test_scan_accepts_jobs_and_ignores_it(capsys):
    code1, out1, _ = run_cli(capsys, "scan", "--enumerate", "5")
    code2, out2, _ = run_cli(capsys, "scan", "--enumerate", "5", "--jobs", "3")
    assert code1 == code2 == 0
    assert out1 == out2


def test_scan_exits_1_when_a_record_raises(capsys, monkeypatch):
    from symbreak import checks

    def analyze(g, *args, **kwargs):
        raise RuntimeError("injected fault")

    monkeypatch.setattr(checks, "analyze", analyze)
    code, out, _ = run_cli(capsys, "scan", "--enumerate", "3")
    assert code == 1
    summary = json.loads(out.strip().splitlines()[-1])
    assert summary["violations"] == []
    assert len(summary["skipped"]) == summary["corpus_size"] == 7


def test_scan_props_flag(capsys):
    code, out, _ = run_cli(capsys, "scan", "--enumerate", "4", "--props")
    assert code == 0
    summary = json.loads(out.strip().splitlines()[-1])
    assert summary["rule_checks"] >= 2


def test_scan_corpus_file(tmp_path, capsys):
    path = tmp_path / "corpus.g6"
    path.write_text("Bw\nDhc\n")
    code, out, _ = run_cli(capsys, "scan", str(path))
    assert code == 0
    summary = json.loads(out.strip().splitlines()[-1])
    assert summary["corpus_size"] == 2
    assert summary["det2_d2_count"] == 0


def test_scan_reports_a_bad_record_and_scans_the_rest(tmp_path, capsys):
    path = tmp_path / "corpus.g6"
    path.write_text("Bw\n!!bad\nBg\n?bad\n")
    code, out, err = run_cli(capsys, "scan", str(path))
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
        code, out, err = run_cli(capsys, "scan", *argv)
        assert (code, out) == (2, "")
        assert "not allowed with argument" in err


def test_scan_enumerate_range(capsys):
    code, out, err = run_cli(capsys, "scan", "--enumerate", "9")
    assert code == 2


def test_unknown_subcommand_exits_2(capsys):
    assert main(["bogus"]) == 2


def test_scan_json_format(capsys):
    code, out, _ = run_cli(capsys, "scan", "--enumerate", "3", "--format", "json")
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
    code, out, _ = run_cli(capsys, "scan", "--enumerate", "5", "--budget", str(budget))
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


class CountingStdin:
    """A stdin that hands out its lines one at a time. Before each line it
    notes what stdout holds, so a test can see what was written when."""

    def __init__(self, text, stdout):
        self.lines = text.splitlines(keepends=True)
        self.stdout = stdout
        self.before = []  # stdout's text as each line was handed out

    def __iter__(self):
        return self

    def __next__(self):
        if len(self.before) == len(self.lines):
            raise StopIteration
        self.before.append(self.stdout.getvalue())
        return self.lines[len(self.before) - 1]


@pytest.mark.parametrize("block", [1, 5])
def test_scan_streams_one_result_per_group(monkeypatch, block):
    """Records are read a block at a time, and each block's report lines are
    written before the next block is read (with blocks of one, the first
    line before the second record); analyze runs once per distinct group,
    and a record whose group is already in the table gets no SymmetryReport
    or RuleReport of its own."""
    import io
    import sys

    from symbreak import checks, cli
    from symbreak.autgroup import automorphism_group, group_key
    from symbreak.checks import RuleReport
    from symbreak.metrics import SymmetryReport

    graphs = [g for n in range(1, 6) for g in enumerate_graphs(n)]
    groups = {}  # group key -> graph6 of its first record
    for g in graphs:
        groups.setdefault(group_key(automorphism_group(g)), encode_graph6(g))
    assert len(groups) < len(graphs)
    stdout = io.StringIO()
    stdin = CountingStdin("".join(encode_graph6(g) + "\n" for g in graphs), stdout)
    monkeypatch.setattr(sys, "stdout", stdout)
    monkeypatch.setattr(sys, "stdin", stdin)
    monkeypatch.setattr(cli, "SCAN_BLOCK", block)
    calls = {"analyze": 0, SymmetryReport: 0, RuleReport: 0}
    ruled = []  # graph6 of each graph the pair rules run on
    real_analyze, real_rules = checks.analyze, checks.check_pair_rules

    def analyze(*args, **kwargs):
        calls["analyze"] += 1
        return real_analyze(*args, **kwargs)

    def check_pair_rules(g, *args, **kwargs):
        ruled.append(encode_graph6(g))
        return real_rules(g, *args, **kwargs)

    monkeypatch.setattr(checks, "analyze", analyze)
    monkeypatch.setattr(checks, "check_pair_rules", check_pair_rules)
    for cls in (SymmetryReport, RuleReport):
        def counted(self, *args, _init=cls.__init__, _cls=cls, **kwargs):
            calls[_cls] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)

    assert main(["scan", "--props", "-"]) == 0
    *lines, summary_line = stdout.getvalue().splitlines()
    assert [line.split()[0] for line in lines] == [encode_graph6(g) for g in graphs]
    # before record i + 1 is read, the lines of the blocks before its own are out
    out_before = [lines[: i // block * block] for i in range(len(lines))]
    assert stdin.before == ["".join(line + "\n" for line in out) for out in out_before]
    assert calls["analyze"] == calls[SymmetryReport] == len(groups)
    assert calls[RuleReport] == len(ruled) and set(ruled) <= set(groups.values())
    assert json.loads(summary_line)["rule_checks"] > calls[RuleReport]


def _scan_lines(report, fmt):
    """What `scan` prints for a library scan's report, in the given format."""
    rows = [
        json.dumps(r.to_obj(), sort_keys=True) if fmt == "json" else r.to_line()
        for r in report.graph_reports
    ]
    return "".join(row + "\n" for row in rows) + json.dumps(report.summary_obj(), sort_keys=True) + "\n"


@pytest.mark.parametrize("fmt", ["lines", "json"])
def test_scan_prints_what_scan_corpus_returns(capsys, fmt):
    from symbreak.checks import ScanOptions, scan_corpus

    graphs = [g for n in range(1, 6) for g in enumerate_graphs(n)]
    report = scan_corpus(graphs, ScanOptions(all_pairs=True))
    code, out, _ = run_cli(capsys, "scan", "--enumerate", "5", "--props", "--format", fmt)
    assert code == 0 and out == _scan_lines(report, fmt)


@pytest.mark.parametrize("fmt", ["lines", "json"])
def test_scan_lists_unparsed_records_before_the_scan_s_skips(tmp_path, capsys, fmt):
    """Records that do not parse, wherever they stand, come first among the
    skips, then the budget skips, in the library scan and the command line
    alike."""
    from symbreak.checks import ScanOptions, scan_corpus
    from symbreak.config import Budget
    from symbreak.graphs import read_graph6_lines

    records = [encode_graph6(g) for n in range(1, 6) for g in enumerate_graphs(n)]
    records[40:40] = ["!!bad"]
    records.append("?bad")
    path = tmp_path / "corpus.g6"
    path.write_text("".join(r + "\n" for r in records))
    items = []
    for lineno, item in read_graph6_lines(records):
        if isinstance(item, Exception):
            item = (item.record, f"error: line {lineno}: {item}")
        items.append(item)
    report = scan_corpus(items, ScanOptions(budget=Budget.uniform(2), all_pairs=True))
    skips = [reason for _record, reason in report.skipped]
    assert [s.split(":")[:2] for s in skips[:2]] == [["error", " line 41"], ["error", " line 54"]]
    assert skips[2:] and set(skips[2:]) == {"budget exceeded"}
    code, out, err = run_cli(capsys, "scan", str(path), "--props", "--budget", "2", "--format", fmt)
    assert code == 1 and err.splitlines() == skips[:2]
    assert out == _scan_lines(report, fmt)
