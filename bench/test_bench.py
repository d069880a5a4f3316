"""Tests of the benchmark itself: run with `python -m pytest bench`.

They check that traced counters repeat exactly, that the checker catches a
corrupted golden, that the reference probe calibrates as documented, and
that BENCHMARK.json names the metrics the code emits.
"""

import json

import pytest

import reference
import run
import tracer
import workloads

import symbreak

SMALL = 120  # input graphs per workload in these tests


@pytest.fixture(scope="module")
def full_inputs(tmp_path_factory):
    work = tmp_path_factory.mktemp("work")
    return {name: wl.build(symbreak, 3, work) for name, wl in workloads.WORKLOADS.items()}


def small(inputs, tmp_path):
    """The first SMALL graphs, in a file of their own."""
    records = inputs.records[:SMALL]
    path = workloads.write_graph6(tmp_path / "small.g6", records)
    return workloads.Inputs(path, records, inputs.graphs[:SMALL])


def traced_counts(wl, inputs):
    tr = tracer.Tracer(symbreak)
    tr.install()
    try:
        wl.run(symbreak, inputs)
    finally:
        tr.restore()
    units = tracer.metric_units()
    return {k: v for k, v in tr.metrics(len(inputs.records)).items() if units[k] != "s" and units[k] != "ms"}


@pytest.mark.parametrize("name", ["corpus7", "regular", "equiv"])
def test_two_traced_runs_give_identical_counters(name, full_inputs, tmp_path):
    wl = workloads.WORKLOADS[name]
    inputs = small(full_inputs[name], tmp_path)
    first = traced_counts(wl, inputs)
    second = traced_counts(wl, inputs)
    assert first == second
    assert first["graphs.parse_calls"] == SMALL
    assert first["autgroup.search_calls"] >= SMALL


def test_calibration_removes_probe_time_and_scales_to_nominal_speed():
    probe = reference.Probe()
    nominal = reference.NOMINAL_S
    # Probes at 0.1, 0.2 and 0.3 s. The first two ran at half the reference
    # speed, the last two at a quarter; each stretch of program time is
    # scaled by the median of the three probes around the one that ends it.
    probe.starts = [0.1, 0.2, 0.3, 0.4]
    probe.took = [2 * nominal, 2 * nominal, 4 * nominal, 4 * nominal]
    probe.ends = [t + 0.001 for t in probe.starts]  # a probe's whole time is left out
    stretches = [0.1, 0.099, 0.049]  # until 0.1, 0.2 and end=0.25
    slowdowns = [2, 2, 4]
    expected = sum(t / k for t, k in zip(stretches, slowdowns))
    assert probe.calibrated(0.0, 0.25) == pytest.approx(expected)
    with pytest.raises(RuntimeError):
        probe.calibrated(0.35, 0.5)


def test_probe_runs_while_started_and_restores_the_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    probe = reference.Probe()
    probe.start()
    end = time.perf_counter() + 0.1
    while time.perf_counter() < end:
        pass
    probe.stop()
    count = len(probe.took)
    assert count >= 3 and all(t > 0 for t in probe.took)
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_pass_count_depends_only_on_the_window():
    wl = workloads.WORKLOADS["corpus7"]
    assert run.pass_count(wl, 20) == round(20 / wl.cycle_s)
    assert run.pass_count(wl, 0.1) == run.MIN_PASSES


def test_tracer_restores_every_binding():
    from symbreak import autgroup, checks, metrics

    before = (metrics.automorphism_group, checks.analyze, metrics._SubsetScan.representatives)
    tr = tracer.Tracer(symbreak)
    tr.install()
    assert metrics.automorphism_group is not before[0]
    assert autgroup.automorphism_group is metrics.automorphism_group
    tr.restore()
    after = (metrics.automorphism_group, checks.analyze, metrics._SubsetScan.representatives)
    assert after == before


def test_missing_name_is_reported_absent(monkeypatch):
    from symbreak import checks

    monkeypatch.delattr(checks, "_brute_min_class_size")
    tr = tracer.Tracer(symbreak)
    tr.install()
    tr.restore()
    assert tr.absent == ["checks._brute_min_class_size"]
    assert tr.metrics(1)["checks.brute_rho_calls"] == 0


def test_traced_output_equals_untraced(full_inputs, tmp_path):
    wl = workloads.WORKLOADS["corpus7"]
    inputs = small(full_inputs["corpus7"], tmp_path)
    plain = wl.run(symbreak, inputs)
    tr = tracer.Tracer(symbreak)
    tr.install()
    try:
        traced = wl.run(symbreak, inputs)
    finally:
        tr.restore()
    assert traced == plain


def test_checker_flags_a_corrupted_corpus7_line(full_inputs):
    wl = workloads.WORKLOADS["corpus7"]
    inputs = full_inputs["corpus7"]
    golden = wl.golden(0)
    assert wl.check(symbreak, inputs, (0, golden), golden).ok
    lines = golden.splitlines(keepends=True)
    lines[500] = lines[500].replace(" m=", " m=1", 1)
    bad = wl.check(symbreak, inputs, (0, golden), "".join(lines))
    assert bad.failed == {500} and bad.exact is False and not bad.ok


def test_checker_flags_question_marks_and_missing_lines(full_inputs):
    wl = workloads.WORKLOADS["large-groups"]
    inputs = full_inputs["large-groups"]
    golden = wl.golden(0)
    lines = golden.splitlines(keepends=True)
    unknown = lines[1].replace(" rho=9 ", " rho=? ")
    out = lines[0] + unknown + lines[3]
    assert wl.check(symbreak, inputs, (0, out), golden).failed == {1, 2}


def test_checker_flags_a_corrupted_regular_digest(full_inputs, tmp_path):
    wl = workloads.WORKLOADS["regular"]
    inputs = small(full_inputs["regular"], tmp_path)
    result = wl.run(symbreak, inputs)
    golden = wl.golden(3)[:SMALL]
    assert wl.check(symbreak, inputs, result, golden).ok
    golden[7] = "0" * 12
    assert wl.check(symbreak, inputs, result, golden).failed == {7}


def test_reverify_rejects_a_wrong_witness(full_inputs):
    inputs = full_inputs["regular"]
    for g in inputs.graphs:
        report = symbreak.analyze(g)
        if report.aut_order > 1:
            break
    fields = workloads.fields_of(report.to_line())
    assert workloads.reverify(symbreak, g, fields)
    assert not workloads.reverify(symbreak, g, dict(fields, Det=str(report.det + 1)))
    assert not workloads.reverify(symbreak, g, dict(fields, aut=str(report.aut_order * 2)))


def test_checker_flags_a_moved_equiv_member(full_inputs):
    wl = workloads.WORKLOADS["equiv"]
    inputs = full_inputs["equiv"]
    golden = wl.golden(0)
    want = json.loads(golden)
    moved = want["classes"][5].pop()
    want["classes"][6].append(moved)
    bad = wl.check(symbreak, inputs, golden, json.dumps(want, separators=(",", ":")))
    assert moved in bad.failed and not bad.ok


def test_benchmark_json_names_the_emitted_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.metric_units()
