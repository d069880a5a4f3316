#!/usr/bin/env python3
"""The symbreak benchmark: end-to-end timings of one workload, every answer
checked, or per-layer numbers from a separate traced run.

    python3 bench/run.py --workload corpus7 --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all          # every workload, one table

Run from the root of a checkout; the program is imported from src/. Each
workload runs in this single process with --jobs 1. Set-up (import, input
construction, writing the graph6 file) is repeated between the passes. The
number of whole passes over the input follows from --seconds and the
workload's nominal pass time alone, so every version of the program gets
the same number of samples. A reference probe runs throughout (see
reference.py), and every set-up and pass time is calibrated by it to the
speed of a quiet reference machine; setup_s and wall_s are the medians of
those calibrated times. With --trace 1, untraced and traced passes
alternate and the per-layer metrics of the traced ones are reported
instead; their span times are raw.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. attempted counts input graphs over all checked passes,
failed those whose output differed from the goldens, showed '?', was
missing or raised. See README.md for workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
SETUP_REPS = 12  # timed set-ups per run, after one untimed warm-up
MIN_PASSES = 3
TIME_LIMIT_S = 150  # a run that needs longer stops with an error

import reference  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def load_program():
    """Import symbreak afresh: drop any loaded copy so that the import is
    timed, and return the package with its cli module loaded."""
    for name in [m for m in sys.modules if m == "symbreak" or m.startswith("symbreak.")]:
        del sys.modules[name]
    pkg = importlib.import_module("symbreak")
    importlib.import_module("symbreak.cli")
    return pkg


def run_header(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_rev": _git_rev(),
        "src_sha256": _src_digest(),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_rev() -> str | None:
    """HEAD of the checkout, or None when it is not a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "symbreak").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def set_up(wl, seed: int):
    """Import the program afresh and build the inputs. Returns when it
    started and ended, the program and the inputs."""
    gc.collect()
    start = perf_counter()
    sb = load_program()
    inputs = wl.build(sb, seed, WORK)
    return (start, perf_counter()), sb, inputs


def timed_pass(wl, sb, inputs):
    """One pass: when it started and ended, and its result."""
    gc.collect()
    start = perf_counter()
    result = wl.run(sb, inputs)
    return (start, perf_counter()), result


def pass_count(wl, seconds: float) -> int:
    """Passes per run: as many as fit in --seconds at the workload's nominal
    pass time. It does not depend on how fast the program runs."""
    return max(MIN_PASSES, round(seconds / wl.cycle_s))


@dataclass
class Measured:
    setups: list[float]  # calibrated set-up times
    walls: dict[bool, list[float]]  # calibrated pass times, by whether traced
    raw_walls: list[float]  # untraced pass times as measured
    probe_s: float  # median probe time over the run
    checks: list
    layer_runs: list[dict]
    absent: list[str]


def measure(wl, seed: int, golden, seconds: float, trace: bool):
    """Set up once untimed, since that may compile bytecode. Then run and
    check a fixed number of passes, one of each kind per round when tracing.
    The SETUP_REPS timed set-ups are spread evenly between the rounds; each
    one replaces the program and inputs that the next passes use. The
    reference probe runs throughout."""
    probe = reference.Probe()
    probe.start()
    try:
        _interval, sb, inputs = set_up(wl, seed)
        rounds = pass_count(wl, seconds)
        if trace:
            rounds = max(2, rounds // 2)
        deadline = perf_counter() + TIME_LIMIT_S
        setups = []
        passes = {False: [], True: []}
        checks = []
        layer_runs = []
        absent = []
        kinds = [False, True] if trace else [False]
        for i in range(rounds):
            for _ in range(SETUP_REPS * (i + 1) // rounds - SETUP_REPS * i // rounds):
                interval, sb, inputs = set_up(wl, seed)
                setups.append(interval)
            for traced in kinds:
                if traced:
                    tr = tracer.Tracer(sb)
                    tr.install()
                    try:
                        interval, result = timed_pass(wl, sb, inputs)
                    finally:
                        tr.restore()
                    layer_runs.append(tr.metrics(len(inputs.records)))
                    absent = tr.absent
                else:
                    interval, result = timed_pass(wl, sb, inputs)
                passes[traced].append(interval)
                checks.append(wl.check(sb, inputs, result, golden))
            if perf_counter() > deadline:
                raise SystemExit(f"error: {rounds} rounds of {wl.name} did not fit in {TIME_LIMIT_S} s")
    finally:
        probe.stop()
    return Measured(
        setups=[probe.calibrated(*iv) for iv in setups],
        walls={kind: [probe.calibrated(*iv) for iv in ivs] for kind, ivs in passes.items()},
        raw_walls=[end - start for start, end in passes[False]],
        probe_s=statistics.median(probe.took),
        checks=checks,
        layer_runs=layer_runs,
        absent=absent,
    )


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def report_checks(checks) -> tuple[bool, int, int]:
    attempted = sum(c.graphs for c in checks)
    failed = sum(len(c.failed) for c in checks)
    correct = all(c.ok for c in checks)
    first_bad = next((c for c in checks if not c.ok), checks[0])
    for fact, held in first_bad.facts.items():
        print(f"check: {fact}: {'ok' if held else 'FAILED'}")
    exact = {c.exact for c in checks}
    print(f"check: output equals golden: {'no golden for this seed' if exact == {None} else all(exact)}")
    if first_bad.failed:
        print(f"check: failing input graphs (first failing pass): {sorted(first_bad.failed)[:20]}")
    print(f"failed_frac {failed / attempted:.6f} ({failed} of {attempted} graphs, {len(checks)} passes)")
    return correct, attempted, failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=12)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "symbreak" / "__init__.py").is_file():
        print(f"error: no program at {SRC / 'symbreak'}; run from a full checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    wl = workloads.WORKLOADS[args.workload]
    print("header " + json.dumps(run_header(args), sort_keys=True))

    golden = wl.golden(args.seed)
    m = measure(wl, args.seed, golden, args.seconds, bool(args.trace))
    correct, attempted, failed = report_checks(m.checks)

    if args.trace:
        metrics = {
            name: statistics.median(run[name] for run in m.layer_runs)
            for name in m.layer_runs[0]
        }
        untraced = statistics.median(m.walls[False])
        traced = statistics.median(m.walls[True])
        metrics["trace.untraced_wall_s"] = untraced
        metrics["trace.traced_wall_s"] = traced
        metrics["trace.overhead_s"] = traced - untraced
        print_layers(metrics, m.absent, len(m.walls[True]))
        units = tracer.metric_units()
    else:
        metrics = {
            "setup_s": statistics.median(m.setups),
            "wall_s": statistics.median(m.walls[False]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        print(f"probe median {m.probe_s * 1e6:.1f} us (nominal {reference.NOMINAL_S * 1e6:.1f} us): "
              f"this run went at {reference.NOMINAL_S / m.probe_s:.0%} of the reference speed")
        q1, med, q3 = quartiles(m.setups)
        print(f"setup_s {med:.6f} s (median of {len(m.setups)} calibrated set-ups; q1 {q1:.6f}, q3 {q3:.6f})")
        q1, med, q3 = quartiles(m.walls[False])
        raw = quartiles(m.raw_walls)[1]
        print(f"wall_s {med:.6f} s (median of {len(m.walls[False])} calibrated passes over "
              f"{m.checks[0].graphs} graphs; q1 {q1:.6f}, q3 {q3:.6f}; as measured: median {raw:.6f})")
        print(f"peak_rss_mb {metrics['peak_rss_mb']:.3f} MB (peak resident memory of this process)")
        units = END_TO_END
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


def print_layers(metrics: dict, absent: list[str], passes: int) -> None:
    print(f"layers (median of {passes} traced passes): span calls total_s self_s")
    for span, module, attr in tracer.SPANS:
        state = "  absent" if f"{module}.{attr}" in absent else ""
        print(f"  {span:24} {metrics[f'{span}_calls']:>9} {metrics[f'{span}_s']:11.6f} "
              f"{metrics[f'{span}_self_s']:11.6f}{state}")
    for name in (*tracer.COUNTERS, *tracer.OVERHEAD):
        print(f"  {name:32} {metrics[name]}")
    for name in absent:
        print(f"  absent in this program: {name}")


def run_all(args) -> int:
    """Every workload in its own process, then one table of their metrics."""
    rows = []
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited {proc.returncode}")
            return 1
        rows.append((name, json.loads(lines[-1])))
    for name, res in rows:
        print(f"{name}: correct={res['correct']} failed={res['failed']} of {res['attempted']}")
        for metric, m in res["metrics"].items():
            print(f"  {metric:32} {m['value']:14.6f} {m['unit']}")
    return 0 if all(res["correct"] for _, res in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
