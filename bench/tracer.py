"""Outside-in tracer for the symbreak package, used only by traced runs.

The package imports functions by name (``from .graphs import encode_graph6``),
so rebinding a function in its home module alone would miss most callers.
``Tracer.install`` therefore replaces every binding of each entry function in
every loaded ``symbreak.*`` module with a wrapper that records a span, and
``Tracer.restore`` puts the originals back. No file of the package changes.

A span's self time is its duration minus the time of the spans it directly
caused. Names a later version of the package no longer has are reported as
absent; their metrics read 0.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import statistics
from time import perf_counter

# (span, module, attribute): one span per layer entry function. The span's
# metrics are <span>_s (total time), <span>_self_s and <span>_calls.
SPANS = (
    ("cli.main", "cli", "main"),
    ("cli.emit", "cli", "_emit_report"),
    ("graphs.parse", "graphs", "parse_graph6"),
    ("graphs.encode", "graphs", "encode_graph6"),
    ("autgroup.group", "autgroup", "automorphism_group"),
    ("autgroup.search", "autgroup", "automorphism_elements"),
    ("metrics.analyze", "metrics", "analyze"),
    ("metrics.rho_scan", "metrics", "_min_distinguishing_class"),
    ("metrics.det_scan", "metrics", "_min_determining_set"),
    ("metrics.coloring", "metrics", "_distinguishing_ge3"),
    ("checks.corpus", "checks", "scan_corpus"),
    ("checks.scan", "checks", "_scan_one"),
    ("checks.pair_rules", "checks", "check_pair_rules"),
    ("checks.brute_rho", "checks", "_brute_min_class_size"),
    ("equivalence.classes", "equivalence", "equivalence_classes"),
    ("equivalence.bijection", "equivalence", "_conjugating_bijection"),
)

# Work counters taken from the same wrappers, with their units.
COUNTERS = {
    "autgroup.elements": "count",  # automorphisms materialized by the search
    "autgroup.calls_per_graph": "calls/graph",
    "perms.group_build_s": "s",  # automorphism_group time minus the search
    "metrics.subset_reps": "count",  # orbit representatives yielded
    "metrics.subset_sweeps": "count",  # representatives x |Aut|
    "metrics.analyze_ms.p50": "ms",
    "metrics.analyze_ms.p99": "ms",
    "perms.cycle_type_calls": "count",
}

OVERHEAD = {
    "trace.untraced_wall_s": "s",
    "trace.traced_wall_s": "s",
    "trace.overhead_s": "s",  # traced minus untraced wall time, medians
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {}
    for span, _module, _attr in SPANS:
        units[f"{span}_s"] = "s"
        units[f"{span}_self_s"] = "s"
        units[f"{span}_calls"] = "count"
    units.update(COUNTERS)
    units.update(OVERHEAD)
    return units


def package_modules(pkg) -> list:
    """The package and every submodule except __main__, whose import runs the
    command line and exits."""
    mods = [pkg]
    for info in pkgutil.iter_modules(pkg.__path__):
        if info.name != "__main__":
            mods.append(importlib.import_module(f"{pkg.__name__}.{info.name}"))
    return mods


class Tracer:
    def __init__(self, pkg):
        self.pkg = pkg
        self.absent: list[str] = []
        self._saved: list[tuple[object, str, object]] = []
        self._reset()

    def _reset(self) -> None:
        self.stats = {span: [0, 0.0, 0.0] for span, _m, _a in SPANS}  # calls, total, self
        self.analyze_ms: list[float] = []
        self.counts = {"elements": 0, "subset_reps": 0, "subset_sweeps": 0, "cycle_type": 0}
        self._stack: list[float] = []  # child time of each open span

    # -- wrappers ---------------------------------------------------------

    def _span(self, span: str, fn):
        stats = self.stats
        stack = self._stack
        record_ms = self.analyze_ms if span == "metrics.analyze" else None
        count_elements = span == "autgroup.search"
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - start
                child = stack.pop()
                if stack:
                    stack[-1] += dur
                st = stats[span]
                st[0] += 1
                st[1] += dur
                st[2] += dur - child
                if record_ms is not None:
                    record_ms.append(dur * 1000.0)
            if count_elements:
                counts["elements"] += len(result)
            return result

        return wrapper

    def _representatives(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(scan, sizes):
            sweep = len(getattr(scan, "images", ()))
            for item in fn(scan, sizes):
                counts["subset_reps"] += 1
                counts["subset_sweeps"] += sweep
                yield item

        return wrapper

    def _counted(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts["cycle_type"] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- install / restore ------------------------------------------------

    def install(self) -> None:
        """Start a fresh recording and rebind every entry function."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        self._reset()
        mods = package_modules(self.pkg)
        by_name = {m.__name__.rpartition(".")[2]: m for m in mods}
        self.absent = []
        targets = [(m, a, functools.partial(self._span, span)) for span, m, a in SPANS]
        targets.append(("perms", "cycle_type", self._counted))
        for module, attr, make in targets:
            orig = getattr(by_name.get(module), attr, None)
            if orig is None:
                self.absent.append(f"{module}.{attr}")
                continue
            wrapped = make(orig)
            for mod in mods:
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        self._saved.append((mod, name, orig))
                        setattr(mod, name, wrapped)
        scan_cls = getattr(by_name.get("metrics"), "_SubsetScan", None)
        reps = getattr(scan_cls, "representatives", None)
        if reps is None:
            self.absent.append("metrics._SubsetScan.representatives")
        else:
            self._saved.append((scan_cls, "representatives", reps))
            scan_cls.representatives = self._representatives(reps)

    def restore(self) -> None:
        while self._saved:
            obj, name, orig = self._saved.pop()
            setattr(obj, name, orig)

    # -- results ----------------------------------------------------------

    def metrics(self, graphs: int) -> dict[str, float]:
        """Per-layer metrics of everything recorded since the last install.
        graphs is the number of input graphs of the traced pass."""
        out: dict[str, float] = {}
        for span, (calls, total, self_s) in self.stats.items():
            out[f"{span}_s"] = total
            out[f"{span}_self_s"] = self_s
            out[f"{span}_calls"] = calls
        out["autgroup.elements"] = self.counts["elements"]
        out["autgroup.calls_per_graph"] = self.stats["autgroup.search"][0] / max(graphs, 1)
        out["perms.group_build_s"] = self.stats["autgroup.group"][2]
        out["metrics.subset_reps"] = self.counts["subset_reps"]
        out["metrics.subset_sweeps"] = self.counts["subset_sweeps"]
        out["metrics.analyze_ms.p50"] = _percentile(self.analyze_ms, 50)
        out["metrics.analyze_ms.p99"] = _percentile(self.analyze_ms, 99)
        out["perms.cycle_type_calls"] = self.counts["cycle_type"]
        return out


def _percentile(samples: list[float], p: int) -> float:
    if not samples:
        return 0.0
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[p - 1]

