"""Span tracer that wraps the package's public functions from outside.

`Tracer.install()` replaces each traced function with a timing wrapper in
every loaded `artifact.*` module that holds a reference to it (modules
import each other's functions by name, so one function can be reachable
under several module attributes). `Tracer.uninstall()` puts the original
objects back. Spans stay in memory as (layer, start, end, parent) tuples;
counts are gathered by small hooks that read a call's arguments or result.
"""
from __future__ import annotations

import contextlib
import gzip
import importlib
import json
import math
import sys
import time
import warnings
from collections import defaultdict

# (module, function, layer). Self time is charged to the layer and reported
# as the per-layer metric "<layer>_s".
TRACED = (
    ("artifact.cli", "main", "cli.self"),
    ("artifact.config", "load_config", "config.load"),
    ("artifact.runner", "gain_bank", "gains.bank"),
    ("artifact.runner", "prepare_modes", "runner.prepare"),
    ("artifact.runner", "run", "runner.write"),
    ("artifact.runner", "simulate_truth", "runner.truth"),
    ("artifact.residuals", "build_coefficients", "residuals.coeff"),
    ("artifact.residuals", "build_threshold_table", "residuals.table"),
    ("artifact.observer", "init_observer", "observer.init"),
    ("artifact.observer", "step_observer", "observer.step"),
    ("artifact.residuals", "compute_residual", "residuals.residual"),
    ("artifact.estimator", "eliminate_step", "estimator.elim"),
    ("artifact.detectability", "steady_tri", "detectability.steady"),
    ("artifact.detectability", "report_detectability", "detectability.report"),
)

# Root spans opened by the benchmark itself around set-up and operations.
BENCH_LAYER = "bench.self"
LAYERS = tuple(layer for _, _, layer in TRACED) + (BENCH_LAYER,)

_MARK = "__perfbench_wrapper__"


def _count_table(counts, args, result):
    from artifact.residuals import word_dim

    dec = args[1]  # build_threshold_table(gains, dec, ...)
    n, l = dec.c2.shape[1], dec.t2.shape[1]
    for rep in result:
        counts["residuals.entries"] += 1
        counts["residuals.word_coords"] += word_dim(rep.k, n, l)
        counts["residuals.vertices"] += rep.vertices_enumerated
        counts["residuals.capped"] += int(rep.capped)
        counts["residuals.inf_wins"] += int(rep.delta_inf < rep.delta_tri)
        counts["residuals.nonfinite"] += int(not math.isfinite(rep.delta_hat))


def _count_coeff(counts, args, result):
    counts["residuals.coeff_blocks"] += (
        len(result.a_mats) + len(result.f_mats) + len(result.j_mats)
    )


def _count_step(counts, args, result):
    counts["observer.steps"] += 1


def _count_elim(counts, args, result):
    before = args[0]
    counts["estimator.eliminations"] += len(result.eliminated_at) - len(
        before.eliminated_at
    )


def _count_steady(counts, args, result):
    counts["detectability.iterations"] += result.iterations


# Every count the hooks below gather; a workload that never calls a hooked
# function reports 0 for it.
COUNTS = (
    "residuals.coeff_blocks", "residuals.entries", "residuals.word_coords",
    "residuals.vertices", "residuals.capped", "residuals.inf_wins",
    "residuals.nonfinite", "observer.steps", "estimator.eliminations",
    "detectability.iterations",
)

COUNT_HOOKS = {
    "residuals.table": _count_table,
    "residuals.coeff": _count_coeff,
    "observer.step": _count_step,
    "estimator.elim": _count_elim,
    "detectability.steady": _count_steady,
}


class Tracer:
    """In-memory span recorder; one instance per traced phase."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------
    def _open(self, layer: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((layer, time.perf_counter(), math.nan, parent))
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._stack.pop()
        layer, start, _, parent = self.spans[idx]
        self.spans[idx] = (layer, start, time.perf_counter(), parent)

    @contextlib.contextmanager
    def span(self, layer: str = BENCH_LAYER):
        idx = self._open(layer)
        try:
            yield
        finally:
            self._close(idx)

    # -- wrapping ----------------------------------------------------
    def _wrap(self, func, layer: str):
        hook = COUNT_HOOKS.get(layer)
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer._open(layer)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer._close(idx)
            if hook is not None:
                hook(tracer.counts, args, result)
            return result

        wrapper.__wrapped__ = func
        setattr(wrapper, _MARK, True)
        return wrapper

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        for module_name, attr, layer in TRACED:
            original = getattr(importlib.import_module(module_name), attr)
            wrapper = self._wrap(original, layer)
            for name, module in list(sys.modules.items()):
                if name != "artifact" and not name.startswith("artifact."):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    # -- results -----------------------------------------------------
    def self_times(self, lo: int, hi: int) -> dict[str, float]:
        """Per-layer self time of spans lo..hi-1: each span's duration minus
        the time covered by its direct children. A span's children come
        after it, so a range that starts at a root span is closed."""
        child_time = [0.0] * (hi - lo)
        for layer, start, end, parent in self.spans[lo:hi]:
            if parent >= lo:
                child_time[parent - lo] += end - start
        out: dict[str, float] = defaultdict(float)
        for idx, (layer, start, end, _) in enumerate(self.spans[lo:hi]):
            out[layer] += (end - start) - child_time[idx]
        return dict(out)

    def write(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {name: i for i, name in enumerate(names)}
        payload = {
            "layers": names,
            "columns": ["layer", "start_s", "end_s", "parent"],
            "spans": [[index[l], s, e, p] for l, s, e, p in self.spans],
            "counts": dict(self.counts),
        }
        with gzip.open(path, "wt") as fh:
            json.dump(payload, fh)


def wrappers_left() -> int:
    """Number of module attributes in `artifact.*` still bound to a wrapper."""
    left = 0
    for name, module in list(sys.modules.items()):
        if name != "artifact" and not name.startswith("artifact."):
            continue
        left += sum(1 for v in vars(module).values() if getattr(v, _MARK, False))
    return left


class WarningCounter:
    """Counts every RuntimeWarning raised while active."""

    def __enter__(self):
        self._ctx = warnings.catch_warnings(record=True)
        self._log = self._ctx.__enter__()
        warnings.simplefilter("always", RuntimeWarning)
        return self

    def __exit__(self, *exc):
        return self._ctx.__exit__(*exc)

    @property
    def count(self) -> int:
        return sum(1 for w in self._log if issubclass(w.category, RuntimeWarning))
