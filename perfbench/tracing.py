"""Spans around the library's public functions, and the per-layer metrics
computed from them.

The tracer replaces each traced function at its module attribute, and at
every other ``climdemand`` module attribute bound to the same object (the
CLI's ``from .forest import train_forest``, spectral's ``fit_var``), so calls
between modules are seen too.  Spans stay in memory until the run ends.

A function that no longer exists after a refactor is skipped, and the
metrics computed from it are left out of ``layer_metrics``; ``run.py`` names
them absent in its report.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import sys
import threading
import time
from typing import Callable


def _arg(args, kwargs, index, name):
    return args[index] if index < len(args) else kwargs.get(name)


def _forest_counts(args, kwargs, model):
    arrays = [(t.feature, t.threshold, t.left, t.right, t.value) for t in model.trees]
    return {
        "trees": model.n_trees,
        "nodes": sum(a[0].size for a in arrays),
        "model_bytes": sum(x.nbytes for a in arrays for x in a),
    }


def _predict_counts(args, kwargs, result):
    features = _arg(args, kwargs, 1, "features")
    return {"rows": 1 if getattr(features, "ndim", 1) == 1 else len(features)}


def _gc_counts(args, kwargs, result):
    from climdemand.spectral import GcBootstrapConfig

    cfg = next((a for a in (*args, *kwargs.values()) if isinstance(a, GcBootstrapConfig)),
               None) or GcBootstrapConfig()
    return {"attempted": cfg.n_replicates, "kept": result.n_replicates}


def _replicates(args, kwargs, result):
    return {"replicates": result.n_replicates}


# (layer, module, function, counts) for every traced function.  A layer is
# named after the module that holds its code; varbase's functions are traced
# where spectral binds them.  The CLI's span lets its own time be told apart
# from the benchmark's (clearing the out-dir, hashing and checking outputs).  ``counts`` maps (args, kwargs, result) to the
# call's work counts; the span keeps the counts, not the arguments.
TARGETS = (
    ("cli", "cli", "main", None),
    ("forest", "forest", "train_forest", _forest_counts),
    ("forest", "forest", "predict", _predict_counts),
    ("forest", "forest", "oob_metrics", None),
    ("trend", "trend", "fit_trend_model",
     lambda a, k, model: {"duality_gap": float(model.duality_gap)}),
    ("spectral", "spectral", "unconditional_gc_spectrum", _gc_counts),
    ("spectral", "spectral", "conditional_gc_spectrum", _gc_counts),
    ("varbase", "spectral", "fit_var", None),
    ("varbase", "spectral", "simulate_var", None),
    ("varx", "varx", "fit_varx", None),
    ("varx", "varx", "residual_bootstrap", _replicates),
    ("varx", "varx", "bias_correct", None),
    ("varx", "varx", "irf", None),
    ("varx", "varx", "fevd", None),
    ("sparsevar", "sparsevar", "select_lambda", None),
    ("sparsevar", "sparsevar", "fit_lasso_var",
     lambda a, k, model: {"sweeps": int(model.n_sweeps.sum())}),
    ("diagnostics", "diagnostics", "portmanteau_test", _replicates),
    ("diagnostics", "diagnostics", "arch_lm_test", _replicates),
    ("panel", "panel", "read_panel_csv", None),
    ("panel", "panel", "write_panel_csv", None),
    ("panel", "panel", "read_daily_csv", None),
    ("panel", "panel", "write_daily_csv", None),
    ("panel", "panel", "_atomic_write_text",
     lambda a, k, result: {"bytes": len(_arg(a, k, 1, "text").encode("utf-8"))}),
    ("synth", "synth", "generate_synthetic_daily", None),
    ("synth", "synth", "generate_synthetic_panel", None),
    ("features", "features", "aggregate_weekly_national", None),
    ("hpfilter", "hpfilter", "hp_cycle", None),
    ("hpfilter", "hpfilter", "hp_trend", None),
    ("hpfilter", "hpfilter", "seasonal_adjust", None),
    ("metrics", "metrics", "evaluate_forecast", None),
    ("metrics", "metrics", "compare_models", None),
)


@dataclasses.dataclass
class Span:
    span_id: int
    name: str
    run_id: str
    parent: int | None
    start: float
    end: float = float("nan")
    counts: dict = dataclasses.field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def record(self) -> dict:
        return {
            "id": self.span_id,
            "name": self.name,
            "run_id": self.run_id,
            "parent": self.parent,
            "start": self.start,
            "end": self.end,
        }


class Tracer:
    """Records spans for the traced functions while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._root_stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.run_id = ""

    # -- span bookkeeping --------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            # A worker thread's first span hangs off the span that was open
            # on the thread that started the root span.
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else (self._root_stack[-1] if self._root_stack else None)
        span = Span(next(self._ids), name, self.run_id, parent, time.perf_counter())
        self.spans.append(span)
        stack.append(span.span_id)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    def root(self, name: str, run_id: str, fn: Callable[[], object]):
        """Run ``fn`` inside a root span; returns (span, result)."""
        self.run_id = run_id
        span = self._open(name)
        self._root_stack = self._stack()
        try:
            result = fn()
        finally:
            self._close(span)
            self._root_stack = []
        return span, result

    # -- installation --------------------------------------------------------

    def _wrap(self, name: str, fn, counts):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counts is not None:
                span.counts = counts(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        loaded = [m for n, m in sorted(sys.modules.items())
                  if (n == "climdemand" or n.startswith("climdemand.")) and m is not None]
        for layer, module, attr, counts in TARGETS:
            home = sys.modules.get(f"climdemand.{module}")
            original = getattr(home, attr, None)
            if original is None:
                self.missing.append(f"{module}.{attr}")
                continue
            wrapper = self._wrap(f"{layer}:{attr}", original, counts)
            for mod in loaded:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, value))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, value in reversed(self._patches):
            setattr(mod, key, value)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


# ---------------------------------------------------------------------------
# span arithmetic


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_time(span: Span, spans: list[Span]) -> float:
    """The span's duration minus the part of it its child spans cover."""
    children = [(max(s.start, span.start), min(s.end, span.end))
                for s in spans if s.parent == span.span_id]
    return span.duration - covered(children)


# ---------------------------------------------------------------------------
# per-layer metrics


def layer_metrics(spans: list[Span], missing: list[str]) -> dict[str, float]:
    """Per-layer metrics of one traced operation.

    Times are the union of the layer's spans, so nested and concurrent calls
    count once.  A metric whose function is missing is left out; a layer
    that does not run on the workload reads 0.
    """
    gone = set(missing)
    out: dict[str, float] = {}

    def calls(name: str) -> list[Span]:
        return [s for s in spans if s.name == name]

    def has(*functions: str) -> bool:
        return not any(f in gone for f in functions)

    def busy(*names: str) -> float:
        return covered((s.start, s.end) for n in names for s in calls(n))

    def total(name: str, key: str) -> float:
        return float(sum(s.counts[key] for s in calls(name)))

    if has("cli.main"):
        # The CLI's orchestration, row building and formatting: its spans'
        # time outside every traced function they call.
        out["cli.self_s"] = float(sum(self_time(s, spans) for s in calls("cli:main")))
    if has("forest.train_forest"):
        out["forest.train_s"] = busy("forest:train_forest")
        for key in ("trees", "nodes", "model_bytes"):
            out[f"forest.{key}"] = total("forest:train_forest", key)
    if has("forest.predict"):
        out["forest.predict_s"] = busy("forest:predict")
        out["forest.predict_calls"] = float(len(calls("forest:predict")))
        out["forest.predict_rows"] = total("forest:predict", "rows")
    if has("forest.oob_metrics"):
        out["forest.oob_s"] = busy("forest:oob_metrics")
    if has("trend.fit_trend_model"):
        fits = calls("trend:fit_trend_model")
        out["trend.fit_s"] = busy("trend:fit_trend_model")
        out["trend.fits"] = float(len(fits))
        out["trend.duality_gap_max"] = max((s.counts["duality_gap"] for s in fits), default=0.0)
    uncond, cond = "spectral:unconditional_gc_spectrum", "spectral:conditional_gc_spectrum"
    if has("spectral.unconditional_gc_spectrum", "spectral.conditional_gc_spectrum"):
        attempted = total(uncond, "attempted") + total(cond, "attempted")
        out["spectral.unconditional_s"] = busy(uncond)
        out["spectral.conditional_s"] = busy(cond)
        out["spectral.replicates"] = attempted
        out["spectral.failed_replicates"] = attempted - total(uncond, "kept") - total(cond, "kept")
        out["spectral.replicate_ms"] = 1000.0 * busy(uncond, cond) / attempted if attempted else 0.0
    for fn, key in (("fit_var", "fit_var"), ("simulate_var", "simulate")):
        if has(f"spectral.{fn}"):
            out[f"varbase.{key}_calls"] = float(len(calls(f"varbase:{fn}")))
            out[f"varbase.{key}_s"] = busy(f"varbase:{fn}")
    if has("varx.fit_varx"):
        out["varx.fit_s"] = busy("varx:fit_varx")
    if has("varx.residual_bootstrap"):
        out["varx.bootstrap_s"] = busy("varx:residual_bootstrap")
        out["varx.bootstrap_replicates"] = total("varx:residual_bootstrap", "replicates")
    if has("varx.bias_correct"):
        out["varx.bias_correct_s"] = busy("varx:bias_correct")
    if has("varx.irf", "varx.fevd"):
        out["varx.irf_fevd_s"] = busy("varx:irf", "varx:fevd")
    if has("sparsevar.select_lambda"):
        out["sparsevar.select_s"] = busy("sparsevar:select_lambda")
    if has("sparsevar.fit_lasso_var"):
        out["sparsevar.fits"] = float(len(calls("sparsevar:fit_lasso_var")))
        out["sparsevar.sweeps"] = total("sparsevar:fit_lasso_var", "sweeps")
    tests = ("diagnostics:portmanteau_test", "diagnostics:arch_lm_test")
    if has("diagnostics.portmanteau_test", "diagnostics.arch_lm_test"):
        out["diagnostics.test_s"] = busy(*tests)
        out["diagnostics.tests"] = float(sum(len(calls(n)) for n in tests))
        out["diagnostics.replicates"] = sum(total(n, "replicates") for n in tests)
    io = ("read_panel_csv", "write_panel_csv", "read_daily_csv", "write_daily_csv",
          "_atomic_write_text")
    if has(*(f"panel.{f}" for f in io)):
        out["panel.io_s"] = busy(*(f"panel:{f}" for f in io))
        out["panel.bytes_written"] = total("panel:_atomic_write_text", "bytes")
    for layer, key, functions in (
        ("synth", "generate_s", ("generate_synthetic_daily", "generate_synthetic_panel")),
        ("features", "aggregate_s", ("aggregate_weekly_national",)),
        ("hpfilter", "s", ("hp_cycle", "hp_trend", "seasonal_adjust")),
        ("metrics", "s", ("evaluate_forecast", "compare_models")),
    ):
        if has(*(f"{layer}.{f}" for f in functions)):
            out[f"{layer}.{key}"] = busy(*(f"{layer}:{f}" for f in functions))
    return out
