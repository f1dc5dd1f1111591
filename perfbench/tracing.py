"""Layer spans recorded from outside the program.

The benchmark adds no instrumentation under ``src/``.  Instead it wraps
the public functions at each layer boundary of ``repro`` for the length
of a traced pass and restores the originals afterwards:

* :class:`Tracer` keeps one span total per layer name (calls, self
  time = inclusive time minus the time of wrapped children,
  and exceptions raised).  The span stack is per thread, because the
  service daemon parses Liberty on its event-loop thread and solves on a
  worker thread.
* :func:`install_layers` patches every layer of the table below; the
  patch replaces a function in its defining module *and* in every
  ``repro`` module that imported it by name, so callers that did
  ``from .transient import simulate_transient_many`` see the wrapper
  too.
* :func:`layer_metrics` turns span totals plus the program's own
  counters (``TransientResult.stats``, ``stats["phase_seconds"]`` under
  ``REPRO_PHASE_TIMERS``, :func:`repro.exec.fleet_stats`,
  :func:`repro.sta.quiet_cache_stats`) into the flat per-layer metric
  names listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict

TECHNIQUES = ("P1", "P2", "LSF3", "E4", "WLS5", "SGDP")


class Span:
    """Running totals of one layer span."""

    __slots__ = ("calls", "self_s", "errors")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.errors = 0


class Tracer:
    """Span totals and counters, fed by wrappers around layer calls."""

    def __init__(self) -> None:
        self.spans: dict[str, Span] = defaultdict(Span)
        self.counters: dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def reset(self) -> None:
        with self._lock:
            self.spans.clear()
            self.counters.clear()

    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counters[name] += value

    def wrap(self, name: str, fn, observe=None):
        """``fn`` timed as span ``name``; ``observe(out)`` runs on the
        result, outside the timed interval."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            frame = [0.0]
            stack.append(frame)
            failed = False
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                failed = True
                raise
            finally:
                elapsed = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                with tracer._lock:
                    span = tracer.spans[name]
                    span.calls += 1
                    span.self_s += elapsed - frame[0]
                    span.errors += failed
            if observe is not None:
                observe(out)
            return out

        return wrapper

    # -- patching --------------------------------------------------------
    def patch_function(self, module, attr: str, name: str, observe=None) -> None:
        """Wrap ``module.attr`` everywhere a ``repro`` module binds it."""
        original = getattr(module, attr)
        wrapper = self.wrap(name, original, observe)
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def patch_method(self, cls, attr: str, name: str, observe=None) -> None:
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self.wrap(name, original, observe))

    def restore(self) -> None:
        """Put every patched function back (reverse order of patching)."""
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def self_s(self, *names: str) -> float:
        return sum(self.spans[n].self_s for n in names if n in self.spans)

    def calls(self, *names: str) -> int:
        return sum(self.spans[n].calls for n in names if n in self.spans)


def _observe_transient(tracer: Tracer):
    """Fold solver counters of returned ``TransientResult``s.

    Every member of a batched group carries the group's stats, so group
    counters are summed at weight ``1/batch_size`` (the same recovery
    :func:`repro.exec.fleet_stats` uses).
    """
    def observe(out):
        results = out if isinstance(out, list) else [out]
        counts: dict[str, float] = defaultdict(float)
        for res in results:
            stats = res.stats
            weight = 1.0 / max(1, int(stats.get("batch_size", 1)))
            counts["circuit.transient.jobs"] += 1
            counts["circuit.transient.groups"] += weight
            counts["circuit.transient.steps"] += len(res.times) - 1
            for key in ("newton_iters", "halvings", "newton_fallbacks"):
                counts[f"circuit.transient.{key}"] += stats.get(key, 0) * weight
            for key, value in (stats.get("phase_seconds") or {}).items():
                counts[f"circuit.phase.{key}"] += value * weight
        for key, value in counts.items():
            tracer.count(key, value)
    return observe


def _observe_path(tracer: Tracer):
    def observe(out):
        for stage in out:
            tracer.count("sta.noise_aware.slew_substitutions",
                         int(stage.output_slew_substituted)
                         + int(stage.retime_slew_substituted))
    return observe


def _observe_jobs(tracer: Tracer, counter: str):
    def observe(out):
        tracer.count(counter, len(out))
    return observe


def install_layers(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics are read from."""
    from repro.circuit import dc, mna, transient
    from repro.core import metrics, propagation, sensitivity
    from repro.core.techniques import base as tech_base
    from repro.exec import pool, store
    from repro.experiments import noise_injection, setup, table1
    from repro.library import liberty
    from repro.sta import analysis, noise_aware

    tracer.patch_function(transient, "simulate_transient_many",
                          "circuit.transient", _observe_transient(tracer))
    tracer.patch_function(transient, "simulate_transient",
                          "circuit.transient", _observe_transient(tracer))
    tracer.patch_method(mna.MnaSystem, "__init__", "circuit.mna")
    tracer.patch_function(dc, "dc_operating_point", "circuit.dc")
    tracer.patch_function(dc, "dc_operating_point_batch", "circuit.dc")
    # Transient fronts (run_jobs) and index fan-outs such as Monte-Carlo
    # samples (run_indexed) are separate spans, so jobs_per_call is the
    # width of transient fronts alone.
    tracer.patch_function(pool, "run_jobs", "exec.pool",
                          _observe_jobs(tracer, "exec.pool.jobs"))
    tracer.patch_function(pool, "run_indexed", "exec.indexed",
                          _observe_jobs(tracer, "exec.indexed.items"))
    for attr in ("key_for", "lookup", "store"):
        tracer.patch_method(store.ResultStore, attr, "exec.store")
    for attr in ("prepare_noise_sweep", "finish_noise_sweep"):
        tracer.patch_function(noise_injection, attr, "experiments.sweep_build")
    tracer.patch_function(setup, "receiver_fixture", "experiments.sweep_build")
    tracer.patch_function(table1, "run_table1_many", "experiments.scoring")
    tracer.patch_function(metrics, "error_stats", "experiments.scoring")
    tracer.patch_function(propagation, "prepare_evaluation",
                          "core.propagation.prepare")
    tracer.patch_function(propagation, "finish_evaluation",
                          "core.propagation.finish")
    tracer.patch_method(propagation.GateFixture, "measure",
                        "core.propagation.finish")
    for name in TECHNIQUES:
        cls = tech_base._REGISTRY[name]
        tracer.patch_method(cls, "equivalent_waveform",
                            f"core.techniques.{name}")
    tracer.patch_function(sensitivity, "compute_sensitivity", "core.sensitivity")
    tracer.patch_function(noise_aware, "propagate_path", "sta.noise_aware",
                          _observe_path(tracer))
    tracer.patch_method(analysis.StaEngine, "analyze", "sta.analysis")
    tracer.patch_function(liberty, "parse_liberty", "library.liberty")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, passes: int = 1) -> dict[str, float]:
    """Per-pass per-layer metrics from the span totals and counters.

    Every ``*_s`` value is a self time (inclusive time minus wrapped
    children), except ``circuit.phase.*``, which are the transient
    engine's own phase timers.  Layers a workload bypasses read 0.
    """
    c = tracer.counters
    sp = tracer.spans
    n = max(1, passes)
    jobs = c["circuit.transient.jobs"]
    pool_calls = tracer.calls("exec.pool")
    out = {
        "circuit.transient.calls": tracer.calls("circuit.transient"),
        "circuit.transient.jobs": jobs,
        "circuit.transient.batch_width_mean": _ratio(jobs, c["circuit.transient.groups"]),
        "circuit.transient.newton_iters": c["circuit.transient.newton_iters"],
        "circuit.transient.steps": c["circuit.transient.steps"],
        "circuit.transient.halvings": c["circuit.transient.halvings"],
        "circuit.transient.newton_fallbacks": c["circuit.transient.newton_fallbacks"],
        "circuit.transient.self_s": tracer.self_s("circuit.transient"),
        "circuit.phase.device_eval_s": c["circuit.phase.device_eval"],
        "circuit.phase.stamp_s": c["circuit.phase.stamp"],
        "circuit.phase.factor_s": c["circuit.phase.factor"],
        "circuit.phase.solve_s": c["circuit.phase.solve"],
        "circuit.phase.overhead_s": c["circuit.phase.overhead"],
        "circuit.mna.builds": tracer.calls("circuit.mna"),
        "circuit.mna.build_s": tracer.self_s("circuit.mna"),
        "circuit.dc.calls": tracer.calls("circuit.dc"),
        "circuit.dc.s": tracer.self_s("circuit.dc"),
        "exec.pool.calls": pool_calls,
        "exec.pool.jobs_per_call": _ratio(c["exec.pool.jobs"], pool_calls),
        "exec.pool.s": tracer.self_s("exec.pool"),
        "exec.pool.shards": c["exec.pool.shards"],
        "exec.pool.fallback_shards": c["exec.pool.fallback_shards"],
        "exec.indexed.calls": tracer.calls("exec.indexed"),
        "exec.indexed.items_per_call": _ratio(c["exec.indexed.items"],
                                              tracer.calls("exec.indexed")),
        "exec.indexed.s": tracer.self_s("exec.indexed"),
        "exec.store.s": tracer.self_s("exec.store"),
        "experiments.sweep_build_s": tracer.self_s("experiments.sweep_build"),
        "experiments.scoring_s": tracer.self_s("experiments.scoring"),
        "core.propagation.prepare_s": tracer.self_s("core.propagation.prepare"),
        "core.propagation.finish_s": tracer.self_s("core.propagation.finish"),
        "core.sensitivity.calls": tracer.calls("core.sensitivity"),
        "core.sensitivity.s": tracer.self_s("core.sensitivity"),
        "sta.noise_aware.propagate_s": tracer.self_s("sta.noise_aware"),
        "sta.noise_aware.slew_substitutions": c["sta.noise_aware.slew_substitutions"],
        "sta.noise_aware.quiet_cache.lookups": c["quiet_cache.lookups"],
        "sta.noise_aware.quiet_cache.hit_ratio": _ratio(c["quiet_cache.hits"],
                                                        c["quiet_cache.lookups"]),
        "sta.analysis.s": tracer.self_s("sta.analysis"),
        "library.liberty.parse_s": tracer.self_s("library.liberty"),
    }
    for name in TECHNIQUES:
        span = sp[f"core.techniques.{name}"] if f"core.techniques.{name}" in sp else Span()
        out[f"core.techniques.{name}.fit_s"] = span.self_s
        out[f"core.techniques.{name}.failures"] = span.errors
    ratios = {"circuit.transient.batch_width_mean", "exec.pool.jobs_per_call",
              "exec.indexed.items_per_call",
              "sta.noise_aware.quiet_cache.hit_ratio"}
    return {k: (float(v) if k in ratios else float(v) / n) for k, v in out.items()}
