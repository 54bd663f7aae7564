"""Measurement loop: set-up repeats, timed iterations, checks, tracing.

:func:`run_workload` is the whole protocol for one workload in one
process:

1. ``prepare()`` once (inputs excluded from every metric);
2. set-up ``setup_repeats`` times, each from cold process caches and each
   followed by a warm-up iteration that is not timed as an iteration;
   ``setup_s`` is the import time plus the median repeat, and the last
   warm-up output is the reference every later output must equal;
3. untraced iterations until ``seconds`` have passed (half of them when
   tracing); iteration and step times come from these only;
4. with ``trace``, traced iterations for the other half, giving the
   per-layer metrics and the tracing overhead.

Every iteration runs against a fresh metrics registry, so counts are
per-iteration deltas, and its output is checked; a failed check counts
towards ``failed`` and ``error_rate``.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro import obs
from repro.bench import runner
from repro.datasets import citation
from repro.gpusim import kernel
from repro.sparse import segment

from layers import ITERATION, PER_LAYER, Instrument, layer_metrics

__all__ = ["END_TO_END", "RunResult", "run_workload"]

#: every end-to-end metric: name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "iter_s": ("s", "lower"),
    "step_ms.p50": ("ms", "lower"),
    "step_ms.p90": ("ms", "lower"),
    "peak_rss_mib": ("MiB", "lower"),
}


class Sections:
    """Times the measured blocks of one iteration (``with section():``);
    in a traced run each block is also an ``ITERATION`` span."""

    def __init__(self) -> None:
        self.total = 0.0
        self.steps: List[float] = []

    @contextmanager
    def __call__(self, step: bool = True):
        with obs.span(ITERATION):
            t0 = time.perf_counter()
            yield
            dt = time.perf_counter() - t0
        self.total += dt
        if step:
            self.steps.append(dt)


@dataclass
class Sample:
    seconds: float
    steps: List[float]
    ok: bool
    layers: Optional[Dict[str, float]] = None


@dataclass
class RunResult:
    attempted: int
    failed: int
    metrics: Dict[str, float]
    notes: Dict[str, object] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.failed == 0


def _cold_caches() -> None:
    """Empty the process-wide caches a set-up repeat must not inherit."""
    kernel.clear_estimate_memo()
    runner.clear_sweep_cache()
    segment.clear_workspace_pool()
    citation._cache.clear()  # load_citation memoizes its dataset twins
    gc.collect()


def _iterate(workload, instrument: Optional[Instrument] = None):
    """One iteration under a fresh registry (and tracer, if instrumented)."""
    sections = Sections()
    registry = obs.MetricsRegistry()
    prev_registry = obs.set_registry(registry)
    tracer = obs.Tracer() if instrument is not None else None
    prev_tracer = obs.set_tracer(tracer)
    try:
        out = workload.iterate(sections)
    finally:
        obs.set_tracer(prev_tracer)
        obs.set_registry(prev_registry)
    layers = None
    if instrument is not None:
        layers = layer_metrics(tracer.records, registry, instrument)
        instrument.reset_counts()
    return out, sections, layers


def _measure(workload, reference, seconds: float, first_index: int,
             inject_fault_at: Optional[int],
             instrument: Optional[Instrument] = None) -> List[Sample]:
    samples: List[Sample] = []
    start = time.perf_counter()
    while not samples or time.perf_counter() - start < seconds:
        gc.collect()
        out, sections, layers = _iterate(workload, instrument)
        if first_index + len(samples) == inject_fault_at:
            out = workload.corrupt(out)
        ok = workload.check(out, reference)
        samples.append(Sample(sections.total, sections.steps, ok, layers))
    return samples


def run_workload(workload, seconds: float, trace: bool, import_s: float = 0.0,
                 setup_repeats: int = 3,
                 inject_fault_at: Optional[int] = None) -> RunResult:
    """Measure ``workload``; with ``trace`` the metrics are the per-layer
    ones, otherwise the end-to-end ones.  ``inject_fault_at`` corrupts the
    output of that (0-based) timed iteration before its check."""
    workload.prepare()
    setups = []
    for _ in range(setup_repeats):
        _cold_caches()
        t0 = time.perf_counter()
        workload.setup()
        reference, _, _ = _iterate(workload)  # warm-up
        setups.append(time.perf_counter() - t0)

    budget = seconds / 2 if trace else seconds
    samples = _measure(workload, reference, budget, 0, inject_fault_at)
    traced: List[Sample] = []
    if trace:
        with Instrument() as instrument:
            traced = _measure(workload, reference, budget, len(samples),
                              inject_fault_at, instrument)

    everything = samples + traced
    failed = sum(not s.ok for s in everything)
    iter_s = statistics.median(s.seconds for s in samples)
    steps = np.array([t for s in samples for t in s.steps])
    notes = {
        "iterations": len(samples),
        "steps": int(steps.size),
        "traced_iterations": len(traced),
        "setup_repeats": setup_repeats,
        "error_rate": failed / len(everything),
    }
    if trace:
        metrics = {
            name: statistics.fmean(s.layers[name] for s in traced)
            for name in traced[0].layers
        }
        metrics["segment.workspace.bytes_peak"] = float(segment.workspace_stats()["peak_bytes"])
        metrics["trace.overhead_frac"] = (
            statistics.median(s.seconds for s in traced) / iter_s - 1.0
        )
        metrics = {name: metrics[name] for name in PER_LAYER}
    else:
        metrics = {
            "setup_s": import_s + statistics.median(setups),
            "iter_s": iter_s,
            "step_ms.p50": float(np.percentile(steps, 50)) * 1e3,
            "step_ms.p90": float(np.percentile(steps, 90)) * 1e3,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    return RunResult(attempted=len(everything), failed=failed, metrics=metrics, notes=notes)
