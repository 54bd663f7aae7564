"""Benchmark harness utilities shared by the per-table/figure scripts.

Provides the sweep runner (kernels x graphs x feature widths x GPUs),
geometric-mean aggregation (the paper reports geometric means,
Section V-A1), and plain-text table/series rendering so each benchmark
prints rows directly comparable to the paper's artifact.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro import obs
from repro.gpusim.config import GPUSpec
from repro.gpusim.kernel import SpMMKernel, clear_estimate_memo
from repro.sparse.csr import CSRMatrix
from repro.sparse.ops import flops_of_spmm

__all__ = [
    "geomean",
    "KernelResult",
    "SweepHostStats",
    "run_sweep",
    "run_sweep_with_stats",
    "clear_sweep_cache",
    "speedup_series",
    "format_table",
    "format_series",
    "bar_chart",
]


def geomean(values: Iterable[float]) -> float:
    """Geometric mean (the paper's aggregate for per-matrix speedups).

    Non-positive values cannot enter a geometric mean and are dropped —
    but never silently: each drop bumps the ``bench.geomean.dropped``
    counter and emits a ``geomean.dropped_nonpositive`` event, so a
    pathological sweep (a zero/negative speedup) is visible in telemetry
    instead of silently skewing the gate's geomean comparison.
    """
    values = list(values)
    vals = [v for v in values if v > 0]
    dropped = len(values) - len(vals)
    if dropped:
        obs.get_registry().counter("bench.geomean.dropped").inc(dropped)
        obs.event(
            "geomean.dropped_nonpositive",
            dropped=dropped,
            kept=len(vals),
        )
    if not vals:
        return float("nan")
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


@dataclass(frozen=True)
class KernelResult:
    """One (kernel, graph, N, GPU) measurement.

    ``attribution`` carries the bottleneck-attribution block of the
    simulated launch (``KernelTiming.attribution()``: binding ceiling,
    per-ceiling breakdown in ms, efficiency factors) — the "why" behind
    ``time_s`` that ``BENCH_spmm.json`` cells and ``repro-bench report``
    surface.  None only for results built by legacy callers.
    """

    kernel: str
    graph: str
    n: int
    gpu: str
    time_s: float
    gflops: float
    attribution: Optional[Dict[str, Any]] = field(default=None, compare=True)


@dataclass(frozen=True)
class SweepHostStats:
    """Host-side throughput and memo counters of one ``run_sweep`` call —
    tracking the simulator's own speed, not the simulated devices'."""

    wall_s: float
    cells: int
    memo_hits: int
    memo_misses: int

    @property
    def cells_per_s(self) -> float:
        return self.cells / self.wall_s if self.wall_s > 0 else float("inf")

    def as_run_meta(self) -> Dict[str, object]:
        """The ``run.host`` metadata block for ``BENCH_spmm.json``: the
        serial counters only.  ``wall_s`` and ``cells_per_s`` change on
        every run, so they stay out of the committed artifact."""
        return {
            "cells": self.cells,
            "memo_hits": self.memo_hits,
            "memo_misses": self.memo_misses,
        }


def clear_sweep_cache() -> None:
    """Alias of :func:`repro.gpusim.kernel.clear_estimate_memo`: sweep
    cells are derived from the estimate memo, which is the only cache."""
    clear_estimate_memo()


def _cell_values(
    kernel: SpMMKernel, graph: CSRMatrix, n: int, gpu: GPUSpec
) -> Tuple[float, float, Optional[Dict[str, Any]], bool]:
    """(time_s, gflops, attribution, was_memo_hit) for one sweep cell.

    A pure function of the estimate memo's timing and ``2·nnz·N``; a hit
    means the estimate was served from the memo or the disk cache without
    calling ``count()``.
    """
    t, computed = kernel._estimate(graph, n, gpu)
    return t.time_s, t.gflops(flops_of_spmm(graph, n)), t.attribution(), not computed


def run_sweep_with_stats(
    kernels: Sequence[SpMMKernel],
    graphs: Dict[str, CSRMatrix],
    widths: Sequence[int],
    gpus: Sequence[GPUSpec],
) -> Tuple[List[KernelResult], SweepHostStats]:
    """:func:`run_sweep` plus host-side throughput statistics.

    Cells run one at a time on the calling thread, each inside its own
    ``sweep.cell`` span, so every span the estimate opens nests under
    its cell.  Each cell is derived from :meth:`SpMMKernel.estimate`'s
    memo (and its disk entries), so repeated cells (gate regeneration,
    repeated benchmark scripts) hit memory instead of recomputing; the
    ``memo_hits``/``memo_misses`` stats count cells served versus
    computed.  See ``docs/PERFORMANCE.md``.
    """
    t0 = time.perf_counter()
    registry = obs.get_registry()
    out: List[KernelResult] = []
    hits = misses = 0
    for gpu in gpus:
        for gname, graph in graphs.items():
            with obs.span("sweep.graph", graph=gname, gpu=gpu.name):
                for n in widths:
                    for kernel in kernels:
                        with obs.span("sweep.cell", kernel=kernel.name, graph=gname,
                                      n=int(n), gpu=gpu.name) as cell:
                            time_s, gflops, attribution, was_hit = _cell_values(
                                kernel, graph, n, gpu)
                            obs.add_sim_time(time_s)
                            if cell is not None:
                                cell.attrs["time_ms"] = time_s * 1e3
                                cell.attrs["gflops"] = gflops
                                if attribution is not None:
                                    cell.attrs["bound_by"] = attribution["bound_by"]
                        hits += was_hit
                        misses += not was_hit
                        labels = dict(kernel=kernel.name, graph=gname, n=int(n),
                                      gpu=gpu.name)
                        registry.gauge("sweep.cell.time_ms", **labels).set(time_s * 1e3)
                        registry.gauge("sweep.cell.gflops", **labels).set(gflops)
                        out.append(
                            KernelResult(
                                kernel=kernel.name,
                                graph=gname,
                                n=n,
                                gpu=gpu.name,
                                time_s=time_s,
                                gflops=gflops,
                                attribution=attribution,
                            )
                        )
            obs.event("sweep.graph.done", graph=gname, gpu=gpu.name)
    registry.counter("sweep.memo.hits").inc(hits)
    registry.counter("sweep.memo.misses").inc(misses)
    stats = SweepHostStats(
        wall_s=time.perf_counter() - t0,
        cells=len(out),
        memo_hits=hits,
        memo_misses=misses,
    )
    return out, stats


def run_sweep(
    kernels: Sequence[SpMMKernel],
    graphs: Dict[str, CSRMatrix],
    widths: Sequence[int],
    gpus: Sequence[GPUSpec],
) -> List[KernelResult]:
    """Estimate every kernel on every (graph, N, GPU) combination.

    Every cell runs inside a ``sweep.cell`` span and lands in the metrics
    registry as a series keyed by ``(kernel, graph, n, gpu)``, so a sweep
    is fully reconstructable from ``--trace-out`` / ``--metrics-out``
    dumps.  Progress is reported through the span layer only: a
    ``sweep.graph.done`` event per finished graph.  Nothing is printed,
    keeping benchmark scripts' stdout byte-identical.

    The estimate memo reuses previously computed cells across calls; see
    :func:`run_sweep_with_stats` for details and for host-side throughput
    reporting.
    """
    results, _ = run_sweep_with_stats(kernels, graphs, widths, gpus)
    return results


def speedup_series(
    results: List[KernelResult],
    numerator: str,
    denominator: str,
    gpu: str,
    n: int,
) -> Dict[str, float]:
    """Per-graph speedup of ``denominator``'s time over ``numerator``'s
    (i.e. how much faster ``numerator`` is), for one (GPU, N)."""
    num = {r.graph: r.time_s for r in results if r.kernel == numerator and r.gpu == gpu and r.n == n}
    den = {r.graph: r.time_s for r in results if r.kernel == denominator and r.gpu == gpu and r.n == n}
    return {g: den[g] / num[g] for g in num if g in den and num[g] > 0}


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]], title: str = "") -> str:
    """Render an aligned text table."""
    cells = [[str(c) for c in row] for row in rows]
    widths = [max(len(h), *(len(r[i]) for r in cells)) if cells else len(h) for i, h in enumerate(headers)]
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header)
    lines.append("-" * len(header))
    for r in cells:
        lines.append("  ".join(r[i].ljust(widths[i]) for i in range(len(headers))))
    return "\n".join(lines)


def format_series(name: str, series: Dict[str, float], fmt: str = "{:.3f}") -> str:
    """Render a named per-graph series on one line per item."""
    lines = [name]
    for k, v in series.items():
        lines.append(f"  {k:28s} {fmt.format(v)}")
    return "\n".join(lines)


def bar_chart(series: Dict[str, float], width: int = 40, unit: Optional[float] = None,
              label: str = "") -> str:
    """ASCII bar chart — the textual rendering of the paper's figures."""
    if not series:
        return "(no data)"
    top = unit or max(series.values())
    if top <= 0:
        top = 1.0
    lines = [label] if label else []
    for k, v in series.items():
        n_bar = max(int(round(width * v / top)), 0)
        lines.append(f"  {k:28s} |{'#' * n_bar}{' ' * (width - n_bar)}| {v:.3f}")
    return "\n".join(lines)
