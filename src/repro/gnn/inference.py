"""GNN inference and sampled-batch scenarios: where preprocessing dies.

The paper's amortization argument (Section II-B): "GNN applications
sometimes demand running SpMM only a few times for one matrix.  One
example scenario is GNN inference, where trained models are directly used
on new graphs ... Another is sampled batch training, where the sampled
subgraphs are different for each batch.  For these applications,
preprocess cannot be amortized."

This module turns that argument into measurable scenarios:

* :func:`inference_scenario` — a trained model applied once to a fresh
  graph: every kernel runs exactly once per layer; preprocess-based
  kernels pay their conversion on top.
* :func:`sampled_training_scenario` — a stream of per-batch subgraphs
  (via :mod:`repro.sparse.sampling`): preprocess-based kernels pay the
  conversion on *every batch*.

Both return per-kernel simulated totals so the amortization benchmark can
plot the crossover (how many reuses a preprocess needs to pay off).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro import obs
from repro.baselines.aspt import ASpTSpMM
from repro.baselines.cusparse import CusparseCsrmm2, cublas_transpose_time
from repro.core.gespmm import GESpMM
from repro.gpusim.config import GPUSpec
from repro.sparse.csr import CSRMatrix
from repro.sparse.sampling import batch_stream

__all__ = ["ScenarioResult", "inference_scenario", "sampled_training_scenario", "amortization_crossover"]


@dataclass(frozen=True)
class ScenarioResult:
    """Per-kernel simulated device time for one scenario."""

    scenario: str
    times: Dict[str, float]  # kernel name -> total seconds
    spmm_calls: int

    def speedup_of(self, fast: str, slow: str) -> float:
        return self.times[slow] / self.times[fast]


def _kernels():
    ge = GESpMM()
    cu = CusparseCsrmm2()
    asp = ASpTSpMM()
    return ge, cu, asp


def _record_scenario(scenario: str, totals: Dict[str, float], gpu: GPUSpec, s) -> None:
    """Publish per-kernel scenario totals to the span and the registry."""
    registry = obs.get_registry()
    for name, t in totals.items():
        registry.gauge("scenario.time_ms", scenario=scenario, kernel=name,
                       gpu=gpu.name).set(t * 1e3)
    if s is not None:
        s.attrs["times_ms"] = {k: v * 1e3 for k, v in sorted(totals.items())}


def inference_scenario(
    graph: CSRMatrix, feature_dim: int, gpu: GPUSpec, n_layers: int = 2
) -> ScenarioResult:
    """One forward pass of an ``n_layers`` GNN on a *new* graph.

    GE-SpMM runs from CSR directly; cuSPARSE additionally transposes each
    output to row-major; ASpT must preprocess the never-seen matrix first.
    """
    ge, cu, asp = _kernels()
    totals = {ge.name: 0.0, cu.name: 0.0, asp.name: 0.0}
    with obs.span("scenario.inference", n=int(feature_dim), gpu=gpu.name,
                  layers=n_layers) as s:
        for layer in range(n_layers):
            with obs.span("scenario.layer", index=layer):
                totals[ge.name] += ge.estimate(graph, feature_dim, gpu).time_s
                totals[cu.name] += (
                    cu.estimate(graph, feature_dim, gpu).time_s
                    + cublas_transpose_time(graph.nrows, feature_dim, gpu)
                )
                totals[asp.name] += asp.estimate(graph, feature_dim, gpu).time_s
        totals[asp.name] += asp.preprocess_time(graph, gpu)  # paid once per graph
        _record_scenario("inference", totals, gpu, s)
    return ScenarioResult("inference", totals, spmm_calls=n_layers)


def sampled_training_scenario(
    graph: CSRMatrix,
    feature_dim: int,
    gpu: GPUSpec,
    batch_size: int = 256,
    fanout: int = 10,
    n_batches: int = 8,
    seed: int = 0,
) -> ScenarioResult:
    """GraphSAGE-style minibatch training: each batch samples a fresh
    block matrix (forward + backward = 2 SpMM calls per batch), so
    preprocess-based kernels pay conversion on every one of them."""
    ge, cu, asp = _kernels()
    totals = {ge.name: 0.0, cu.name: 0.0, asp.name: 0.0}
    calls = 0
    with obs.span("scenario.sampled-training", n=int(feature_dim), gpu=gpu.name,
                  batches=n_batches) as s:
        for i, batch in enumerate(batch_stream(graph, batch_size, fanout, n_batches,
                                               seed=seed)):
            block = batch.block
            with obs.span("scenario.batch", index=i, block_nnz=block.nnz):
                for _ in range(2):  # forward + backward aggregation
                    calls += 1
                    totals[ge.name] += ge.estimate(block, feature_dim, gpu).time_s
                    totals[cu.name] += (
                        cu.estimate(block, feature_dim, gpu).time_s
                        + cublas_transpose_time(block.nrows, feature_dim, gpu)
                    )
                    totals[asp.name] += asp.estimate(block, feature_dim, gpu).time_s
                totals[asp.name] += asp.preprocess_time(block, gpu)  # per fresh batch
        _record_scenario("sampled-training", totals, gpu, s)
    return ScenarioResult("sampled-training", totals, spmm_calls=calls)


def amortization_crossover(
    graph: CSRMatrix,
    feature_dim: int,
    gpu: GPUSpec,
    max_reuses: int = 64,
) -> Optional[int]:
    """Smallest number of SpMM reuses of one fixed matrix after which
    ASpT (kernel + one preprocess) beats GE-SpMM, or None if it never
    does within ``max_reuses`` — the quantitative form of "preprocess can
    be tolerated in iterative algorithms" (Section II-B)."""
    ge, _, asp = _kernels()
    t_ge = ge.estimate(graph, feature_dim, gpu).time_s
    t_asp = asp.estimate(graph, feature_dim, gpu).time_s
    t_pre = asp.preprocess_time(graph, gpu)
    if t_asp >= t_ge:
        return None  # kernel itself not faster: never amortizes
    for r in range(1, max_reuses + 1):
        if r * t_asp + t_pre < r * t_ge:
            return r
    return None
