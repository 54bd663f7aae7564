"""GNN framework backends: DGL-style and PyG-style pricing of one op log.

The paper accelerates two frameworks by swapping their aggregation
kernels for GE-SpMM (Section IV-B); this module reproduces both
integration points:

* :class:`DGLBackend` — DGL fuses aggregation into one kernel.  For
  standard sum it calls cuSPARSE ``csrmm2`` and then pays a cuBLAS
  transpose because csrmm2's output is column-major while GNN activations
  are row-major (Section II-C).  For SpMM-like reductions (max) cuSPARSE
  has no entry point, so DGL falls back to its own slow generic kernel
  (Table II).
* :class:`PyGBackend` — PyTorch-Geometric's ``MessagePassing`` first
  *materializes a message per edge* (gather) and then scatter-reduces,
  two bandwidth-heavy kernels with an ``nnz x F`` intermediate (Section
  II-C).

With ``use_gespmm=True`` either framework runs the adaptive GE-SpMM
kernel instead: row-major output (no transpose), native SpMM-like, and
in PyG the fused operator replaces MessagePassing — which is why Fig.
14's improvements exceed Fig. 13's.

Both backends execute identical numerics; a backend is a pricing table
over the shape-level :class:`~repro.gnn.device.Op` every launch logs.
:meth:`AggregationBackend.price` maps an op to ``(label, seconds)``,
:meth:`~AggregationBackend.charge` records it on the device during a
run, and :meth:`~AggregationBackend.replay` prices a logged run again
without executing it.  Layers call :meth:`~AggregationBackend.aggregate`
with op ``"sum"`` or ``"max"`` (mean is sum over a row-normalized
adjacency).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterable, Tuple

from repro.baselines.cusparse import CusparseCsrmm2, cublas_transpose_time
from repro.baselines.dgl_fallback import DGLFallbackSpMMLike
from repro.core.gespmm import GESpMM
from repro.gnn.aggregate import GraphPair, aggregate_max, aggregate_sum
from repro.gnn.device import Op, OpProfile, SimDevice
from repro.gnn.tensor import Tensor
from repro.semiring import MAX_TIMES, PLUS_TIMES

__all__ = ["AggregationBackend", "DGLBackend", "PyGBackend"]


class AggregationBackend(ABC):
    """Pricing policy deciding which kernels a run's ops are charged as."""

    name: str = "abstract"

    def __init__(self, device: SimDevice, use_gespmm: bool = False):
        self.device = device
        self.use_gespmm = bool(use_gespmm)
        self._gespmm = GESpMM()

    def aggregate(self, g: GraphPair, x: Tensor, op: str = "sum") -> Tensor:
        """Differentiable aggregation of ``x`` over graph ``g``."""
        # Module globals looked up per call, so wrappers installed on the
        # module attributes (perfbench's layer spans) see every call.
        if op == "sum":
            return aggregate_sum(g, x, self.charge)
        if op == "max":
            return aggregate_max(g, x, self.charge)
        raise ValueError(f"unknown aggregation op {op!r} (use 'sum' or 'max')")

    def charge(self, op: Op) -> None:
        """Price ``op`` and record it, logged, on the device ledger."""
        label, seconds = self.price(op)
        self.device.record(label, seconds, op)

    def replay(self, log: Iterable[Op]) -> OpProfile:
        """Profile of a recorded op log priced by this backend.

        Resets the device, then charges ``log`` in order, so every ledger
        float sums in the order the recorded run summed it: the result
        equals the profile of executing that run under this backend.
        """
        self.device.reset()
        for op in log:
            self.charge(op)
        return self.device.profile()

    def price(self, op: Op) -> Tuple[str, float]:
        """``(ledger label, simulated seconds)`` of one op."""
        if op.kind == "GEMM":
            return "GEMM", self.device.gemm_time(*op.dims)
        if op.kind == "elementwise":
            return "elementwise", self.device.elementwise_time(*op.dims)
        if not self.use_gespmm:
            return self._price_stock(op)
        # GE-SpMM in either framework; max's backward scatter is priced
        # as a standard SpMM.
        semiring = MAX_TIMES if op.kind == "max" else PLUS_TIMES
        label = "SpMM" if op.kind in ("sum", "sum.bwd") else "SpMM-like"
        return label, self._gespmm.estimate(op.adj, op.dims[0], self.device.gpu, semiring).time_s

    @abstractmethod
    def _price_stock(self, op: Op) -> Tuple[str, float]:
        """The framework's own kernels for an aggregation op."""


class DGLBackend(AggregationBackend):
    """DGL-style fused aggregation (cuSPARSE + fallback, or GE-SpMM)."""

    def __init__(self, device: SimDevice, use_gespmm: bool = False):
        super().__init__(device, use_gespmm)
        self.name = "DGL + GE-SpMM" if use_gespmm else "DGL"
        self._cusparse = CusparseCsrmm2()
        self._fallback = DGLFallbackSpMMLike()

    def _price_stock(self, op: Op) -> Tuple[str, float]:
        adj, n, gpu = op.adj, op.dims[0], self.device.gpu
        if op.kind in ("sum", "sum.bwd"):
            # csrmm2 + the cuBLAS transpose DGL needs for row-major output.
            t = self._cusparse.estimate(adj, n, gpu).time_s
            return "SpMM", t + cublas_transpose_time(adj.nrows, n, gpu)
        return "SpMM-like", self._fallback.estimate(adj, n, gpu, MAX_TIMES).time_s


class PyGBackend(AggregationBackend):
    """PyG-style MessagePassing (gather + scatter-reduce, or GE-SpMM)."""

    def __init__(self, device: SimDevice, use_gespmm: bool = False):
        super().__init__(device, use_gespmm)
        self.name = "PyG + GE-SpMM" if use_gespmm else "PyG"

    def _price_stock(self, op: Op) -> Tuple[str, float]:
        adj, n, gpu = op.adj, op.dims[0], self.device.gpu
        # Gather: materialize a message per edge (read X[col], write nnz x n).
        nbytes = adj.nnz * n * 4 * 2 + adj.nnz * 4
        gather = nbytes / (0.6 * gpu.dram_bandwidth) + gpu.launch_overhead_s
        # Scatter-reduce the messages to their destinations with atomics.
        nbytes = adj.nnz * n * 4 + adj.nrows * n * 4
        t_mem = nbytes / (0.5 * gpu.dram_bandwidth)
        atomic_warps = (adj.nnz * n + 31) // 32
        t_atomic = atomic_warps * 24.0 / (gpu.n_sms * gpu.clock_ghz * 1e9)
        scatter = max(t_mem, t_atomic) + gpu.launch_overhead_s
        return "MessagePassing", gather + scatter
