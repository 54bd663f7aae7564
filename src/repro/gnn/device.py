"""Simulated device clock, operator-time ledger and op log.

The paper's end-to-end numbers are "CUDA time reported by the PyTorch
profiler" broken down per operator (Table I: SpMM share of GCN training;
Figs 13/14: total CUDA time; Tables II/IX: per-operator comparisons),
all attributed from one profiled run.  :class:`SimDevice` reproduces
that instrument: every simulated GNN operator records its kernel-model
time under an operator label, and :meth:`~SimDevice.profile` renders
the per-operator totals and shares.

Each launch is also logged as a shape-level :class:`Op`.  The kernel
models read only shapes and sparsity structure, so a logged run can be
priced again under any GPU or framework backend without re-executing it
(``AggregationBackend.replay``).  This module owns the log format.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro import obs
from repro.gpusim.config import GPUSpec, GTX_1080TI
from repro.sparse.csr import CSRMatrix

__all__ = ["Op", "SimDevice", "OpProfile"]


class Op(NamedTuple):
    """One simulated kernel launch, recorded at shape level.

    * ``"GEMM"``: ``dims=(m, k, n)``
    * ``"elementwise"``: ``dims=(n_elements, n_arrays)``
    * ``"sum"``, ``"max"``: ``dims=(n,)``, ``adj`` the aggregated CSR
    * ``"sum.bwd"``, ``"max.bwd"``: ``dims=(n,)``, ``adj`` its transpose
      (``GraphPair.adj_t``)
    """

    kind: str
    dims: Tuple[int, ...]
    adj: Optional[CSRMatrix] = None


@dataclass
class OpProfile:
    """Per-operator simulated CUDA-time totals for one run."""

    totals: Dict[str, float] = field(default_factory=dict)
    calls: Dict[str, int] = field(default_factory=dict)

    @property
    def total_time(self) -> float:
        return sum(self.totals.values())

    def share(self, op: str) -> float:
        """Fraction of total device time spent in ``op`` (0 if unused)."""
        total = self.total_time
        return self.totals.get(op, 0.0) / total if total > 0 else 0.0

    def time(self, op: str) -> float:
        return self.totals.get(op, 0.0)

    def rows(self) -> List[Tuple[str, float, int, float]]:
        """(op, seconds, calls, share) sorted by time descending."""
        total = self.total_time
        return sorted(
            (
                (op, t, self.calls.get(op, 0), t / total if total else 0.0)
                for op, t in self.totals.items()
            ),
            key=lambda r: -r[1],
        )

    def format(self) -> str:
        lines = [f"{'operator':24s} {'time(ms)':>10s} {'calls':>7s} {'share':>7s}"]
        for op, t, c, s in self.rows():
            lines.append(f"{op:24s} {t * 1e3:10.3f} {c:7d} {s * 100:6.1f}%")
        lines.append(f"{'TOTAL':24s} {self.total_time * 1e3:10.3f}")
        return "\n".join(lines)


class SimDevice:
    """A simulated GPU with an operator-time ledger and an op log.

    All GNN operators route their simulated kernel times through
    :meth:`record`; :meth:`reset` starts a fresh measurement window
    (e.g. to exclude warm-up epochs, as profilers do).  ``log`` holds
    the :class:`Op` of every launch recorded with one, in order.
    """

    def __init__(self, gpu: GPUSpec = GTX_1080TI):
        self.gpu = gpu
        self.log: List[Op] = []
        self._totals: Dict[str, float] = defaultdict(float)
        self._calls: Dict[str, int] = defaultdict(int)

    def record(self, label: str, seconds: float, op: Optional[Op] = None) -> None:
        """Charge ``seconds`` to ``label``; log ``op`` when given."""
        if seconds < 0:
            raise ValueError("negative simulated time")
        self._totals[label] += seconds
        self._calls[label] += 1
        if op is not None:
            self.log.append(op)
        # The ledger is the ground truth for simulated device time, so it
        # is also where spans get their sim-time attribution.
        obs.add_sim_time(seconds)
        obs.get_registry().counter("gnn.op.calls", op=label, gpu=self.gpu.name).inc()

    def reset(self) -> None:
        self.log.clear()
        self._totals.clear()
        self._calls.clear()

    def profile(self) -> OpProfile:
        return OpProfile(dict(self._totals), dict(self._calls))

    # ------------------------------------------------------------------
    # Cost models for the dense/elementwise operators GNN training uses
    # (cuBLAS-style rooflines; sparse aggregation uses the kernel models).
    # ------------------------------------------------------------------
    def gemm_time(self, m: int, k: int, n: int) -> float:
        """Dense matmul (cuBLAS sgemm): compute/bandwidth roofline."""
        flops = 2.0 * m * k * n
        nbytes = 4.0 * (m * k + k * n + m * n)
        t = max(flops / (0.75 * self.gpu.peak_flops), nbytes / (0.8 * self.gpu.l2_bandwidth))
        return t + self.gpu.launch_overhead_s

    def elementwise_time(self, n_elements: int, n_arrays: int = 2) -> float:
        """Bandwidth-bound map/reduce kernels (relu, dropout, softmax...)."""
        nbytes = 4.0 * n_elements * n_arrays
        return nbytes / (0.8 * self.gpu.dram_bandwidth) + self.gpu.launch_overhead_s
