"""DGL's own SpMM-like CUDA kernel model (the framework fallback).

DGL calls cuSPARSE for standard SpMM, but cuSPARSE has no entry point for
general reductions, so SpMM-like operations (max-pooling aggregation in
GraphSAGE-pool, user-defined reducers) fall back to DGL's generic
kernel (paper Sections I/II-C, Table II).  That kernel is written for
generality, not memory behaviour: a thread block per destination vertex
walks the incident edges with per-thread scalar loads — effectively
Algorithm 1's broadcast pattern with extra indirection for the generic
message/reduce functors and no unrolling.

Table II measures its cost: the same aggregation step runs 8.8%-139.1%
slower when expressed as SpMM-like instead of cuSPARSE SpMM, and
GE-SpMM's SpMM-like is 2.39x-6.15x faster than it (Table IX).
"""

from __future__ import annotations

from repro.core.simple import SimpleSpMM
from repro.gpusim.config import GPUSpec
from repro.gpusim.kernel import KernelCounts
from repro.gpusim.timing import ExecHints
from repro.sparse.csr import CSRMatrix

__all__ = ["DGLFallbackSpMMLike"]


class DGLFallbackSpMMLike(SimpleSpMM):
    """DGL's generic SpMM-like kernel: Algorithm-1 access pattern plus
    functor-indirection overhead and no instruction-level parallelism."""

    name = "DGL spmm-like"
    supports_general_semiring = True

    regs_per_thread = 36
    #: generic functor calls serialize the load stream.
    mlp = 1.1
    efficiency = 0.85

    def count(self, a: CSRMatrix, n: int, gpu: GPUSpec) -> KernelCounts:
        stats, launch, _ = super().count(a, n, gpu)
        # Generic message/reduce functors roughly double the per-element
        # instruction overhead relative to the fused hand-written loop.
        stats.alu_instructions = int(stats.alu_instructions * 2)
        return stats, launch, ExecHints(mlp=self.mlp, efficiency=self.efficiency)
