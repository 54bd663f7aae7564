"""Naive SpMM as a loop of SpMV launches (the strawman generalization).

Section II-B: "a straightforward SpMM implementation is simply to
perform SpMV multiple times sequentially ... this method clearly does not
exploit parallelism along the output column dimension".  Each of the
``N`` launches runs a Bell & Garland vector SpMV (warp per row, coalesced
sparse fetch, shuffle reduction); every launch re-reads the whole sparse
matrix, and the dense-vector gather ``x[k] = B[k, j]`` is scattered.
"""

from __future__ import annotations

import numpy as np

from repro.core import _counting as cnt
from repro.core.semiring import PLUS_TIMES, Semiring
from repro.gpusim.config import GPUSpec
from repro.gpusim.kernel import KernelCounts, SpMMKernel
from repro.gpusim.memory import KernelStats
from repro.gpusim.occupancy import LaunchConfig
from repro.gpusim.timing import ExecHints
from repro.sparse.csr import CSRMatrix
from repro.sparse.ops import reference_spmm_like

__all__ = ["SpMVLoopSpMM"]

_WARPS_PER_BLOCK = 4
_THREADS_PER_BLOCK = 128


class SpMVLoopSpMM(SpMMKernel):
    """N sequential vector-SpMV launches."""

    name = "SpMV loop"
    supports_general_semiring = True

    regs_per_thread = 28
    mlp = 2.0
    efficiency = 0.85

    def run(self, a: CSRMatrix, b: np.ndarray, semiring: Semiring = PLUS_TIMES) -> np.ndarray:
        self.check_semiring(semiring)
        return reference_spmm_like(a, b, semiring)

    def count(self, a: CSRMatrix, n: int, gpu: GPUSpec) -> KernelCounts:
        stats = KernelStats()
        m, nnz = a.nrows, a.nnz

        tiles = cnt.count_tile_loads(a, 32)
        # Per launch: coalesced colind/val tiles + scattered x gather
        # (one sector per nonzero) + rowptr; x N launches.
        stats.global_load.instructions += n * (2 * tiles.instructions + tiles.instructions + 2 * m)
        stats.global_load.transactions += n * (2 * tiles.sectors + nnz + 2 * m)
        stats.global_load.requested_bytes += n * (2 * tiles.requested_bytes + 4 * nnz + 8 * m)
        stats.global_load.l1_filtered_transactions += n * (2 * tiles.sectors + nnz + max(m // 4, 1))

        # y stores: one coalesced store per 32 rows per launch.
        st_insts = n * ((m + 31) // 32)
        stats.global_store.instructions += st_insts
        stats.global_store.transactions += st_insts * 4
        stats.global_store.requested_bytes += n * m * 4

        tsp = stats.traffic("colind+values")
        tsp.sectors = n * 2 * tiles.sectors
        tsp.unique_bytes = 8 * nnz
        tsp.reuse_is_local = False  # re-read across distant launches
        tbx = stats.traffic("B")
        tbx.sectors = n * nnz
        tbx.unique_bytes = cnt.unique_b_columns(a) * n * 4
        tbx.reuse_is_local = False

        stats.flops = 2 * nnz * n
        stats.alu_instructions = n * (5 * tiles.instructions * 1 + 3 * ((nnz + 31) // 32) + 10 * m // 32)

        launch = LaunchConfig(
            blocks=(m + _WARPS_PER_BLOCK - 1) // _WARPS_PER_BLOCK if m else 0,
            threads_per_block=_THREADS_PER_BLOCK,
            regs_per_thread=self.regs_per_thread,
            shared_mem_per_block=0,
        )
        return stats, launch, ExecHints(mlp=self.mlp, efficiency=self.efficiency)

    def _estimate(self, a, n, gpu, semiring=PLUS_TIMES, params=None):
        """N launches pay N launch overheads; the base estimate prices the
        aggregate work with a single launch, so add the remaining N-1."""
        timing, computed = super()._estimate(a, n, gpu, semiring, params)
        if "extra_launches" not in timing.breakdown:  # cached copies mutate once
            extra = max(int(n) - 1, 0) * gpu.launch_overhead_s
            timing.time_s += extra
            timing.breakdown["extra_launches"] = extra
        return timing, computed
