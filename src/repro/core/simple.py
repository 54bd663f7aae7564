"""Algorithm 1 — simple parallel CSR SpMM (the paper's unoptimized base).

Parallelization: each thread owns one output element ``C[i, j]``; threads
of a warp share the row ``i`` and cover 32 consecutive columns, so dense
loads ``B[k, j]`` coalesce but the sparse-row walk is a sequence of
*broadcast* loads — every lane requests the same ``colind[ptr]`` /
``val[ptr]`` address, one 32-byte transaction carrying 4 useful bytes
(paper Fig. 2).  Coalesced Row Caching exists to remove exactly this
pattern.
"""

from __future__ import annotations

from repro.core import _counting as cnt
from repro.gpusim.config import GPUSpec
from repro.gpusim.kernel import KernelCounts, SpMMKernel
from repro.gpusim.memory import KernelStats
from repro.gpusim.occupancy import LaunchConfig
from repro.gpusim.timing import ExecHints
from repro.sparse.csr import CSRMatrix

__all__ = ["SimpleSpMM"]

_WARPS_PER_BLOCK = 4
_THREADS_PER_BLOCK = 32 * _WARPS_PER_BLOCK


class SimpleSpMM(SpMMKernel):
    """Simple parallel CSR SpMM (paper Algorithm 1)."""

    name = "simple"
    supports_general_semiring = True

    #: estimated register footprint (accumulator + pointers + indices)
    regs_per_thread = 24
    #: three request streams per inner step (colind, val, B) can all be
    #: outstanding at once.
    mlp = 3.0

    def count(self, a: CSRMatrix, n: int, gpu: GPUSpec) -> KernelCounts:
        stats = KernelStats()
        wpr = cnt.warps_per_row(n, 1)
        m, nnz = a.nrows, a.nnz

        b_loads = cnt.count_b_loads(a, n)
        stats.global_load.instructions += b_loads.instructions
        stats.global_load.transactions += b_loads.sectors
        stats.global_load.requested_bytes += b_loads.requested_bytes
        stats.global_load.l1_filtered_transactions += b_loads.sectors  # no reuse

        # Broadcast sparse walk: 2 loads (colind, val) per nonzero per warp,
        # 1 sector each, 4 useful bytes each.
        bc_insts = 2 * nnz * wpr
        stats.global_load.instructions += bc_insts
        stats.global_load.transactions += bc_insts
        stats.global_load.requested_bytes += 4 * bc_insts
        # With an L1 (Turing) the sequential walk re-hits its sector 7 of
        # 8 times; the surviving traffic equals the coalesced walk.
        stats.global_load.l1_filtered_transactions += 2 * wpr * cnt.broadcast_walk_sectors(a)

        # rowPtr: two broadcast loads per (row, segment) warp.
        rp_insts = 2 * m * wpr
        stats.global_load.instructions += rp_insts
        stats.global_load.transactions += rp_insts
        stats.global_load.requested_bytes += 4 * rp_insts
        stats.global_load.l1_filtered_transactions += max(rp_insts // 8, 1) if m else 0

        c_stores = cnt.count_c_stores(a, n)
        stats.global_store.instructions += c_stores.instructions
        stats.global_store.transactions += c_stores.sectors
        stats.global_store.requested_bytes += c_stores.requested_bytes

        tr = stats.traffic("colind")
        tr.sectors = nnz * wpr
        tr.unique_bytes = 4 * nnz
        tr.reuse_is_local = True
        tv = stats.traffic("values")
        tv.sectors = nnz * wpr
        tv.unique_bytes = 4 * nnz
        tv.reuse_is_local = True
        tb = stats.traffic("B")
        tb.sectors = b_loads.sectors
        tb.unique_bytes = cnt.unique_b_columns(a) * n * 4
        tb.reuse_is_local = False
        tp = stats.traffic("rowptr")
        tp.sectors = rp_insts
        tp.unique_bytes = 4 * (m + 1)
        tp.reuse_is_local = True

        stats.flops = 2 * nnz * n
        # Loop bookkeeping per nonzero step (pointer compare/increment,
        # address arithmetic) plus per-warp prologue/epilogue.
        stats.alu_instructions = 6 * nnz * wpr + 12 * m * wpr

        tasks = m * wpr
        launch = LaunchConfig(
            blocks=(tasks + _WARPS_PER_BLOCK - 1) // _WARPS_PER_BLOCK,
            threads_per_block=_THREADS_PER_BLOCK,
            regs_per_thread=self.regs_per_thread,
            shared_mem_per_block=0,
        )
        return stats, launch, ExecHints(mlp=self.mlp)
