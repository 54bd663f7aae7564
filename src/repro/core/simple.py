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

from repro.core.access_profile import access_profile, warps_per_row
from repro.gpusim.config import GPUSpec
from repro.gpusim.kernel import KernelCounts, SpMMKernel
from repro.gpusim.memory import KernelStats, charge_row_split
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
        prof = access_profile(a)
        wpr = warps_per_row(n)
        m, nnz = a.nrows, a.nnz

        # Broadcast sparse walk: 2 loads (colind, val) per nonzero per warp,
        # 1 sector each, 4 useful bytes each.  With an L1 (Turing) the
        # sequential walk re-hits its sector 7 of 8 times; the surviving
        # traffic equals the coalesced walk.
        bc_insts = 2 * nnz * wpr
        stats.global_load.charge(
            bc_insts, bc_insts, 4 * bc_insts, 2 * wpr * prof.broadcast_sectors()
        )
        # rowPtr: two broadcast loads per (row, segment) warp.
        rp_insts = 2 * m * wpr
        b = charge_row_split(stats, prof, n, rp_insts)

        stats.traffic("colind", nnz * wpr, 4 * nnz, True)
        stats.traffic("values", nnz * wpr, 4 * nnz, True)
        stats.traffic("B", b.sectors, prof.unique_b_columns * n * 4, False)
        stats.traffic("rowptr", rp_insts, 4 * (m + 1), True)

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
