"""GraphBLAST ``rowsplit`` SpMM model (the open-source CSR baseline).

GraphBLAST (Yang, Buluc, Owens) generalizes the warp-per-row vector SpMV
to SpMM: one warp owns a sparse row, lanes cooperatively fetch 32
nonzeros with a coalesced load, then each fetched element is broadcast to
the warp with the ``__shfl`` intrinsic while the lanes stream the
matching 32-wide dense row segments (paper Section II-B).  Compared with
GE-SpMM it:

* never shares sparse data *between* warps and has no coarsening, so its
  dense-load stream has a single outstanding request chain (low MLP);
* pays a shuffle instruction per consumed element per column chunk;
* schedules exactly one warp per row, so the short rows that dominate
  power-law graphs leave most lanes idle (load imbalance).

The paper measures GE-SpMM at 1.42-1.81x over it, the gap widening with
``N`` and on Turing.
"""

from __future__ import annotations

from repro.core import _counting as cnt
from repro.gpusim.config import GPUSpec
from repro.gpusim.kernel import KernelCounts, SpMMKernel
from repro.gpusim.memory import KernelStats
from repro.gpusim.occupancy import LaunchConfig
from repro.gpusim.timing import ExecHints
from repro.sparse.csr import CSRMatrix

__all__ = ["GraphBlastRowSplit"]

_WARPS_PER_BLOCK = 4
_THREADS_PER_BLOCK = 128
_TILE = 32


class GraphBlastRowSplit(SpMMKernel):
    """GraphBLAST row-split SpMM (warp per row, shfl broadcast)."""

    name = "GraphBLAST rowsplit"
    # GraphBLAST's semiring-generic design does allow custom monoids.
    supports_general_semiring = True

    regs_per_thread = 30
    #: single dependent dense-load chain per warp; chunk loop serializes.
    mlp = 1.0
    #: warp-per-row load imbalance on short/skewed rows.
    efficiency = 0.72

    def count(self, a: CSRMatrix, n: int, gpu: GPUSpec) -> KernelCounts:
        stats = KernelStats()
        wpr = cnt.warps_per_row(n, 1)  # chunks iterated inside the warp
        m, nnz = a.nrows, a.nnz
        lengths = a.row_lengths()

        b_loads = cnt.count_b_loads(a, n)
        stats.global_load.instructions += b_loads.instructions
        stats.global_load.transactions += b_loads.sectors
        stats.global_load.requested_bytes += b_loads.requested_bytes
        stats.global_load.l1_filtered_transactions += b_loads.sectors

        # Coalesced sparse tile fetch; registers hold one tile, so rows
        # longer than a tile re-stream per column chunk (as in csrmm2).
        tiles = cnt.count_tile_loads(a, _TILE)
        short_rows = int((lengths <= _TILE).sum()) if m else 0
        long_tiles = tiles.instructions - short_rows
        sp_insts = 2 * (short_rows + long_tiles * wpr)
        scale = sp_insts / max(2 * tiles.instructions, 1)
        sp_sectors = int(round(2 * tiles.sectors * scale))
        sp_requested = int(round(2 * tiles.requested_bytes * scale))
        stats.global_load.instructions += sp_insts
        stats.global_load.transactions += sp_sectors
        stats.global_load.requested_bytes += sp_requested
        stats.global_load.l1_filtered_transactions += sp_sectors

        rp_insts = 2 * m
        stats.global_load.instructions += rp_insts
        stats.global_load.transactions += rp_insts
        stats.global_load.requested_bytes += 4 * rp_insts
        stats.global_load.l1_filtered_transactions += max(rp_insts // 8, 1) if m else 0

        c_stores = cnt.count_c_stores(a, n)
        stats.global_store.instructions += c_stores.instructions
        stats.global_store.transactions += c_stores.sectors
        stats.global_store.requested_bytes += c_stores.requested_bytes

        tr = stats.traffic("colind")
        tr.sectors = sp_sectors // 2
        tr.unique_bytes = 4 * nnz
        tr.reuse_is_local = True
        tv = stats.traffic("values")
        tv.sectors = sp_sectors - sp_sectors // 2
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
        # One __shfl broadcast plus loop control per consumed element per
        # chunk, plus per-row prologue.
        stats.alu_instructions = 6 * nnz * wpr + 16 * m

        launch = LaunchConfig(
            blocks=(m + _WARPS_PER_BLOCK - 1) // _WARPS_PER_BLOCK if m else 0,
            threads_per_block=_THREADS_PER_BLOCK,
            regs_per_thread=self.regs_per_thread,
            shared_mem_per_block=0,
        )
        return stats, launch, ExecHints(mlp=self.mlp, efficiency=self.efficiency)
