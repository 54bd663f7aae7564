"""cuSPARSE ``csrmm2`` model (the vendor baseline).

csrmm2 is closed source; the paper characterizes it externally
(Sections II-B, V-A2, Fig. 3): CSR in, *row-major* dense input, *column-
major* output, standard plus-times only, well-coalesced (near-peak load
throughput once ``N >= 32``) but without inter-warp sparse reuse or
coarsening.  We model it in the row-split family descended from
Bell & Garland's vector SpMV: one warp per sparse row, iterating the
output columns in 32-wide chunks, holding the sparse row in registers
(rows up to a tile) or re-streaming it per chunk (longer rows), and
staging the column-major output through shared memory so stores coalesce.

Two GNN-relevant externalities reproduced here:

* :func:`cublas_transpose_time` — frameworks need row-major activations,
  so every csrmm2 call in DGL is followed by a cuBLAS transpose
  (Section II-C); the framework substrate charges it.
* ``supports_general_semiring = False`` — SpMM-like operations raise,
  which is what forces DGL back onto its own slower kernel (Table II).
"""

from __future__ import annotations

from repro.core import _counting as cnt
from repro.gpusim.config import GPUSpec
from repro.gpusim.kernel import KernelCounts, SpMMKernel
from repro.gpusim.memory import KernelStats
from repro.gpusim.occupancy import LaunchConfig
from repro.gpusim.timing import ExecHints
from repro.sparse.csr import CSRMatrix

__all__ = ["CusparseCsrmm2", "cublas_transpose_time"]

_WARPS_PER_BLOCK = 4
_THREADS_PER_BLOCK = 128
_TILE = 32


class CusparseCsrmm2(SpMMKernel):
    """Vendor csrmm2 kernel model (plus-times only, column-major out).

    ``run`` is the base CSR reference: the functional result is
    layout-independent, and the column-major output convention only
    matters for the consumer (transpose cost)."""

    name = "cuSPARSE csrmm2"
    supports_general_semiring = False

    regs_per_thread = 32
    #: the per-warp column-chunk loop serializes dense loads: each chunk
    #: walks the row again with a single outstanding stream.
    mlp = 1.15
    efficiency = 0.95  # vendor-tuned scheduling, small residual imbalance

    def count(self, a: CSRMatrix, n: int, gpu: GPUSpec) -> KernelCounts:
        stats = KernelStats()
        wpr = cnt.warps_per_row(n, 1)  # column chunks iterated inside the warp
        m, nnz = a.nrows, a.nnz
        lengths = a.row_lengths()

        b_loads = cnt.count_b_loads(a, n)
        stats.global_load.instructions += b_loads.instructions
        stats.global_load.transactions += b_loads.sectors
        stats.global_load.requested_bytes += b_loads.requested_bytes
        stats.global_load.l1_filtered_transactions += b_loads.sectors

        # Sparse loads: rows that fit one register tile are loaded once for
        # all chunks; longer rows re-stream their tiles every chunk.
        tiles = cnt.count_tile_loads(a, _TILE)
        short_rows = int((lengths <= _TILE).sum()) if m else 0
        long_tiles = tiles.instructions - short_rows  # tiles belonging to long rows
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

        # Column-major output staged through shared memory so the actual
        # global stores coalesce (same byte volume as row-major).
        c_stores = cnt.count_c_stores(a, n)
        stats.global_store.instructions += c_stores.instructions
        stats.global_store.transactions += c_stores.sectors
        stats.global_store.requested_bytes += c_stores.requested_bytes
        stats.shared_store.instructions = c_stores.instructions
        stats.shared_store.transactions = c_stores.instructions
        stats.shared_store.requested_bytes = c_stores.requested_bytes
        stats.shared_load.instructions = c_stores.instructions
        stats.shared_load.transactions = c_stores.instructions
        stats.shared_load.requested_bytes = c_stores.requested_bytes
        stats.block_syncs = m  # one barrier per staged row tile

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
        # Register-shuffle broadcast plus loop control per consumed element
        # per chunk.
        stats.alu_instructions = 4 * nnz * wpr + 10 * m * wpr

        launch = LaunchConfig(
            blocks=(m + _WARPS_PER_BLOCK - 1) // _WARPS_PER_BLOCK if m else 0,
            threads_per_block=_THREADS_PER_BLOCK,
            regs_per_thread=self.regs_per_thread,
            shared_mem_per_block=_THREADS_PER_BLOCK * 4,
        )
        return stats, launch, ExecHints(mlp=self.mlp, efficiency=self.efficiency)


def cublas_transpose_time(m: int, n: int, gpu: GPUSpec) -> float:
    """Simulated time of the cuBLAS ``geam`` transpose DGL must run to
    turn csrmm2's column-major output row-major (paper Section II-C).

    The transpose reads and writes ``m*n`` floats; one side of the access
    is strided, costing roughly half the effective bandwidth even with
    shared-memory tiling.
    """
    nbytes = 2 * m * n * 4
    return nbytes / (0.5 * gpu.l2_bandwidth) + gpu.launch_overhead_s
