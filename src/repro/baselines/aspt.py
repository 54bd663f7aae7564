"""ASpT (Adaptive Sparse Tiling) SpMM model — the preprocess baseline.

ASpT (Hong et al., PPoPP'19) is, per the paper, "the best SpMM
implementation publicly available" (Section V-E).  It *preprocesses* the
CSR matrix: columns are reordered within row panels so columns with many
nonzeros form locally-dense tiles; the kernel then processes dense tiles
with shared-memory reuse of the **dense** matrix (orthogonal to GE-SpMM's
sparse-side reuse) and the sparse remainder CSR-style.

The paper's comparison (Table VIII) has two rows per device: kernel-only
(GE-SpMM reaches 0.85-1.00x of ASpT — slightly behind) and one-preprocess
+one-run (GE-SpMM 1.43-2.06x ahead), because preprocessing costs
0.01x-64.5x of one SpMM (avg 0.34-0.47x) and single-shot GNN inference or
sampled training cannot amortize it.  Both effects are modelled:
``estimate`` prices the kernel alone; :meth:`preprocess_time` prices the
format construction.
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
from repro.sparse.formats import ASpTFormat, to_aspt
from repro.sparse.ops import reference_spmm_like

__all__ = ["ASpTSpMM"]

_WARPS_PER_BLOCK = 4
_THREADS_PER_BLOCK = 128
_TILE = 32


class ASpTSpMM(SpMMKernel):
    """Adaptive-sparse-tiling SpMM with explicit preprocess accounting."""

    name = "ASpT"
    supports_general_semiring = False
    requires_preprocess = True

    regs_per_thread = 40
    #: two-level tiling yields deeply unrolled, independent load streams.
    mlp = 3.0
    #: fraction of a dense tile's B traffic saved by shared-memory reuse.
    dense_tile_saving = 0.5

    def preprocess(self, a: CSRMatrix) -> ASpTFormat:
        """Build (and cache) the tiled format for ``a``."""
        # Cached on the matrix, so the format dies with it (an ``id(a)``
        # key would hand a freed matrix's format to a new one).
        return a._cached("aspt", lambda: to_aspt(a))

    def preprocess_time(self, a: CSRMatrix, gpu: GPUSpec) -> float:
        """Simulated preprocessing time: three bandwidth-bound passes over
        the nonzeros (histogram, reorder gather, scatter) plus panel
        bookkeeping, in three kernel launches."""
        fmt = self.preprocess(a)
        # Histogram, segmented sort, gather/scatter reorder: effectively
        # four read+write passes at scattered-access efficiency.
        bytes_moved = fmt.preprocess_elements * 8 * 2
        return bytes_moved / (0.12 * gpu.dram_bandwidth) + 3 * gpu.launch_overhead_s

    def run(self, a: CSRMatrix, b: np.ndarray, semiring: Semiring = PLUS_TIMES) -> np.ndarray:
        self.check_semiring(semiring)
        # The column reorder permutes the reduction order only; results are
        # identical up to float associativity, so delegate to the oracle.
        return reference_spmm_like(a, b, semiring)

    def count(self, a: CSRMatrix, n: int, gpu: GPUSpec) -> KernelCounts:
        fmt = self.preprocess(a)
        stats = KernelStats()
        wpr = cnt.warps_per_row(n, 1)
        m, nnz = a.nrows, a.nnz

        # Dense traffic: tiles classified dense reuse B rows from shared
        # memory, saving `dense_tile_saving` of their stream.
        b_loads = cnt.count_b_loads(a, n)
        scale = 1.0 - self.dense_tile_saving * fmt.dense_fraction
        b_insts = int(round(b_loads.instructions * scale))
        b_sectors = int(round(b_loads.sectors * scale))
        b_req = int(round(b_loads.requested_bytes * scale))
        stats.global_load.instructions += b_insts
        stats.global_load.transactions += b_sectors
        stats.global_load.requested_bytes += b_req
        stats.global_load.l1_filtered_transactions += b_sectors
        # The reused share moves through shared memory instead.
        reused = b_loads.instructions - b_insts
        stats.shared_load.instructions += reused
        stats.shared_load.transactions += reused
        stats.shared_load.requested_bytes += b_loads.requested_bytes - b_req
        stats.block_syncs += (fmt.shape[0] // max(fmt.panel_height, 1)) * wpr

        tiles = cnt.count_tile_loads(a, _TILE)
        stats.global_load.instructions += 2 * wpr * tiles.instructions
        stats.global_load.transactions += 2 * wpr * tiles.sectors
        stats.global_load.requested_bytes += 2 * wpr * tiles.requested_bytes
        stats.global_load.l1_filtered_transactions += 2 * wpr * tiles.sectors

        rp_insts = 2 * m * wpr
        stats.global_load.instructions += rp_insts
        stats.global_load.transactions += rp_insts
        stats.global_load.requested_bytes += 4 * rp_insts
        stats.global_load.l1_filtered_transactions += max(rp_insts // 8, 1) if m else 0

        c_stores = cnt.count_c_stores(a, n)
        stats.global_store.instructions += c_stores.instructions
        stats.global_store.transactions += c_stores.sectors
        stats.global_store.requested_bytes += c_stores.requested_bytes

        tb = stats.traffic("B")
        tb.sectors = b_sectors
        tb.unique_bytes = cnt.unique_b_columns(a) * n * 4
        tb.reuse_is_local = False
        tr = stats.traffic("colind")
        tr.sectors = wpr * tiles.sectors
        tr.unique_bytes = 4 * nnz
        tr.reuse_is_local = True
        tv = stats.traffic("values")
        tv.sectors = wpr * tiles.sectors
        tv.unique_bytes = 4 * nnz
        tv.reuse_is_local = True

        stats.flops = 2 * nnz * n
        stats.alu_instructions = 5 * nnz * wpr + 14 * m * wpr

        tasks = m * wpr
        launch = LaunchConfig(
            blocks=(tasks + _WARPS_PER_BLOCK - 1) // _WARPS_PER_BLOCK if tasks else 0,
            threads_per_block=_THREADS_PER_BLOCK,
            regs_per_thread=self.regs_per_thread,
            shared_mem_per_block=8 * 1024,  # staged dense tiles
        )
        return stats, launch, ExecHints(mlp=self.mlp)
