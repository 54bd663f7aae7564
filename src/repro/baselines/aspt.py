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

from repro.core.access_profile import access_profile, warps_per_row
from repro.gpusim.config import GPUSpec
from repro.gpusim.kernel import KernelCounts, SpMMKernel
from repro.gpusim.memory import KernelStats, charge_row_split
from repro.gpusim.occupancy import LaunchConfig
from repro.gpusim.timing import ExecHints
from repro.sparse.csr import CSRMatrix
from repro.sparse.formats import ASpTFormat, to_aspt

__all__ = ["ASpTSpMM"]

_WARPS_PER_BLOCK = 4
_THREADS_PER_BLOCK = 128
_TILE = 32


class ASpTSpMM(SpMMKernel):
    """Adaptive-sparse-tiling SpMM with explicit preprocess accounting.

    ``run`` is the base CSR reference: the column reorder permutes the
    reduction order only, so results are identical up to float
    associativity."""

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

    def count(self, a: CSRMatrix, n: int, gpu: GPUSpec) -> KernelCounts:
        fmt = self.preprocess(a)
        stats = KernelStats()
        prof = access_profile(a)
        wpr = warps_per_row(n)
        m, nnz = a.nrows, a.nnz
        b = charge_row_split(stats, prof, n, 2 * m * wpr)

        # Dense traffic: tiles classified dense reuse B rows from shared
        # memory, saving `dense_tile_saving` of their stream.  The reused
        # share moves from global to shared loads.
        scale = 1.0 - self.dense_tile_saving * fmt.dense_fraction
        b_insts = int(round(b.instructions * scale))
        b_sectors = int(round(b.sectors * scale))
        b_req = int(round(b.requested_bytes * scale))
        stats.global_load.charge(
            b_insts - b.instructions,
            b_sectors - b.sectors,
            b_req - b.requested_bytes,
            b_sectors - b.sectors,
        )
        reused = b.instructions - b_insts
        stats.shared_load.charge(reused, reused, b.requested_bytes - b_req, 0)
        stats.block_syncs += (fmt.shape[0] // max(fmt.panel_height, 1)) * wpr

        tiles = prof.tile_loads(_TILE)
        sp = 2 * wpr
        stats.global_load.charge(
            sp * tiles.instructions,
            sp * tiles.sectors,
            sp * tiles.requested_bytes,
            sp * tiles.sectors,
        )

        stats.traffic("B", b_sectors, prof.unique_b_columns * n * 4, False)
        stats.traffic("colind", wpr * tiles.sectors, 4 * nnz, True)
        stats.traffic("values", wpr * tiles.sectors, 4 * nnz, True)

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
