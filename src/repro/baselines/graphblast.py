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

from repro.core.access_profile import access_profile, warps_per_row
from repro.gpusim.config import GPUSpec
from repro.gpusim.kernel import KernelCounts, SpMMKernel
from repro.gpusim.memory import KernelStats, charge_register_restream, charge_row_split
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
        prof = access_profile(a)
        wpr = warps_per_row(n)  # chunks iterated inside the warp
        m, nnz = a.nrows, a.nnz

        # Coalesced sparse tile fetch; registers hold one tile, so rows
        # longer than a tile re-stream per column chunk (as in csrmm2).
        charge_register_restream(stats, prof, _TILE, wpr)
        b = charge_row_split(stats, prof, n, 2 * m)

        stats.traffic("B", b.sectors, prof.unique_b_columns * n * 4, False)
        stats.traffic("rowptr", 2 * m, 4 * (m + 1), True)

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
