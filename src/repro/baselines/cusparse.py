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

from repro.core.access_profile import access_profile, warps_per_row
from repro.gpusim.config import GPUSpec
from repro.gpusim.kernel import KernelCounts, SpMMKernel
from repro.gpusim.memory import KernelStats, charge_register_restream, charge_row_split
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
        prof = access_profile(a)
        wpr = warps_per_row(n)  # column chunks iterated inside the warp
        m, nnz = a.nrows, a.nnz

        # Sparse loads: rows that fit one register tile are loaded once for
        # all chunks; longer rows re-stream their tiles every chunk.
        charge_register_restream(stats, prof, _TILE, wpr)
        b = charge_row_split(stats, prof, n, 2 * m)

        # Column-major output staged through shared memory so the actual
        # global stores coalesce (same byte volume as row-major).
        c = prof.c_stores(n)
        stats.shared_store.charge(c.instructions, c.instructions, c.requested_bytes, 0)
        stats.shared_load.charge(c.instructions, c.instructions, c.requested_bytes, 0)
        stats.block_syncs = m  # one barrier per staged row tile

        stats.traffic("B", b.sectors, prof.unique_b_columns * n * 4, False)
        stats.traffic("rowptr", 2 * m, 4 * (m + 1), True)

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
