"""Algorithm 3 — CRC plus Coarse-grained Warp Merging (CWM).

CWM merges the workloads of CF ("coarsening factor") column-adjacent
warps into one: each thread keeps CF accumulators and produces CF output
elements spaced ``warp_size`` columns apart.  The merged warp loads each
sparse tile once instead of CF times, and the CF dense loads per consumed
nonzero are *independent* instructions, raising memory-level parallelism
(paper Section III-C: "improve bandwidth throughput with instruction-
level parallelism").  The costs: CF times fewer warps in flight and
roughly ``5*CF`` extra registers per thread for accumulators and
addresses, which erodes occupancy at large CF — the trade-off behind the
paper's empirical choice of CF=2 (Fig. 9).
"""

from __future__ import annotations

from repro.core.access_profile import access_profile, warps_per_row
from repro.gpusim.config import GPUSpec
from repro.gpusim.kernel import KernelCounts, SpMMKernel
from repro.gpusim.memory import KernelStats, charge_row_split
from repro.gpusim.occupancy import LaunchConfig
from repro.gpusim.timing import ExecHints
from repro.sparse.csr import CSRMatrix

__all__ = ["CWMSpMM"]

_WARPS_PER_BLOCK = 4
_THREADS_PER_BLOCK = 32 * _WARPS_PER_BLOCK
_TILE = 32
_SHARED_PER_WARP = _TILE * 8


class CWMSpMM(SpMMKernel):
    """CSR SpMM with Coalesced Row Caching + Coarse-grained Warp Merging
    (paper Algorithm 3, generalized to arbitrary coarsening factor)."""

    supports_general_semiring = True

    def __init__(self, cf: int = 2):
        super().__init__()
        if cf < 1:
            raise ValueError("coarsening factor must be >= 1")
        self.cf = int(cf)
        self.name = f"crc+cwm(cf={self.cf})"

    @property
    def regs_per_thread(self) -> int:
        # Base CRC footprint plus one accumulator and one address pair per
        # extra output element.
        return 26 + 5 * self.cf

    def mlp_for(self, n: int) -> float:
        """CRC's single stream widened by one independent dense load per
        *active* accumulator: column segments beyond ``n`` are predicated
        off and contribute no outstanding requests (why CWM is pointless
        for N <= 32, paper Fig. 7c)."""
        active_cf = min(self.cf, max((n + 31) // 32, 1))
        return 1.4 + 0.7 * active_cf if active_cf >= 2 else 1.4

    def count(self, a: CSRMatrix, n: int, gpu: GPUSpec) -> KernelCounts:
        stats = KernelStats()
        prof = access_profile(a)
        cf = self.cf
        wpr = warps_per_row(n, cf)
        m, nnz = a.nrows, a.nnz

        # Dense loads: each merged warp issues CF segment loads per
        # consumed nonzero, so the totals over the row are exactly the
        # CF=1 totals (the union of segments covers the same N columns).
        rp_insts = 2 * m * wpr
        b = charge_row_split(stats, prof, n, rp_insts)

        tiles = prof.tile_loads(_TILE)
        sp = 2 * wpr
        stats.global_load.charge(
            sp * tiles.instructions,
            sp * tiles.sectors,
            sp * tiles.requested_bytes,
            sp * tiles.sectors,
        )
        stats.shared_store.charge(
            sp * tiles.instructions, sp * tiles.instructions, sp * tiles.requested_bytes, 0
        )
        stats.shared_load.charge(2 * nnz * wpr, 2 * nnz * wpr, 8 * nnz * wpr, 0)
        stats.warp_syncs = wpr * tiles.instructions

        stats.traffic("colind", wpr * tiles.sectors, 4 * nnz, True)
        stats.traffic("values", wpr * tiles.sectors, 4 * nnz, True)
        stats.traffic("B", b.sectors, prof.unique_b_columns * n * 4, False)
        stats.traffic("rowptr", rp_insts, 4 * (m + 1), True)

        stats.flops = 2 * nnz * n
        # Per consumed nonzero: the shared broadcast and loop control are
        # amortized over CF outputs; the CF FMAs are counted in `flops`.
        stats.alu_instructions = (
            (2 + 2 * cf) * nnz * wpr + 8 * wpr * tiles.instructions + (10 + 2 * cf) * m * wpr
        )

        tasks = m * wpr
        launch = LaunchConfig(
            blocks=(tasks + _WARPS_PER_BLOCK - 1) // _WARPS_PER_BLOCK,
            threads_per_block=_THREADS_PER_BLOCK,
            regs_per_thread=self.regs_per_thread,
            shared_mem_per_block=_WARPS_PER_BLOCK * _SHARED_PER_WARP,
        )
        # Warp-per-row drain tail (see CRCSpMM.count): the merged warp's
        # serial chain covers its ``ac`` active column segments per
        # consumed element of the longest row.
        l_max = int(a.row_lengths().max()) if m else 0
        ac = min(cf, max((n + 31) // 32, 1))
        per_elem = sum((min(32, n - 32 * c) + 7) // 8 for c in range(ac))
        tail = float(l_max * per_elem + 2 * ((l_max + 7) // 8) + 2) if l_max else 0.0
        return stats, launch, ExecHints(mlp=self.mlp_for(n), tail_sectors=tail)
