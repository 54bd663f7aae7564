"""Algorithm 2 — SpMM with Coalesced Row Caching (CRC).

The warp partially unrolls the sparse-row walk by ``warp_size``: in phase
one all 32 lanes cooperatively load a 32-element *tile* of
``colind``/``val`` into shared memory with one coalesced request each; in
phase two the warp consumes the tile element-by-element from shared
memory while streaming the matching coalesced rows of ``B``.  Only a
cheap ``__syncwarp`` separates the phases — the paper deliberately limits
sharing to one warp to avoid block-level synchronization (Section III-C).

Net effect versus Algorithm 1: the 2 broadcast transactions per nonzero
become ~8 wide transactions per 32 nonzeros, raising ``gld_efficiency``
from ~69% to ~92% on the paper's profiling matrices (Table V).
"""

from __future__ import annotations

from repro.core.access_profile import access_profile, warps_per_row
from repro.gpusim.config import GPUSpec
from repro.gpusim.kernel import KernelCounts, SpMMKernel
from repro.gpusim.memory import KernelStats, charge_row_split
from repro.gpusim.occupancy import LaunchConfig
from repro.gpusim.timing import ExecHints
from repro.sparse.csr import CSRMatrix

__all__ = ["CRCSpMM"]

_WARPS_PER_BLOCK = 4
_THREADS_PER_BLOCK = 32 * _WARPS_PER_BLOCK
_TILE = 32  # default elements staged per warp per phase


class CRCSpMM(SpMMKernel):
    """CSR SpMM with Coalesced Row Caching (paper Algorithm 2)."""

    name = "crc"
    supports_general_semiring = True

    regs_per_thread = 30
    #: one dense load per consumed element; the shared-memory walk between
    #: loads keeps little more than one request outstanding.
    mlp = 1.4

    def __init__(self, tile: int = _TILE):
        """``tile``: elements staged per load phase (ablation knob; the
        paper's kernel uses warp_size = 32)."""
        super().__init__()
        if tile < 32 or tile % 32:
            raise ValueError("tile must be a positive multiple of the warp size")
        self.tile = int(tile)
        if tile != _TILE:
            self.name = f"crc(tile={tile})"

    def count(self, a: CSRMatrix, n: int, gpu: GPUSpec) -> KernelCounts:
        stats = KernelStats()
        prof = access_profile(a)
        wpr = warps_per_row(n)
        m, nnz = a.nrows, a.nnz
        # B segments, two rowptr loads per (row, segment) warp, C stores.
        rp_insts = 2 * m * wpr
        b = charge_row_split(stats, prof, n, rp_insts)

        # Coalesced tile loads of colind and val (already near-minimal,
        # so the Turing L1 filter leaves them unchanged).  Loads are
        # warp-wide regardless of the staging tile; a larger tile only
        # amortizes synchronization and loop control.
        tiles = prof.tile_loads(32)
        big_tiles = prof.tile_loads(self.tile)
        sp = 2 * wpr
        stats.global_load.charge(
            sp * tiles.instructions,
            sp * tiles.sectors,
            sp * tiles.requested_bytes,
            sp * tiles.sectors,
        )

        # Shared memory: 2 contiguous stores per tile (conflict free), and
        # 2 broadcast reads per consumed nonzero (conflict free).
        stats.shared_store.charge(
            sp * tiles.instructions, sp * tiles.instructions, sp * tiles.requested_bytes, 0
        )
        stats.shared_load.charge(2 * nnz * wpr, 2 * nnz * wpr, 8 * nnz * wpr, 0)
        stats.warp_syncs = wpr * big_tiles.instructions

        stats.traffic("colind", wpr * tiles.sectors, 4 * nnz, True)
        stats.traffic("values", wpr * tiles.sectors, 4 * nnz, True)
        stats.traffic("B", b.sectors, prof.unique_b_columns * n * 4, False)
        stats.traffic("rowptr", rp_insts, 4 * (m + 1), True)

        stats.flops = 2 * nnz * n
        # Inner-loop bookkeeping per consumed nonzero plus per-tile and
        # per-warp control overhead.
        stats.alu_instructions = 4 * nnz * wpr + 8 * wpr * big_tiles.instructions + 12 * m * wpr

        tasks = m * wpr
        launch = LaunchConfig(
            blocks=(tasks + _WARPS_PER_BLOCK - 1) // _WARPS_PER_BLOCK,
            threads_per_block=_THREADS_PER_BLOCK,
            regs_per_thread=self.regs_per_thread,
            shared_mem_per_block=_WARPS_PER_BLOCK * self.tile * 8,
        )
        # Warp-per-row drain tail: the launch retires when the warp that
        # owns the longest row finishes streaming it alone — its serial
        # chain is that row's B segments plus its staged tiles.  Only
        # binds when one hub row holds a large share of the nonzeros
        # (power-law graphs); merge-path bounds this by the segment size.
        l_max = int(a.row_lengths().max()) if m else 0
        seg_sec = (min(32, n) + 7) // 8
        tail = float(l_max * seg_sec + 2 * ((l_max + 7) // 8) + 2) if l_max else 0.0
        return stats, launch, ExecHints(mlp=self.mlp, tail_sectors=tail)
