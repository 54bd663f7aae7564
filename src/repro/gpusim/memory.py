"""Warp-level memory coalescing model and access statistics.

This module defines the reproduction's equivalent of ``nvprof``'s memory
counters.  The central rule (CUDA programming guide; paper Section II-A)
is that a warp's 32 lane addresses are merged into the minimum number of
32-byte *sectors*; each distinct sector is one global transaction
(``gld_transactions`` / ``gst_transactions``).  ``gld_efficiency`` is the
ratio of bytes the program asked for to bytes the transactions moved.

Kernels compute these totals in closed form (each kernel's ``count``
method) from the per-matrix
:class:`~repro.core.access_profile.AccessProfile`.  Every charge goes
through :meth:`AccessStats.charge` and every array-traffic record through
:meth:`KernelStats.traffic`.  The streams the row-split kernels share
(Simple, CRC, CWM, cuSPARSE, GraphBLAST, ASpT: a warp per row and
32-column segment loads one ``B`` segment per nonzero, reads ``rowptr``
and stores ``C`` segments) are charged once, by
:func:`charge_row_split`; the register-tile re-stream of cuSPARSE and
GraphBLAST by :func:`charge_register_restream`.  Each ``count`` adds only
what its kernel does differently.

The reference ``count`` is checked against is a per-warp loop replay
that moves real data and coalesces each access's actual addresses, one
warp instruction at a time; it lives in ``tests/trace_references.py``
with the scalar sector and bank rules it applies per request, and the
conformance tests require ``count`` to match it instruction for
instruction.

Shared-memory accesses are modelled with the 32-bank rule: a warp request
is replayed once per additional address mapping to an already-used bank
(broadcasts of one address are conflict-free).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict

import numpy as np

if TYPE_CHECKING:
    from repro.core.access_profile import AccessProfile, AccessTotals

__all__ = [
    "AccessStats",
    "KernelStats",
    "charge_register_restream",
    "charge_row_split",
    "segment_sectors",
]

SECTOR = 32  # bytes
ELEM = 4  # float32 / int32


def segment_sectors(start_elem: np.ndarray, length: np.ndarray, elem_bytes: int = ELEM) -> np.ndarray:
    """Vectorized sector count for contiguous element ranges.

    For a warp loading elements ``[s, s+L)`` of a 32 B-aligned array, the
    transaction count is ``floor(((s+L)*b - 1)/32) - floor(s*b/32) + 1``
    (zero when ``L == 0``).  Used by the analytic counters.
    """
    start_elem = np.asarray(start_elem, dtype=np.int64)
    length = np.asarray(length, dtype=np.int64)
    first = (start_elem * elem_bytes) // SECTOR
    last = ((start_elem + length) * elem_bytes - 1) // SECTOR
    out = last - first + 1
    return np.where(length > 0, out, 0)


@dataclass
class AccessStats:
    """Counters for one (space, direction) access stream."""

    instructions: int = 0  # warp-level load/store instructions issued
    transactions: int = 0  # 32 B sectors moved (L1<->L2 for global)
    requested_bytes: int = 0  # bytes the active lanes asked for
    l1_filtered_transactions: int = 0  # sectors after Turing L1 filtering

    def charge(
        self, instructions: int, sectors: int, requested_bytes: int, l1_filtered: int
    ) -> None:
        """Add one access stream: its warp instructions, 32 B sectors,
        requested bytes, and the sectors left after Turing's L1 filter
        (0 for stores, which the L1 does not filter)."""
        self.instructions += instructions
        self.transactions += sectors
        self.requested_bytes += requested_bytes
        self.l1_filtered_transactions += l1_filtered

    def merge(self, other: "AccessStats") -> None:
        self.charge(
            other.instructions,
            other.transactions,
            other.requested_bytes,
            other.l1_filtered_transactions,
        )

    @property
    def efficiency(self) -> float:
        """``gld_efficiency``-style metric: requested / moved bytes."""
        if self.transactions == 0:
            return 1.0
        return self.requested_bytes / (self.transactions * SECTOR)

    def scaled(self, factor: float) -> "AccessStats":
        return AccessStats(
            int(round(self.instructions * factor)),
            int(round(self.transactions * factor)),
            int(round(self.requested_bytes * factor)),
            int(round(self.l1_filtered_transactions * factor)),
        )


@dataclass
class ArrayTraffic:
    """Aggregate traffic of one logical array, for the L2 reuse model."""

    sectors: int = 0  # total sector fetches issued for this array
    unique_bytes: int = 0  # footprint actually touched
    reuse_is_local: bool = True  # re-references happen close in time


@dataclass
class KernelStats:
    """Everything the timing model needs about one kernel execution."""

    global_load: AccessStats = field(default_factory=AccessStats)
    global_store: AccessStats = field(default_factory=AccessStats)
    shared_load: AccessStats = field(default_factory=AccessStats)
    shared_store: AccessStats = field(default_factory=AccessStats)
    array_traffic: Dict[str, ArrayTraffic] = field(default_factory=dict)
    flops: int = 0
    alu_instructions: int = 0  # integer/addressing/loop overhead per warp
    warp_syncs: int = 0
    block_syncs: int = 0
    atomic_ops: int = 0

    def traffic(self, name: str, *record) -> ArrayTraffic:
        """The traffic record of array ``name``, created empty on first
        use.  ``traffic(name, sectors, unique_bytes, reuse_is_local)``
        sets its three fields.  The timing model sums DRAM bytes over the
        records in insertion order, so a kernel's first call per array
        fixes where that array's term falls in the float sum."""
        tr = self.array_traffic.setdefault(name, ArrayTraffic())
        if record:
            tr.sectors, tr.unique_bytes, tr.reuse_is_local = record
        return tr

    def merge(self, other: "KernelStats") -> None:
        self.global_load.merge(other.global_load)
        self.global_store.merge(other.global_store)
        self.shared_load.merge(other.shared_load)
        self.shared_store.merge(other.shared_store)
        for name, tr in other.array_traffic.items():
            mine = self.traffic(name)
            mine.sectors += tr.sectors
            mine.unique_bytes = max(mine.unique_bytes, tr.unique_bytes)
            mine.reuse_is_local = mine.reuse_is_local and tr.reuse_is_local
        self.flops += other.flops
        self.alu_instructions += other.alu_instructions
        self.warp_syncs += other.warp_syncs
        self.block_syncs += other.block_syncs
        self.atomic_ops += other.atomic_ops

    # Convenience metric accessors mirroring nvprof names -----------------
    @property
    def gld_transactions(self) -> int:
        return self.global_load.transactions

    @property
    def gld_efficiency(self) -> float:
        return self.global_load.efficiency

    @property
    def gst_transactions(self) -> int:
        return self.global_store.transactions

    def effective_load_sectors(self, l1_caches_global: bool) -> int:
        """Sectors that actually cross L1<->L2 after optional L1 filtering."""
        if l1_caches_global and self.global_load.l1_filtered_transactions:
            return self.global_load.l1_filtered_transactions
        return self.global_load.transactions


def charge_row_split(
    stats: KernelStats, prof: "AccessProfile", n: int, rowptr_loads: int
) -> "AccessTotals":
    """Charge the streams every row-split kernel shares, for ``n``
    output columns, and return the ``B`` totals:

    * one ``B`` segment load per nonzero per 32-column segment (no reuse
      the L1 could filter);
    * ``rowptr_loads`` broadcast ``rowptr`` loads of one sector each,
      eight to a sector after the L1;
    * one ``C`` segment store per (row, segment).

    The array-traffic records stay with the kernel, which fixes their
    order.
    """
    b = prof.b_loads(n)
    stats.global_load.charge(b.instructions, b.sectors, b.requested_bytes, b.sectors)
    stats.global_load.charge(
        rowptr_loads,
        rowptr_loads,
        4 * rowptr_loads,
        max(rowptr_loads // 8, 1) if prof.nrows else 0,
    )
    c = prof.c_stores(n)
    stats.global_store.charge(c.instructions, c.sectors, c.requested_bytes, 0)
    return b


def charge_register_restream(
    stats: KernelStats, prof: "AccessProfile", tile: int, chunks: int
) -> None:
    """Charge the sparse loads of a warp-per-row kernel that holds one
    ``tile`` of the row in registers while it iterates ``chunks`` column
    chunks (cuSPARSE csrmm2, GraphBLAST rowsplit), and record the
    ``colind`` and ``values`` traffic.

    Rows of at most ``tile`` elements load ``colind`` and ``values``
    once for all chunks; longer rows re-stream their tiles every chunk.
    Sectors and bytes scale from the coalesced tile loads by the share
    of tile loads issued.
    """
    tiles = prof.tile_loads(tile)
    short_rows = prof.rows_up_to(tile)
    long_tiles = tiles.instructions - short_rows  # tiles belonging to long rows
    insts = 2 * (short_rows + long_tiles * chunks)
    scale = insts / max(2 * tiles.instructions, 1)
    sectors = int(round(2 * tiles.sectors * scale))
    requested = int(round(2 * tiles.requested_bytes * scale))
    stats.global_load.charge(insts, sectors, requested, sectors)
    stats.traffic("colind", sectors // 2, 4 * prof.nnz, True)
    stats.traffic("values", sectors - sectors // 2, 4 * prof.nnz, True)
