"""Warp-level memory coalescing model and access statistics.

This module defines the reproduction's equivalent of ``nvprof``'s memory
counters.  The central rule (CUDA programming guide; paper Section II-A)
is that a warp's 32 lane addresses are merged into the minimum number of
32-byte *sectors*; each distinct sector is one global transaction
(``gld_transactions`` / ``gst_transactions``).  ``gld_efficiency`` is the
ratio of bytes the program asked for to bytes the transactions moved.

Two views of the same accesses share these definitions:

* **trace mode** — each kernel's ``trace`` replays every warp's accesses
  as ``(buffer, start, length)`` records through
  :class:`repro.gpusim.batchtrace.BatchTraceMemory`, which coalesces them
  with :func:`segment_sectors` and scores shared-memory requests with
  :func:`bank_conflict_passes_batch`.  This is exact and is used by tests
  and small-input profiling.
* **analytic mode** — kernels compute the same totals in closed form with
  vectorized NumPy (see each kernel's ``count`` method).  Property tests
  assert trace == analytic on randomized small inputs.

The per-warp loop oracle that trace mode is checked against, with the
scalar sector and bank rules it applies per request, lives in
``tests/trace_references.py``.

Shared-memory accesses are modelled with the 32-bank rule: a warp request
is replayed once per additional address mapping to an already-used bank
(broadcasts of one address are conflict-free).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

__all__ = [
    "AccessStats",
    "KernelStats",
    "segment_sectors",
    "bank_conflict_passes_batch",
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


def bank_conflict_passes_batch(
    word_addresses: np.ndarray, mask: Optional[np.ndarray] = None
) -> np.ndarray:
    """Shared-memory passes (1 = conflict free) for a whole warp batch,
    under the 32-bank / 4-byte-word rule with broadcast merging: distinct
    addresses mapping to the same bank serialize.

    ``word_addresses`` is ``(num_warps, lanes)``; ``mask`` (same shape,
    optional) predicates lanes off per warp.  Returns an ``int64`` vector
    of one pass count per warp, counting only that warp's active lanes (0
    for a fully-masked warp).  Used by the batch trace-replay engine to
    account shared-memory requests for every warp of a launch in one shot.
    """
    addrs = np.asarray(word_addresses, dtype=np.int64)
    if addrs.ndim != 2:
        raise ValueError(f"expected a (num_warps, lanes) matrix, got shape {addrs.shape}")
    w, lanes = addrs.shape
    if w == 0 or lanes == 0:
        return np.zeros(w, dtype=np.int64)
    if mask is None:
        active = np.ones((w, lanes), dtype=bool)
    else:
        active = np.asarray(mask, dtype=bool)
        if active.shape != addrs.shape:
            raise ValueError("mask shape must match word_addresses")
    # Sort each warp's addresses with inactive lanes pushed to the front
    # as a sentinel, then keep one representative per distinct address.
    sentinel = addrs.min() - 1 if active.any() else -1
    a = np.where(active, addrs, sentinel)
    a.sort(axis=1)
    valid = a != sentinel
    first = np.empty_like(valid)
    first[:, 0] = True
    first[:, 1:] = a[:, 1:] != a[:, :-1]
    keep = valid & first
    banks = a % 32
    keys = (np.arange(w, dtype=np.int64)[:, None] * 32 + banks)[keep]
    counts = np.bincount(keys, minlength=w * 32).reshape(w, 32)
    return counts.max(axis=1).astype(np.int64)


@dataclass
class AccessStats:
    """Counters for one (space, direction) access stream."""

    instructions: int = 0  # warp-level load/store instructions issued
    transactions: int = 0  # 32 B sectors moved (L1<->L2 for global)
    requested_bytes: int = 0  # bytes the active lanes asked for
    l1_filtered_transactions: int = 0  # sectors after Turing L1 filtering

    def merge(self, other: "AccessStats") -> None:
        self.instructions += other.instructions
        self.transactions += other.transactions
        self.requested_bytes += other.requested_bytes
        self.l1_filtered_transactions += other.l1_filtered_transactions

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

    def traffic(self, name: str) -> ArrayTraffic:
        return self.array_traffic.setdefault(name, ArrayTraffic())

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
