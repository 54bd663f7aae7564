"""Vectorized batch trace-replay engine.

The per-warp oracle memory (``tests/trace_references.py``) replays a
kernel warp by warp and instruction by instruction — exact, but a
quadruple-nested Python loop (row x column segment x tile x nonzero) whose cost is dominated by
interpreter overhead, not by the modelled work.  This module replays
*all warps of a launch at once* as NumPy batch operations and produces
**bit-identical** :class:`~repro.gpusim.memory.KernelStats`.

The key observation is that every global access the simulated kernels
issue is one of two shapes:

* a **broadcast** — all active lanes request the same element (one
  sector, 4 useful bytes), or
* a **contiguous segment** — active lanes cover elements
  ``[start, start + length)`` of one buffer (a consecutive ascending
  sector range, ``length * itemsize`` useful bytes),

so a whole kernel's accesses collapse to flat arrays of
``(buffer, start, length)`` records.  Order-independent counters
(instructions, transactions, requested bytes, per-array traffic) are
plain vectorized sums over those records.

The one *order-dependent* counter is the Turing L1 recency-window filter:
the oracle memory ticks a clock once per load sector, in program order, and
counts a sector as filtered when it was seen within the last
``l1_window`` ticks.  To reproduce it exactly, every load record carries
a ``(task, step)`` sort key — ``task`` is the warp-task's position in the
serial replay order, ``step`` the instruction's position within the task.
:meth:`BatchTraceMemory.finalize` lexsorts the records, expands them into
the exact per-sector access stream the loop replay would have produced
(sectors within one instruction are ascending, matching ``np.unique``),
and computes every sector's distance to its previous occurrence in one
vectorized pass.

The engine accounts; it does not move data.  Kernels gather/scatter the
numeric values themselves with dense array operations, folding nonzeros
in CSR order with elementwise ``reduce_pair`` steps so the floating-point
result is bit-identical to the sequential per-warp accumulation (see
:func:`fold_spmm_rows`).  The parity contract is enforced by
``tests/test_batchtrace_parity.py`` and documented in
``docs/PERFORMANCE.md``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.gpusim.memory import SECTOR, KernelStats, bank_conflict_passes_batch

__all__ = [
    "BatchTraceMemory",
    "ragged_arange",
    "l1_filtered_misses",
    "fold_spmm_rows",
    "tile_shared_accounting",
    "record_program",
]

#: Program-order record captured by :func:`record_program`:
#: ``(buffer, kind, task[], step[], sectors[])`` with one array element
#: per warp instruction.  Stores carry ``step = _STORE_STEP`` (they come
#: last in every kernel's per-task program).
ProgramRecord = Tuple[str, str, np.ndarray, np.ndarray, np.ndarray]

_STORE_STEP = np.int64(2**62)

_PROGRAM_SINK: Optional[List[ProgramRecord]] = None


@contextmanager
def record_program() -> Iterator[List[ProgramRecord]]:
    """Capture every (task, step)-stamped access of all
    :class:`BatchTraceMemory` instances created in the block.

    Used by :mod:`repro.gpusim.warptrace` to rebuild per-warp
    instruction timelines from a ``kernel.trace`` replay; accounting is
    unchanged (the sink only observes).
    """
    global _PROGRAM_SINK
    prev = _PROGRAM_SINK
    sink: List[ProgramRecord] = []
    _PROGRAM_SINK = sink
    try:
        yield sink
    finally:
        _PROGRAM_SINK = prev


def ragged_arange(counts: np.ndarray) -> np.ndarray:
    """``concatenate([arange(c) for c in counts])`` without the loop."""
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    offsets = np.cumsum(counts) - counts
    return np.arange(total, dtype=np.int64) - np.repeat(offsets, counts)


def _expand_sector_ranges(first: np.ndarray, count: np.ndarray) -> np.ndarray:
    """Expand ``(first, count)`` consecutive ranges into one flat stream."""
    total = int(count.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    step = np.ones(total, dtype=np.int64)
    starts_at = np.cumsum(count) - count
    step[starts_at[0]] = first[0]
    step[starts_at[1:]] = first[1:] - (first[:-1] + count[:-1] - 1)
    return np.cumsum(step)


def l1_filtered_misses(sectors: np.ndarray, window: int) -> int:
    """Misses of the Turing L1 recency filter over a sector access stream.

    Replicates the per-warp oracle memory's filter exactly: the clock ticks once per
    stream position, and position ``i`` *hits* when the same sector was
    last accessed at position ``j`` with ``i - j <= window``.
    """
    sectors = np.asarray(sectors, dtype=np.int64)
    n = sectors.size
    if n == 0:
        return 0
    order = np.argsort(sectors, kind="stable")
    sorted_sectors = sectors[order]
    far = np.int64(-(window + 2))
    prev = np.full(n, far, dtype=np.int64)
    same = sorted_sectors[1:] == sorted_sectors[:-1]
    prev[order[1:]] = np.where(same, order[:-1], far)
    return int(np.count_nonzero(np.arange(n, dtype=np.int64) - prev > window))


class BatchTraceMemory:
    """Batch-accounting twin of the per-warp oracle memory in
    ``tests/trace_references.py``.

    Buffers get the same sector-aligned base layout (256 B, matching
    ``cudaMalloc``), so sector arithmetic is identical.  Accounting calls
    take *arrays* of accesses; each call covers every warp of the launch
    that issues that instruction shape.
    """

    def __init__(self, l1_caches_global: bool = False, l1_window_sectors: int = 512):
        self.stats = KernelStats()
        self._buffers: Dict[str, np.ndarray] = {}
        self._bases: Dict[str, int] = {}
        self._next_base = 0
        self._l1 = l1_caches_global
        self._l1_window = l1_window_sectors
        # Deferred L1 stream: (task, step, first_sector, sector_count)
        self._stream: List[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
        self._finalized = False

    # ------------------------------------------------------------------
    def register(self, name: str, array: np.ndarray) -> np.ndarray:
        """Register (and copy) a device buffer; returns the live buffer."""
        buf = np.array(array)
        self._buffers[name] = buf
        self._bases[name] = self._next_base
        nbytes = buf.size * buf.itemsize
        self._next_base += ((nbytes + 255) // 256) * 256
        self.stats.traffic(name).unique_bytes = nbytes
        return buf

    def buffer(self, name: str) -> np.ndarray:
        return self._buffers[name]

    # ------------------------------------------------------------------
    def _sector_range(
        self, name: str, start: np.ndarray, length: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        buf = self._buffers[name]
        base = self._bases[name]
        ib = buf.itemsize
        if start.size and (
            int(start.min()) < 0 or int((start + length).max()) > buf.size
        ):
            raise IndexError(f"out-of-bounds access to device buffer {name!r}")
        first = (base + start * ib) // SECTOR
        last = (base + (start + length) * ib - 1) // SECTOR
        return first, last - first + 1

    def load_contiguous(
        self,
        name: str,
        start: np.ndarray,
        length: np.ndarray,
        task: Optional[np.ndarray] = None,
        step: Optional[np.ndarray] = None,
    ) -> None:
        """Account a block of contiguous warp load instructions.

        One record per instruction: active lanes of the warp request
        elements ``[start, start + length)`` of ``name`` (``length == 1``
        is a broadcast).  ``task``/``step`` place each record in the
        serial replay order for the L1 filter; they broadcast against
        ``start``.
        """
        start = np.asarray(start, dtype=np.int64)
        length = np.broadcast_to(np.asarray(length, dtype=np.int64), start.shape)
        if start.size == 0:
            return
        if np.any(length <= 0):
            raise ValueError("contiguous accesses must cover at least one element")
        first, count = self._sector_range(name, start, length)
        gl = self.stats.global_load
        gl.instructions += start.size
        sectors_total = int(count.sum())
        gl.transactions += sectors_total
        gl.requested_bytes += int(length.sum()) * self._buffers[name].itemsize
        self.stats.traffic(name).sectors += sectors_total
        if _PROGRAM_SINK is not None and task is not None:
            t = np.array(np.broadcast_to(np.asarray(task, dtype=np.int64), start.shape))
            s = np.array(np.broadcast_to(np.asarray(step, dtype=np.int64), start.shape))
            _PROGRAM_SINK.append((name, "load", t, s, count.copy()))
        if self._l1:
            task = np.broadcast_to(np.asarray(task, dtype=np.int64), start.shape)
            step = np.broadcast_to(np.asarray(step, dtype=np.int64), start.shape)
            self._stream.append((task.copy(), step.copy(), first, count))
        else:
            gl.l1_filtered_transactions += sectors_total

    def store_contiguous(
        self,
        name: str,
        start: np.ndarray,
        length: np.ndarray,
        task: Optional[np.ndarray] = None,
    ) -> None:
        """Account a block of contiguous warp store instructions (stores
        do not enter the L1 stream, matching the per-warp oracle).  ``task``
        only feeds :func:`record_program` timelines — every kernel issues
        its stores last, so they get a past-the-end step stamp."""
        start = np.asarray(start, dtype=np.int64)
        length = np.broadcast_to(np.asarray(length, dtype=np.int64), start.shape)
        if start.size == 0:
            return
        if np.any(length <= 0):
            raise ValueError("contiguous accesses must cover at least one element")
        _, count = self._sector_range(name, start, length)
        gs = self.stats.global_store
        gs.instructions += start.size
        gs.transactions += int(count.sum())
        gs.requested_bytes += int(length.sum()) * self._buffers[name].itemsize
        if _PROGRAM_SINK is not None and task is not None:
            t = np.array(np.broadcast_to(np.asarray(task, dtype=np.int64), start.shape))
            s = np.full(start.shape, _STORE_STEP, dtype=np.int64)
            _PROGRAM_SINK.append((name, "store", t, s, count.copy()))

    def add_shared(
        self,
        *,
        load_instructions: int = 0,
        load_transactions: int = 0,
        load_bytes: int = 0,
        store_instructions: int = 0,
        store_transactions: int = 0,
        store_bytes: int = 0,
    ) -> None:
        """Fold batched shared-memory accounting (pass counts from
        :func:`~repro.gpusim.memory.bank_conflict_passes_batch`) into the
        stats."""
        self.stats.shared_load.instructions += int(load_instructions)
        self.stats.shared_load.transactions += int(load_transactions)
        self.stats.shared_load.requested_bytes += int(load_bytes)
        self.stats.shared_store.instructions += int(store_instructions)
        self.stats.shared_store.transactions += int(store_transactions)
        self.stats.shared_store.requested_bytes += int(store_bytes)

    def add_warp_syncs(self, count: int) -> None:
        self.stats.warp_syncs += int(count)

    # ------------------------------------------------------------------
    def finalize(self) -> KernelStats:
        """Resolve the deferred L1 filter and return the stats."""
        if self._finalized:
            return self.stats
        self._finalized = True
        if self._l1 and self._stream:
            task = np.concatenate([r[0] for r in self._stream])
            step = np.concatenate([r[1] for r in self._stream])
            first = np.concatenate([r[2] for r in self._stream])
            count = np.concatenate([r[3] for r in self._stream])
            order = np.lexsort((step, task))
            stream = _expand_sector_ranges(first[order], count[order])
            self.stats.global_load.l1_filtered_transactions += l1_filtered_misses(
                stream, self._l1_window
            )
            self._stream = []
        return self.stats


def tile_shared_accounting(mem: "BatchTraceMemory", tile_lens: np.ndarray) -> None:
    """Shared-memory accounting for CRC-style staging tiles, whole launch
    at once.

    Per tile of length ``L`` the warp stores ``colind``/``values`` slices
    to banks ``lanes[:L]`` and ``32 + lanes[:L]`` (two instructions) and
    syncs once; per consumed element it broadcasts ``sm_k[kk]`` and
    ``sm_v[32+kk]`` back (two instructions).  Pass counts come from
    :func:`~repro.gpusim.memory.bank_conflict_passes_batch` evaluated on
    the distinct address patterns (one row per unique tile length /
    in-tile index) instead of once per warp request.
    """
    tile_lens = np.asarray(tile_lens, dtype=np.int64)
    ntiles = int(tile_lens.size)
    if ntiles == 0:
        return
    consumed = int(tile_lens.sum())
    lanes = np.arange(32, dtype=np.int64)
    uniq, counts = np.unique(tile_lens, return_counts=True)
    store_addrs = np.concatenate(
        [np.tile(lanes, (uniq.size, 1)), np.tile(32 + lanes, (uniq.size, 1))]
    )
    store_mask = np.concatenate([lanes[None, :] < uniq[:, None]] * 2)
    store_passes = bank_conflict_passes_batch(store_addrs, store_mask)
    store_transactions = int((store_passes.reshape(2, -1).sum(axis=0) * counts).sum())
    kks = np.arange(int(uniq.max()), dtype=np.int64)
    load_addrs = np.concatenate(
        [np.tile(kks[:, None], (1, 32)), np.tile(32 + kks[:, None], (1, 32))]
    )
    load_passes = bank_conflict_passes_batch(load_addrs).reshape(2, -1).sum(axis=0)
    # An element with in-tile index kk is consumed once per tile longer
    # than kk.
    elems_per_kk = ntiles - np.searchsorted(np.sort(tile_lens), kks, side="right")
    load_transactions = int((load_passes * elems_per_kk).sum())
    mem.add_shared(
        load_instructions=2 * consumed,
        load_transactions=load_transactions,
        load_bytes=8 * consumed,
        store_instructions=2 * ntiles,
        store_transactions=store_transactions,
        store_bytes=8 * consumed,
    )
    mem.add_warp_syncs(ntiles)


# ----------------------------------------------------------------------
# Numeric execution shared by the batched SpMM replays
# ----------------------------------------------------------------------


def fold_spmm_rows(
    rowptr: np.ndarray,
    colind: np.ndarray,
    values: np.ndarray,
    b: np.ndarray,
    init: float,
    reduce_pair,
    combine,
) -> np.ndarray:
    """Row-grouped SpMM-like accumulation, bit-identical to the per-warp
    sequential fold.

    Rows are grouped by length; each group folds its nonzeros position by
    position with elementwise ``reduce_pair``/``combine`` over a dense
    ``(rows_in_group, N)`` accumulator.  Because every step is
    elementwise, each output element sees exactly the same sequence of
    float64 operations as the scalar inner loop of the per-warp replay —
    the left-fold order the CUDA kernel's register accumulator has.
    Returns the float64 accumulator matrix (caller applies the
    float32 store cast and ``Semiring.finalize``).
    """
    rowptr = np.asarray(rowptr, dtype=np.int64)
    colind = np.asarray(colind, dtype=np.int64)
    vals64 = np.asarray(values, dtype=np.float64)
    b64 = np.asarray(b, dtype=np.float64)
    m = rowptr.size - 1
    n = b64.shape[1]
    lengths = rowptr[1:] - rowptr[:-1]
    acc_all = np.full((m, n), init, dtype=np.float64)
    for length in np.unique(lengths):
        if length == 0:
            continue
        rows = np.nonzero(lengths == length)[0]
        idx = rowptr[rows][:, None] + np.arange(length, dtype=np.int64)
        k = colind[idx]
        v = vals64[idx]
        acc = np.full((rows.size, n), init, dtype=np.float64)
        for t in range(int(length)):
            acc = reduce_pair(acc, combine(v[:, t][:, None], b64[k[:, t]]))
        acc_all[rows] = acc
    return acc_all
