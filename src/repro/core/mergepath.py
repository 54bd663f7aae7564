"""Merge-based SpMM — equal-work nonzero splitting (merge-path).

Row-split kernels (Algorithms 1/2, CRC/CWM) assign one warp per sparse
row, so the longest row dictates when the launch retires: on power-law
graphs a single hub row can hold a double-digit percentage of the
nonzeros and the grid drains waiting for one warp.  Following Yang,
Buluç and Owens ("Design Principles for Sparse Matrix Multiplication on
the GPU"), this kernel instead splits the *merge path* of the CSR
structure — the merged sequence of ``nnz`` nonzeros and ``M`` row-end
markers, ``T = nnz + M`` items total — into segments of equal path
length.  Every warp owns one segment per 32-column output slab:

* **Partition.**  With ``key[r] = rowptr[r] + r``, row ``r`` owns path
  positions ``[key[r], key[r+1])`` (its nonzeros plus one end marker).
  Segment ``s`` covers ``[d_s, d_{s+1})`` with ``d_s = s*T // S`` —
  segment sizes differ by at most one item, independent of the
  row-length distribution (:func:`merge_path_partition`).
* **Search.**  Each warp locates its boundary rows with a branchless
  bisection over ``rowptr`` running exactly ``ceil(log2(M+1))``
  iterations — one broadcast probe per iteration regardless of data, so
  the probe stream is identical in the analytic counters and the
  per-warp oracle (:func:`_search_probes`).
* **Row carries.**  A row crossing a segment boundary is accumulated
  partially by every segment touching it; each such segment performs a
  C read-modify-write (one extra segment load + store per touching
  segment) instead of a plain store.  The per-warp oracle keeps
  full-precision accumulators across the carry — the model charges the
  RMW traffic but idealizes the numerics, so the output is the CSR-order
  left fold of every row's nonzeros, whichever segments hold them.
* **No shared memory.**  Sparse indices/values stream through registers
  in 32-element coalesced chunks and spread lane-to-lane by shuffle, so
  there are no staging stores and no ``__syncwarp``.

The cost of balance is mild: boundary searches, carry traffic, and a
shuffle-serialized inner loop that keeps slightly less memory
parallelism in flight than CRC's shared-memory pipeline (``mlp`` 1.25
vs 1.4).  On uniform matrices merge-path therefore loses a few percent;
on skewed matrices it wins because its drain tail is bounded by the
segment size while row-split's grows with the longest row (see
``ExecHints.tail_sectors`` in :mod:`repro.gpusim.timing` and the
merge-path section of docs/PERFORMANCE.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.core.access_profile import access_profile, dense_segments, warps_per_row
from repro.gpusim.config import GPUSpec
from repro.gpusim.kernel import KernelCounts, SpMMKernel
from repro.gpusim.memory import KernelStats, segment_sectors
from repro.gpusim.occupancy import LaunchConfig
from repro.gpusim.timing import ExecHints
from repro.sparse.csr import CSRMatrix

__all__ = ["MergePathSpMM", "MergePartition", "merge_path_partition"]

_WARPS_PER_BLOCK = 4
_THREADS_PER_BLOCK = 32 * _WARPS_PER_BLOCK
_CHUNK = 32  # sparse elements streamed per coalesced register chunk
_MIN_ITEMS = 32
_MAX_ITEMS = 256


@dataclass(frozen=True)
class MergePartition:
    """Equal-work split of a CSR merge path into ``S`` segments.

    ``d``, ``i`` and ``j`` are ``int64[S + 1]``: segment ``s`` covers
    path positions ``[d[s], d[s+1])``, starts inside row ``i[s]`` and at
    nonzero index ``j[s]``.  ``d[0] == 0``, ``d[S] == nnz + M``,
    ``j[0] == 0`` and ``j[S] == nnz`` — the nonzero ranges
    ``[j[s], j[s+1])`` tile ``[0, nnz)`` exactly once, and consecutive
    path sizes ``d[s+1] - d[s]`` differ by at most one.
    """

    d: np.ndarray
    i: np.ndarray
    j: np.ndarray

    @property
    def n_segments(self) -> int:
        return self.d.size - 1


def merge_path_partition(rowptr: np.ndarray, items: int) -> MergePartition:
    """Split the merge path of ``rowptr`` into segments of ``<= items``.

    The path has ``T = nnz + M`` items (one per nonzero, one end marker
    per row).  ``S = ceil(T / items)`` segments get ``floor``-balanced
    boundaries ``d_s = s*T // S``; the two-dimensional split point of
    each boundary follows from ``key[r] = rowptr[r] + r``:
    ``i = max{r : key[r] <= d}`` and ``j = d - i``.
    """
    if items < 1:
        raise ValueError("segment size must be at least one path item")
    rowptr = np.asarray(rowptr, dtype=np.int64)
    m = rowptr.size - 1
    total = int(rowptr[-1]) + m
    if total == 0:
        zero = np.zeros(1, dtype=np.int64)
        return MergePartition(d=zero, i=zero.copy(), j=zero.copy())
    n_seg = -(-total // items)
    d = (np.arange(n_seg + 1, dtype=np.int64) * total) // n_seg
    key = rowptr + np.arange(m + 1, dtype=np.int64)
    i = np.searchsorted(key, d, side="right") - 1
    return MergePartition(d=d, i=i, j=d - i)


def ragged_arange(counts: np.ndarray) -> np.ndarray:
    """``concatenate([arange(c) for c in counts])`` without the loop."""
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    offsets = np.cumsum(counts) - counts
    return np.arange(total, dtype=np.int64) - np.repeat(offsets, counts)


def _search_probes(rowptr: np.ndarray, d: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Probe sequence of the branchless merge-path boundary search.

    Locates ``lo = max{r : rowptr[r] + r <= d}`` with a fixed-iteration
    bisection: every iteration halves the candidate window to
    ``ceil(size/2)`` whichever way the comparison goes, so all searches
    issue exactly ``K = M.bit_length()`` probes (converged searches
    re-probe their answer).  Returns ``(probes, lo)`` with ``probes``
    ``int64[K, len(d)]`` — the ``rowptr`` index each iteration
    broadcasts — shared verbatim by the analytic counters and the
    per-warp oracle so both see the same stream.
    """
    rowptr = np.asarray(rowptr, dtype=np.int64)
    m = rowptr.size - 1
    d = np.asarray(d, dtype=np.int64)
    k_iters = int(m).bit_length()
    lo = np.zeros(d.shape, dtype=np.int64)
    size = np.full(d.shape, m + 1, dtype=np.int64)
    probes = np.empty((k_iters,) + d.shape, dtype=np.int64)
    for k in range(k_iters):
        half = size // 2
        mid = lo + half
        probes[k] = mid
        lo = np.where(rowptr[mid] + mid <= d, mid, lo)
        size = size - half
    return probes, lo


class _Schedule:
    """Derived launch schedule shared by ``count`` and the per-warp loop
    oracle.

    Everything here follows deterministically from the partition, so the
    closed forms and the oracle agree by construction.
    """

    def __init__(self, a: CSRMatrix, items: int):
        rowptr = a.rowptr64()
        m = a.nrows
        part = merge_path_partition(rowptr, items)
        d, j = part.d, part.j
        self.part = part
        self.n_segments = part.n_segments
        self.search_iters = int(m).bit_length()
        if self.n_segments == 0:
            empty = np.empty(0, dtype=np.int64)
            self.touches = np.empty(0, dtype=np.int64)
            self.split = np.empty(0, dtype=bool)
            self.chunk_seg = self.chunk_idx = empty
            self.chunk_start = self.chunk_len = empty
            return
        key = rowptr + np.arange(m + 1, dtype=np.int64)
        # Per row: range of touching segments -> carry structure.  A row
        # is *split* when more than one segment touches it; every
        # touching segment of a split row does a C read-modify-write.
        seg_first = np.searchsorted(d, key[:-1], side="right") - 1
        seg_last = np.searchsorted(d, key[1:] - 1, side="right") - 1
        self.touches = seg_last - seg_first + 1
        self.split = self.touches > 1
        # Coalesced 32-element chunks over each segment's nonzero range.
        nz_counts = j[1:] - j[:-1]
        n_chunks = (nz_counts + _CHUNK - 1) // _CHUNK
        self.chunk_seg = np.repeat(
            np.arange(self.n_segments, dtype=np.int64), n_chunks
        )
        self.chunk_idx = ragged_arange(n_chunks)
        self.chunk_start = j[:-1][self.chunk_seg] + _CHUNK * self.chunk_idx
        self.chunk_len = np.minimum(
            _CHUNK, nz_counts[self.chunk_seg] - _CHUNK * self.chunk_idx
        )


class MergePathSpMM(SpMMKernel):
    """Merge-based SpMM with equal-work path segments per warp."""

    name = "mergepath"
    supports_general_semiring = True

    regs_per_thread = 40
    #: the shuffle-serialized register pipeline keeps slightly less
    #: memory parallelism in flight than CRC's two-phase shared staging.
    mlp = 1.25

    def __init__(self, items: int = 0):
        """``items``: merge-path items per segment (0 = size to fill the
        device: enough segments for half the GPU's resident warps,
        clamped to [32, 256] items)."""
        super().__init__()
        if items and items < 1:
            raise ValueError("items must be positive (or 0 for automatic sizing)")
        self.items = int(items)
        if items:
            self.name = f"mergepath(items={items})"

    # -- scheduling ----------------------------------------------------
    def _items_for(self, a: CSRMatrix, n: int, gpu: GPUSpec) -> int:
        if self.items:
            return self.items
        total = a.nnz + a.nrows
        nseg = warps_per_row(n)
        target_tasks = max(gpu.n_sms * gpu.max_warps_per_sm // 2, 1)
        target_segments = max(-(-target_tasks // nseg), 1)
        items = -(-max(total, 1) // target_segments)
        return min(max(items, _MIN_ITEMS), _MAX_ITEMS)

    def _schedule(self, a: CSRMatrix, n: int, gpu: GPUSpec) -> _Schedule:
        return _Schedule(a, self._items_for(a, n, gpu))

    # -- analytic ------------------------------------------------------
    def count(self, a: CSRMatrix, n: int, gpu: GPUSpec) -> KernelCounts:
        stats = KernelStats()
        prof = access_profile(a)
        m, nnz = a.nrows, a.nnz
        nseg = warps_per_row(n)
        sched = self._schedule(a, n, gpu)
        n_seg_path = sched.n_segments
        tasks = n_seg_path * nseg
        k_iters = sched.search_iters
        gl = stats.global_load

        # Boundary searches: 2K fixed broadcast probes per warp task.
        probe_insts = 2 * k_iters * tasks
        gl.charge(
            probe_insts,
            probe_insts,
            4 * probe_insts,
            max(probe_insts // 8, 1) if probe_insts else 0,
        )

        # Coalesced register chunks of colind and val over each
        # segment's nonzero range (per column-segment warp, like CRC).
        chunk_sectors = int(segment_sectors(sched.chunk_start, sched.chunk_len).sum())
        n_chunks = int(sched.chunk_seg.size)
        gl.charge(
            2 * nseg * n_chunks,
            2 * nseg * chunk_sectors,
            2 * nseg * 4 * nnz,
            2 * nseg * chunk_sectors,
        )

        # Dense-row loads: one B segment per consumed nonzero, exactly
        # the row-split pattern (addresses are identical).
        b = prof.b_loads(n)
        gl.charge(b.instructions, b.sectors, b.requested_bytes, b.sectors)

        # C traffic: every touching segment stores every touched row;
        # split rows add one carry load per touching segment (the RMW).
        rows = np.arange(m, dtype=np.int64)
        touches = sched.touches
        carry_per_row = np.where(sched.split, touches, 0)
        store_insts = int(touches.sum()) * nseg
        carry_insts = int(carry_per_row.sum()) * nseg
        store_sectors = carry_sectors = 0
        store_bytes = carry_bytes = 0
        for seg_start, seg_len in dense_segments(n):
            sec = segment_sectors(rows * n + seg_start, np.int64(seg_len))
            store_sectors += int((touches * sec).sum())
            carry_sectors += int((carry_per_row * sec).sum())
            store_bytes += 4 * seg_len * int(touches.sum())
            carry_bytes += 4 * seg_len * int(carry_per_row.sum())
        gl.charge(carry_insts, carry_sectors, carry_bytes, carry_sectors)
        stats.global_store.charge(store_insts, store_sectors, store_bytes, 0)

        # No shared memory, no syncs: chunks live in registers and the
        # walk spreads them by shuffle.

        stats.traffic("colind", nseg * chunk_sectors, 4 * nnz, True)
        stats.traffic("values", nseg * chunk_sectors, 4 * nnz, True)
        stats.traffic("B", b.sectors, prof.unique_b_columns * n * 4, False)
        stats.traffic("rowptr", probe_insts, 4 * (m + 1), True)
        stats.traffic("C", carry_sectors, m * n * 4, True)

        stats.flops = 2 * nnz * n
        # Search arithmetic per probe, per-nonzero walk bookkeeping (the
        # shuffle spread included), per-chunk and per-task loop control.
        stats.alu_instructions = (
            4 * probe_insts + 4 * nnz * nseg + 8 * nseg * n_chunks + 12 * tasks
        )

        launch = LaunchConfig(
            blocks=(tasks + _WARPS_PER_BLOCK - 1) // _WARPS_PER_BLOCK,
            threads_per_block=_THREADS_PER_BLOCK,
            regs_per_thread=self.regs_per_thread,
            shared_mem_per_block=0,
        )
        # The drain tail is bounded by the *segment* size, not the
        # longest row — the merge-path headline.  Longest serial chain:
        # one B segment per path item of the largest segment.
        if n_seg_path:
            items_max = int((sched.part.d[1:] - sched.part.d[:-1]).max())
            seg_sec = (min(32, n) + 7) // 8
            tail = float(items_max * seg_sec)
        else:
            tail = 0.0
        return stats, launch, ExecHints(mlp=self.mlp, tail_sectors=tail)
