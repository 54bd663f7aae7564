"""Per-warp loop replays: the single trace oracle for access counts.

Sibling of ``references.py``.  The loops here execute each kernel one
warp instruction at a time against :class:`TraceMemory`, which moves
real data and coalesces each access's actual addresses.  They are exact
but slow, and ``tests/test_conformance_grid.py``,
``tests/test_trace_matches_analytic.py`` and
``tests/test_mergepath_model.py`` require every kernel's closed-form
``count`` to match them instruction for instruction and their output
to match the CSR reference.  Nothing in ``src/`` calls them.

Also here: the scalar coalescing and bank-conflict rules
(:func:`warp_sector_count`, :func:`bank_conflict_passes`) that the
oracle memory applies per warp request and that the vectorized
``segment_sectors`` is tested against.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.core import (
    CRCSpMM,
    CWMSpMM,
    FusedGESpMM,
    GESpMM,
    MergePathSpMM,
    SimpleSpMM,
)
from repro.core.access_profile import dense_segments
from repro.core.mergepath import _CHUNK, _search_probes
from repro.gpusim.memory import ELEM, SECTOR, KernelStats
from repro.semiring import PLUS_TIMES
from repro.sparse.csr import VALUE_DTYPE

_TILE = 32  # CRC/CWM elements staged per warp per phase


# ----------------------------------------------------------------------
# Scalar coalescing rules
# ----------------------------------------------------------------------
def warp_sector_count(byte_addresses: np.ndarray) -> int:
    """Number of 32 B sectors a warp access touches.

    ``byte_addresses`` holds the active lanes' byte addresses (inactive
    lanes excluded).  An empty access costs zero transactions — CUDA
    issues nothing when the whole warp is predicated off.
    """
    if byte_addresses.size == 0:
        return 0
    return int(np.unique(byte_addresses // SECTOR).size)


def bank_conflict_passes(word_addresses: np.ndarray) -> int:
    """Number of shared-memory passes (1 = conflict free) for a warp
    request, under the 32-bank / 4-byte-word rule with broadcast merging:
    distinct addresses mapping to the same bank serialize."""
    if word_addresses.size == 0:
        return 0
    distinct = np.unique(word_addresses)
    banks = distinct % 32
    _, counts = np.unique(banks, return_counts=True)
    return int(counts.max())


# ----------------------------------------------------------------------
# Oracle memory
# ----------------------------------------------------------------------
class TraceMemory:
    """Exact, trace-driven global-memory model.

    Buffers are registered by name; each gets a sector-aligned base
    address in a flat byte space so cross-array sector sharing cannot
    occur (matching ``cudaMalloc``'s 256 B alignment).  ``load``/``store``
    move real data *and* account transactions, enabling kernels to be both
    functionally executed and exactly profiled from the same code path.
    """

    def __init__(self, l1_caches_global: bool = False, l1_window_sectors: int = 512):
        self.stats = KernelStats()
        self._buffers: Dict[str, np.ndarray] = {}
        self._bases: Dict[str, int] = {}
        self._next_base = 0
        self._l1 = l1_caches_global
        # Tiny direct-history L1 filter: a sector re-referenced within the
        # window hits.  Window default ~= 16 KB of resident tags per SM.
        self._l1_window = l1_window_sectors
        self._l1_recent: Dict[int, int] = {}
        self._clock = 0

    # ------------------------------------------------------------------
    def register(self, name: str, array: np.ndarray) -> np.ndarray:
        """Register (and copy) a device buffer; returns the live buffer."""
        buf = np.array(array)  # device copy; host array stays intact
        self._buffers[name] = buf
        self._bases[name] = self._next_base
        nbytes = buf.size * buf.itemsize
        self._next_base += ((nbytes + 255) // 256) * 256
        self.stats.traffic(name).unique_bytes = nbytes
        return buf

    def buffer(self, name: str) -> np.ndarray:
        return self._buffers[name]

    def _account(
        self, name: str, idx: np.ndarray, mask: Optional[np.ndarray], store: bool
    ) -> np.ndarray:
        buf = self._buffers[name]
        idx = np.asarray(idx, dtype=np.int64)
        if mask is None:
            active = idx
        else:
            active = idx[np.asarray(mask, dtype=bool)]
        stats = self.stats.global_store if store else self.stats.global_load
        stats.instructions += 1
        if active.size == 0:
            return active
        if np.any(active < 0) or np.any(active >= buf.size):
            raise IndexError(f"out-of-bounds access to device buffer {name!r}")
        addrs = self._bases[name] + active * buf.itemsize
        sectors = np.unique(addrs // SECTOR)
        stats.transactions += sectors.size
        # Useful bytes: distinct addresses only, so a broadcast counts its
        # 4 bytes once (this is the numerator of our gld_efficiency).
        stats.requested_bytes += int(np.unique(active).size) * buf.itemsize
        if not store:
            self.stats.traffic(name).sectors += sectors.size
            # L1 filter (Turing): count only sectors not recently seen.
            misses = sectors.size
            if self._l1:
                misses = 0
                for s in sectors.tolist():
                    self._clock += 1
                    last = self._l1_recent.get(s)
                    if last is None or self._clock - last > self._l1_window:
                        misses += 1
                    self._l1_recent[s] = self._clock
            stats.l1_filtered_transactions += misses
        return active

    # ------------------------------------------------------------------
    def load(self, name: str, idx: np.ndarray, mask: Optional[np.ndarray] = None) -> np.ndarray:
        """Warp global load: returns values for *active* lanes in lane order."""
        active = self._account(name, idx, mask, store=False)
        return self._buffers[name][active]

    def store(
        self,
        name: str,
        idx: np.ndarray,
        values: np.ndarray,
        mask: Optional[np.ndarray] = None,
    ) -> None:
        """Warp global store."""
        idx = np.asarray(idx, dtype=np.int64)
        values = np.asarray(values)
        if mask is not None:
            m = np.asarray(mask, dtype=bool)
            idx, values = idx[m], values[m]
        self._account(name, idx, None, store=True)
        self._buffers[name][idx] = values


class TraceSharedMemory:
    """Per-block shared memory with bank-conflict accounting."""

    def __init__(self, words: int, stats: KernelStats):
        self._mem = np.zeros(words, dtype=np.float64)
        self._stats = stats

    def store(self, idx: np.ndarray, values: np.ndarray, mask: Optional[np.ndarray] = None) -> None:
        idx = np.asarray(idx, dtype=np.int64)
        values = np.asarray(values)
        if mask is not None:
            m = np.asarray(mask, dtype=bool)
            idx, values = idx[m], values[m]
        self._stats.shared_store.instructions += 1
        self._stats.shared_store.transactions += bank_conflict_passes(idx)
        self._stats.shared_store.requested_bytes += int(np.unique(idx).size) * ELEM
        self._mem[idx] = values

    def load(self, idx: np.ndarray, mask: Optional[np.ndarray] = None) -> np.ndarray:
        idx = np.asarray(idx, dtype=np.int64)
        if mask is not None:
            idx = idx[np.asarray(mask, dtype=bool)]
        self._stats.shared_load.instructions += 1
        self._stats.shared_load.transactions += bank_conflict_passes(idx)
        self._stats.shared_load.requested_bytes += int(np.unique(idx).size) * ELEM
        return self._mem[idx]


# ----------------------------------------------------------------------
# SpMM per-warp loops
# ----------------------------------------------------------------------
def _simple_loop(kernel, a, gpu, semiring, mem, m, n):
    lanes = np.arange(32)
    for i in range(m):
        for seg in range(0, n, 32):
            j = seg + lanes
            active = j < n
            row_start = int(mem.load("rowptr", np.full(32, i))[0])
            row_end = int(mem.load("rowptr", np.full(32, i + 1))[0])
            acc = np.full(32, semiring.init, dtype=np.float64)
            for ptr in range(row_start, row_end):
                k = int(mem.load("colind", np.full(32, ptr))[0])
                v = float(mem.load("values", np.full(32, ptr))[0])
                bv = np.zeros(32)
                bv[active] = mem.load("B", k * n + j, mask=active)
                acc[active] = semiring.reduce_pair(
                    acc[active], semiring.combine(v, bv[active])
                )
            mem.store("C", i * n + j, acc.astype(np.float32), mask=active)


def _crc_loop(kernel, a, gpu, semiring, mem, m, n):
    if kernel.tile != 32:
        raise NotImplementedError("the loop oracle implements the paper's tile == warp_size")
    lanes = np.arange(32)
    # Two shared words per lane: sm_k at [0:32), sm_v at [32:64).
    for i in range(m):
        for seg in range(0, n, 32):
            j = seg + lanes
            active = j < n
            shared = TraceSharedMemory(64, mem.stats)
            row_start = int(mem.load("rowptr", np.full(32, i))[0])
            row_end = int(mem.load("rowptr", np.full(32, i + 1))[0])
            acc = np.full(32, semiring.init, dtype=np.float64)
            for ptr in range(row_start, row_end, _TILE):
                tile_len = min(_TILE, row_end - ptr)
                tile_mask = lanes < tile_len
                act = lanes[:tile_len]
                ks = mem.load("colind", ptr + lanes, mask=tile_mask)
                vs = mem.load("values", ptr + lanes, mask=tile_mask)
                shared.store(act, ks.astype(np.float64))
                shared.store(32 + act, vs.astype(np.float64))
                mem.stats.warp_syncs += 1
                for kk in range(tile_len):
                    k = int(shared.load(np.full(32, kk))[0])
                    v = float(shared.load(np.full(32, 32 + kk))[0])
                    bv = np.zeros(32)
                    bv[active] = mem.load("B", k * n + j, mask=active)
                    acc[active] = semiring.reduce_pair(
                        acc[active], semiring.combine(v, bv[active])
                    )
            mem.store("C", i * n + j, acc.astype(np.float32), mask=active)


def _cwm_loop(kernel, a, gpu, semiring, mem, m, n):
    cf = kernel.cf
    span = 32 * cf
    lanes = np.arange(32)
    for i in range(m):
        for seg in range(0, n, span):
            shared = TraceSharedMemory(64, mem.stats)
            row_start = int(mem.load("rowptr", np.full(32, i))[0])
            row_end = int(mem.load("rowptr", np.full(32, i + 1))[0])
            cols = [seg + 32 * c + lanes for c in range(cf)]
            masks = [col < n for col in cols]
            accs = [np.full(32, semiring.init, dtype=np.float64) for _ in range(cf)]
            for ptr in range(row_start, row_end, _TILE):
                tile_len = min(_TILE, row_end - ptr)
                tile_mask = lanes < tile_len
                act = lanes[:tile_len]
                ks = mem.load("colind", ptr + lanes, mask=tile_mask)
                vs = mem.load("values", ptr + lanes, mask=tile_mask)
                shared.store(act, ks.astype(np.float64))
                shared.store(32 + act, vs.astype(np.float64))
                mem.stats.warp_syncs += 1
                for kk in range(tile_len):
                    k = int(shared.load(np.full(32, kk))[0])
                    v = float(shared.load(np.full(32, 32 + kk))[0])
                    for c in range(cf):
                        if not masks[c].any():
                            # Fully-predicated segment: no request issued.
                            continue
                        bv = np.zeros(32)
                        bv[masks[c]] = mem.load("B", k * n + cols[c], mask=masks[c])
                        accs[c][masks[c]] = semiring.reduce_pair(
                            accs[c][masks[c]],
                            semiring.combine(v, bv[masks[c]]),
                        )
            for c in range(cf):
                if masks[c].any():
                    mem.store("C", i * n + cols[c], accs[c].astype(np.float32), mask=masks[c])


def _mergepath_loop(kernel, a, gpu, semiring, mem, m, n):
    """Accumulators are float64 and persist across segment boundaries —
    the carry RMW is charged as C traffic but idealized numerically, so
    the output equals the CSR-order left fold of each row bit-for-bit."""
    rowptr = a.rowptr64()
    nz_rows = a.coo_rows()
    sched = kernel._schedule(a, n, gpu)
    d, i, j = sched.part.d, sched.part.i, sched.part.j
    k_iters = sched.search_iters
    # Carry rows of a segment are at most its two boundary rows: the
    # first row (if split) and the end-boundary row (if the segment
    # holds at least one of its path items).
    carry1 = sched.split[i[:-1]]
    carry2 = (i[1:] > i[:-1]) & (j[1:] > rowptr[i[1:]])
    last_row = np.where(j[1:] > rowptr[i[1:]], i[1:], i[1:] - 1)
    lanes = np.arange(32)
    acc64 = np.full((m, n), semiring.init, dtype=np.float64)
    for s in range(sched.n_segments):
        for cs0 in range(0, n, 32):
            jj = cs0 + lanes
            active = jj < n
            for bound in (int(d[s]), int(d[s + 1])):
                probes, _ = _search_probes(rowptr, np.array([bound], dtype=np.int64))
                for k in range(k_iters):
                    mem.load("rowptr", np.full(32, probes[k, 0]))
            if carry1[s]:
                mem.load("C", int(i[s]) * n + jj, mask=active)
            if carry2[s]:
                mem.load("C", int(i[s + 1]) * n + jj, mask=active)
            lo_nz, hi_nz = int(j[s]), int(j[s + 1])
            for ptr in range(lo_nz, hi_nz, _CHUNK):
                chunk_len = min(_CHUNK, hi_nz - ptr)
                chunk_mask = lanes < chunk_len
                ks = mem.load("colind", ptr + lanes, mask=chunk_mask)
                vs = mem.load("values", ptr + lanes, mask=chunk_mask)
                for e in range(chunk_len):
                    r = int(nz_rows[ptr + e])
                    v = float(vs[e])
                    bv = np.zeros(32)
                    bv[active] = mem.load("B", int(ks[e]) * n + jj, mask=active)
                    acc64[r, jj[active]] = semiring.reduce_pair(
                        acc64[r, jj[active]], semiring.combine(v, bv[active])
                    )
            for r in range(int(i[s]), int(last_row[s]) + 1):
                out = np.zeros(32, dtype=np.float32)
                out[active] = acc64[r, jj[active]].astype(np.float32)
                mem.store("C", r * n + jj, out, mask=active)


_SPMM_LOOPS = {
    SimpleSpMM: _simple_loop,
    CRCSpMM: _crc_loop,
    CWMSpMM: _cwm_loop,
    MergePathSpMM: _mergepath_loop,
}


def spmm_trace_loop(kernel, a, b, gpu, semiring=PLUS_TIMES, bias=None):
    """Per-warp replay of ``kernel`` computing ``a @ b`` under ``semiring``.

    Returns ``(C, KernelStats)``.  ``GESpMM``
    replays the kernel its dispatch selects for ``b``'s width;
    ``FusedGESpMM`` replays its inner kernel, then one warp-wide load of
    ``bias[0:N]`` per block and the epilogue.
    """
    if isinstance(kernel, FusedGESpMM):
        return _fused_loop(kernel, a, b, gpu, semiring, bias)
    if isinstance(kernel, GESpMM):
        kernel = kernel.select(b.shape[1])
    loop = _SPMM_LOOPS[type(kernel)]
    kernel.check_semiring(semiring)
    b = np.ascontiguousarray(b, dtype=np.float32)
    m, n = a.nrows, b.shape[1]
    mem = TraceMemory(l1_caches_global=gpu.l1_caches_global)
    mem.register("rowptr", a.rowptr)
    mem.register("colind", a.colind)
    mem.register("values", a.values)
    mem.register("B", b.ravel())
    mem.register("C", np.full(m * n, semiring.init, dtype=np.float32))
    loop(kernel, a, gpu, semiring, mem, m, n)
    c = mem.buffer("C").reshape(m, n)
    lengths = a.row_lengths()
    return semiring.finalize(c.astype(np.float64), lengths).astype(np.float32), mem.stats


def _fused_loop(kernel, a, b, gpu, semiring, bias):
    c, stats = spmm_trace_loop(kernel._inner, a, b, gpu, semiring)
    n = int(b.shape[1])
    if kernel.epilogue.uses_bias:
        if bias is None:
            raise ValueError(f"epilogue {kernel.epilogue.name!r} requires a bias vector")
        if bias.shape != (n,):
            raise ValueError("bias length must equal the output width")
        _, launch, _ = kernel._inner.count(a, n, gpu)
        mem = TraceMemory(l1_caches_global=gpu.l1_caches_global)
        mem.register("bias", np.asarray(bias, dtype=np.float32))
        idx = np.arange(n)
        for _ in range(launch.blocks):
            mem.load("bias", idx)
        stats.merge(mem.stats)
    return kernel.epilogue.fn(c, bias).astype(np.float32), stats


# ----------------------------------------------------------------------
# SDDMM per-warp loop
# ----------------------------------------------------------------------
def sddmm_trace_xy_loop(kernel, mask, x, y, gpu):
    """Per-warp replay of the SDDMM ``kernel`` over ``mask``, ``x`` and
    ``y``; returns ``(E, KernelStats)``."""
    x = np.ascontiguousarray(x, dtype=VALUE_DTYPE)
    y = np.ascontiguousarray(y, dtype=VALUE_DTYPE)
    if x.shape[0] != mask.nrows or y.shape[0] != mask.ncols or x.shape[1] != y.shape[1]:
        raise ValueError(
            f"SDDMM shapes inconsistent: mask {mask.shape}, X {x.shape}, Y {y.shape}"
        )
    n = x.shape[1]
    mem = TraceMemory(l1_caches_global=gpu.l1_caches_global)
    mem.register("colind", mask.colind)
    mem.register("values", mask.values)
    mem.register("X", x.ravel())
    mem.register("Y", y.ravel())
    mem.register("E", np.zeros(mask.nnz, dtype=VALUE_DTYPE))
    segs = dense_segments(n)
    lanes = np.arange(32)
    rowptr = mask.rowptr  # row offsets arrive via launch metadata
    for i in range(mask.nrows):
        row_start, row_end = int(rowptr[i]), int(rowptr[i + 1])
        if row_end == row_start:
            continue
        xrow = np.zeros(n, dtype=np.float64)
        for start, length in segs:
            seg_mask = lanes < length
            xrow[start:start + length] = mem.load(
                "X", i * n + start + lanes, mask=seg_mask
            )
        for ptr in range(row_start, row_end, 32):
            tile_len = min(32, row_end - ptr)
            tile_mask = lanes < tile_len
            ks = mem.load("colind", ptr + lanes, mask=tile_mask)
            vs = mem.load("values", ptr + lanes, mask=tile_mask)
            dots = np.zeros(tile_len)
            for t in range(tile_len):
                k = int(ks[t])
                acc = 0.0
                for start, length in segs:
                    seg_mask = lanes < length
                    yseg = mem.load("Y", k * n + start + lanes, mask=seg_mask)
                    acc += float(np.dot(xrow[start:start + length], yseg))
                dots[t] = acc
            out_vals = np.zeros(32)
            out_vals[:tile_len] = vs.astype(np.float64) * dots
            mem.store("E", ptr + lanes, out_vals, mask=tile_mask)
    evals = mem.buffer("E").astype(VALUE_DTYPE)
    return mask.with_values(evals), mem.stats
