"""Segmented-reduction host execution engine.

Yang et al.'s *Design Principles for Sparse Matrix Multiplication on the
GPU* frames row-split SpMM as gather + segmented reduce; this module
brings the same structure to the host executor: contributions are
gathered and reduced per CSR row with a single ``ufunc.reduceat`` call.
It is the one host path for every built-in reduction —
``reference_spmm_like``, ``CSRMatrix.row_normalized`` /
``sym_normalized``, and ``gnn.aggregate`` all route through here.  The
parity references it is tested against live in ``tests/references.py``.

Empty rows never reach ``reduceat`` (whose semantics for empty segments
are not a reduction): the output is pre-filled with the semiring
identity and only non-empty rows are overwritten, so identities are
exact by construction.

Column tiling (the host analogue of GE-SpMM's coarse-grained warp
merging, which reuses each loaded sparse row across feature tiles): the
dense operand is split into column tiles of width ``T``, and each tile
is gathered, combined and reduced inside a preallocated ``(nnz, T)``
workspace drawn from a per-process pool, so peak transient memory is
O(nnz·T) instead of O(nnz·N) and the working set stays cache-resident on
wide operands.  ``T`` adapts from a fixed LLC budget
(:func:`tile_width_for`); the per-call ``tile_width=`` argument forces
it.  Tiles never split a row's reduction, so the output is
**bit-identical** for every tile width and every reduction.
``segment_spmm_like_multi`` runs K same-graph operands through one
traversal sharing the pooled workspace and cached gather indices, and
``segment_max_with_argmax`` resolves the first maximizer of each tile
while its contributions are still in the workspace.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.semiring import MAX_TIMES, Semiring
from repro.sparse.csr import CSRMatrix, VALUE_DTYPE

__all__ = [
    "segment_reduce",
    "segment_spmm_like",
    "segment_spmm_like_multi",
    "segment_max_with_argmax",
    "reduce_ufunc",
    "tile_width_for",
    "clear_workspace_pool",
    "workspace_stats",
]

#: Assumed last-level-cache size for the adaptive tile width.  The
#: workspace budget is a quarter of it: the gather workspace shares the
#: LLC with the dense-operand tile, the reduction output, and whatever
#: else the process keeps warm.  Deliberately a fixed constant (not
#: probed) so tile choices are reproducible across hosts.
_LLC_BYTES = 32 * 1024 * 1024
_WORKSPACE_BUDGET = _LLC_BYTES // 4

#: Position of "no maximizer" in the argmax reduction: above every
#: nonzero index, so ``minimum.reduceat`` keeps any real hit; mapped to -1.
_NO_WINNER = np.iinfo(np.int32).max


def tile_width_for(nnz: int, n: int) -> int:
    """Adaptive tile width for an ``(nnz, n)`` contributions matrix.

    The largest multiple of 8 whose ``(nnz, T)`` float32 workspace fits
    the LLC budget, floored at 8 and capped at ``n``.  Multiples of 8
    keep every tile's first column on a 32-byte (eight-float32) boundary
    of the operand row.
    """
    if nnz <= 0 or n <= 0:
        return max(n, 1)
    t = _WORKSPACE_BUDGET // (4 * nnz)
    if t >= n:
        return n
    return min(n, max(8, (t // 8) * 8))


class _WorkspacePool:
    """Per-process pool of flat float32 scratch buffers.

    The tiled executor draws its ``(nnz, T)`` gather workspace, the
    ``(K, T)`` operand-tile buffer and the argmax position buffer from
    here, so steady-state SpMM calls allocate nothing:
    ``segment.workspace.reuses`` counts pool hits, ``.allocs`` fresh
    buffers, and the ``segment.workspace.bytes_peak`` gauge tracks the
    high-water mark of pool-owned bytes.  Thread-safe (sweep workers
    share the process pool); the free list is capped so a one-off giant
    operand cannot pin memory forever.
    """

    _MAX_FREE = 4

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._free: List[np.ndarray] = []
        self._owned_bytes = 0
        self._peak_bytes = 0

    def acquire(self, n_elems: int) -> np.ndarray:
        n_elems = int(n_elems)
        reg = obs.get_registry()
        with self._lock:
            best = -1
            for i, buf in enumerate(self._free):
                if buf.size >= n_elems and (best < 0 or buf.size < self._free[best].size):
                    best = i
            if best >= 0:
                buf = self._free.pop(best)
                reg.counter("segment.workspace.reuses").inc()
                return buf
        buf = np.empty(n_elems, dtype=VALUE_DTYPE)
        with self._lock:
            self._owned_bytes += buf.nbytes
            self._peak_bytes = max(self._peak_bytes, self._owned_bytes)
            peak = self._peak_bytes
        reg.counter("segment.workspace.allocs").inc()
        reg.gauge("segment.workspace.bytes_peak").set(peak)
        return buf

    def release(self, buf: np.ndarray) -> None:
        with self._lock:
            if len(self._free) < self._MAX_FREE:
                self._free.append(buf)
                return
            # Full: keep the larger buffers, drop the smallest.
            smallest = min(range(len(self._free)), key=lambda i: self._free[i].size)
            if self._free[smallest].size < buf.size:
                self._owned_bytes -= self._free[smallest].nbytes
                self._free[smallest] = buf
            else:
                self._owned_bytes -= buf.nbytes

    def clear(self) -> int:
        with self._lock:
            dropped = len(self._free)
            for buf in self._free:
                self._owned_bytes -= buf.nbytes
            self._free.clear()
        return dropped

    def stats(self) -> dict:
        with self._lock:
            return {
                "free_buffers": len(self._free),
                "owned_bytes": self._owned_bytes,
                "peak_bytes": self._peak_bytes,
            }


_POOL = _WorkspacePool()


def clear_workspace_pool() -> int:
    """Drop the pool's free buffers (memory-bench isolation, shard
    boundaries); returns the number dropped."""
    return _POOL.clear()


def workspace_stats() -> dict:
    """Current pool occupancy: free buffer count, owned and peak bytes."""
    return _POOL.stats()


@contextmanager
def _pooled(*sizes: int) -> Iterator[List[Optional[np.ndarray]]]:
    """Flat float32 pool buffers of the given element counts for one
    traversal (None for a size of 0), released on exit."""
    bufs = [_POOL.acquire(size) if size else None for size in sizes]
    try:
        yield bufs
    finally:
        for buf in reversed(bufs):
            if buf is not None:
                _POOL.release(buf)


#: semiring ``reduce`` callable -> the ufunc whose ``reduceat``
#: implements it.  Semirings outside this map (user-defined reductions)
#: run through ``reference_spmm_like``'s per-row loop instead.
_REDUCE_UFUNCS = {
    np.add.reduce: np.add,
    np.maximum.reduce: np.maximum,
    np.minimum.reduce: np.minimum,
}


def reduce_ufunc(semiring: Semiring) -> Optional[np.ufunc]:
    """The ufunc implementing ``semiring.reduce``, or None if unknown."""
    return _REDUCE_UFUNCS.get(semiring.reduce)


def segment_reduce(
    contributions: np.ndarray,
    rowptr: np.ndarray,
    ufunc: np.ufunc,
    init: float,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Reduce ``contributions`` per CSR row with one ``ufunc.reduceat``.

    ``contributions`` is ``(nnz, ...)`` in row-major CSR order; row ``i``
    owns the slice ``rowptr[i]:rowptr[i+1]``.  Rows with no elements
    yield ``init`` exactly: only the non-empty rows' segment starts are
    passed to ``reduceat`` (consecutive non-empty starts then delimit
    exactly one row each), and the pre-filled output is left untouched
    elsewhere.
    """
    rowptr = np.asarray(rowptr, dtype=np.int64)
    contributions = np.asarray(contributions)
    m = rowptr.shape[0] - 1
    if out is None:
        out = np.full((m,) + contributions.shape[1:], init, dtype=contributions.dtype)
    obs.get_registry().counter("segment.reduce_calls", op=ufunc.__name__).inc()
    if m == 0 or contributions.shape[0] == 0:
        return out
    starts = rowptr[:-1]
    nonempty = rowptr[1:] > starts
    if nonempty.any():
        out[nonempty] = ufunc.reduceat(contributions, starts[nonempty], axis=0)
    return out


def _check_dense(a: CSRMatrix, b: np.ndarray) -> np.ndarray:
    b = np.ascontiguousarray(b, dtype=VALUE_DTYPE)
    if b.ndim != 2 or b.shape[0] != a.ncols:
        raise ValueError(f"dense operand shape {b.shape} incompatible with {a.shape}")
    return b


def _require_ufunc(semiring: Semiring) -> np.ufunc:
    ufunc = reduce_ufunc(semiring)
    if ufunc is None:
        raise NotImplementedError(
            f"semiring {semiring.name!r} has no reduceat-capable reduction; "
            "use reference_spmm_like"
        )
    return ufunc


def _prepare_out(
    a: CSRMatrix, n: int, init: float, out: Optional[np.ndarray]
) -> np.ndarray:
    if out is None:
        return np.full((a.nrows, n), init, dtype=VALUE_DTYPE)
    if out.shape != (a.nrows, n) or out.dtype != VALUE_DTYPE:
        raise ValueError(
            f"out buffer must be float32[{a.nrows}, {n}], "
            f"got {out.dtype}[{out.shape}]"
        )
    out.fill(init)
    return out


def _nonempty_starts(a: CSRMatrix) -> Tuple[np.ndarray, np.ndarray]:
    """(nonempty-row mask, their segment starts) — the shared traversal
    state every tile of every operand reuses."""
    rowptr = a.rowptr64()
    starts = rowptr[:-1]
    nonempty = rowptr[1:] > starts
    return nonempty, starts[nonempty]


def _run_tiled(
    a: CSRMatrix,
    bs: Sequence[np.ndarray],
    semiring: Semiring,
    ufunc: np.ufunc,
    outs: Sequence[np.ndarray],
    tile_width: Optional[int],
    on_tile: Optional[Callable[[int, np.ndarray, np.ndarray], None]] = None,
) -> None:
    """Tiled gather + combine + reduceat of every operand into its output.

    All operands share the gather indices, the nonempty-row segment
    starts, and one pooled workspace acquisition sized for the widest
    operand: the ``(nnz, T)`` gather workspace plus, when ``T`` is
    narrower than an operand, a contiguous ``(ncols, T)`` copy of its
    column tile (a full-width tile gathers straight from the operand).
    ``on_tile(first_column, contributions, out_slice)`` runs after each
    tile's reduction, while the tile's ``(nnz, w)`` contributions are
    still in the workspace.
    """
    nnz = a.nnz
    n_max = max(b.shape[1] for b in bs)
    if not (nnz and n_max):
        return
    tile_max = (
        tile_width_for(nnz, n_max)
        if tile_width is None
        else max(1, min(int(tile_width), n_max))
    )
    nonempty, ne_starts = _nonempty_starts(a)
    idx = a.colind64()
    vals = a.values[:, None]
    reg = obs.get_registry()
    op = ufunc.__name__
    with _pooled(nnz * tile_max, a.ncols * tile_max if tile_max < n_max else 0) as (ws, bt):
        for b, out in zip(bs, outs):
            n = b.shape[1]
            if not n:
                continue
            reg.counter("segment.reduce_calls", op=op).inc()
            tile = min(tile_max, n)
            for lo in range(0, n, tile):
                w = min(tile, n - lo)
                if tile == n:
                    src = b
                else:
                    src = bt[: a.ncols * w].reshape(a.ncols, w)
                    np.copyto(src, b[:, lo : lo + w])
                wsv = ws[: nnz * w].reshape(nnz, w)
                # mode="clip" keeps np.take unbuffered (indices are
                # validated at construction, so clipping never fires).
                np.take(src, idx, axis=0, out=wsv, mode="clip")
                semiring.combine_into(vals, wsv, wsv)
                out_slice = out[:, lo : lo + w]
                out_slice[nonempty] = ufunc.reduceat(wsv, ne_starts, axis=0)
                if on_tile is not None:
                    on_tile(lo, wsv, out_slice)
                reg.counter("segment.tiles", op=op).inc()


def segment_spmm_like(
    a: CSRMatrix,
    b: np.ndarray,
    semiring: Semiring,
    out: Optional[np.ndarray] = None,
    tile_width: Optional[int] = None,
) -> np.ndarray:
    """SpMM-like execution as a column-tiled gather + segmented reduce.

    Peak transient memory is O(nnz·T); ``tile_width`` forces ``T`` for
    this call (the result does not depend on it).  ``out`` (a float32
    ``(M, N)`` buffer) lets callers reuse output storage across calls —
    the serving layer's steady state.

    Requires a semiring whose ``reduce`` maps to a ufunc
    (:func:`reduce_ufunc`); ``reference_spmm_like`` also runs
    user-defined reductions.
    """
    ufunc = _require_ufunc(semiring)
    b = _check_dense(a, b)
    out = _prepare_out(a, b.shape[1], semiring.init, out)
    _run_tiled(a, [b], semiring, ufunc, [out], tile_width)
    return semiring.finalize_into(out, a.row_lengths())


def segment_spmm_like_multi(
    a: CSRMatrix,
    bs: Sequence[np.ndarray],
    semiring: Semiring,
    outs: Optional[Sequence[Optional[np.ndarray]]] = None,
    tile_width: Optional[int] = None,
) -> List[np.ndarray]:
    """K same-graph SpMM-like executions through one shared traversal.

    The feature-width-batching primitive for multi-tenant serving: all
    operands share the cached gather indices, the nonempty-row segment
    starts, and **one** pooled workspace acquisition (the tile loop
    reuses the same buffers operand after operand), so coalescing K
    requests costs one gather's worth of ``segment.workspace.allocs``
    instead of K.  Operand widths may differ.  Each output is
    byte-identical to the corresponding ``segment_spmm_like`` call.
    """
    ufunc = _require_ufunc(semiring)
    bs = [_check_dense(a, b) for b in bs]
    if outs is None:
        outs = [None] * len(bs)
    if len(outs) != len(bs):
        raise ValueError(f"{len(bs)} operands but {len(outs)} output buffers")
    results = [
        _prepare_out(a, b.shape[1], semiring.init, o) for b, o in zip(bs, outs)
    ]
    if not bs:
        return results
    obs.get_registry().counter("segment.multi_calls", operands=len(bs)).inc()
    _run_tiled(a, bs, semiring, ufunc, results, tile_width)
    for out in results:
        semiring.finalize_into(out, a.row_lengths())
    return results


def segment_max_with_argmax(
    a: CSRMatrix, b: np.ndarray, tile_width: Optional[int] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Max-times forward and its argmax in one tiled traversal.

    Returns ``(out, argmax)``: ``out`` is the raw max-times output
    (empty rows hold ``-inf``) and ``argmax`` the ``int32[M, N]``
    position in ``a.values``/``a.colind`` of the *first* nonzero that
    attains each cell's maximum (PyTorch ``scatter_max`` semantics).
    Empty rows and cells whose maximum is NaN hold ``-1`` (NaN compares
    unequal to itself, so nothing matches); consumers mask with
    ``argmax >= 0``.

    The argmax is one more segmented reduction per column tile, with no
    sort or scan: while the tile's contributions are in the workspace,
    each nonzero that equals its row's maximum writes its own position
    into an int32 buffer (every other slot holds a sentinel above any
    position), and ``minimum.reduceat`` over the same segment starts
    picks the lowest.  The position buffer is an int32 view of a pooled
    float32 buffer, and it first holds the row maxima gathered for the
    comparison.  The full ``(nnz, N)`` contributions array is never
    materialized, and ``tile_width`` does not change the result.
    """
    b = _check_dense(a, b)
    m, n = a.nrows, b.shape[1]
    out = np.full((m, n), MAX_TIMES.init, dtype=VALUE_DTYPE)
    argmax = np.full((m, n), -1, dtype=np.int32)
    if not (a.nnz and n):
        return out, argmax
    nnz = a.nnz
    tile = tile_width_for(nnz, n) if tile_width is None else max(1, min(int(tile_width), n))
    nonempty, ne_starts = _nonempty_starts(a)
    rows = a.coo_rows()
    positions = np.arange(nnz, dtype=np.int32)[:, None]

    with _pooled(nnz * tile) as (scratch,):

        def first_maximizer(lo: int, wsv: np.ndarray, out_slice: np.ndarray) -> None:
            w = wsv.shape[1]
            row_max = scratch[: nnz * w].reshape(nnz, w)
            np.take(out_slice, rows, axis=0, out=row_max, mode="clip")
            hits = wsv == row_max
            pos = row_max.view(np.int32)
            pos.fill(_NO_WINNER)
            np.copyto(pos, positions, where=hits)
            first = np.minimum.reduceat(pos, ne_starts, axis=0)
            first[first == _NO_WINNER] = -1
            argmax[nonempty, lo : lo + w] = first

        _run_tiled(a, [b], MAX_TIMES, np.maximum, [out], tile, first_maximizer)
    return out, argmax
