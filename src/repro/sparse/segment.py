"""Segmented-reduction host execution engine.

This module is the one host path for every built-in reduction
(``reference_spmm_like``, ``CSRMatrix.row_normalized``/``sym_normalized``
and ``gnn.aggregate``; the parity references live in
``tests/references.py``).  Each SpMM-like call takes one of two paths,
chosen by its semiring:

* **Plus-times and mean-times** (the shared multiply with an ``np.add``
  reduce) run **one pass per CSR row**, the host form of GE-SpMM's
  coarse-grained row caching: each nonzero is read once and its scaled
  operand row is added into the whole output row.  The rows go through
  in chunks of a fixed output byte budget (``_ROW_CHUNK_BYTES``); each
  chunk wraps its slices of the CSR arrays as a
  ``scipy.sparse.csr_matrix`` and writes ``chunk @ b`` into its output
  rows, so transient memory is O(budget) whatever the width.  Every row
  is summed sequentially in CSR order in float32, so the output is
  **bit-identical** to a sequential accumulation
  (``tests/references.py::scatter_spmm_like``) and to
  ``a.to_scipy() @ b``.  Mean-times then scales each row by its length.
* **Max and min** (with ``segment_max_with_argmax``'s first-maximizer
  argmax), and user semirings with an add/max/min reduce and their own
  combine, run a **column-tiled sliced reduce**.

Yang et al.'s *Design Principles for Sparse Matrix Multiplication on the
GPU* frame row-split SpMM as gather + segmented reduce and name short
segments as its weak spot: a row-by-row reduce costs one dispatch per
(row, column), over 4-5 nonzeros on the citation graphs.  The sliced
reduce avoids that over the ``slice_plan`` derived artifact of a
``CSRMatrix``, a jagged-diagonal layout: the nonempty rows sorted by
length, longest first, with block ``k`` holding the ``k``-th nonzero of
every row longer than ``k``.  Block 0 is the accumulator; each further
block, taken while at least ``_SLICE_MIN_ROWS`` rows remain, folds in
with one in-place ``ufunc(acc[:c_k], block_k)``.  The few heavy rows
left keep the rest of their nonzeros in CSR order (their tails): one
``ufunc.reduceat`` and one combine, however long the hubs.  Results
scatter back to the output rows, and empty rows keep the pre-filled
identity exactly.  Max and min are exact in any order.

Column tiling (the host analogue of GE-SpMM's coarse-grained warp
merging): each column tile of width ``T`` is gathered, combined and
reduced inside a pooled ``(nnz, T)`` workspace, so peak transient memory
is O(nnz·T).  ``T`` adapts from a fixed LLC budget
(:func:`tile_width_for`); ``tile_width=`` forces it and is ignored on the
plus-times path.  Every column is reduced in the same order whatever the
tiling, so max/min output is **bit-identical** for every tile width.
``segment_spmm_like_multi`` runs K same-graph operands through one
traversal, and ``segment_max_with_argmax`` tracks first maximizers in
the same loop.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator, List, NamedTuple, Optional, Sequence, Tuple

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

#: Fewest rows a jagged-diagonal block may hold (``R`` in the module
#: docstring): longer rows keep their remaining nonzeros as CSR-order
#: tails.  16, 32 and 64 time within 15% of each other on the cora and
#: pubmed twins and on a 20k-row power-law graph.
_SLICE_MIN_ROWS = 32

#: In-row index of "no maximizer" in a tail's argmax reduction: above
#: every index, so ``minimum.reduceat`` keeps any real hit.
_NO_WINNER = np.iinfo(np.int32).max

#: Output bytes of one row chunk on the plus-times path: the most a
#: chunk's ``chunk @ b`` product holds before it is copied into ``out``.
_ROW_CHUNK_BYTES = 1 << 20


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
    ``(K, T)`` operand-tile buffer and the argmax winner buffers from
    here, so steady-state tiled calls allocate nothing (the plus-times
    row pass uses no pool buffer):
    ``segment.workspace.reuses`` counts pool hits, ``.allocs`` fresh
    buffers, and the ``segment.workspace.bytes_peak`` gauge tracks the
    high-water mark of pool-owned bytes.  ``repro`` itself starts no
    threads; the lock is there for embedding callers that run SpMM from
    their own threads (the ``repro.obs`` tracer and registry it reports
    to are process-global and not thread-safe).  The free list is capped
    so a one-off giant operand cannot pin memory forever.
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


class _SlicePlan(NamedTuple):
    """A matrix's jagged-diagonal layout (see the module docstring)."""

    rows: np.ndarray  # intp[r]: the nonempty rows, longest first
    blocks: Tuple[int, ...]  # rows per block, non-increasing; blocks[0] == r
    tail_starts: np.ndarray  # intp[h]: reduceat starts of the first h rows' tails
    cols: np.ndarray  # int32[nnz]: column indices in gather order
    vals: np.ndarray  # float32[nnz]: values in gather order


def _slice_layout(rowptr: np.ndarray):
    """``(rows, blocks, tail_starts, order)`` of the jagged-diagonal
    layout, where ``order`` (int32) lists the CSR position of every
    nonzero in gather order.  One stable argsort over the rows, then
    O(nnz) int32 work."""
    lengths = np.diff(rowptr)
    r = int(np.count_nonzero(lengths))
    rows = np.argsort(-lengths, kind="stable")[:r]
    # longer[k]: how many rows are longer than k.
    longer = r - np.cumsum(np.bincount(lengths[rows], minlength=2))
    n_blocks = 1 + int(np.count_nonzero(longer[1:] >= _SLICE_MIN_ROWS))
    blocks = tuple(longer[:n_blocks].tolist())
    h = int(longer[n_blocks])
    starts = rowptr[rows].astype(np.int32)
    order = np.empty(int(rowptr[-1]), dtype=np.int32)
    off = 0
    for k, c in enumerate(blocks):
        np.add(starts[:c], k, out=order[off : off + c])
        off += c
    tail_lens = lengths[rows[:h]] - n_blocks
    tail_starts = (np.cumsum(tail_lens) - tail_lens).astype(np.intp)
    order[off:] = np.arange(order.size - off, dtype=np.int32) + np.repeat(
        starts[:h] + n_blocks - tail_starts, tail_lens
    )
    return rows, blocks, tail_starts, order


def _slice_plan(a: CSRMatrix) -> _SlicePlan:
    """``a``'s cached ``slice_plan``: the layout with the column indices
    and values permuted into gather order (the order itself is dropped)."""

    def build() -> _SlicePlan:
        rows, blocks, tail_starts, order = _slice_layout(a.rowptr)
        return _SlicePlan(rows, blocks, tail_starts, a.colind[order], a.values[order])

    return a._cached("slice_plan", build)


def _sliced_reduce(
    blocks: Sequence[int],
    tail_starts: np.ndarray,
    contrib: np.ndarray,
    ufunc: np.ufunc,
    track: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None,
) -> np.ndarray:
    """Reduce ``contrib`` (``(nnz, ...)`` in gather order) in place into
    its first ``blocks[0]`` rows and return them.

    ``track = (winner, step, compare)`` adds the argmax of a
    ``np.maximum`` reduce: ``winner`` (zeros, unsigned ``(r, w)``, wide
    enough for any in-row index) receives each cell's first maximizer,
    ``step`` is scratch of its shape, and ``compare`` a flat bool buffer
    of ``max(r, tail nonzeros) * w``.  A strict ``>`` keeps the earlier
    nonzero on ties; NaN cells are the caller's to mask.
    """
    winner, step, compare = track or (None, None, None)
    acc = contrib[: blocks[0]]
    off = blocks[0]
    for k, c in enumerate(blocks[1:], 1):
        block = contrib[off : off + c]
        if track:
            gt = compare[: block.size].reshape(block.shape)
            np.greater(block, acc[:c], out=gt)
            # winner < k so far, so this sets k exactly where block k wins.
            np.multiply(gt, winner.dtype.type(k), out=step[:c])
            np.maximum(winner[:c], step[:c], out=winner[:c])
        ufunc(acc[:c], block, out=acc[:c])
        off += c
    h = tail_starts.size
    if h:
        tails = contrib[off:]
        reduced = ufunc.reduceat(tails, tail_starts, axis=0)
        if track:
            # Each tail's first maximizer, with no sort or scan: every hit
            # writes its in-row index into an int32 view of the (now dead)
            # tails, every other slot a sentinel above any index, and
            # minimum.reduceat picks the lowest.
            lens = np.diff(tail_starts, append=len(tails))
            hits = compare[: tails.size].reshape(tails.shape)
            np.equal(tails, np.repeat(reduced, lens, axis=0), out=hits)
            in_row = np.arange(len(tails)) + np.repeat(len(blocks) - tail_starts, lens)
            pos = tails.view(np.int32)
            pos.fill(_NO_WINNER)
            np.copyto(pos, in_row[:, None], where=hits, casting="unsafe")
            first = np.minimum.reduceat(pos, tail_starts, axis=0)
            gt = compare[: reduced.size].reshape(reduced.shape)
            np.greater(reduced, acc[:h], out=gt)
            np.copyto(winner[:h], first, where=gt, casting="unsafe")
        ufunc(acc[:h], reduced, out=acc[:h])
    return acc


def segment_reduce(
    contributions: np.ndarray,
    rowptr: np.ndarray,
    ufunc: np.ufunc,
    init: float,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Reduce ``contributions`` (``(nnz, ...)`` in CSR order) per row of
    ``rowptr`` with the sliced reduce; empty rows yield ``init`` exactly.
    The layout is built per call (SpMM paths cache theirs as the
    ``slice_plan`` of their ``CSRMatrix``)."""
    rowptr = np.asarray(rowptr, dtype=np.int64)
    contributions = np.asarray(contributions)
    m = rowptr.shape[0] - 1
    if out is None:
        out = np.full((m,) + contributions.shape[1:], init, dtype=contributions.dtype)
    obs.get_registry().counter("segment.reduce_calls", op=ufunc.__name__).inc()
    if m == 0 or contributions.shape[0] == 0:
        return out
    rows, blocks, tail_starts, order = _slice_layout(rowptr)
    out[rows] = _sliced_reduce(blocks, tail_starts, contributions[order], ufunc)
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
    a: CSRMatrix, n: int, init: Optional[float], out: Optional[np.ndarray]
) -> np.ndarray:
    """Validate or allocate a float32 ``(M, n)`` output, filled with
    ``init`` (left as is for None: the caller writes every cell)."""
    if out is None:
        if init is None:
            return np.empty((a.nrows, n), dtype=VALUE_DTYPE)
        return np.full((a.nrows, n), init, dtype=VALUE_DTYPE)
    if out.shape != (a.nrows, n) or out.dtype != VALUE_DTYPE:
        raise ValueError(
            f"out buffer must be float32[{a.nrows}, {n}], "
            f"got {out.dtype}[{out.shape}]"
        )
    if init is not None:
        out.fill(init)
    return out


def _run_row_chunks(
    a: CSRMatrix, bs: Sequence[np.ndarray], outs: Sequence[np.ndarray]
) -> None:
    """Plus-times SpMM of every operand into every row of its output,
    one pass per CSR row, in row chunks of ``_ROW_CHUNK_BYTES`` output.

    Each chunk wraps its slices of ``a.rowptr``/``a.colind``/``a.values``
    as a ``scipy.sparse.csr_matrix``, whose row loop adds each scaled
    operand row into the output row in CSR order.  Empty rows come out
    as 0.0.  SciPy copies a chunk's ``colind``/``values`` slices when
    they hold under half of the matrix's nonzeros: 8 bytes per nonzero,
    never O(nnz·N).
    """
    import scipy.sparse as sp  # lazy: most processes never run a host SpMM

    reg = obs.get_registry()
    for b, out in zip(bs, outs):
        n = b.shape[1]
        if not n:
            continue
        reg.counter("segment.reduce_calls", op="add").inc()
        step = max(1, _ROW_CHUNK_BYTES // (out.itemsize * n))
        for lo in range(0, a.nrows, step):
            hi = min(lo + step, a.nrows)
            p0, p1 = a.rowptr[lo], a.rowptr[hi]
            chunk = sp.csr_matrix(
                (a.values[p0:p1], a.colind[p0:p1], a.rowptr[lo : hi + 1] - p0),
                shape=(hi - lo, a.ncols),
            )
            out[lo:hi] = chunk @ b
            reg.counter("segment.tiles", op="add").inc()


def _run_tiled(
    a: CSRMatrix,
    bs: Sequence[np.ndarray],
    semiring: Semiring,
    ufunc: np.ufunc,
    outs: Sequence[np.ndarray],
    tile_width: Optional[int],
    argmax: Optional[np.ndarray] = None,
) -> None:
    """Tiled gather + combine + sliced reduce of every operand into its
    output (every semiring but plus-times and mean-times).

    All operands share the plan and one pooled workspace acquisition
    sized for the widest operand: the ``(nnz, T)`` gather workspace plus,
    when ``T`` is narrower than an operand, a contiguous ``(ncols, T)``
    copy of its column tile (a full-width tile gathers straight from the
    operand).  With ``argmax`` (one max-times operand) the reduce also
    tracks first maximizers into it; a third pooled buffer holds the
    winner and step arrays and the bool compare buffer.
    """
    nnz = a.nnz
    n_max = max(b.shape[1] for b in bs)
    if not (nnz and n_max):
        return
    tile_max = tile_width_for(nnz, n_max)
    if tile_width is not None:
        tile_max = max(1, min(int(tile_width), n_max))
    plan = _slice_plan(a)
    r = plan.blocks[0]
    scratch = 0
    if argmax is not None:
        index_dtype = np.min_scalar_type(int(a.row_lengths().max()) - 1)  # any in-row index
        span = r * tile_max * index_dtype.itemsize
        # A compare byte per cell of the head or of the tails.
        scratch = -(-(2 * span + max(r, nnz - sum(plan.blocks)) * tile_max) // 4)
        row_starts = a.rowptr[plan.rows][:, None]
    reg = obs.get_registry()
    op = ufunc.__name__
    with _pooled(
        nnz * tile_max, a.ncols * tile_max if tile_max < n_max else 0, scratch
    ) as (ws, bt, buf):
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
                np.take(src, plan.cols, axis=0, out=wsv, mode="clip")
                semiring.combine_into(plan.vals[:, None], wsv, wsv)
                track = None
                if argmax is not None:
                    raw = buf.view(np.uint8)
                    pair = raw[: 2 * r * w * index_dtype.itemsize].view(index_dtype)
                    winner, step = pair.reshape(2, r, w)
                    winner.fill(0)
                    track = (winner, step, raw[2 * span :].view(np.bool_))
                acc = _sliced_reduce(plan.blocks, plan.tail_starts, wsv, ufunc, track)
                out[plan.rows, lo : lo + w] = acc
                if track:
                    pos = winner + row_starts
                    pos[np.isnan(acc)] = -1
                    argmax[plan.rows, lo : lo + w] = pos
                reg.counter("segment.tiles", op=op).inc()


def _execute(
    a: CSRMatrix,
    bs: Sequence[np.ndarray],
    semiring: Semiring,
    ufunc: np.ufunc,
    outs: Sequence[Optional[np.ndarray]],
    tile_width: Optional[int],
) -> List[np.ndarray]:
    """Run every operand into its output (None: allocate one) on the
    semiring's path, then apply the mean scaling."""
    row_pass = ufunc is np.add and semiring.multiplies
    init = None if row_pass else semiring.init
    results = [_prepare_out(a, b.shape[1], init, o) for b, o in zip(bs, outs)]
    if row_pass:
        _run_row_chunks(a, bs, results)
    else:
        _run_tiled(a, bs, semiring, ufunc, results, tile_width)
    for out in results:
        semiring.finalize_into(out, a.row_lengths())
    return results


def segment_spmm_like(
    a: CSRMatrix,
    b: np.ndarray,
    semiring: Semiring,
    out: Optional[np.ndarray] = None,
    tile_width: Optional[int] = None,
) -> np.ndarray:
    """SpMM-like execution: one pass per CSR row for plus-times and
    mean-times, a column-tiled gather + sliced reduce for the rest.

    Plus-times output is bit-identical to sequential CSR-order float32
    accumulation, and its transient memory is O(``_ROW_CHUNK_BYTES``).
    On the tiled path peak transient memory is O(nnz·T); ``tile_width``
    forces ``T`` there (the result does not depend on it) and is ignored
    on the plus-times path.  ``out`` (a float32 ``(M, N)`` buffer) lets
    callers reuse output storage across calls — the serving layer's
    steady state.

    Requires a semiring whose ``reduce`` maps to a ufunc
    (:func:`reduce_ufunc`); ``reference_spmm_like`` also runs
    user-defined reductions.
    """
    ufunc = _require_ufunc(semiring)
    b = _check_dense(a, b)
    return _execute(a, [b], semiring, ufunc, [out], tile_width)[0]


def segment_spmm_like_multi(
    a: CSRMatrix,
    bs: Sequence[np.ndarray],
    semiring: Semiring,
    outs: Optional[Sequence[Optional[np.ndarray]]] = None,
    tile_width: Optional[int] = None,
) -> List[np.ndarray]:
    """K same-graph SpMM-like executions through one shared traversal.

    The feature-width-batching primitive for multi-tenant serving.  On
    the tiled path all operands share the cached slice plan and **one**
    pooled workspace acquisition (the tile loop reuses the same buffers
    operand after operand), so coalescing K requests costs one gather's
    worth of ``segment.workspace.allocs`` instead of K; the plus-times
    path acquires no pool buffer at all.  Operand widths may differ.
    Each output is byte-identical to the corresponding
    ``segment_spmm_like`` call.
    """
    ufunc = _require_ufunc(semiring)
    bs = [_check_dense(a, b) for b in bs]
    if outs is None:
        outs = [None] * len(bs)
    if len(outs) != len(bs):
        raise ValueError(f"{len(bs)} operands but {len(outs)} output buffers")
    if not bs:
        return []
    obs.get_registry().counter("segment.multi_calls", operands=len(bs)).inc()
    return _execute(a, bs, semiring, ufunc, outs, tile_width)


def segment_max_with_argmax(
    a: CSRMatrix, b: np.ndarray, tile_width: Optional[int] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Max-times forward and its argmax in one tiled traversal.

    Returns ``(out, argmax)``: ``out`` is the raw max-times output
    (empty rows hold ``-inf``) and ``argmax`` the ``int32[M, N]``
    position in ``a.values``/``a.colind`` of the *first* nonzero that
    attains each cell's maximum (PyTorch ``scatter_max`` semantics).
    Empty rows and cells whose maximum is NaN hold ``-1`` (no winner;
    ``aggregate_max``'s backward indexes a sink entry with it).

    The argmax rides the sliced reduce: each block records its in-row
    index ``k`` where it is strictly greater than the accumulator, and the
    position is ``rowptr[row] + k``.  The winner and compare buffers come
    from the workspace pool, and ``tile_width`` does not change the result.
    """
    b = _check_dense(a, b)
    out = _prepare_out(a, b.shape[1], MAX_TIMES.init, None)
    argmax = np.full(out.shape, -1, dtype=np.int32)
    _run_tiled(a, [b], MAX_TIMES, np.maximum, [out], tile_width, argmax)
    return out, argmax
