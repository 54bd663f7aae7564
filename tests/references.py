"""Parity references for the host executor and the access counters.

One straightforward implementation per invariant the production code in
``src/`` must reproduce: the ``ufunc.at`` scatter SpMM and segment
reduction, the accumulating ``to_dense``, the per-row first-maximizer
argmax and the ``aggregate_max`` gradient it routes, and the
array-expansion access counters behind ``repro.core._counting``, and
the stable-argsort top-k behind the DLMC pruned generators.  They are
written for clarity, not speed, and nothing in ``src/`` calls them.
"""

from __future__ import annotations

import numpy as np

from repro.core.access_profile import ELEMS_PER_SECTOR, AccessTotals, dense_segments
from repro.gpusim.memory import segment_sectors
from repro.semiring import Semiring
from repro.sparse.csr import CSRMatrix, VALUE_DTYPE, csr_from_coo

_SCATTER_UFUNCS = {
    np.add.reduce: np.add,
    np.maximum.reduce: np.maximum,
    np.minimum.reduce: np.minimum,
}


# ----------------------------------------------------------------------
# Host executor
# ----------------------------------------------------------------------
def scatter_segment_reduce(contributions, rowptr, ufunc, init):
    """Per-row reduction of ``contributions`` by an ``ufunc.at`` scatter."""
    rowptr = np.asarray(rowptr, dtype=np.int64)
    contributions = np.asarray(contributions)
    m = rowptr.shape[0] - 1
    lengths = np.diff(rowptr)
    out = np.full((m,) + contributions.shape[1:], init, dtype=contributions.dtype)
    if m == 0 or contributions.shape[0] == 0:
        return out
    ufunc.at(out, np.repeat(np.arange(m), lengths), contributions)
    if ufunc is np.add and init != 0.0:
        # add.at accumulated on top of init for occupied rows.
        out[lengths == 0] = init
    return out


def scatter_spmm_like(a: CSRMatrix, b: np.ndarray, semiring: Semiring) -> np.ndarray:
    """SpMM-like under a built-in semiring by an ``ufunc.at`` scatter of
    every contribution into its output row (sequential accumulation)."""
    b = np.asarray(b, dtype=VALUE_DTYPE)
    out = np.full((a.nrows, b.shape[1]), semiring.init, dtype=VALUE_DTYPE)
    if a.nnz:
        contributions = semiring.combine(a.values[:, None], b[a.colind.astype(np.int64)])
        ufunc = _SCATTER_UFUNCS[semiring.reduce]
        ufunc.at(out, np.repeat(np.arange(a.nrows), np.diff(a.rowptr)), contributions)
    return semiring.finalize(out, np.diff(a.rowptr)).astype(VALUE_DTYPE)


def scatter_to_dense(a: CSRMatrix) -> np.ndarray:
    """Dense copy by accumulating every stored entry (COO semantics:
    duplicate ``(row, col)`` entries add up)."""
    out = np.zeros(a.shape, dtype=VALUE_DTYPE)
    rows = np.repeat(np.arange(a.nrows), np.diff(a.rowptr))
    np.add.at(out, (rows, a.colind.astype(np.int64)), a.values)
    return out


def per_row_argmax(a: CSRMatrix, contributions: np.ndarray) -> np.ndarray:
    """Position of the first nonzero attaining each cell's maximum;
    -1 for empty rows and cells whose maximum is NaN."""
    n = contributions.shape[1]
    want = np.full((a.nrows, n), -1, dtype=np.int32)
    for i in range(a.nrows):
        lo, hi = int(a.rowptr[i]), int(a.rowptr[i + 1])
        for j in range(n):
            col = contributions[lo:hi, j]
            if col.size == 0 or np.isnan(col.max()):
                continue
            want[i, j] = lo + int(np.argmax(col == col.max()))
    return want


def max_with_argmax(a: CSRMatrix, b: np.ndarray):
    """``(max-times output, first-maximizer argmax)`` by the scatter
    reduction and the per-row argmax loop."""
    b = np.asarray(b, dtype=VALUE_DTYPE)
    contributions = a.values[:, None] * b[a.colind.astype(np.int64)]
    out = scatter_segment_reduce(contributions, a.rowptr, np.maximum, -np.inf)
    return out, per_row_argmax(a, contributions)


def aggregate_max(a: CSRMatrix, x: np.ndarray, grad: np.ndarray):
    """``(output, dL/dx)`` of max aggregation: empty rows output 0, and
    each output cell's gradient goes whole to its first maximizer."""
    out, argmax = max_with_argmax(a, x)
    out[np.diff(a.rowptr) == 0] = 0.0
    dx = np.zeros(x.shape, dtype=np.float64)
    for i, j in zip(*np.nonzero(argmax >= 0)):
        k = argmax[i, j]
        dx[a.colind[k], j] += grad[i, j] * a.values[k]
    return out, dx.astype(x.dtype)


# ----------------------------------------------------------------------
# Access counters (one array expansion per call)
# ----------------------------------------------------------------------
def count_b_loads(a: CSRMatrix, n: int) -> AccessTotals:
    """One ``segment_sectors`` pass over all nonzeros per column segment."""
    segments = dense_segments(n)
    instructions = a.nnz * len(segments)
    requested = a.nnz * n * 4
    if n % ELEMS_PER_SECTOR == 0:
        sectors = a.nnz * sum((length + 7) // 8 for _, length in segments)
    else:
        base = a.colind.astype(np.int64) * np.int64(n)
        sectors = 0
        for start, length in segments:
            sectors += int(segment_sectors(base + start, np.int64(length)).sum())
    return AccessTotals(int(instructions), int(sectors), int(requested))


def count_c_stores(a: CSRMatrix, n: int) -> AccessTotals:
    """One ``segment_sectors`` pass over all output rows per segment."""
    m = a.nrows
    segments = dense_segments(n)
    instructions = m * len(segments)
    requested = m * n * 4
    if n % ELEMS_PER_SECTOR == 0:
        sectors = m * sum((length + 7) // 8 for _, length in segments)
    else:
        base = np.arange(m, dtype=np.int64) * n
        sectors = 0
        for start, length in segments:
            sectors += int(segment_sectors(base + start, np.int64(length)).sum())
    return AccessTotals(int(instructions), int(sectors), int(requested))


def count_tile_loads(a: CSRMatrix, tile: int = 32) -> AccessTotals:
    """One ``(start, length)`` entry per row tile, for any ``tile >= 1``."""
    rowptr = a.rowptr.astype(np.int64)
    starts, lens = [], []
    for i in range(a.nrows):
        for lo in range(int(rowptr[i]), int(rowptr[i + 1]), tile):
            starts.append(lo)
            lens.append(min(tile, int(rowptr[i + 1]) - lo))
    if not starts:
        return AccessTotals(0, 0, 0)
    sectors = int(segment_sectors(np.array(starts), np.array(lens)).sum())
    return AccessTotals(len(starts), sectors, 4 * sum(lens))


def broadcast_walk_sectors(a: CSRMatrix) -> int:
    """Distinct sectors of each row's contiguous element range, summed."""
    rowptr = a.rowptr.astype(np.int64)
    return int(segment_sectors(rowptr[:-1], np.diff(rowptr)).sum())


def unique_b_columns(a: CSRMatrix) -> int:
    return int(np.unique(a.colind).size) if a.nnz else 0


def occupied_rows(a: CSRMatrix) -> int:
    return int((np.diff(a.rowptr) > 0).sum())


#: the counters above, by the ``repro.core._counting`` name they mirror
COUNTERS = (
    "count_b_loads",
    "count_c_stores",
    "count_tile_loads",
    "broadcast_walk_sectors",
    "unique_b_columns",
    "occupied_rows",
)


# ----------------------------------------------------------------------
# DLMC pruned generators (comparison-sort top-k)
# ----------------------------------------------------------------------
def top_k_reference(score: np.ndarray, keep: int) -> np.ndarray:
    """Ascending indices of the ``keep`` largest scores by a stable
    descending argsort, so ties go to the lowest index."""
    return np.sort(np.argsort(-score, kind="stable")[:keep])


def pruned_magnitude_reference(m: int, k: int, sparsity: float, *, seed: int = 0) -> CSRMatrix:
    """``repro.sparse.pruned_magnitude`` by argsort and ``csr_from_coo``."""
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(m * k).astype(np.float32)
    total = m * k  # multiplied first: sparsity * m * k can round the other way
    keep = total - int(round(sparsity * total))
    flat = top_k_reference(np.abs(w), keep)
    rows, cols = np.divmod(flat.astype(np.int64), k)
    return csr_from_coo(rows, cols, w[flat], shape=(m, k))


def pruned_structured_reference(
    m: int, k: int, sparsity: float, *, block: int = 4, seed: int = 0
) -> CSRMatrix:
    """``repro.sparse.pruned_structured`` by argsort and ``csr_from_coo``."""
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((m, k)).astype(np.float32)
    n_blocks = (k + block - 1) // block
    padded = np.zeros((m, n_blocks * block), dtype=np.float64)
    padded[:, :k] = w
    norms = np.sqrt((padded.reshape(m, n_blocks, block) ** 2).sum(axis=2)).ravel()
    total = m * n_blocks
    keep = total - int(round(sparsity * total))
    units = top_k_reference(norms, keep).astype(np.int64)
    rows = np.repeat(units // n_blocks, block)
    cols = ((units % n_blocks)[:, None] * block + np.arange(block, dtype=np.int64)).ravel()
    in_range = cols < k
    rows, cols = rows[in_range], cols[in_range]
    return csr_from_coo(rows, cols, w[rows, cols], shape=(m, k))
