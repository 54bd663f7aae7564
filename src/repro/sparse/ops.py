"""Host execution of SpMM and SpMM-like operations.

Every simulated kernel's ``run`` in :mod:`repro.core` and
:mod:`repro.baselines` computes its numeric output here, and the test
suite checks those kernels against these functions.  Built-in reductions
execute through the segmented-reduction engine
(:mod:`repro.sparse.segment`); user-defined reductions through a per-row
loop.  Neither models the GPU: there are no warps, transactions or
timing here.
"""

from __future__ import annotations

import numpy as np

from repro.semiring import PLUS_TIMES, Semiring
from repro.sparse import segment
from repro.sparse.csr import CSRMatrix, VALUE_DTYPE

__all__ = [
    "reference_spmm",
    "reference_spmm_like",
    "reference_spmm_like_multi",
    "reference_spmv",
    "flops_of_spmm",
]


def reference_spmm(a: CSRMatrix, b: np.ndarray) -> np.ndarray:
    """Standard SpMM oracle: ``C = A @ B`` via SciPy."""
    b = _check_dense(a, b)
    return np.asarray(a.to_scipy() @ b, dtype=VALUE_DTYPE)


def reference_spmv(a: CSRMatrix, x: np.ndarray) -> np.ndarray:
    """Sparse matrix-vector oracle: ``y = A @ x``."""
    x = np.asarray(x, dtype=VALUE_DTYPE)
    if x.shape != (a.ncols,):
        raise ValueError(f"vector length {x.shape} incompatible with {a.shape}")
    return np.asarray(a.to_scipy() @ x, dtype=VALUE_DTYPE)


def reference_spmm_like(
    a: CSRMatrix, b: np.ndarray, semiring: Semiring = PLUS_TIMES
) -> np.ndarray:
    """General SpMM-like execution under an arbitrary semiring.

    Computes ``C[i, :] = reduce_k combine(A[i,k], B[k, :])`` with the
    semiring's identity for empty rows.  Executes through the
    segmented-reduction engine (:mod:`repro.sparse.segment`) for the
    builtin reductions and row by row for user-defined ones.
    """
    b = _check_dense(a, b)
    if segment.reduce_ufunc(semiring) is not None:
        return segment.segment_spmm_like(a, b, semiring)
    return _per_row_spmm_like(a, b, semiring)


def reference_spmm_like_multi(
    a: CSRMatrix, bs, semiring: Semiring = PLUS_TIMES
) -> list:
    """Batched :func:`reference_spmm_like`: K same-graph dense operands
    through one shared traversal (``segment_spmm_like_multi``) — the
    feature-width-batching primitive a serving layer coalesces
    concurrent same-graph requests onto.  User-defined reductions run
    operand by operand; each output is byte-identical to the
    corresponding single-operand call either way.
    """
    if segment.reduce_ufunc(semiring) is not None:
        return segment.segment_spmm_like_multi(a, bs, semiring)
    return [_per_row_spmm_like(a, _check_dense(a, b), semiring) for b in bs]


def _per_row_spmm_like(a: CSRMatrix, b: np.ndarray, semiring: Semiring) -> np.ndarray:
    """SpMM-like for a reduction no ufunc implements: gather and combine
    all contributions, then call ``semiring.reduce`` once per non-empty
    row."""
    out = np.full((a.nrows, b.shape[1]), semiring.init, dtype=VALUE_DTYPE)
    if a.nnz:
        contributions = semiring.combine(a.values[:, None], b[a.colind64()])
        rowptr = a.rowptr64()
        for i in np.flatnonzero(a.row_lengths()):
            out[i] = semiring.reduce(contributions[rowptr[i] : rowptr[i + 1]], axis=0)
    return semiring.finalize(out, a.row_lengths()).astype(VALUE_DTYPE)


def flops_of_spmm(a: CSRMatrix, n: int) -> int:
    """Theoretical floating-point operation count ``2 * nnz * N`` — the
    numerator of the paper's GFLOPS throughput metric (Section V-A3)."""
    return 2 * a.nnz * int(n)


def _check_dense(a: CSRMatrix, b: np.ndarray) -> np.ndarray:
    b = np.ascontiguousarray(b, dtype=VALUE_DTYPE)
    if b.ndim != 2 or b.shape[0] != a.ncols:
        raise ValueError(f"dense operand shape {b.shape} incompatible with {a.shape}")
    return b
