"""Differentiable graph aggregation (the SpMM / SpMM-like autograd op).

This is the reproduction of Section IV-B: "we wrap our kernel inside a
custom autograd function ... an atomic operator with gradient definition
in PyTorch [that] represents an aggregation step on the graph".

* **sum** aggregation is standard SpMM: forward ``C = A @ X``; backward
  ``dX = A^T @ dC`` — another SpMM on the (cached) transposed adjacency.
  Mean aggregation is sum over a row-normalized adjacency, so layers
  express it by normalizing the operand.
* **max** aggregation is the paper's flagship SpMM-like case
  (GraphSAGE-pool).  Forward takes the max-times semiring; empty rows
  produce 0 (the DGL convention) rather than the semiring identity.
  Backward routes each output gradient to the *first* nonzero whose
  contribution attained the maximum (PyTorch ``scatter_max`` semantics),
  so exact ties never share a gradient: the closure keeps only an
  ``(M, N)`` int32 argmax, not the full ``(nnz, N)`` contributions
  array.

Numeric execution is vectorized NumPy and the same under every
backend.  Each direction hands one shape-level :class:`~repro.gnn.device.Op`
(``"sum"``/``"sum.bwd"``, ``"max"``/``"max.bwd"``) to the caller's
``charge``; pricing it is the framework backend's job (DGL-style fused
kernels, PyG-style message passing, GE-SpMM swap-ins).
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.gnn.device import Op
from repro.gnn.tensor import Tensor
from repro.semiring import PLUS_TIMES
from repro.sparse.csr import CSRMatrix
from repro.sparse.ops import reference_spmm_like
from repro.sparse.segment import segment_max_with_argmax

__all__ = ["GraphPair", "aggregate_sum", "aggregate_max"]


class GraphPair:
    """An adjacency matrix with its cached transpose (for backward) and
    cached normalized variants (for GCN / mean aggregation)."""

    def __init__(self, adj: CSRMatrix):
        self.adj = adj
        self._adj_t: Optional[CSRMatrix] = None
        self._row_norm: Optional["GraphPair"] = None
        self._sym_norm: Optional["GraphPair"] = None

    @property
    def adj_t(self) -> CSRMatrix:
        if self._adj_t is None:
            self._adj_t = self.adj.transpose()
        return self._adj_t

    def row_normalized(self) -> "GraphPair":
        if self._row_norm is None:
            self._row_norm = GraphPair(self.adj.row_normalized())
        return self._row_norm

    def sym_normalized_with_loops(self) -> "GraphPair":
        if self._sym_norm is None:
            self._sym_norm = GraphPair(self.adj.add_self_loops().sym_normalized())
        return self._sym_norm

    @property
    def nnz(self) -> int:
        return self.adj.nnz


def aggregate_sum(g: GraphPair, x: Tensor, charge: Callable[[Op], None]) -> Tensor:
    """Sum aggregation ``C = A @ X`` with SpMM-costed backward."""
    n = x.data.shape[1]
    charge(Op("sum", (n,), g.adj))
    out = reference_spmm_like(g.adj, x.data, PLUS_TIMES)

    def backward(grad: np.ndarray) -> None:
        charge(Op("sum.bwd", (n,), g.adj_t))
        if x.requires_grad:
            x.accumulate_grad(reference_spmm_like(g.adj_t, grad, PLUS_TIMES))

    return Tensor(out, x.requires_grad, [x], backward if x.requires_grad else None, name="SpMM")


def aggregate_max(g: GraphPair, x: Tensor, charge: Callable[[Op], None]) -> Tensor:
    """Max aggregation (SpMM-like) with argmax-routed backward."""
    n = x.data.shape[1]
    adj = g.adj
    charge(Op("max", (n,), adj))
    # One tiled traversal: gather + scale + reduce + argmax per column
    # tile inside the pooled O(nnz·T) workspace — the full (nnz, N)
    # contributions array is never materialized, and the (M, N) int32
    # winner indices are all the backward needs.
    out, argmax = segment_max_with_argmax(adj, x.data)
    out = out.astype(x.data.dtype, copy=False)
    out[adj.row_lengths() == 0] = 0.0  # DGL convention: no neighbors -> zeros

    colind = adj.colind64()
    k = x.data.shape[0]

    def backward(grad: np.ndarray) -> None:
        charge(Op("max.bwd", (n,), g.adj_t))
        if not x.requires_grad:
            return
        # Winner-takes-all: the whole gradient goes to the first nonzero
        # that attained the maximum.  Empty rows and NaN cells hold -1
        # (no winner) and are masked out.
        valid = argmax >= 0
        idx = argmax[valid]
        target_cols = np.nonzero(valid)[1]
        weighted = (grad[valid] * adj.values[idx]).astype(np.float64)
        flat = colind[idx] * np.int64(n) + target_cols
        dx = np.bincount(flat, weights=weighted, minlength=k * n)
        x.accumulate_grad(dx.reshape(k, n).astype(x.data.dtype))

    return Tensor(
        out, x.requires_grad, [x], backward if x.requires_grad else None, name="SpMM-like"
    )
