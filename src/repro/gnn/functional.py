"""Differentiable operators for the GNN substrate.

Each op computes in NumPy and hands the shape-level
:class:`~repro.gnn.device.Op` of every launch (forward and backward) to
``charge`` — a backend's ``charge``, which prices it with the device
rooflines under the labels the benchmark tables aggregate over:
``GEMM`` for dense matmuls, ``elementwise`` for maps/reductions.
Sparse aggregation lives in :mod:`repro.gnn.aggregate`.  Each backward
closure captures its inputs' graph nodes and only the arrays it reads
(see :mod:`repro.gnn.tensor`), never the input tensors themselves.

:func:`matmul` is the one projection path.  It takes column blocks and
a bias (GraphSAGE's ``[self, neighborhood] @ W + b`` without building
the concat) and multiplies a block that carries a CSR (the sparse input
features) with the host SpMM; what it charges is always the
``concat → matmul → add_bias`` sequence, so the op log does not depend
on either.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Union

import numpy as np

from repro.gnn.device import Op
from repro.gnn.tensor import Tensor
from repro.semiring import PLUS_TIMES
from repro.sparse.csr import CSRMatrix
from repro.sparse.ops import reference_spmm_like

__all__ = [
    "matmul",
    "add_bias",
    "relu",
    "dropout",
    "log_softmax",
    "nll_loss",
    "concat",
]


def matmul(
    x: Union[Tensor, Sequence[Tensor]],
    w: Tensor,
    charge: Callable[[Op], None],
    bias: Optional[Tensor] = None,
) -> Tensor:
    """Dense projection ``[x_1, ..., x_B] @ w (+ bias)`` with
    cuBLAS-modelled timing.

    ``x`` is one tensor or a sequence of column blocks with the same
    rows.  The blocks are never concatenated: ``w`` is split by rows,
    each block multiplies its slice, and the products and the bias are
    added in place into one ``(M, N)`` output.  The gradient splits the
    same way (``dW`` row block ``b`` is ``x_bᵀ @ g``), so neither the
    ``(M, K)`` concat nor its gradient exists.  GraphSAGE-pool projects
    ``[x, pooled]`` this way.

    The charges are exactly those of ``concat → matmul → add_bias``:
    forward ``elementwise`` (concat, only for several blocks),
    ``GEMM(m, k, n)``, ``elementwise`` (bias, only with ``bias``);
    backward ``elementwise`` (bias), ``GEMM(m, n, k)`` (dX),
    ``GEMM(k, m, n)`` (dW), ``elementwise`` (concat).  As in the chain,
    the backward GEMMs are charged only when a block or ``w`` requires
    grad, and the concat's only when a block does.  The closure saves
    ``w``'s row blocks only when a block requires grad, and the blocks'
    arrays only when ``w`` does.

    A block that carries a CSR (:class:`~repro.gnn.tensor.Tensor`, the
    sparse input features) multiplies it with the host SpMM,
    ``reference_spmm_like(x.csr, W_b, PLUS_TIMES)``, and its ``dW`` block
    is the same SpMM on the stored transpose, ``x.csr_t @ g``.  Such a
    block never requires grad, so no ``dX`` is computed for it.  SciPy's
    CSC product ``x_csr.T @ g`` is faster for ``dW`` on pubmed (it reads
    ``g`` row by row and scatters into the small ``(F, N)`` output,
    where the transposed CSR gathers ``g`` rows at random); the product
    still goes through the one sparse×dense path the repository has.
    """
    blocks = tuple(x) if isinstance(x, (tuple, list)) else (x,)
    m = blocks[0].data.shape[0]
    k2, n = w.data.shape
    bounds = np.cumsum([0] + [b.data.shape[1] for b in blocks])
    k = int(bounds[-1])
    if k != k2 or any(b.data.shape[0] != m for b in blocks):
        raise ValueError(
            f"matmul shape mismatch {[b.data.shape for b in blocks]} @ {w.data.shape}"
        )
    if bias is not None and bias.data.shape != (n,):
        raise ValueError(f"bias shape {bias.data.shape} != ({n},)")
    # Row block of w that multiplies each column block of x.
    w_rows = [w.data[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]
    if len(blocks) > 1:
        charge(Op("elementwise", (m * k, 2)))
    charge(Op("GEMM", (m, k, n)))
    out = _times(blocks[0], w_rows[0])
    for blk, wb in zip(blocks[1:], w_rows[1:]):
        out += _times(blk, wb)
    if bias is not None:
        charge(Op("elementwise", (out.size, 2)))
        out += bias.data

    # The links of concat → matmul → add_bias that have a backward
    # closure, and so charge their backward launches.
    blocks_req = any(b.requires_grad for b in blocks)
    product_req = blocks_req or w.requires_grad
    n_blocks = len(blocks)
    block_nodes = [b.node for b in blocks]
    wn = w.node
    bn = bias.node if bias is not None else None
    # Saved for the backward, and only when it runs that product: W's
    # row blocks for dX, each block's array (a sparse block's
    # transposed CSR) for dW.
    w_rows = w_rows if blocks_req else None
    x_saved = None
    if w.requires_grad:
        x_saved = [b.csr_t if b.csr is not None else b.data for b in blocks]

    def backward(g: np.ndarray) -> None:
        if bn is not None:
            charge(Op("elementwise", (g.size, 2)))
        if product_req:
            charge(Op("GEMM", (m, n, k)))  # dX = g @ W^T
            charge(Op("GEMM", (k, m, n)))  # dW = X^T @ g
        if n_blocks > 1 and blocks_req:
            charge(Op("elementwise", (m * k, 2)))
        if bn is not None and bn.requires_grad:
            bn.accumulate_grad(g.sum(axis=0), fresh=True)
        if w_rows is not None:
            for node, wb in zip(block_nodes, w_rows):
                if node.requires_grad:
                    node.accumulate_grad(g @ wb.T, fresh=True)
        if x_saved is not None:
            dw = np.empty(wn.shape, dtype=np.float32)
            for xb, lo, hi in zip(x_saved, bounds[:-1], bounds[1:]):
                dw[lo:hi] = _transposed_times(xb, g)
            wn.accumulate_grad(dw, fresh=True)

    parents = list(blocks) + [w] + ([bias] if bias is not None else [])
    req = any(p.requires_grad for p in parents)
    return Tensor(out, req, parents, backward if req else None, name="matmul")


def _times(x: Tensor, w: np.ndarray) -> np.ndarray:
    """``x @ w``, on the CSR when ``x`` carries one."""
    if x.csr is not None:
        return reference_spmm_like(x.csr, w, PLUS_TIMES)
    return x.data @ w


def _transposed_times(x: Union[np.ndarray, CSRMatrix], g: np.ndarray) -> np.ndarray:
    """``xᵀ @ g`` from what the backward saved: a dense block's array,
    or a sparse block's stored transposed CSR."""
    if isinstance(x, CSRMatrix):
        return reference_spmm_like(x, g, PLUS_TIMES)
    return x.T @ g


def add_bias(x: Tensor, b: Tensor, charge: Callable[[Op], None]) -> Tensor:
    """Row-broadcast bias addition."""
    size = x.size
    charge(Op("elementwise", (size, 2)))
    out = x.data + b.data[None, :]
    xn, bn = x.node, b.node

    def backward(g: np.ndarray) -> None:
        charge(Op("elementwise", (size, 2)))
        if xn.requires_grad:
            xn.accumulate_grad(g)
        if bn.requires_grad:
            bn.accumulate_grad(g.sum(axis=0), fresh=True)

    req = x.requires_grad or b.requires_grad
    return Tensor(out, req, [x, b], backward if req else None, name="add_bias")


def relu(x: Tensor, charge: Callable[[Op], None]) -> Tensor:
    size = x.size
    charge(Op("elementwise", (size, 2)))
    mask = x.data > 0
    out = x.data * mask
    xn = x.node

    def backward(g: np.ndarray) -> None:
        charge(Op("elementwise", (size, 2)))
        if xn.requires_grad:
            xn.accumulate_grad(g * mask, fresh=True)

    return Tensor(out, x.requires_grad, [x], backward if x.requires_grad else None, name="relu")


def dropout(
    x: Tensor, p: float, charge: Callable[[Op], None], training: bool, rng: np.random.Generator
) -> Tensor:
    """Inverted dropout; identity when not training."""
    if not training or p <= 0:
        return x
    if not 0 <= p < 1:
        raise ValueError("dropout probability must be in [0, 1)")
    size = x.size
    charge(Op("elementwise", (size, 2)))
    # The mask is drawn in row blocks of about 2**20 values: the same
    # random stream and the same bits as one ``rng.random(x.shape)``,
    # without that call's float64 (M, N) temporary.
    keep = np.empty(x.data.shape, dtype=np.float32)
    block = max(1, (1 << 20) // max(keep[:1].size, 1))
    for r0 in range(0, keep.shape[0], block):
        rows = keep[r0:r0 + block]
        rows[...] = rng.random(rows.shape) >= p
    keep /= 1.0 - p
    out = x.data * keep
    xn = x.node

    def backward(g: np.ndarray) -> None:
        charge(Op("elementwise", (size, 2)))
        if xn.requires_grad:
            xn.accumulate_grad(g * keep, fresh=True)

    return Tensor(out, x.requires_grad, [x], backward if x.requires_grad else None, name="dropout")


def log_softmax(x: Tensor, charge: Callable[[Op], None]) -> Tensor:
    """Row-wise log-softmax (numerically stabilized)."""
    size = x.size
    charge(Op("elementwise", (size, 3)))
    shifted = x.data - x.data.max(axis=1, keepdims=True)
    logsum = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    out = shifted - logsum
    xn = x.node

    def backward(g: np.ndarray) -> None:
        charge(Op("elementwise", (size, 3)))
        if xn.requires_grad:
            softmax = np.exp(out)
            xn.accumulate_grad(g - softmax * g.sum(axis=1, keepdims=True), fresh=True)

    return Tensor(out, x.requires_grad, [x], backward if x.requires_grad else None, name="log_softmax")


def nll_loss(
    log_probs: Tensor,
    labels: np.ndarray,
    charge: Callable[[Op], None],
    mask: Optional[np.ndarray] = None,
) -> Tensor:
    """Masked negative log-likelihood averaged over selected rows."""
    labels = np.asarray(labels, dtype=np.int64)
    idx = np.nonzero(mask)[0] if mask is not None else np.arange(labels.shape[0])
    if idx.size == 0:
        raise ValueError("empty mask in nll_loss")
    size = log_probs.size
    charge(Op("elementwise", (size, 2)))
    picked = log_probs.data[idx, labels[idx]]
    out = np.array(-picked.mean(), dtype=np.float32)
    node = log_probs.node

    def backward(g: np.ndarray) -> None:
        charge(Op("elementwise", (size, 2)))
        if node.requires_grad:
            grad = np.zeros(node.shape, dtype=np.float32)
            grad[idx, labels[idx]] = -float(g) / idx.size
            node.accumulate_grad(grad, fresh=True)

    return Tensor(
        out, log_probs.requires_grad, [log_probs],
        backward if log_probs.requires_grad else None, name="nll_loss",
    )


def concat(a: Tensor, b: Tensor, charge: Callable[[Op], None]) -> Tensor:
    """Column-wise concatenation (GraphSAGE's [self, neighborhood])."""
    if a.data.shape[0] != b.data.shape[0]:
        raise ValueError("concat row mismatch")
    size = a.size + b.size
    charge(Op("elementwise", (size, 2)))
    out = np.concatenate([a.data, b.data], axis=1)
    na = a.data.shape[1]
    an, bn = a.node, b.node

    def backward(g: np.ndarray) -> None:
        charge(Op("elementwise", (size, 2)))
        if an.requires_grad:
            an.accumulate_grad(g[:, :na])
        if bn.requires_grad:
            bn.accumulate_grad(g[:, na:])

    req = a.requires_grad or b.requires_grad
    return Tensor(out, req, [a, b], backward if req else None, name="concat")
