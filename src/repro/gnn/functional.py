"""Differentiable operators for the GNN substrate.

Each op computes in NumPy and hands the shape-level
:class:`~repro.gnn.device.Op` of every launch (forward and backward) to
``charge`` — a backend's ``charge``, which prices it with the device
rooflines under the labels the benchmark tables aggregate over:
``GEMM`` for dense matmuls, ``elementwise`` for maps/reductions.
Sparse aggregation lives in :mod:`repro.gnn.aggregate`.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.gnn.device import Op
from repro.gnn.tensor import Tensor

__all__ = [
    "matmul",
    "add_bias",
    "relu",
    "dropout",
    "log_softmax",
    "nll_loss",
    "concat",
]


def matmul(x: Tensor, w: Tensor, charge: Callable[[Op], None]) -> Tensor:
    """Dense ``x @ w`` with cuBLAS-modelled timing."""
    m, k = x.data.shape
    k2, n = w.data.shape
    if k != k2:
        raise ValueError(f"matmul shape mismatch {x.data.shape} @ {w.data.shape}")
    charge(Op("GEMM", (m, k, n)))
    out_data = x.data @ w.data

    def backward(g: np.ndarray) -> None:
        charge(Op("GEMM", (m, n, k)))  # dX = g @ W^T
        charge(Op("GEMM", (k, m, n)))  # dW = X^T @ g
        if x.requires_grad:
            x.accumulate_grad(g @ w.data.T)
        if w.requires_grad:
            w.accumulate_grad(x.data.T @ g)

    req = x.requires_grad or w.requires_grad
    return Tensor(out_data, req, [x, w], backward if req else None, name="matmul")


def add_bias(x: Tensor, b: Tensor, charge: Callable[[Op], None]) -> Tensor:
    """Row-broadcast bias addition."""
    charge(Op("elementwise", (x.size, 2)))
    out = x.data + b.data[None, :]

    def backward(g: np.ndarray) -> None:
        charge(Op("elementwise", (x.size, 2)))
        if x.requires_grad:
            x.accumulate_grad(g)
        if b.requires_grad:
            b.accumulate_grad(g.sum(axis=0))

    req = x.requires_grad or b.requires_grad
    return Tensor(out, req, [x, b], backward if req else None, name="add_bias")


def relu(x: Tensor, charge: Callable[[Op], None]) -> Tensor:
    charge(Op("elementwise", (x.size, 2)))
    mask = x.data > 0
    out = x.data * mask

    def backward(g: np.ndarray) -> None:
        charge(Op("elementwise", (x.size, 2)))
        if x.requires_grad:
            x.accumulate_grad(g * mask)

    return Tensor(out, x.requires_grad, [x], backward if x.requires_grad else None, name="relu")


def dropout(
    x: Tensor, p: float, charge: Callable[[Op], None], training: bool, rng: np.random.Generator
) -> Tensor:
    """Inverted dropout; identity when not training."""
    if not training or p <= 0:
        return x
    if not 0 <= p < 1:
        raise ValueError("dropout probability must be in [0, 1)")
    charge(Op("elementwise", (x.size, 2)))
    keep = (rng.random(x.data.shape) >= p).astype(np.float32) / (1.0 - p)
    out = x.data * keep

    def backward(g: np.ndarray) -> None:
        charge(Op("elementwise", (x.size, 2)))
        if x.requires_grad:
            x.accumulate_grad(g * keep)

    return Tensor(out, x.requires_grad, [x], backward if x.requires_grad else None, name="dropout")


def log_softmax(x: Tensor, charge: Callable[[Op], None]) -> Tensor:
    """Row-wise log-softmax (numerically stabilized)."""
    charge(Op("elementwise", (x.size, 3)))
    shifted = x.data - x.data.max(axis=1, keepdims=True)
    logsum = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    out = shifted - logsum

    def backward(g: np.ndarray) -> None:
        charge(Op("elementwise", (x.size, 3)))
        if x.requires_grad:
            softmax = np.exp(out)
            x.accumulate_grad(g - softmax * g.sum(axis=1, keepdims=True))

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
    charge(Op("elementwise", (log_probs.size, 2)))
    picked = log_probs.data[idx, labels[idx]]
    out = np.array(-picked.mean(), dtype=np.float32)

    def backward(g: np.ndarray) -> None:
        charge(Op("elementwise", (log_probs.size, 2)))
        if log_probs.requires_grad:
            grad = np.zeros_like(log_probs.data)
            grad[idx, labels[idx]] = -float(g) / idx.size
            log_probs.accumulate_grad(grad)

    return Tensor(
        out, log_probs.requires_grad, [log_probs],
        backward if log_probs.requires_grad else None, name="nll_loss",
    )


def concat(a: Tensor, b: Tensor, charge: Callable[[Op], None]) -> Tensor:
    """Column-wise concatenation (GraphSAGE's [self, neighborhood])."""
    if a.data.shape[0] != b.data.shape[0]:
        raise ValueError("concat row mismatch")
    charge(Op("elementwise", (a.size + b.size, 2)))
    out = np.concatenate([a.data, b.data], axis=1)
    na = a.data.shape[1]

    def backward(g: np.ndarray) -> None:
        charge(Op("elementwise", (a.size + b.size, 2)))
        if a.requires_grad:
            a.accumulate_grad(g[:, :na])
        if b.requires_grad:
            b.accumulate_grad(g[:, na:])

    req = a.requires_grad or b.requires_grad
    return Tensor(out, req, [a, b], backward if req else None, name="concat")
