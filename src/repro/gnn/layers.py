"""GNN layers: GCN and the two GraphSAGE variants the paper evaluates.

* :class:`GCNLayer` — Kipf & Welling graph convolution
  ``H' = sigma(A_hat H W)`` with ``A_hat = D^-1/2 (A+I) D^-1/2``; one
  standard SpMM per layer per direction.
* :class:`SAGEGcnLayer` — GraphSAGE with the "gcn" aggregator: mean over
  neighborhood (including self), i.e. SpMM on the row-normalized
  adjacency, then a linear map.  Internally *SpMM* (paper Table II).
* :class:`SAGEPoolLayer` — GraphSAGE with max-pooling: each neighbor's
  feature is first transformed (``relu(x W_pool + b)``), the neighborhood
  takes an elementwise **max** — the SpMM-like operation cuSPARSE cannot
  express — and the result is concatenated with the self feature before
  the output projection (paper Section V-F2, Table IX).  The projection
  takes ``(x, pooled)`` as two column blocks of one ``F.matmul``, so the
  concat is charged but never built.

The input layer's ``x`` may carry the CSR of the sparse input features;
every ``F.matmul`` on it then runs as an SpMM (see
:mod:`repro.gnn.functional`).
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.gnn import functional as F
from repro.gnn.aggregate import GraphPair
from repro.gnn.frameworks import AggregationBackend
from repro.gnn.tensor import Parameter, Tensor, glorot

__all__ = ["GCNLayer", "SAGEGcnLayer", "SAGEPoolLayer"]


class _Layer:
    """Base: parameter registry."""

    def __init__(self) -> None:
        self._params: List[Parameter] = []

    def param(self, data, name: str) -> Parameter:
        p = Parameter(data, name=name)
        self._params.append(p)
        return p

    def parameters(self) -> List[Parameter]:
        return list(self._params)


class GCNLayer(_Layer):
    """Graph convolution: ``relu?(A_hat (X W) + b)``."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator, activation: bool = True):
        super().__init__()
        self.w = self.param(glorot((in_dim, out_dim), rng), "gcn.w")
        self.b = self.param(np.zeros(out_dim, dtype=np.float32), "gcn.b")
        self.activation = activation

    def __call__(self, backend: AggregationBackend, g: GraphPair, x: Tensor) -> Tensor:
        charge = backend.charge
        in_dim, out_dim = self.w.data.shape
        # A_hat (X W) == (A_hat X) W: order the projection so the SpMM
        # always runs at the narrower of the two widths.  Project first
        # when W shrinks the features (the classic input layer); widen
        # after aggregating when out_dim > in_dim (decoder-style layers),
        # so the wider width is never charged to the aggregation kernel.
        if out_dim <= in_dim:
            h = F.matmul(x, self.w, charge)
            h = backend.aggregate(g.sym_normalized_with_loops(), h, op="sum")
        else:
            h = backend.aggregate(g.sym_normalized_with_loops(), x, op="sum")
            h = F.matmul(h, self.w, charge)
        h = F.add_bias(h, self.b, charge)
        return F.relu(h, charge) if self.activation else h


class SAGEGcnLayer(_Layer):
    """GraphSAGE-gcn: mean aggregation (SpMM) + linear."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator, activation: bool = True):
        super().__init__()
        self.w = self.param(glorot((in_dim, out_dim), rng), "sage_gcn.w")
        self.b = self.param(np.zeros(out_dim, dtype=np.float32), "sage_gcn.b")
        self.activation = activation

    def __call__(self, backend: AggregationBackend, g: GraphPair, x: Tensor) -> Tensor:
        charge = backend.charge
        # Mean over the neighborhood expressed as sum on D^-1 A.
        h = backend.aggregate(g.row_normalized(), x, op="sum")
        h = F.matmul(h, self.w, charge, bias=self.b)
        return F.relu(h, charge) if self.activation else h


class SAGEPoolLayer(_Layer):
    """GraphSAGE-pool: max-pooling aggregation (SpMM-like)."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator, activation: bool = True):
        super().__init__()
        self.w_pool = self.param(glorot((in_dim, in_dim), rng), "sage_pool.w_pool")
        self.b_pool = self.param(np.zeros(in_dim, dtype=np.float32), "sage_pool.b_pool")
        self.w = self.param(glorot((2 * in_dim, out_dim), rng), "sage_pool.w")
        self.b = self.param(np.zeros(out_dim, dtype=np.float32), "sage_pool.b")
        self.activation = activation

    def __call__(self, backend: AggregationBackend, g: GraphPair, x: Tensor) -> Tensor:
        charge = backend.charge
        msg = F.relu(F.matmul(x, self.w_pool, charge, bias=self.b_pool), charge)
        pooled = backend.aggregate(g, msg, op="max")  # the SpMM-like step
        # [x, pooled] @ W + b, block by block: no (M, 2F) concat.
        h = F.matmul((x, pooled), self.w, charge, bias=self.b)
        return F.relu(h, charge) if self.activation else h
