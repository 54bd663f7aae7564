"""GNN models used in the paper's end-to-end experiments.

Model configurations follow the paper's ``(x, y)`` convention in
Figs 13/14: ``x`` hidden graph layers of width ``y`` plus an output layer
sized to the number of classes (whose small N is why a few configurations
show no speedup — Section V-F1).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro import obs
from repro.gnn import functional as F
from repro.gnn.aggregate import GraphPair
from repro.gnn.frameworks import AggregationBackend
from repro.gnn.layers import GCNLayer, SAGEGcnLayer, SAGEPoolLayer, _Layer
from repro.gnn.tensor import Parameter, Tensor

__all__ = ["GCN", "GraphSAGE"]


def _spmm_ledger_time(backend: AggregationBackend) -> float:
    """Simulated seconds the device ledger currently attributes to sparse
    aggregation (SpMM + SpMM-like + PyG MessagePassing)."""
    profile = backend.device.profile()
    return (
        profile.time("SpMM") + profile.time("SpMM-like") + profile.time("MessagePassing")
    )


def _run_layer(backend: AggregationBackend, g: GraphPair, h, layer, index: int):
    """One layer forward under a ``gnn.layer`` span; the span carries the
    layer's total simulated time and its sparse-aggregation share."""
    with obs.span("gnn.layer", index=index, kind=type(layer).__name__) as s:
        spmm_before = _spmm_ledger_time(backend) if s is not None else 0.0
        h = layer(backend, g, h)
        if s is not None:
            s.attrs["spmm_time_ms"] = (_spmm_ledger_time(backend) - spmm_before) * 1e3
    return h


class _Model:
    def __init__(self) -> None:
        self.layers: List[_Layer] = []
        self.dropout = 0.5
        self.training = True

    def parameters(self) -> List[Parameter]:
        return [p for layer in self.layers for p in layer.parameters()]

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def train(self) -> None:
        self.training = True

    def eval(self) -> None:
        self.training = False

    def __call__(self, backend: AggregationBackend, g: GraphPair, x: Tensor, rng=None) -> Tensor:
        """Forward pass: the layers in order with dropout between them,
        then log-softmax."""
        rng = rng or np.random.default_rng(1)
        h = x
        for i, layer in enumerate(self.layers):
            if i > 0:
                h = F.dropout(h, self.dropout, backend.charge, self.training, rng)
            h = _run_layer(backend, g, h, layer, i)
        return F.log_softmax(h, backend.charge)


class GCN(_Model):
    """Multi-layer GCN for node classification (paper's GCN model)."""

    def __init__(
        self,
        in_dim: int,
        hidden: int,
        n_classes: int,
        n_layers: int = 1,
        rng: Optional[np.random.Generator] = None,
        dropout: float = 0.5,
    ):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.dropout = dropout
        dims = [in_dim] + [hidden] * n_layers
        for i in range(n_layers):
            self.layers.append(GCNLayer(dims[i], dims[i + 1], rng, activation=True))
        self.layers.append(GCNLayer(dims[-1], n_classes, rng, activation=False))


class GraphSAGE(_Model):
    """GraphSAGE with selectable aggregator: 'gcn' (SpMM) or 'pool'
    (SpMM-like max pooling)."""

    def __init__(
        self,
        in_dim: int,
        hidden: int,
        n_classes: int,
        n_layers: int = 1,
        aggregator: str = "gcn",
        rng: Optional[np.random.Generator] = None,
        dropout: float = 0.5,
    ):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.dropout = dropout
        self.aggregator = aggregator
        layer_cls = {"gcn": SAGEGcnLayer, "pool": SAGEPoolLayer}.get(aggregator)
        if layer_cls is None:
            raise ValueError(f"unknown aggregator {aggregator!r} (use 'gcn' or 'pool')")
        dims = [in_dim] + [hidden] * n_layers
        for i in range(n_layers):
            self.layers.append(layer_cls(dims[i], dims[i + 1], rng, activation=True))
        self.layers.append(layer_cls(dims[-1], n_classes, rng, activation=False))
