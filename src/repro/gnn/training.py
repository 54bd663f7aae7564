"""Training loop, optimizer and profiling harness for the GNN substrate.

``train`` runs full-batch node-classification training the way DGL's
example scripts do (Adam, dropout, masked NLL loss) while the device
ledger accumulates per-operator simulated CUDA time — the measurement the
paper's Tables I/II/IX and Figs 13/14 are built from.  The run's op log
(:attr:`TrainResult.log`) prices the same run under any other backend or
GPU through ``AggregationBackend.replay``, without training again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro import obs
from repro.gnn import functional as F
from repro.gnn.aggregate import GraphPair
from repro.gnn.device import Op, OpProfile
from repro.gnn.frameworks import AggregationBackend
from repro.gnn.tensor import Parameter, Tensor

__all__ = ["Adam", "TrainResult", "train", "evaluate_accuracy"]


class Adam:
    """Adam optimizer over the substrate's Parameters."""

    def __init__(self, params: List[Parameter], lr: float = 0.01, betas=(0.9, 0.999), eps: float = 1e-8):
        self.params = list(params)
        self.lr = lr
        self.b1, self.b2 = betas
        self.eps = eps
        self.t = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        self.t += 1
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            g = p.grad
            self._m[i] = self.b1 * self._m[i] + (1 - self.b1) * g
            self._v[i] = self.b2 * self._v[i] + (1 - self.b2) * g * g
            mhat = self._m[i] / (1 - self.b1**self.t)
            vhat = self._v[i] / (1 - self.b2**self.t)
            p.data -= (self.lr * mhat / (np.sqrt(vhat) + self.eps)).astype(np.float32)

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()


@dataclass
class TrainResult:
    """Outcome of a profiled training run."""

    profile: OpProfile
    losses: List[float] = field(default_factory=list)
    #: shape-level ops of the measured epochs, in launch order
    log: List[Op] = field(default_factory=list)
    train_accuracy: float = 0.0
    test_accuracy: float = 0.0
    epochs: int = 0

    @property
    def total_time(self) -> float:
        """Total simulated device time over the measured epochs."""
        return self.profile.total_time

    def spmm_share(self) -> float:
        """Fraction of device time in SpMM kernels (paper Table I)."""
        return self.profile.share("SpMM")


def evaluate_accuracy(logits: np.ndarray, labels: np.ndarray, mask: np.ndarray) -> float:
    idx = np.nonzero(mask)[0]
    if idx.size == 0:
        return 0.0
    pred = logits[idx].argmax(axis=1)
    return float((pred == labels[idx]).mean())


def train(
    model,
    backend: AggregationBackend,
    dataset,
    epochs: int = 30,
    lr: float = 0.01,
    seed: int = 0,
    warmup: int = 1,
) -> TrainResult:
    """Full-batch training of ``model`` on ``dataset`` via ``backend``.

    The first ``warmup`` epochs are excluded from the profile (the ledger
    is reset afterwards), mirroring how profiler-based measurements skip
    initialization effects.  A dataset with ``features_csr`` (and
    ``features_csr_t``) hands them to the input tensor, so the first
    layer's projections run as SpMMs; the op log is the same either way.
    """
    device = backend.device
    g = GraphPair(dataset.graph)
    # The input layer multiplies the features' CSR when the dataset
    # carries one (the citation twins build it once, at load time).
    x = Tensor(dataset.features, csr=getattr(dataset, "features_csr", None),
               csr_t=getattr(dataset, "features_csr_t", None))
    rng = np.random.default_rng(seed)
    optimizer = Adam(model.parameters(), lr=lr)

    losses: List[float] = []
    model.train()
    registry = obs.get_registry()
    for epoch in range(epochs + warmup):
        if epoch == warmup:
            device.reset()
        with obs.span("train.epoch", epoch=epoch, warmup=epoch < warmup,
                      backend=backend.name, dataset=getattr(dataset, "name", "?")) as s:
            optimizer.zero_grad()
            log_probs = model(backend, g, x, rng=rng)
            loss = F.nll_loss(log_probs, dataset.labels, backend.charge, mask=dataset.train_mask)
            loss.backward()
            optimizer.step()
            if s is not None:
                s.attrs["loss"] = float(loss.data)
        if epoch >= warmup:
            losses.append(float(loss.data))
            registry.observe("train.epoch.loss", float(loss.data),
                             backend=backend.name, gpu=device.gpu.name)
            registry.counter("train.epochs", backend=backend.name,
                             gpu=device.gpu.name).inc()

    profile, log = device.profile(), list(device.log)  # before the (unprofiled) eval pass
    model.eval()
    logits = model(backend, g, x, rng=rng)
    train_acc = evaluate_accuracy(logits.data, dataset.labels, dataset.train_mask)
    test_acc = evaluate_accuracy(logits.data, dataset.labels, dataset.test_mask)
    return TrainResult(
        profile=profile,
        losses=losses,
        log=log,
        train_accuracy=train_acc,
        test_accuracy=test_acc,
        epochs=epochs,
    )
