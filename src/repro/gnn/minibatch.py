"""Minibatch GraphSAGE training on sampled blocks.

Full-graph training (``repro.gnn.training``) reproduces the paper's
profiler experiments; *this* module implements the sampled-batch regime
those experiments motivate (Section II-B): every step samples a fresh
bipartite block with :func:`repro.sparse.sampling.neighbor_sample`,
gathers the input features of the touched nodes, aggregates over the
block through the chosen backend, and updates the model on the seed
nodes' loss.

Because each block is a brand-new sparse matrix, this is the workload
where CSR-native kernels (GE-SpMM) structurally beat preprocess-based
designs — the extension benchmark prices exactly this loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.gnn import functional as F
from repro.gnn.aggregate import GraphPair
from repro.gnn.device import OpProfile
from repro.gnn.frameworks import AggregationBackend
from repro.gnn.tensor import Parameter, Tensor, glorot
from repro.gnn.training import Adam
from repro.sparse.csr import CSRMatrix
from repro.sparse.sampling import batch_stream

__all__ = ["MinibatchSAGE", "MinibatchResult", "train_minibatch"]


class MinibatchSAGE:
    """One-hop GraphSAGE encoder for block (bipartite) aggregation:
    ``h_seed = relu(W [x_seed, mean_agg(block, x_inputs)])`` followed by
    a linear classifier."""

    def __init__(self, in_dim: int, hidden: int, n_classes: int,
                 rng: Optional[np.random.Generator] = None):
        rng = rng or np.random.default_rng(0)
        self.w_enc = Parameter(glorot((2 * in_dim, hidden), rng), name="mb.w_enc")
        self.b_enc = Parameter(np.zeros(hidden, dtype=np.float32), name="mb.b_enc")
        self.w_out = Parameter(glorot((hidden, n_classes), rng), name="mb.w_out")
        self.b_out = Parameter(np.zeros(n_classes, dtype=np.float32), name="mb.b_out")

    def parameters(self) -> List[Parameter]:
        return [self.w_enc, self.b_enc, self.w_out, self.b_out]

    def __call__(self, backend: AggregationBackend, block: CSRMatrix,
                 x_inputs: Tensor) -> Tensor:
        charge = backend.charge
        # Mean aggregation over sampled neighbors = sum on the
        # row-normalized block.
        agg = backend.aggregate(GraphPair(block).row_normalized(), x_inputs, op="sum")
        x_seed = Tensor(x_inputs.data[: block.nrows])
        h = F.relu(F.matmul((x_seed, agg), self.w_enc, charge, bias=self.b_enc), charge)
        logits = F.matmul(h, self.w_out, charge, bias=self.b_out)
        return F.log_softmax(logits, charge)


@dataclass
class MinibatchResult:
    """Outcome of a sampled-training run."""

    profile: OpProfile
    losses: List[float] = field(default_factory=list)
    accuracy: float = 0.0
    batches: int = 0
    avg_block_nnz: float = 0.0


def train_minibatch(
    dataset,
    backend: AggregationBackend,
    batch_size: int = 128,
    fanout: int = 10,
    n_batches: int = 20,
    lr: float = 0.02,
    hidden: int = 32,
    seed: int = 0,
) -> MinibatchResult:
    """Run ``n_batches`` sampled GraphSAGE steps on ``dataset``.

    The dataset is any object with ``graph``, ``features``, ``labels``
    and ``train_mask`` (the citation twins qualify).
    """
    device = backend.device
    device.reset()
    rng = np.random.default_rng(seed)
    model = MinibatchSAGE(dataset.features.shape[1], hidden,
                          int(dataset.labels.max()) + 1, rng)
    optimizer = Adam(model.parameters(), lr=lr)
    train_nodes = np.nonzero(dataset.train_mask)[0]

    losses: List[float] = []
    total_nnz = 0
    correct = 0
    seen = 0
    for batch in batch_stream(dataset.graph, batch_size, fanout, n_batches,
                              seed=seed, population=train_nodes):
        x_inputs = Tensor(dataset.features[batch.nodes])
        optimizer.zero_grad()
        log_probs = model(backend, batch.block, x_inputs)
        labels = dataset.labels[batch.seeds]
        loss = F.nll_loss(log_probs, labels, backend.charge)
        loss.backward()
        optimizer.step()
        losses.append(float(loss.data))
        total_nnz += batch.block.nnz
        correct += int((log_probs.data.argmax(axis=1) == labels).sum())
        seen += labels.size

    return MinibatchResult(
        profile=device.profile(),
        losses=losses,
        accuracy=correct / max(seen, 1),
        batches=n_batches,
        avg_block_nnz=total_nnz / max(n_batches, 1),
    )
