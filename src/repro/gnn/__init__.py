"""GNN framework substrate: autograd, layers, models, and the DGL/PyG
aggregation backends GE-SpMM plugs into."""

from repro.gnn.aggregate import GraphPair, aggregate_max, aggregate_sum
from repro.gnn.device import Op, OpProfile, SimDevice
from repro.gnn.inference import (
    ScenarioResult,
    amortization_crossover,
    inference_scenario,
    sampled_training_scenario,
)
from repro.gnn.checkpoint import load_checkpoint, save_checkpoint
from repro.gnn.frameworks import AggregationBackend, DGLBackend, PyGBackend
from repro.gnn.minibatch import MinibatchResult, MinibatchSAGE, train_minibatch
from repro.gnn.layers import GCNLayer, SAGEGcnLayer, SAGEPoolLayer
from repro.gnn.models import GCN, GraphSAGE
from repro.gnn.tensor import Parameter, Tensor
from repro.gnn.training import Adam, TrainResult, evaluate_accuracy, train

__all__ = [
    "GraphPair",
    "aggregate_sum",
    "aggregate_max",
    "Op",
    "SimDevice",
    "OpProfile",
    "AggregationBackend",
    "DGLBackend",
    "PyGBackend",
    "GCNLayer",
    "SAGEGcnLayer",
    "SAGEPoolLayer",
    "GCN",
    "GraphSAGE",
    "Tensor",
    "Parameter",
    "Adam",
    "TrainResult",
    "train",
    "evaluate_accuracy",
    "ScenarioResult",
    "inference_scenario",
    "sampled_training_scenario",
    "amortization_crossover",
    "save_checkpoint",
    "load_checkpoint",
    "MinibatchSAGE",
    "MinibatchResult",
    "train_minibatch",
]
