"""Memory guard of one training iteration.

``tracemalloc`` sees every NumPy array (NumPy reports its buffers to
it), so the peak above the baseline of one ``train(epochs=1, warmup=0)``
is the iteration's array working set, independent of the allocator.
Graph nodes hold no activations (see :mod:`repro.gnn.tensor`), so the
peak is the forward's saved arrays plus one op's transients; when every
forward output stays alive until ``backward()`` reaches it, the same
iterations peak at about 310 MB (pubmed GCN) and 166 MB (cora
GraphSAGE-pool).  They read about 134 MB and 110 MB; each bound leaves
25-35% of headroom and still fails on the old retention.
"""

import tracemalloc

import numpy as np
import pytest

from repro.datasets import load_citation
from repro.gnn import DGLBackend, GCN, GraphSAGE, SimDevice, train
from repro.gpusim import GTX_1080TI

MB = 1e6


def _iteration_peak(dataset: str, model_kind: str) -> float:
    """Traced peak (bytes above baseline) of one 2x256 training call."""
    ds = load_citation(dataset, seed=0)
    rng = np.random.default_rng(0)
    if model_kind == "gcn":
        model = GCN(ds.feature_dim, 256, ds.n_classes, n_layers=2, rng=rng)
    else:
        model = GraphSAGE(ds.feature_dim, 256, ds.n_classes, n_layers=2,
                          aggregator="pool", rng=rng)
    backend = DGLBackend(SimDevice(GTX_1080TI), use_gespmm=True)
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        train(model, backend, ds, epochs=1, warmup=0, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if started:
            tracemalloc.stop()
    return peak - base


@pytest.mark.parametrize("dataset, model_kind, bound_mb", [
    ("pubmed", "gcn", 180),
    ("cora", "sage-pool", 140),
])
def test_one_iteration_stays_under_its_memory_bound(dataset, model_kind, bound_mb):
    peak = _iteration_peak(dataset, model_kind)
    assert peak < bound_mb * MB, f"{dataset} {model_kind}: peak {peak / MB:.1f} MB"
