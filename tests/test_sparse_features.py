"""The first layer on the sparse input features.

The citation twins carry their bag-of-words features as CSR (and its
transpose) next to the dense array, and ``train`` hands both to the
input layer, whose ``x @ W`` and ``dW = xᵀ @ g`` then run as SpMMs.
Covered here: the twins' CSR, the float32 error bound of both products,
that ``train`` reuses the dataset's CSR, and that the op log (and so
every simulated profile) does not depend on the feature form.
"""

import dataclasses

import numpy as np
import pytest

from repro.datasets import load_citation
from repro.gnn import GCN, DGLBackend, GraphSAGE, PyGBackend, SimDevice, Tensor, train
from repro.gnn import functional as F
from repro.gpusim import GTX_1080TI


@pytest.fixture(scope="module")
def cora():
    return load_citation("cora")


def _dense_only(ds):
    return dataclasses.replace(ds, features_csr=None, features_csr_t=None)


def _feature_tensor(ds):
    return Tensor(ds.features, csr=ds.features_csr, csr_t=ds.features_csr_t)


@pytest.mark.parametrize("name", ["cora", "citeseer", "pubmed"])
def test_twins_carry_their_features_as_csr(name):
    ds = load_citation(name)
    np.testing.assert_array_equal(ds.features_csr.to_dense(), ds.features)
    np.testing.assert_array_equal(ds.features_csr_t.to_dense(), ds.features.T)
    assert 0.02 < ds.features_csr.nnz / ds.features.size < 0.04  # bag-of-words sparse


def _within_float32_bound(a, b: np.ndarray, c: np.ndarray) -> bool:
    """Row ``i`` of ``c`` is ``a @ b`` up to ``(len_i + 2)·eps32·(|a| @
    max_j |b|)``, whatever the summation order."""
    s = a.to_scipy().astype(np.float64)
    b64 = b.astype(np.float64)
    bound = (abs(s) @ np.abs(b64).max(axis=1)) * (np.diff(a.rowptr) + 2)
    bound *= np.finfo(np.float32).eps
    return bool(np.all(np.abs(c - s @ b64).max(axis=1, initial=0.0) <= bound))


@pytest.mark.parametrize("name", ["cora", "pubmed"])
def test_sparse_products_within_float32_bound(name):
    ds = load_citation(name)
    rng = np.random.default_rng(0)
    w = Tensor(rng.standard_normal((ds.feature_dim, 16)).astype(np.float32),
               requires_grad=True)
    out = F.matmul(_feature_tensor(ds), w, lambda op: None)
    assert _within_float32_bound(ds.features_csr, w.data, out.data)  # x @ W
    g = rng.standard_normal(out.shape).astype(np.float32)
    out.backward(g)
    assert _within_float32_bound(ds.features_csr_t, g, w.grad)  # xᵀ @ g


def test_csr_on_a_grad_requiring_tensor_raises(cora):
    with pytest.raises(ValueError, match="leaf"):
        Tensor(cora.features, requires_grad=True, csr=cora.features_csr,
               csr_t=cora.features_csr_t)


def test_train_hands_the_datasets_csr_to_the_first_layer(cora, monkeypatch):
    seen = []
    matmul = F.matmul

    def spy(x, *args, **kwargs):
        seen.extend(x if isinstance(x, tuple) else (x,))
        return matmul(x, *args, **kwargs)

    monkeypatch.setattr(F, "matmul", spy)
    model = GCN(cora.feature_dim, 8, cora.n_classes, rng=np.random.default_rng(0))
    train(model, DGLBackend(SimDevice(GTX_1080TI)), cora, epochs=1, warmup=0)
    carriers = [t for t in seen if t.csr is not None]
    assert carriers  # the input layer's projection ran on the CSR
    assert all(t.csr is cora.features_csr and t.csr_t is cora.features_csr_t
               for t in carriers)


def _model(kind, layers, ds):
    rng = np.random.default_rng(0)
    if kind == "gcn":
        return GCN(ds.feature_dim, 16, ds.n_classes, n_layers=layers, rng=rng)
    return GraphSAGE(ds.feature_dim, 16, ds.n_classes, n_layers=layers,
                     aggregator=kind.split("-", 1)[1], rng=rng)


def _signature(log):
    return [(op.kind, op.dims, None if op.adj is None else op.adj.fingerprint())
            for op in log]


@pytest.mark.parametrize("framework", [DGLBackend, PyGBackend], ids=["dgl", "pyg"])
@pytest.mark.parametrize("layers", [1, 2])
@pytest.mark.parametrize("kind", ["gcn", "sage-gcn", "sage-pool"])
def test_op_log_does_not_depend_on_the_feature_form(cora, kind, layers, framework):
    sparse, dense = (train(_model(kind, layers, ds), framework(SimDevice(GTX_1080TI)), ds,
                           epochs=1, warmup=0)
                     for ds in (cora, _dense_only(cora)))
    assert _signature(sparse.log) == _signature(dense.log)
    replayed = [framework(SimDevice(GTX_1080TI)).replay(run.log) for run in (sparse, dense)]
    assert replayed[0].totals == replayed[1].totals == sparse.profile.totals
    assert list(replayed[0].totals) == list(replayed[1].totals)
    assert replayed[0].calls == replayed[1].calls == sparse.profile.calls
