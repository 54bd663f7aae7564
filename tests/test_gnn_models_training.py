"""Tests for layers, models, the optimizer and the training harness."""

import numpy as np
import pytest

from repro.datasets import load_citation
from repro.datasets.citation import CitationDataset
from repro.gnn import (
    Adam,
    DGLBackend,
    GCN,
    GraphPair,
    GraphSAGE,
    PyGBackend,
    SimDevice,
    Tensor,
    evaluate_accuracy,
    train,
)
from repro.gnn.layers import GCNLayer, SAGEGcnLayer, SAGEPoolLayer
from repro.gpusim import GTX_1080TI, RTX_2080
from repro.sparse import csr_from_coo


def tiny_dataset(n_per_class=30, n_classes=3, feat_dim=12, seed=0) -> CitationDataset:
    """A trivially separable ring-of-cliques dataset for learnability tests."""
    rng = np.random.default_rng(seed)
    m = n_per_class * n_classes
    labels = np.repeat(np.arange(n_classes), n_per_class)
    # Clique edges within each class.
    rows, cols = [], []
    for c in range(n_classes):
        members = np.arange(c * n_per_class, (c + 1) * n_per_class)
        pairs = rng.integers(0, n_per_class, size=(6 * n_per_class, 2))
        rows.append(members[pairs[:, 0]])
        cols.append(members[pairs[:, 1]])
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    keep = rows != cols
    graph = csr_from_coo(rows[keep], cols[keep], None, shape=(m, m), sum_duplicates=True)
    graph = graph.with_values(np.ones(graph.nnz, dtype=np.float32))
    feats = rng.standard_normal((m, feat_dim)).astype(np.float32) * 0.1
    feats[np.arange(m), labels] += 2.0  # class-indicative coordinate
    train_mask = np.zeros(m, dtype=bool)
    train_mask[rng.choice(m, size=m // 2, replace=False)] = True
    return CitationDataset(
        name="tiny", graph=graph, features=feats, labels=labels.astype(np.int64),
        train_mask=train_mask, val_mask=~train_mask, test_mask=~train_mask,
        n_classes=n_classes,
    )


@pytest.fixture(scope="module")
def tiny():
    return tiny_dataset()


class TestLayers:
    @pytest.mark.parametrize("layer_cls", [GCNLayer, SAGEGcnLayer], ids=["gcn", "sage-gcn"])
    def test_forward_shape(self, tiny, layer_cls, rng):
        layer = layer_cls(tiny.feature_dim, 8, rng)
        backend = DGLBackend(SimDevice(GTX_1080TI))
        out = layer(backend, GraphPair(tiny.graph), Tensor(tiny.features))
        assert out.shape == (tiny.n_nodes, 8)
        assert np.isfinite(out.data).all()

    def test_pool_layer_shape_and_params(self, tiny, rng):
        layer = SAGEPoolLayer(tiny.feature_dim, 8, rng)
        assert len(layer.parameters()) == 4  # w_pool, b_pool, w, b
        backend = DGLBackend(SimDevice(GTX_1080TI), use_gespmm=True)
        out = layer(backend, GraphPair(tiny.graph), Tensor(tiny.features))
        assert out.shape == (tiny.n_nodes, 8)

    def test_relu_activation_nonnegative(self, tiny, rng):
        layer = GCNLayer(tiny.feature_dim, 8, rng, activation=True)
        backend = DGLBackend(SimDevice(GTX_1080TI))
        out = layer(backend, GraphPair(tiny.graph), Tensor(tiny.features))
        assert (out.data >= 0).all()

    @pytest.mark.parametrize("out_dim", [4, 32], ids=["shrink", "widen"])
    def test_gcn_orders_projection_by_width(self, tiny, rng, out_dim):
        """A_hat (X W) == (A_hat X) W: the layer must aggregate at the
        narrower of in/out width (charging less to the device ledger)
        while staying allclose to the other ordering."""

        class _WidthRecordingBackend(DGLBackend):
            def __init__(self, device):
                super().__init__(device, use_gespmm=True)
                self.widths = []

            def aggregate(self, g, x, op="sum"):
                self.widths.append(x.data.shape[1])
                return super().aggregate(g, x, op)

        in_dim = tiny.feature_dim
        layer = GCNLayer(in_dim, out_dim, rng, activation=False)
        g = GraphPair(tiny.graph)
        backend = _WidthRecordingBackend(SimDevice(GTX_1080TI))
        out = layer(backend, g, Tensor(tiny.features))

        # The SpMM always runs at the narrower width.
        assert backend.widths == [min(in_dim, out_dim)]

        # Both orderings agree numerically (associativity of A_hat X W).
        from repro.sparse import reference_spmm_like

        a_hat = g.sym_normalized_with_loops().adj
        project_first = reference_spmm_like(a_hat, tiny.features @ layer.w.data)
        aggregate_first = reference_spmm_like(a_hat, tiny.features) @ layer.w.data
        np.testing.assert_allclose(project_first, aggregate_first, rtol=1e-4, atol=1e-5)
        np.testing.assert_allclose(out.data, aggregate_first, rtol=1e-4, atol=1e-5)

    def test_gcn_shrinking_layer_charges_less_spmm_time(self, tiny, rng):
        """The width-aware ordering's ledger effect: a 12->4 layer must
        record strictly less simulated SpMM time than the same forward
        forced through the aggregate-at-input-width ordering."""
        from repro.gnn import functional as F

        layer = GCNLayer(tiny.feature_dim, 4, rng, activation=False)
        g = GraphPair(tiny.graph)

        dev_layer = SimDevice(GTX_1080TI)
        layer(DGLBackend(dev_layer, use_gespmm=True), g, Tensor(tiny.features))

        dev_wide = SimDevice(GTX_1080TI)
        wide_backend = DGLBackend(dev_wide, use_gespmm=True)
        h = wide_backend.aggregate(g.sym_normalized_with_loops(), Tensor(tiny.features))
        F.matmul(h, layer.w, wide_backend.charge)

        assert dev_layer.profile().time("SpMM") < dev_wide.profile().time("SpMM")


class TestModels:
    def test_gcn_layer_count(self, tiny, rng):
        model = GCN(tiny.feature_dim, 16, tiny.n_classes, n_layers=2, rng=rng)
        assert len(model.layers) == 3  # 2 hidden + output
        assert len(model.parameters()) == 6

    def test_log_probs_normalized(self, tiny, rng):
        model = GCN(tiny.feature_dim, 8, tiny.n_classes, rng=rng)
        backend = DGLBackend(SimDevice(GTX_1080TI))
        model.eval()
        out = model(backend, GraphPair(tiny.graph), Tensor(tiny.features))
        np.testing.assert_allclose(np.exp(out.data).sum(axis=1), 1.0, rtol=1e-4)

    def test_bad_aggregator_rejected(self, tiny, rng):
        with pytest.raises(ValueError):
            GraphSAGE(4, 4, 2, aggregator="lstm", rng=rng)


class TestOptimizer:
    def test_adam_moves_parameters(self, rng):
        from repro.gnn.tensor import Parameter

        p = Parameter(np.ones(4, dtype=np.float32))
        p.accumulate_grad(np.full(4, 0.5, dtype=np.float32))
        opt = Adam([p], lr=0.1)
        before = p.data.copy()
        opt.step()
        assert not np.allclose(p.data, before)

    def test_adam_skips_gradless(self):
        from repro.gnn.tensor import Parameter

        p = Parameter(np.ones(4, dtype=np.float32))
        Adam([p], lr=0.1).step()
        np.testing.assert_allclose(p.data, 1.0)

    def test_zero_grad(self):
        from repro.gnn.tensor import Parameter

        p = Parameter(np.ones(2, dtype=np.float32))
        p.accumulate_grad(np.ones(2, dtype=np.float32))
        opt = Adam([p])
        opt.zero_grad()
        assert p.grad is None


class TestTraining:
    @pytest.mark.parametrize("backend_cls", [DGLBackend, PyGBackend], ids=["dgl", "pyg"])
    def test_gcn_learns_separable_data(self, tiny, backend_cls):
        model = GCN(tiny.feature_dim, 16, tiny.n_classes, rng=np.random.default_rng(0),
                    dropout=0.2)
        res = train(model, backend_cls(SimDevice(GTX_1080TI)), tiny, epochs=40, lr=0.05)
        assert res.losses[-1] < res.losses[0] * 0.5
        assert res.test_accuracy > 0.9

    def test_sage_pool_learns(self, tiny):
        model = GraphSAGE(tiny.feature_dim, 16, tiny.n_classes, aggregator="pool",
                          rng=np.random.default_rng(0), dropout=0.0)
        res = train(model, DGLBackend(SimDevice(GTX_1080TI), use_gespmm=True),
                    tiny, epochs=40, lr=0.05)
        assert res.losses[-1] < res.losses[0]
        assert res.test_accuracy > 0.8

    def test_profile_counts_epochs_not_warmup(self, tiny):
        model = GCN(tiny.feature_dim, 8, tiny.n_classes, rng=np.random.default_rng(0))
        dev = SimDevice(GTX_1080TI)
        res = train(model, DGLBackend(dev), tiny, epochs=4, warmup=2)
        assert res.epochs == 4
        assert len(res.losses) == 4
        # SpMM calls: 2 per layer pass (fwd+bwd) x 2 layers x 4 epochs.
        assert res.profile.calls["SpMM"] == 16

    def test_spmm_share_in_sane_band(self, tiny):
        model = GCN(tiny.feature_dim, 8, tiny.n_classes, rng=np.random.default_rng(0))
        res = train(model, DGLBackend(SimDevice(GTX_1080TI)), tiny, epochs=3)
        assert 0.0 < res.spmm_share() < 1.0

    def test_evaluate_accuracy(self):
        logits = np.array([[0.9, 0.1], [0.2, 0.8], [0.6, 0.4]])
        labels = np.array([0, 1, 1])
        assert evaluate_accuracy(logits, labels, np.array([True, True, True])) == pytest.approx(2 / 3)
        assert evaluate_accuracy(logits, labels, np.zeros(3, dtype=bool)) == 0.0

    def test_gespmm_swap_preserves_numerics(self, tiny):
        losses = []
        for use_ge in (False, True):
            model = GCN(tiny.feature_dim, 8, tiny.n_classes, rng=np.random.default_rng(0),
                        dropout=0.0)
            res = train(model, DGLBackend(SimDevice(GTX_1080TI), use_gespmm=use_ge),
                        tiny, epochs=5, seed=0)
            losses.append(res.losses)
        np.testing.assert_allclose(losses[0], losses[1], rtol=1e-5)


class TestReplay:
    """Execute once, price many: pricing one run's op log under another
    backend equals training under that backend, float for float."""

    @staticmethod
    def _model(kind, tiny):
        rng = np.random.default_rng(0)
        if kind == "gcn":
            return GCN(tiny.feature_dim, 8, tiny.n_classes, n_layers=2, rng=rng)
        return GraphSAGE(tiny.feature_dim, 8, tiny.n_classes, n_layers=2,
                         aggregator=kind.split("-", 1)[1], rng=rng)

    @pytest.mark.parametrize("kind", ["gcn", "sage-gcn", "sage-pool"])
    def test_replay_equals_direct_training(self, tiny, kind):
        once = train(self._model(kind, tiny), DGLBackend(SimDevice(GTX_1080TI)), tiny,
                     epochs=3, warmup=1)
        for backend_cls in (DGLBackend, PyGBackend):
            for use_ge in (False, True):
                for gpu in (GTX_1080TI, RTX_2080):
                    direct = train(self._model(kind, tiny),
                                   backend_cls(SimDevice(gpu), use_gespmm=use_ge), tiny,
                                   epochs=3, warmup=1)
                    replayed = backend_cls(SimDevice(gpu), use_gespmm=use_ge).replay(once.log)
                    assert replayed.totals == direct.profile.totals
                    # total_time sums totals.values() in insertion order.
                    assert list(replayed.totals) == list(direct.profile.totals)
                    assert replayed.total_time == direct.total_time
                    assert replayed.calls == direct.profile.calls
                    assert direct.losses == once.losses

    def test_log_holds_measured_epochs_only(self, tiny):
        def run(warmup):
            model = self._model("sage-pool", tiny)
            return train(model, DGLBackend(SimDevice(GTX_1080TI)), tiny, epochs=2, warmup=warmup)

        res = run(warmup=1)
        assert len(res.log) == sum(res.profile.calls.values())
        assert len(res.log) == len(run(warmup=0).log)


class TestCitationIntegration:
    def test_cora_end_to_end(self):
        ds = load_citation("cora")
        model = GCN(ds.feature_dim, 16, ds.n_classes, rng=np.random.default_rng(0))
        res = train(model, DGLBackend(SimDevice(GTX_1080TI)), ds, epochs=15)
        assert res.test_accuracy > 0.6  # community-aligned synthetic twin
        assert res.total_time > 0
