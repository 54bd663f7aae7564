"""Tests for graph aggregation autograd and the framework backends."""

import numpy as np
import pytest

from repro.gnn import DGLBackend, GraphPair, PyGBackend, SimDevice, Tensor
from repro.gpusim import GTX_1080TI
from repro.semiring import MAX_TIMES
from repro.sparse import csr_from_coo, reference_spmm_like, uniform_random


@pytest.fixture
def graph():
    return GraphPair(uniform_random(m=60, nnz=480, seed=6, weighted=True))


@pytest.fixture
def x(graph, rng):
    return Tensor(rng.standard_normal((graph.adj.ncols, 12)).astype(np.float32),
                  requires_grad=True)


def backends(use_ge):
    dev = SimDevice(GTX_1080TI)
    return [DGLBackend(dev, use_gespmm=use_ge), PyGBackend(dev, use_gespmm=use_ge)]


class TestGraphPair:
    def test_transpose_cached(self, graph):
        assert graph.adj_t is graph.adj_t
        assert graph.adj_t.shape == graph.adj.shape[::-1]

    def test_normalized_cached(self, graph):
        assert graph.row_normalized() is graph.row_normalized()
        assert graph.sym_normalized_with_loops() is graph.sym_normalized_with_loops()


class TestAggregationValues:
    @pytest.mark.parametrize("use_ge", [False, True], ids=["stock", "gespmm"])
    def test_sum_matches_oracle(self, graph, x, use_ge):
        for backend in backends(use_ge):
            out = backend.aggregate(graph, x, op="sum")
            np.testing.assert_allclose(
                out.data, reference_spmm_like(graph.adj, x.data), rtol=1e-4, atol=1e-5
            )

    @pytest.mark.parametrize("use_ge", [False, True], ids=["stock", "gespmm"])
    def test_max_matches_oracle(self, graph, x, use_ge):
        want = reference_spmm_like(graph.adj, x.data, MAX_TIMES)
        lengths = graph.adj.row_lengths()
        want[lengths == 0] = 0.0
        for backend in backends(use_ge):
            out = backend.aggregate(graph, x, op="max")
            np.testing.assert_allclose(out.data, want, rtol=1e-4, atol=1e-5)

    def test_unknown_op_rejected(self, graph, x):
        backend = backends(False)[0]
        with pytest.raises(ValueError):
            backend.aggregate(graph, x, op="median")

    def test_max_empty_rows_are_zero(self, rng):
        adj = csr_from_coo([0, 0], [1, 2], [1.0, 1.0], shape=(3, 3))
        g = GraphPair(adj)
        x = Tensor(rng.standard_normal((3, 4)).astype(np.float32))
        out = backends(True)[0].aggregate(g, x, op="max")
        assert np.all(out.data[1] == 0) and np.all(out.data[2] == 0)
        assert np.isfinite(out.data).all()


class TestAggregationGradients:
    def test_sum_backward_is_transpose_spmm(self, graph, x):
        backend = backends(True)[0]
        out = backend.aggregate(graph, x, op="sum")
        g = np.random.default_rng(0).standard_normal(out.shape).astype(np.float32)
        out.backward(g)
        np.testing.assert_allclose(
            x.grad, reference_spmm_like(graph.adj_t, g), rtol=1e-4, atol=1e-5
        )

    def test_max_backward_numerical(self, rng):
        adj = uniform_random(m=12, nnz=50, seed=3, weighted=True)
        g = GraphPair(adj)
        data = rng.standard_normal((12, 5)).astype(np.float32)
        gout = rng.standard_normal((12, 5)).astype(np.float32)
        backend = backends(True)[0]

        x = Tensor(data.copy(), requires_grad=True)
        out = backend.aggregate(g, x, op="max")
        out.backward(gout)

        eps = 1e-3
        num = np.zeros_like(data, dtype=np.float64)
        for i in range(data.shape[0]):
            for j in range(data.shape[1]):
                for sign in (+1, -1):
                    d = data.copy()
                    d[i, j] += sign * eps
                    val = reference_spmm_like(adj, d, MAX_TIMES)
                    val[adj.row_lengths() == 0] = 0
                    num[i, j] += sign * float((val * gout).sum()) / (2 * eps)
        np.testing.assert_allclose(x.grad, num, rtol=5e-2, atol=5e-3)


class TestBackendAccounting:
    def test_dgl_stock_records_spmm(self, graph, x):
        dev = SimDevice(GTX_1080TI)
        out = DGLBackend(dev).aggregate(graph, x, op="sum")
        out.backward(np.ones_like(out.data))
        prof = dev.profile()
        assert prof.calls["SpMM"] == 2  # forward + backward

    def test_dgl_stock_max_labeled_spmm_like(self, graph, x):
        dev = SimDevice(GTX_1080TI)
        DGLBackend(dev).aggregate(graph, x, op="max")
        assert "SpMM-like" in dev.profile().totals

    def test_pyg_stock_labeled_message_passing(self, graph, x):
        dev = SimDevice(GTX_1080TI)
        PyGBackend(dev).aggregate(graph, x, op="sum")
        prof = dev.profile()
        assert "MessagePassing" in prof.totals
        assert "SpMM" not in prof.totals

    def test_gespmm_swaps_label_and_is_faster(self, x):
        big = GraphPair(uniform_random(m=20_000, nnz=200_000, seed=2))
        xx = Tensor(np.ones((big.adj.ncols, 64), dtype=np.float32))
        dev_stock = SimDevice(GTX_1080TI)
        PyGBackend(dev_stock).aggregate(big, xx, op="sum")
        dev_ge = SimDevice(GTX_1080TI)
        PyGBackend(dev_ge, use_gespmm=True).aggregate(big, xx, op="sum")
        assert dev_ge.profile().total_time < dev_stock.profile().total_time

    def test_dgl_transpose_penalty_in_stock_path(self, x):
        big = GraphPair(uniform_random(m=20_000, nnz=200_000, seed=2))
        xx = Tensor(np.ones((big.adj.ncols, 64), dtype=np.float32))
        from repro.baselines import CusparseCsrmm2

        raw = CusparseCsrmm2().estimate(big.adj, 64, GTX_1080TI).time_s
        dev = SimDevice(GTX_1080TI)
        DGLBackend(dev).aggregate(big, xx, op="sum")
        assert dev.profile().time("SpMM") > raw  # csrmm2 + cuBLAS transpose

    def test_backends_numerically_identical(self, graph, x):
        outs = []
        for use_ge in (False, True):
            for backend in backends(use_ge):
                outs.append(backend.aggregate(graph, x, op="sum").data)
        for o in outs[1:]:
            np.testing.assert_allclose(o, outs[0], rtol=1e-6)
