"""Autograd engine tests: numerical gradient checks for every operator."""

import gc
import weakref

import numpy as np
import pytest

import references
from repro.gnn import DGLBackend, SimDevice, Tensor
from repro.gnn import functional as F
from repro.gnn.aggregate import GraphPair, aggregate_max, aggregate_sum
from repro.gnn.tensor import Parameter, glorot
from repro.gpusim import GTX_1080TI
from repro.sparse import csr_from_dense


@pytest.fixture
def backend():
    return DGLBackend(SimDevice(GTX_1080TI))


@pytest.fixture
def charge(backend):
    return backend.charge


def numerical_grad(fn, x, eps=1e-3):
    """Central-difference gradient of scalar fn w.r.t. array x."""
    g = np.zeros_like(x, dtype=np.float64)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + eps
        hi = fn()
        x[idx] = orig - eps
        lo = fn()
        x[idx] = orig
        g[idx] = (hi - lo) / (2 * eps)
        it.iternext()
    return g


class TestTensorBasics:
    def test_scalar_backward(self):
        t = Tensor(np.array([3.0]), requires_grad=True)
        t.backward()
        np.testing.assert_allclose(t.grad, [1.0])

    def test_nonscalar_backward_requires_grad_arg(self):
        t = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ValueError):
            t.backward()

    def test_grad_accumulates(self):
        t = Tensor(np.zeros(3), requires_grad=True)
        t.accumulate_grad(np.ones(3))
        t.accumulate_grad(np.ones(3))
        np.testing.assert_allclose(t.grad, [2, 2, 2])
        t.zero_grad()
        assert t.grad is None

    def test_grad_shape_check(self):
        t = Tensor(np.zeros(3), requires_grad=True)
        with pytest.raises(ValueError):
            t.accumulate_grad(np.ones(4))

    def test_detach(self):
        t = Tensor(np.ones(2), requires_grad=True)
        d = t.detach()
        assert not d.requires_grad

    def test_parameter_requires_grad(self):
        p = Parameter(np.ones(2))
        assert p.requires_grad

    def test_glorot_bounds(self, rng):
        w = glorot((64, 32), rng)
        limit = np.sqrt(6 / 96)
        assert np.abs(w).max() <= limit
        assert w.dtype == np.float32

    def test_diamond_graph_single_backward(self, charge):
        # y = relu(x) used twice: gradient must accumulate once per use,
        # and each node's backward must run exactly once (topological).
        x = Tensor(np.array([[1.0, -1.0]]), requires_grad=True)
        h = F.relu(x, charge)
        s = F.add_bias(h, Tensor(np.zeros(2), requires_grad=False), charge)
        total = F.concat(h, s, charge)
        loss = F.nll_loss(F.log_softmax(total, charge), np.array([0]), charge)
        loss.backward()
        assert x.grad is not None and np.isfinite(x.grad).all()

    def test_backward_frees_the_graph_without_the_cyclic_gc(self, charge, rng):
        """Reference counting alone frees every activation (the probes
        watch arrays, with the cyclic gc off): an output that no backward
        reads dies as soon as the caller drops it, and an array a closure
        saved dies once ``backward()`` has run that closure, while the
        loss is still held."""
        x = Parameter(rng.standard_normal((6, 4)).astype(np.float32))
        w = Parameter(rng.standard_normal((4, 3)).astype(np.float32))
        w2 = Parameter(rng.standard_normal((6, 3)).astype(np.float32))
        gc.disable()
        try:
            h = F.relu(F.matmul(x, w, charge), charge)
            logits = F.concat(h, F.add_bias(h, Tensor(np.zeros(3)), charge), charge)
            hidden = F.matmul(logits, w2, charge)  # saves logits for dW2
            log_probs = F.log_softmax(hidden, charge)  # saves its own output
            loss = F.nll_loss(log_probs, np.arange(6) % 3, charge)
            unread = [weakref.ref(h.data), weakref.ref(hidden.data)]
            saved = [weakref.ref(logits.data), weakref.ref(log_probs.data)]
            del h, logits, hidden, log_probs
            assert all(p() is None for p in unread)
            assert all(p() is not None for p in saved)
            loss.backward()
            assert all(p() is None for p in saved)
        finally:
            gc.enable()
        assert x.grad is not None and w.grad is not None and w2.grad is not None

    def test_backward_releases_each_node_as_it_goes(self, charge, rng):
        """An intermediate's array is freed while ``backward()`` runs:
        by the time the first op's closure runs, every later node has
        been released and nothing holds their outputs."""
        x = Parameter(rng.standard_normal((6, 4)).astype(np.float32))
        w = Parameter(rng.standard_normal((4, 3)).astype(np.float32))
        alive_when_first_runs = []
        gc.disable()
        try:
            first = F.matmul(x, w, charge)
            inner = first._backward

            def probed(g):
                alive_when_first_runs.extend(p() is not None for p in probes)
                inner(g)

            first._backward = probed
            h = F.relu(first, charge)
            logits = F.concat(h, F.add_bias(h, Tensor(np.zeros(3)), charge), charge)
            loss = F.nll_loss(F.log_softmax(logits, charge), np.arange(6) % 3, charge)
            probes = [weakref.ref(h.data), weakref.ref(logits.data)]
            del first, h, logits
            loss.backward()
        finally:
            gc.enable()
        assert alive_when_first_runs == [False, False]
        assert x.grad is not None and w.grad is not None  # leaves keep .grad
        assert loss.grad is None and loss._parents == []

    def test_second_backward_raises(self, charge, rng):
        x = Parameter(rng.standard_normal((4, 3)).astype(np.float32))
        h = F.relu(x, charge)
        loss = F.nll_loss(F.log_softmax(h, charge), np.arange(4) % 3, charge)
        loss.backward()
        with pytest.raises(RuntimeError):
            loss.backward()
        # A fresh graph over a released intermediate cannot reach past it.
        again = F.nll_loss(F.log_softmax(h, charge), np.arange(4) % 3, charge)
        with pytest.raises(RuntimeError):
            again.backward()

    def test_backward_leaves_the_callers_gradient_unmodified(self, charge, rng):
        # concat hands each input a view of the incoming gradient, and
        # ``s`` accumulates both halves: a gradient taken over without a
        # copy would be written through.
        x = Tensor(rng.standard_normal((4, 3)).astype(np.float32), requires_grad=True)
        s = F.add_bias(x, Tensor(np.zeros(3, np.float32), requires_grad=True), charge)
        out = F.concat(s, s, charge)
        g = rng.standard_normal((4, 6)).astype(np.float32)
        g_before = g.copy()
        out.backward(g)
        np.testing.assert_array_equal(g, g_before)
        np.testing.assert_array_equal(x.grad, g_before[:, :3] + g_before[:, 3:])


def _saved_case(op, charge, rng):
    """``(inputs, output, saved)`` of one op on fresh leaves, where
    ``saved`` names the input arrays (``"out"``: the op's own output)
    that its backward reads."""

    def leaf(shape, requires_grad=True):
        return Tensor(rng.standard_normal(shape).astype(np.float32),
                      requires_grad=requires_grad)

    graph = GraphPair(csr_from_dense((rng.random((6, 6)) < 0.5).astype(np.float32)))
    x, w = leaf((6, 4)), leaf((4, 3))
    if op == "matmul":
        return {"x": x, "w": w}, F.matmul(x, w, charge), {"x", "w"}
    if op == "matmul-frozen-w":  # no dW: the block is not saved
        w = leaf((4, 3), requires_grad=False)
        return {"x": x, "w": w}, F.matmul(x, w, charge), {"w"}
    if op == "matmul-frozen-x":  # no dX: W is not saved
        x = leaf((6, 4), requires_grad=False)
        return {"x": x, "w": w}, F.matmul(x, w, charge), {"x"}
    if op == "matmul-csr":  # dW reads the stored transposed CSR, not .data
        x = _sparse_leaf(rng, (6, 4), density=0.4)
        return {"x": x, "w": w}, F.matmul(x, w, charge), set()
    if op == "matmul-blocks-bias":
        y, w, b = leaf((6, 2)), leaf((6, 3)), leaf((3,))
        out = F.matmul((x, y), w, charge, bias=b)
        return {"x": x, "y": y, "w": w, "b": b}, out, {"x", "y", "w"}
    if op == "add_bias":
        b = leaf((4,))
        return {"x": x, "b": b}, F.add_bias(x, b, charge), set()
    if op == "relu":
        return {"x": x}, F.relu(x, charge), set()
    if op == "dropout":
        return {"x": x}, F.dropout(x, 0.5, charge, training=True, rng=rng), set()
    if op == "log_softmax":
        return {"x": x}, F.log_softmax(x, charge), {"out"}
    if op == "nll_loss":
        return {"x": x}, F.nll_loss(x, np.arange(6) % 4, charge), set()
    if op == "concat":
        y = leaf((6, 2))
        return {"x": x, "y": y}, F.concat(x, y, charge), set()
    if op == "aggregate_sum":
        return {"x": x}, aggregate_sum(graph, x, charge), set()
    assert op == "aggregate_max"
    return {"x": x}, aggregate_max(graph, x, charge), set()


class TestSavedArrays:
    """A graph node holds no activations: once the caller drops the
    tensors, an op's input (or output) array stays alive if and only if
    that op's backward reads it, and ``backward()`` frees what it kept."""

    @pytest.mark.parametrize("op", [
        "matmul", "matmul-frozen-w", "matmul-frozen-x", "matmul-csr", "matmul-blocks-bias",
        "add_bias", "relu", "dropout", "log_softmax", "nll_loss", "concat",
        "aggregate_sum", "aggregate_max",
    ])
    def test_an_array_lives_on_iff_the_backward_reads_it(self, op, charge, rng):
        gc.disable()
        try:
            inputs, out, saved = _saved_case(op, charge, rng)
            probes = {name: weakref.ref(t.data) for name, t in inputs.items()}
            probes["out"] = weakref.ref(out.data)
            node = out.node
            del inputs, out
            assert {name for name, p in probes.items() if p() is not None} == saved
            node.backward(np.ones(node.shape, dtype=np.float32))
            assert all(p() is None for p in probes.values())
        finally:
            gc.enable()


class TestOperatorGradients:
    def test_matmul_grads(self, charge, rng):
        x = Tensor(rng.standard_normal((4, 5)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.standard_normal((5, 3)).astype(np.float32), requires_grad=True)
        out = F.matmul(x, w, charge)
        g = rng.standard_normal(out.shape).astype(np.float32)
        out.backward(g)
        np.testing.assert_allclose(x.grad, g @ w.data.T, rtol=1e-4)
        np.testing.assert_allclose(w.grad, x.data.T @ g, rtol=1e-4)

    def test_matmul_shape_check(self, charge):
        with pytest.raises(ValueError):
            F.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))), charge)

    @pytest.mark.parametrize("op_name", ["relu", "log_softmax"])
    def test_elementwise_numerical_grad(self, charge, rng, op_name):
        data = rng.standard_normal((3, 4)).astype(np.float32) + 0.1
        op = getattr(F, op_name)
        g_out = rng.standard_normal((3, 4)).astype(np.float32)

        def forward_scalar():
            t = Tensor(data)
            return float((op(t, charge).data * g_out).sum())

        t = Tensor(data.copy(), requires_grad=True)
        out = op(t, charge)
        out.backward(g_out)
        num = numerical_grad(forward_scalar, data)
        np.testing.assert_allclose(t.grad, num, rtol=2e-2, atol=2e-3)

    def test_bias_grads(self, charge, rng):
        x = Tensor(rng.standard_normal((4, 3)).astype(np.float32), requires_grad=True)
        b = Tensor(rng.standard_normal(3).astype(np.float32), requires_grad=True)
        out = F.add_bias(x, b, charge)
        g = rng.standard_normal((4, 3)).astype(np.float32)
        out.backward(g)
        np.testing.assert_allclose(x.grad, g)
        np.testing.assert_allclose(b.grad, g.sum(axis=0), rtol=1e-5)

    def test_nll_loss_grad(self, charge, rng):
        data = rng.standard_normal((5, 3)).astype(np.float32)
        labels = np.array([0, 2, 1, 0, 2])
        mask = np.array([True, True, False, True, False])

        def forward_scalar():
            t = Tensor(data)
            lp = F.log_softmax(t, charge)
            return float(F.nll_loss(lp, labels, charge, mask=mask).data)

        t = Tensor(data.copy(), requires_grad=True)
        loss = F.nll_loss(F.log_softmax(t, charge), labels, charge, mask=mask)
        loss.backward()
        num = numerical_grad(forward_scalar, data)
        np.testing.assert_allclose(t.grad, num, rtol=2e-2, atol=2e-3)

    def test_nll_empty_mask_rejected(self, charge):
        lp = Tensor(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            F.nll_loss(lp, np.array([0, 1]), charge, mask=np.zeros(2, dtype=bool))

    def test_dropout_training_scaling(self, charge, rng):
        x = Tensor(np.ones((200, 50), dtype=np.float32), requires_grad=True)
        out = F.dropout(x, 0.4, charge, training=True, rng=rng)
        kept = out.data != 0
        assert 0.5 < kept.mean() < 0.7  # ~60% kept
        np.testing.assert_allclose(out.data[kept], 1 / 0.6, rtol=1e-5)
        out.backward(np.ones_like(out.data))
        np.testing.assert_allclose(x.grad[kept], 1 / 0.6, rtol=1e-5)
        assert np.all(x.grad[~kept] == 0)

    def test_dropout_mask_matches_one_draw(self, charge):
        """The mask is drawn in row blocks; it must equal, bit for bit,
        the mask of one ``rng.random`` over the whole shape and leave the
        generator in the same state.  (5000, 300) spans two blocks."""
        x = np.random.default_rng(1).standard_normal((5000, 300)).astype(np.float32)
        one_draw, blocked = np.random.default_rng(7), np.random.default_rng(7)
        keep = (one_draw.random(x.shape) >= 0.3).astype(np.float32) / (1.0 - 0.3)
        out = F.dropout(Tensor(x), 0.3, charge, training=True, rng=blocked)
        np.testing.assert_array_equal(out.data, x * keep)
        assert one_draw.random() == blocked.random()

    def test_dropout_eval_identity(self, charge, rng):
        x = Tensor(np.ones((4, 4), dtype=np.float32))
        out = F.dropout(x, 0.9, charge, training=False, rng=rng)
        assert out is x

    def test_dropout_invalid_p(self, charge, rng):
        with pytest.raises(ValueError):
            F.dropout(Tensor(np.ones(2)), 1.5, charge, training=True, rng=rng)

    def test_concat_grads(self, charge, rng):
        a = Tensor(rng.standard_normal((3, 2)).astype(np.float32), requires_grad=True)
        b = Tensor(rng.standard_normal((3, 4)).astype(np.float32), requires_grad=True)
        out = F.concat(a, b, charge)
        assert out.shape == (3, 6)
        g = rng.standard_normal((3, 6)).astype(np.float32)
        out.backward(g)
        np.testing.assert_allclose(a.grad, g[:, :2])
        np.testing.assert_allclose(b.grad, g[:, 2:])

    def test_device_time_recorded_both_directions(self, backend, rng):
        x = Tensor(rng.standard_normal((8, 8)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.standard_normal((8, 8)).astype(np.float32), requires_grad=True)
        out = F.matmul(x, w, backend.charge)
        device = backend.device
        fwd_calls = device.profile().calls.get("GEMM", 0)
        out.backward(np.ones_like(out.data))
        assert device.profile().calls["GEMM"] == fwd_calls + 2  # dX and dW


def _sparse_leaf(rng, shape, density=0.1):
    """A bag-of-words-like leaf that carries its CSR."""
    data = (rng.random(shape) < density).astype(np.float32)
    return Tensor(data, csr=csr_from_dense(data), csr_t=csr_from_dense(data.T))


class TestBlockMatmul:
    """``F.matmul`` over column blocks with a bias against the
    ``concat → matmul → add_bias`` chain in ``tests/references.py``."""

    @staticmethod
    def _operands(rng, n_blocks, with_bias, first):
        m, widths, n = 9, (5, 4)[:n_blocks], 3
        blocks = [Tensor(rng.standard_normal((m, k)).astype(np.float32),
                         requires_grad=first != "frozen")
                  for k in widths]
        if first == "csr":
            blocks[0] = _sparse_leaf(rng, (m, widths[0]), density=0.4)
        w = Tensor(rng.standard_normal((sum(widths), n)).astype(np.float32), requires_grad=True)
        b = (Tensor(rng.standard_normal(n).astype(np.float32), requires_grad=True)
             if with_bias else None)
        return blocks, w, b

    # "frozen": no block requires grad, so the chain has no concat backward.
    @pytest.mark.parametrize("first", ["dense", "csr", "frozen"])
    @pytest.mark.parametrize("with_bias", [False, True], ids=["nobias", "bias"])
    @pytest.mark.parametrize("n_blocks", [1, 2])
    def test_matches_concat_reference(self, rng, n_blocks, with_bias, first):
        blocks, w, b = self._operands(rng, n_blocks, with_bias, first)
        g = rng.standard_normal((9, 3)).astype(np.float32)
        ops_new, ops_ref = [], []
        out = F.matmul(tuple(blocks), w, ops_new.append, bias=b)
        fwd_new = list(ops_new)

        def clone(t):
            if t is None:
                return None
            return Tensor(t.data.copy(), requires_grad=t.requires_grad)

        blocks_ref, w_ref, b_ref = [clone(t) for t in blocks], clone(w), clone(b)
        ref = references.concat_matmul_bias(blocks_ref, w_ref, ops_ref.append, bias=b_ref)
        assert fwd_new == ops_ref  # forward charges, in order
        np.testing.assert_allclose(out.data, ref.data, rtol=1e-5, atol=1e-5)

        out.backward(g)
        ref.backward(g)
        assert ops_new == ops_ref  # and the backward charges
        np.testing.assert_allclose(w.grad, w_ref.grad, rtol=1e-5, atol=1e-5)
        if with_bias:
            np.testing.assert_allclose(b.grad, b_ref.grad, rtol=1e-5, atol=1e-5)
        for blk, blk_ref in zip(blocks, blocks_ref):
            if blk.requires_grad:
                np.testing.assert_allclose(blk.grad, blk_ref.grad, rtol=1e-5, atol=1e-5)
            else:
                assert blk.grad is None

    def test_block_rows_and_width_checked(self, charge, rng):
        a = Tensor(np.ones((3, 2), np.float32))
        with pytest.raises(ValueError):
            F.matmul((a, Tensor(np.ones((4, 2), np.float32))), Tensor(np.ones((4, 2))), charge)
        with pytest.raises(ValueError):
            F.matmul((a, a), Tensor(np.ones((3, 2))), charge)
        with pytest.raises(ValueError):
            F.matmul(a, Tensor(np.ones((2, 2))), charge, bias=Tensor(np.zeros(3)))


class TestSparseOperand:
    def test_csr_only_on_leaves_without_grad(self, rng):
        data = np.eye(3, dtype=np.float32)
        csr = csr_from_dense(data)
        with pytest.raises(ValueError, match="leaf"):
            Tensor(data, requires_grad=True, csr=csr, csr_t=csr)
        with pytest.raises(ValueError, match="leaf"):
            Tensor(data, parents=[Tensor(data)], backward=lambda g: None, csr=csr, csr_t=csr)
        with pytest.raises(ValueError, match="shape"):
            Tensor(data[:2], csr=csr, csr_t=csr)
        with pytest.raises(ValueError, match="together"):
            Tensor(data, csr_t=csr)
        assert Tensor(data, csr=csr, csr_t=csr).size == 9

    def test_product_and_transposed_product_use_the_csr(self, charge, rng):
        x = _sparse_leaf(rng, (40, 30))
        # Poison the dense copy: only the CSR may feed the products.
        x.data = np.full_like(x.data, np.nan)
        w = Tensor(rng.standard_normal((30, 6)).astype(np.float32), requires_grad=True)
        out = F.matmul(x, w, charge)
        dense = x.csr.to_dense()
        np.testing.assert_allclose(out.data, dense @ w.data, rtol=1e-5, atol=1e-5)
        g = rng.standard_normal((40, 6)).astype(np.float32)
        out.backward(g)
        np.testing.assert_allclose(w.grad, dense.T @ g, rtol=1e-5, atol=1e-5)
        assert x.grad is None
