"""Tests for the extension subsystems: minibatch training, fused
epilogues, roofline analysis, and checkpoints."""

import numpy as np
import pytest

from repro.core import CRCSpMM, FusedGESpMM, GESpMM, RELU_EPILOGUE, SimpleSpMM, bias_relu_epilogue
from repro.datasets import load_cora
from repro.gnn import (
    DGLBackend,
    GCN,
    SimDevice,
    load_checkpoint,
    save_checkpoint,
    train_minibatch,
)
from repro.gpusim import GTX_1080TI, roofline_point, roofline_report
from repro.sparse import reference_spmm, uniform_random


class TestMinibatchTraining:
    @pytest.fixture(scope="class")
    def result(self):
        ds = load_cora()
        backend = DGLBackend(SimDevice(GTX_1080TI), use_gespmm=True)
        return train_minibatch(ds, backend, batch_size=64, fanout=8, n_batches=15, seed=1)

    def test_loss_decreases(self, result):
        first = np.mean(result.losses[:3])
        last = np.mean(result.losses[-3:])
        assert last < first

    def test_profile_records_spmm(self, result):
        # Raw input features need no gradient, so only the forward
        # aggregation runs: one SpMM per batch.
        assert result.profile.calls.get("SpMM", 0) == result.batches

    def test_blocks_are_small(self, result):
        # Sampled blocks hold ~batch x fanout nonzeros, not the graph.
        assert result.avg_block_nnz < 64 * 8 * 1.2
        assert result.batches == 15

    def test_accuracy_above_chance(self, result):
        assert result.accuracy > 1.0 / 7  # 7 classes in Cora


class TestFusedEpilogue:
    @pytest.fixture(scope="class")
    def problem(self):
        a = uniform_random(2000, 20_000, seed=4)
        rng = np.random.default_rng(0)
        return a, rng.standard_normal((2000, 64)).astype(np.float32)

    def test_relu_fusion_values(self, problem):
        a, b = problem
        fused = FusedGESpMM(RELU_EPILOGUE)
        np.testing.assert_allclose(
            fused.run(a, b), np.maximum(reference_spmm(a, b), 0.0), rtol=1e-4, atol=1e-4
        )

    def test_bias_relu_values(self, problem):
        a, b = problem
        bias = np.linspace(-1, 1, 64, dtype=np.float32)
        fused = FusedGESpMM(bias_relu_epilogue())
        want = np.maximum(reference_spmm(a, b) + bias[None, :], 0.0)
        np.testing.assert_allclose(fused.run(a, b, bias=bias), want, rtol=1e-4, atol=1e-4)

    def test_bias_required(self, problem):
        a, b = problem
        with pytest.raises(ValueError):
            FusedGESpMM(bias_relu_epilogue()).run(a, b)
        with pytest.raises(ValueError):
            FusedGESpMM(bias_relu_epilogue()).run(a, b, bias=np.zeros(3, dtype=np.float32))

    def test_fusion_saves_time(self, problem):
        a, _ = problem
        fused = FusedGESpMM(RELU_EPILOGUE)
        assert fused.fusion_saving(a, 64, GTX_1080TI) > 1.0

    def test_fused_traffic_matches_inner(self, problem):
        a, _ = problem
        fused, _, _ = FusedGESpMM(RELU_EPILOGUE).count(a, 64, GTX_1080TI)
        inner, _, _ = GESpMM().count(a, 64, GTX_1080TI)
        assert fused.global_load.transactions == inner.global_load.transactions
        assert fused.flops > inner.flops


class TestRoofline:
    def test_point_fields(self):
        a = uniform_random(20_000, 200_000, seed=1)
        p = roofline_point(GESpMM(), a, 256, GTX_1080TI)
        assert p.bound == "memory"  # SpMM's AI is far below the ridge
        assert 0 < p.arithmetic_intensity < 5
        assert 0 < p.achieved_gflops < p.peak_gflops
        assert 0 < p.roof_utilization <= 1.2

    def test_crc_raises_intensity(self):
        # Fewer bytes for the same FLOPs => higher AI than Algorithm 1.
        a = uniform_random(20_000, 200_000, seed=1)
        alg1 = roofline_point(SimpleSpMM(), a, 256, GTX_1080TI)
        crc = roofline_point(CRCSpMM(), a, 256, GTX_1080TI)
        assert crc.arithmetic_intensity > alg1.arithmetic_intensity

    def test_report_text(self):
        a = uniform_random(5000, 50_000, seed=1)
        txt = roofline_report([SimpleSpMM(), GESpMM()], a, 128, GTX_1080TI)
        assert "Roofline" in txt and "GE-SpMM" in txt


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        ds = load_cora()
        model = GCN(ds.feature_dim, 8, ds.n_classes, rng=np.random.default_rng(0))
        for p in model.parameters():
            p.data = p.data + 0.5
        path = tmp_path / "model.npz"
        save_checkpoint(model, path)
        fresh = GCN(ds.feature_dim, 8, ds.n_classes, rng=np.random.default_rng(99))
        load_checkpoint(fresh, path)
        for a, b in zip(model.parameters(), fresh.parameters()):
            np.testing.assert_array_equal(a.data, b.data)

    def test_shape_mismatch_rejected(self, tmp_path):
        ds = load_cora()
        model = GCN(ds.feature_dim, 8, ds.n_classes, rng=np.random.default_rng(0))
        path = tmp_path / "model.npz"
        save_checkpoint(model, path)
        other = GCN(ds.feature_dim, 16, ds.n_classes, rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="shape mismatch"):
            load_checkpoint(other, path)

    def test_name_mismatch_rejected(self, tmp_path):
        ds = load_cora()
        model = GCN(ds.feature_dim, 8, ds.n_classes, rng=np.random.default_rng(0))
        path = tmp_path / "model.npz"
        save_checkpoint(model, path)
        deeper = GCN(ds.feature_dim, 8, ds.n_classes, n_layers=2, rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="mismatch"):
            load_checkpoint(deeper, path)

