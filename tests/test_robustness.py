"""Failure-injection and numerical-robustness tests."""

import numpy as np
import pytest
from trace_references import spmm_trace_loop

from repro.core import CRCSpMM, GESpMM, SimpleSpMM
from repro.gpusim import GTX_1080TI
from repro.semiring import MAX_TIMES, PLUS_TIMES
from repro.sparse import csr_from_coo, reference_spmm_like, uniform_random


class TestNumericalEdgeCases:
    def test_nan_propagates_like_oracle(self, rng):
        a = uniform_random(50, 400, seed=1)
        b = rng.random((50, 16), dtype=np.float32)
        b[3, :] = np.nan
        out = GESpMM().run(a, b)
        ref = reference_spmm_like(a, b)
        np.testing.assert_array_equal(np.isnan(out), np.isnan(ref))

    def test_inf_values_survive_max(self, rng):
        a = csr_from_coo([0, 0], [0, 1], [1.0, 1.0], shape=(1, 2))
        b = np.array([[np.inf], [1.0]], dtype=np.float32)
        out = GESpMM().run(a, b, MAX_TIMES)
        assert out[0, 0] == np.inf

    def test_large_magnitudes_no_overflow_to_nan(self, rng):
        a = uniform_random(100, 1000, seed=2, weighted=True)
        b = np.full((100, 8), 1e30, dtype=np.float32)
        out = GESpMM().run(a, b)
        assert not np.isnan(out).any()  # may be inf, must not be nan

    def test_negative_zero_row(self):
        a = csr_from_coo([0], [0], [0.0], shape=(2, 2))  # explicit zero entry
        b = np.ones((2, 4), dtype=np.float32)
        out = GESpMM().run(a, b)
        assert not out.any()

    def test_float32_accumulation_tolerance(self, rng):
        # Long rows accumulate in different orders across kernels; results
        # must agree within float32 reduction tolerance.
        cols = np.arange(5000)
        a = csr_from_coo(np.zeros(5000, dtype=int), cols,
                         rng.standard_normal(5000), shape=(1, 5000))
        b = rng.standard_normal((5000, 4)).astype(np.float32)
        outs = [k.run(a, b) for k in (SimpleSpMM(), CRCSpMM(), GESpMM())]
        for o in outs[1:]:
            np.testing.assert_allclose(o, outs[0], rtol=1e-3, atol=1e-2)


class TestDefensiveInterfaces:
    def test_kernel_rejects_shape_mismatch(self, rng):
        a = uniform_random(30, 200, seed=1)
        with pytest.raises(ValueError):
            GESpMM().run(a, rng.random((31, 8), dtype=np.float32))

    def test_estimate_semiring_independent_pattern(self):
        # Semirings share access patterns: estimates must agree.
        a = uniform_random(2000, 20_000, seed=3)
        k = GESpMM()
        t_sum = k.estimate(a, 64, GTX_1080TI, PLUS_TIMES).time_s
        t_max = k.estimate(a, 64, GTX_1080TI, MAX_TIMES).time_s
        assert t_sum == pytest.approx(t_max)

    def test_immutable_csr_inputs(self, rng):
        # Kernels must not mutate their operands.
        a = uniform_random(40, 300, seed=4, weighted=True)
        b = rng.random((40, 8), dtype=np.float32)
        vals_before = a.values.copy()
        b_before = b.copy()
        GESpMM().run(a, b)
        GESpMM().count(a, b.shape[1], GTX_1080TI)
        spmm_trace_loop(GESpMM(), a, b, GTX_1080TI)
        np.testing.assert_array_equal(a.values, vals_before)
        np.testing.assert_array_equal(b, b_before)

    def test_dataclass_frozen_csr(self, rng):
        a = uniform_random(10, 50, seed=5)
        with pytest.raises(Exception):
            a.shape = (1, 1)


class TestCooInputValidation:
    @pytest.mark.parametrize("rows,cols", [
        ([0.7], [1.2]),
        ([0], [1.5]),
        ([np.nan], [0]),
        ([0], [np.inf]),
    ])
    def test_non_integer_coordinates_rejected(self, rows, cols):
        with pytest.raises(ValueError, match="finite integers"):
            csr_from_coo(rows, cols, [1.0], shape=(2, 2))

    def test_empty_and_integer_valued_coordinates_accepted(self):
        assert csr_from_coo([], [], [], shape=(2, 2)).nnz == 0
        a = csr_from_coo(np.array([1.0, 0.0]), [1.0, 1.0], [2.0, 3.0], shape=(2, 2))
        np.testing.assert_array_equal(a.rowptr, [0, 1, 2])
        np.testing.assert_array_equal(a.colind, [1, 1])
        np.testing.assert_array_equal(a.values, [3.0, 2.0])

    def test_negative_shape_reported_before_indices(self):
        with pytest.raises(ValueError, match="negative dimensions"):
            csr_from_coo([0], [1], [1.0], shape=(2, -3))
