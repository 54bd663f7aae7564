"""Property tests: the closed-form counters equal the faithful trace.

This is the load-bearing validation of the whole memory model: for the
three core kernels, the vectorized analytic counters in ``count`` must
agree *exactly* — instruction for instruction, sector for sector — with
a warp-by-warp execution through the per-warp loop oracle
(``trace_references.spmm_trace_loop``) and its coalescing model, on
randomized matrices, feature widths (including non-multiples of 32) and
semirings, on both L1 policies.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from trace_references import spmm_trace_loop

from repro.core import CRCSpMM, CWMSpMM, GESpMM, SimpleSpMM
from repro.gpusim import GTX_1080TI, RTX_2080
from repro.semiring import MAX_TIMES, PLUS_TIMES
from repro.sparse import reference_spmm_like, uniform_random

KERNELS = {
    "simple": SimpleSpMM,
    "crc": CRCSpMM,
    "cwm2": lambda: CWMSpMM(2),
    "cwm3": lambda: CWMSpMM(3),
    # adaptive front-end: the sampled widths cross the CRC/CWM dispatch
    # threshold, so both paths get trace parity asserted through it
    "gespmm": GESpMM,
}


def _assert_stats_equal(traced, analytic):
    for field in ("instructions", "transactions", "requested_bytes"):
        assert getattr(traced.global_load, field) == getattr(analytic.global_load, field), field
        assert getattr(traced.global_store, field) == getattr(analytic.global_store, field), field
        assert getattr(traced.shared_load, field) == getattr(analytic.shared_load, field), field
        assert getattr(traced.shared_store, field) == getattr(analytic.shared_store, field), field
    assert traced.warp_syncs == analytic.warp_syncs


@pytest.mark.parametrize("kernel_factory", KERNELS.values(), ids=KERNELS.keys())
@given(
    m=st.integers(4, 60),
    density=st.integers(1, 12),
    n=st.sampled_from([1, 8, 24, 32, 40, 64, 72]),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=12, deadline=None)
def test_trace_equals_analytic(kernel_factory, m, density, n, seed):
    a = uniform_random(m=m, nnz=m * density, seed=seed)
    rng = np.random.default_rng(seed)
    b = rng.random((a.ncols, n), dtype=np.float32)
    kernel = kernel_factory()
    c, traced = spmm_trace_loop(kernel, a, b, GTX_1080TI)
    analytic, _, _ = kernel.count(a, n, GTX_1080TI)
    _assert_stats_equal(traced, analytic)
    np.testing.assert_allclose(c, reference_spmm_like(a, b), rtol=1e-4, atol=1e-4)


@pytest.mark.parametrize("kernel_factory", KERNELS.values(), ids=KERNELS.keys())
def test_trace_equals_analytic_on_turing_raw_counts(kernel_factory, rng):
    """Raw (pre-L1) counts are device independent; trace on the Turing
    model must still match the analytic raw counters."""
    a = uniform_random(m=40, nnz=300, seed=5)
    b = rng.random((a.ncols, 48), dtype=np.float32)
    kernel = kernel_factory()
    _, traced = spmm_trace_loop(kernel, a, b, RTX_2080)
    analytic, _, _ = kernel.count(a, 48, RTX_2080)
    _assert_stats_equal(traced, analytic)


@pytest.mark.parametrize("kernel_factory", KERNELS.values(), ids=KERNELS.keys())
def test_trace_with_max_semiring(kernel_factory, rng):
    a = uniform_random(m=30, nnz=240, seed=8)
    b = rng.standard_normal((a.ncols, 40)).astype(np.float32)
    kernel = kernel_factory()
    c, traced = spmm_trace_loop(kernel, a, b, GTX_1080TI, MAX_TIMES)
    np.testing.assert_allclose(c, reference_spmm_like(a, b, MAX_TIMES), rtol=1e-4, atol=1e-4)
    # Access pattern is semiring independent.
    analytic, _, _ = kernel.count(a, 40, GTX_1080TI)
    _assert_stats_equal(traced, analytic)


def test_simple_l1_filter_bounded(rng):
    """The trace's L1-filtered count on Turing is bounded by the raw
    count and (for the broadcast-heavy simple kernel) well below it."""
    a = uniform_random(m=50, nnz=1200, seed=3)
    b = rng.random((a.ncols, 64), dtype=np.float32)
    _, traced = spmm_trace_loop(SimpleSpMM(), a, b, RTX_2080)
    gl = traced.global_load
    assert 0 < gl.l1_filtered_transactions < gl.transactions
    # The analytic counter also predicts substantial filtering.  (It is
    # deliberately conservative: on tiny trace matrices the whole dense
    # operand fits in the L1 window, so the trace filters *more*.)
    analytic, _, _ = SimpleSpMM().count(a, 64, RTX_2080)
    agl = analytic.global_load
    assert 0 < agl.l1_filtered_transactions < agl.transactions
    assert agl.l1_filtered_transactions >= gl.l1_filtered_transactions
