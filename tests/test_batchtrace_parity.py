"""Byte-identity of the batched replay engine against the per-warp loops.

The tentpole contract of ``repro.gpusim.batchtrace``: every kernel's
vectorized ``trace`` must reproduce its per-warp loop replay
(``trace_references.spmm_trace_loop`` / ``sddmm_trace_xy_loop``) down to
the last counter — instructions, transactions, requested bytes, the
Turing L1 recency-filtered sector count, per-array traffic — *and* the
numeric output array must be bit-identical (``array_equal``, not
allclose), because both paths must execute the same floating-point
operation sequence.  docs/PERFORMANCE.md documents this contract; this
suite enforces it on a sample of the conformance grid's axes.
"""

from __future__ import annotations

import numpy as np
import pytest
from trace_references import sddmm_trace_xy_loop, spmm_trace_loop

from repro.core import (
    CRCSpMM,
    CWMSpMM,
    FusedGESpMM,
    GESDDMM,
    GESpMM,
    SimpleSpMM,
    bias_relu_epilogue,
)
from repro.core.semiring import MAX_TIMES, MEAN_TIMES, MIN_TIMES, PLUS_TIMES
from repro.gpusim import GTX_1080TI, RTX_2080
from repro.sparse import power_law, uniform_random

KERNELS = {
    "simple": SimpleSpMM,
    "crc": CRCSpMM,
    "cwm3": lambda: CWMSpMM(3),
    "gespmm": GESpMM,
    "fused-relu": FusedGESpMM,
}

MATRICES = {
    "uniform": lambda: uniform_random(m=30, nnz=180, seed=7),
    "powerlaw": lambda: power_law(m=36, nnz=288, exponent=1.9, seed=7),
    "empty-rows": lambda: uniform_random(m=48, nnz=24, seed=7),
}


def assert_stats_identical(batch, loop, context=""):
    """Every counter the timing model can see, including the L1 filter
    output and the per-array traffic ledger."""
    for stream in ("global_load", "global_store", "shared_load", "shared_store"):
        b, l = getattr(batch, stream), getattr(loop, stream)
        for f in ("instructions", "transactions", "requested_bytes",
                  "l1_filtered_transactions"):
            assert getattr(b, f) == getattr(l, f), (
                f"{context} {stream}.{f}: batch={getattr(b, f)} "
                f"loop={getattr(l, f)}"
            )
    assert set(batch.array_traffic) == set(loop.array_traffic), context
    for name in loop.array_traffic:
        bt, lt = batch.array_traffic[name], loop.array_traffic[name]
        assert bt.sectors == lt.sectors, f"{context} traffic[{name}].sectors"
        assert bt.unique_bytes == lt.unique_bytes, (
            f"{context} traffic[{name}].unique_bytes"
        )
    assert batch.warp_syncs == loop.warp_syncs, context
    assert batch.flops == loop.flops, context


@pytest.mark.parametrize("gpu", [GTX_1080TI, RTX_2080], ids=lambda g: g.name)
@pytest.mark.parametrize("matrix_id", MATRICES)
@pytest.mark.parametrize("kernel_id", KERNELS)
@pytest.mark.parametrize("n", (1, 8, 40))
def test_batch_matches_loop(kernel_id, matrix_id, n, gpu):
    a = MATRICES[matrix_id]()
    rng = np.random.default_rng(42)
    b = rng.standard_normal((a.ncols, n)).astype(np.float32)
    kernel = KERNELS[kernel_id]()
    c_batch, s_batch = kernel.trace(a, b, gpu)
    c_loop, s_loop = spmm_trace_loop(kernel, a, b, gpu)
    ctx = f"{kernel.name} {matrix_id} n={n} {gpu.name}"
    assert_stats_identical(s_batch, s_loop, ctx)
    # Bit-identity, not tolerance: same fp operation order on both paths.
    np.testing.assert_array_equal(c_batch, c_loop, err_msg=ctx)


@pytest.mark.parametrize(
    "semiring", [PLUS_TIMES, MAX_TIMES, MIN_TIMES, MEAN_TIMES],
    ids=lambda s: s.name,
)
@pytest.mark.parametrize("kernel_id", ("simple", "crc", "cwm3", "gespmm"))
def test_batch_matches_loop_semirings(kernel_id, semiring):
    """The row fold must replay the scalar accumulation order for every
    builtin semiring (plus/max/min/mean), not just plus-times."""
    a = MATRICES["powerlaw"]()
    rng = np.random.default_rng(11)
    b = rng.standard_normal((a.ncols, 24)).astype(np.float32)
    kernel = KERNELS[kernel_id]()
    c_batch, s_batch = kernel.trace(a, b, GTX_1080TI, semiring)
    c_loop, s_loop = spmm_trace_loop(kernel, a, b, GTX_1080TI, semiring)
    ctx = f"{kernel.name} {semiring.name}"
    assert_stats_identical(s_batch, s_loop, ctx)
    np.testing.assert_array_equal(c_batch, c_loop, err_msg=ctx)


@pytest.mark.parametrize("gpu", [GTX_1080TI, RTX_2080], ids=lambda g: g.name)
@pytest.mark.parametrize("n", (8, 40))
def test_batch_matches_loop_fused_bias(n, gpu):
    a = MATRICES["powerlaw"]()
    rng = np.random.default_rng(5)
    b = rng.standard_normal((a.ncols, n)).astype(np.float32)
    bias = rng.standard_normal(n).astype(np.float32)
    kernel = FusedGESpMM(bias_relu_epilogue())
    c_batch, s_batch = kernel.trace(a, b, gpu, bias=bias)
    c_loop, s_loop = spmm_trace_loop(kernel, a, b, gpu, bias=bias)
    ctx = f"fused-bias n={n} {gpu.name}"
    assert_stats_identical(s_batch, s_loop, ctx)
    np.testing.assert_array_equal(c_batch, c_loop, err_msg=ctx)


@pytest.mark.parametrize("gpu", [GTX_1080TI, RTX_2080], ids=lambda g: g.name)
@pytest.mark.parametrize("matrix_id", MATRICES)
@pytest.mark.parametrize("n", (8, 16, 40))
def test_batch_matches_loop_sddmm(matrix_id, n, gpu):
    mask = MATRICES[matrix_id]()
    rng = np.random.default_rng(3)
    x = rng.standard_normal((mask.nrows, n)).astype(np.float32)
    y = rng.standard_normal((mask.ncols, n)).astype(np.float32)
    kernel = GESDDMM()
    e_batch, s_batch = kernel.trace_xy(mask, x, y, gpu)
    e_loop, s_loop = sddmm_trace_xy_loop(kernel, mask, x, y, gpu)
    ctx = f"sddmm {matrix_id} n={n} {gpu.name}"
    assert_stats_identical(s_batch, s_loop, ctx)
    np.testing.assert_array_equal(e_batch.values, e_loop.values, err_msg=ctx)


def test_sddmm_trace_stub_is_pointed():
    """GESDDMM.trace cannot honour the SpMMKernel trace signature (two
    dense operands); the stub must say so and point at trace_xy."""
    mask = MATRICES["uniform"]()
    b = np.ones((mask.ncols, 8), dtype=np.float32)
    with pytest.raises(NotImplementedError, match=r"trace_xy\(mask, x, y, gpu\)"):
        GESDDMM().trace(mask, b, GTX_1080TI)
