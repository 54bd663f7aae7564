"""Trace/analytic conformance grid across *every* kernel model.

The benchmark gate (`repro.bench.gate`) certifies that `BENCH_spmm.json`
did not drift — but the numbers in that document come from the analytic
counters, so the gate is only as trustworthy as `count`.  This suite
guards the gate's inputs: for every kernel model with a per-warp loop
oracle in `trace_references` (simple / CRC / CWM / adaptive GE-SpMM /
merge-path / fused epilogues / SDDMM), the closed-form counters must
agree instruction-for-instruction and sector-for-sector with that
faithful warp-by-warp execution, across a seeded grid of random CSR
matrices varying density, row-length skew, feature width, and GPU spec.

The default grid keeps tier-1 fast; the `slow`-marked sweep widens every
axis and runs in CI's dedicated conformance job (see
`.github/workflows/ci.yml`).
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
    MergePathSpMM,
    SimpleSpMM,
    bias_relu_epilogue,
)
from repro.core.sddmm import reference_sddmm
from repro.gpusim import GTX_1080TI, RTX_2080
from repro.sparse import power_law, reference_spmm_like, uniform_random

# -- the grid axes ----------------------------------------------------------

#: matrix regimes: (id, factory(seed)) — uniform at two densities plus
#: heavy-tailed row-length skew, the regime that breaks warp-per-row
#: heuristics (Yang et al., "Design Principles for Sparse Matrix
#: Multiplication on the GPU").
MATRICES = {
    "uniform-sparse": lambda seed: uniform_random(m=36, nnz=144, seed=seed),
    "uniform-dense": lambda seed: uniform_random(m=24, nnz=288, seed=seed),
    "powerlaw-skew": lambda seed: power_law(m=40, nnz=320, exponent=2.1, seed=seed),
    "powerlaw-hub": lambda seed: power_law(m=32, nnz=256, exponent=1.7, seed=seed),
}

#: SpMM-shaped kernels the (a, b, gpu) loop oracle replays.
SPMM_KERNELS = {
    "simple": SimpleSpMM,
    "crc": CRCSpMM,
    "cwm2": lambda: CWMSpMM(2),
    "cwm3": lambda: CWMSpMM(3),
    "cwm4": lambda: CWMSpMM(4),
    "gespmm": GESpMM,  # adaptive: exercises both dispatch paths via N
    "mergepath": MergePathSpMM,  # work-balanced: splits rows across warps
    "fused-relu": FusedGESpMM,
}

FAST_WIDTHS = (8, 40)  # one per adaptive-dispatch path; 40 is not 32-aligned
FAST_SEEDS = (0, 1)
SLOW_WIDTHS = (1, 24, 32, 64, 96)
SLOW_SEEDS = (2, 3, 4)


def assert_stats_equal(traced, analytic, context=""):
    """Exact parity on every access stream the timing model consumes."""
    for stream in ("global_load", "global_store", "shared_load", "shared_store"):
        for f in ("instructions", "transactions", "requested_bytes"):
            t = getattr(getattr(traced, stream), f)
            a = getattr(getattr(analytic, stream), f)
            assert t == a, f"{context} {stream}.{f}: trace={t} analytic={a}"
    assert traced.warp_syncs == analytic.warp_syncs, (
        f"{context} warp_syncs: trace={traced.warp_syncs} "
        f"analytic={analytic.warp_syncs}"
    )


def check_spmm_kernel(kernel_factory, matrix_factory, n, gpu, seed):
    a = matrix_factory(seed)
    rng = np.random.default_rng(seed + 1000)
    b = rng.random((a.ncols, n), dtype=np.float32)
    kernel = kernel_factory()
    c, traced = spmm_trace_loop(kernel, a, b, gpu)
    analytic, _, _ = kernel.count(a, n, gpu)
    assert_stats_equal(traced, analytic, f"{kernel.name} n={n} {gpu.name}")
    ref = reference_spmm_like(a, b)
    if isinstance(kernel, FusedGESpMM):
        ref = kernel.epilogue.fn(ref, None)
    np.testing.assert_allclose(c, ref, rtol=1e-4, atol=1e-4)


def check_fused_bias_kernel(matrix_factory, n, gpu, seed):
    a = matrix_factory(seed)
    rng = np.random.default_rng(seed + 2000)
    b = rng.standard_normal((a.ncols, n)).astype(np.float32)
    bias = rng.standard_normal(n).astype(np.float32)
    kernel = FusedGESpMM(bias_relu_epilogue())
    c, traced = spmm_trace_loop(kernel, a, b, gpu, bias=bias)
    analytic, _, _ = kernel.count(a, n, gpu)
    assert_stats_equal(traced, analytic, f"{kernel.name} n={n} {gpu.name}")
    ref = np.maximum(reference_spmm_like(a, b) + bias[None, :], 0.0)
    np.testing.assert_allclose(c, ref, rtol=1e-4, atol=1e-4)


def check_sddmm_kernel(matrix_factory, n, gpu, seed):
    # Analytic SDDMM counters assume sector-aligned dense rows (N % 8 == 0),
    # per the model's documented caveat; functional output is exact always.
    mask = matrix_factory(seed)
    rng = np.random.default_rng(seed + 3000)
    x = rng.random((mask.nrows, n), dtype=np.float32)
    y = rng.random((mask.ncols, n), dtype=np.float32)
    kernel = GESDDMM()
    e, traced = sddmm_trace_xy_loop(kernel, mask, x, y, gpu)
    ref = reference_sddmm(mask, x, y)
    np.testing.assert_allclose(e.values, ref.values, rtol=1e-4, atol=1e-5)
    if n % 8 == 0:
        analytic, _, _ = kernel.count(mask, n, gpu)
        assert_stats_equal(traced, analytic, f"sddmm n={n} {gpu.name}")


# -- fast grid (tier-1) -----------------------------------------------------


@pytest.mark.parametrize("matrix_id", MATRICES)
@pytest.mark.parametrize("kernel_id", SPMM_KERNELS)
@pytest.mark.parametrize("n", FAST_WIDTHS)
def test_grid_spmm(kernel_id, matrix_id, n):
    check_spmm_kernel(SPMM_KERNELS[kernel_id], MATRICES[matrix_id], n,
                      GTX_1080TI, seed=FAST_SEEDS[0])


@pytest.mark.parametrize("matrix_id", MATRICES)
@pytest.mark.parametrize("n", FAST_WIDTHS)
def test_grid_fused_bias(matrix_id, n):
    check_fused_bias_kernel(MATRICES[matrix_id], n, GTX_1080TI,
                            seed=FAST_SEEDS[0])


@pytest.mark.parametrize("matrix_id", MATRICES)
@pytest.mark.parametrize("n", FAST_WIDTHS)
def test_grid_sddmm(matrix_id, n):
    check_sddmm_kernel(MATRICES[matrix_id], n, GTX_1080TI, seed=FAST_SEEDS[0])


@pytest.mark.parametrize("kernel_id", sorted(SPMM_KERNELS))
def test_grid_turing_spec(kernel_id):
    """Raw (pre-L1) counters are device independent: parity must also
    hold against the Turing spec with its unified L1."""
    check_spmm_kernel(SPMM_KERNELS[kernel_id], MATRICES["powerlaw-skew"],
                      FAST_WIDTHS[1], RTX_2080, seed=FAST_SEEDS[1])


@pytest.mark.parametrize("seed", SLOW_SEEDS)
@pytest.mark.parametrize("matrix_id", ("uniform-sparse", "uniform-dense"))
@pytest.mark.parametrize("kernel_id", ("crc", "cwm2", "cwm3", "cwm4"))
@pytest.mark.parametrize("n", SLOW_WIDTHS)
def test_grid_crc_cwm_uniform(kernel_id, matrix_id, n, seed):
    """CRC/CWM x uniform-matrix slice of the full grid, run in tier-1:
    every shared-memory kernel variant at full width/seed coverage on
    every push, not just in the nightly conformance job.  The matrices
    are small enough (<= 36 rows) that the per-warp loop oracle keeps
    this slice to a few seconds."""
    check_spmm_kernel(SPMM_KERNELS[kernel_id], MATRICES[matrix_id], n,
                      GTX_1080TI, seed)


def test_grid_empty_rows_edge():
    """A matrix with guaranteed empty rows (m >> nnz) must stay in parity:
    empty rows issue no B loads yet still store the init value."""
    factory = lambda seed: uniform_random(m=48, nnz=24, seed=seed)
    for kernel_id in ("simple", "crc", "cwm2", "gespmm", "mergepath"):
        check_spmm_kernel(SPMM_KERNELS[kernel_id], factory, 40,
                          GTX_1080TI, seed=9)
    check_sddmm_kernel(factory, 16, GTX_1080TI, seed=9)


# -- slow grid (CI conformance job) -----------------------------------------


@pytest.mark.slow
@pytest.mark.parametrize("seed", SLOW_SEEDS)
@pytest.mark.parametrize("gpu", [GTX_1080TI, RTX_2080], ids=lambda g: g.name)
@pytest.mark.parametrize("matrix_id", MATRICES)
@pytest.mark.parametrize("kernel_id", SPMM_KERNELS)
@pytest.mark.parametrize("n", SLOW_WIDTHS)
def test_grid_spmm_full(kernel_id, matrix_id, n, gpu, seed):
    check_spmm_kernel(SPMM_KERNELS[kernel_id], MATRICES[matrix_id], n, gpu, seed)


@pytest.mark.slow
@pytest.mark.parametrize("seed", SLOW_SEEDS)
@pytest.mark.parametrize("gpu", [GTX_1080TI, RTX_2080], ids=lambda g: g.name)
@pytest.mark.parametrize("matrix_id", MATRICES)
@pytest.mark.parametrize("n", SLOW_WIDTHS)
def test_grid_fused_bias_full(matrix_id, n, gpu, seed):
    check_fused_bias_kernel(MATRICES[matrix_id], n, gpu, seed)


@pytest.mark.slow
@pytest.mark.parametrize("seed", SLOW_SEEDS)
@pytest.mark.parametrize("gpu", [GTX_1080TI, RTX_2080], ids=lambda g: g.name)
@pytest.mark.parametrize("matrix_id", MATRICES)
@pytest.mark.parametrize("n", SLOW_WIDTHS)
def test_grid_sddmm_full(matrix_id, n, gpu, seed):
    check_sddmm_kernel(MATRICES[matrix_id], n, gpu, seed)
