"""Tests for the Fastspmm (ELLPACK-R) baseline."""

import dataclasses

import numpy as np
import pytest

from repro.baselines import ASpTSpMM, FastSpMM
from repro.core import GESpMM
from repro.gpusim import GTX_1080TI
from repro.gpusim.kernel import clear_estimate_memo
from repro.semiring import MAX_TIMES
from repro.sparse import (
    banded_random,
    power_law,
    reference_spmm,
    to_aspt,
    to_ellpack_r,
    uniform_random,
)
from repro.sparse.formats import ellpack_width


class TestFastSpMM:
    def test_functional_via_ellpack_layout(self, medium_csr, dense_b):
        out = FastSpMM().run(medium_csr, dense_b)
        np.testing.assert_allclose(out, reference_spmm(medium_csr, dense_b),
                                   rtol=1e-4, atol=1e-4)

    def test_refuses_general_semirings(self, medium_csr, dense_b):
        with pytest.raises(NotImplementedError):
            FastSpMM().run(medium_csr, dense_b, MAX_TIMES)

    def test_requires_preprocess(self):
        assert FastSpMM.requires_preprocess
        a = uniform_random(1000, 10_000, seed=0)
        assert FastSpMM().preprocess_time(a, GTX_1080TI) > 0

    def test_format_memoized(self):
        a = uniform_random(500, 5000, seed=0)
        k = FastSpMM()
        assert k.preprocess(a) is k.preprocess(a)

    def test_competitive_on_regular_matrices(self):
        g = banded_random(20_000, 200_000, bandwidth=16, seed=1)
        t_fs = FastSpMM().estimate(g, 256, GTX_1080TI).time_s
        t_ge = GESpMM().estimate(g, 256, GTX_1080TI).time_s
        assert t_fs / t_ge < 1.3  # near-regular rows: ELLPACK is fine

    def test_padding_destroys_power_law(self):
        g = power_law(20_000, 200_000, seed=1)
        # EllpackR.padding_ratio without building the ~720 MiB slab
        # (test_padding_ratio_needs_no_slab pins the two as equal).
        assert g.nrows * ellpack_width(g) / g.nnz > 20
        t_fs = FastSpMM().estimate(g, 256, GTX_1080TI).time_s
        t_ge = GESpMM().estimate(g, 256, GTX_1080TI).time_s
        assert t_fs / t_ge > 5  # the padded slab is streamed in full

    def test_padding_ratio_needs_no_slab(self):
        g = power_law(2_000, 20_000, seed=1)
        assert to_ellpack_r(g).padding_ratio == g.nrows * ellpack_width(g) / g.nnz

    def test_pricing_builds_no_slab(self):
        g = power_law(5_000, 50_000, seed=3)
        clear_estimate_memo()
        k = FastSpMM()
        assert k.estimate(g, 128, GTX_1080TI).time_s > 0
        assert k.preprocess_time(g, GTX_1080TI) > 0
        assert "ellpack_r" not in g._derived

    def test_slab_traffic_scales_with_padding(self):
        g_reg = banded_random(10_000, 100_000, bandwidth=8, seed=2)
        g_skew = power_law(10_000, 100_000, seed=2)
        s_reg, _, _ = FastSpMM().count(g_reg, 128, GTX_1080TI)
        s_skew, _, _ = FastSpMM().count(g_skew, 128, GTX_1080TI)
        assert s_skew.traffic("ell_slab").sectors > 5 * s_reg.traffic("ell_slab").sectors
        # ...but dense B traffic tracks the true nonzeros, not the padding.
        per_nnz_reg = s_reg.traffic("B").sectors / g_reg.nnz
        per_nnz_skew = s_skew.traffic("B").sectors / g_skew.nnz
        assert per_nnz_skew == pytest.approx(per_nnz_reg, rel=1e-6)


def _same_format(got, want) -> bool:
    return all(
        np.array_equal(getattr(got, f.name), getattr(want, f.name))
        for f in dataclasses.fields(want)
    )


@pytest.mark.parametrize("kernel_cls, build", [(FastSpMM, to_ellpack_r), (ASpTSpMM, to_aspt)])
def test_format_cache_survives_id_reuse(kernel_cls, build):
    """Matrices of varying shape are built and freed one after another: a
    matrix that reuses a freed one's ``id`` still gets its own format, and
    the kernel keeps no freed matrix alive (so ids do get reused)."""
    kernel = kernel_cls()
    seen, reused = set(), 0
    for i in range(60):
        a = uniform_random(40 + 11 * (i % 13), 400 + 37 * i, seed=i, weighted=True)
        assert _same_format(kernel.preprocess(a), build(a)), f"stale format at step {i}"
        reused += id(a) in seen
        seen.add(id(a))
        del a
    assert reused, "no id was reused: the kernel keeps freed matrices alive"
