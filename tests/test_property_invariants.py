"""Hypothesis property tests on core data structures and invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
import references
from trace_references import warp_sector_count

from repro.core.access_profile import access_profile, dense_segments
from repro.gpusim.memory import segment_sectors
from repro.semiring import MAX_TIMES, MEAN_TIMES, PLUS_TIMES
from repro.sparse import (
    CSRMatrix,
    csr_from_coo,
    csr_from_dense,
    reference_spmm,
    reference_spmm_like,
    uniform_random,
)

# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------

small_dense = arrays(
    np.float32,
    st.tuples(st.integers(1, 12), st.integers(1, 12)),
    elements=st.floats(-10, 10, width=32).map(
        lambda x: np.float32(0.0) if abs(x) < 0.5 else np.float32(x)
    ),
)


@st.composite
def random_csr(draw, max_m=40, max_k=40, max_nnz=200):
    m = draw(st.integers(1, max_m))
    k = draw(st.integers(1, max_k))
    nnz = draw(st.integers(0, min(max_nnz, m * k)))
    seed = draw(st.integers(0, 2**20))
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, m, size=nnz)
    cols = rng.integers(0, k, size=nnz)
    vals = rng.standard_normal(nnz).astype(np.float32)
    return csr_from_coo(rows, cols, vals, shape=(m, k), sum_duplicates=True)


# ----------------------------------------------------------------------
# CSR structure invariants
# ----------------------------------------------------------------------


@given(small_dense)
@settings(max_examples=40, deadline=None)
def test_dense_csr_roundtrip(dense):
    np.testing.assert_array_equal(csr_from_dense(dense).to_dense(), dense)


@given(random_csr())
@settings(max_examples=40, deadline=None)
def test_transpose_involution(a):
    np.testing.assert_allclose(
        a.transpose().transpose().to_dense(), a.to_dense(), rtol=1e-6
    )


@st.composite
def raw_csr(draw, max_m=30, max_k=30, max_nnz=150):
    """CSR straight from its arrays: duplicate entries and unsorted
    columns within a row, which ``csr_from_coo`` would never build."""
    m = draw(st.integers(0, max_m))
    k = draw(st.integers(0, max_k))
    nnz = draw(st.integers(0, max_nnz)) if m and k else 0
    rng = np.random.default_rng(draw(st.integers(0, 2**20)))
    rows = np.sort(rng.integers(0, m, size=nnz)) if nnz else np.zeros(0, np.int64)
    rowptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=m))])
    cols = rng.integers(0, max(k, 1), size=nnz) if nnz else np.zeros(0, np.int64)
    vals = rng.standard_normal(nnz).astype(np.float32)
    return CSRMatrix((m, k), rowptr, cols, vals)


@given(raw_csr())
@settings(max_examples=60, deadline=None)
def test_transpose_matches_the_coo_reference(a):
    """The stable column sort gives the COO lexsort's arrays bit for bit."""
    got, ref = a.transpose(), references.transpose_via_coo(a)
    assert got.shape == ref.shape
    for name in ("rowptr", "colind", "values"):
        x, y = getattr(got, name), getattr(ref, name)
        assert x.dtype == y.dtype
        np.testing.assert_array_equal(x.view(np.uint32), y.view(np.uint32))


@given(random_csr())
@settings(max_examples=40, deadline=None)
def test_rowptr_consistent_with_lengths(a):
    assert int(a.row_lengths().sum()) == a.nnz
    assert a.rowptr[-1] == a.nnz


@given(random_csr())
@settings(max_examples=30, deadline=None)
def test_row_normalization_rows_sum_to_one_or_zero(a):
    sums = np.abs(a.with_values(np.abs(a.values) + 0.1).row_normalized().to_dense()).sum(axis=1)
    occupied = a.row_lengths() > 0
    np.testing.assert_allclose(sums[occupied], 1.0, rtol=1e-4)
    np.testing.assert_allclose(sums[~occupied], 0.0)


# ----------------------------------------------------------------------
# SpMM algebraic invariants
# ----------------------------------------------------------------------


@given(random_csr(), st.integers(1, 9), st.integers(0, 2**16))
@settings(max_examples=30, deadline=None)
def test_spmm_linearity(a, n, seed):
    rng = np.random.default_rng(seed)
    b1 = rng.standard_normal((a.ncols, n)).astype(np.float32)
    b2 = rng.standard_normal((a.ncols, n)).astype(np.float32)
    lhs = reference_spmm(a, b1 + b2)
    rhs = reference_spmm(a, b1) + reference_spmm(a, b2)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-3, atol=1e-3)


@given(random_csr(), st.integers(1, 9), st.integers(0, 2**16))
@settings(max_examples=30, deadline=None)
def test_mean_bounded_by_max(a, n, seed):
    rng = np.random.default_rng(seed)
    b = rng.random((a.ncols, n), dtype=np.float32)  # positive operands
    pos = a.with_values(np.abs(a.values) + 0.1)
    mx = reference_spmm_like(pos, b, MAX_TIMES)
    mean = reference_spmm_like(pos, b, MEAN_TIMES)
    occupied = pos.row_lengths() > 0
    assert np.all(mean[occupied] <= mx[occupied] + 1e-4)


@given(random_csr(), st.integers(1, 9), st.integers(0, 2**16))
@settings(max_examples=30, deadline=None)
def test_sum_equals_mean_times_degree(a, n, seed):
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((a.ncols, n)).astype(np.float32)
    total = reference_spmm_like(a, b, PLUS_TIMES)
    mean = reference_spmm_like(a, b, MEAN_TIMES)
    lengths = a.row_lengths().astype(np.float32)
    np.testing.assert_allclose(total, mean * lengths[:, None], rtol=1e-3, atol=1e-3)


# ----------------------------------------------------------------------
# Coalescing-counter invariants
# ----------------------------------------------------------------------


@given(arrays(np.int64, st.integers(1, 32), elements=st.integers(0, 10_000)))
@settings(max_examples=50, deadline=None)
def test_sector_count_bounds(addrs):
    n = warp_sector_count(addrs * 4)
    assert 1 <= n <= addrs.size
    # Permutation invariance: coalescing ignores lane order.
    assert n == warp_sector_count(addrs[::-1] * 4)


@given(st.integers(0, 5000), st.integers(0, 100))
@settings(max_examples=60, deadline=None)
def test_segment_sectors_matches_enumeration(start, length):
    got = int(segment_sectors(np.array([start]), np.array([length]))[0])
    want = warp_sector_count(4 * (start + np.arange(length)))
    assert got == want


@given(random_csr(), st.sampled_from([1, 8, 16, 31, 32, 33, 64]))
@settings(max_examples=30, deadline=None)
def test_b_load_counts_match_enumeration(a, n):
    """The closed-form dense-load counter equals per-nonzero enumeration."""
    got = access_profile(a).b_loads(n)
    insts = sectors = req = 0
    for start, length in dense_segments(n):
        for k in a.colind:
            insts += 1
            sectors += warp_sector_count(4 * (int(k) * n + start + np.arange(length)))
            req += length * 4
    assert (got.instructions, got.sectors, got.requested_bytes) == (insts, sectors, req)


@given(random_csr())
@settings(max_examples=30, deadline=None)
def test_tile_load_counts_match_enumeration(a):
    got = access_profile(a).tile_loads(32)
    insts = sectors = req = 0
    for i in range(a.nrows):
        lo, hi = int(a.rowptr[i]), int(a.rowptr[i + 1])
        for p in range(lo, hi, 32):
            ln = min(32, hi - p)
            insts += 1
            sectors += warp_sector_count(4 * (p + np.arange(ln)))
            req += ln * 4
    assert (got.instructions, got.sectors, got.requested_bytes) == (insts, sectors, req)


@given(random_csr())
@settings(max_examples=30, deadline=None)
def test_broadcast_walk_never_exceeds_per_element(a):
    walk = access_profile(a).broadcast_sectors()
    assert walk <= a.nnz + a.nrows  # at most one sector per element + slack
    assert walk >= (a.nnz + 7) // 8  # at least the dense packing bound
