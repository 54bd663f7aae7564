"""Parity suite for the segmented-reduction host engine.

The engine must be bit-identical to the ``ufunc.at`` scatter references
in ``tests/references.py`` for every built-in reduction on any input:
max/min are exact in any order, and plus/mean sum each row sequentially
in CSR order, as the scatter does.  Matrices come from the shared ``csr_strategies.csr_matrices``,
which covers every shape of the jagged-diagonal slice plan, and the plan
itself gets a structural test.  Also covers the derived-array caches on
``CSRMatrix``, ``to_dense`` and the normalizers, and the argmax
semantics (first maximizer, empty rows, NaN) that ``aggregate_max``'s
backward depends on.
"""

from __future__ import annotations

import numpy as np
import pytest
import references as ref
from csr_strategies import csr_matrices
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.obs.metrics import MetricsRegistry
from repro.semiring import MAX_TIMES, MEAN_TIMES, MIN_TIMES, PLUS_TIMES, Semiring
from repro.sparse import (
    csr_from_coo,
    power_law,
    segment_max_with_argmax,
    segment_reduce,
    segment_spmm_like,
    uniform_random,
)
from repro.sparse.ops import reference_spmm_like
from repro.sparse.segment import _SLICE_MIN_ROWS, _slice_layout, _slice_plan

SEMIRINGS = {
    "plus": PLUS_TIMES,
    "max": MAX_TIMES,
    "min": MIN_TIMES,
    "mean": MEAN_TIMES,
}


def _dense_operand(a, n, seed, integer_values=False):
    rng = np.random.default_rng(seed)
    if integer_values:
        return rng.integers(-4, 5, size=(a.ncols, n)).astype(np.float32)
    return rng.standard_normal((a.ncols, n)).astype(np.float32)


@pytest.mark.parametrize("name", sorted(SEMIRINGS))
@pytest.mark.parametrize("n", [1, 7, 32])
@given(a=csr_matrices(), seed=st.integers(0, 2**20))
@settings(max_examples=25, deadline=None)
def test_segment_vs_scatter_parity(name, n, a, seed):
    sr = SEMIRINGS[name]
    b = _dense_operand(a, n, seed)
    got = segment_spmm_like(a, b, sr)
    want = ref.scatter_spmm_like(a, b, sr)
    np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))


@pytest.mark.parametrize("name", ["plus", "mean"])
@given(a=csr_matrices(integer_values=True), seed=st.integers(0, 2**20))
@settings(max_examples=25, deadline=None)
def test_plus_like_bitwise_on_exact_arithmetic(name, a, seed):
    """With integer-valued operands the accumulation is exact in any
    order: bit parity is required."""
    sr = SEMIRINGS[name]
    b = _dense_operand(a, 5, seed, integer_values=True)
    np.testing.assert_array_equal(
        segment_spmm_like(a, b, sr), ref.scatter_spmm_like(a, b, sr)
    )


@pytest.mark.parametrize("name", sorted(SEMIRINGS))
def test_parity_on_power_law(name):
    sr = SEMIRINGS[name]
    a = power_law(300, 4000, seed=7, weighted=True)
    b = _dense_operand(a, 16, seed=3)
    got = segment_spmm_like(a, b, sr)
    want = ref.scatter_spmm_like(a, b, sr)
    np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))


def test_reference_spmm_like_dispatches_on_toggle():
    """Built-in reductions dispatch to the segment engine."""
    a = uniform_random(50, 400, seed=1, weighted=True)
    b = _dense_operand(a, 8, seed=2)
    engine = reference_spmm_like(a, b, MAX_TIMES)
    np.testing.assert_array_equal(engine, ref.scatter_spmm_like(a, b, MAX_TIMES))
    np.testing.assert_array_equal(engine, segment_spmm_like(a, b, MAX_TIMES))


def test_generic_semiring_falls_back_to_scatter_loop():
    """A user semiring without a reduceat-capable reduce still works
    through reference_spmm_like (per-row loop), and segment_spmm_like
    refuses it explicitly."""
    odd = Semiring(
        name="second_largest_times",
        combine=np.multiply,
        reduce=lambda x, axis=0: np.sort(x, axis=axis)[-2 if x.shape[axis] > 1 else -1],
        reduce_pair=np.maximum,
        init=-np.inf,
    )
    a = uniform_random(20, 100, seed=3, weighted=True)
    b = _dense_operand(a, 4, seed=4)
    got = reference_spmm_like(a, b, odd)
    assert got.shape == (a.nrows, 4)
    contributions = a.values[:, None] * b[a.colind64()]
    for i in range(a.nrows):
        lo, hi = a.rowptr[i], a.rowptr[i + 1]
        want = odd.reduce(contributions[lo:hi], axis=0) if hi > lo else odd.init
        np.testing.assert_array_equal(got[i], np.broadcast_to(want, (4,)))
    with pytest.raises(NotImplementedError):
        segment_spmm_like(a, b, odd)


# ----------------------------------------------------------------------
# segment_reduce / empty segments
# ----------------------------------------------------------------------


def test_segment_reduce_empty_rows_hold_exact_identity():
    rowptr = np.array([0, 0, 3, 3, 5], dtype=np.int64)
    contributions = np.arange(10, dtype=np.float32).reshape(5, 2)
    for ufunc, init in ((np.add, 0.0), (np.maximum, -np.inf), (np.minimum, np.inf)):
        out = segment_reduce(contributions, rowptr, ufunc, init)
        oracle = ref.scatter_segment_reduce(contributions, rowptr, ufunc, init)
        np.testing.assert_array_equal(out[0], np.full(2, init))
        np.testing.assert_array_equal(out[2], np.full(2, init))
        np.testing.assert_array_equal(out, oracle)


def test_segment_reduce_zero_rows_and_zero_nnz():
    empty = segment_reduce(np.zeros((0, 3), np.float32), np.zeros(1, np.int64), np.add, 0.0)
    assert empty.shape == (0, 3)
    allempty = segment_reduce(np.zeros((0, 2), np.float32), np.zeros(5, np.int64), np.maximum, -np.inf)
    np.testing.assert_array_equal(allempty, np.full((4, 2), -np.inf))


def test_segment_reduce_counter_increments():
    prev = obs.set_registry(MetricsRegistry())
    try:
        a = uniform_random(30, 200, seed=5, weighted=True)
        b = _dense_operand(a, 4, seed=6)
        segment_spmm_like(a, b, PLUS_TIMES)
        counter = obs.get_registry().counter("segment.reduce_calls", op="add")
        assert counter.value >= 1
    finally:
        obs.set_registry(prev)


# ----------------------------------------------------------------------
# the sliced reduce's jagged-diagonal plan
# ----------------------------------------------------------------------


@given(a=csr_matrices())
@settings(max_examples=60, deadline=None)
def test_slice_plan_structure(a):
    """The plan covers every nonempty row once, longest first; block
    ``k`` holds the ``k``-th nonzero of every row longer than ``k`` and
    is taken while at least ``_SLICE_MIN_ROWS`` rows remain; the heavy
    rows' tails follow in CSR order; and the gather order is a
    permutation of ``[0, nnz)``."""
    lengths = np.diff(a.rowptr.astype(np.int64))
    rows, blocks, tail_starts, order = _slice_layout(a.rowptr)
    np.testing.assert_array_equal(np.sort(rows), np.flatnonzero(lengths))
    np.testing.assert_array_equal(np.lexsort((rows, -lengths[rows])), np.arange(rows.size))
    np.testing.assert_array_equal(np.sort(order), np.arange(a.nnz))
    if not a.nnz:
        return
    assert blocks[0] == rows.size
    assert list(blocks) == sorted(blocks, reverse=True)
    assert min(blocks[1:], default=_SLICE_MIN_ROWS) >= _SLICE_MIN_ROWS
    off = 0
    for k, c in enumerate(blocks):
        assert c == np.count_nonzero(lengths > k)
        np.testing.assert_array_equal(order[off : off + c], a.rowptr[rows[:c]] + k)
        off += c
    n_blocks = len(blocks)
    heavy = rows[: tail_starts.size]
    assert heavy.size == np.count_nonzero(lengths > n_blocks) < _SLICE_MIN_ROWS
    for row, tail in zip(heavy, np.split(order[off:], tail_starts[1:])):
        want = np.arange(a.rowptr[row] + n_blocks, a.rowptr[row + 1])
        np.testing.assert_array_equal(tail, want)
    plan = _slice_plan(a)
    assert plan.cols.dtype == np.int32 and plan.vals.dtype == np.float32
    np.testing.assert_array_equal(plan.cols, a.colind[order])
    np.testing.assert_array_equal(plan.vals, a.values[order])


@pytest.mark.parametrize("long_rows", [_SLICE_MIN_ROWS, _SLICE_MIN_ROWS - 1])
def test_slice_plan_takes_blocks_down_to_exactly_min_rows(long_rows):
    """``long_rows`` rows of length 3 among 10 of length 1: blocks 1 and
    2 are taken exactly when they hold at least ``_SLICE_MIN_ROWS`` rows;
    otherwise those rows become heavy-row tails."""
    lengths = np.array([3] * long_rows + [1] * 10)
    rowptr = np.concatenate([[0], np.cumsum(lengths)])
    _, blocks, tail_starts, _ = _slice_layout(rowptr)
    if long_rows >= _SLICE_MIN_ROWS:
        assert blocks == (long_rows + 10, long_rows, long_rows) and tail_starts.size == 0
    else:
        assert blocks == (long_rows + 10,)
        np.testing.assert_array_equal(tail_starts, 2 * np.arange(long_rows))


def test_slice_plan_is_a_counted_derived_artifact():
    prev = obs.set_registry(MetricsRegistry())
    try:
        a = power_law(200, 3000, seed=2, weighted=True)
        b = _dense_operand(a, 8, seed=3)
        segment_spmm_like(a, b, MAX_TIMES)
        segment_max_with_argmax(a, b)
        reg = obs.get_registry()
        assert reg.counter("csr.derived_cache.misses", array="slice_plan").value == 1
        assert reg.counter("csr.derived_cache.hits", array="slice_plan").value == 1
        assert a.clear_derived() >= 1 and "slice_plan" not in a._derived
    finally:
        obs.set_registry(prev)


# ----------------------------------------------------------------------
# derived-array caches
# ----------------------------------------------------------------------


def test_derived_arrays_cached_readonly_and_counted():
    prev = obs.set_registry(MetricsRegistry())
    try:
        a = uniform_random(40, 300, seed=8)
        first = a.coo_rows()
        assert a.coo_rows() is first  # cached object, not a rebuild
        assert not first.flags.writeable
        assert a.colind64() is a.colind64()
        assert not a.colind64().flags.writeable
        assert a.row_lengths() is a.row_lengths()
        reg = obs.get_registry()
        assert reg.counter("csr.derived_cache.misses", array="coo_rows").value == 1
        assert reg.counter("csr.derived_cache.hits", array="coo_rows").value >= 1
    finally:
        obs.set_registry(prev)


def test_fingerprint_content_addressing():
    a = uniform_random(30, 200, seed=9, weighted=True)
    b = uniform_random(30, 200, seed=9, weighted=True)
    c = uniform_random(30, 200, seed=10, weighted=True)
    assert a.fingerprint() == b.fingerprint()  # equal content, equal print
    assert a.fingerprint() != c.fingerprint()
    # Same pattern, different values -> different print.
    assert a.fingerprint() != a.with_values(a.values * 2).fingerprint()


def test_to_dense_engine_matches_oracle_including_duplicates():
    sorted_free = uniform_random(25, 180, seed=11, weighted=True)
    np.testing.assert_array_equal(
        sorted_free.to_dense(), ref.scatter_to_dense(sorted_free)
    )
    # Duplicate (row, col) pattern: engine must fall back to accumulation.
    rows = np.array([0, 0, 1, 2, 2, 2])
    cols = np.array([1, 1, 0, 2, 2, 0])
    vals = np.array([1.5, 2.5, 3.0, 1.0, 1.0, 4.0], dtype=np.float32)
    dup = csr_from_coo(rows, cols, vals, shape=(3, 3), sum_duplicates=False)
    np.testing.assert_array_equal(dup.to_dense(), ref.scatter_to_dense(dup))
    assert dup.to_dense()[0, 1] == np.float32(4.0)


def test_normalizers_parity_across_toggle():
    """Row/symmetric normalization against row sums from the scatter
    reference."""
    a = power_law(120, 1500, seed=12, weighted=True)
    sums = ref.scatter_segment_reduce(a.values.astype(np.float64), a.rowptr, np.add, 0.0)
    rows, cols = a.coo_rows(), a.colind64()
    inv = np.divide(1.0, sums, out=np.zeros_like(sums), where=sums != 0)
    np.testing.assert_allclose(
        a.row_normalized().values, a.values * inv[rows].astype(np.float32), rtol=1e-6
    )
    inv_sqrt = np.divide(1.0, np.sqrt(sums), out=np.zeros_like(sums), where=sums > 0)
    np.testing.assert_allclose(
        a.sym_normalized().values,
        a.values * (inv_sqrt[rows] * inv_sqrt[cols]).astype(np.float32),
        rtol=1e-6,
    )


# ----------------------------------------------------------------------
# argmax semantics
# ----------------------------------------------------------------------


def _argmax_of(a, contributions):
    """``segment_max_with_argmax``'s argmax for precomputed per-nonzero
    ``contributions``: with unit values the contributions are exactly the
    gathered operand rows, so the operand is built to gather them."""
    assert np.all(a.values == 1)
    b = np.zeros((a.ncols, contributions.shape[1]), np.float32)
    b[a.colind64()] = contributions
    return segment_max_with_argmax(a, b)[1]


def test_argmax_first_maximizer_on_ties():
    # Nonzeros live in distinct columns so each one gathers its own row.
    rows = np.array([0, 0, 0, 1, 1])
    cols = np.array([0, 1, 2, 3, 4])
    vals = np.ones(5, dtype=np.float32)
    a = csr_from_coo(rows, cols, vals, shape=(2, 5), sum_duplicates=True)
    # Tie in row 0 between nonzeros 0 and 2 (same contribution value).
    contributions = np.array(
        [[5.0, 1.0], [3.0, 1.0], [5.0, 0.0], [2.0, 2.0], [2.0, 7.0]], dtype=np.float32
    )
    am = _argmax_of(a, contributions)
    np.testing.assert_array_equal(am, [[0, 0], [3, 4]])
    np.testing.assert_array_equal(am, ref.per_row_argmax(a, contributions))


@pytest.mark.parametrize("n", [5, 8, 16])
def test_argmax_matches_manual_loop(n):
    a = uniform_random(40, 300, seed=13)
    a = a.with_values(np.ones(a.nnz, np.float32))  # unit weights: many ties
    rng = np.random.default_rng(14)
    b = rng.integers(-3, 4, size=(a.ncols, n)).astype(np.float32)
    _, am = segment_max_with_argmax(a, b)
    contributions = a.values[:, None] * b[a.colind64()]
    np.testing.assert_array_equal(am, ref.per_row_argmax(a, contributions))


def test_argmax_empty_rows_and_nan_cells_hold_minus_one():
    rows = np.array([0, 0, 2])
    cols = np.array([0, 1, 2])
    vals = np.ones(3, dtype=np.float32)
    a = csr_from_coo(rows, cols, vals, shape=(4, 3), sum_duplicates=True)
    contributions = np.array(
        [[1.0, np.nan], [0.5, np.nan], [2.0, 3.0]], dtype=np.float32
    )
    am = _argmax_of(a, contributions)
    assert am[1].tolist() == [-1, -1] and am[3].tolist() == [-1, -1]  # empty rows
    assert am[0, 1] == -1  # NaN cell: no winner
    assert am[0, 0] == 0 and am[2].tolist() == [2, 2]


# ----------------------------------------------------------------------
# aggregate_max against the reference gradient
# ----------------------------------------------------------------------


def _run_aggregate(a, x_data, grad):
    from repro.gnn.aggregate import GraphPair, aggregate_max
    from repro.gnn.tensor import Tensor

    x = Tensor(x_data.copy(), requires_grad=True)
    y = aggregate_max(GraphPair(a), x, lambda op: None)
    y.backward(grad.copy())
    return y.data, x.grad


def test_aggregate_max_forward_bitwise_and_backward_close():
    a = power_law(150, 2000, seed=15, weighted=True)
    rng = np.random.default_rng(16)
    x = rng.standard_normal((a.ncols, 8)).astype(np.float32)
    grad = rng.standard_normal((a.nrows, 8)).astype(np.float32)
    y, g = _run_aggregate(a, x, grad)
    y_ref, g_ref = ref.aggregate_max(a, x, grad)
    np.testing.assert_array_equal(y, y_ref)
    np.testing.assert_allclose(g, g_ref, rtol=1e-5, atol=1e-5)


def test_aggregate_max_tie_gradient_goes_to_first_maximizer():
    # Row 0 aggregates two neighbors with identical contributions: the
    # whole gradient goes to the first nonzero (PyTorch scatter_max
    # semantics), none to the later tied maximizer.
    rows = np.array([0, 0])
    cols = np.array([1, 2])
    vals = np.ones(2, dtype=np.float32)
    a = csr_from_coo(rows, cols, vals, shape=(1, 3), sum_duplicates=True)
    x = np.full((3, 2), 4.0, dtype=np.float32)
    grad = np.array([[1.0, 2.0]], dtype=np.float32)
    _, g = _run_aggregate(a, x, grad)
    np.testing.assert_array_equal(g, [[0.0, 0.0], [1.0, 2.0], [0.0, 0.0]])
    np.testing.assert_array_equal(g, ref.aggregate_max(a, x, grad)[1])


def test_aggregate_max_empty_rows_zero_output_and_grad():
    rows = np.array([0, 0])
    cols = np.array([0, 1])
    vals = np.array([1.0, 2.0], dtype=np.float32)
    a = csr_from_coo(rows, cols, vals, shape=(3, 2), sum_duplicates=True)
    x = np.array([[1.0], [1.0]], dtype=np.float32)
    grad = np.ones((3, 1), dtype=np.float32)
    y, g = _run_aggregate(a, x, grad)
    np.testing.assert_array_equal(y[1:], np.zeros((2, 1), np.float32))
    assert y[0, 0] == np.float32(2.0)
    np.testing.assert_array_equal(g, [[0.0], [2.0]])
