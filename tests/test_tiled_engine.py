"""Parity and contract suite for the host executor's two paths: the
plus-times row pass and the column-tiled, workspace-pooled sliced reduce.

Locks the contracts in ``repro.sparse.segment``'s docstring: plus-times
and mean-times are bit-identical to sequential CSR-order accumulation
whatever ``tile_width`` says, and acquire no pool buffer; max/min output
must not depend on the tile width — **bit for bit** — for every tile
geometry (T=1, N % T != 0, T > N) and every edge shape (empty rows,
empty matrices, zero-width operands).  The untiled geometry
(``tile_width=N``, one tile) is the reference.  Also covers the
workspace pool (reuse/alloc counters, free-list cap, clearing), the
multi-operand batching primitive (byte parity with per-operand calls,
one gather's worth of allocations), and the fused
``segment_max_with_argmax`` traversal ``aggregate_max`` runs on, whose
sort-free argmax is checked against the per-row loop in
``tests/references.py``.
"""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest
import references as ref
from csr_strategies import csr_matrices
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.obs.metrics import MetricsRegistry
from repro.semiring import MAX_TIMES, MEAN_TIMES, MIN_TIMES, PLUS_TIMES
from repro.sparse import (
    clear_workspace_pool,
    csr_from_coo,
    power_law,
    segment_max_with_argmax,
    segment_spmm_like,
    segment_spmm_like_multi,
    tile_width_for,
    uniform_random,
    workspace_stats,
)
from repro.sparse.ops import reference_spmm_like_multi
from repro.sparse import segment
from repro.sparse.segment import _POOL, _slice_plan

SEMIRINGS = {
    "plus": PLUS_TIMES,
    "max": MAX_TIMES,
    "min": MIN_TIMES,
    "mean": MEAN_TIMES,
}


def _dense_operand(a, n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((a.ncols, n)).astype(np.float32)


def _width(tile, n):
    """A tile-width parameter resolved against the operand width ``n``."""
    return {"N": n, "N+5": n + 5}.get(tile, tile)


# ----------------------------------------------------------------------
# geometry invariance: every tile width vs. the one-tile traversal
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(SEMIRINGS))
@pytest.mark.parametrize("tile", [1, 3, 7, 8, 64, "N+5"])
@given(a=csr_matrices(), n=st.integers(1, 40), seed=st.integers(0, 2**20))
@settings(max_examples=25, deadline=None)
def test_tiled_bit_identical_to_untiled(name, tile, a, n, seed):
    """Bit parity for every reduction: tiles never split a row segment,
    so even the float32 add accumulates in the identical order."""
    sr = SEMIRINGS[name]
    b = _dense_operand(a, n, seed)
    b2 = _dense_operand(a, max(1, n // 2), seed + 1)
    want = segment_spmm_like(a, b, sr, tile_width=n)
    np.testing.assert_array_equal(segment_spmm_like(a, b, sr, tile_width=_width(tile, n)), want)
    # Adaptive width too (covers T == N for these small operands).
    np.testing.assert_array_equal(segment_spmm_like(a, b, sr), want)
    # The batched traversal shares one tile geometry across operands of
    # different widths.
    want_multi = [want, segment_spmm_like(a, b2, sr, tile_width=b2.shape[1])]
    got_multi = segment_spmm_like_multi(a, [b, b2], sr, tile_width=_width(tile, n))
    for got, w in zip(got_multi, want_multi):
        np.testing.assert_array_equal(got, w)


@pytest.mark.parametrize("name", sorted(SEMIRINGS))
def test_tiled_parity_on_power_law(name):
    """Fast tier-1 slice of the wide-N benchmark geometry: a power-law
    graph at N=100 (not a multiple of the tile width or of 8)."""
    sr = SEMIRINGS[name]
    a = power_law(300, 4000, seed=7, weighted=True)
    b = _dense_operand(a, 100, seed=3)
    want = segment_spmm_like(a, b, sr, tile_width=100)
    for tile in (1, 8, 33, 512, None):
        np.testing.assert_array_equal(segment_spmm_like(a, b, sr, tile_width=tile), want)


def test_tiled_empty_rows_matrices_and_widths():
    empty_rows = csr_from_coo([], [], [], shape=(5, 4))
    out = segment_spmm_like(empty_rows, np.ones((4, 9), np.float32), PLUS_TIMES)
    np.testing.assert_array_equal(out, np.zeros((5, 9), np.float32))
    out = segment_spmm_like(empty_rows, np.ones((4, 9), np.float32), MAX_TIMES)
    np.testing.assert_array_equal(out, np.full((5, 9), -np.inf, np.float32))
    degenerate = csr_from_coo([], [], [], shape=(0, 0))
    assert segment_spmm_like(degenerate, np.ones((0, 3), np.float32), PLUS_TIMES).shape == (0, 3)
    a = uniform_random(6, 12, seed=1, weighted=True)
    assert segment_spmm_like(a, np.zeros((a.ncols, 0), np.float32), PLUS_TIMES).shape == (6, 0)


def test_out_buffer_reused_and_validated():
    a = uniform_random(20, 80, seed=2, weighted=True)
    b = _dense_operand(a, 10, seed=3)
    out = np.empty((a.nrows, 10), dtype=np.float32)
    got = segment_spmm_like(a, b, PLUS_TIMES, out=out)
    assert got is out
    np.testing.assert_array_equal(out, segment_spmm_like(a, b, PLUS_TIMES))
    with pytest.raises(ValueError):
        segment_spmm_like(a, b, PLUS_TIMES, out=np.empty((a.nrows, 9), np.float32))
    with pytest.raises(ValueError):
        segment_spmm_like(a, b, PLUS_TIMES, out=np.empty((a.nrows, 10), np.float64))


def test_tile_width_heuristic_shape():
    # Small problems run untiled (one full-width tile)...
    assert tile_width_for(100, 64) == 64
    # ...large ones tile at a multiple of 8, floored at 8, capped at n.
    big = tile_width_for(1_000_000, 4096)
    assert 8 <= big < 4096 and big % 8 == 0
    assert tile_width_for(10**9, 4096) == 8
    assert tile_width_for(0, 0) >= 1


# ----------------------------------------------------------------------
# plus-times row pass
# ----------------------------------------------------------------------


def _plus_like_graphs():
    """A hub-heavy power-law graph (rows long enough to have sliced-reduce
    tails) and one with a third of its rows empty."""
    hubs = power_law(2000, 30000, seed=5, weighted=True)
    assert _slice_plan(hubs).tail_starts.size  # the hubs are in play
    rng = np.random.default_rng(11)
    rows = rng.choice(np.arange(0, 300, 3), size=2000) + rng.integers(1, 3, size=2000)
    cols = rng.integers(0, 250, size=2000)
    vals = rng.standard_normal(2000).astype(np.float32)
    gappy = csr_from_coo(rows, cols, vals, shape=(302, 250), sum_duplicates=True)
    assert np.count_nonzero(gappy.row_lengths() == 0) >= 100
    return [hubs, gappy]


def _bits(x):
    return x.view(np.uint32)


@pytest.mark.parametrize("name", ["plus", "mean"])
@pytest.mark.parametrize("n", [1, 3, 16, 64])
def test_plus_like_bit_identical_to_sequential_accumulation(name, n):
    """Plus- and mean-times sum every row sequentially in CSR order, so
    they match the scatter reference bit for bit, hub rows included, and
    ``tile_width`` is accepted and ignored."""
    sr = SEMIRINGS[name]
    for a in _plus_like_graphs():
        b = _dense_operand(a, n, seed=n)
        b2 = _dense_operand(a, n + 5, seed=n + 1)
        want = ref.scatter_spmm_like(a, b, sr)
        want2 = ref.scatter_spmm_like(a, b2, sr)
        if name == "plus":
            np.testing.assert_array_equal(_bits(want), _bits(a.to_scipy() @ b))
        for tile in (None, 1, 8, n + 5):
            got = segment_spmm_like(a, b, sr, tile_width=tile)
            np.testing.assert_array_equal(_bits(got), _bits(want), err_msg=f"tile={tile}")
            multi = segment_spmm_like_multi(a, [b, b2], sr, tile_width=tile)
            np.testing.assert_array_equal(_bits(multi[0]), _bits(want))
            np.testing.assert_array_equal(_bits(multi[1]), _bits(want2))
        out = np.full((a.nrows, n), np.nan, np.float32)  # every cell is written
        assert segment_spmm_like(a, b, sr, out=out) is out
        np.testing.assert_array_equal(_bits(out), _bits(want))


@pytest.mark.parametrize("rows_per_chunk", [1, 7, 300])
def test_plus_like_row_chunks_split_anywhere(monkeypatch, rows_per_chunk):
    """Chunk boundaries do not change a bit, and each chunk counts as one
    ``segment.tiles`` step."""
    a = _plus_like_graphs()[1]
    b = _dense_operand(a, 5, seed=2)
    want = ref.scatter_spmm_like(a, b, PLUS_TIMES)
    monkeypatch.setattr(segment, "_ROW_CHUNK_BYTES", 4 * 5 * rows_per_chunk)
    prev = obs.set_registry(MetricsRegistry())
    try:
        got = segment_spmm_like(a, b, PLUS_TIMES)
        tiles = obs.get_registry().counter("segment.tiles", op="add").value
    finally:
        obs.set_registry(prev)
    np.testing.assert_array_equal(_bits(got), _bits(want))
    assert tiles == -(-a.nrows // rows_per_chunk)


def test_plus_like_acquires_no_pool_buffer():
    a = _plus_like_graphs()[0]
    bs = [_dense_operand(a, n, seed=n) for n in (8, 40)]
    clear_workspace_pool()
    prev = obs.set_registry(MetricsRegistry())
    try:
        for sr in (PLUS_TIMES, MEAN_TIMES):
            segment_spmm_like(a, bs[1], sr, tile_width=8)
            segment_spmm_like_multi(a, bs, sr, tile_width=8)
        reg = obs.get_registry()
        assert reg.counter("segment.workspace.allocs").value == 0
        assert reg.counter("segment.workspace.reuses").value == 0
        assert reg.counter("segment.reduce_calls", op="add").value == 6
        assert workspace_stats()["free_buffers"] == 0
    finally:
        clear_workspace_pool()
        obs.set_registry(prev)


def test_segment_import_leaves_scipy_unloaded():
    """``scipy.sparse`` loads on the first plus-times call, not at import:
    processes that never run a host SpMM do not pay its memory."""
    import repro

    code = (
        f"import sys; sys.path.insert(0, {os.path.dirname(os.path.dirname(repro.__file__))!r})\n"
        "import repro, repro.sparse.segment, repro.bench.corpus\n"
        "assert 'scipy.sparse' not in sys.modules, 'scipy.sparse imported'\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True)


# ----------------------------------------------------------------------
# workspace pool
# ----------------------------------------------------------------------


def test_workspace_pool_reuse_and_counters():
    prev = obs.set_registry(MetricsRegistry())
    clear_workspace_pool()
    try:
        a = power_law(200, 3000, seed=4, weighted=True)
        b = _dense_operand(a, 64, seed=5)
        segment_spmm_like(a, b, MAX_TIMES, tile_width=8)
        reg = obs.get_registry()
        allocs_first = reg.counter("segment.workspace.allocs").value
        assert allocs_first >= 1
        assert reg.gauge("segment.workspace.bytes_peak").value > 0
        segment_spmm_like(a, b, MAX_TIMES, tile_width=8)  # steady state: pool hits only
        assert reg.counter("segment.workspace.allocs").value == allocs_first
        assert reg.counter("segment.workspace.reuses").value >= 1
        stats = workspace_stats()
        assert stats["free_buffers"] >= 1
        assert clear_workspace_pool() == stats["free_buffers"]
        assert workspace_stats()["free_buffers"] == 0
    finally:
        clear_workspace_pool()
        obs.set_registry(prev)


def test_workspace_pool_free_list_capped():
    clear_workspace_pool()
    try:
        bufs = [_POOL.acquire(100 * (i + 1)) for i in range(8)]
        for buf in bufs:
            _POOL.release(buf)
        stats = workspace_stats()
        assert stats["free_buffers"] == _POOL._MAX_FREE
        # Cap policy keeps the largest buffers.
        assert min(b.size for b in _POOL._free) == 100 * 5
    finally:
        clear_workspace_pool()


@pytest.mark.parametrize("call", ["max_with_argmax", "spmm_like"])
def test_warm_calls_allocate_nothing(call):
    """Every buffer a traversal needs, including the argmax's winner and
    compare buffers, comes from the pool: a warm call allocates none."""
    a = power_law(300, 5000, seed=6, weighted=True)
    assert _slice_plan(a).tail_starts.size  # heavy-row tails are in play
    b = _dense_operand(a, 40, seed=1)
    run = {
        "max_with_argmax": lambda: segment_max_with_argmax(a, b, tile_width=16),
        "spmm_like": lambda: segment_spmm_like(a, b, MAX_TIMES, tile_width=16),
    }[call]
    clear_workspace_pool()
    prev = obs.set_registry(MetricsRegistry())
    try:
        run()
        obs.set_registry(MetricsRegistry())
        run()
        reg = obs.get_registry()
        assert reg.counter("segment.workspace.allocs").value == 0
        assert reg.counter("segment.workspace.reuses").value >= 1
    finally:
        clear_workspace_pool()
        obs.set_registry(prev)


# ----------------------------------------------------------------------
# multi-operand batching
# ----------------------------------------------------------------------


def test_multi_byte_identical_to_per_operand_loop():
    a = power_law(300, 5000, seed=6, weighted=True)
    bs = [_dense_operand(a, n, seed=n) for n in (3, 17, 64, 100)]
    for sr in (PLUS_TIMES, MAX_TIMES, MEAN_TIMES):
        multi = segment_spmm_like_multi(a, bs, sr, tile_width=16)
        loop = [segment_spmm_like(a, b, sr, tile_width=16) for b in bs]
        assert len(multi) == len(loop)
        for got, want in zip(multi, loop):
            assert got.tobytes() == want.tobytes()


def test_multi_shares_one_workspace_acquisition():
    """Coalescing K operands must cost one gather's worth of workspace
    allocations (ws + operand-tile buffer), not K."""
    a = power_law(300, 5000, seed=6, weighted=True)
    bs = [_dense_operand(a, 64, seed=n) for n in range(6)]
    prev = obs.set_registry(MetricsRegistry())
    clear_workspace_pool()
    try:
        segment_spmm_like_multi(a, bs, MAX_TIMES, tile_width=8)
        reg = obs.get_registry()
        assert reg.counter("segment.workspace.allocs").value <= 2
        assert reg.counter("segment.multi_calls", operands=len(bs)).value == 1
    finally:
        clear_workspace_pool()
        obs.set_registry(prev)


def test_multi_mixed_widths_empty_and_outs():
    a = uniform_random(25, 120, seed=8, weighted=True)
    bs = [_dense_operand(a, 5, seed=1), np.zeros((a.ncols, 0), np.float32)]
    outs = [np.empty((a.nrows, 5), np.float32), np.empty((a.nrows, 0), np.float32)]
    got = segment_spmm_like_multi(a, bs, PLUS_TIMES, outs=outs)
    assert got[0] is outs[0] and got[1] is outs[1]
    np.testing.assert_array_equal(got[0], segment_spmm_like(a, bs[0], PLUS_TIMES))
    assert segment_spmm_like_multi(a, [], PLUS_TIMES) == []
    with pytest.raises(ValueError):
        segment_spmm_like_multi(a, bs, PLUS_TIMES, outs=outs[:1])


def test_multi_untiled_fallback_matches():
    a = uniform_random(25, 120, seed=9, weighted=True)
    bs = [_dense_operand(a, n, seed=n) for n in (4, 11)]
    untiled = segment_spmm_like_multi(a, bs, PLUS_TIMES, tile_width=11)
    tiled = segment_spmm_like_multi(a, bs, PLUS_TIMES, tile_width=1)
    for got, want in zip(tiled, untiled):
        np.testing.assert_array_equal(got, want)


def test_reference_multi_dispatch_matches_reference():
    from repro.sparse.ops import reference_spmm_like

    a = uniform_random(30, 150, seed=10, weighted=True)
    bs = [_dense_operand(a, n, seed=n) for n in (6, 20)]
    engine = reference_spmm_like_multi(a, bs, MAX_TIMES)
    for got, b in zip(engine, bs):
        np.testing.assert_array_equal(got, ref.scatter_spmm_like(a, b, MAX_TIMES))
        np.testing.assert_array_equal(got, reference_spmm_like(a, b, MAX_TIMES))


# ----------------------------------------------------------------------
# fused max + sort-free argmax traversal
# ----------------------------------------------------------------------

ARGMAX_TILES = [1, 3, 8, "N", "N+5"]


def _assert_max_argmax_matches_reference(a, b):
    want_out, want_am = ref.max_with_argmax(a, b)
    for tile in ARGMAX_TILES:
        out, am = segment_max_with_argmax(a, b, tile_width=_width(tile, b.shape[1]))
        np.testing.assert_array_equal(out, want_out, err_msg=f"tile={tile}")
        np.testing.assert_array_equal(am, want_am, err_msg=f"tile={tile}")


def test_argmax_unaligned_width_matches_aligned_semantics():
    """Width 100 (not a multiple of 8 or of the adaptive tile) with many
    ties: the winners match the per-row reference column by column."""
    a = uniform_random(40, 300, seed=13)
    a = a.with_values(np.ones(a.nnz, np.float32))
    rng = np.random.default_rng(14)
    b = rng.integers(-3, 4, size=(a.ncols, 100)).astype(np.float32)
    _, am = segment_max_with_argmax(a, b)
    assert am.shape == (a.nrows, 100)
    np.testing.assert_array_equal(am, ref.per_row_argmax(a, b[a.colind64()]))
    for j in (0, 37, 99):
        _, single = segment_max_with_argmax(a, np.ascontiguousarray(b[:, j : j + 1]))
        np.testing.assert_array_equal(am[:, j], single[:, 0])


@st.composite
def max_operands(draw, a, n):
    """Dense operands with ties (small integers), NaN cells and whole
    ``-inf`` columns mixed in."""
    rng = np.random.default_rng(draw(st.integers(0, 2**20)))
    if draw(st.booleans()):
        b = rng.integers(-2, 3, size=(a.ncols, n)).astype(np.float32)
    else:
        b = rng.standard_normal((a.ncols, n)).astype(np.float32)
    if draw(st.booleans()):
        b[rng.random(b.shape) < 0.05] = np.nan
    if draw(st.booleans()):
        b[:, rng.integers(0, n)] = -np.inf
    return b


@given(a=csr_matrices(), n=st.integers(1, 24), data=st.data())
@settings(max_examples=25, deadline=None)
def test_max_with_argmax_matches_untiled_two_pass(a, n, data):
    """Every tile width against the two-pass reference (scatter max,
    then the per-row first-maximizer loop)."""
    if data.draw(st.booleans()):
        a = a.with_values(np.ones(a.nnz, np.float32))  # ties across a row
    _assert_max_argmax_matches_reference(a, data.draw(max_operands(a, n)))


@given(a=csr_matrices(), n=st.integers(1, 12), data=st.data())
@settings(max_examples=40, deadline=None)
def test_every_reduction_matches_reference_at_every_tile_width(a, n, data):
    """Every built-in reduction, the batched traversal and max + argmax
    at tile widths {1, 3, 8, N, N+5} against the tests/ references, over
    every plan shape (multi-block heads, heavy-row tails, tail-only,
    uniform, all-empty and single-row matrices)."""
    if data.draw(st.booleans()):
        a = a.with_values(np.ones(a.nnz, np.float32))  # ties across a row
    b = data.draw(max_operands(a, n))
    b2 = _dense_operand(a, n + 3, seed=n)
    want_out, want_am = ref.max_with_argmax(a, b)
    for name, sr in sorted(SEMIRINGS.items()):
        wants = [ref.scatter_spmm_like(a, x, sr) for x in (b, b2)]
        for tile in ARGMAX_TILES:
            t = _width(tile, n)
            got = [segment_spmm_like(a, b, sr, tile_width=t)]
            got += segment_spmm_like_multi(a, [b, b2], sr, tile_width=t)
            for g, w in zip(got, [wants[0]] + wants):
                np.testing.assert_array_equal(g, w, err_msg=f"{name} tile={tile}")
    for tile in ARGMAX_TILES:
        out, am = segment_max_with_argmax(a, b, tile_width=_width(tile, n))
        np.testing.assert_array_equal(out, want_out, err_msg=f"tile={tile}")
        np.testing.assert_array_equal(am, want_am, err_msg=f"tile={tile}")


def test_max_with_argmax_ties_nan_neg_inf_and_empty_rows():
    # Row 0: a tie between nonzeros 0 and 2; row 1: empty; row 2: a NaN
    # in column 1; column 2 is all -inf; row 3: one nonzero.
    rows = np.array([0, 0, 0, 2, 2, 3])
    cols = np.array([0, 1, 2, 0, 3, 1])
    a = csr_from_coo(rows, cols, np.ones(6, np.float32), shape=(4, 4))
    b = np.array(
        [[5.0, 1.0, -np.inf], [3.0, 2.0, -np.inf], [5.0, 0.0, -np.inf], [1.0, np.nan, -np.inf]],
        dtype=np.float32,
    )
    _assert_max_argmax_matches_reference(a, b)
    out, am = segment_max_with_argmax(a, b, tile_width=1)
    np.testing.assert_array_equal(am, [[0, 1, 0], [-1, -1, -1], [3, -1, 3], [5, 5, 5]])
    assert np.isnan(out[2, 1]) and out[0, 2] == -np.inf


def test_aggregate_max_gradient_only_to_first_maximizer():
    """With unit weights and integer features most cells tie; the whole
    gradient of each cell must land on its first maximizer only."""
    from repro.gnn.aggregate import GraphPair, aggregate_max
    from repro.gnn.tensor import Tensor

    a = power_law(120, 1500, seed=3)
    a = a.with_values(np.ones(a.nnz, np.float32))
    rng = np.random.default_rng(4)
    x_data = rng.integers(-2, 3, size=(a.ncols, 6)).astype(np.float32)
    grad = rng.standard_normal((a.nrows, 6)).astype(np.float32)
    x = Tensor(x_data, requires_grad=True)
    y = aggregate_max(GraphPair(a), x, lambda op: None)
    y.backward(grad)
    want_y, want_dx = ref.aggregate_max(a, x_data, grad)
    np.testing.assert_array_equal(y.data, want_y)
    np.testing.assert_array_equal(x.grad, want_dx)


def test_max_with_argmax_empty_rows_hold_identity_and_no_winner():
    rows = np.array([0, 0])
    cols = np.array([0, 1])
    vals = np.array([2.0, 1.0], dtype=np.float32)
    a = csr_from_coo(rows, cols, vals, shape=(3, 2), sum_duplicates=True)
    out, am = segment_max_with_argmax(a, np.ones((2, 4), np.float32))
    np.testing.assert_array_equal(out[1:], np.full((2, 4), -np.inf, np.float32))
    np.testing.assert_array_equal(am[1:], np.full((2, 4), -1, np.int32))
    np.testing.assert_array_equal(out[0], np.full(4, 2.0, np.float32))
    np.testing.assert_array_equal(am[0], np.zeros(4, np.int32))
