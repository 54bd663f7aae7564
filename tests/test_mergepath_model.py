"""Merge-path SpMM model: partition laws, replay parity, and the headline.

Four layers of guarantees, roughly inside-out:

1. **Partition** (hypothesis): `merge_path_partition` tiles the nonzero
   range exactly once and balances path work to within one item, for
   arbitrary row-length distributions including empty rows and empty
   matrices.
2. **Functional** (hypothesis): `MergePathSpMM.run` is bit-identical to
   `reference_spmm_like` under every built-in semiring.
3. **Oracle parity**: the closed-form counters match the per-warp oracle
   loop stream for stream, and the loop's output matches the reference —
   including the degenerate `items=1` schedule where every path item is
   its own segment and carry traffic is maximal.
4. **Headline**: on a hub-dominated matrix (`row_imbalance` skewed) the
   merge-path modeled time strictly beats row-split CRC at equal width
   and GPU, while on uniform matrices it stays within a small constant
   factor — and `TunedSpMM` reproduces that choice when "mergepath"
   joins its candidate set.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from trace_references import spmm_trace_loop

from repro.core import (
    CRCSpMM,
    MergePathSpMM,
    TunedSpMM,
    builtin_semirings,
    merge_path_partition,
)
from repro.gpusim import GTX_1080TI, RTX_2080
from repro.sparse import csr_from_coo, power_law, reference_spmm_like, uniform_random
from repro.sparse.stats import graph_regime, row_imbalance

GPU = GTX_1080TI


# -- fixtures ---------------------------------------------------------------


def hub_matrix(m=2048, hub_nnz=8192, rest_nnz=8192, seed=7):
    """One hub row holding half the nonzeros: the row-split worst case.

    Large enough (2048 rows) that the launch fills the device and the
    comparison measures steady-state behavior, not launch overhead.
    """
    rng = np.random.default_rng(seed)
    rows = np.concatenate([
        np.zeros(hub_nnz, dtype=np.int64),
        rng.integers(1, m, size=rest_nnz),
    ])
    cols = np.concatenate([
        rng.integers(0, m, size=hub_nnz),
        rng.integers(0, m, size=rest_nnz),
    ])
    return csr_from_coo(rows, cols, shape=(m, m))


@st.composite
def small_csr(draw):
    """Small matrices (oracle-loop friendly) spanning uniform, skewed,
    and empty-row-heavy regimes."""
    kind = draw(st.sampled_from(["uniform", "powerlaw", "sparse-rows"]))
    seed = draw(st.integers(0, 2**16))
    if kind == "uniform":
        m = draw(st.integers(4, 40))
        return uniform_random(m=m, nnz=4 * m, seed=seed)
    if kind == "powerlaw":
        m = draw(st.integers(8, 40))
        return power_law(m=m, nnz=6 * m, exponent=1.8, seed=seed)
    m = draw(st.integers(8, 48))
    return uniform_random(m=m, nnz=m // 2, seed=seed)  # mostly empty rows


def assert_stats_equal(lhs, rhs, context=""):
    """Exact parity on every access stream the timing model consumes."""
    for stream in ("global_load", "global_store", "shared_load", "shared_store"):
        for f in ("instructions", "transactions", "requested_bytes"):
            a = getattr(getattr(lhs, stream), f)
            b = getattr(getattr(rhs, stream), f)
            assert a == b, f"{context} {stream}.{f}: {a} != {b}"
    assert lhs.warp_syncs == rhs.warp_syncs, context


# -- 1. partition laws ------------------------------------------------------


@given(
    rows=st.lists(st.integers(0, 12), min_size=0, max_size=64),
    items=st.integers(1, 48),
)
@settings(max_examples=200, deadline=None)
def test_partition_tiles_nonzeros_and_balances_work(rows, items):
    lengths = np.asarray(rows, dtype=np.int64)
    rowptr = np.concatenate([[0], np.cumsum(lengths)])
    part = merge_path_partition(rowptr, items)
    d, i, j = part.d, part.i, part.j
    total = int(rowptr[-1]) + lengths.size
    if total == 0:
        assert part.n_segments == 0
        return
    # Path boundaries: start at 0, end at T, strictly increasing (every
    # segment nonempty), sizes within one item of each other and <= items.
    assert d[0] == 0 and d[-1] == total
    sizes = np.diff(d)
    assert (sizes >= 1).all() and (sizes <= items).all()
    assert int(sizes.max()) - int(sizes.min()) <= 1
    # Two-dimensional split: i/j consistent with the key diagonal, and
    # the nonzero ranges [j_s, j_{s+1}) tile [0, nnz) exactly once.
    key = rowptr + np.arange(lengths.size + 1)
    assert (key[i] <= d).all()
    nxt = key[np.minimum(i + 1, lengths.size)]  # maximal row index
    assert ((i == lengths.size) | (nxt > d)).all()
    assert (i + j == d).all()
    assert j[0] == 0 and j[-1] == rowptr[-1]
    assert (np.diff(j) >= 0).all()


def test_partition_rejects_nonpositive_items():
    rowptr = np.array([0, 2, 5])
    with pytest.raises(ValueError):
        merge_path_partition(rowptr, 0)
    with pytest.raises(ValueError):
        MergePathSpMM(items=-3)


# -- 2. functional equivalence ----------------------------------------------


@given(small_csr(), st.integers(1, 40), st.integers(0, 2**16))
@settings(max_examples=25, deadline=None)
def test_run_matches_reference_all_semirings(a, n, seed):
    rng = np.random.default_rng(seed)
    b = rng.random((a.ncols, n), dtype=np.float32)
    kernel = MergePathSpMM()
    for semiring in builtin_semirings().values():
        got = kernel.run(a, b, semiring)
        want = reference_spmm_like(a, b, semiring)
        assert np.array_equal(got, want), semiring.name


# -- 3. oracle parity -------------------------------------------------------


@given(small_csr(), st.sampled_from([3, 8, 33, 40]),
       st.sampled_from([0, 1, 32, 48]))
@settings(max_examples=20, deadline=None)
def test_batched_trace_matches_perwarp_oracle(a, n, items):
    """Across partition granularities and widths that leave a partial
    warp, the per-warp oracle's streams equal the closed-form counters
    and its output matches the reference."""
    rng = np.random.default_rng(42)
    b = rng.random((a.ncols, n), dtype=np.float32)
    kernel = MergePathSpMM(items=items)
    c, traced = spmm_trace_loop(kernel, a, b, GPU)
    analytic, _, _ = kernel.count(a, n, GPU)
    assert_stats_equal(traced, analytic, f"items={items} n={n}")
    np.testing.assert_allclose(c, reference_spmm_like(a, b), rtol=1e-4, atol=1e-4)


@given(small_csr(), st.sampled_from([8, 40]))
@settings(max_examples=20, deadline=None)
def test_trace_matches_analytic_counters(a, n):
    rng = np.random.default_rng(43)
    b = rng.random((a.ncols, n), dtype=np.float32)
    kernel = MergePathSpMM()
    _, traced = spmm_trace_loop(kernel, a, b, GPU)
    analytic, _, _ = kernel.count(a, n, GPU)
    assert_stats_equal(traced, analytic, f"n={n}")


@pytest.mark.parametrize("gpu", [GTX_1080TI, RTX_2080], ids=lambda g: g.name)
def test_items_one_maximal_carries_stay_in_parity(gpu):
    """items=1 splits every multi-nonzero row across segments — the
    carry-RMW worst case — and the loop oracle must still agree with the
    closed-form counters and with the reference output."""
    a = power_law(m=24, nnz=120, exponent=1.7, seed=11)
    rng = np.random.default_rng(11)
    b = rng.random((a.ncols, 40), dtype=np.float32)
    kernel = MergePathSpMM(items=1)
    c, traced = spmm_trace_loop(kernel, a, b, gpu)
    analytic, _, _ = kernel.count(a, 40, gpu)
    assert_stats_equal(traced, analytic, "loop vs count")
    np.testing.assert_allclose(c, reference_spmm_like(a, b), rtol=1e-4, atol=1e-4)
    # Sanity on the carry model itself: with the finest partition, C
    # carry loads must actually appear (split rows exist in this graph).
    assert analytic.traffic("C").sectors > 0


def test_general_semiring_trace_parity():
    """Non-plus-times semirings ride the same access pattern: the loop
    oracle's counters match ``count`` and its output the reference."""
    a = power_law(m=20, nnz=100, exponent=1.9, seed=3)
    rng = np.random.default_rng(3)
    b = rng.random((a.ncols, 33), dtype=np.float32)
    kernel = MergePathSpMM(items=48)
    analytic, _, _ = kernel.count(a, 33, GPU)
    for semiring in builtin_semirings().values():
        c, traced = spmm_trace_loop(kernel, a, b, GPU, semiring)
        assert_stats_equal(traced, analytic, semiring.name)
        np.testing.assert_allclose(
            c, reference_spmm_like(a, b, semiring), rtol=1e-4, atol=1e-4,
            err_msg=semiring.name,
        )


# -- 4. the headline --------------------------------------------------------


def test_mergepath_beats_rowsplit_on_skewed_matrix():
    """The reason this kernel exists: bounded drain tail on hub rows.

    On a matrix whose row-length distribution `row_imbalance` flags as
    skewed, merge-path's modeled time is *strictly* lower than CRC
    row-split at equal width and GPU."""
    a = hub_matrix()
    assert row_imbalance(a).is_skewed()
    assert graph_regime(a).endswith("/skewed")
    for n in (64, 128):
        t_mp = MergePathSpMM().estimate(a, n, GPU).time_s
        t_crc = CRCSpMM().estimate(a, n, GPU).time_s
        assert t_mp < t_crc, f"n={n}: mergepath {t_mp} !< crc {t_crc}"


def test_mergepath_within_constant_factor_on_uniform():
    """The price of balance is bounded: on uniform matrices (searches,
    carries and the lower in-flight parallelism all charged) merge-path
    stays within a small constant factor of row-split."""
    a = uniform_random(m=2048, nnz=16384, seed=3)
    assert not row_imbalance(a).is_skewed()
    for n in (64, 128):
        t_mp = MergePathSpMM().estimate(a, n, GPU).time_s
        t_crc = CRCSpMM().estimate(a, n, GPU).time_s
        assert t_mp < 1.5 * t_crc, f"n={n}: mergepath {t_mp} vs crc {t_crc}"


def test_tuner_selects_mergepath_on_skew_only():
    """With "mergepath" in the candidate set the autotuner routes the
    hub matrix to merge-path and keeps uniform matrices on CRC/CWM."""
    candidates = (1, 2, 4, 8, "mergepath")
    tuned = TunedSpMM(candidates=candidates)
    assert tuned._select(hub_matrix(), 128, GPU).name == "mergepath"
    uniform_pick = tuned._select(uniform_random(m=2048, nnz=16384, seed=3), 128, GPU)
    assert uniform_pick.name.startswith(("crc", "crc+cwm"))


def test_cache_keys_distinguish_candidates_and_items():
    """Two TunedSpMM with different candidate sets (and two merge-path
    kernels with different segment sizes) must never share estimate-memo
    or DiskCache entries."""
    assert TunedSpMM().cache_key() != TunedSpMM(
        candidates=(1, 2, 4, 8, "mergepath")
    ).cache_key()
    assert MergePathSpMM().cache_key() != MergePathSpMM(items=64).cache_key()
    assert MergePathSpMM(items=64).cache_key() == MergePathSpMM(items=64).cache_key()


# -- row_imbalance boundary cases -------------------------------------------


def test_row_imbalance_boundaries():
    empty = csr_from_coo([], [], shape=(0, 0))
    ri = row_imbalance(empty)
    assert (ri.gini, ri.max_over_mean) == (0.0, 0.0)
    assert not ri.is_skewed()

    all_zero_rows = csr_from_coo([], [], shape=(5, 5))
    ri = row_imbalance(all_zero_rows)
    assert (ri.gini, ri.max_over_mean) == (0.0, 0.0)

    single = csr_from_coo([0, 0, 0], [0, 1, 2], shape=(1, 4))
    ri = row_imbalance(single)
    assert ri.gini == 0.0 and ri.max_over_mean == 1.0

    equal = csr_from_coo(
        np.repeat(np.arange(4), 2), np.tile([0, 1], 4), shape=(4, 4)
    )
    ri = row_imbalance(equal)
    assert ri.gini == 0.0 and ri.max_over_mean == 1.0
    assert graph_regime(equal) == "short-rows/uniform"
