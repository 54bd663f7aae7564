"""Parity suite for repro.sparse.delta — incremental CSR mutation.

The contract (docs/PERFORMANCE.md "Dynamic graphs"): a matrix built by
``apply_delta`` is **indistinguishable** from a from-scratch build of
the same edge set — identical raw arrays, identical derived arrays
(including the seeded ones), identical incrementally-evolved
:class:`AccessProfile` state, and identical content fingerprint, which
makes the effective estimate memo keys byte-equal.  Hypothesis
drives random insert/delete/update batches against a from-scratch
oracle; directed tests cover the documented failure modes (duplicate
edges, missing edges, out-of-range indices, non-canonical rows) and the
threshold-gated re-tuning / targeted-invalidation plumbing.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.core.access_profile import AccessProfile, access_profile
from repro.core.tuning import RetuneThresholds, TunedSpMM
from repro.gpusim.config import GTX_1080TI
from repro.gpusim.kernel import clear_estimate_memo
from repro.obs.metrics import MetricsRegistry
from repro.sparse import (
    CSRMatrix,
    EdgeDelta,
    apply_delta,
    csr_from_coo,
    invalidate_matrix_caches,
    power_law,
    structural_drift,
)

PROFILE_ARRAYS = ("_pl_phase", "_pl_len", "_pl_count", "_colind_mod8")
PROFILE_SCALARS = ("nnz", "nrows", "ncols", "occupied_rows", "unique_b_columns")


# ----------------------------------------------------------------------
# Strategies: a random base matrix plus a random valid delta against it
# ----------------------------------------------------------------------


@st.composite
def matrix_and_delta(draw, max_m=30, max_k=30, max_nnz=150):
    m = draw(st.integers(1, max_m))
    k = draw(st.integers(1, max_k))
    nnz = draw(st.integers(0, min(max_nnz, m * k)))
    seed = draw(st.integers(0, 2**20))
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, m, size=nnz)
    cols = rng.integers(0, k, size=nnz)
    vals = rng.standard_normal(nnz).astype(np.float32)
    a = csr_from_coo(rows, cols, vals, shape=(m, k), sum_duplicates=True)

    # Partition the stored edges into delete / update / keep, and draw
    # inserts from the absent slots.
    n_del = draw(st.integers(0, a.nnz))
    n_upd = draw(st.integers(0, a.nnz - n_del))
    perm = rng.permutation(a.nnz)
    del_idx, upd_idx = perm[:n_del], perm[n_del : n_del + n_upd]

    present = np.zeros(m * k, dtype=bool)
    present[a.coo_rows() * k + a.colind64()] = True
    absent = np.flatnonzero(~present)
    n_ins = draw(st.integers(0, min(absent.size, 40)))
    ins_flat = rng.choice(absent, size=n_ins, replace=False)

    delta = EdgeDelta.new(
        inserts=(
            ins_flat // k,
            ins_flat % k,
            rng.standard_normal(n_ins).astype(np.float32),
        ),
        deletes=(a.coo_rows()[del_idx], a.colind64()[del_idx]),
        updates=(
            a.coo_rows()[upd_idx],
            a.colind64()[upd_idx],
            rng.standard_normal(n_upd).astype(np.float32),
        ),
    )
    return a, delta, del_idx, upd_idx


def rebuild_oracle(a, delta, del_idx, upd_idx):
    """From-scratch build of the delta-applied edge set."""
    keep = np.ones(a.nnz, dtype=bool)
    keep[del_idx] = False
    vals = a.values.copy()
    vals[upd_idx] = delta.update_values[
        np.lexsort((a.colind64()[upd_idx], a.coo_rows()[upd_idx])).argsort()
    ]
    return csr_from_coo(
        np.concatenate([a.coo_rows()[keep], delta.insert_rows]),
        np.concatenate([a.colind64()[keep], delta.insert_cols]),
        np.concatenate([vals[keep], delta.insert_values]),
        shape=a.shape,
    )


def assert_full_parity(out, ref):
    """out (delta-built) must be indistinguishable from ref (scratch)."""
    assert np.array_equal(out.rowptr, ref.rowptr)
    assert np.array_equal(out.colind, ref.colind)
    assert np.array_equal(out.values, ref.values)
    for derived in ("rowptr64", "row_lengths", "colind64", "coo_rows"):
        assert np.array_equal(getattr(out, derived)(), getattr(ref, derived)())
    # Content fingerprint equality == effective memo-key equality: the
    # fingerprint is the only matrix-dependent key component.
    assert out.fingerprint() == ref.fingerprint()


def assert_profile_parity(out, ref):
    p_out, p_ref = access_profile(out), access_profile(ref)
    for attr in PROFILE_ARRAYS:
        assert np.array_equal(getattr(p_out, attr), getattr(p_ref, attr)), attr
    for attr in PROFILE_SCALARS:
        assert getattr(p_out, attr) == getattr(p_ref, attr), attr


# ----------------------------------------------------------------------
# Hypothesis parity: delta-applied == from-scratch, bit for bit
# ----------------------------------------------------------------------


@given(matrix_and_delta())
@settings(max_examples=60, deadline=None)
def test_delta_matches_from_scratch(case):
    a, delta, del_idx, upd_idx = case
    # Pre-warm everything the delta path patches incrementally.
    a.colind64(), a.coo_rows(), access_profile(a)
    out = apply_delta(a, delta)
    ref = rebuild_oracle(a, delta, del_idx, upd_idx)
    assert_full_parity(out, ref)
    assert_profile_parity(out, ref)


@given(matrix_and_delta())
@settings(max_examples=30, deadline=None)
def test_delta_without_prewarmed_derived_state(case):
    """Cold parents (no cached colind64/coo_rows/profile) still produce
    correct successors — the optional seeds are just skipped."""
    a, delta, del_idx, upd_idx = case
    out = apply_delta(a, delta)
    ref = rebuild_oracle(a, delta, del_idx, upd_idx)
    assert_full_parity(out, ref)
    assert_profile_parity(out, ref)  # both built from scratch here


@given(matrix_and_delta())
@settings(max_examples=30, deadline=None)
def test_delta_chain_stays_canonical(case):
    """A second delta applied on top of a delta-built matrix sees
    canonical rows (the merge must emit column-sorted segments)."""
    a, delta, del_idx, upd_idx = case
    access_profile(a)
    mid = apply_delta(a, delta)
    rng = np.random.default_rng(7)
    if mid.nnz == 0:
        return
    i = rng.integers(0, mid.nnz, size=min(3, mid.nnz))
    i = np.unique(i)
    second = EdgeDelta.new(deletes=(mid.coo_rows()[i], mid.colind64()[i]))
    out = apply_delta(mid, second)
    keep = np.ones(mid.nnz, dtype=bool)
    keep[i] = False
    ref = csr_from_coo(
        mid.coo_rows()[keep], mid.colind64()[keep], mid.values[keep],
        shape=mid.shape,
    )
    assert_full_parity(out, ref)
    assert_profile_parity(out, ref)


# ----------------------------------------------------------------------
# Directed edge cases
# ----------------------------------------------------------------------


def small_matrix():
    rows = [0, 0, 1, 3, 3, 3]
    cols = [1, 3, 0, 0, 2, 4]
    vals = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    return csr_from_coo(rows, cols, vals, shape=(4, 5))


def test_empty_delta_is_identity():
    a = small_matrix()
    assert apply_delta(a, EdgeDelta.new()) is a
    assert EdgeDelta.new().is_empty


def test_row_emptying_delete():
    a = small_matrix()
    access_profile(a)
    delta = EdgeDelta.new(deletes=([3, 3, 3], [0, 2, 4]))
    out = apply_delta(a, delta)
    assert out.row_lengths()[3] == 0
    ref = csr_from_coo([0, 0, 1], [1, 3, 0], [1.0, 2.0, 3.0], shape=(4, 5))
    assert_full_parity(out, ref)
    assert_profile_parity(out, ref)


def test_insert_into_empty_row_and_empty_matrix():
    a = small_matrix()
    access_profile(a)
    out = apply_delta(a, EdgeDelta.new(inserts=([2, 2], [1, 4], [7.0, 8.0])))
    assert out.row_lengths()[2] == 2
    empty = csr_from_coo([], [], [], shape=(3, 3))
    access_profile(empty)
    grown = apply_delta(empty, EdgeDelta.new(inserts=([1], [2], [9.0])))
    ref = csr_from_coo([1], [2], [9.0], shape=(3, 3))
    assert_full_parity(grown, ref)
    assert_profile_parity(grown, ref)


def test_duplicate_edge_within_batch_rejected():
    with pytest.raises(ValueError, match="more than once"):
        EdgeDelta.new(inserts=([0, 0], [1, 1], [1.0, 2.0]))
    with pytest.raises(ValueError, match="more than once"):
        EdgeDelta.new(inserts=([0], [1], [1.0]), deletes=([0], [1]))


def test_insert_colliding_with_stored_edge_rejected():
    a = small_matrix()
    with pytest.raises(ValueError, match="duplicate edge"):
        apply_delta(a, EdgeDelta.new(inserts=([0], [1], [9.0])))


def test_delete_and_update_of_missing_edge_rejected():
    a = small_matrix()
    with pytest.raises(ValueError, match="not stored"):
        apply_delta(a, EdgeDelta.new(deletes=([0], [0])))
    with pytest.raises(ValueError, match="not stored"):
        apply_delta(a, EdgeDelta.new(updates=([2], [2], [1.0])))


def test_out_of_range_indices_rejected():
    a = small_matrix()
    with pytest.raises(ValueError, match="out of range"):
        apply_delta(a, EdgeDelta.new(inserts=([4], [0], [1.0])))
    with pytest.raises(ValueError, match="out of range"):
        apply_delta(a, EdgeDelta.new(deletes=([0], [5])))
    with pytest.raises(ValueError, match="non-negative"):
        EdgeDelta.new(inserts=([-1], [0], [1.0]))


def test_non_canonical_touched_rows_rejected():
    # Duplicate column inside a touched row: the delta path cannot merge
    # against an ambiguous segment.
    a = CSRMatrix(
        (2, 4),
        np.array([0, 2, 2], dtype=np.int64),
        np.array([1, 1], dtype=np.int32),
        np.array([1.0, 2.0], dtype=np.float32),
    )
    with pytest.raises(ValueError, match="not canonical"):
        apply_delta(a, EdgeDelta.new(inserts=([0], [3], [1.0])))


@pytest.mark.parametrize("kind", ["insert", "delete", "update"])
@pytest.mark.parametrize("axis", ["rows", "cols"])
@pytest.mark.parametrize("bad", [0.7, np.nan, np.inf])
def test_non_integer_edge_coordinates_rejected(kind, axis, bad):
    """Fractional, NaN and infinite coordinates raise instead of being
    truncated (0.7 -> row 0) or failing inside numpy's cast."""
    rows, cols = [0.0, 1.0], [1.0, 2.0]
    (rows if axis == "rows" else cols)[1] = bad
    edges = (rows, cols) if kind == "delete" else (rows, cols, [1.0, 2.0])
    with pytest.raises(ValueError, match="finite integers"):
        EdgeDelta.new(**{f"{kind}s": edges})


def test_whole_float_and_narrow_int_coordinates_accepted():
    d = EdgeDelta.new(
        inserts=(np.array([2.0]), np.array([1.0]), [1.0]),
        deletes=(np.array([0], dtype=np.int32), np.array([1], dtype=np.uint8)),
    )
    assert d.insert_rows.dtype == d.delete_cols.dtype == np.int64
    out = apply_delta(small_matrix(), d)
    ref = csr_from_coo([0, 1, 2, 3, 3, 3], [3, 0, 1, 0, 2, 4],
                       [2.0, 3.0, 1.0, 4.0, 5.0, 6.0], shape=(4, 5))
    assert_full_parity(out, ref)


# ----------------------------------------------------------------------
# Flat-splice edge cases (positions at row boundaries, empty and long
# rows): each is checked against the from-scratch oracle
# ----------------------------------------------------------------------


def stored_index(a, rows, cols):
    """Flat element index of each stored edge of canonical ``a``."""
    keys = a.coo_rows() * a.ncols + a.colind64()
    idx = np.searchsorted(keys, np.asarray(rows) * a.ncols + np.asarray(cols))
    assert np.array_equal(keys[idx], np.asarray(rows) * a.ncols + np.asarray(cols))
    return idx


def assert_splice_matches_oracle(a, inserts=None, deletes=None, updates=None):
    delta = EdgeDelta.new(inserts=inserts, deletes=deletes, updates=updates)
    del_idx = stored_index(a, *deletes) if deletes else np.empty(0, np.int64)
    upd_idx = stored_index(a, *updates[:2]) if updates else np.empty(0, np.int64)
    a.colind64(), a.coo_rows(), access_profile(a)
    out = apply_delta(a, delta)
    ref = rebuild_oracle(a, delta, del_idx, upd_idx)
    assert_full_parity(out, ref)
    assert_profile_parity(out, ref)
    return out


def test_insert_at_a_deleted_elements_position():
    # Row 0 holds columns 1, 3: inserting column 2 and deleting column 3
    # put both edits at flat position 1; inserting at row 0's end and
    # deleting row 1's first element put both at rowptr[1].
    a = small_matrix()
    assert_splice_matches_oracle(
        a, inserts=([0], [2], [7.0]), deletes=([0], [3])
    )
    assert_splice_matches_oracle(
        a, inserts=([0], [4], [7.0]), deletes=([1], [0]),
        updates=([3], [0], [9.0]),
    )


def test_insert_at_row_end_is_next_row_start():
    a = small_matrix()
    out = assert_splice_matches_oracle(
        a, inserts=([0, 1], [4, 2], [7.0, 8.0])
    )
    assert out.colind.tolist() == [1, 3, 4, 0, 2, 0, 2, 4]


def test_inserts_into_last_row_empty_rows_and_empty_matrix():
    a = small_matrix()  # row 2 is empty, row 3 is the last
    assert_splice_matches_oracle(
        a, inserts=([2, 3, 3], [0, 1, 3], [1.0, 2.0, 3.0])
    )
    gappy = csr_from_coo([1, 4], [0, 2], [1.0, 2.0], shape=(6, 3))
    assert_splice_matches_oracle(
        gappy, inserts=([0, 2, 3, 5, 5], [1, 0, 2, 0, 2], [1.0, 2.0, 3.0, 4.0, 5.0])
    )
    empty = csr_from_coo([], [], [], shape=(4, 4))
    assert_splice_matches_oracle(
        empty, inserts=([0, 3, 3], [3, 0, 1], [1.0, 2.0, 3.0])
    )


def test_delete_every_edge_of_a_hub_row():
    rng = np.random.default_rng(0)
    hub_cols = np.arange(0, 200, 2)  # a 100-edge hub row
    rows = np.concatenate([np.full(hub_cols.size, 2), rng.integers(0, 5, 40)])
    cols = np.concatenate([hub_cols, rng.integers(0, 200, 40)])
    a = csr_from_coo(rows, cols, rng.standard_normal(rows.size),
                     shape=(5, 200), sum_duplicates=True)
    hub = a.colind64()[a.rowptr64()[2]:a.rowptr64()[3]]
    assert hub.size > 64
    free = np.setdiff1d(np.arange(200), a.row_slice(4)[0])[-1]
    out = assert_splice_matches_oracle(
        a, deletes=(np.full(hub.size, 2), hub), inserts=([4], [free], [1.0])
    )
    assert out.row_lengths()[2] == 0


def test_only_touched_rows_must_be_canonical():
    # Row 1 is unsorted and row 2 holds a duplicate column; neither is
    # touched, so both are carried over verbatim.
    a = CSRMatrix(
        (4, 5),
        np.array([0, 2, 4, 6, 7], dtype=np.int64),
        np.array([1, 3, 4, 2, 0, 0, 3], dtype=np.int32),
        np.arange(1.0, 8.0, dtype=np.float32),
    )
    access_profile(a)
    out = apply_delta(
        a, EdgeDelta.new(inserts=([0, 3], [2, 4], [8.0, 9.0]), deletes=([3], [3]))
    )
    ref = CSRMatrix(
        (4, 5),
        np.array([0, 3, 5, 7, 8], dtype=np.int64),
        np.array([1, 2, 3, 4, 2, 0, 0, 4], dtype=np.int32),
        np.array([1.0, 8.0, 2.0, 3.0, 4.0, 5.0, 6.0, 9.0], dtype=np.float32),
    )
    assert_full_parity(out, ref)
    assert_profile_parity(out, ref)
    for touched_bad_row in (1, 2):
        with pytest.raises(ValueError, match="not canonical"):
            apply_delta(a, EdgeDelta.new(deletes=([touched_bad_row], [0])))


def test_row_longer_than_dense_pair_histogram():
    """A row of more than 131,072 elements makes the pair histogram's
    dense key space exceed 2**20, so it falls back to ``np.unique``."""
    k = 140_000
    rng = np.random.default_rng(1)
    hub = np.delete(np.arange(k), [5, 77_777])
    rows = np.concatenate([np.zeros(hub.size, np.int64), rng.integers(1, 9, 60)])
    cols = np.concatenate([hub, rng.integers(0, k, 60)])
    a = csr_from_coo(rows, cols, rng.standard_normal(rows.size),
                     shape=(9, k), sum_duplicates=True)
    assert 8 * (int(a.row_lengths().max()) + 1) > 2**20

    # Constructor: the pair histogram equals a direct count over rows.
    prof = access_profile(a)
    pairs, counts = np.unique(
        np.stack([a.rowptr64()[:-1] % 8, a.row_lengths()]), axis=1,
        return_counts=True,
    )
    assert np.array_equal(prof._pl_phase, pairs[0])
    assert np.array_equal(prof._pl_len, pairs[1])
    assert np.array_equal(prof._pl_count, counts)
    assert prof._pl_phase.dtype == prof._pl_len.dtype == prof._pl_count.dtype == np.int64

    # Delta: the evolved profile equals a cold build of the child.
    out = assert_splice_matches_oracle(
        a, inserts=([0, 3], [5, 3], [1.0, 2.0]), deletes=([0], [6]),
        updates=([0], [77_778], [3.0]),
    )
    cold = AccessProfile(out)
    for attr in PROFILE_ARRAYS:
        assert np.array_equal(getattr(access_profile(out), attr), getattr(cold, attr))
        assert getattr(access_profile(out), attr).dtype == getattr(cold, attr).dtype


def test_immutability_of_parent():
    a = small_matrix()
    before = (a.rowptr.copy(), a.colind.copy(), a.values.copy(), a.fingerprint())
    out = apply_delta(a, EdgeDelta.new(deletes=([0], [1])))
    assert out is not a
    assert np.array_equal(a.rowptr, before[0])
    assert np.array_equal(a.colind, before[1])
    assert np.array_equal(a.values, before[2])
    assert a.fingerprint() == before[3]


# ----------------------------------------------------------------------
# Counters and fingerprint caching (the _cached-path fix)
# ----------------------------------------------------------------------


def test_fingerprint_counts_as_derived_cache_traffic():
    prev = obs.set_registry(MetricsRegistry())
    try:
        a = small_matrix()
        a.fingerprint()
        a.fingerprint()
        reg = obs.get_registry()
        assert reg.counter("csr.derived_cache.misses", array="fingerprint").value == 1
        assert reg.counter("csr.derived_cache.hits", array="fingerprint").value == 1
    finally:
        obs.set_registry(prev)


def test_delta_counters_and_seeding():
    prev = obs.set_registry(MetricsRegistry())
    try:
        a = small_matrix()
        a.colind64(), a.coo_rows(), access_profile(a)
        apply_delta(
            a,
            EdgeDelta.new(
                inserts=([2], [0], [1.0]),
                deletes=([0], [1]),
                updates=([1], [0], [5.0]),
            ),
        )
        reg = obs.get_registry()
        assert reg.counter("delta.applied").value == 1
        assert reg.counter("delta.edges", kind="insert").value == 1
        assert reg.counter("delta.edges", kind="delete").value == 1
        assert reg.counter("delta.edges", kind="update").value == 1
        assert reg.counter("delta.rows_touched").value == 3
        assert reg.counter("delta.profile.updated").value == 1
        # All four derived arrays plus the evolved profile were seeded,
        # not rebuilt.
        for key in ("rowptr64", "row_lengths", "colind64", "coo_rows"):
            assert reg.counter("csr.derived_cache.seeded", array=key).value == 1
        assert reg.counter("access_profile.seeded").value == 1
    finally:
        obs.set_registry(prev)


# ----------------------------------------------------------------------
# Memo-key sharing and targeted invalidation
# ----------------------------------------------------------------------


def test_delta_built_matrix_shares_memo_with_scratch_build():
    """The estimate memo is keyed on content: a scratch rebuild of a
    delta-applied matrix must *hit* entries the delta version created."""
    from repro.core.crc import CRCSpMM

    prev = obs.set_registry(MetricsRegistry())
    try:
        clear_estimate_memo()
        a = small_matrix()
        out = apply_delta(a, EdgeDelta.new(deletes=([0], [1])))
        ref = csr_from_coo([0, 1, 3, 3, 3], [3, 0, 0, 2, 4],
                           [2.0, 3.0, 4.0, 5.0, 6.0], shape=(4, 5))
        kernel = CRCSpMM()
        kernel.estimate(out, 32, GTX_1080TI)
        kernel.estimate(ref, 32, GTX_1080TI)  # same content -> memo hit
        reg = obs.get_registry()
        assert reg.counter(
            "kernel.estimate_memo.hits", kernel=kernel.name, gpu=GTX_1080TI.name
        ).value == 1
    finally:
        clear_estimate_memo()
        obs.set_registry(prev)


def test_invalidate_matrix_caches_is_targeted(tmp_path):
    from repro.bench import DiskCache, run_sweep_with_stats, use_disk_cache
    from repro.core.crc import CRCSpMM

    prev = obs.set_registry(MetricsRegistry())
    try:
        clear_estimate_memo()
        a = power_law(300, 1800, seed=5)
        b = power_law(300, 1800, seed=6)
        kernel = CRCSpMM()
        widths = [32, 64]
        with use_disk_cache(DiskCache(tmp_path)) as cache:
            for n in widths:
                kernel.estimate(a, n, GTX_1080TI)
                kernel.estimate(b, n, GTX_1080TI)
            assert cache.stats()["kinds"]["timing"]["entries"] == 4
            dropped = invalidate_matrix_caches(a)
            assert dropped == {"estimate_memo": 2, "disk": 2}
            assert cache.stats()["kinds"]["timing"]["entries"] == 2
            # b's entry survived: a re-estimate is a memo hit, not a rebuild.
            kernel.estimate(b, 32, GTX_1080TI)
            reg = obs.get_registry()
            assert reg.counter(
                "kernel.estimate_memo.hits", kernel=kernel.name, gpu=GTX_1080TI.name
            ).value == 1
            assert reg.counter("delta.invalidated", store="estimate_memo").value == 2
            assert reg.counter("delta.invalidated", store="disk").value == 2
            # A fresh-memo sweep over the surviving matrix replays from disk.
            clear_estimate_memo()
            before = cache.counters()
            _, stats = run_sweep_with_stats([kernel], {"b": b}, widths, [GTX_1080TI])
            after = cache.counters()
        assert stats.memo_misses == 0
        assert after["misses"] == before["misses"]
        assert after["hits"] - before["hits"] == len(widths)
    finally:
        clear_estimate_memo()
        obs.set_registry(prev)


# ----------------------------------------------------------------------
# Threshold-gated re-tuning
# ----------------------------------------------------------------------


def test_rekey_carries_over_below_thresholds():
    prev = obs.set_registry(MetricsRegistry())
    try:
        a = power_law(400, 3200, seed=11)
        access_profile(a)
        tuned = TunedSpMM()
        b = np.ones((a.ncols, 16), dtype=np.float32)
        tuned.run(a, b)
        rng = np.random.default_rng(3)
        i = rng.choice(a.nnz, size=4, replace=False)
        out = apply_delta(
            a, EdgeDelta.new(deletes=(a.coo_rows()[i], a.colind64()[i]))
        )
        assert tuned.rekey_after_delta(a, out) is False
        reg = obs.get_registry()
        assert reg.counter("tuning.tuned_spmm.carryovers").value == 1
        # The carried-over key serves without re-tuning.
        tuned.run(out, b)
        assert reg.counter(
            "tuning.tuned_spmm.lookups", cached=True, gpu=GTX_1080TI.name
        ).value >= 1
    finally:
        obs.set_registry(prev)


def test_rekey_reselects_on_structural_break():
    prev = obs.set_registry(MetricsRegistry())
    try:
        a = power_law(200, 1200, seed=13)
        tuned = TunedSpMM()
        b = np.ones((a.ncols, 16), dtype=np.float32)
        tuned.run(a, b)
        # Grow a hub: pile a large batch of edges onto one row.
        cols_present = set(a.colind64()[a.coo_rows() == 0].tolist())
        new_cols = [c for c in range(a.ncols) if c not in cols_present][:150]
        hub = EdgeDelta.new(
            inserts=(
                np.zeros(len(new_cols), dtype=np.int64),
                np.array(new_cols),
                np.ones(len(new_cols), dtype=np.float32),
            )
        )
        out = apply_delta(a, hub)
        drift = structural_drift(a, out)
        assert drift.max_over_mean_ratio > 1.0
        assert tuned.rekey_after_delta(
            a, out, RetuneThresholds(gini_delta=1e-6, max_over_mean_ratio=1.0001)
        ) is True
        reg = obs.get_registry()
        total = sum(
            s["value"]
            for s in reg.snapshot()
            if s["name"] == "tuning.tuned_spmm.reselections"
        )
        assert total == 1
        # Stale choices are gone: next run re-tunes under the new key.
        assert all(k[0] != a.fingerprint() for k in tuned._choice)
    finally:
        obs.set_registry(prev)


def test_rekey_is_noop_for_identical_fingerprints():
    tuned = TunedSpMM()
    a = small_matrix()
    assert tuned.rekey_after_delta(a, a) is False
