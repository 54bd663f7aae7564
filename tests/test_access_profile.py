"""Parity and caching tests for repro.core.access_profile.

The contract (docs/PERFORMANCE.md): every profile-backed counter in
``repro.core._counting`` is bit-identical — exact integer equality — to
its array-expansion reference in ``tests/references.py``, on every
matrix and every width, aligned or not.
"""

import numpy as np
import pytest
import references as ref
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.core import _counting as cnt
from repro.core.access_profile import (
    AccessProfile,
    AccessTotals,
    access_profile,
    clear_access_profile,
)
from repro.sparse import csr_from_coo, csr_from_dense, power_law, uniform_random

# Widths straddling sector (8) and segment (32) boundaries, plus n=1.
WIDTHS = [1, 7, 8, 9, 16, 31, 32, 33, 64, 100]
TILES = [8, 32, 64, 128]


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


def assert_profile_matches_oracle(a, widths=WIDTHS, tiles=TILES):
    clear_access_profile(a)
    for n in widths:
        assert cnt.count_b_loads(a, n) == ref.count_b_loads(a, n), n
        assert cnt.count_c_stores(a, n) == ref.count_c_stores(a, n), n
    for tile in tiles:
        assert cnt.count_tile_loads(a, tile) == ref.count_tile_loads(a, tile)
    assert cnt.broadcast_walk_sectors(a) == ref.broadcast_walk_sectors(a)
    assert cnt.unique_b_columns(a) == ref.unique_b_columns(a)
    assert cnt.occupied_rows(a) == ref.occupied_rows(a)


# ----------------------------------------------------------------------
# Hypothesis parity: profile == reference, bit for bit
# ----------------------------------------------------------------------


@given(random_csr())
@settings(max_examples=60, deadline=None)
def test_profile_matches_oracle_random(a):
    assert_profile_matches_oracle(a)


@given(st.integers(0, 2**16), st.integers(1, 400))
@settings(max_examples=25, deadline=None)
def test_profile_matches_oracle_uniform(seed, n):
    a = uniform_random(60, 300, 50, seed=seed)
    assert_profile_matches_oracle(a, widths=[n])


@given(st.integers(0, 2**16))
@settings(max_examples=15, deadline=None)
def test_profile_matches_oracle_power_law(seed):
    a = power_law(80, 600, seed=seed)
    assert_profile_matches_oracle(a)


# ----------------------------------------------------------------------
# Edge cases: the profile path and the reference agree on each
# ----------------------------------------------------------------------


def _empty_matrix():
    return csr_from_coo([], [], [], shape=(5, 5))


def _all_empty_rows():
    # 0 x structure is impossible in this repo (shapes >= 1); the closest
    # degenerate is every row empty.
    return csr_from_coo([], [], [], shape=(7, 3))


def _single_entry():
    return csr_from_coo([0], [2], [1.0], shape=(1, 4))


@pytest.mark.parametrize(
    "make", [_empty_matrix, _all_empty_rows, _single_entry], ids=["empty", "empty-rows", "1x1nnz"]
)
@pytest.mark.parametrize("n", [1, 7, 8, 9])
def test_edge_cases_both_paths(make, n):
    a = make()
    clear_access_profile(a)
    b = cnt.count_b_loads(a, n)
    c = cnt.count_c_stores(a, n)
    t = cnt.count_tile_loads(a, 32)
    w = cnt.broadcast_walk_sectors(a)
    assert b == ref.count_b_loads(a, n)
    assert c == ref.count_c_stores(a, n)
    assert t == ref.count_tile_loads(a, 32)
    assert w == ref.broadcast_walk_sectors(a)
    if a.nnz == 0:
        assert b.sectors == 0 and b.instructions == 0
        assert t == AccessTotals(0, 0, 0)
        assert w == 0
    # C stores cover all rows regardless of occupancy.
    assert c.instructions == a.nrows * len(cnt.dense_segments(n))


def test_empty_matrix_profile_fields():
    a = _empty_matrix()
    p = access_profile(a)
    assert p.nnz == 0
    assert p.unique_b_columns == 0
    assert p.occupied_rows == 0
    assert p.broadcast_sectors() == 0
    assert p.tile_loads(32).sectors == 0


def test_known_value_aligned():
    # One dense 4x8 matrix, n=8: every row of B is exactly one sector.
    a = csr_from_dense(np.ones((4, 8), dtype=np.float32))
    b = cnt.count_b_loads(a, 8)
    assert b.sectors == a.nnz * 1
    assert b.instructions == a.nnz  # one 32-wide segment covers n=8
    c = cnt.count_c_stores(a, 8)
    assert c.sectors == 4 and c.instructions == 4


# ----------------------------------------------------------------------
# Caching, counters, exotic tiles
# ----------------------------------------------------------------------


def test_profile_cached_on_matrix():
    a = uniform_random(20, 60, 20, seed=1)
    clear_access_profile(a)
    reg = obs.get_registry()
    misses0 = reg.counter("access_profile.misses").value
    hits0 = reg.counter("access_profile.hits").value
    p1 = access_profile(a)
    p2 = access_profile(a)
    assert p1 is p2
    assert reg.counter("access_profile.misses").value == misses0 + 1
    assert reg.counter("access_profile.hits").value == hits0 + 1
    clear_access_profile(a)
    assert access_profile(a) is not p1


def test_per_width_memoization():
    a = uniform_random(20, 60, 20, seed=2)
    p = AccessProfile(a)
    assert p.b_loads(13) is p.b_loads(13)
    assert p.c_stores(13) is p.c_stores(13)
    assert p.tile_loads(32) is p.tile_loads(32)


def test_exotic_tile_falls_back_to_oracle():
    a = uniform_random(20, 80, 20, seed=4)
    # tile not a multiple of 8: profile method refuses, public API stays exact
    p = access_profile(a)
    with pytest.raises(ValueError):
        p.tile_loads(12)
    assert cnt.count_tile_loads(a, 12) == ref.count_tile_loads(a, 12)
    assert cnt.count_tile_loads(a, 1) == ref.count_tile_loads(a, 1)


def test_kernel_counts_unchanged_by_profile_path(monkeypatch):
    # count() must yield identical stats when every counter is swapped
    # for its reference.
    from repro.core import CRCSpMM, CWMSpMM, GESpMM, SimpleSpMM
    from repro.gpusim.config import GTX_1080TI

    a = power_law(200, 2000, seed=5)
    kernels = (SimpleSpMM(), CRCSpMM(), CWMSpMM(2), GESpMM())
    widths = (32, 250, 7)
    profiled = {(k.name, n): k.count(a, n, GTX_1080TI) for k in kernels for n in widths}
    with monkeypatch.context() as patch:
        for name in ref.COUNTERS:
            patch.setattr(cnt, name, getattr(ref, name))
        clear_access_profile(a)
        for kern in kernels:
            for n in widths:
                assert kern.count(a, n, GTX_1080TI) == profiled[kern.name, n], (kern.name, n)
        assert a._derived.get("access_profile") is None  # references never built one
