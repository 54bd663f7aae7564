"""Tests for the random-graph generators."""

import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import references as ref
from repro.bench.corpus import MatrixSpec, corpus_preset
from repro.sparse import (
    banded_random,
    erdos_renyi_nnz,
    power_law,
    pruned_magnitude,
    pruned_structured,
    rmat,
    uniform_random,
)
from repro.sparse.generators import _csr_from_flat, _top_k


class TestUniformRandom:
    def test_shape_and_nnz(self):
        g = uniform_random(m=1000, nnz=10_000, seed=0)
        assert g.shape == (1000, 1000)
        # Duplicates merge, so realized nnz is close to but <= requested.
        assert 9_500 <= g.nnz <= 10_000

    def test_deterministic(self):
        a = uniform_random(500, 4000, seed=3)
        b = uniform_random(500, 4000, seed=3)
        assert a.allclose(b)

    def test_seed_changes_graph(self):
        a = uniform_random(500, 4000, seed=3)
        b = uniform_random(500, 4000, seed=4)
        assert not (a.nnz == b.nnz and a.pattern_equal(b))

    def test_rectangular(self):
        g = uniform_random(m=100, nnz=500, k=30, seed=0)
        assert g.shape == (100, 30)
        assert g.colind.max() < 30

    def test_weighted(self):
        g = uniform_random(200, 1000, seed=0, weighted=True)
        assert g.values.min() >= 0.5 and g.values.max() <= 1.5
        assert np.unique(g.values).size > 10

    def test_unweighted_ones(self):
        g = uniform_random(200, 1000, seed=0)
        assert np.all(g.values == 1.0)


class TestPowerLaw:
    def test_heavy_tail(self):
        g = power_law(2000, 20_000, seed=1)
        lengths = np.sort(g.row_lengths())[::-1]
        # A heavy-tailed distribution concentrates edges in hub rows.
        top_share = lengths[:20].sum() / g.nnz
        assert top_share > 0.15
        # ...much more so than a uniform graph.
        u = uniform_random(2000, 20_000, seed=1)
        u_top = np.sort(u.row_lengths())[::-1][:20].sum() / u.nnz
        assert top_share > 2 * u_top

    def test_column_indices_in_range(self):
        g = power_law(500, 5000, seed=2)
        assert g.colind.min() >= 0 and g.colind.max() < 500


class TestRmat:
    def test_size(self):
        g = rmat(scale=10, edge_factor=8, seed=0)
        assert g.nrows == 1024
        assert g.nnz <= 8 * 1024

    def test_clustering_vs_uniform(self):
        # RMAT's self-similar structure concentrates nonzeros in the
        # low-index quadrant given a > b,c,d.
        g = rmat(scale=10, edge_factor=8, seed=0)
        low = (g.colind < 256).sum() / g.nnz
        assert low > 0.3  # uniform would give 0.25

    def test_deterministic(self):
        assert rmat(8, 4, seed=5).allclose(rmat(8, 4, seed=5))


class TestBanded:
    def test_band_respected(self):
        g = banded_random(1000, 8000, bandwidth=5, seed=0)
        rows = np.repeat(np.arange(g.nrows), g.row_lengths())
        assert np.all(np.abs(rows - g.colind) <= 5)

    def test_square(self):
        g = banded_random(100, 300, bandwidth=2, seed=0)
        assert g.shape == (100, 100)


class TestErdosRenyi:
    def test_exact_nnz(self):
        g = erdos_renyi_nnz(40, 50, 123, seed=0)
        assert g.nnz == 123

    def test_capacity_check(self):
        with pytest.raises(ValueError):
            erdos_renyi_nnz(3, 3, 10, seed=0)


class TestPrunedParity:
    """The sort-free pruned generators against their argsort definition."""

    @staticmethod
    def _assert_bytes_equal(a, b):
        assert a.shape == b.shape
        for name in ("rowptr", "colind", "values"):
            x, y = getattr(a, name), getattr(b, name)
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name

    _SPARSITY = st.one_of(
        st.sampled_from([0.0, 1e-6, 0.5, 0.9, 0.98, 1.0 - 1e-9]),
        st.floats(0.0, 1.0, exclude_max=True),
    )

    @settings(max_examples=200, deadline=None)
    @given(m=st.integers(1, 40), k=st.integers(1, 40), sparsity=_SPARSITY,
           block=st.sampled_from([1, 3, 4, 7]), seed=st.integers(0, 2**16))
    @example(m=1, k=1, sparsity=0.0, block=1, seed=0)  # keep everything
    @example(m=1, k=1, sparsity=0.6, block=4, seed=0)  # keep rounds to 0
    @example(m=3, k=10, sparsity=0.5, block=7, seed=5)  # k % block != 0
    @example(m=21, k=29, sparsity=0.9, block=7, seed=0)  # 0.9 * 21 * 5 rounds up, 0.9 * 105 down
    def test_matches_argsort_reference(self, m, k, sparsity, block, seed):
        self._assert_bytes_equal(
            pruned_magnitude(m, k, sparsity, seed=seed),
            ref.pruned_magnitude_reference(m, k, sparsity, seed=seed),
        )
        self._assert_bytes_equal(
            pruned_structured(m, k, sparsity, block=block, seed=seed),
            ref.pruned_structured_reference(m, k, sparsity, block=block, seed=seed),
        )

    @settings(max_examples=100, deadline=None)
    @given(ints=st.lists(st.integers(0, 3), max_size=40),
           dtype=st.sampled_from([np.float32, np.float64]))
    def test_top_k_ties_go_to_lowest_index(self, ints, dtype):
        score = np.asarray(ints, dtype=dtype)
        for keep in range(score.size + 1):
            got = _top_k(score, keep)
            np.testing.assert_array_equal(got, ref.top_k_reference(score, keep))

    @pytest.mark.parametrize("flat", [[3, 1], [2, 2], [0, 5, 5, 7]])
    def test_csr_from_flat_rejects_unsorted_keys(self, flat):
        with pytest.raises(ValueError, match="ascending"):
            _csr_from_flat(np.array(flat), np.ones(len(flat)), 3, 3)


#: One fixed spec per corpus generator kind and its ``fingerprint()``.
#: Any change here means every corpus matrix of that kind changed.
PINNED_FINGERPRINTS = [
    ("uniform", dict(m=300, nnz=2400, seed=1), "a085a2b54b94824272aa804ed0cc0f5e"),
    ("power_law", dict(m=300, nnz=2400, seed=1), "5c3c49f10fa1fdcfabde581846ed04d4"),
    ("rmat", dict(scale=8, edge_factor=8, seed=1), "bc4711d5402ae60efb9daced436dfe2c"),
    ("banded", dict(m=300, nnz=2400, bandwidth=6, seed=1),
     "6d094c8fa333cff3e2de6cb59aaffae7"),
    ("pruned_magnitude", dict(m=64, k=96, sparsity=0.9, seed=1),
     "f2356969726ade9270f6eadcdef01dfe"),
    ("pruned_random", dict(m=64, k=96, sparsity=0.9, seed=1),
     "87672d6078fafa6eacf6416aad0f284f"),
    ("pruned_structured", dict(m=64, k=90, sparsity=0.75, block=4, seed=1),
     "a319c1e26309923a323cbe53e4160826"),
]


class TestPinnedOutput:
    """Generator output pinned across commits, not just within a run."""

    @pytest.mark.parametrize("kind,params,want", PINNED_FINGERPRINTS,
                             ids=[p[0] for p in PINNED_FINGERPRINTS])
    def test_fingerprint(self, kind, params, want):
        assert MatrixSpec.make(kind, kind, **params).build().fingerprint() == want

    def test_pins_cover_every_generator_kind(self):
        from repro.bench.corpus import _BUILDERS, _FILE_KINDS

        assert {p[0] for p in PINNED_FINGERPRINTS} == set(_BUILDERS) - _FILE_KINDS

    def test_mixed_corpus_digest(self):
        h = hashlib.blake2b(digest_size=16)
        for spec in corpus_preset("mixed", limit=128, seeds=(1,)):
            h.update(spec.build().fingerprint().encode())
        assert h.hexdigest() == "d0b721c142d806b534e59f977759dc59"
