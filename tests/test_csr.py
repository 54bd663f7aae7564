"""Unit tests for the CSR substrate."""

import numpy as np
import pytest
import references
import scipy.sparse as sp

from repro.sparse import CSRMatrix, csr_from_coo, csr_from_dense, csr_from_scipy


class TestConstruction:
    def test_fig4_example(self, small_csr):
        # The paper's Fig. 4: rowPtr = [0,2,3,6,7], colInd = [1,2,0,1,2,3,2]
        assert small_csr.rowptr.tolist() == [0, 2, 3, 6, 7]
        assert small_csr.colind.tolist() == [1, 2, 0, 1, 2, 3, 2]
        assert small_csr.values.tolist() == [1, 2, 3, 4, 5, 6, 7]

    def test_dtypes(self, small_csr):
        assert small_csr.rowptr.dtype == np.int32
        assert small_csr.colind.dtype == np.int32
        assert small_csr.values.dtype == np.float32

    def test_nnz_and_shape(self, small_csr):
        assert small_csr.nnz == 7
        assert small_csr.shape == (4, 4)
        assert small_csr.nrows == 4 and small_csr.ncols == 4

    def test_row_lengths(self, small_csr):
        assert small_csr.row_lengths().tolist() == [2, 1, 3, 1]
        assert small_csr.mean_row_length() == pytest.approx(7 / 4)

    def test_row_slice(self, small_csr):
        cols, vals = small_csr.row_slice(2)
        assert cols.tolist() == [1, 2, 3]
        assert vals.tolist() == [4, 5, 6]

    def test_empty_matrix(self):
        m = csr_from_coo([], [], [], shape=(3, 5))
        assert m.nnz == 0
        assert m.to_dense().shape == (3, 5)
        assert not m.to_dense().any()

    def test_zero_dimension(self):
        m = csr_from_coo([], [], [], shape=(0, 0))
        assert m.nnz == 0 and m.nrows == 0

    def test_rowptr_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="rowptr"):
            CSRMatrix((3, 3), np.array([0, 1]), np.array([0]), np.array([1.0]))

    def test_rowptr_not_monotone_rejected(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            CSRMatrix((3, 2), np.array([0, 2, 1, 2]), np.array([0, 1]), np.array([1.0, 2.0]))

    def test_rowptr_nnz_mismatch_rejected(self):
        with pytest.raises(ValueError, match="nnz"):
            CSRMatrix((2, 2), np.array([0, 1, 3]), np.array([0, 1]), np.array([1.0, 2.0]))

    def test_column_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="column"):
            CSRMatrix((2, 2), np.array([0, 1, 2]), np.array([0, 5]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match="column"):
            csr_from_coo([0], [9], [1.0], shape=(2, 2))

    def test_row_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="row"):
            csr_from_coo([5], [0], [1.0], shape=(2, 2))

    def test_mismatched_coo_rejected(self):
        with pytest.raises(ValueError):
            csr_from_coo([0, 1], [0], shape=(2, 2))

    def test_default_values_are_ones(self):
        m = csr_from_coo([0, 1], [1, 0], shape=(2, 2))
        assert m.values.tolist() == [1.0, 1.0]

    def test_sum_duplicates(self):
        m = csr_from_coo([0, 0, 0], [1, 1, 2], [1.0, 2.0, 5.0], shape=(2, 3), sum_duplicates=True)
        assert m.nnz == 2
        assert m.to_dense()[0].tolist() == [0.0, 3.0, 5.0]

    def test_duplicates_kept_without_flag(self):
        m = csr_from_coo([0, 0], [1, 1], [1.0, 2.0], shape=(1, 2))
        assert m.nnz == 2
        # SpMM semantics accumulate duplicates, like COO.
        assert m.to_dense()[0, 1] == 3.0


class TestConversions:
    def test_dense_roundtrip(self, rng):
        d = (rng.random((6, 9)) > 0.6) * rng.standard_normal((6, 9))
        m = csr_from_dense(d)
        np.testing.assert_allclose(m.to_dense(), d.astype(np.float32), rtol=1e-6)

    def test_dense_tolerance(self):
        d = np.array([[0.05, 1.0], [0.0, -0.01]])
        m = csr_from_dense(d, tol=0.06)
        assert m.nnz == 1

    def test_dense_requires_2d(self):
        with pytest.raises(ValueError):
            csr_from_dense(np.zeros(4))

    def test_scipy_roundtrip(self, medium_csr):
        back = csr_from_scipy(medium_csr.to_scipy())
        assert back.allclose(medium_csr)

    def test_scipy_from_coo_matrix(self):
        coo = sp.coo_matrix(([1.0, 2.0], ([0, 1], [1, 0])), shape=(2, 2))
        m = csr_from_scipy(coo)
        assert m.nnz == 2

    def test_to_coo_order(self, small_csr):
        rows, cols, vals = small_csr.to_coo()
        assert rows.tolist() == [0, 0, 1, 2, 2, 2, 3]
        assert cols.tolist() == [1, 2, 0, 1, 2, 3, 2]


class TestTransforms:
    def test_transpose_matches_scipy(self, medium_csr):
        t = medium_csr.transpose()
        np.testing.assert_allclose(
            t.to_dense(), medium_csr.to_scipy().T.toarray(), rtol=1e-6
        )

    def test_transpose_involution(self, medium_csr):
        assert medium_csr.transpose().transpose().allclose(medium_csr.sorted_rows())

    def test_transpose_shape(self):
        m = csr_from_coo([0], [4], [2.0], shape=(2, 6))
        assert m.transpose().shape == (6, 2)

    def test_transpose_of_a_wide_matrix_sorts_both_digits(self, rng):
        # K > 2**16: the radix sort's second (high 16-bit) pass; columns
        # straddle the digit boundary, with duplicates and unsorted rows.
        k, nnz = (1 << 16) + 40, 300
        rows = np.sort(rng.integers(0, 25, size=nnz))
        cols = rng.choice(np.r_[0:30, (1 << 16) - 30 : k], size=nnz)
        rowptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=25))])
        a = CSRMatrix((25, k), rowptr, cols, rng.standard_normal(nnz))
        got, ref = a.transpose(), references.transpose_via_coo(a)
        for name in ("rowptr", "colind", "values"):
            np.testing.assert_array_equal(getattr(got, name), getattr(ref, name))

    def test_with_values(self, small_csr):
        doubled = small_csr.with_values(small_csr.values * 2)
        assert doubled.pattern_equal(small_csr)
        np.testing.assert_allclose(doubled.to_dense(), small_csr.to_dense() * 2)

    def test_with_values_shape_check(self, small_csr):
        with pytest.raises(ValueError):
            small_csr.with_values(np.ones(3))

    def test_row_normalized(self, small_csr):
        n = small_csr.row_normalized()
        sums = n.to_dense().sum(axis=1)
        np.testing.assert_allclose(sums, np.ones(4), rtol=1e-5)

    def test_row_normalized_empty_row(self):
        m = csr_from_coo([0], [0], [2.0], shape=(3, 3))
        n = m.row_normalized()
        assert n.to_dense()[1].sum() == 0  # empty rows stay zero

    def test_sym_normalized(self):
        # For a k-regular symmetric graph, sym-norm entries are all 1/k.
        d = np.ones((4, 4), dtype=np.float32) - np.eye(4, dtype=np.float32)
        m = csr_from_dense(d).sym_normalized()
        vals = m.to_dense()[m.to_dense() > 0]
        np.testing.assert_allclose(vals, 1 / 3, rtol=1e-5)

    def test_add_self_loops(self, small_csr):
        looped = small_csr.add_self_loops(weight=2.0)
        d = looped.to_dense()
        np.testing.assert_allclose(np.diag(d), [2.0, 2.0, 7.0, 2.0])  # (2,2) had 5, gets +2

    def test_add_self_loops_requires_square(self):
        m = csr_from_coo([0], [1], [1.0], shape=(2, 3))
        with pytest.raises(ValueError):
            m.add_self_loops()

    def test_equality_helpers(self, small_csr):
        assert small_csr.pattern_equal(small_csr)
        assert small_csr.allclose(small_csr)
        other = small_csr.with_values(small_csr.values + 1)
        assert not small_csr.allclose(other)
        assert small_csr.pattern_equal(other)
