"""Unit tests for the CSR container."""

import numpy as np
import pytest

from repro.errors import ShapeMismatchError, SparseFormatError
from repro.formats import CSRMatrix

from conftest import random_square


class TestConstruction:
    def test_from_dense_roundtrip(self):
        d = np.array([[1.0, 0.0], [2.0, 3.0]])
        A = CSRMatrix.from_dense(d)
        assert A.nnz == 3
        assert np.array_equal(A.to_dense(), d)

    def test_from_coo_sums_duplicates(self):
        A = CSRMatrix.from_coo(
            np.array([0, 0, 1]), np.array([1, 1, 0]), np.array([2.0, 3.0, 1.0]), (2, 2)
        )
        assert A.nnz == 2
        assert A.to_dense()[0, 1] == 5.0

    def test_from_coo_keep_duplicates(self):
        A = CSRMatrix.from_coo(
            np.array([0, 0]), np.array([1, 1]), np.array([2.0, 3.0]), (2, 2),
            sum_duplicates=False,
        )
        assert A.nnz == 2
        assert A.to_dense()[0, 1] == 5.0  # dense assembly still sums

    def test_empty(self):
        A = CSRMatrix.empty(3, 4)
        assert A.nnz == 0 and A.shape == (3, 4)
        assert np.array_equal(A.to_dense(), np.zeros((3, 4)))

    def test_identity(self):
        I = CSRMatrix.identity(4)
        assert np.array_equal(I.to_dense(), np.eye(4))

    def test_from_dense_with_tol(self):
        d = np.array([[1e-12, 1.0], [0.5, 0.0]])
        A = CSRMatrix.from_dense(d, tol=1e-9)
        assert A.nnz == 2

    def test_integer_data_promoted_to_float(self):
        A = CSRMatrix.from_coo(
            np.array([0]), np.array([0]), np.array([1]), (1, 1)
        )
        assert A.data.dtype.kind == "f"


class TestValidation:
    def test_bad_indptr_length(self):
        with pytest.raises(SparseFormatError):
            CSRMatrix(2, 2, np.array([0, 1]), np.array([0], dtype=np.int32),
                      np.array([1.0]))

    def test_decreasing_indptr(self):
        with pytest.raises(SparseFormatError):
            CSRMatrix(2, 2, np.array([0, 2, 1]),
                      np.array([0, 1], dtype=np.int32), np.array([1.0, 2.0]))

    def test_column_out_of_bounds(self):
        with pytest.raises(SparseFormatError):
            CSRMatrix(1, 2, np.array([0, 1]), np.array([5], dtype=np.int32),
                      np.array([1.0]))

    def test_indptr_nnz_mismatch(self):
        with pytest.raises(SparseFormatError):
            CSRMatrix(1, 2, np.array([0, 2]), np.array([0], dtype=np.int32),
                      np.array([1.0]))

    def test_data_length_mismatch(self):
        with pytest.raises(SparseFormatError):
            CSRMatrix(1, 2, np.array([0, 1]), np.array([0], dtype=np.int32),
                      np.array([1.0, 2.0]))


class TestNumerics:
    def test_matvec_matches_dense(self):
        A = random_square(40, 0.2, seed=5)
        x = np.random.default_rng(0).standard_normal(40)
        assert np.allclose(A.matvec(x), A.to_dense() @ x)

    def test_matvec_rectangular(self):
        rng = np.random.default_rng(2)
        d = (rng.random((5, 9)) < 0.4) * rng.standard_normal((5, 9))
        A = CSRMatrix.from_dense(d)
        x = rng.standard_normal(9)
        assert np.allclose(A.matvec(x), d @ x)

    def test_matvec_wrong_length(self):
        A = random_square(10, 0.3)
        with pytest.raises(ShapeMismatchError):
            A.matvec(np.ones(11))

    def test_matvec_out_param(self):
        A = random_square(10, 0.3)
        out = np.empty(10)
        y = A.matvec(np.ones(10), out=out)
        assert y is out

    def test_diagonal(self):
        d = np.diag([1.0, 2.0, 3.0]) + np.tril(np.ones((3, 3)), -1)
        A = CSRMatrix.from_dense(d)
        assert A.diagonal().tolist() == [1.0, 2.0, 3.0]

    def test_diagonal_with_missing_entries(self):
        d = np.array([[0.0, 0.0], [1.0, 5.0]])
        assert CSRMatrix.from_dense(d).diagonal().tolist() == [0.0, 5.0]

    def test_scale_rows(self):
        A = random_square(8, 0.4, seed=7)
        s = np.arange(1.0, 9.0)
        assert np.allclose(A.scale_rows(s).to_dense(), np.diag(s) @ A.to_dense())


class TestStructure:
    def test_extract_block(self):
        A = random_square(30, 0.2, seed=11)
        B = A.extract_block(5, 20, 3, 27)
        assert np.allclose(B.to_dense(), A.to_dense()[5:20, 3:27])

    def test_extract_block_empty_region(self):
        A = CSRMatrix.empty(10, 10)
        B = A.extract_block(2, 8, 2, 8)
        assert B.nnz == 0 and B.shape == (6, 6)

    def test_extract_block_bounds_check(self):
        A = random_square(10, 0.3)
        with pytest.raises(ShapeMismatchError):
            A.extract_block(0, 11, 0, 5)

    def test_extract_block_zero_width(self):
        A = random_square(10, 0.3)
        B = A.extract_block(3, 3, 0, 10)
        assert B.shape == (0, 10) and B.nnz == 0

    def test_permute_symmetric(self):
        A = random_square(12, 0.3, seed=13)
        p = np.random.default_rng(1).permutation(12)
        assert np.allclose(
            A.permute_symmetric(p).to_dense(), A.to_dense()[np.ix_(p, p)]
        )

    def test_permute_requires_square(self):
        A = CSRMatrix.from_dense(np.ones((2, 3)))
        with pytest.raises(ShapeMismatchError):
            A.permute_symmetric(np.array([0, 1]))

    def test_sort_indices(self):
        A = CSRMatrix(
            2,
            3,
            np.array([0, 2, 3]),
            np.array([2, 0, 1], dtype=np.int32),
            np.array([1.0, 2.0, 3.0]),
        )
        assert not A.has_sorted_indices()
        S = A.sort_indices()
        assert S.has_sorted_indices()
        assert np.array_equal(S.to_dense(), A.to_dense())

    @pytest.mark.parametrize("seed", range(40))
    def test_sort_indices_is_the_lexsort_order(self, seed):
        """Bit for bit the stable (row, col) lexsort order, with repeated
        columns kept in storage order and empty rows in place."""
        rng = np.random.default_rng(seed)
        n_rows, n_cols = int(rng.integers(0, 40)), int(rng.integers(1, 40))
        counts = rng.integers(0, 9, n_rows) * (rng.random(n_rows) < 0.7)
        nnz = int(counts.sum())
        # few distinct columns per row: duplicates are common
        indices = rng.integers(0, min(n_cols, 5), nnz) * (n_cols // 5 or 1)
        A = CSRMatrix(n_rows, n_cols, np.concatenate([[0], np.cumsum(counts)]),
                      indices, rng.standard_normal(nnz))
        order = np.lexsort(
            (A.indices, np.repeat(np.arange(n_rows), A.row_counts()))
        )
        S = A.sort_indices()
        assert np.array_equal(S.indptr, A.indptr)
        assert S.indices.tobytes() == A.indices[order].tobytes()
        assert S.data.tobytes() == A.data[order].tobytes()

    def test_sorted_detection_noop(self):
        A = random_square(15, 0.3, seed=1)
        assert A.has_sorted_indices()
        assert A.sort_indices() is A

    def test_transpose(self):
        A = random_square(14, 0.25, seed=17)
        assert np.allclose(A.transpose().to_dense(), A.to_dense().T)

    def test_row_slice_views(self):
        A = random_square(10, 0.5, seed=19)
        cols, vals = A.row_slice(4)
        dense_row = A.to_dense()[4]
        assert np.allclose(dense_row[cols], vals)

    def test_astype(self):
        A = random_square(8, 0.4)
        B = A.astype(np.float32)
        assert B.data.dtype == np.float32
        assert np.allclose(B.to_dense(), A.to_dense(), atol=1e-6)

    def test_copy_is_independent(self):
        A = random_square(8, 0.4)
        B = A.copy()
        B.data[:] = 0
        assert A.data.any()

    def test_allclose(self):
        A = random_square(8, 0.4, seed=23)
        assert A.allclose(A.copy())
        B = A.copy()
        B.data[0] += 1.0
        assert not A.allclose(B)

    def test_row_counts(self):
        A = CSRMatrix.from_dense(np.array([[1.0, 1.0], [0.0, 0.0]]))
        assert A.row_counts().tolist() == [2, 0]
