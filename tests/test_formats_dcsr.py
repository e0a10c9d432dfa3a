"""Unit tests for the DCSR (doubly-compressed) container."""

import numpy as np
import pytest

from repro.errors import ShapeMismatchError, SparseFormatError
from repro.formats import CSRMatrix, DCSRMatrix


def hypersparse(n=40, active=7, seed=0):
    rng = np.random.default_rng(seed)
    rows = rng.choice(n, size=active, replace=False)
    d = np.zeros((n, n))
    for r in rows:
        cols = rng.choice(n, size=rng.integers(1, 5), replace=False)
        d[r, cols] = rng.standard_normal(len(cols))
    return CSRMatrix.from_dense(d)


class TestConstruction:
    def test_from_csr_drops_empty_rows(self):
        A = hypersparse()
        D = A.to_dcsr()
        assert D.n_active_rows < A.n_rows
        assert D.nnz == A.nnz
        assert np.all(np.diff(D.indptr) > 0)

    def test_roundtrip_to_csr(self):
        A = hypersparse(seed=3)
        assert np.allclose(A.to_dcsr().to_csr().to_dense(), A.to_dense())

    def test_empty_matrix(self):
        D = CSRMatrix.empty(5, 5).to_dcsr()
        assert D.n_active_rows == 0 and D.empty_ratio == 1.0

    def test_fully_dense_rows(self):
        A = CSRMatrix.from_dense(np.ones((4, 4)))
        D = A.to_dcsr()
        assert D.n_active_rows == 4 and D.empty_ratio == 0.0


class TestValidation:
    def test_rejects_unsorted_row_ids(self):
        with pytest.raises(SparseFormatError):
            DCSRMatrix(
                4, 4,
                np.array([2, 1], dtype=np.int32),
                np.array([0, 1, 2]),
                np.array([0, 0], dtype=np.int32),
                np.array([1.0, 1.0]),
            )

    def test_rejects_stored_empty_rows(self):
        with pytest.raises(SparseFormatError):
            DCSRMatrix(
                4, 4,
                np.array([0, 1], dtype=np.int32),
                np.array([0, 0, 1]),
                np.array([0], dtype=np.int32),
                np.array([1.0]),
            )

    def test_rejects_row_id_out_of_bounds(self):
        with pytest.raises(SparseFormatError):
            DCSRMatrix(
                2, 2,
                np.array([5], dtype=np.int32),
                np.array([0, 1]),
                np.array([0], dtype=np.int32),
                np.array([1.0]),
            )

    def test_rejects_ptr_mismatch(self):
        with pytest.raises(SparseFormatError):
            DCSRMatrix(
                2, 2,
                np.array([0], dtype=np.int32),
                np.array([0, 2]),
                np.array([0], dtype=np.int32),
                np.array([1.0]),
            )

    def test_rejects_indptr_not_starting_at_zero(self):
        # one entry in the one active row, but indptr claims two
        with pytest.raises(SparseFormatError, match=r"indptr\[0\]"):
            DCSRMatrix(
                2, 3,
                np.array([0], dtype=np.int32),
                np.array([1, 2]),
                np.array([0, 1], dtype=np.int32),
                np.array([1.0, 2.0]),
            )

    def test_rejects_data_shorter_than_indices(self):
        # matvec([1, 2, 3]) would otherwise answer [15, 0] silently
        with pytest.raises(SparseFormatError, match="length mismatch"):
            DCSRMatrix(
                2, 3,
                np.array([0], dtype=np.int32),
                np.array([0, 2]),
                np.array([0, 1], dtype=np.int32),
                np.array([5.0]),
            )


class TestNumerics:
    def test_matvec_matches_csr(self):
        A = hypersparse(seed=5)
        x = np.random.default_rng(2).standard_normal(A.n_cols)
        assert np.allclose(A.to_dcsr().matvec(x), A.matvec(x))

    def test_matvec_out_zeroed(self):
        A = hypersparse(seed=7)
        out = np.full(A.n_rows, 99.0)
        y = A.to_dcsr().matvec(np.ones(A.n_cols), out=out)
        assert np.allclose(y, A.matvec(np.ones(A.n_cols)))

    def test_matvec_length_check(self):
        D = hypersparse().to_dcsr()
        with pytest.raises(ShapeMismatchError):
            D.matvec(np.ones(D.n_cols + 1))

    def test_empty_ratio_value(self):
        A = hypersparse(n=40, active=7, seed=11)
        D = A.to_dcsr()
        active = int(np.count_nonzero(A.row_counts()))
        assert D.empty_ratio == pytest.approx(1 - active / 40)

    def test_astype(self):
        D = hypersparse().to_dcsr().astype(np.float32)
        assert D.dtype == np.float32
