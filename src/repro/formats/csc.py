"""Compressed Sparse Column container.

The Sync-free algorithm (Algorithm 3 in the paper) and the triangular
segments of the improved recursive-block structure (Figure 3) consume the
matrix column-wise: solving component ``x_j`` immediately scatters
``val * x_j`` into the left-sums of all dependent rows in column ``j``.
For a lower-triangular matrix with sorted row indices the diagonal entry is
the *first* entry of each column (``val[col_ptr[j]]``), matching line 11 of
Algorithm 3.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ShapeMismatchError, SparseFormatError
from repro.utils.arrays import counts_to_indptr, gather_row_ranges, segment_sums

__all__ = ["CSCMatrix"]

INDEX_DTYPE = np.int32
INDPTR_DTYPE = np.int64


@dataclass
class CSCMatrix:
    """A sparse matrix in CSC format (``col_ptr`` / ``row_idx`` / ``val``)."""

    n_rows: int
    n_cols: int
    indptr: np.ndarray  # length n_cols + 1
    indices: np.ndarray  # row indices, sorted ascending within each column
    data: np.ndarray
    _validated: bool = field(default=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.indptr = np.ascontiguousarray(self.indptr, dtype=INDPTR_DTYPE)
        self.indices = np.ascontiguousarray(self.indices, dtype=INDEX_DTYPE)
        self.data = np.asarray(self.data)
        if self.data.dtype.kind != "f":
            self.data = np.ascontiguousarray(self.data, dtype=np.float64)
        else:
            self.data = np.ascontiguousarray(self.data)
        if not self._validated:
            self.validate()
            self._validated = True

    @classmethod
    def from_coo(
        cls,
        rows: np.ndarray,
        cols: np.ndarray,
        vals: np.ndarray,
        shape: tuple[int, int],
        *,
        sum_duplicates: bool = True,
    ) -> "CSCMatrix":
        """Build from coordinate triplets by transposed CSR assembly."""
        from repro.formats.convert import coo_to_csr_arrays

        indptr, indices, data = coo_to_csr_arrays(
            cols, rows, vals, (shape[1], shape[0]), sum_duplicates=sum_duplicates
        )
        return cls(shape[0], shape[1], indptr, indices, data)

    @classmethod
    def from_dense(cls, dense: np.ndarray, *, tol: float = 0.0) -> "CSCMatrix":
        dense = np.asarray(dense)
        if dense.ndim != 2:
            raise ShapeMismatchError("from_dense expects a 2D array")
        mask = np.abs(dense) > tol
        rows, cols = np.nonzero(mask)
        return cls.from_coo(rows, cols, dense[rows, cols], dense.shape)

    @classmethod
    def empty(cls, n_rows: int, n_cols: int, dtype=np.float64) -> "CSCMatrix":
        return cls(
            n_rows,
            n_cols,
            np.zeros(n_cols + 1, dtype=INDPTR_DTYPE),
            np.empty(0, dtype=INDEX_DTYPE),
            np.empty(0, dtype=dtype),
        )

    def validate(self) -> None:
        if self.n_rows < 0 or self.n_cols < 0:
            raise SparseFormatError("negative dimension")
        if self.indptr.shape != (self.n_cols + 1,):
            raise SparseFormatError(
                f"indptr has length {len(self.indptr)}, expected {self.n_cols + 1}"
            )
        if self.n_cols and self.indptr[0] != 0:
            raise SparseFormatError("indptr[0] must be 0")
        if len(self.indptr) and self.indptr[-1] != len(self.indices):
            raise SparseFormatError("indptr[-1] must equal nnz")
        if len(self.indices) != len(self.data):
            raise SparseFormatError("indices and data length mismatch")
        if np.any(np.diff(self.indptr) < 0):
            raise SparseFormatError("indptr must be non-decreasing")
        if len(self.indices):
            if self.indices.min() < 0 or self.indices.max() >= self.n_rows:
                raise SparseFormatError("row index out of bounds")

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_rows, self.n_cols)

    @property
    def nnz(self) -> int:
        return int(len(self.indices))

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def col_counts(self) -> np.ndarray:
        return np.diff(self.indptr)

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=self.data.dtype)
        col_ids = np.repeat(np.arange(self.n_cols), self.col_counts())
        np.add.at(out, (self.indices, col_ids), self.data)
        return out

    def to_csr(self):
        from repro.formats.convert import csc_to_csr

        return csc_to_csr(self)

    def astype(self, dtype) -> "CSCMatrix":
        """Independent copy with values cast to ``dtype`` (index arrays
        copied too, so mutating the result never touches this matrix)."""
        return CSCMatrix(
            self.n_rows,
            self.n_cols,
            self.indptr.copy(),
            self.indices.copy(),
            self.data.astype(dtype, copy=True),
            _validated=True,
        )

    def copy(self) -> "CSCMatrix":
        return CSCMatrix(
            self.n_rows,
            self.n_cols,
            self.indptr.copy(),
            self.indices.copy(),
            self.data.copy(),
        )

    def matvec(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``y = A @ x`` via column scatter (mirrors the CSC access pattern)."""
        x = np.asarray(x)
        if x.shape[0] != self.n_cols:
            raise ShapeMismatchError(
                f"matvec: matrix has {self.n_cols} cols, x has {x.shape[0]}"
            )
        col_ids = np.repeat(np.arange(self.n_cols), self.col_counts())
        products = self.data * x[col_ids]
        y = np.zeros(self.n_rows, dtype=np.result_type(self.data, x))
        np.add.at(y, self.indices, products)
        if out is not None:
            out[:] = y
            return out
        return y

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        """``x = A.T @ y`` — a per-column segmented sum, cheap in CSC."""
        y = np.asarray(y)
        if y.shape[0] != self.n_rows:
            raise ShapeMismatchError("rmatvec length mismatch")
        products = self.data * y[self.indices]
        return segment_sums(products, self.indptr)

    def diagonal(self) -> np.ndarray:
        diag = np.zeros(min(self.n_rows, self.n_cols), dtype=self.data.dtype)
        col_ids = np.repeat(np.arange(self.n_cols), self.col_counts())
        on_diag = self.indices == col_ids
        d_cols = col_ids[on_diag]
        in_range = d_cols < len(diag)
        diag[d_cols[in_range]] = self.data[on_diag][in_range]
        return diag

    def extract_block(self, r0: int, r1: int, c0: int, c1: int) -> "CSCMatrix":
        """Sub-matrix ``A[r0:r1, c0:c1]`` as a new CSC matrix."""
        if not (0 <= r0 <= r1 <= self.n_rows and 0 <= c0 <= c1 <= self.n_cols):
            raise ShapeMismatchError("block bounds out of range")
        flat, _ = gather_row_ranges(self.indptr, np.arange(c0, c1))
        rows = self.indices[flat]
        keep = (rows >= r0) & (rows < r1)
        flat = flat[keep]
        col_of_flat = np.searchsorted(self.indptr, flat, side="right") - 1
        counts = np.bincount(col_of_flat - c0, minlength=c1 - c0)
        return CSCMatrix(
            r1 - r0,
            c1 - c0,
            counts_to_indptr(counts),
            (self.indices[flat] - r0).astype(INDEX_DTYPE),
            self.data[flat].copy(),
        )

    def col_slice(self, j: int) -> tuple[np.ndarray, np.ndarray]:
        """(row indices, values) of column ``j`` as views."""
        s, e = self.indptr[j], self.indptr[j + 1]
        return self.indices[s:e], self.data[s:e]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CSCMatrix(shape={self.shape}, nnz={self.nnz}, dtype={self.data.dtype})"
        )
