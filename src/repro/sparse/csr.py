"""Compressed-sparse-row matrix: the compute format of :mod:`repro`.

The implementation follows the HPC-in-Python rules the package is built
around: no Python-level loops over rows or nonzeros in any hot path; all
temporaries are reused through ``out=`` parameters where the call sites are
hot.  Every product goes through one kernel, scipy's compiled
``csr_matvec`` (see :meth:`CSRMatrix._product`), which sums each row left
to right from ``+0.0``.  A row's sum therefore depends on that row's
entries alone, so single-vector, multi-vector and restacked-matrix
products are all bitwise consistent.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
from scipy.sparse._sparsetools import csr_matvec as _csr_matvec

from .._util import as_float_array, as_index_array

__all__ = ["CSRMatrix"]


class CSRMatrix:
    """Sparse matrix in CSR format with canonical (sorted, unique) columns.

    Parameters
    ----------
    indptr:
        ``int64`` array of length ``nrows + 1``; row *i* owns the half-open
        nonzero range ``[indptr[i], indptr[i+1])``.
    indices:
        Column indices, sorted and unique within each row.
    data:
        Nonzero values (``float64``).
    shape:
        ``(nrows, ncols)``.
    check:
        Validate the invariants (on by default; internal call sites that
        construct already-valid arrays pass ``check=False``).
    """

    __slots__ = ("indptr", "indices", "data", "shape", "_erows")

    def __init__(self, indptr, indices, data, shape: Tuple[int, int], *, check: bool = True):
        self.indptr = as_index_array(indptr, "indptr")
        self.indices = as_index_array(indices, "indices")
        self.data = as_float_array(data, "data")
        self.shape = (int(shape[0]), int(shape[1]))
        self._erows = None
        if check:
            self._validate()

    def _validate(self) -> None:
        m, n = self.shape
        if len(self.indptr) != m + 1:
            raise ValueError(f"indptr must have length nrows+1={m + 1}, got {len(self.indptr)}")
        if self.indptr[0] != 0 or self.indptr[-1] != len(self.data):
            raise ValueError("indptr must start at 0 and end at nnz")
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if len(self.indices) != len(self.data):
            raise ValueError("indices and data must have equal length")
        if len(self.indices):
            if self.indices.min() < 0 or self.indices.max() >= n:
                raise ValueError("column index out of bounds")
            # Sorted & strictly increasing within each row: the only allowed
            # non-increase points are row boundaries.
            notinc = np.flatnonzero(np.diff(self.indices) <= 0) + 1
            if len(notinc) and not np.all(np.isin(notinc, self.indptr[1:-1])):
                raise ValueError("column indices must be sorted and unique within rows")

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def from_coo(cls, coo) -> "CSRMatrix":
        """Build from a :class:`repro.sparse.COOMatrix`."""
        return coo.tocsr()

    @classmethod
    def from_dense(cls, dense, tol: float = 0.0) -> "CSRMatrix":
        """Build from a dense array, dropping entries with ``|a_ij| <= tol``."""
        from .coo import COOMatrix

        return COOMatrix.from_dense(dense, tol=tol).tocsr()

    @classmethod
    def from_scipy(cls, mat) -> "CSRMatrix":
        """Build from any ``scipy.sparse`` matrix."""
        m = mat.tocsr()
        m.sum_duplicates()
        m.sort_indices()
        return cls(
            m.indptr.astype(np.int64),
            m.indices.astype(np.int64),
            m.data.astype(np.float64),
            m.shape,
            check=False,
        )

    @classmethod
    def restack(cls, parts, ncols: int) -> "CSRMatrix":
        """Row blocks stacked top to bottom into one matrix that owns their entries.

        Each row keeps its entries in order.  Every part's ``indices`` and
        ``data`` are rebound to views of the stacked arrays (the same
        values), so the stack and its parts hold one copy of the entries.
        """
        counts = np.concatenate([[0]] + [np.diff(p.indptr) for p in parts])
        out = cls(
            np.cumsum(counts, dtype=np.int64),
            np.concatenate([np.zeros(0, np.int64)] + [p.indices for p in parts]),
            np.concatenate([np.zeros(0)] + [p.data for p in parts]),
            (len(counts) - 1, ncols),
            check=False,
        )
        lo = 0
        for p in parts:
            hi = lo + p.nnz
            p.indices, p.data = out.indices[lo:hi], out.data[lo:hi]
            lo = hi
        return out

    @classmethod
    def identity(cls, n: int) -> "CSRMatrix":
        """The n-by-n identity."""
        idx = np.arange(n, dtype=np.int64)
        return cls(np.arange(n + 1, dtype=np.int64), idx, np.ones(n), (n, n), check=False)

    @classmethod
    def diagonal_matrix(cls, d) -> "CSRMatrix":
        """A square matrix with *d* on the diagonal."""
        d = as_float_array(d, "diagonal")
        n = len(d)
        idx = np.arange(n, dtype=np.int64)
        return cls(np.arange(n + 1, dtype=np.int64), idx, d.copy(), (n, n), check=False)

    # ------------------------------------------------------------------ #
    # basic properties
    # ------------------------------------------------------------------ #

    @property
    def nnz(self) -> int:
        """Number of stored entries."""
        return len(self.data)

    @property
    def nrows(self) -> int:
        return self.shape[0]

    @property
    def ncols(self) -> int:
        return self.shape[1]

    def row_nnz(self) -> np.ndarray:
        """Per-row nonzero counts."""
        return np.diff(self.indptr)

    def copy(self) -> "CSRMatrix":
        """Deep copy."""
        return CSRMatrix(self.indptr.copy(), self.indices.copy(), self.data.copy(), self.shape, check=False)

    def _expanded_rows(self) -> np.ndarray:
        """Row index of every stored entry (COO row array), cached.

        The cache assumes the matrix is not mutated in place after first
        use (nothing in the package does).
        """
        if self._erows is None:
            self._erows = np.repeat(np.arange(self.nrows, dtype=np.int64), self.row_nnz())
        return self._erows

    # ------------------------------------------------------------------ #
    # core kernels
    # ------------------------------------------------------------------ #

    def _out(self, out: Optional[np.ndarray], shape: Tuple[int, ...], x: np.ndarray) -> np.ndarray:
        """A zeroed result array of *shape*: a new one, or the validated *out*.

        The kernel accumulates into its output, so *out* is zeroed before
        any product runs — which is why an *out* sharing memory with the
        operand *x* is rejected: the zeroing would destroy the operand.
        """
        if out is None:
            return np.zeros(shape)
        if not isinstance(out, np.ndarray) or out.dtype != np.float64:
            raise ValueError("out must be a float64 ndarray")
        if out.shape != shape:
            raise ValueError(f"out must have shape {shape}, got {out.shape}")
        if not out.flags.writeable:
            raise ValueError("out must be writeable")
        if np.shares_memory(out, x):
            raise ValueError("out must not share memory with the operand")
        out[...] = 0.0
        return out

    def _product(self, x: np.ndarray, y: np.ndarray) -> None:
        """``y += A @ x`` for one vector: the package's only SpMV kernel.

        scipy's compiled ``csr_matvec`` on the matrix's own arrays: each
        row is summed left to right from the accumulator's initial value,
        ``y[i] + a_0 x_0 + a_1 x_1 + ...``.  Every caller passes a zeroed
        *y*, so every row in the package is summed one way whichever
        product (1-D, multi-vector, restacked matrix) it appears in.
        """
        _csr_matvec(
            self.shape[0], self.shape[1], self.indptr, self.indices, self.data, x, y
        )

    def matvec(self, x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Sparse matrix-(multi-)vector product ``y = A @ x``.

        ``x`` is either a single vector of length ``ncols`` or an ``(R,
        ncols)`` multi-vector (one iterate per row), giving ``y`` of shape
        ``(nrows,)`` / ``(R, nrows)``.  ``out``, if given, must be a
        writeable float64 array of the result shape that shares no memory
        with ``x``; it is overwritten and returned.  The multi-vector path
        is one 1-D product per row, so it is bitwise R separate 1-D calls.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 1:
            if x.shape != (self.ncols,):
                raise ValueError(f"x must have shape ({self.ncols},), got {x.shape}")
            out = self._out(out, (self.nrows,), x)
            self._product(x, out)
            return out
        elif x.ndim == 2:
            if x.shape[1] != self.ncols:
                raise ValueError(f"x must have shape (R, {self.ncols}), got {x.shape}")
            out = self._out(out, (x.shape[0], self.nrows), x)
            for xr, yr in zip(x, out):
                self._product(xr, yr)
            return out
        else:
            raise ValueError(f"x must be 1-D or 2-D, got ndim={x.ndim}")

    def matvec_rows(
        self, X: np.ndarray, rows: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """``y[i] = A @ X[rows[i]]`` without materialising ``X[rows]``.

        One 1-D product per selected row, read in place: bitwise identical
        to ``matvec(X[r])`` per selected row by construction.
        """
        X = np.asarray(X, dtype=np.float64)
        rows = np.asarray(rows, dtype=np.int64)
        if X.ndim != 2 or X.shape[1] != self.ncols:
            raise ValueError(f"X must have shape (R, {self.ncols}), got {X.shape}")
        out = self._out(out, (len(rows), self.nrows), X)
        for r, yr in zip(rows, out):
            self._product(X[r], yr)
        return out

    def __matmul__(self, x):
        return self.matvec(x)

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        """Transpose product ``x = Aᵀ @ y`` (scatter-add over columns)."""
        y = np.asarray(y, dtype=np.float64)
        if y.shape != (self.nrows,):
            raise ValueError(f"y must have shape ({self.nrows},), got {y.shape}")
        contrib = self.data * np.repeat(y, self.row_nnz())
        return np.bincount(self.indices, weights=contrib, minlength=self.ncols)

    def residual(self, x: np.ndarray, b: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Residual ``r = b - A @ x``.

        ``x`` may be a single vector or an ``(R, ncols)`` multi-vector; *b*
        broadcasts against the result (one shared right-hand side for all
        replicas, or a per-replica ``(R, nrows)`` stack).
        """
        r = self.matvec(x, out=out)
        np.subtract(b, r, out=r)
        return r

    def diagonal(self) -> np.ndarray:
        """The main diagonal as a dense vector (zeros where unstored)."""
        d = np.zeros(min(self.shape))
        rows = self._expanded_rows()
        mask = rows == self.indices
        d[rows[mask]] = self.data[mask]
        return d

    # ------------------------------------------------------------------ #
    # structural surgery
    # ------------------------------------------------------------------ #

    def _mask_select(self, keep: np.ndarray) -> "CSRMatrix":
        """New matrix keeping only the entries flagged in boolean *keep*."""
        rows = self._expanded_rows()[keep]
        counts = np.bincount(rows, minlength=self.nrows).astype(np.int64)
        indptr = np.zeros(self.nrows + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return CSRMatrix(indptr, self.indices[keep], self.data[keep], self.shape, check=False)

    def split_diagonal(self) -> Tuple[np.ndarray, "CSRMatrix"]:
        """Split into ``(d, R)`` with ``A = diag(d) + R`` (R has a zero diagonal)."""
        rows = self._expanded_rows()
        offdiag = rows != self.indices
        return self.diagonal(), self._mask_select(offdiag)

    def lower_triangle(self, *, strict: bool = True) -> "CSRMatrix":
        """The (strictly, by default) lower-triangular part."""
        rows = self._expanded_rows()
        keep = self.indices < rows if strict else self.indices <= rows
        return self._mask_select(keep)

    def upper_triangle(self, *, strict: bool = True) -> "CSRMatrix":
        """The (strictly, by default) upper-triangular part."""
        rows = self._expanded_rows()
        keep = self.indices > rows if strict else self.indices >= rows
        return self._mask_select(keep)

    def row_slice(self, start: int, stop: int) -> "CSRMatrix":
        """Contiguous row block ``A[start:stop, :]`` (column space unchanged)."""
        if not (0 <= start <= stop <= self.nrows):
            raise ValueError(f"invalid row range [{start}, {stop}) for {self.nrows} rows")
        lo, hi = self.indptr[start], self.indptr[stop]
        return CSRMatrix(
            self.indptr[start : stop + 1] - lo,
            self.indices[lo:hi],
            self.data[lo:hi],
            (stop - start, self.ncols),
            check=False,
        )

    def column_range_split(self, lo: int, hi: int) -> Tuple["CSRMatrix", "CSRMatrix"]:
        """Split columns into ``[lo, hi)`` (local) and the rest (global).

        Returns ``(local, global)``; both keep the *full* column space so
        they can be multiplied against full-length vectors — the split is by
        entry membership, which is what the two-stage block update needs.
        """
        if not (0 <= lo <= hi <= self.ncols):
            raise ValueError(f"invalid column range [{lo}, {hi})")
        in_range = (self.indices >= lo) & (self.indices < hi)
        return self._mask_select(in_range), self._mask_select(~in_range)

    def transpose(self) -> "CSRMatrix":
        """The transpose, as a canonical CSR matrix."""
        from .coo import COOMatrix

        coo = COOMatrix(self.indices, self._expanded_rows(), self.data, (self.ncols, self.nrows))
        return coo.tocsr()

    def abs(self) -> "CSRMatrix":
        """Entrywise absolute value ``|A|`` (same pattern)."""
        return CSRMatrix(self.indptr, self.indices, np.abs(self.data), self.shape, check=False)

    def scale_rows(self, v: np.ndarray) -> "CSRMatrix":
        """Row scaling ``diag(v) @ A``."""
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (self.nrows,):
            raise ValueError("scale vector length must equal nrows")
        return CSRMatrix(
            self.indptr, self.indices, self.data * np.repeat(v, self.row_nnz()), self.shape, check=False
        )

    def scale_cols(self, v: np.ndarray) -> "CSRMatrix":
        """Column scaling ``A @ diag(v)``."""
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (self.ncols,):
            raise ValueError("scale vector length must equal ncols")
        return CSRMatrix(self.indptr, self.indices, self.data * v[self.indices], self.shape, check=False)

    def add(self, other: "CSRMatrix", alpha: float = 1.0) -> "CSRMatrix":
        """Matrix sum ``A + alpha * B`` via COO concatenation."""
        if other.shape != self.shape:
            raise ValueError("shape mismatch in add")
        from .coo import COOMatrix

        coo = COOMatrix(
            np.concatenate([self._expanded_rows(), other._expanded_rows()]),
            np.concatenate([self.indices, other.indices]),
            np.concatenate([self.data, alpha * other.data]),
            self.shape,
        )
        return coo.tocsr()

    def eliminate_zeros(self, tol: float = 0.0) -> "CSRMatrix":
        """Drop stored entries with ``|a_ij| <= tol``."""
        return self._mask_select(np.abs(self.data) > tol)

    # ------------------------------------------------------------------ #
    # norms / reductions
    # ------------------------------------------------------------------ #

    def row_abs_sums(self) -> np.ndarray:
        """Per-row sums of absolute values (∞-norm contributions), ``|A| @ 1``."""
        return self.abs().matvec(np.ones(self.ncols))

    def norm_inf(self) -> float:
        """Matrix ∞-norm (max absolute row sum)."""
        return float(self.row_abs_sums().max()) if self.nrows else 0.0

    def norm_fro(self) -> float:
        """Frobenius norm."""
        return float(np.sqrt(np.sum(self.data * self.data)))

    # ------------------------------------------------------------------ #
    # conversions
    # ------------------------------------------------------------------ #

    def to_dense(self) -> np.ndarray:
        """Materialise as a dense array."""
        out = np.zeros(self.shape)
        out[self._expanded_rows(), self.indices] = self.data
        return out

    def to_coo(self):
        """Convert to :class:`repro.sparse.COOMatrix` (already canonical)."""
        from .coo import COOMatrix

        coo = COOMatrix(self._expanded_rows(), self.indices, self.data.copy(), self.shape)
        coo._canonical = True
        return coo

    def to_scipy(self):
        """Convert to ``scipy.sparse.csr_matrix``."""
        import scipy.sparse as sp

        return sp.csr_matrix((self.data, self.indices, self.indptr), shape=self.shape)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<CSRMatrix {self.shape[0]}x{self.shape[1]} nnz={self.nnz}>"
