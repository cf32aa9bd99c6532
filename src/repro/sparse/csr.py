"""Compressed Sparse Row (CSR) matrix, the paper's storage format.

CSR stores a sparse ``m x n`` matrix in three arrays (paper §II-A, Fig. 2):

* ``row_ptr``  — ``m + 1`` offsets; row ``i`` owns the half-open slice
  ``[row_ptr[i], row_ptr[i+1])`` of the other two arrays;
* ``col_indices`` — the column index of each non-zero, in row order;
* ``vals``     — the value of each non-zero.

The class deliberately mirrors the paper's field names (``row_ptr``,
``col_indices``, ``vals``) so that generated-code listings read the same as
the paper's Listings 1–2.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.errors import ShapeError, SparseFormatError
from repro.sparse.coo import CooMatrix

__all__ = ["CsrMatrix"]

INDEX_DTYPE = np.int64
VALUE_DTYPE = np.float32


@dataclass(frozen=True, eq=False)
class CsrMatrix:
    """An immutable CSR sparse matrix with float32 values.

    The three arrays are held as read-only views.  A caller that keeps
    writing through its own array after construction breaks the
    validated bounds (and the memoized fingerprint) behind the
    matrix's back; copy first if the source must stay mutable.

    Equality and hashing are by content (shape and the three arrays,
    via :meth:`fingerprint`); ``name`` is a label and takes no part.

    Attributes:
        nrows: Number of rows (``m``).
        ncols: Number of columns (``n``).
        row_ptr: int64 array of length ``nrows + 1``.
        col_indices: int64 array of length ``nnz``.
        vals: float32 array of length ``nnz``.
        name: Optional human-readable dataset name (used in reports).
    """

    nrows: int
    ncols: int
    row_ptr: np.ndarray
    col_indices: np.ndarray
    vals: np.ndarray
    name: str = ""

    def __post_init__(self) -> None:
        # read-only views: the host kernels (repro.exec.host) bake these
        # arrays' addresses and trust the bounds validated below, so the
        # structure must not change under them; the caller's own arrays
        # stay writable
        for name, dtype in (("row_ptr", INDEX_DTYPE),
                            ("col_indices", INDEX_DTYPE),
                            ("vals", VALUE_DTYPE)):
            view = np.ascontiguousarray(getattr(self, name),
                                        dtype=dtype).view()
            view.flags.writeable = False
            object.__setattr__(self, name, view)
        self.validate()

    # ------------------------------------------------------------------
    # Construction and validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Raise :class:`SparseFormatError` if the structure is inconsistent."""
        if self.nrows < 0 or self.ncols < 0:
            raise ShapeError(f"negative matrix shape {self.nrows}x{self.ncols}")
        if self.row_ptr.ndim != 1 or self.row_ptr.size != self.nrows + 1:
            raise SparseFormatError(
                f"row_ptr must have length nrows+1={self.nrows + 1}, "
                f"got {self.row_ptr.size}"
            )
        if self.row_ptr[0] != 0:
            raise SparseFormatError("row_ptr[0] must be 0")
        diffs = np.diff(self.row_ptr)
        if diffs.size and diffs.min() < 0:
            raise SparseFormatError("row_ptr must be non-decreasing")
        nnz = int(self.row_ptr[-1])
        if self.col_indices.size != nnz or self.vals.size != nnz:
            raise SparseFormatError(
                f"row_ptr[-1]={nnz} disagrees with col_indices/vals lengths "
                f"{self.col_indices.size}/{self.vals.size}"
            )
        if nnz:
            if self.col_indices.min() < 0 or self.col_indices.max() >= self.ncols:
                raise SparseFormatError("column index out of range")

    @classmethod
    def from_coo(cls, coo: CooMatrix, name: str = "") -> "CsrMatrix":
        """Convert a COO matrix to CSR, summing duplicate coordinates."""
        deduped = coo.sum_duplicates()
        row_ptr = np.zeros(coo.nrows + 1, dtype=INDEX_DTYPE)
        np.add.at(row_ptr, deduped.rows + 1, 1)
        np.cumsum(row_ptr, out=row_ptr)
        return cls(
            coo.nrows, coo.ncols, row_ptr, deduped.cols, deduped.vals, name=name
        )

    @classmethod
    def from_dense(cls, dense: np.ndarray, name: str = "") -> "CsrMatrix":
        """Build a CSR matrix from a dense array, dropping exact zeros."""
        return cls.from_coo(CooMatrix.from_dense(dense), name=name)

    @classmethod
    def from_arrays(
        cls,
        nrows: int,
        ncols: int,
        row_ptr: np.ndarray,
        col_indices: np.ndarray,
        vals: np.ndarray,
        name: str = "",
    ) -> "CsrMatrix":
        """Build directly from the three CSR arrays (validated)."""
        return cls(nrows, ncols, row_ptr, col_indices, vals, name=name)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        """Number of stored non-zeros."""
        return int(self.row_ptr[-1])

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def row_lengths(self) -> np.ndarray:
        """Per-row non-zero counts, as an int64 array of length ``nrows``."""
        return np.diff(self.row_ptr)

    def fingerprint(self) -> str:
        """Content hash over shape, structure and values (memoized).

        Two matrices with equal CSR arrays share a fingerprint even as
        distinct objects, so process-wide memo tables (the autotuner's
        split memo) recognize a re-registered or copied matrix.  The
        matrix is immutable, so the digest is computed once and cached
        on the instance; ``name`` is excluded (it does not affect any
        computed result, matching ``__eq__``).
        """
        cached = self.__dict__.get("_fingerprint")
        if cached is None:
            digest = hashlib.sha256()
            digest.update(np.int64([self.nrows, self.ncols]).tobytes())
            digest.update(self.row_ptr.tobytes())
            digest.update(self.col_indices.tobytes())
            digest.update(self.vals.tobytes())
            cached = digest.hexdigest()
            object.__setattr__(self, "_fingerprint", cached)
        return cached

    def __eq__(self, other: object):
        if not isinstance(other, CsrMatrix):
            return NotImplemented
        return self is other or (self.shape == other.shape
                                 and self.fingerprint() == other.fingerprint())

    def __hash__(self) -> int:
        return hash((self.shape, self.fingerprint()))

    def __getstate__(self) -> dict:
        # pickle / deepcopy carry the arrays and the digest, never the
        # scipy handle: the receiving process rebuilds it on first use
        state = dict(self.__dict__)
        state.pop("_scipy", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        for name in ("row_ptr", "col_indices", "vals"):
            self.__dict__[name].flags.writeable = False

    def row_slice(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(col_indices, vals)`` views for row ``i``."""
        if not 0 <= i < self.nrows:
            raise IndexError(f"row {i} out of range [0, {self.nrows})")
        lo, hi = int(self.row_ptr[i]), int(self.row_ptr[i + 1])
        return self.col_indices[lo:hi], self.vals[lo:hi]

    def density(self) -> float:
        """Fraction of cells that are stored, ``nnz / (nrows * ncols)``."""
        cells = self.nrows * self.ncols
        return self.nnz / cells if cells else 0.0

    def mean_row_length(self) -> float:
        """Average non-zeros per row."""
        return self.nnz / self.nrows if self.nrows else 0.0

    def max_row_length(self) -> int:
        """Largest number of non-zeros in any row (0 for empty matrices)."""
        lengths = self.row_lengths()
        return int(lengths.max()) if lengths.size else 0

    def gini_row_imbalance(self) -> float:
        """Gini coefficient of the row-length distribution, in ``[0, 1)``.

        0 means perfectly uniform rows; values near 1 mean a few rows hold
        almost all non-zeros.  Used by the dataset suite to check that the
        scaled twins preserve the skew of the originals.
        """
        lengths = np.sort(self.row_lengths().astype(np.float64))
        if lengths.size == 0 or lengths.sum() == 0:
            return 0.0
        n = lengths.size
        ranks = np.arange(1, n + 1, dtype=np.float64)
        return float((2.0 * (ranks * lengths).sum()) / (n * lengths.sum()) - (n + 1) / n)

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    def to_dense(self) -> np.ndarray:
        """Materialize as a dense float32 array."""
        out = np.zeros(self.shape, dtype=VALUE_DTYPE)
        rows = np.repeat(np.arange(self.nrows), self.row_lengths())
        out[rows, self.col_indices] = self.vals
        return out

    def to_coo(self) -> CooMatrix:
        """Convert back to coordinate format."""
        rows = np.repeat(
            np.arange(self.nrows, dtype=INDEX_DTYPE), self.row_lengths()
        )
        return CooMatrix(self.nrows, self.ncols, rows, self.col_indices, self.vals)

    def to_scipy(self):
        """This matrix as a :class:`scipy.sparse.csr_matrix` (memoized).

        The prepared host kernel: scipy's constructor narrows the index
        arrays to int32 (when they fit) and wraps ``vals`` without a
        copy, and ``handle @ x`` is then one C call (``csr_matvecs``;
        ``csr_matvec`` at d=1) that accumulates each output element in
        ascending non-zero order, bit-identical to ``spmm_reference``.
        That work depends only on the immutable matrix, so like
        :meth:`fingerprint` it is done on first use and cached on the
        instance.  Treat the handle as read-only: it aliases ``vals``.
        """
        handle = self.__dict__.get("_scipy")
        if handle is None:
            import scipy.sparse as sp

            handle = sp.csr_matrix(
                (self.vals, self.col_indices, self.row_ptr), shape=self.shape
            )
            object.__setattr__(self, "_scipy", handle)
        return handle

    @classmethod
    def from_scipy(cls, mat, name: str = "") -> "CsrMatrix":
        """Build from any scipy sparse matrix (test-only helper)."""
        # canonicalizing sorts in place: never on the caller's matrix,
        # which may be a handle aliasing a CsrMatrix's read-only arrays
        csr = mat.tocsr(copy=True)
        csr.sum_duplicates()
        return cls(
            csr.shape[0],
            csr.shape[1],
            csr.indptr.astype(INDEX_DTYPE),
            csr.indices.astype(INDEX_DTYPE),
            csr.data.astype(VALUE_DTYPE),
            name=name,
        )

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return (
            f"CsrMatrix({self.nrows}x{self.ncols}, nnz={self.nnz}, "
            f"mean_row={self.mean_row_length():.2f}{label})"
        )
