"""Unit + property tests for the CSR container."""

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SparseFormatError
from repro.sparse import CooMatrix, CsrMatrix, spmm_reference


def example_csr() -> CsrMatrix:
    """The matrix from the paper's Figure 2 (4x4, nnz=8)."""
    return CsrMatrix(
        4, 4,
        row_ptr=np.array([0, 2, 2, 4, 8]),
        col_indices=np.array([0, 2, 2, 3, 0, 1, 2, 3]),
        vals=np.array([1.0, 1.0, 3.0, 3.0, 4.0, 4.0, 4.0, 4.0]),
    )


class TestValidation:
    def test_paper_figure2_matrix_is_valid(self):
        mat = example_csr()
        assert mat.nnz == 8
        assert list(mat.row_lengths()) == [2, 0, 2, 4]

    def test_rejects_bad_row_ptr_length(self):
        with pytest.raises(SparseFormatError):
            CsrMatrix(2, 2, np.array([0, 1]), np.array([0]), np.array([1.0]))

    def test_rejects_nonzero_first_offset(self):
        with pytest.raises(SparseFormatError):
            CsrMatrix(1, 2, np.array([1, 1]), np.array([], dtype=int),
                      np.array([], dtype=np.float32))

    def test_rejects_decreasing_row_ptr(self):
        with pytest.raises(SparseFormatError):
            CsrMatrix(2, 2, np.array([0, 2, 1]), np.array([0, 1]),
                      np.array([1.0, 2.0]))

    def test_rejects_wrong_nnz(self):
        with pytest.raises(SparseFormatError):
            CsrMatrix(1, 2, np.array([0, 2]), np.array([0]), np.array([1.0]))

    def test_rejects_column_out_of_range(self):
        with pytest.raises(SparseFormatError):
            CsrMatrix(1, 2, np.array([0, 1]), np.array([2]), np.array([1.0]))


class TestAccessors:
    def test_row_slice(self):
        mat = example_csr()
        cols, vals = mat.row_slice(3)
        assert list(cols) == [0, 1, 2, 3]
        assert list(vals) == [4.0] * 4

    def test_row_slice_empty_row(self):
        cols, vals = example_csr().row_slice(1)
        assert cols.size == 0 and vals.size == 0

    def test_row_slice_out_of_range(self):
        with pytest.raises(IndexError):
            example_csr().row_slice(4)

    def test_density(self):
        assert example_csr().density() == pytest.approx(0.5)

    def test_mean_and_max_row_length(self):
        mat = example_csr()
        assert mat.mean_row_length() == pytest.approx(2.0)
        assert mat.max_row_length() == 4

    def test_gini_zero_for_uniform(self):
        mat = CsrMatrix.from_dense(np.eye(8, dtype=np.float32))
        assert mat.gini_row_imbalance() == pytest.approx(0.0, abs=1e-9)

    def test_gini_high_for_skewed(self):
        dense = np.zeros((16, 16), dtype=np.float32)
        dense[0, :] = 1.0  # one row holds everything
        mat = CsrMatrix.from_dense(dense)
        assert mat.gini_row_imbalance() > 0.9

    def test_repr_includes_name(self):
        mat = CsrMatrix.from_dense(np.eye(2, dtype=np.float32), name="eye2")
        assert "eye2" in repr(mat)


class TestConversions:
    def test_dense_round_trip(self):
        dense = np.array([[0, 2, 0], [1, 0, 0]], dtype=np.float32)
        assert np.array_equal(CsrMatrix.from_dense(dense).to_dense(), dense)

    def test_coo_round_trip(self):
        mat = example_csr()
        back = CsrMatrix.from_coo(mat.to_coo())
        assert np.array_equal(back.to_dense(), mat.to_dense())

    def test_from_coo_sums_duplicates(self):
        coo = CooMatrix(2, 2, np.array([0, 0]), np.array([1, 1]),
                        np.array([1.0, 2.0]))
        mat = CsrMatrix.from_coo(coo)
        assert mat.nnz == 1
        assert mat.to_dense()[0, 1] == pytest.approx(3.0)

    def test_matches_scipy(self):
        sp = pytest.importorskip("scipy.sparse")
        rng = np.random.default_rng(7)
        ref = sp.random(50, 40, density=0.1, random_state=7, format="csr",
                        dtype=np.float32)
        mat = CsrMatrix.from_scipy(ref)
        assert np.allclose(mat.to_dense(), ref.toarray())
        assert np.allclose(mat.to_scipy().toarray(), ref.toarray())

    def test_from_scipy_of_own_handle_with_unsorted_row(self):
        pytest.importorskip("scipy.sparse")
        # row 0's columns are unsorted; the handle aliases the matrix's
        # read-only arrays, so canonicalizing must work on a copy
        a = CsrMatrix(3, 4, row_ptr=np.array([0, 3, 3, 5]),
                      col_indices=np.array([3, 0, 2, 1, 0]),
                      vals=np.array([1.0, 2.0, 3.0, 4.0, 5.0]))
        handle = a.to_scipy()
        back = CsrMatrix.from_scipy(handle)
        for row in range(back.nrows):
            cols = back.col_indices[back.row_ptr[row]:back.row_ptr[row + 1]]
            assert np.all(np.diff(cols) > 0)
        assert np.array_equal(a.col_indices, [3, 0, 2, 1, 0])
        assert np.array_equal(a.vals, [1.0, 2.0, 3.0, 4.0, 5.0])
        assert a.to_scipy() is handle
        assert np.array_equal(handle.indices, [3, 0, 2, 1, 0])
        # small integers: every summation order gives the same bits
        x = np.arange(8, dtype=np.float32).reshape(4, 2)
        assert np.array_equal(spmm_reference(back, x), spmm_reference(a, x))

    @pytest.mark.parametrize("fmt", ["csr", "csc", "coo"])
    def test_from_scipy_leaves_a_noncanonical_source_untouched(self, fmt):
        sp = pytest.importorskip("scipy.sparse")
        # row 0 holds (0, 2) twice and its columns out of order
        source = sp.csr_matrix(
            (np.array([1.0, 2.0, 3.0, 4.0], dtype=np.float32),
             np.array([2, 0, 2, 1]), np.array([0, 3, 3, 4])),
            shape=(3, 3)).asformat(fmt)
        before = source.copy()
        mat = CsrMatrix.from_scipy(source)
        assert mat.nnz == 3
        assert np.array_equal(mat.col_indices, [0, 2, 1])
        assert np.array_equal(mat.to_dense(), before.toarray())
        assert source.nnz == before.nnz
        if fmt == "coo":
            assert np.array_equal(source.col, before.col)
        else:
            assert np.array_equal(source.indices, before.indices)
            assert np.array_equal(source.indptr, before.indptr)
        assert np.array_equal(source.data, before.data)


class TestIdentity:
    def test_equal_by_content_not_by_name_or_object(self):
        a, b = example_csr(), example_csr()
        renamed = CsrMatrix(a.nrows, a.ncols, a.row_ptr, a.col_indices,
                            a.vals, name="other")
        assert a == b and a == renamed
        assert hash(a) == hash(b) == hash(renamed)
        assert {a: 1}[renamed] == 1
        assert len({a, b, renamed}) == 1

    def test_unequal_matrices_compare_false(self):
        a = example_csr()
        values = CsrMatrix(a.nrows, a.ncols, a.row_ptr, a.col_indices,
                           a.vals + 1)
        wider = CsrMatrix(a.nrows, a.ncols + 1, a.row_ptr, a.col_indices,
                          a.vals)
        assert a != values and a != wider and values != wider
        assert len({a, values, wider}) == 3
        assert a != "not a matrix" and a != None  # noqa: E711

    @pytest.mark.parametrize("clone", [
        lambda m: pickle.loads(pickle.dumps(m)), copy.deepcopy, copy.copy,
    ], ids=["pickle", "deepcopy", "copy"])
    def test_copies_drop_the_scipy_handle_and_multiply_alike(self, clone):
        pytest.importorskip("scipy.sparse")
        from repro.core.engine import multiply_partitioned
        matrix = example_csr()
        matrix.fingerprint()
        matrix.to_scipy()           # a matrix that has served traffic
        twin = clone(matrix)
        assert "_scipy" in matrix.__dict__
        assert "_scipy" not in twin.__dict__
        assert twin.__dict__["_fingerprint"] == matrix.fingerprint()
        assert twin == matrix and hash(twin) == hash(matrix)
        assert twin.name == matrix.name
        x = np.random.default_rng(3).standard_normal(
            (matrix.ncols, 5)).astype(np.float32)
        full = [(0, matrix.nrows)]
        assert np.array_equal(multiply_partitioned(twin, x, full),
                              multiply_partitioned(matrix, x, full))
        assert np.array_equal(multiply_partitioned(twin, x, full),
                              spmm_reference(matrix, x))

    def test_scipy_handle_is_built_once_and_shares_vals(self):
        pytest.importorskip("scipy.sparse")
        matrix = example_csr()
        handle = matrix.to_scipy()
        assert matrix.to_scipy() is handle
        assert np.shares_memory(handle.data, matrix.vals)
        assert handle.indices.dtype == handle.indptr.dtype == np.int32
        assert handle.shape == matrix.shape


@settings(max_examples=50, deadline=None)
@given(
    nrows=st.integers(1, 12),
    ncols=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_property_dense_csr_round_trip(nrows, ncols, seed):
    rng = np.random.default_rng(seed)
    dense = ((rng.random((nrows, ncols)) < 0.4) * rng.standard_normal(
        (nrows, ncols))).astype(np.float32)
    mat = CsrMatrix.from_dense(dense)
    assert np.array_equal(mat.to_dense(), dense)
    # row_ptr invariants
    assert mat.row_ptr[0] == 0
    assert mat.row_ptr[-1] == mat.nnz
    assert np.all(np.diff(mat.row_ptr) >= 0)
    # per-row columns are sorted and unique
    for i in range(nrows):
        cols, _ = mat.row_slice(i)
        assert np.all(np.diff(cols) > 0)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_property_coo_csr_agree(seed):
    rng = np.random.default_rng(seed)
    nnz = int(rng.integers(0, 60))
    rows = rng.integers(0, 9, size=nnz)
    cols = rng.integers(0, 7, size=nnz)
    vals = rng.standard_normal(nnz).astype(np.float32)
    coo = CooMatrix(9, 7, rows, cols, vals)
    csr = CsrMatrix.from_coo(coo)
    assert np.allclose(csr.to_dense(), coo.to_dense(), atol=1e-5)
