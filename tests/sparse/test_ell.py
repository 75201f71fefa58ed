"""Tests for the ELLPACK / SELL GPU storage formats."""

import numpy as np
import pytest

from repro.sparse import CSRMatrix, ELLMatrix, SlicedELLMatrix


def test_from_csr_roundtrip(rng):
    dense = rng.standard_normal((11, 9))
    dense[np.abs(dense) < 0.9] = 0.0
    A = CSRMatrix.from_dense(dense)
    ell = ELLMatrix.from_csr(A)
    assert np.array_equal(ell.to_csr().to_dense(), dense)


def test_width_is_max_row_nnz():
    dense = np.array([[1.0, 2.0, 3.0], [0.0, 4.0, 0.0], [0.0, 0.0, 0.0]])
    ell = ELLMatrix.from_csr(CSRMatrix.from_dense(dense))
    assert ell.width == 3
    assert ell.row_nnz.tolist() == [3, 1, 0]


def test_padding_repeats_last_column():
    dense = np.array([[1.0, 0.0, 2.0], [0.0, 3.0, 0.0]])
    ell = ELLMatrix.from_csr(CSRMatrix.from_dense(dense))
    # Row 1 has one entry at column 1; its padding slot repeats column 1.
    assert ell.col_indices[1, 1] == 1
    assert ell.values[1, 1] == 0.0


def test_matvec_matches_csr(rng):
    dense = rng.standard_normal((20, 15))
    dense[np.abs(dense) < 1.0] = 0.0
    A = CSRMatrix.from_dense(dense)
    ell = ELLMatrix.from_csr(A)
    x = rng.standard_normal(15)
    assert np.allclose(ell.matvec(x), A.matvec(x))


def test_matvec_out_param(rng):
    dense = rng.standard_normal((8, 8))
    A = CSRMatrix.from_dense(dense)
    ell = ELLMatrix.from_csr(A)
    out = np.empty(8)
    y = ell.matvec(np.ones(8), out=out)
    assert y is out
    assert np.allclose(out, dense @ np.ones(8))


def test_matvec_wrong_length():
    ell = ELLMatrix.from_csr(CSRMatrix.identity(4))
    with pytest.raises(ValueError, match="shape"):
        ell.matvec(np.ones(5))


def test_empty_matrix():
    from repro.sparse import COOMatrix

    ell = ELLMatrix.from_csr(COOMatrix.empty((3, 4)).tocsr())
    assert ell.width == 0
    assert np.array_equal(ell.matvec(np.ones(4)), np.zeros(3))
    assert ell.padding_efficiency() == 1.0


def test_empty_matrix_matvec_out_is_zeroed():
    from repro.sparse import COOMatrix

    ell = ELLMatrix.from_csr(COOMatrix.empty((3, 4)).tocsr())
    out = np.full(3, 7.0)
    y = ell.matvec(np.ones(4), out=out)
    assert y is out
    assert np.array_equal(out, np.zeros(3))


def test_zero_width_csr_product_skips_the_gather():
    # An empty block (e.g. cut by a clustered partition) has no entries to
    # gather; its products must be exactly zero through every entry
    # point, overwriting whatever a caller-supplied out held.
    from repro.sparse import COOMatrix

    A = COOMatrix.empty((5, 5)).tocsr()
    out = np.full(5, 3.0)
    y = A.matvec(np.ones(5), out=out)
    assert y is out and np.array_equal(out, np.zeros(5))
    X = np.arange(15.0).reshape(3, 5)
    out2 = np.full((3, 5), 3.0)
    assert A.matvec(X, out=out2) is out2
    assert np.array_equal(out2, np.zeros((3, 5)))
    out_rows = np.full((2, 5), 3.0)
    assert A.matvec_rows(X, np.array([2, 0]), out=out_rows) is out_rows
    assert np.array_equal(out_rows, np.zeros((2, 5)))


def test_padding_efficiency_regular_stencil():
    from repro.matrices.grids import stencil_laplacian_2d

    A = stencil_laplacian_2d(20, stencil="9pt")
    ell = ELLMatrix.from_csr(A)
    # Almost every row has the full 9 entries: ELL suits it.
    assert ell.padding_efficiency() > 0.9


def test_padding_efficiency_irregular_rows():
    from repro.matrices import trefethen

    A = trefethen(256)
    ell = ELLMatrix.from_csr(A)
    sell = SlicedELLMatrix.from_csr(A, slice_height=16)
    # Log-varying row lengths: plain ELL wastes slots, SELL recovers some.
    assert ell.padding_efficiency() < 0.95
    assert sell.padding_efficiency() >= ell.padding_efficiency()


def test_sliced_matvec_matches_csr(rng):
    dense = rng.standard_normal((37, 23))
    dense[np.abs(dense) < 1.1] = 0.0
    A = CSRMatrix.from_dense(dense)
    sell = SlicedELLMatrix.from_csr(A, slice_height=8)
    x = rng.standard_normal(23)
    assert np.allclose(sell.matvec(x), A.matvec(x))


def test_sliced_roundtrip(rng):
    dense = rng.standard_normal((19, 19))
    dense[np.abs(dense) < 1.0] = 0.0
    A = CSRMatrix.from_dense(dense)
    sell = SlicedELLMatrix.from_csr(A, slice_height=4)
    assert np.array_equal(sell.to_csr().to_dense(), dense)
    assert sell.nnz == A.nnz


def test_sliced_invalid_height():
    with pytest.raises(ValueError, match="slice_height"):
        SlicedELLMatrix.from_csr(CSRMatrix.identity(4), slice_height=0)


def test_validation():
    with pytest.raises(ValueError, match="equal shape"):
        ELLMatrix(np.zeros((2, 3)), np.zeros((2, 4), dtype=np.int64), np.zeros(3, dtype=np.int64), (3, 3))
    with pytest.raises(ValueError, match="row_nnz"):
        ELLMatrix(np.zeros((2, 3)), np.zeros((2, 3), dtype=np.int64), np.zeros(2, dtype=np.int64), (3, 3))
    with pytest.raises(ValueError, match="exceeds"):
        ELLMatrix(
            np.zeros((1, 2)), np.zeros((1, 2), dtype=np.int64), np.array([2, 0]), (2, 2)
        )
