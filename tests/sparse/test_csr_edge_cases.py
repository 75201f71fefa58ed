"""Edge cases of the CSR SpMV kernel and the segment-sum scatter.

``CSRMatrix.matvec`` / ``matvec_rows`` route every product through one
compiled kernel (scipy's ``csr_matvec``); the block decomposition feeds
it degenerate shapes — blocks whose external
part is empty, rows with zero nonzeros, single-row blocks — that the
dense-backed tests never exercise.  ``scatter_add_fold`` is the
``np.add.at`` replacement used by the sweep executors and must match it
bitwise (modulo the documented ``-0.0`` base flip).
"""

import numpy as np
import pytest

from repro.sparse import BlockRowView, CSRMatrix
from repro.sparse.csr import scatter_add_fold


def _dense_cases():
    gen = np.random.default_rng(42)
    wide = 72  # rows wider than 64

    mixed = gen.standard_normal((12, 9))
    mixed[np.abs(mixed) < 0.8] = 0.0
    mixed[3, :] = 0.0  # zero-nnz row
    mixed[8, :] = 0.0  # another, non-adjacent

    dense_wide = np.zeros((6, wide + 4))
    dense_wide[0, :wide] = gen.standard_normal(wide)  # a wide row
    dense_wide[2, :3] = gen.standard_normal(3)
    dense_wide[5, 1] = 2.5  # single-entry row

    return {
        "mixed-with-empty-rows": mixed,
        "all-empty": np.zeros((5, 7)),
        "single-row": gen.standard_normal((1, 6)),
        "single-row-empty": np.zeros((1, 6)),
        "wide-rows": dense_wide,
    }


CASES = _dense_cases()


@pytest.mark.parametrize("case", sorted(CASES), ids=sorted(CASES))
def test_matvec_matches_dense(case):
    dense = CASES[case]
    A = CSRMatrix.from_dense(dense)
    gen = np.random.default_rng(3)
    x = gen.standard_normal(dense.shape[1])
    assert np.allclose(A.matvec(x), dense @ x)
    # Multi-vector path: bitwise equal to R separate 1-D calls.
    X = gen.standard_normal((4, dense.shape[1]))
    Y = A.matvec(X)
    assert Y.shape == (4, dense.shape[0])
    for r in range(4):
        assert np.array_equal(Y[r], A.matvec(X[r]))
    # Zero-nnz rows produce exact zeros on every path.
    empty = np.flatnonzero(A.row_nnz() == 0)
    assert np.array_equal(Y[:, empty], np.zeros((4, len(empty))))


@pytest.mark.parametrize("case", sorted(CASES), ids=sorted(CASES))
def test_matvec_rows_matches_per_row_matvec(case):
    dense = CASES[case]
    A = CSRMatrix.from_dense(dense)
    X = np.random.default_rng(4).standard_normal((5, dense.shape[1]))
    rows = np.array([3, 0, 3, 4])  # out of order, with a duplicate
    Y = A.matvec_rows(X, rows)
    assert Y.shape == (len(rows), dense.shape[0])
    for i, r in enumerate(rows):
        assert np.array_equal(Y[i], A.matvec(X[r]))


def test_matvec_rows_empty_selection():
    A = CSRMatrix.from_dense(CASES["mixed-with-empty-rows"])
    X = np.ones((3, A.ncols))
    Y = A.matvec_rows(X, np.array([], dtype=np.int64))
    assert Y.shape == (0, A.nrows)


def test_matvec_rows_rejects_bad_shapes():
    A = CSRMatrix.from_dense(CASES["mixed-with-empty-rows"])
    with pytest.raises(ValueError, match="shape"):
        A.matvec_rows(np.ones(A.ncols), np.array([0]))
    with pytest.raises(ValueError, match="shape"):
        A.matvec_rows(np.ones((2, A.ncols + 1)), np.array([0]))


def test_single_row_blocks_decomposition(small_spd):
    # block_size=1 degenerates every block to one row, with empty local
    # off-diagonal parts — the sweep kernels must survive and the external
    # parts must reproduce the full matrix row by row.
    view = BlockRowView(small_spd, block_size=1)
    assert view.nblocks == small_spd.shape[0]
    x = np.random.default_rng(6).standard_normal(view.n)
    full = small_spd.matvec(x)
    for blk in view.blocks:
        assert blk.nrows == 1
        local = blk.local_off_compressed()
        assert local.nnz == 0 and local.shape == (1, 1)
        row = blk.external.matvec(x) + blk.diag * x[blk.rows]
        assert np.allclose(row, full[blk.rows])


def test_empty_external_block():
    # A block decoupled from the rest of the system: its external part has
    # zero nonzeros, and its products are exact zeros of the right shape.
    dense = np.zeros((6, 6))
    dense[:3, :3] = np.random.default_rng(8).standard_normal((3, 3)) + 4 * np.eye(3)
    dense[3:, 3:] = np.random.default_rng(9).standard_normal((3, 3)) + 4 * np.eye(3)
    view = BlockRowView(CSRMatrix.from_dense(dense), block_size=3)
    x = np.arange(6, dtype=float)
    for blk in view.blocks:
        assert blk.external.nnz == 0
        assert np.array_equal(blk.external.matvec(x), np.zeros(blk.nrows))
        assert np.array_equal(
            blk.external.matvec(np.tile(x, (3, 1))), np.zeros((3, blk.nrows))
        )


# --------------------------------------------------------------------- #
# scatter_add_fold
# --------------------------------------------------------------------- #


def test_scatter_add_fold_matches_add_at():
    gen = np.random.default_rng(12)
    base = gen.standard_normal(40)
    ids = gen.integers(0, 40, size=300)
    weights = gen.standard_normal(300)
    expected = base.copy()
    np.add.at(expected, ids, weights)
    got = scatter_add_fold(base, ids, weights)
    assert np.array_equal(got, expected)
    # base is untouched; precomputed base_ids give the same result.
    assert np.array_equal(
        got, scatter_add_fold(base, ids, weights, base_ids=np.arange(40, dtype=np.int64))
    )


def test_scatter_add_fold_2d_base_flat_ids():
    gen = np.random.default_rng(13)
    base = gen.standard_normal((3, 8))
    ids = gen.integers(0, base.size, size=50)
    weights = gen.standard_normal(50)
    expected = base.copy()
    np.add.at(expected.reshape(-1), ids, weights)
    assert np.array_equal(scatter_add_fold(base, ids, weights), expected)


def test_scatter_add_fold_empty_and_zero_flip():
    base = np.array([1.0, -0.0, 0.0])
    # No updates: the fold still flips the -0.0 base (documented), values
    # are otherwise identical.
    out = scatter_add_fold(base, np.array([], dtype=np.int64), np.array([]))
    assert np.array_equal(out, np.array([1.0, 0.0, 0.0]))
    assert not np.signbit(out[1])
