"""The CSR product kernel's contract.

Every product in the package — 1-D, ``(R, n)`` multi-vector and
``matvec_rows`` — runs one compiled kernel that sums each row left to
right from ``+0.0``.  These tests pin that summation order against a
plain Python fold, the per-row consistency of the multi-vector entry
points, and the validation of caller-supplied ``out`` arrays (the kernel
accumulates into *out*, so an *out* aliasing the operand must be refused).
"""

import numpy as np
import pytest

from repro.sparse import CSRMatrix

#: Row widths to pin: empty, single-entry, short, the old packed-panel cap
#: (64) and one past it, and Chem97ZtZ's widest row (249).
WIDTHS = (0, 1, 8, 64, 65, 249)


def _rows_of_widths(rng, widths, ncols=300):
    """A matrix whose row *i* has ``widths[i]`` entries of mixed magnitude."""
    dense = np.zeros((len(widths), ncols))
    for i, w in enumerate(widths):
        cols = np.sort(rng.choice(ncols, size=w, replace=False))
        # Mixed magnitudes make any reassociation visible in the last bits.
        dense[i, cols] = rng.standard_normal(w) * 10.0 ** rng.integers(-6, 7, size=w)
    return CSRMatrix.from_dense(dense)


def _left_to_right(A, x):
    """``0.0 + a_0 x_0 + a_1 x_1 + ...`` per row, in Python floats."""
    y = np.empty(A.nrows)
    for i in range(A.nrows):
        acc = 0.0
        for k in range(A.indptr[i], A.indptr[i + 1]):
            acc = acc + float(A.data[k]) * float(x[A.indices[k]])
        y[i] = acc
    return y


@pytest.fixture
def wide(rng):
    return _rows_of_widths(rng, WIDTHS)


def test_rows_sum_left_to_right_from_zero(wide, rng):
    x = rng.standard_normal(wide.ncols)
    y = wide.matvec(x)
    expected = _left_to_right(wide, x)
    assert y.tobytes() == expected.tobytes()


def test_row_abs_sums_fold_the_same_way(wide):
    expected = _left_to_right(wide.abs(), np.ones(wide.ncols))
    assert wide.row_abs_sums().tobytes() == expected.tobytes()


def test_multivector_and_matvec_rows_match_per_row_calls(wide, rng):
    X = rng.standard_normal((4, wide.ncols))
    Y = wide.matvec(X)
    for r in range(4):
        assert Y[r].tobytes() == wide.matvec(X[r]).tobytes()
    rows = np.array([3, 0, 3, 1])
    Z = wide.matvec_rows(X, rows)
    for i, r in enumerate(rows):
        assert Z[i].tobytes() == wide.matvec(X[r]).tobytes()


def test_strided_operand_and_out(wide, rng):
    X = rng.standard_normal((wide.ncols, 2))
    x = X[:, 1]  # non-contiguous column view
    assert not x.flags.c_contiguous
    expected = wide.matvec(np.ascontiguousarray(x))
    buf = np.full((wide.nrows, 3), 7.0)
    out = buf[:, 2]  # non-contiguous output view
    assert wide.matvec(x, out=out) is out
    assert np.array_equal(out, expected)
    assert np.all(buf[:, :2] == 7.0)  # neighbours untouched

    M = rng.standard_normal((wide.ncols, 3)).T  # (3, ncols), F-ordered
    OUT = np.zeros((wide.nrows, 3)).T  # (3, nrows), F-ordered
    wide.matvec(M, out=OUT)
    for r in range(3):
        assert np.array_equal(OUT[r], wide.matvec(np.ascontiguousarray(M[r])))


@pytest.mark.parametrize(
    "make_out",
    [
        pytest.param(lambda m: np.zeros(m, dtype=np.float32), id="float32"),
        pytest.param(lambda m: np.zeros(m, dtype=np.int64), id="int64"),
        pytest.param(lambda m: np.zeros(m + 1), id="wrong-shape"),
    ],
)
def test_bad_out_is_rejected(wide, make_out):
    with pytest.raises(ValueError, match="out"):
        wide.matvec(np.ones(wide.ncols), out=make_out(wide.nrows))


def test_read_only_out_is_rejected(wide):
    out = np.zeros(wide.nrows)
    out.flags.writeable = False
    with pytest.raises(ValueError, match="writeable"):
        wide.matvec(np.ones(wide.ncols), out=out)
    OUT = np.zeros((2, wide.nrows))
    OUT.flags.writeable = False
    with pytest.raises(ValueError, match="writeable"):
        wide.matvec(np.ones((2, wide.ncols)), out=OUT)


def test_out_aliasing_the_operand_is_rejected(rng):
    # The kernel accumulates into a zeroed out; out=x would zero the
    # operand before it is read.
    A = CSRMatrix.from_dense(rng.standard_normal((6, 6)))
    x = rng.standard_normal(6)
    before = x.copy()
    with pytest.raises(ValueError, match="share memory"):
        A.matvec(x, out=x)
    with pytest.raises(ValueError, match="share memory"):
        A.residual(x, np.ones(6), out=x)
    assert np.array_equal(x, before)  # rejected before anything was written

    X = rng.standard_normal((3, 6))
    with pytest.raises(ValueError, match="share memory"):
        A.matvec(X, out=X)
    with pytest.raises(ValueError, match="share memory"):
        A.matvec(X[:2], out=X[1:])  # overlapping, not identical
    with pytest.raises(ValueError, match="share memory"):
        A.matvec_rows(X, np.array([0, 1]), out=X[1:])
    # Disjoint views of one buffer are fine.
    buf = np.concatenate([x, np.zeros(6)])
    assert np.array_equal(A.matvec(buf[:6], out=buf[6:]), A.matvec(x))
