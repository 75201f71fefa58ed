"""Tests for the random problem generators."""

import numpy as np
import pytest

from repro.matrices import Problem, poisson_2d, poisson_3d, random_nonsymmetric, random_spd
from repro.partition import partition_rows_by_work
from repro.sparse import BlockRowView


def test_random_spd_is_spd():
    A = random_spd(50, dominance=1.5, seed=1)
    dense = A.to_dense()
    assert np.allclose(dense, dense.T)
    assert np.linalg.eigvalsh(dense)[0] > 0


def test_random_spd_strictly_dominant():
    A = random_spd(80, dominance=1.2, seed=2)
    d, off = A.split_diagonal()
    assert np.all(np.abs(d) > off.row_abs_sums())


def test_random_spd_determinism():
    a = random_spd(30, seed=5)
    b = random_spd(30, seed=5)
    assert np.array_equal(a.data, b.data)


def test_random_spd_validation():
    with pytest.raises(ValueError):
        random_spd(0)
    with pytest.raises(ValueError):
        random_spd(10, density=0.0)
    with pytest.raises(ValueError):
        random_spd(10, dominance=0.9)


def test_random_nonsymmetric_solvable():
    from repro.solvers import GMRESSolver, StoppingCriterion

    A = random_nonsymmetric(60, dominance=1.5, seed=3)
    x_star = np.ones(60)
    b = A.matvec(x_star)
    r = GMRESSolver(restart=20, stopping=StoppingCriterion(tol=1e-11, maxiter=300)).solve(A, b)
    assert r.converged
    assert np.allclose(r.x, x_star, atol=1e-7)


def test_poisson_2d_problem():
    p = poisson_2d(10)
    assert p.residual_norm(p.x_star) < 1e-12
    assert p.error(p.x_star) == 0.0
    assert p.A.shape == (100, 100)


def test_poisson_3d_problem():
    p = poisson_3d(4)
    assert p.A.shape == (64, 64)
    assert p.residual_norm(p.x_star) < 1e-12


def test_problem_solution_kinds():
    for kind in ("ones", "random", "smooth"):
        p = poisson_2d(6, solution=kind)
        assert p.residual_norm(p.x_star) < 1e-12
    with pytest.raises(ValueError, match="solution"):
        poisson_2d(6, solution="spiky")


def test_problem_solvable_end_to_end():
    from repro.core import BlockAsyncSolver
    from repro.solvers import StoppingCriterion

    p = poisson_2d(12, shift=0.5)
    r = BlockAsyncSolver(
        local_iterations=3, block_size=24, seed=0,
        stopping=StoppingCriterion(tol=1e-11, maxiter=500),
    ).solve(p.A, p.b)
    assert r.converged
    assert p.error(r.x) < 1e-7


# --------------------------------------------------------------------- #
# work-balanced partitioning
# --------------------------------------------------------------------- #


def test_partition_by_work_covers():
    from repro.matrices import trefethen

    A = trefethen(500)
    b = partition_rows_by_work(A, 8)
    assert b[0] == 0 and b[-1] == 500
    assert np.all(np.diff(b) > 0)


def test_partition_by_work_balances_better_than_rows():
    from repro.matrices import trefethen

    A = trefethen(2000)
    by_work = BlockRowView(A, boundaries=partition_rows_by_work(A, 16))
    by_rows = BlockRowView(A, block_size=125)

    def spread(view):
        w = [blk.local_off.nnz + blk.external.nnz + blk.nrows for blk in view.blocks]
        return max(w) / min(w)

    assert spread(by_work) < spread(by_rows)


def test_partition_by_work_validation(small_spd):
    with pytest.raises(ValueError):
        partition_rows_by_work(small_spd, 0)
    with pytest.raises(ValueError):
        partition_rows_by_work(small_spd, 61)


def test_partition_by_work_single_block(small_spd):
    assert partition_rows_by_work(small_spd, 1).tolist() == [0, 60]


def test_partition_by_work_usable_by_engine(small_spd):
    from repro.core import AsyncConfig
    from repro.core.engine import AsyncEngine

    bounds = partition_rows_by_work(small_spd, 5)
    view = BlockRowView(small_spd, boundaries=bounds)
    b = small_spd.matvec(np.ones(60))
    engine = AsyncEngine(view, b, AsyncConfig(local_iterations=2, block_size=12))
    x = np.zeros(60)
    for _ in range(60):
        x = engine.sweep(x)
    assert np.allclose(x, 1.0, atol=1e-6)
