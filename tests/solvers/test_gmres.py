"""Tests for restarted GMRES."""

import numpy as np
import pytest

from repro.solvers import GMRESSolver, StoppingCriterion
from repro.sparse import CSRMatrix


@pytest.fixture(scope="module")
def nonsym():
    rng = np.random.default_rng(0)
    n = 80
    dense = rng.standard_normal((n, n)) * 0.3
    np.fill_diagonal(dense, np.abs(dense).sum(axis=1) + 1.0)
    A = CSRMatrix.from_dense(dense)
    x_star = rng.standard_normal(n)
    return A, x_star, A.matvec(x_star)


def test_converges_nonsymmetric(nonsym):
    A, x_star, b = nonsym
    r = GMRESSolver(restart=20, stopping=StoppingCriterion(tol=1e-12, maxiter=500)).solve(A, b)
    assert r.converged
    assert np.allclose(r.x, x_star, atol=1e-8)


def test_matches_scipy(nonsym):
    import scipy.sparse.linalg as spla

    A, _, b = nonsym
    ours = GMRESSolver(restart=20, stopping=StoppingCriterion(tol=1e-12, maxiter=500)).solve(A, b)
    ref, info = spla.gmres(A.to_scipy(), b, rtol=1e-12, restart=20, maxiter=50)
    assert info == 0
    assert np.allclose(ours.x, ref, atol=1e-7)


def test_full_gmres_exact_in_n_steps():
    rng = np.random.default_rng(3)
    n = 15
    dense = rng.standard_normal((n, n)) + n * np.eye(n)
    A = CSRMatrix.from_dense(dense)
    b = rng.standard_normal(n)
    r = GMRESSolver(restart=n, stopping=StoppingCriterion(tol=1e-12, maxiter=n + 1)).solve(A, b)
    assert r.converged
    assert r.iterations <= n


def test_restart_smaller_is_weaker(small_spd):
    b = small_spd.matvec(np.ones(60))
    stop = StoppingCriterion(tol=1e-10, maxiter=2000)
    it_small = GMRESSolver(restart=5, stopping=stop).solve(small_spd, b).iterations
    it_large = GMRESSolver(restart=40, stopping=stop).solve(small_spd, b).iterations
    assert it_large <= it_small


def test_right_preconditioning_reports_true_residuals(fv1):
    from repro.krylov import AsyncSweepPreconditioner
    from repro.matrices import default_rhs

    b = default_rhs(fv1)
    r = GMRESSolver(
        restart=30,
        preconditioner=AsyncSweepPreconditioner(fv1, sweeps=2),
        stopping=StoppingCriterion(tol=1e-10, maxiter=200),
    ).solve(fv1, b)
    assert r.converged
    assert r.iterations < 40  # strongly accelerated
    # Reported final residual is the residual of the ORIGINAL system.
    true_res = np.linalg.norm(fv1.residual(r.x, b))
    assert np.isclose(r.final_residual, true_res, rtol=1e-6)


def test_zero_rhs():
    A = CSRMatrix.identity(6)
    r = GMRESSolver().solve(A, np.zeros(6))
    assert r.converged and r.iterations == 0


def test_budget_counts_inner_iterations(small_spd):
    b = small_spd.matvec(np.ones(60))
    r = GMRESSolver(restart=10, stopping=StoppingCriterion(tol=1e-30, relative=False, maxiter=25)).solve(
        small_spd, b
    )
    assert not r.converged
    # residual history: initial + one entry per inner step (budget-capped),
    # each restart's last entry replaced by the true residual.
    assert len(r.residuals) <= 27


def test_invalid_restart():
    with pytest.raises(ValueError, match="restart"):
        GMRESSolver(restart=0)


def test_names():
    assert GMRESSolver(restart=25).name == "gmres(25)"
    assert GMRESSolver(preconditioner=lambda r: r).name.startswith("pgmres")
