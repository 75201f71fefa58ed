"""Tests for the genuinely-asynchronous threaded solver.

These tests tolerate nondeterminism by construction: they assert outcome
properties (convergence, well-posedness, accuracy), never exact histories.
"""

import time

import numpy as np
import pytest

from repro.core.threaded import ThreadedAsyncSolver
from repro.solvers import StoppingCriterion


def test_validation():
    with pytest.raises(ValueError):
        ThreadedAsyncSolver(local_iterations=0)
    with pytest.raises(ValueError):
        ThreadedAsyncSolver(workers=0)
    with pytest.raises(ValueError):
        ThreadedAsyncSolver(block_size=0)
    with pytest.raises(ValueError):
        ThreadedAsyncSolver(omega=0.0)


def test_name():
    assert ThreadedAsyncSolver(local_iterations=3).name == "threaded-async-(3)"


def test_converges_single_worker(small_spd):
    # One worker = sequential block sweeps; deterministic-ish and safe.
    b = small_spd.matvec(np.ones(60))
    r = ThreadedAsyncSolver(
        local_iterations=2, block_size=10, workers=1,
        stopping=StoppingCriterion(tol=1e-10, maxiter=500),
    ).solve(small_spd, b)
    assert r.converged
    assert np.allclose(r.x, 1.0, atol=1e-6)


def test_converges_many_workers(small_spd):
    # Genuine races; Strikwerda guarantees convergence for the dominant
    # SPD fixture under ANY schedule — including real ones.  At toy sizes
    # the GIL slices limit how often workers exchange values, so the
    # asserted accuracy is modest (see the module docstring).
    b = small_spd.matvec(np.linspace(-1, 1, 60))
    r = ThreadedAsyncSolver(
        local_iterations=2, block_size=7, workers=6,
        stopping=StoppingCriterion(tol=1e-5, maxiter=4000),
    ).solve(small_spd, b)
    assert r.converged
    assert np.allclose(r.x, np.linspace(-1, 1, 60), atol=1e-2)


def test_starved_worker_holds_back_the_others(small_spd, monkeypatch):
    # Regression: a worker the OS starves must not let the others spend
    # their whole pass budget against its stale blocks and exit — the
    # worker left running would then converge against frozen neighbours,
    # ending in a non-solution with a stuck residual.  Starve worker 0
    # for far longer than the others need for their entire budget.
    passes = ThreadedAsyncSolver._passes

    def starved(self, wid, blocks, b, state):
        if wid == 0:
            time.sleep(0.2)
        passes(self, wid, blocks, b, state)

    monkeypatch.setattr(ThreadedAsyncSolver, "_passes", starved)
    b = small_spd.matvec(np.linspace(-1, 1, 60))
    r = ThreadedAsyncSolver(
        local_iterations=2, block_size=7, workers=6,
        stopping=StoppingCriterion(tol=1e-5, maxiter=100),
    ).solve(small_spd, b)
    assert r.converged
    counts = r.info["worker_passes"]
    assert counts.max() - counts.min() <= 2  # the lead bound held throughout


@pytest.mark.filterwarnings("ignore::pytest.PytestUnhandledThreadExceptionWarning")
def test_failing_worker_ends_the_run(small_spd, monkeypatch):
    # A worker that dies must not leave the others waiting on it forever.
    passes = ThreadedAsyncSolver._passes

    def failing(self, wid, blocks, b, state):
        if wid == 0:
            raise RuntimeError("worker failure")
        passes(self, wid, blocks, b, state)

    monkeypatch.setattr(ThreadedAsyncSolver, "_passes", failing)
    b = small_spd.matvec(np.ones(60))
    r = ThreadedAsyncSolver(
        local_iterations=1, block_size=10, workers=3,
        stopping=StoppingCriterion(tol=1e-12, maxiter=1000),
    ).solve(small_spd, b)
    assert not r.converged
    assert r.info["worker_passes"][0] == 0


def test_converges_on_trefethen(trefethen_small):
    A = trefethen_small
    b = A.matvec(np.ones(A.shape[0]))
    r = ThreadedAsyncSolver(
        local_iterations=5, block_size=64, workers=4,
        stopping=StoppingCriterion(tol=1e-9, maxiter=3000),
    ).solve(A, b)
    assert r.converged


def test_worker_pass_accounting(small_spd):
    b = small_spd.matvec(np.ones(60))
    r = ThreadedAsyncSolver(
        local_iterations=1, block_size=10, workers=3,
        stopping=StoppingCriterion(tol=1e-11, maxiter=2000),
    ).solve(small_spd, b)
    passes = r.info["worker_passes"]
    assert len(passes) >= 1
    # Condition (1): every worker made progress.
    assert all(p > 0 for p in passes[: r.info["workers"]])


def test_exact_initial_guess(small_spd):
    b = small_spd.matvec(np.ones(60))
    r = ThreadedAsyncSolver(block_size=10, stopping=StoppingCriterion(tol=1e-8, maxiter=50)).solve(
        small_spd, b, x0=np.ones(60)
    )
    assert r.converged
    assert r.iterations == 0  # no threads ever started


def test_budget_exhaustion_reports_nonconverged(small_spd):
    b = small_spd.matvec(np.ones(60))
    r = ThreadedAsyncSolver(
        local_iterations=1, block_size=10, workers=2,
        stopping=StoppingCriterion(tol=1e-30, relative=False, maxiter=3),
    ).solve(small_spd, b)
    assert not r.converged
    assert r.info["worker_passes"].max() <= 3


def test_more_workers_than_blocks(small_spd):
    # 6 blocks, 16 workers: surplus workers are dropped, not deadlocked,
    # and the iteration still makes progress.
    b = small_spd.matvec(np.ones(60))
    r = ThreadedAsyncSolver(
        local_iterations=2, block_size=10, workers=16,
        stopping=StoppingCriterion(tol=1e-4, maxiter=2000),
    ).solve(small_spd, b)
    assert r.info["workers"] <= 6
    rel = r.relative_residuals()
    assert rel[-1] < 1e-2 * rel[0]  # progress, even if the tol wasn't hit


def test_surplus_worker_telemetry_consistent(small_spd):
    # Regression: with workers > nblocks the pass counters used to be
    # sized to the *requested* worker count, so worker_passes carried
    # phantom all-zero entries for the dropped workers — which made the
    # condition-(1) check ("every worker made progress") read as violated.
    b = small_spd.matvec(np.ones(60))
    r = ThreadedAsyncSolver(
        local_iterations=1, block_size=30, workers=8,
        stopping=StoppingCriterion(tol=1e-8, maxiter=500),
    ).solve(small_spd, b)
    passes = r.info["worker_passes"]
    assert r.info["workers"] == 2  # 60 rows / 30 = 2 blocks, 6 workers dropped
    assert len(passes) == r.info["workers"]
    assert all(p > 0 for p in passes)
