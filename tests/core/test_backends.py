"""Backend dispatch and fused-sweep exactness (:mod:`repro.perf`).

Backends are execution strategies, never approximations: wherever the
fused whole-system path may run, its iterates — and the scheduler RNG
state it leaves behind — are bitwise the reference loop's.  These tests
pin that contract across every engaging regime (orders, k, ω, deferred
writes), the dispatch rules of ``AsyncConfig.backend``, and the
compile-once guarantee of the shared sweep plan.
"""

import dataclasses

import numpy as np
import pytest

from repro.core import AsyncConfig, AsyncEngine, FaultScenario
from repro.perf import (
    BACKENDS,
    FusedSweepExecutor,
    ReferenceSweepExecutor,
    compile_sweep_plan,
    plan_compile_count,
    rhs_preserves_fold,
)
from repro.sparse import BlockRowView


def _rhs(A):
    return np.random.default_rng(2).standard_normal(A.shape[0])


def _run(A, b, config, *, sweeps=4, seed=0, fault=None):
    """Iterates after each sweep plus an RNG-state probe, for one backend."""
    view = BlockRowView(A, block_size=config.block_size)
    engine = AsyncEngine(view, b, dataclasses.replace(config, seed=seed), fault=fault)
    x = np.zeros(A.shape[0])
    iterates = []
    for _ in range(sweeps):
        engine.sweep(x)
        iterates.append(x.copy())
    # Equal post-run draws == equal generator state: the fused path must
    # consume exactly the doubles the reference loop would have.
    probe = engine.rng.random(8)
    return engine, iterates, probe


#: Every regime in which the fused path engages, spanning order, k, ω and
#: deferred writes (the ISSUE acceptance matrix).
ENGAGING = {
    "synchronous-k1": AsyncConfig(order="synchronous", local_iterations=1, block_size=32),
    "synchronous-k5-omega": AsyncConfig(
        order="synchronous", local_iterations=5, omega=0.8, block_size=32
    ),
    "snapshot-gpu-k1": AsyncConfig(
        order="gpu", stale_read_prob=1.0, local_iterations=1, block_size=32
    ),
    "snapshot-gpu-k5": AsyncConfig(
        order="gpu", stale_read_prob=1.0, local_iterations=5, block_size=32
    ),
    "snapshot-random-k2-omega": AsyncConfig(
        order="random", stale_read_prob=1.0, local_iterations=2, omega=0.9, block_size=32
    ),
    "alldefer-mixed-k2": AsyncConfig(
        order="gpu", deferred_write_prob=1.0, local_iterations=2, block_size=32
    ),
    "alldefer-live-k1": AsyncConfig(
        order="sequential", stale_read_prob=0.0, deferred_write_prob=1.0,
        local_iterations=1, block_size=32,
    ),
    "alldefer-omega-k5": AsyncConfig(
        order="gpu", deferred_write_prob=1.0, local_iterations=5, omega=0.85, block_size=32
    ),
}

#: Regimes where fusion would change the iterates (current-sweep reads are
#: observable), so auto must pick the reference loop.
NON_ENGAGING = {
    "gpu-default": AsyncConfig(order="gpu", local_iterations=2, block_size=32),
    "live-reads": AsyncConfig(
        order="sequential", stale_read_prob=0.0, local_iterations=1, block_size=32
    ),
    "partial-stale": AsyncConfig(
        order="gpu", stale_read_prob=0.5, local_iterations=1, block_size=32
    ),
    "partial-defer": AsyncConfig(
        order="gpu", deferred_write_prob=0.3, local_iterations=2, block_size=32
    ),
    "pipeline-tail": AsyncConfig(
        order="gpu", stale_read_prob=1.0, local_iterations=1, block_size=32, concurrency=2
    ),
}


@pytest.mark.parametrize("regime", sorted(ENGAGING), ids=sorted(ENGAGING))
def test_fused_bitwise_matches_reference(trefethen_small, regime):
    A = trefethen_small
    b = _rhs(A)
    cfg = ENGAGING[regime]
    eng_f, iters_f, probe_f = _run(A, b, dataclasses.replace(cfg, backend="fused"))
    eng_r, iters_r, probe_r = _run(A, b, dataclasses.replace(cfg, backend="reference"))
    assert eng_f.backend == "fused" and eng_r.backend == "reference"
    assert isinstance(eng_f._executor, FusedSweepExecutor)
    assert isinstance(eng_r._executor, ReferenceSweepExecutor)
    for t, (xf, xr) in enumerate(zip(iters_f, iters_r)):
        assert np.array_equal(xf, xr), f"backends diverged at sweep {t + 1}"
    assert np.array_equal(probe_f, probe_r), "generator states diverged"


@pytest.mark.parametrize("regime", sorted(ENGAGING), ids=sorted(ENGAGING))
def test_auto_engages_fused(trefethen_small, regime):
    eng, _, _ = _run(trefethen_small, _rhs(trefethen_small), ENGAGING[regime], sweeps=1)
    assert eng.backend == "fused"


@pytest.mark.parametrize("regime", sorted(NON_ENGAGING), ids=sorted(NON_ENGAGING))
def test_auto_falls_back_to_reference(trefethen_small, regime):
    eng, _, _ = _run(trefethen_small, _rhs(trefethen_small), NON_ENGAGING[regime], sweeps=1)
    assert eng.backend == "reference"


@pytest.mark.parametrize("regime", sorted(NON_ENGAGING), ids=sorted(NON_ENGAGING))
def test_forced_fused_refuses_inexact_regime(trefethen_small, regime):
    cfg = dataclasses.replace(NON_ENGAGING[regime], backend="fused")
    view = BlockRowView(trefethen_small, block_size=cfg.block_size)
    with pytest.raises(ValueError, match="not exact"):
        AsyncEngine(view, _rhs(trefethen_small), cfg)


def test_forced_reference_honoured_in_engaging_regime(trefethen_small):
    cfg = dataclasses.replace(ENGAGING["synchronous-k1"], backend="reference")
    eng, _, _ = _run(trefethen_small, _rhs(trefethen_small), cfg, sweeps=1)
    assert eng.backend == "reference"


def test_fault_forces_reference(trefethen_small):
    # Faulty components need the per-block loop's freeze/corrupt logic
    # even in an otherwise fused-exact regime.
    fault = FaultScenario(fraction=0.2, t0=1, recovery=None, seed=3)
    cfg = ENGAGING["synchronous-k1"]
    eng, _, _ = _run(trefethen_small, _rhs(trefethen_small), cfg, sweeps=2, fault=fault)
    assert eng.backend == "reference"
    view = BlockRowView(trefethen_small, block_size=cfg.block_size)
    with pytest.raises(ValueError, match="not exact"):
        AsyncEngine(
            view,
            _rhs(trefethen_small),
            dataclasses.replace(cfg, backend="fused"),
            fault=fault,
        )


def test_config_rejects_unknown_backend():
    with pytest.raises(ValueError, match="backend"):
        AsyncConfig(backend="turbo")
    for name in BACKENDS:
        AsyncConfig(backend=name)


def test_negative_zero_rhs_disables_mixed_gamma_fusion(trefethen_small):
    # The segment-sum scatter flips a -0.0 base to +0.0; with a rhs
    # carrying -0.0 entries the mixed-γ all-deferred collapse is no longer
    # bitwise, so auto must drop to the reference loop there — while the
    # γ-uniform all-deferred regime stays fused (no race corrections at all).
    b = _rhs(trefethen_small)
    b[5] = -0.0
    assert not rhs_preserves_fold(b)
    assert rhs_preserves_fold(np.abs(b) + 1.0)
    mixed = ENGAGING["alldefer-mixed-k2"]
    eng, _, _ = _run(trefethen_small, b, mixed, sweeps=1)
    assert eng.backend == "reference"
    live = ENGAGING["alldefer-live-k1"]
    eng, _, _ = _run(trefethen_small, b, live, sweeps=1)
    assert eng.backend == "fused"


# --------------------------------------------------------------------- #
# plan compilation and reuse
# --------------------------------------------------------------------- #


def _plan_structures(plan, backend):
    """The structures *backend* consumes, as the plan currently holds them."""
    if backend == "reference":
        return (plan.local_c, plan.ext_rows, plan.scatter_base)
    return (plan.external, plan.local_off, plan.diag)


@pytest.mark.parametrize("backend", ["fused", "reference"])
def test_plan_structures_built_once_across_sweeps(trefethen_small, backend):
    # Satellite: the plan's structures are compiled once per view at
    # engine construction and reused, as the same objects, by every
    # subsequent sweep.
    cfg = AsyncConfig(
        order="gpu", stale_read_prob=1.0, local_iterations=2, block_size=32,
        backend=backend,
    )
    view = BlockRowView(trefethen_small, block_size=cfg.block_size)
    compiled_before = plan_compile_count()
    engine = AsyncEngine(view, _rhs(trefethen_small), cfg)
    assert engine.backend == backend
    assert plan_compile_count() == compiled_before + 1
    x = np.zeros(trefethen_small.shape[0])
    engine.sweep(x)
    built = _plan_structures(engine.plan, backend)
    members = [list(s) for s in built if isinstance(s, list)]
    for _ in range(3):
        engine.sweep(x)
    after = _plan_structures(engine.plan, backend)
    assert all(a is b for a, b in zip(built, after))
    for old, new in zip(members, [s for s in after if isinstance(s, list)]):
        assert all(a is b for a, b in zip(old, new))
    assert compile_sweep_plan(view) is engine.plan
    assert plan_compile_count() == compiled_before + 1


def test_sweep_plan_shared_across_engines(trefethen_small):
    # One view, many engines (sequential reruns, preconditioner-internal
    # engines): all of them must reuse the same compiled plan object.
    view = BlockRowView(trefethen_small, block_size=32)
    b = _rhs(trefethen_small)
    e1 = AsyncEngine(view, b, AsyncConfig(order="synchronous", block_size=32))
    e2 = AsyncEngine(view, b, AsyncConfig(order="gpu", block_size=32))
    assert e1.plan is e2.plan
    assert compile_sweep_plan(view) is e1.plan
