"""Finished engines are freed by reference counting, not the cyclic collector.

An engine owns its generator, scheduler and sweep buffers, and its view
owns the compiled sweep plan.  If anything they own pointed back at them,
every finished solve would wait for a rare full collection, and a service
finishing many engines per second would grow its resident set.  These
tests run with the collector disabled and check that no engine, and no
view built for one solve, outlives the solve.
"""

import gc
import weakref

import pytest

from repro.core import AsyncConfig, BlockAsyncSolver
from repro.core.engine import AsyncEngine, BatchedAsyncEngine
from repro.matrices import default_rhs
from repro.runtime import StoppingCriterion
from repro.serve import SolveRequest, SolveService

STOP = StoppingCriterion(tol=1e-8, maxiter=300)


@pytest.fixture
def engines(monkeypatch):
    """``(backend, weak references to the engine and its view)`` per engine built."""
    refs = []
    for cls in (AsyncEngine, BatchedAsyncEngine):
        def init(self, *args, _init=cls.__init__, **kwargs):
            _init(self, *args, **kwargs)
            refs.append((self.backend, (weakref.ref(self), weakref.ref(self.view))))

        monkeypatch.setattr(cls, "__init__", init)
    gc.collect()
    gc.disable()
    try:
        yield refs
    finally:
        gc.enable()


CONFIGS = {
    "reference": AsyncConfig(order="gpu", local_iterations=2, block_size=16),
    "fused": AsyncConfig(order="synchronous", local_iterations=2, block_size=16),
    "ras": AsyncConfig(
        order="gpu", local_iterations=2, block_size=16, partition="uniform:16+o2",
        schwarz="ras",
    ),
}


@pytest.mark.parametrize("backend", sorted(CONFIGS))
def test_solver_engine_freed_without_collector(small_spd, engines, backend):
    BlockAsyncSolver(CONFIGS[backend], stopping=STOP).solve(small_spd, default_rhs(small_spd))
    assert [name for name, _ in engines] == [backend]
    assert all(ref() is None for _, refs in engines for ref in refs)


def test_service_engines_freed_without_collector(small_spd, engines):
    service = SolveService(config=CONFIGS["reference"], stopping=STOP)
    for seed in range(3):
        service.submit(
            SolveRequest(
                A=small_spd, b=default_rhs(small_spd, kind="random", seed=seed),
                request_id=f"r{seed}", seed=seed,
            )
        )
    batch = service.drain()
    single = service.solve(small_spd, default_rhs(small_spd), seed=7)
    assert {r.batch_size for r in batch} == {3} and single.completed
    assert len(engines) >= 2
    # The service's plan cache keeps its views; its engines must still go.
    assert all(refs[0]() is None for _, refs in engines)
