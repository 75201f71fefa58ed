"""The hoisted per-block sweep loops against their longhand originals.

:class:`repro.perf.ReferenceSweepExecutor` and :class:`repro.perf.RASWorkspace`
do once per sweep what the longhand loops (``longhand.py``) do per block:
one snapshot product, one freshness draw, direct kernel calls into reused
buffers.  Every iterate, every update count and the generator state must
stay bitwise the longhand loop's, in every regime the loop serves.
"""

import numpy as np
import pytest
from longhand import ras_sweep, reference_sweep

from repro.core import AsyncConfig, AsyncEngine, FaultScenario
from repro.experiments.runner import paper_async_config
from repro.matrices import default_rhs
from repro.partition import make_partition
from repro.sparse import BlockRowView, CSRMatrix

SWEEPS = 20


def _compare(view, b, config, *, fault=None, sweeps=SWEEPS):
    """Run the executor and the longhand loop side by side from one seed."""
    fast = AsyncEngine(view, b, config, fault=fault)
    slow = AsyncEngine(view, b, config, fault=fault)
    longhand = ras_sweep if fast.backend == "ras" else reference_sweep
    x_fast = np.zeros(view.n)
    x_slow = np.zeros(view.n)
    for t in range(sweeps):
        fast.sweep(x_fast)
        longhand(slow, x_slow)
        assert x_fast.tobytes() == x_slow.tobytes(), f"iterates diverged at sweep {t + 1}"
        assert np.array_equal(fast.update_counts, slow.update_counts)
        assert fast.rng.bit_generator.state == slow.rng.bit_generator.state, (
            f"generator states diverged at sweep {t + 1}"
        )
    assert fast.sweep_index == slow.sweep_index == sweeps
    return fast


def _decoupled(n=96, cut=32):
    """A tridiagonal system whose first *cut* rows couple to nothing else."""
    main = np.full(n, 4.0)
    off = np.full(n - 1, -1.0)
    off[cut - 1] = 0.0
    dense = np.diag(main) + np.diag(off, 1) + np.diag(off, -1)
    return CSRMatrix.from_dense(dense)


DISJOINT = {
    "paper-gpu-k5": paper_async_config(5, block_size=32, seed=3),
    "paper-gpu-k1": paper_async_config(1, block_size=32, seed=4),
    "pipeline-tail": AsyncConfig(order="gpu", concurrency=3, local_iterations=2, block_size=32, seed=5),
    "sequential-tail": AsyncConfig(
        order="sequential", stale_read_prob=1.0, concurrency=4, local_iterations=3,
        block_size=32, seed=6,
    ),
    "random-half": AsyncConfig(
        order="random", stale_read_prob=0.5, local_iterations=2, block_size=32, seed=7
    ),
    "defer-0.3": AsyncConfig(
        order="gpu", deferred_write_prob=0.3, local_iterations=3, block_size=32, seed=8
    ),
    "omega-0.7": AsyncConfig(order="gpu", omega=0.7, local_iterations=4, block_size=32, seed=9),
    "synchronous-reference": AsyncConfig(
        order="synchronous", local_iterations=2, block_size=32, backend="reference", seed=10
    ),
    "rows-128": paper_async_config(5, block_size=128, seed=11),
    "one-row-blocks": AsyncConfig(
        order="gpu", stale_read_prob=0.6, local_iterations=2, block_size=1, seed=12
    ),
}


@pytest.mark.parametrize("regime", sorted(DISJOINT), ids=sorted(DISJOINT))
def test_reference_matches_longhand(trefethen_small, regime):
    config = DISJOINT[regime]
    view = BlockRowView(trefethen_small, block_size=config.block_size)
    eng = _compare(view, default_rhs(trefethen_small), config)
    assert eng.backend == "reference"


@pytest.mark.parametrize("matrix", ["fv1", "small_spd"])
def test_reference_matches_longhand_on_suite_systems(request, matrix):
    A = request.getfixturevalue(matrix)
    config = paper_async_config(5, block_size=64 if matrix == "fv1" else 8, seed=13)
    _compare(BlockRowView(A, block_size=config.block_size), default_rhs(A), config)


@pytest.mark.parametrize("kind", ["freeze", "silent"])
def test_reference_matches_longhand_under_faults(trefethen_small, kind):
    config = AsyncConfig(order="gpu", local_iterations=3, block_size=32, seed=14)
    fault = FaultScenario(fraction=0.25, t0=3, recovery=8, kind=kind, corruption=1.05, seed=2)
    view = BlockRowView(trefethen_small, block_size=config.block_size)
    _compare(view, default_rhs(trefethen_small), config, fault=fault)


def test_reference_matches_longhand_with_negative_zero_rhs(trefethen_small):
    b = default_rhs(trefethen_small).copy()
    b[::7] = -0.0
    for config in (
        AsyncConfig(order="gpu", local_iterations=2, block_size=32, seed=15),
        AsyncConfig(order="gpu", deferred_write_prob=1.0, local_iterations=2,
                    block_size=32, backend="reference", seed=16),
    ):
        _compare(BlockRowView(trefethen_small, block_size=32), b, config)


def test_reference_matches_longhand_with_an_uncoupled_block():
    A = _decoupled()
    view = BlockRowView(A, block_size=32)
    assert view.blocks[0].external.nnz == 0
    config = AsyncConfig(order="gpu", stale_read_prob=0.7, local_iterations=3, block_size=32, seed=17)
    _compare(view, default_rhs(A), config)


@pytest.mark.parametrize("schwarz", ["ras", "wras"])
@pytest.mark.parametrize("overlap", [1, 2])
@pytest.mark.parametrize("defer", [0.0, 0.3])
def test_ras_matches_longhand(small_spd, schwarz, overlap, defer):
    spec = f"uniform:8+o{overlap}"
    config = AsyncConfig(
        order="gpu", local_iterations=3, block_size=8, partition=spec, schwarz=schwarz,
        deferred_write_prob=defer, seed=18,
    )
    view = BlockRowView(small_spd, partition=make_partition(small_spd, spec, block_size=8))
    eng = _compare(view, default_rhs(small_spd), config)
    assert eng.backend == "ras"


def test_ras_matches_longhand_with_tail_and_omega(trefethen_small):
    spec = "uniform:32+o2"
    config = AsyncConfig(
        order="gpu", concurrency=3, omega=0.7, local_iterations=2, block_size=32,
        partition=spec, schwarz="ras", seed=19,
    )
    view = BlockRowView(trefethen_small, partition=make_partition(trefethen_small, spec, block_size=32))
    b = default_rhs(trefethen_small).copy()
    b[::5] = -0.0
    _compare(view, b, config)

