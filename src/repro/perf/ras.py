"""Asynchronous restricted-additive-Schwarz sweeps over extended blocks.

The classic engine (``schwarz="none"``) runs the paper's disjoint
decomposition: each block sweeps its own rows with off-block values
frozen.  The Schwarz modes widen every subdomain by the partition's
``overlap`` halo rows (Nayak/Cojean et al.'s abstract asynchronous
Schwarz setting): a block gathers and iterates its *extended* system —
halo rows advance locally, giving the owned rows near the cuts fresher
boundary values at every inner sweep — and then restricts the fold-back:

``"ras"``
    Only owned rows write (halo copies are read-only) — each row written
    by exactly one block, so the γ freshness semantics, deferred writes
    and schedule orders of :class:`repro.core.WaveScheduler` carry over
    verbatim from the disjoint loop, just over extended gathers.
``"wras"``
    Every extended row contributes with partition-of-unity weights
    (``1 / coverage``), accumulated over the sweep and folded at the
    sweep end.  All reads therefore observe the pre-sweep iterate and no
    freshness or defer draws exist to consume — the mode ignores
    ``stale_read_prob`` / ``deferred_write_prob`` by construction.

:class:`RASWorkspace` is the single sweep kernel; the sequential
:class:`RASSweepExecutor` and :class:`repro.core.BatchedAsyncEngine`'s
per-replica loop both call it, so replica *r* of a batched RAS run is
bitwise the sequential run for seed ``seed0 + r`` *by construction*, not
by parallel re-implementation.  The ``"ras"`` sweep is the disjoint
reference loop itself (:class:`repro.perf.backends.BlockLoop`) run over
the extended blocks, with one product of the restacked extended externals
per sweep.  None of this code runs at ``overlap=0`` — the engines
dispatch here only for ``schwarz != "none"`` with a positive ``+oK``
partition suffix, which is what keeps the zero-overlap configuration
bitwise the historical engines.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .backends import BlockLoop
from .plan import compile_sweep_plan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.engine import AsyncEngine
    from ..core.schedules import AsyncConfig, WaveScheduler
    from ..sparse import BlockRowView

__all__ = ["RASWorkspace", "RASSweepExecutor"]


class RASWorkspace:
    """Compiled extended-block sweep kernel shared by both engines.

    Construction builds the plan's extended-block table
    (:attr:`repro.perf.SweepPlan.ras_table`) so the first timed sweep
    does no compilation.  The workspace keeps no state across sweeps:
    schedule state (generator, scheduler, sweep index, update counts) is
    passed in per call, which is what lets R batched replicas share one
    workspace while each consumes its own stream exactly as a sequential
    engine would.
    """

    def __init__(self, view: "BlockRowView", config: "AsyncConfig"):
        if config.schwarz not in ("ras", "wras"):
            raise ValueError(f"RASWorkspace needs schwarz='ras'|'wras', got {config.schwarz!r}")
        if view.partition.overlap < 1:
            raise ValueError("RASWorkspace needs a partition with overlap >= 1 (spec '+oK')")
        self.view = view
        self.config = config
        self.loop = BlockLoop(compile_sweep_plan(view).ras_table)
        self.weighted = config.schwarz == "wras"
        self.weights = (
            view.partition.restriction_weights("wras") if self.weighted else None
        )

    def sweep(
        self,
        x: np.ndarray,
        b: np.ndarray,
        rng: np.random.Generator,
        scheduler: "WaveScheduler",
        sweep_index: int,
        update_counts: np.ndarray,
    ) -> np.ndarray:
        """One global async-RAS sweep of *x* in place.

        *update_counts* is the caller's per-block counter (a row of the
        batched engine's matrix, or the sequential engine's vector).
        """
        order, gamma = scheduler.plan_for_sweep(sweep_index, rng)
        if self.weighted:
            return self._sweep_wras(x, b, order, update_counts)
        return self.loop.sweep(x, b, rng, order, gamma, update_counts, self.config)

    def _sweep_wras(
        self, x: np.ndarray, b: np.ndarray, order: np.ndarray, update_counts: np.ndarray
    ) -> np.ndarray:
        """Weighted-RAS sweep: partition-of-unity fold at the sweep end.

        Every block reads the pre-sweep iterate (*x* is untouched until
        the final fold), so there is no freshness to race on and no write
        to defer — the order draw is the only randomness consumed.
        """
        cfg = self.config
        loop = self.loop
        ext_all = loop.external_product(x)
        acc = np.zeros_like(x)
        for bid in order.tolist():
            lo, hi, off, *_, local = loop.table.entries[bid]
            s = b[lo:hi] - ext_all[off : off + hi - lo]
            z = loop.local_sweeps(local, s, x[lo:hi], cfg.local_iterations, cfg.omega)
            acc[lo:hi] += self.weights[bid] * z
        np.add.at(update_counts, order, 1)
        x[:] = acc
        return x


class RASSweepExecutor:
    """Sequential async-RAS executor, wrapping the shared workspace.

    Plays the role :class:`repro.perf.backends.ReferenceSweepExecutor`
    plays for the disjoint decomposition; the resolved backend name of a
    Schwarz engine is ``"ras"``.
    """

    name = "ras"

    def __init__(self, engine: "AsyncEngine"):
        self.workspace = RASWorkspace(engine.view, engine.config)

    def sweep(self, eng: "AsyncEngine", x: np.ndarray) -> np.ndarray:
        self.workspace.sweep(
            x, eng.b, eng.rng, eng.scheduler, eng.sweep_index, eng.update_counts
        )
        eng.sweep_index += 1
        return x
