"""Sweep-execution backends: whole-system kernels vs the block loop.

Three executors advance :class:`repro.core.AsyncEngine`'s iterate through
one global sweep:

* :class:`ReferenceSweepExecutor` — the per-block Python loop, semantics
  for every regime (mixed per-entry races, faults, partial deferred
  writes), sped up by the compiled per-block plans of
  :class:`repro.perf.SweepPlan`: segment-sum scatter instead of
  ``np.add.at``, compressed block-local inner sweeps with one write-back
  per block.
* :class:`FusedSweepExecutor` — the whole sweep as a handful of
  whole-system numpy kernels: one stacked external SpMV, one vectorized
  right-hand-side assembly, *k* stacked local Jacobi sweeps.  No Python
  loop over blocks at all, which is what removes the interpreter floor
  from fine decompositions (the regime of Figure 8 / Table 5).
* :class:`StencilSweepExecutor` — the matrix-free variant of the fused
  sweep for stencil-regular systems (:mod:`repro.perf.stencil`): every
  matrix product is a handful of offset-shifted slice (or small gather)
  multiply-adds on the flat iterate — no CSR index gather at all.
  Engages only when structure detection on the plan succeeds.

**Exactness contract.** The fused and stencil paths engage only where
their result is bitwise the reference loop's — same iterates *and* same
generator state:

* **snapshot reads** (γ ≡ 0): the ``"synchronous"`` order, or full
  staleness with no pipeline tail.  No block observes another's
  current-sweep writes, so block updates commute and the sweep collapses
  to one global two-stage update;
* **all-deferred writes** (``deferred_write_prob == 1``): every write
  lands at the sweep end, so live reads — any γ — observe pre-sweep
  values; with mixed γ the race corrections of the reference loop are
  exact signed zeros, which its fold accumulation cannot propagate into
  the iterate unless the right-hand side carries ``-0.0`` entries
  (checked at dispatch).

Scheduler randomness is consumed identically on both paths:
``Generator.random`` fills doubles sequentially from the bit stream, so
the fused path's single draw call per sweep advances the generator to
bitwise the state the reference loop's interleaved per-block draws leave
behind.  Faults always take the reference loop.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Tuple

import numpy as np

from ..solvers.block_jacobi import local_jacobi_sweeps
from ..sparse.csr import scatter_add_fold
from .plan import SweepPlan, rhs_preserves_fold

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.engine import AsyncEngine
    from ..core.schedules import AsyncConfig, WaveScheduler

__all__ = [
    "fused_sweep_exact",
    "resolve_backend",
    "consume_schedule_draws",
    "FusedSweepExecutor",
    "ReferenceSweepExecutor",
    "StencilSweepExecutor",
    "make_executor",
]


def fused_sweep_exact(
    config: "AsyncConfig",
    scheduler: "WaveScheduler",
    *,
    has_fault: bool = False,
    rhs_fold_safe: bool = True,
) -> bool:
    """Whether the fused path is bitwise-exact for this configuration.

    See the module docstring for the regime analysis.  *rhs_fold_safe* is
    :func:`repro.perf.rhs_preserves_fold` of the engine's right-hand side;
    it only matters for mixed-γ all-deferred regimes.
    """
    if has_fault:
        return False
    gamma = scheduler.gamma_profile()
    if np.all(gamma <= 0.0):
        return True
    if config.deferred_write_prob >= 1.0:
        mixed = bool(np.any((gamma > 0.0) & (gamma < 1.0)))
        return rhs_fold_safe or not mixed
    return False


def resolve_backend(
    config: "AsyncConfig",
    scheduler: "WaveScheduler",
    *,
    has_fault: bool = False,
    rhs_fold_safe: bool = True,
    plan: "SweepPlan" = None,
) -> str:
    """Resolve ``config.backend`` to the executor actually used.

    ``"auto"`` prefers **stencil > fused > reference**: in the whole-sweep
    exact regimes it runs the matrix-free stencil executor when structure
    detection on *plan* succeeds (:mod:`repro.perf.stencil`), the fused
    CSR path otherwise, and the per-block reference loop outside those
    regimes.  ``"reference"`` always honours the request; ``"fused"`` /
    ``"stencil"`` raise where they would change the iterates — the
    backends are execution strategies, never approximations, and a silent
    fallback would make ``--backend=fused`` timings lie.  *plan* is the
    compiled :class:`repro.perf.SweepPlan`; without one (legacy callers)
    stencil dispatch is simply never considered.
    """
    requested = config.backend
    if requested == "reference":
        return "reference"
    exact = fused_sweep_exact(
        config, scheduler, has_fault=has_fault, rhs_fold_safe=rhs_fold_safe
    )
    if requested == "fused":
        if not exact:
            raise ValueError(
                "backend='fused' requested, but the fused sweep is not exact for "
                "this regime (it requires snapshot reads [gamma == 0 everywhere] "
                "or all-deferred writes, and no fault scenario); use "
                "backend='auto' to fall back to the reference loop"
            )
        return "fused"
    if requested == "stencil":
        if not exact:
            raise ValueError(
                "backend='stencil' requested, but whole-sweep execution is not "
                "exact for this regime (it requires snapshot reads [gamma == 0 "
                "everywhere] or all-deferred writes, and no fault scenario); "
                "use backend='auto' to fall back"
            )
        if plan is None:
            raise ValueError(
                "backend='stencil' requires a compiled sweep plan for structure "
                "detection"
            )
        desc, reason = plan.stencil
        if desc is None:
            raise ValueError(
                f"backend='stencil' requested, but structure detection failed: "
                f"{reason}; use backend='auto' to fall back to the fused/"
                "reference paths"
            )
        return "stencil"
    # "auto"
    if not exact:
        return "reference"
    if plan is not None and plan.stencil[0] is not None:
        return "stencil"
    return "fused"


def consume_schedule_draws(engine: "AsyncEngine", plan: SweepPlan):
    """Draw the sweep's schedule plan and consume the reference loop's RNG.

    Shared by the whole-sweep executors (fused, stencil): the reference
    loop's per-block freshness/defer draws are consumed in one
    ``Generator.random`` call — same double count, same bit stream, same
    final state (``random`` fills doubles sequentially).  The values are
    irrelevant: in every whole-sweep-exact regime the drawn races/defers
    cannot change the iterate.  Returns the sweep's block order.
    """
    eng = engine
    cfg = eng.config
    rng = eng.rng
    order, gamma = eng.scheduler.plan_for_sweep(eng.sweep_index, rng)
    ndraws = 0
    mixed = (gamma > 0.0) & (gamma < 1.0)
    if mixed.any():
        ndraws += int(plan.ennz[order[mixed]].sum())
    if cfg.deferred_write_prob > 0.0:
        ndraws += len(order)
    if ndraws:
        rng.random(ndraws)
    return order


class FusedSweepExecutor:
    """One global sweep as whole-system kernels (no per-block Python loop)."""

    name = "fused"

    def __init__(self, engine: "AsyncEngine"):
        self.engine = engine
        self.plan: SweepPlan = engine.plan.warm_fused()
        self._ext_buf = np.empty(engine.view.n)

    def sweep(self, x: np.ndarray) -> np.ndarray:
        eng = self.engine
        cfg = eng.config
        plan = self.plan
        consume_schedule_draws(eng, plan)

        # The whole sweep: one stacked external gather, one right-hand-side
        # assembly, k stacked block-diagonal Jacobi sweeps.  Bitwise the
        # per-block products: the restacked matrices hold each row's
        # entries in identical order, and the compiled CSR kernel sums a
        # row left to right in every matrix that contains it.
        ext = plan.external.matvec(x, out=self._ext_buf)
        s = eng.b - ext
        z = local_jacobi_sweeps(
            plan.local_off, plan.diag, s, x, cfg.local_iterations, omega=cfg.omega
        )
        x[:] = z
        eng.update_counts += 1
        eng.sweep_index += 1
        return x


class StencilSweepExecutor:
    """One global sweep as matrix-free offset-shifted slice arithmetic.

    The structural twin of :class:`FusedSweepExecutor` — same two-stage
    update, same draw consumption, same exactness regimes — with every
    matrix product replaced by the compiled diagonal planes of
    :class:`repro.perf.stencil.StencilKernels`.  Bitwise the fused path
    (and hence the reference loop): the planes apply in ascending-offset
    order, which is exactly the left-to-right per-row entry order the CSR
    row-panel kernels sum in, and weights come from the actual matrix
    entries, so variable coefficients are reproduced exactly.
    """

    name = "stencil"

    def __init__(self, engine: "AsyncEngine"):
        self.engine = engine
        self.plan: SweepPlan = engine.plan
        self.kernels = self.plan.stencil_kernels()
        self._ext_buf = np.empty(engine.view.n)
        self._s_buf = np.empty(engine.view.n)

    def sweep(self, x: np.ndarray) -> np.ndarray:
        eng = self.engine
        cfg = eng.config
        consume_schedule_draws(eng, self.plan)

        ext = self.kernels.apply_external(x, out=self._ext_buf)
        s = np.subtract(eng.b, ext, out=self._s_buf)
        # out=x folds the final write-back into the last local iteration.
        self.kernels.local_sweeps(s, x, cfg.local_iterations, omega=cfg.omega, out=x)
        eng.update_counts += 1
        eng.sweep_index += 1
        return x


class ReferenceSweepExecutor:
    """The per-block sweep loop, exact in every regime.

    Identical semantics to the historical ``AsyncEngine.sweep`` loop, with
    three plan-powered accelerations that keep the iterates bitwise:

    * block updates iterate on the compressed block-local slice and write
      the shared iterate once per block (nobody reads a block's rows
      until its update completes, so intermediate write-backs were
      unobservable);
    * the per-entry race corrections scatter through the plan's
      precomputed segment ids via one ``np.bincount``
      (:func:`repro.sparse.scatter_add_fold`) instead of ``np.add.at``;
    * all gather plans and index structures are compiled once
      (:meth:`repro.perf.SweepPlan.warm_reference`) instead of per sweep.
    """

    name = "reference"

    def __init__(self, engine: "AsyncEngine"):
        self.engine = engine
        self.plan: SweepPlan = engine.plan.warm_reference()
        self._b_blocks = [engine.b[blk.rows] for blk in engine.view.blocks]
        # The segment-sum scatter flips -0.0 bases to +0.0; where that
        # could reach the iterate (b carrying -0.0 entries) fall back to
        # np.add.at so the reference loop stays bitwise the historical one.
        self._fold_safe = rhs_preserves_fold(engine.b)

    def sweep(self, x: np.ndarray) -> np.ndarray:
        eng = self.engine
        cfg = eng.config
        rng = eng.rng
        view = eng.view
        plan = self.plan
        ext_rows = plan.ext_rows
        scatter_base = plan.scatter_base
        local_c = plan.local_c
        eng._refresh_fault_state()
        frozen = eng._frozen_local if eng._frozen_mask is not None else None

        order, gamma = eng.scheduler.plan_for_sweep(eng.sweep_index, rng)
        snapshot = x if np.all(gamma >= 1.0) else x.copy()
        deferred: List[Tuple[slice, np.ndarray]] = []

        for pos, bid in enumerate(order):
            blk = view.blocks[bid]
            rows = blk.rows
            g = gamma[pos]
            if g <= 0.0:
                ext = blk.external.matvec(snapshot)
            elif g >= 1.0:
                ext = blk.external.matvec(x)
            else:
                # Per-entry races: each off-block component is, with
                # probability γ, read after its owner's write from this
                # sweep landed.  Systems with many small off-block
                # couplings self-average (fv1's variation is tiny); systems
                # with a few heavy ones do not (Trefethen's is not) — the
                # §4.1 contrast emerges from the matrix, not from a knob.
                ext = blk.external.matvec(snapshot)
                e = blk.external
                fresh = rng.random(plan.ennz[bid]) < g
                if fresh.any():
                    cols = e.indices[fresh]
                    delta = e.data[fresh] * (x[cols] - snapshot[cols])
                    if self._fold_safe:
                        ext = scatter_add_fold(
                            ext, ext_rows[bid][fresh], delta, base_ids=scatter_base[bid]
                        )
                    else:
                        np.add.at(ext, ext_rows[bid][fresh], delta)
            s = self._b_blocks[bid] - ext

            frozen_local = frozen[bid] if frozen is not None else None
            defer = cfg.deferred_write_prob > 0.0 and rng.random() < cfg.deferred_write_prob
            # Local iterations on the block-local slice; the shared iterate
            # is written once, after the block finishes (or at sweep end
            # for a deferred write) — no earlier read can observe the
            # difference, so this is bitwise the in-place variant.
            z = x[rows]
            for _ in range(cfg.local_iterations):
                new = (s - local_c[bid].matvec(z)) / blk.diag
                if cfg.omega != 1.0:
                    new = (1.0 - cfg.omega) * z + cfg.omega * new
                if frozen_local is not None and len(frozen_local):
                    if eng.fault is not None and eng.fault.kind == "silent":
                        # Silent errors (§4.5 outlook): the core computes,
                        # but wrongly — every update is slightly off.
                        new[frozen_local] *= eng.fault.corruption
                    else:
                        # Broken cores never compute: their components keep
                        # the stale value through every local sweep.
                        new[frozen_local] = z[frozen_local]
                z = new
            if defer:
                deferred.append((rows, z))
            else:
                x[rows] = z
            eng.update_counts[bid] += 1

        for rows, vals in deferred:
            x[rows] = vals
        eng.sweep_index += 1
        return x


def make_executor(backend: str, engine: "AsyncEngine"):
    """Instantiate the executor for a resolved backend name."""
    if backend == "stencil":
        return StencilSweepExecutor(engine)
    if backend == "fused":
        return FusedSweepExecutor(engine)
    if backend == "reference":
        return ReferenceSweepExecutor(engine)
    raise ValueError(f"unknown resolved backend {backend!r}")
