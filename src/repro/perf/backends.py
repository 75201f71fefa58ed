"""Sweep-execution backends: whole-system kernels vs the block loop.

Three executors advance :class:`repro.core.AsyncEngine`'s iterate through
one global sweep:

* :class:`ReferenceSweepExecutor` — the per-block loop (:class:`BlockLoop`,
  shared with async-RAS), semantics for every regime (mixed per-entry
  races, faults, partial deferred writes), with its sweep-invariant work —
  the snapshot product and the freshness draws — done once per sweep.
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
  exact signed zeros, which its in-place fold cannot propagate into the
  iterate unless the right-hand side carries ``-0.0`` entries (checked
  at dispatch, :func:`repro.perf.rhs_preserves_fold`).

Scheduler randomness is consumed identically on every path:
``Generator.random`` fills doubles sequentially from the bit stream, so
one draw call per sweep advances the generator to bitwise the state
per-block draws of the same sizes, in the same order, leave behind.
Faults always take the reference loop.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np
from scipy.sparse._sparsetools import csr_matvec as _csr_matvec

from ..solvers.block_jacobi import local_jacobi_sweeps
from .plan import BlockTable, SweepPlan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.engine import AsyncEngine
    from ..core.schedules import AsyncConfig, WaveScheduler

__all__ = [
    "BlockLoop",
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
    rhs_no_negative_zero: bool = True,
) -> bool:
    """Whether the fused path is bitwise-exact for this configuration.

    See the module docstring for the regime analysis.  *rhs_no_negative_zero* is
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
        return rhs_no_negative_zero or not mixed
    return False


def resolve_backend(
    config: "AsyncConfig",
    scheduler: "WaveScheduler",
    *,
    has_fault: bool = False,
    rhs_no_negative_zero: bool = True,
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
        config, scheduler, has_fault=has_fault, rhs_no_negative_zero=rhs_no_negative_zero
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
    """One global sweep as whole-system kernels (no per-block Python loop).

    Like every executor here it keeps no reference to its engine — the
    engine passes itself to each :meth:`sweep` — so no engine/executor
    cycle keeps a finished engine's generator and buffers alive until the
    cyclic collector runs.
    """

    name = "fused"

    def __init__(self, engine: "AsyncEngine"):
        self.plan: SweepPlan = engine.plan.warm_fused()
        self._ext_buf = np.empty(engine.view.n)

    def sweep(self, eng: "AsyncEngine", x: np.ndarray) -> np.ndarray:
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
        self.plan: SweepPlan = engine.plan
        self.kernels = self.plan.stencil_kernels()
        self._ext_buf = np.empty(engine.view.n)
        self._s_buf = np.empty(engine.view.n)

    def sweep(self, eng: "AsyncEngine", x: np.ndarray) -> np.ndarray:
        cfg = eng.config
        consume_schedule_draws(eng, self.plan)

        ext = self.kernels.apply_external(x, out=self._ext_buf)
        s = np.subtract(eng.b, ext, out=self._s_buf)
        # out=x folds the final write-back into the last local iteration.
        self.kernels.local_sweeps(s, x, cfg.local_iterations, omega=cfg.omega, out=x)
        eng.update_counts += 1
        eng.sweep_index += 1
        return x


class BlockLoop:
    """The per-block sweep loop over one :class:`repro.perf.plan.BlockTable`.

    Shared by the disjoint reference executor and async-RAS
    (:mod:`repro.perf.ras`), whose extended blocks read and sweep halo
    rows but write back only their owned rows.  Blocks run in schedule
    order against the shared iterate, each reading off-block values from
    the sweep-start snapshot, from live memory (γ ≥ 1, the pipeline tail),
    or per entry from either (0 < γ < 1).  Done once per sweep:

    * one product of the stacked externals against the snapshot — bitwise
      the per-block products, since the compiled kernel sums each row left
      to right in whichever matrix holds it;
    * one ``Generator.random`` call for every freshness mask and defer
      decision, each position's fresh values followed by its defer value —
      bitwise the per-block draws, since ``random`` fills doubles
      sequentially from the bit stream.

    Each block folds its race corrections into its slice of that product
    with ``np.add.at`` (in place, in entry order) and runs its local
    iterations as ``fill(0)``, the compiled ``csr_matvec``, ``np.subtract``
    and ``np.divide`` into buffers shared by every block: the operations,
    in order, of ``(s - L.matvec(z)) / d``.  Nothing reads a block's owned
    rows before it finishes, so one write-back per block is bitwise the
    in-place update.  The loop keeps no state between sweeps, so one
    instance serves the batched engine's replicas in turn.
    """

    def __init__(self, table: BlockTable):
        self.table = table
        m = table.max_rows
        self._ext = np.empty(table.stacked.nrows)
        self._s = np.empty(m)
        self._acc = np.empty(m)
        self._z = (np.empty(m), np.empty(m))

    def external_product(self, v: np.ndarray) -> np.ndarray:
        """Every block's external gather against *v*, into the shared buffer."""
        E = self.table.stacked
        self._ext.fill(0.0)
        _csr_matvec(E.shape[0], E.shape[1], E.indptr, E.indices, E.data, v, self._ext)
        return self._ext

    def local_sweeps(self, local, s, z, k, omega, frozen=None, corruption=None):
        """*k* local Jacobi iterations of one block from *z* (not modified).

        *local* is the block's ``(indptr, indices, data, diag)``.  Returns a
        view of a shared buffer (with ω ≠ 1, a new array), valid until the
        next block runs.  *frozen* block-local rows never update (a broken
        core) or, given a *corruption* factor, update wrongly (§4.5).
        """
        ip, ix, dx, diag = local
        m = len(diag)
        acc = self._acc[:m]
        bufs = (self._z[0][:m], self._z[1][:m])
        for it in range(k):
            new = bufs[it & 1]
            acc.fill(0.0)
            _csr_matvec(m, m, ip, ix, dx, z, acc)
            np.subtract(s, acc, out=new)
            np.divide(new, diag, out=new)
            if omega != 1.0:
                new = (1.0 - omega) * z + omega * new
            if frozen is not None and len(frozen):
                if corruption is not None:
                    new[frozen] *= corruption
                else:
                    new[frozen] = z[frozen]
            z = new
        return z

    def sweep(self, x, b, rng, order, gamma, update_counts, config, *, frozen=None, corruption=None):
        """One global sweep of *x* in place: blocks in *order*, freshness *gamma*.

        *frozen* lists each block's frozen block-local rows under an active
        fault (else ``None``); *corruption* is its silent-error factor.
        """
        t = self.table
        E = t.stacked
        k, omega, p_defer = config.local_iterations, config.omega, config.deferred_write_prob
        gl = gamma.tolist()
        mixed = (gamma > 0.0) & (gamma < 1.0)
        snapshot = x if np.all(gamma >= 1.0) else x.copy()
        ext_all = self._ext if snapshot is x else self.external_product(snapshot)

        # Every random value of the sweep in one draw, in position order:
        # each position's freshness values (mixed γ only), then its defer
        # value (deferred writes only).  hit[cut[pos]:cut[pos + 1]] are
        # position pos's fresh entries.
        n = len(order)
        offs = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.where(mixed, t.ennz[order], 0) + (p_defer > 0.0), out=offs[1:])
        u = rng.random(int(offs[-1]))
        thr = np.repeat(gamma, np.diff(offs))
        if p_defer > 0.0:
            slot = offs[1:] - 1
            defer = (u[slot] < p_defer).tolist()
            thr[slot] = -1.0
        hit = np.flatnonzero(u < thr)
        cut = np.searchsorted(hit, offs)
        pos_of = np.repeat(np.arange(n), np.diff(cut))
        ent = hit - offs[pos_of] + t.ebase[order[pos_of]]
        f_cols, f_data = E.indices[ent], E.data[ent]
        f_rows = np.searchsorted(E.indptr, ent, side="right") - 1
        cut = cut.tolist()

        deferred = []
        for pos, bid in enumerate(order.tolist()):
            lo, hi, off, own_lo, own_hi, start, stop, ext_csr, local = t.entries[bid]
            ext = ext_all[off : off + hi - lo]
            g = gl[pos]
            if g >= 1.0:
                ext.fill(0.0)
                _csr_matvec(hi - lo, E.shape[1], *ext_csr, x, ext)
                read = x
            else:
                read = snapshot
                # Per-entry races: each off-block component is, with
                # probability γ, read after its owner's write from this
                # sweep landed.  Systems with many small off-block
                # couplings self-average (fv1's variation is tiny);
                # systems with a few heavy ones do not (Trefethen's is
                # not) — the §4.1 contrast emerges from the matrix.
                a, c = cut[pos], cut[pos + 1]
                if c > a:
                    cols, rows = f_cols[a:c], f_rows[a:c]
                    np.add.at(ext_all, rows, f_data[a:c] * (x[cols] - snapshot[cols]))
            s = np.subtract(b[lo:hi], ext, out=self._s[: hi - lo])
            z = self.local_sweeps(
                local, s, read[lo:hi], k, omega,
                frozen[bid] if frozen is not None else None, corruption,
            )
            if p_defer > 0.0 and defer[pos]:
                deferred.append((start, stop, z[own_lo:own_hi].copy()))
            else:
                x[start:stop] = z[own_lo:own_hi]

        for start, stop, vals in deferred:
            x[start:stop] = vals
        np.add.at(update_counts, order, 1)
        return x


class ReferenceSweepExecutor:
    """:class:`BlockLoop` over the disjoint blocks, with the engine's fault state."""

    name = "reference"

    def __init__(self, engine: "AsyncEngine"):
        self.loop = BlockLoop(engine.plan.reference_table)

    def sweep(self, eng: "AsyncEngine", x: np.ndarray) -> np.ndarray:
        eng._refresh_fault_state()
        frozen = eng._frozen_local if eng._frozen_mask is not None else None
        silent = eng.fault is not None and eng.fault.kind == "silent"
        order, gamma = eng.scheduler.plan_for_sweep(eng.sweep_index, eng.rng)
        self.loop.sweep(
            x, eng.b, eng.rng, order, gamma, eng.update_counts, eng.config,
            frozen=frozen, corruption=eng.fault.corruption if silent else None,
        )
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
