"""The asynchronous execution engine.

This is the software analogue of the paper's CUDA kernel (§3.3): the system
is decomposed into row blocks (:class:`repro.sparse.BlockRowView`), and each
global sweep executes every block once, in a scheduler-determined order,
against the shared iterate ``x``:

1. **Off-block gather** — the block computes
   ``s = b_block − A_external · x_read`` where ``x_read`` is either the
   sweep-start snapshot (that neighbour block is running *concurrently*;
   probability given by the scheduler's effective staleness, derived from
   device occupancy) or live memory (it already finished) — the shift
   function of Eq. (3)/(4), realised stochastically.
2. **Local iterations** — *k* Jacobi sweeps on the block's subdomain with
   the off-block part frozen (Algorithm 1's inner loop); reads and writes
   touch only the block's own rows.
3. **Write visibility** — results are published immediately, or (with the
   configured probability) deferred to the sweep end, modelling write-buffer
   latency.

With the ``"synchronous"`` order (staleness forced to 1) and ``k = 1``, one
sweep is *exactly* one synchronous Jacobi iteration — the engine degrades
gracefully to the textbook method, which the test suite exploits as an
oracle.

Fault injection (§4.5) freezes a set of rows: the affected components are
never recomputed while the failure is active — including inside local
iterations, where their neighbours keep reading the stale values — exactly
the "broken core" semantics of the paper's experiment.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from .._util import as_rng, check_vector
from ..perf.backends import make_executor, resolve_backend
from ..perf.plan import compile_sweep_plan, rhs_preserves_fold
from ..runtime import BatchedRunOutcome, RunLoop, StoppingCriterion
from ..runtime.recorder import RunRecorder
from ..solvers.base import SolveResult
from ..solvers.block_jacobi import local_jacobi_sweeps
from ..sparse import BlockRowView
from ..sparse.csr import scatter_add_fold
from .fault import FaultScenario
from .schedules import AsyncConfig, WaveScheduler, replica_rngs

__all__ = ["AsyncEngine", "BatchedAsyncEngine"]


class AsyncEngine:
    """Executes block-asynchronous sweeps over a shared iterate.

    Parameters
    ----------
    view:
        Precomputed block decomposition of the system matrix.
    b:
        Right-hand side.
    config:
        Asynchronism configuration (ordering, staleness, local iterations).
    fault:
        Optional failure scenario.
    rng:
        Override generator; defaults to a fresh one from ``config.seed``.

    Attributes
    ----------
    update_counts:
        Per-block count of completed block updates — the data behind the
        Chazan–Miranker condition (1) check.
    sweep_index:
        Number of completed global sweeps.
    backend:
        Resolved sweep-execution backend (``"fused"`` or ``"reference"``,
        see :mod:`repro.perf`): ``config.backend="auto"`` fuses the whole
        sweep into stacked whole-system kernels wherever that is bitwise
        the reference loop — snapshot-read regimes (γ ≡ 0) and
        all-deferred writes, with no fault — and runs the per-block loop
        everywhere else.
    plan:
        The compiled :class:`repro.perf.SweepPlan`, shared by every engine
        built on the same :class:`~repro.sparse.BlockRowView`.
    """

    def __init__(
        self,
        view: BlockRowView,
        b: np.ndarray,
        config: AsyncConfig,
        *,
        fault: Optional[FaultScenario] = None,
        rng: Optional[np.random.Generator] = None,
    ):
        self.view = view
        self.b = check_vector(b, view.n, "b")
        self.config = config
        self.fault = fault
        self.rng = rng if rng is not None else as_rng(config.seed)
        self.scheduler = WaveScheduler(view.partition, config, self.rng)
        self.update_counts = np.zeros(view.nblocks, dtype=np.int64)
        self.sweep_index = 0
        #: Optional telemetry sink (:class:`repro.runtime.RunRecorder`):
        #: fault activation/clearing and healing are reported as events.
        self.recorder: Optional[RunRecorder] = None
        # Fault support: per-block local indices of frozen rows, rebuilt
        # whenever the active frozen mask changes.
        self._frozen_mask: Optional[np.ndarray] = None
        self._frozen_local: List[np.ndarray] = []
        self._frozen_reported = False
        # Healed components: reassigned to healthy cores (self-healing
        # recovery, repro.core.recovery) — exempt from any future fault.
        self._healed = np.zeros(view.n, dtype=bool)
        # Compile (or reuse) the view's sweep plan and dispatch the sweep
        # executor: the extended-block RAS loop when an overlapped Schwarz
        # mode is active, otherwise matrix-free stencil kernels where
        # structure detection succeeds, fused whole-system kernels where
        # exact, and the per-block reference loop everywhere else
        # (repro.perf).  With schwarz="none" or a zero-overlap partition
        # the dispatch below is untouched — bitwise the historical engine.
        self.plan = compile_sweep_plan(view)
        if config.schwarz != "none" and view.partition.overlap > 0:
            if fault is not None:
                raise ValueError(
                    "Schwarz modes do not support fault scenarios; use "
                    "schwarz='none' for fault experiments"
                )
            if config.backend in ("fused", "stencil"):
                raise ValueError(
                    f"backend={config.backend!r} cannot execute async-RAS sweeps; "
                    "use backend='auto' or 'reference' with schwarz modes"
                )
            from ..perf.ras import RASSweepExecutor

            self.backend = "ras"
            self._executor = RASSweepExecutor(self)
        else:
            self.backend = resolve_backend(
                config,
                self.scheduler,
                has_fault=fault is not None,
                rhs_fold_safe=rhs_preserves_fold(self.b),
                plan=self.plan,
            )
            self._executor = make_executor(self.backend, self)

    # ------------------------------------------------------------------ #

    def heal_rows(self, rows: np.ndarray) -> None:
        """Permanently exempt *rows* from the fault (reassignment)."""
        rows = np.asarray(rows, dtype=np.int64)
        self._healed[rows] = True
        if self.recorder is not None:
            self.recorder.record_event(self.sweep_index, "heal", rows=int(len(rows)))

    def _refresh_fault_state(self) -> None:
        mask = self.fault.frozen_rows(self.sweep_index, self.view.n) if self.fault else None
        if mask is not None and self._healed.any():
            mask = mask & ~self._healed
        prev = self._frozen_mask
        if (mask is None) != (prev is None) or (
            mask is not None and prev is not None and not np.array_equal(mask, prev)
        ):
            self._frozen_mask = mask
            if mask is None:
                self._frozen_local = []
            else:
                self._frozen_local = [
                    np.flatnonzero(mask[blk.rows]) for blk in self.view.blocks
                ]
            if self.recorder is not None:
                frozen = 0 if mask is None else int(mask.sum())
                if frozen or self._frozen_reported:
                    self.recorder.record_event(
                        self.sweep_index,
                        "fault-active" if frozen else "fault-cleared",
                        frozen_rows=frozen,
                        fault=self.fault.kind if self.fault else None,
                    )
                self._frozen_reported = frozen > 0

    def sweep(self, x: np.ndarray) -> np.ndarray:
        """One global iteration: every block updated once, in schedule order.

        Each off-block component a block reads is, independently with the
        scheduler's freshness fraction γ, a value written earlier in this
        same sweep ("that neighbour finished before my read") and otherwise
        the sweep-start snapshot ("it ran concurrently with me").  γ = 0
        everywhere makes the sweep a synchronous block-Jacobi step; γ = 1 a
        block Gauss-Seidel sweep in schedule order; the GPU reality is in
        between.

        Execution is delegated to the backend resolved at construction
        (:attr:`backend`): the fused whole-system kernel path where it is
        bitwise-exact for this regime, the per-block reference loop
        everywhere else.  Both live in :mod:`repro.perf.backends`; the
        semantics described above are backend-independent.
        """
        return self._executor.sweep(x)

    # ------------------------------------------------------------------ #

    def run(
        self,
        x0: Optional[np.ndarray] = None,
        *,
        stopping: Optional[StoppingCriterion] = None,
        residual_every: Optional[int] = None,
        recorder: Optional[RunRecorder] = None,
        observer=None,
        method: Optional[str] = None,
    ) -> SolveResult:
        """Drive sweeps through :class:`repro.runtime.RunLoop` to a result.

        This is the engine-level run loop (historically hand-rolled by each
        caller): sweeps until the stopping rule converges or diverges,
        recording the residual history at the configured cadence.
        ``residual_every``/``recorder`` default to ``config.residual_every``
        and the engine's own :attr:`recorder`; *observer* is forwarded to
        the loop (the self-healing solver's detect/heal hook).
        """
        A = self.view.matrix
        st = stopping if stopping is not None else StoppingCriterion()
        m = self.config.residual_every if residual_every is None else residual_every
        if recorder is not None:
            self.recorder = recorder
        x = (
            np.zeros(self.view.n)
            if x0 is None
            else check_vector(x0, self.view.n, "x0").copy()
        )
        b_norm = float(np.linalg.norm(self.b))
        tag = method if method is not None else self.config.method_name
        loop = RunLoop(st, residual_every=m, recorder=self.recorder)
        outcome = loop.run(
            x,
            lambda x, it: self.sweep(x),
            lambda x: float(np.linalg.norm(A.residual(x, self.b))),
            b_norm=b_norm,
            method=tag,
            observer=observer,
        )
        if self.recorder is not None:
            self.recorder.annotate(
                backend=self.backend,
                nblocks=self.view.nblocks,
                staleness_bound=self.scheduler.staleness_bound(),
                update_counts=self.update_counts.tolist(),
                partition=self.view.partition_telemetry(),
            )
        result = SolveResult(
            x=outcome.x,
            residuals=outcome.residuals,
            converged=outcome.converged,
            method=tag,
            b_norm=b_norm,
            info={
                "diverged": outcome.diverged,
                "backend": self.backend,
                "sweeps": outcome.sweeps,
            },
        )
        if m != 1:
            result.residual_iters = outcome.residual_iters
        return result

    def min_updates(self) -> int:
        """Fewest updates any block has received (condition (1) diagnostics)."""
        return int(self.update_counts.min()) if len(self.update_counts) else 0


class BatchedAsyncEngine:
    """Advances R independent async-(k) replicas through each sweep at once.

    The §4.1/§4.3 ensemble experiments run the *same* configuration many
    times, varying only the schedule seed.  This engine stacks the R
    replica iterates as an ``(R, n)`` multi-vector and advances every
    replica through each global sweep with a handful of vectorized kernel
    calls, instead of R scalar solves — the same per-sweep amortisation
    batched asynchronous Richardson/Schwarz solvers use on GPUs.

    **Exactness contract**: replica *r* reproduces, bitwise, the iterates
    the sequential :class:`AsyncEngine` produces for
    ``dataclasses.replace(config, seed=seed0 + r)``.  Each replica owns a
    private generator (:func:`repro.core.schedules.replica_rngs`) and
    consumes it in exactly the sequential order — scheduler construction,
    per-sweep order jitter, per-block freshness masks, deferred-write
    draws — while the numerical kernels run batched:

    * the snapshot ("stale") part of every block's off-block gather is one
      multi-vector SpMV against the restacked external matrix
      (:meth:`repro.sparse.BlockRowView.external_matrix`);
    * per-entry race corrections and local Jacobi sweeps are grouped by
      (schedule position, block): replicas updating the same block at the
      same position advance together.  The position barrier preserves the
      sequential data flow — a block reads live values only of blocks
      earlier in *its replica's* order;
    * in the fused-exact regimes of :mod:`repro.perf` — every block reads
      the pure sweep-start snapshot (γ ≡ 0, e.g. the ``"synchronous"``
      order), or every write is deferred to the sweep end — block updates
      are order-independent and the whole sweep collapses to one global
      multi-vector two-stage update with no position loop at all
      (``config.backend`` gates this exactly as it does the sequential
      engine's fused executor).

    All 2-D kernels are bitwise identical to their stacked 1-D
    counterparts (the compiled CSR kernel sums each row left to right in
    every product, and both ``np.add.at`` and the segment-sum scatter
    :func:`repro.sparse.scatter_add_fold` accumulate per accumulator in
    listed order), which the test suite asserts directly.

    Fault scenarios are not supported — :func:`repro.stats.run_ensemble`
    falls back to the sequential path for those.

    Parameters
    ----------
    view:
        Precomputed block decomposition, shared by all replicas (the whole
        point: it is built once, not R times).
    b:
        Right-hand side: a length-n vector shared by all replicas (the
        ensemble case), or an ``(R, n)`` stack giving each replica its own
        right-hand side — the multi-rhs batching the serving layer
        (:mod:`repro.serve`) uses to run R independent requests on one
        matrix as one batched solve.  Replica *r* of a multi-rhs run is
        bitwise the sequential engine solving ``(A, b[r])`` with replica
        *r*'s seed.
    config:
        Asynchronism configuration.  ``config.seed`` is ignored — replica
        *r* runs with seed ``seed0 + r`` (or ``seeds[r]``).
    nreplicas:
        Ensemble size R.
    seed0:
        First replica seed.
    seeds:
        Optional explicit per-replica seeds (length R), overriding the
        ``seed0 + r`` default — used when the replicas are independent
        requests each carrying its own seed.

    Attributes
    ----------
    update_counts:
        ``(R, nblocks)`` per-replica block-update counts.
    sweep_index:
        Number of completed global sweeps.
    backend:
        Resolved sweep-execution backend (:mod:`repro.perf`): ``"fused"``
        means whole sweeps collapse to global multi-vector updates,
        ``"reference"`` means the position-grouped loop runs every sweep.
    plan:
        The compiled :class:`repro.perf.SweepPlan` shared with every
        engine built on the same view.
    """

    def __init__(
        self,
        view: BlockRowView,
        b: np.ndarray,
        config: AsyncConfig,
        nreplicas: int,
        *,
        seed0: int = 0,
        seeds: Optional[List[int]] = None,
    ):
        self.view = view
        self.nreplicas = int(nreplicas)
        b_arr = np.asarray(b, dtype=np.float64)
        self.multi_rhs = b_arr.ndim == 2
        if self.multi_rhs:
            if b_arr.shape != (self.nreplicas, view.n):
                raise ValueError(
                    f"multi-rhs b must have shape ({self.nreplicas}, {view.n}), "
                    f"got {b_arr.shape}"
                )
            self.B: Optional[np.ndarray] = np.ascontiguousarray(b_arr)
            self.b = self.B
        else:
            self.B = None
            self.b = check_vector(b, view.n, "b")
        self.config = config
        self.seed0 = int(seed0)
        if seeds is not None:
            if len(seeds) != self.nreplicas:
                raise ValueError(
                    f"seeds must list one seed per replica "
                    f"({self.nreplicas}), got {len(seeds)}"
                )
            self.rngs = [as_rng(s) for s in seeds]
        else:
            self.rngs = replica_rngs(self.seed0, self.nreplicas)
        # Scheduler construction consumes RNG ("gpu" pattern pools) exactly
        # as the sequential engine's __init__ does.
        self.schedulers = [
            WaveScheduler(view.partition, config, rng) for rng in self.rngs
        ]
        self.update_counts = np.zeros((self.nreplicas, view.nblocks), dtype=np.int64)
        self.sweep_index = 0
        # The compiled sweep plan is shared with every sequential engine
        # built on this view — index structures are compiled once per
        # decomposition, not per engine (repro.perf).
        self.plan = compile_sweep_plan(view)
        # Per-block rhs slices: (block_rows,) shared across replicas, or
        # (R, block_rows) when each replica owns its right-hand side.
        if self.multi_rhs:
            self._b_blocks = [
                np.ascontiguousarray(self.B[:, blk.rows]) for blk in view.blocks
            ]
            self._Bflat = self.B.reshape(-1)
        else:
            self._b_blocks = [self.b[blk.rows] for blk in view.blocks]
            self._Bflat = None
        self._ext_rows = self.plan.ext_rows
        self._local_c = self.plan.local_c
        self._E = view.external_matrix()
        self._ext_buf: Optional[np.ndarray] = None
        # Fused-path precomputes (see _sweep_fused).
        self._bs = np.array([blk.nrows for blk in view.blocks], dtype=np.int64)
        self._arange_rows = [
            np.arange(blk.start, blk.stop, dtype=np.int64) for blk in view.blocks
        ]
        self._ennz = self.plan.ennz
        self._e_indices = [blk.external.indices for blk in view.blocks]
        self._e_data = [blk.external.data for blk in view.blocks]
        self._diag_blocks = [blk.diag for blk in view.blocks]
        self._fold_safe = rhs_preserves_fold(self.b)
        if config.schwarz != "none" and view.partition.overlap > 0:
            # Overlapped Schwarz mode: every replica advances through the
            # shared extended-block workspace (repro.perf.ras), consuming
            # its own generator exactly as a sequential RAS engine would —
            # batched/sequential parity holds by construction because both
            # call the same sweep kernel.  None of the disjoint-path
            # machinery below (padded plans, fused collapse, stencil) is
            # built.
            if config.backend in ("fused", "stencil"):
                raise ValueError(
                    f"backend={config.backend!r} cannot execute async-RAS sweeps; "
                    "use backend='auto' or 'reference' with schwarz modes"
                )
            from ..perf.ras import RASWorkspace

            self.backend = "ras"
            self._ras = RASWorkspace(view, config)
            self._stencil_kernels = None
            return
        self._ras = None
        self._build_padded_plans()
        # Backend resolution mirrors the sequential engine: the whole-sweep
        # collapse (one global multi-vector two-stage update, no position
        # loop) engages exactly where AsyncEngine's fused executor would —
        # snapshot-read and all-deferred regimes — so replica r stays
        # bitwise the sequential run regardless of which engine fused.
        self.backend = resolve_backend(
            config, self.schedulers[0], rhs_fold_safe=self._fold_safe, plan=self.plan
        )
        self._stencil_kernels = (
            self.plan.stencil_kernels() if self.backend == "stencil" else None
        )
        if self.backend != "stencil":
            self.plan.warm_fused()
        if self.backend == "reference":
            self.plan.warm_reference()

    #: Groups smaller than this are folded into one fused per-position
    #: update instead of getting their own kernel calls.  With the "gpu"
    #: order every replica jitters the same base pattern, so each position
    #: has one large group plus a tail of near-singleton outliers — the
    #: tail dominates the call count, not the flops.
    _FUSE_MIN = 16

    #: Column sentinel for pad entries of the padded-ELL local plans;
    #: clipped to the shared zero slot at product time.
    _PAD_SENTINEL = np.int64(1) << 48

    def _build_padded_plans(self) -> None:
        """Uniform-width (padded ELL) layout of every block's local part.

        Each block's in-block off-diagonal rows are laid out as a dense
        ``(block_rows, W)`` panel, W the widest local row over *all*
        blocks.  Pad entries hold the value ``-0.0`` and a sentinel column
        that resolves to a shared ``+0.0`` operand slot, so every pad
        contributes the product ``-0.0 * +0.0 == -0.0`` — and IEEE-754
        addition of ``-0.0`` is the identity for every float (signed
        zeros, infinities and NaNs included).  A padded row therefore sums
        its entries left to right exactly as the compiled CSR kernel
        (:meth:`repro.sparse.CSRMatrix.matvec`) does, while giving all
        blocks one common rectangular shape that concatenates across
        blocks.  The kernel's leading ``+0.0`` accumulator is left out,
        which can change only the sign of an exact-zero row sum — invisible
        to ``np.array_equal``, the package's bitwise gates, and unable to
        reach a nonzero iterate component through the sweep's
        ``+,-,*,/`` data flow.

        An *empty* row gets ``+0.0`` as its first pad, so it sums to
        ``+0.0`` like the kernel's rather than to an all-pad ``-0.0``.
        """
        self._pad_cols: List[np.ndarray] = []
        self._pad_data: List[np.ndarray] = []
        W = max([1] + [int(np.diff(blk.local_off.indptr).max(initial=0)) for blk in self.view.blocks])
        for blk in self.view.blocks:
            lc = blk.local_off_compressed()
            lengths = np.diff(lc.indptr)
            cols = np.full((blk.nrows, W), self._PAD_SENTINEL, dtype=np.int64)
            data = np.full((blk.nrows, W), -0.0)
            r = lc._expanded_rows()
            p = np.arange(lc.nnz, dtype=np.int64) - lc.indptr[r]
            cols[r, p] = lc.indices
            data[r, p] = lc.data
            data[lengths == 0, 0] = 0.0
            # Lane-major (W, rows) storage: the product then runs one
            # contiguous gather-multiply-add per lane instead of strided
            # column reductions over a (rows, W) panel.
            self._pad_cols.append(np.ascontiguousarray(cols.T))
            self._pad_data.append(np.ascontiguousarray(data.T))
        self._padW = W

    # ------------------------------------------------------------------ #

    def staleness_bound(self) -> int:
        """Shift-function bound of the schedules (condition (2) of §2.2)."""
        return self.schedulers[0].staleness_bound() if self.schedulers else 0

    def _base_external(self, S: np.ndarray, reps: np.ndarray) -> np.ndarray:
        """Snapshot off-block gather ``E @ S[r]`` for every replica in *reps*.

        One 1-D SpMV per replica, bitwise the sequential engine's own
        per-block products: the compiled kernel sums each row the same way
        in the restacked matrix as in the block's external part.
        """
        out = self._ext_buf
        if out is None or out.shape[0] < len(reps):
            out = self._ext_buf = np.empty((len(reps), self.view.n))
        out = out[: len(reps)]
        if self._stencil_kernels is not None:
            for i, r in enumerate(reps):
                self._stencil_kernels.apply_external(S[r], out[i])
        else:
            for i, r in enumerate(reps):
                self._E.matvec(S[r], out=out[i])
        return out

    def sweep(self, X: np.ndarray, replicas: Optional[np.ndarray] = None) -> np.ndarray:
        """One global iteration for every replica row listed in *replicas*.

        *X* is the ``(R, n)`` multi-vector of iterates, updated in place;
        *replicas* (default: all) selects the rows still being advanced —
        frozen rows are neither read nor written, and their generators are
        not consumed, exactly as a sequential run that stopped early.
        """
        cfg = self.config
        view = self.view
        nb = view.nblocks
        if X.shape != (self.nreplicas, view.n):
            raise ValueError(
                f"X must have shape ({self.nreplicas}, {view.n}), got {X.shape}"
            )
        reps = (
            np.arange(self.nreplicas, dtype=np.int64)
            if replicas is None
            else np.asarray(replicas, dtype=np.int64)
        )
        if len(reps) == 0:
            self.sweep_index += 1
            return X
        if self._ras is not None:
            # Async-RAS: each replica runs the shared extended-block sweep
            # kernel on its own iterate row, generator and scheduler —
            # literally the sequential executor's call, once per replica.
            for r in reps:
                self._ras.sweep(
                    X[r],
                    self.B[r] if self.multi_rhs else self.b,
                    self.rngs[r],
                    self.schedulers[r],
                    self.sweep_index,
                    self.update_counts[r],
                    fold_safe=self._fold_safe,
                )
            self.sweep_index += 1
            return X

        # 1. Per-replica schedule plans.  γ is a deterministic device
        # property — identical for every replica — but the orders differ.
        orders = np.empty((len(reps), nb), dtype=np.int64)
        gamma = np.zeros(nb)
        for i, r in enumerate(reps):
            order, gamma = self.schedulers[r].plan_for_sweep(self.sweep_index, self.rngs[r])
            orders[i] = order

        # 2. Freshness masks and deferred-write draws, consumed in schedule
        # order from each replica's own stream (bitwise the sequential
        # draws).
        mixed = (gamma > 0.0) & (gamma < 1.0)
        draw_defer = cfg.deferred_write_prob > 0.0
        fresh: List[List[Optional[np.ndarray]]] = [[None] * nb for _ in range(len(reps))]
        defer = np.zeros((len(reps), nb), dtype=bool)
        if mixed.any() and not draw_defer:
            # No defer draws interleave, so each replica's per-block
            # freshness draws are consecutive in its stream — and
            # ``Generator.random`` fills doubles from the bit stream
            # sequentially, so one call per replica per sweep is bitwise
            # the per-block calls.  γ is uniform over mixed positions (it
            # differs only on the γ=1 pipeline tail), so one comparison
            # thresholds the whole sweep's draws.
            mpos = np.flatnonzero(mixed)
            gmix = float(gamma[mpos[0]])
            for i, r in enumerate(reps):
                sizes = self._ennz[orders[i][mpos]]
                offs = np.zeros(len(sizes) + 1, dtype=np.int64)
                np.cumsum(sizes, out=offs[1:])
                fm = self.rngs[r].random(int(offs[-1])) < gmix
                fi = fresh[i]
                for t, pos in enumerate(mpos):
                    fi[pos] = fm[offs[t] : offs[t + 1]]
        elif mixed.any() or draw_defer:
            for i, r in enumerate(reps):
                rng = self.rngs[r]
                row = orders[i]
                for pos in range(nb):
                    if mixed[pos]:
                        g = gamma[pos]
                        fresh[i][pos] = rng.random(self._ennz[row[pos]]) < g
                    if draw_defer:
                        defer[i, pos] = rng.random() < cfg.deferred_write_prob

        all_live = bool(np.all(gamma >= 1.0))
        collapse = self.backend in ("fused", "stencil")
        S = X if all_live else X.copy()
        EXT = self._base_external(S, reps) if (collapse or not all_live) else None

        if collapse:
            # Fused whole-sweep collapse, in the exact regimes of
            # repro.perf: with snapshot reads (γ ≡ 0) no block observes
            # another's current-sweep writes; with all-deferred writes
            # every write lands at the sweep end, so live reads — any γ —
            # observe pre-sweep values and race corrections are exact
            # signed zeros.  Either way the whole sweep is one global
            # multi-vector two-stage update with no position loop at all
            # (deferred writes land by sweep end on disjoint rows — the
            # final state is identical).
            s_all = (self.B[reps] if self.multi_rhs else self.b) - EXT
            if self._stencil_kernels is not None:
                # Stacked stencil variant: the weight planes broadcast over
                # the replica axis, so the (R, n) update is the 1-D slice
                # arithmetic per replica row — bitwise the CSR collapse.
                Z = self._stencil_kernels.local_sweeps(
                    s_all, X[reps], cfg.local_iterations, omega=cfg.omega
                )
            else:
                Z = local_jacobi_sweeps(
                    view.local_offdiag_matrix(),
                    view.diagonal_vector(),
                    s_all,
                    X[reps],
                    cfg.local_iterations,
                    omega=cfg.omega,
                )
            X[reps] = Z
            self.update_counts[reps] += 1
            self.sweep_index += 1
            return X

        # 3. Position loop with (position, block) grouping.  Replicas at
        # the same position update disjoint rows and read only their own
        # replica's values, so groups within a position are independent;
        # the barrier between positions preserves each replica's
        # earlier-blocks-are-live data flow.  Large groups (many replicas
        # on the same block — the "gpu" order's shared base pattern) run
        # as rectangular per-block kernels; the tail of small outlier
        # groups is folded into one fused concatenated update per
        # position.
        deferred: List[Tuple[int, slice, np.ndarray]] = []
        Xflat = X.reshape(-1) if X.flags["C_CONTIGUOUS"] else None
        fused_ok = Xflat is not None
        for pos in range(nb):
            bids = orders[:, pos]
            g = float(gamma[pos])
            ubids, inv, counts = np.unique(bids, return_inverse=True, return_counts=True)
            fuse = fused_ok and g < 1.0 and bool((counts < self._FUSE_MIN).any())
            if fuse:
                small = np.flatnonzero(counts[inv] < self._FUSE_MIN)
                mem_s = small[np.argsort(bids[small], kind="stable")]
                self._sweep_fused(
                    X, Xflat, S, EXT, pos, mem_s, bids[mem_s], g, reps,
                    fresh, defer, draw_defer, deferred,
                )
                if len(small) == len(bids):
                    continue
            for k, bid in enumerate(ubids):
                if fuse and counts[k] < self._FUSE_MIN:
                    continue
                mem = np.flatnonzero(inv == k)
                rows_g = reps[mem]
                blk = view.blocks[bid]
                if g >= 1.0:
                    ext = blk.external.matvec_rows(X, rows_g)
                else:
                    ext = EXT[mem, blk.start : blk.stop]
                    if g > 0.0:
                        # Per-entry races: each fresh off-block component
                        # is read after its owner's write from this sweep
                        # landed (owners later in the replica's order, or
                        # deferred, contribute an exact zero).
                        e = blk.external
                        F = (
                            np.stack([fresh[i][pos] for i in mem])
                            if len(mem) > 1
                            else fresh[mem[0]][pos][None, :]
                        )
                        mi, ei = np.nonzero(F)
                        if len(mi):
                            cols = e.indices[ei]
                            rg = rows_g[mi]
                            delta = e.data[ei] * (X[rg, cols] - S[rg, cols])
                            if self._fold_safe:
                                # Segment-sum scatter (one bincount) in
                                # place of np.add.at; per accumulator the
                                # fold order is identical (base first,
                                # then deltas in entry order).
                                ext = scatter_add_fold(
                                    ext,
                                    mi * blk.nrows + self._ext_rows[bid][ei],
                                    delta,
                                )
                            else:
                                np.add.at(ext, (mi, self._ext_rows[bid][ei]), delta)
                s = (
                    self._b_blocks[bid][rows_g] if self.multi_rhs else self._b_blocks[bid]
                ) - ext
                z = local_jacobi_sweeps(
                    self._local_c[bid],
                    blk.diag,
                    s,
                    X[rows_g, blk.start : blk.stop],
                    cfg.local_iterations,
                    omega=cfg.omega,
                )
                if draw_defer:
                    dmask = defer[mem, pos]
                    live = ~dmask
                    if live.any():
                        X[rows_g[live], blk.start : blk.stop] = z[live]
                    for j in np.flatnonzero(dmask):
                        deferred.append((int(rows_g[j]), blk.rows, z[j]))
                else:
                    X[rows_g, blk.start : blk.stop] = z

        for r, rows, vals in deferred:
            X[r, rows] = vals
        self.update_counts[reps] += 1
        self.sweep_index += 1
        return X

    def _sweep_fused(
        self,
        X: np.ndarray,
        Xflat: np.ndarray,
        S: np.ndarray,
        EXT: np.ndarray,
        pos: int,
        mem: np.ndarray,
        bids: np.ndarray,
        g: float,
        reps: np.ndarray,
        fresh: List[List[Optional[np.ndarray]]],
        defer: np.ndarray,
        draw_defer: bool,
        deferred: List[Tuple[int, slice, np.ndarray]],
    ) -> None:
        """One concatenated update of all small (replica, block) pairs at *pos*.

        *mem* indexes the pairs (into *reps*/*EXT* rows), sorted by block
        id so same-block pairs sit in contiguous sections.  All pairs'
        block rows are laid out back to back in one work vector and every
        step of the block update — snapshot gather, per-entry race
        corrections, the k local Jacobi sweeps over the padded-ELL local
        plans (:meth:`_build_padded_plans`), the write-back — runs as a
        single kernel call over the concatenation.  Pairs touch disjoint
        replica rows, so this is bitwise the same as updating them one
        group at a time: concatenation never mixes two pairs' terms into
        one accumulator (``np.add.at`` accumulates per listed index, and
        the padded rows reduce strictly left to right per row).
        """
        cfg = self.config
        view = self.view
        n = view.n
        rows_g = reps[mem]
        bs = self._bs[bids]
        m = len(mem)
        total = int(bs.sum())
        row_off = np.zeros(m, dtype=np.int64)
        np.cumsum(bs[:-1], out=row_off[1:])
        col_rows = np.concatenate([self._arange_rows[b] for b in bids])
        flat = np.repeat(rows_g * n, bs) + col_rows

        # Off-block gather: snapshot base rows from EXT, then per-entry
        # race corrections (identical accumulation order to the grouped
        # path: ascending entry within each pair's section).
        ext = EXT.reshape(-1)[np.repeat(mem * n, bs) + col_rows]
        if g > 0.0:
            F = np.concatenate([fresh[i][pos] for i in mem])
            sel = np.flatnonzero(F)
            if len(sel):
                ecols = np.concatenate([self._e_indices[b] for b in bids])[sel]
                edata = np.concatenate([self._e_data[b] for b in bids])[sel]
                epos = (
                    np.concatenate([self._ext_rows[b] for b in bids])
                    + np.repeat(row_off, self._ennz[bids])
                )[sel]
                erep = np.repeat(rows_g, self._ennz[bids])[sel]
                delta = edata * (X[erep, ecols] - S[erep, ecols])
                if self._fold_safe:
                    ext = scatter_add_fold(ext, epos, delta)
                else:
                    np.add.at(ext, epos, delta)
        if self.multi_rhs:
            # Same flat gather as the iterate: each pair's section takes
            # its own replica's rhs rows.
            s = self._Bflat[flat]
        else:
            s = np.concatenate([self._b_blocks[b] for b in bids])
        np.subtract(s, ext, out=s)
        d = np.concatenate([self._diag_blocks[b] for b in bids])

        # k local Jacobi sweeps over the concatenated padded-ELL panels,
        # lane by lane: every row accumulates its entries left to right,
        # and each lane is one contiguous gather-multiply-add.
        W = self._padW
        cols = np.concatenate([self._pad_cols[b] for b in bids], axis=1)
        cols += np.repeat(row_off, bs)
        data = np.concatenate([self._pad_data[b] for b in bids], axis=1)
        zbuf = np.empty(total + 1)
        zbuf[total] = 0.0
        zbuf[:total] = Xflat[flat]
        z = zbuf[:total]
        gbuf = np.empty(total)
        acc = np.empty(total)
        for _ in range(cfg.local_iterations):
            # mode="clip" lands every pad sentinel on the +0.0 slot at
            # index *total* (and skips per-element bounds checks).
            np.take(zbuf, cols[0], out=gbuf, mode="clip")
            np.multiply(data[0], gbuf, out=acc)
            for j in range(1, W):
                np.take(zbuf, cols[j], out=gbuf, mode="clip")
                gbuf *= data[j]
                acc += gbuf
            new = (s - acc) / d
            if cfg.omega != 1.0:
                new = (1.0 - cfg.omega) * z + cfg.omega * new
            zbuf[:total] = new
            z = zbuf[:total]

        if draw_defer and defer[mem, pos].any():
            dmask = defer[mem, pos]
            live = np.repeat(~dmask, bs)
            Xflat[flat[live]] = z[live]
            for j in np.flatnonzero(dmask):
                lo = row_off[j]
                deferred.append(
                    (int(rows_g[j]), view.blocks[bids[j]].rows, z[lo : lo + bs[j]].copy())
                )
        else:
            Xflat[flat] = z

    def run(
        self,
        *,
        stopping: StoppingCriterion,
        residual_every: int = 1,
        recorder: Optional[RunRecorder] = None,
        meta: Optional[dict] = None,
    ) -> BatchedRunOutcome:
        """Drive all R replicas from ``x0 = 0`` through the shared run loop.

        An active-set loop (:meth:`repro.runtime.RunLoop.run_batched`):
        per iteration one batched :meth:`sweep` over the replicas still
        running, then one cache-resident 1-D residual per active replica —
        bitwise the sequential solver's own evaluation.  Replicas whose
        residual passes the threshold (or diverges) freeze, exactly like a
        sequential early exit.  Histories are **absolute** residual norms;
        callers scale.

        With a multi-rhs engine each replica is stopped against its own
        ``||b_r||``-relative threshold, exactly as a sequential
        per-request run would be.  *meta* is forwarded to the telemetry
        run's metadata.
        """
        A = self.view.matrix
        n = self.view.n
        R = self.nreplicas
        X = np.zeros((R, n))
        res_row = np.empty(n)

        def rhs_row(r: int) -> np.ndarray:
            return self.B[r] if self.multi_rhs else self.b

        # x0 = 0 for every replica: the initial residual is shared for a
        # shared rhs and per-replica otherwise.
        if self.multi_rhs:
            zero = np.zeros(n)
            r0 = np.array(
                [float(np.linalg.norm(A.residual(zero, self.B[r]))) for r in range(R)]
            )
            b_norm = np.array([float(np.linalg.norm(self.B[r])) for r in range(R)])
        else:
            r0 = np.full(R, float(np.linalg.norm(A.residual(np.zeros(n), self.b))))
            b_norm = float(np.linalg.norm(self.b))

        def residual_norms(reps: np.ndarray) -> np.ndarray:
            out = np.empty(len(reps))
            for i, r in enumerate(reps):
                A.matvec(X[r], out=res_row)
                np.subtract(rhs_row(r), res_row, out=res_row)
                out[i] = float(np.linalg.norm(res_row))
            return out

        loop = RunLoop(stopping, residual_every=residual_every, recorder=recorder)
        out = loop.run_batched(
            X,
            lambda reps: self.sweep(X, reps),
            residual_norms,
            b_norm=b_norm,
            method=f"batched-{self.config.method_name}",
            r0=r0,
            meta=meta,
        )
        if recorder is not None:
            recorder.annotate(
                backend=self.backend,
                partition=self.view.partition_telemetry(),
            )
        return out

    def min_updates(self) -> int:
        """Fewest updates any (replica, block) pair has received."""
        return int(self.update_counts.min()) if self.update_counts.size else 0
