"""Sweep-plan compilation: the block decomposition as precomputed kernels.

The asynchronous engine's global sweep used to rebuild, on every visit to
every block, the small index structures its kernels need — expanded row
ids for the scatter of per-entry race corrections, right-hand-side slices,
compressed local matrices.  For fine decompositions (thousands of
blocks) that bookkeeping, not arithmetic, dominated the time-per-iteration
the paper's Figure 8 / Table 5 measure.

:class:`SweepPlan` compiles the decomposition once, at first engine
construction, into the structures the execution backends consume:

* **per-block** (the reference and async-RAS loops): a
  :class:`BlockTable` — every block's kernel arguments resolved once,
  plus the block externals restacked so one product per sweep serves
  every snapshot read;
* **whole-system** (the fused path): the restacked external and local
  off-diagonal matrices plus the concatenated diagonal — one
  multi-vector-shaped kernel set for the entire sweep.

Products themselves need no compiled state: every one is scipy's
``csr_matvec`` on the matrix's own CSR arrays
(:meth:`repro.sparse.CSRMatrix.matvec`).

The plan is attached to the :class:`repro.sparse.BlockRowView` itself
(``view._perf_plan``), so every engine built on one view — sequential,
batched, preconditioner-internal — shares a single compilation.
"""

from __future__ import annotations

import weakref
from typing import List, Optional

import numpy as np

from ..sparse import BlockRowView
from ..sparse.csr import CSRMatrix

__all__ = [
    "BlockTable",
    "SweepPlan",
    "compile_sweep_plan",
    "plan_compile_count",
    "rhs_preserves_fold",
]

#: Total SweepPlan compilations since import — a diagnostic counter the
#: serve-layer cache tests use to assert "one compilation per structure".
_COMPILE_COUNT = 0


def plan_compile_count() -> int:
    """Number of :class:`SweepPlan` objects compiled since import.

    :func:`compile_sweep_plan` increments this only when it actually
    builds a plan (cache hits on the view do not count), so the delta
    across a workload measures real compilation work — the quantity the
    structure-keyed cache of :mod:`repro.serve` exists to amortise.
    """
    return _COMPILE_COUNT


def rhs_preserves_fold(b: np.ndarray) -> bool:
    """Whether *b* is free of ``-0.0`` entries.

    The reference loop folds its per-entry race corrections into the
    snapshot product in place (``ext[r] + w_1 + w_2 + ...``).  Where the
    live and snapshot values agree — every race of an all-deferred sweep —
    the corrections are signed zeros, and ``-0.0 + +0.0`` flips a ``-0.0``
    row sum to ``+0.0``.  That flip reaches the iterate through
    ``s = b - ext`` only where *b* itself holds a negative zero, so the
    fused dispatch (which adds no corrections) requires this for mixed-γ
    all-deferred regimes.  Every practically occurring right-hand side
    passes; the dispatch degrades gracefully when one does not.
    """
    b = np.asarray(b)
    return not bool(np.any((b == 0.0) & np.signbit(b)))


class BlockTable:
    """The block loop's kernel arguments, resolved once per decomposition.

    ``entries[k]`` is block *k*'s ``(lo, hi, offset, own_lo, own_hi,
    start, stop, (ext indptr, indices, data), (local indptr, indices, data,
    diag))``: it reads and sweeps rows ``[lo, hi)`` and writes back owned
    rows ``[start, stop)`` (``[own_lo, own_hi)`` block-locally) — one range
    for a disjoint block, the interior of an extended RAS block.  *stacked*
    restacks every block's external part in block order, block *k*'s rows
    from ``offset``, so one product per sweep serves every block; ``ebase``
    and ``ennz`` locate each block's external entries in it, for the race
    corrections.  *stacked* is built (:meth:`CSRMatrix.restack`) before
    the entries capture the externals' arrays, which are then its views.
    """

    def __init__(self, ranges, externals, locals_, diags, stacked: CSRMatrix):
        offsets = np.zeros(len(ranges) + 1, dtype=np.int64)
        np.cumsum([hi - lo for lo, hi, _, _ in ranges], out=offsets[1:])
        self.entries = [
            (lo, hi, int(off), start - lo, stop - lo, start, stop,
             (e.indptr, e.indices, e.data), (c.indptr, c.indices, c.data, d))
            for (lo, hi, start, stop), off, e, c, d
            in zip(ranges, offsets[:-1], externals, locals_, diags)
        ]
        self.stacked = stacked
        self.ebase = stacked.indptr[offsets[:-1]]
        self.ennz = np.array([e.nnz for e in externals], dtype=np.int64)
        self.max_rows = int(np.diff(offsets).max(initial=0))


class SweepPlan:
    """Compiled execution structures of one block decomposition.

    Built by :func:`compile_sweep_plan`; construction itself is cheap —
    the heavier per-backend structures are materialised on demand
    (:attr:`reference_table`, :attr:`ras_table`, :meth:`warm_fused`) so an
    engine only pays for the backend it runs.

    Attributes
    ----------
    view:
        The decomposition this plan compiles.  The view owns its plan
        (``view._perf_plan``) and the plan refers back to it weakly, so
        the pair forms no reference cycle and a finished solve's
        decomposition is freed at once; every holder of a plan also holds
        its view.
    partition:
        The :class:`repro.partition.Partition` the view was built on — one
        compilation per partition, shared by every engine on the view.
    ennz:
        Per-block external nonzero counts (freshness-draw sizes).
    """

    def __init__(self, view: BlockRowView):
        self._view = weakref.ref(view)
        self.partition = view.partition
        self.ennz = np.array([blk.external.nnz for blk in view.blocks], dtype=np.int64)
        self._ext_rows: Optional[List[np.ndarray]] = None
        self._local_c: Optional[List[CSRMatrix]] = None
        self._reference_table: Optional[BlockTable] = None
        self._ras_table: Optional[BlockTable] = None
        self._warmed_fused = False
        self._stencil = None
        self._stencil_kernels = None

    @property
    def view(self) -> BlockRowView:
        return self._view()

    # ------------------------------------------------------------------ #
    # reference-loop structures
    # ------------------------------------------------------------------ #

    @property
    def ext_rows(self) -> List[np.ndarray]:
        """Per-block local row of every external entry (batched race scatter)."""
        if self._ext_rows is None:
            self._ext_rows = [blk.external._expanded_rows() for blk in self.view.blocks]
        return self._ext_rows

    @property
    def local_c(self) -> List[CSRMatrix]:
        """Per-block compressed (block-local-column) local off-diagonal parts."""
        if self._local_c is None:
            self._local_c = [blk.local_off_compressed() for blk in self.view.blocks]
        return self._local_c

    @property
    def reference_table(self) -> "BlockTable":
        """The disjoint blocks' :class:`BlockTable` (the reference loop's)."""
        if self._reference_table is None:
            blocks = self.view.blocks
            self._reference_table = BlockTable(
                [(blk.start, blk.stop, blk.start, blk.stop) for blk in blocks],
                [blk.external for blk in blocks],
                self.local_c,
                [blk.diag for blk in blocks],
                self.view.external_matrix(),
            )
        return self._reference_table

    # ------------------------------------------------------------------ #
    # fused whole-system structures
    # ------------------------------------------------------------------ #

    @property
    def external(self) -> CSRMatrix:
        """The restacked whole-system external matrix (Eq. (4)'s global part)."""
        return self.view.external_matrix()

    @property
    def local_off(self) -> CSRMatrix:
        """The restacked block-diagonal local off-diagonal matrix."""
        return self.view.local_offdiag_matrix()

    @property
    def diag(self) -> np.ndarray:
        """The concatenated system diagonal."""
        return self.view.diagonal_vector()

    def warm_fused(self) -> "SweepPlan":
        """Materialise and warm the stacked whole-system kernels."""
        if not self._warmed_fused:
            self.view.warm_stacked_kernels()
            self._warmed_fused = True
        return self

    # ------------------------------------------------------------------ #
    # restricted-Schwarz extended-block structures
    # ------------------------------------------------------------------ #

    @property
    def ras_table(self) -> "BlockTable":
        """The extended blocks' :class:`BlockTable` (the async-RAS loop's).

        Builds the view's :meth:`~repro.sparse.BlockRowView.ras_blocks` and
        restacks their external parts, so an async-RAS engine's first timed
        sweep does no compilation.  Never built at ``overlap=0``; the
        classic structures stay the only ones built then.
        """
        if self._ras_table is None:
            blocks = self.view.ras_blocks()
            externals = [blk.external for blk in blocks]
            self._ras_table = BlockTable(
                [(blk.elo, blk.ehi, blk.start, blk.stop) for blk in blocks],
                externals,
                [blk.local_off for blk in blocks],
                [blk.diag for blk in blocks],
                CSRMatrix.restack(externals, self.view.n),
            )
        return self._ras_table

    # ------------------------------------------------------------------ #
    # matrix-free stencil structures
    # ------------------------------------------------------------------ #

    @property
    def stencil_attempted(self) -> bool:
        """Whether stencil detection has run on this plan (telemetry gate)."""
        return self._stencil is not None

    @property
    def stencil(self):
        """``(descriptor, reason)`` of stencil detection, run lazily once.

        The descriptor is a :class:`repro.perf.stencil.StencilDescriptor`
        when the view's blocks are stencil-regular, else ``None`` with a
        human-readable failure *reason* — recorded in the partition
        telemetry so every fallback is explainable.
        """
        if self._stencil is None:
            from .stencil import detect_stencil

            self._stencil = detect_stencil(self.view)
        return self._stencil

    def stencil_kernels(self):
        """The compiled :class:`repro.perf.stencil.StencilKernels` (cached).

        Raises :class:`ValueError` when detection failed — callers gate on
        :attr:`stencil` first (the backend dispatcher does).
        """
        if self._stencil_kernels is None:
            desc, reason = self.stencil
            if desc is None:
                raise ValueError(f"view is not stencil-regular: {reason}")
            from .stencil import StencilKernels

            self._stencil_kernels = StencilKernels(self.view, desc.offsets)
        return self._stencil_kernels


def compile_sweep_plan(view: BlockRowView) -> SweepPlan:
    """The (cached) compiled sweep plan of *view*.

    The first call compiles and attaches the plan; later calls — from
    other engines sharing the view, e.g. a preconditioner constructing an
    engine per application — return the same object.
    """
    global _COMPILE_COUNT
    if view._perf_plan is None:
        view._perf_plan = SweepPlan(view)
        _COMPILE_COUNT += 1
    return view._perf_plan
