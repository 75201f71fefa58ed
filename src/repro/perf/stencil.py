"""Matrix-free stencil detection and offset-shifted sweep kernels.

The fv*/Laplacian and 3-D grid systems of the suite are **stencil
matrices**: every interior row carries the same small set of column
offsets with the same coefficients, boundary rows are clipped variants,
and the whole operator is described by a handful of ``(offset, coeff)``
pairs — the regime where constant-memory GPU stencil kernels beat every
sparse format, because the "sparse structure" is a compile-time constant
and the gather becomes a shifted contiguous read.

This module is the CPU analogue of that kernel family, split in two:

* :func:`detect_stencil` — a **structure detector** run once per compiled
  :class:`repro.perf.SweepPlan`.  It classifies the rows of a
  :class:`repro.sparse.BlockRowView`'s matrix by their exact
  ``(offsets, coefficients)`` pattern and accepts the matrix as
  *stencil-regular* when the patterns collapse to a few well-populated
  interior classes plus clipped boundary variants (the contract below).
  On success it records a :class:`StencilDescriptor` — offsets,
  interior coefficients, best-effort grid shape — on the plan; on failure
  it records the reason, and dispatch falls back to the fused/reference
  CSR paths.
* :class:`StencilKernels` — the **executor kernels**: per-offset weight
  vectors (the diagonal-storage form of the matrix, split into external
  and block-local parts along the view's partition) applied with
  offset-shifted slice arithmetic.  One sweep performs no CSR gather and
  no per-block Python loop: each diagonal is either one contiguous
  ``acc[lo:hi] += w * x[lo+o:hi+o]`` multiply-add or, for sparse
  diagonals (block-crossing couplings), one short fancy-indexed update.

**Detection contract.**  A view is stencil-regular iff

1. it carries no row permutation (``rcm``/``clustered`` partitions fail
   cleanly and fall back — offsets are meaningless after reordering);
2. the distinct column offsets number at most :data:`MAX_OFFSETS` and
   cover at least :data:`MIN_FILL` of the ``offsets × rows`` plane
   (Chem97ZtZ's scattered structure and s1rmt3m1's wide band exit here);
3. the rows collapse to at most :data:`MAX_CLASSES` distinct
   ``(offsets, coeffs)`` patterns (Trefethen's per-row prime diagonal
   makes every row unique and exits here);
4. the **full-pattern** classes (rows carrying every offset) that hold at
   least ``min_interior_rows`` members — the *interior* classes — cover
   at least :data:`MIN_INTERIOR` of all rows.  Several interior classes
   are allowed: fv*'s two-material coefficient field yields one class per
   material plus a few interface patterns, all constant-coefficient;
5. every remaining row is an exact **clipped variant** of an interior
   class: its offsets are a subset and its coefficients are bit-identical
   to that class at every offset it carries.  A near-miss matrix — one
   perturbed coefficient anywhere — either forms an under-populated
   full-pattern class or a non-matching variant, and detection fails.

**Exactness.**  The kernels read their weights from the matrix entries
themselves, so they compute each row's sum over exactly the row's
entries, in ascending-column order — the same order the compiled CSR
kernel (:meth:`repro.sparse.CSRMatrix.matvec`) accumulates.
The one deviation: rows missing an offset that their diagonal's slice
range covers contribute a ``0.0 * x`` term, which is exact for every
finite operand but may flip the *sign* of an exact-zero accumulator.
Signed zeros never propagate into value differences through the sweep's
``+,-,*,/`` data flow, so iterates agree with the reference loop under
``np.array_equal`` (the package's bitwise gates) and bit-for-bit in
every nonzero component; see :mod:`repro.perf.backends` for the regime
gating, which is exactly the fused path's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Set, Tuple

import numpy as np

from ..sparse import BlockRowView

__all__ = [
    "MAX_OFFSETS",
    "MIN_FILL",
    "MIN_INTERIOR",
    "MAX_CLASSES",
    "StencilDescriptor",
    "detect_stencil",
    "StencilKernels",
]

#: Most distinct column offsets a stencil may carry (27-point = 27).
MAX_OFFSETS = 32

#: Minimum nnz / (offsets × rows) fill of the diagonal-storage plane.
MIN_FILL = 0.5

#: Minimum fraction of rows that must belong to interior (full-pattern,
#: well-populated) classes.
MIN_INTERIOR = 0.5

#: Most distinct ``(offsets, coeffs)`` row patterns overall (interior
#: classes + boundary variants).
MAX_CLASSES = 64

#: A diagonal whose nonzero rows cover at least this fraction of its
#: trimmed row range runs as one contiguous slice multiply-add; sparser
#: diagonals (block-crossing couplings) use a fancy-indexed update.
_DENSE_SLICE = 0.25


@dataclass(frozen=True)
class StencilDescriptor:
    """The recovered structure of a stencil-regular decomposition.

    Attributes
    ----------
    offsets:
        Sorted distinct column offsets (``col - row``), diagonal included.
    coeffs:
        Coefficients of the **dominant** interior class, aligned with
        :attr:`offsets` — the constant-coefficient core of the operator.
        (Execution does not consume these: the kernels read per-row
        weights from the matrix, so coefficient-field scalings like fv*'s
        two-material diagonal are handled exactly.)
    grid_shape:
        Best-effort inferred grid extents (slowest axis first), verified
        against the offset validity masks; ``None`` when inference is not
        certain.  Metadata only — execution never needs it.
    interior_fraction:
        Fraction of rows in interior classes.
    n_classes:
        Distinct row patterns overall.
    n_interior_classes:
        Full-pattern classes accepted as interior.
    n_variants:
        Clipped boundary-row variants.
    """

    offsets: np.ndarray = field(repr=False)
    coeffs: np.ndarray = field(repr=False)
    grid_shape: Optional[Tuple[int, ...]]
    interior_fraction: float
    n_classes: int
    n_interior_classes: int
    n_variants: int

    def telemetry(self) -> dict:
        """JSON-friendly summary for the run-telemetry annotation."""
        return {
            "offsets": [int(o) for o in self.offsets],
            "grid_shape": list(self.grid_shape) if self.grid_shape else None,
            "interior_fraction": float(self.interior_fraction),
            "classes": int(self.n_classes),
            "interior_classes": int(self.n_interior_classes),
            "variants": int(self.n_variants),
        }


# --------------------------------------------------------------------- #
# detection
# --------------------------------------------------------------------- #


def _generated_offsets(strides: Sequence[int]) -> Set[int]:
    """Positive offsets reachable as ±stride combinations (one per axis)."""
    gen = {0}
    for s in strides:
        gen = {g + c * s for g in gen for c in (-1, 0, 1)}
    return {g for g in gen if g > 0}


def _infer_grid_shape(
    offsets: np.ndarray, present: np.ndarray, n: int
) -> Optional[Tuple[int, ...]]:
    """Best-effort grid extents from the offset set, mask-verified.

    Axis strides are searched so every positive offset is a ±1
    combination of them (the cross/box neighbourhoods of 5/7/9/19/27
    point stencils); extents follow from consecutive stride ratios.  The
    result is checked against the actual per-offset presence masks —
    offset ``+stride`` must vanish exactly on the axis's last coordinate
    — and ``None`` is returned whenever anything is uncertain.
    """
    pos = [int(o) for o in offsets if o > 0]
    neg = sorted(int(-o) for o in offsets if o < 0)
    if not pos or pos != neg or pos[0] != 1:
        return None
    pos_set = set(pos)

    def search(strides: List[int]) -> Optional[List[int]]:
        if pos_set <= _generated_offsets(strides):
            dims = []
            for i, s in enumerate(strides):
                nxt = strides[i + 1] if i + 1 < len(strides) else n
                if nxt % s:
                    return None
                dims.append(nxt // s)
            return dims if all(d >= 2 for d in dims) else None
        if len(strides) >= 3:
            return None
        for cand in sorted(pos_set - _generated_offsets(strides)):
            found = search(strides + [cand])
            if found is not None:
                return found
        return None

    dims = search([1])
    if dims is None:
        return None
    # Verify: entry (i, i + stride) must exist exactly where the axis
    # coordinate is not the last one.
    idx = np.arange(n)
    for stride, extent in zip([1] + list(np.cumprod(dims))[:-1], dims):
        k = int(np.searchsorted(offsets, stride))
        if k >= len(offsets) or offsets[k] != stride:
            return None
        expected = (idx // stride) % extent < extent - 1
        if not np.array_equal(present[:, k], expected):
            return None
    return tuple(reversed(dims))


def detect_stencil(
    view: BlockRowView,
    *,
    max_offsets: int = MAX_OFFSETS,
    min_fill: float = MIN_FILL,
    min_interior: float = MIN_INTERIOR,
    max_classes: int = MAX_CLASSES,
) -> Tuple[Optional[StencilDescriptor], str]:
    """Test *view* for stencil regularity.

    Returns ``(descriptor, "")`` on success or ``(None, reason)`` on
    failure; the reason string is recorded in the partition telemetry so
    a fallback is always explainable.  Cost is one vectorized pass over
    the nonzeros plus a per-row lexicographic grouping — paid once per
    compiled plan, and only when stencil dispatch is actually considered.
    """
    if view.partition.perm is not None:
        return None, "partition carries a row permutation (offsets undefined)"
    A = view.matrix
    n = A.shape[0]
    if n < 4 or A.nnz == 0:
        return None, "matrix too small for stencil dispatch"
    if not np.all(np.isfinite(A.data)):
        return None, "matrix entries are not finite"

    rows = A._expanded_rows()
    offs = A.indices - rows
    offsets = np.unique(offs)
    W = len(offsets)
    if W > max_offsets:
        return None, f"{W} distinct offsets exceed the cap of {max_offsets}"
    if 0 not in offsets:
        return None, "no diagonal offset"
    fill = A.nnz / (W * n)
    if fill < min_fill:
        return None, f"offset-plane fill {fill:.3f} below {min_fill}"

    # Row patterns: an (n, W) plane holding each row's coefficient at
    # every offset (NaN = absent — one shared bit pattern, so byte-wise
    # row comparison is exact pattern comparison, signed zeros included).
    plane = np.full((n, W), np.nan)
    plane[rows, np.searchsorted(offsets, offs)] = A.data
    raw = np.ascontiguousarray(plane).view(np.dtype((np.void, 8 * W))).ravel()
    _, first, counts = np.unique(raw, return_index=True, return_counts=True)
    k = len(first)
    if k > max_classes:
        return None, f"{k} distinct row patterns exceed the cap of {max_classes}"

    pat = plane[first]  # (k, W) class patterns
    present = ~np.isnan(pat)
    full = present.all(axis=1)
    # An interior class must be populated: a single perturbed coefficient
    # forms its own 1-row full-pattern class and must not count.
    min_rows = max(2, min(8, n // 8))
    interior_cls = full & (counts >= min_rows)
    if not interior_cls.any():
        return None, f"no full-pattern class with >= {min_rows} rows"
    interior_fraction = float(counts[interior_cls].sum() / n)
    if interior_fraction < min_interior:
        return (
            None,
            f"interior fraction {interior_fraction:.3f} below {min_interior}",
        )

    # Every other class must clip an interior class exactly: offsets a
    # subset, coefficients bit-identical where present.
    anchor_bits = pat[interior_cls].view(np.uint64)
    for c in np.flatnonzero(~interior_cls):
        mask = present[c]
        row_bits = np.ascontiguousarray(pat[c, mask]).view(np.uint64)
        if not any(np.array_equal(row_bits, anchor[mask]) for anchor in anchor_bits):
            return None, "row pattern is not a clipped variant of any interior class"

    dominant = int(np.flatnonzero(interior_cls)[np.argmax(counts[interior_cls])])
    present_rows = ~np.isnan(plane)
    desc = StencilDescriptor(
        offsets=offsets,
        coeffs=pat[dominant].copy(),
        grid_shape=_infer_grid_shape(offsets, present_rows, n),
        interior_fraction=interior_fraction,
        n_classes=int(k),
        n_interior_classes=int(interior_cls.sum()),
        n_variants=int(k - interior_cls.sum()),
    )
    return desc, ""


# --------------------------------------------------------------------- #
# execution kernels
# --------------------------------------------------------------------- #


class _Diagonal:
    """One off-diagonal weight plane: slice-applied or gather-applied."""

    __slots__ = ("offset", "lo", "hi", "w", "idx", "wi")

    def __init__(self, offset: int, rows: np.ndarray, vals: np.ndarray, n: int):
        self.offset = offset
        lo, hi = int(rows[0]), int(rows[-1]) + 1
        if len(rows) >= _DENSE_SLICE * (hi - lo):
            # Dense within its trimmed range: one contiguous multiply-add.
            # Holes carry weight 0.0 (exact for finite operands; zero-sign
            # caveat in the module docstring).
            w = np.zeros(hi - lo)
            w[rows - lo] = vals
            self.lo, self.hi, self.w = lo, hi, w
            self.idx = self.wi = None
        else:
            self.lo = self.hi = 0
            self.w = None
            self.idx, self.wi = rows, vals

    def apply(self, x: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> None:
        """``out[..., r] += w_r * x[..., r + offset]`` over this diagonal.

        *scratch* is a reusable buffer shaped like *out* — the product
        lands there instead of a freshly mapped temporary, which is what
        keeps the hot sweep free of per-call page faults.
        """
        o = self.offset
        if self.w is not None:
            lo, hi = self.lo, self.hi
            t = scratch[..., lo:hi]
            np.multiply(self.w, x[..., lo + o : hi + o], out=t)
            sl = out[..., lo:hi]
            np.add(sl, t, out=sl)
        else:
            out[..., self.idx] += self.wi * x[..., self.idx + o]

    def write(self, x: np.ndarray, out: np.ndarray) -> None:
        """``out = this diagonal's product`` — the first-plane fast path.

        Bitwise the zero-initialised accumulate for every product value
        except an exact ``-0.0``, where the fold ``0.0 + (-0.0)`` would
        have flipped the sign — a zero-sign difference of the kind the
        module contract already carries (it cannot reach a nonzero
        component).
        """
        o = self.offset
        if self.w is not None:
            out[..., : self.lo] = 0.0
            out[..., self.hi :] = 0.0
            np.multiply(
                self.w, x[..., self.lo + o : self.hi + o], out=out[..., self.lo : self.hi]
            )
        else:
            out[...] = 0.0
            out[..., self.idx] += self.wi * x[..., self.idx + o]


class StencilKernels:
    """Offset-shifted sweep kernels of one stencil-regular decomposition.

    Weights are gathered from the view's matrix once, per offset, and
    split into **external** (column outside the row's block) and
    **local** (inside the block, off-diagonal) planes along the
    partition, mirroring the E/L split every executor consumes.  Both
    application methods accept ``(n,)`` vectors and ``(R, n)``
    multi-vectors (the batched engines' stacked variant) — diagonals
    broadcast over leading axes, so the 2-D path is the 1-D arithmetic
    per replica row.

    Diagonals accumulate in ascending-offset order — ascending column
    order, the same per-row order as the compiled CSR kernel.
    """

    def __init__(self, view: BlockRowView, offsets: np.ndarray):
        A = view.matrix
        n = A.shape[0]
        self.n = n
        self.diag = view.diagonal_vector()
        rows = A._expanded_rows()
        offs = A.indices - rows
        block_of = np.searchsorted(view.boundaries, np.arange(n), side="right") - 1
        self._external: List[_Diagonal] = []
        self._local: List[_Diagonal] = []
        for o in offsets:
            o = int(o)
            if o == 0:
                continue
            sel = offs == o
            r = rows[sel]
            v = A.data[sel]
            same_block = block_of[r] == block_of[r + o]
            for mask, planes in ((~same_block, self._external), (same_block, self._local)):
                if mask.any():
                    planes.append(_Diagonal(o, r[mask], v[mask], n))
        # Reusable work buffers, keyed by operand shape: freshly mapped
        # 2 MB temporaries cost page faults on every sweep, which at fine
        # decompositions rivals the arithmetic itself.
        self._bufs: dict = {}

    def _scratch(self, key: str, shape: Tuple[int, ...]) -> np.ndarray:
        buf = self._bufs.get((key, shape))
        if buf is None:
            buf = self._bufs[key, shape] = np.empty(shape)
        return buf

    @property
    def n_diagonals(self) -> Tuple[int, int]:
        """(external, local) weight-plane counts (diagnostics)."""
        return len(self._external), len(self._local)

    def _accumulate(
        self, planes: List[_Diagonal], x: np.ndarray, out: np.ndarray
    ) -> np.ndarray:
        """``out = sum of planes applied to x``, first plane writing."""
        if not planes:
            out[...] = 0.0
            return out
        planes[0].write(x, out)
        if len(planes) > 1:
            scratch = self._scratch("plane", out.shape)
            for d in planes[1:]:
                d.apply(x, out, scratch)
        return out

    def apply_external(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``out = E @ x`` — the whole-system external gather, matrix-free."""
        return self._accumulate(self._external, x, out)

    def local_sweeps(
        self,
        s: np.ndarray,
        z: np.ndarray,
        sweeps: int,
        *,
        omega: float = 1.0,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """*sweeps* Jacobi iterations against the local weight planes.

        Expression-identical to
        :func:`repro.solvers.block_jacobi.local_jacobi_sweeps` with the
        local off-diagonal product replaced by the shifted-slice
        accumulation; *z* is not modified (unless it aliases *out*) and
        the final iterate is returned.  When *out* is given the final
        iterate lands there — *out* may alias *z* (the engine's in-place
        update) but must not alias *s*; intermediate iterates live in
        internal reused buffers.
        """
        acc = self._scratch("acc", s.shape)
        for it in range(sweeps):
            self._accumulate(self._local, z, acc)
            last = it == sweeps - 1
            if omega == 1.0:
                # new = (s - acc) / diag reads neither z nor new: the
                # final iteration may write straight into out, aliases
                # included.
                new = (
                    out
                    if last and out is not None
                    else self._scratch("z0" if it & 1 == 0 else "z1", s.shape)
                )
                np.subtract(s, acc, out=new)
                np.divide(new, self.diag, out=new)
            else:
                t = self._scratch("t", s.shape)
                np.subtract(s, acc, out=t)
                np.divide(t, self.diag, out=t)
                np.multiply(t, omega, out=t)  # omega * new
                if last and out is not None and out is z:
                    np.multiply(z, 1.0 - omega, out=z)
                    np.add(z, t, out=z)
                    new = z
                else:
                    new = (
                        out
                        if last and out is not None
                        else self._scratch("z0" if it & 1 == 0 else "z1", s.shape)
                    )
                    np.multiply(z, 1.0 - omega, out=new)
                    np.add(new, t, out=new)
            z = new
        return z
