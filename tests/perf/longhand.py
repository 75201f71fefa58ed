"""The per-block sweep loops in longhand: one product and one draw per block.

These are the reference-executor and async-RAS sweep bodies as they were
written before the loop hoisted its sweep-invariant work (one snapshot
product and one freshness draw per sweep, direct kernel calls into reused
buffers).  They are kept verbatim, apart from the state they read being
rebuilt here from the engine and view, so the test suite can check the
hoisted loops against them bitwise: same iterates, same generator state.

The race-correction fold is the one those loops used: a ``np.bincount``
segment sum seeded with the base, or ``np.add.at`` when the right-hand
side carries ``-0.0`` entries.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.perf import rhs_preserves_fold


def segment_sum_fold(base, ids, weights, *, base_ids=None):
    """``np.add.at(base, ids, weights)`` as one ``np.bincount`` segment sum."""
    flat = base.ravel()
    n = flat.shape[0]
    if base_ids is None:
        base_ids = np.arange(n, dtype=np.int64)
    out = np.bincount(
        np.concatenate([base_ids, ids]),
        weights=np.concatenate([flat, weights]),
        minlength=n,
    )
    return out.reshape(base.shape)


def reference_sweep(eng, x: np.ndarray) -> np.ndarray:
    """One disjoint-block sweep of *x* in place, advancing *eng*'s state."""
    cfg = eng.config
    rng = eng.rng
    view = eng.view
    ennz = np.array([blk.external.nnz for blk in view.blocks], dtype=np.int64)
    ext_rows = [blk.external._expanded_rows() for blk in view.blocks]
    scatter_base = [np.arange(blk.nrows, dtype=np.int64) for blk in view.blocks]
    local_c = [blk.local_off_compressed() for blk in view.blocks]
    b_blocks = [eng.b[blk.rows] for blk in view.blocks]
    rhs_ok = rhs_preserves_fold(eng.b)
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
            ext = blk.external.matvec(snapshot)
            e = blk.external
            fresh = rng.random(ennz[bid]) < g
            if fresh.any():
                cols = e.indices[fresh]
                delta = e.data[fresh] * (x[cols] - snapshot[cols])
                if rhs_ok:
                    ext = segment_sum_fold(
                        ext, ext_rows[bid][fresh], delta, base_ids=scatter_base[bid]
                    )
                else:
                    np.add.at(ext, ext_rows[bid][fresh], delta)
        s = b_blocks[bid] - ext

        frozen_local = frozen[bid] if frozen is not None else None
        defer = cfg.deferred_write_prob > 0.0 and rng.random() < cfg.deferred_write_prob
        z = x[rows]
        for _ in range(cfg.local_iterations):
            new = (s - local_c[bid].matvec(z)) / blk.diag
            if cfg.omega != 1.0:
                new = (1.0 - cfg.omega) * z + cfg.omega * new
            if frozen_local is not None and len(frozen_local):
                if eng.fault is not None and eng.fault.kind == "silent":
                    new[frozen_local] *= eng.fault.corruption
                else:
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


def ras_sweep(eng, x: np.ndarray) -> np.ndarray:
    """One async-RAS/wRAS sweep of *x* in place, advancing *eng*'s state."""
    cfg = eng.config
    view = eng.view
    b = eng.b
    rng = eng.rng
    blocks = view.ras_blocks()
    if cfg.schwarz == "wras":
        weights = view.partition.restriction_weights("wras")
        order, _ = eng.scheduler.plan_for_sweep(eng.sweep_index, rng)
        acc = np.zeros_like(x)
        for bid in order:
            blk = blocks[bid]
            ext = blk.external.matvec(x)
            s = b[blk.elo : blk.ehi] - ext
            z = x[blk.elo : blk.ehi]
            for _ in range(cfg.local_iterations):
                new = (s - blk.local_off.matvec(z)) / blk.diag
                if cfg.omega != 1.0:
                    new = (1.0 - cfg.omega) * z + cfg.omega * new
                z = new
            acc[blk.elo : blk.ehi] += weights[bid] * z
            eng.update_counts[bid] += 1
        x[:] = acc
        eng.sweep_index += 1
        return x

    ennz = np.array([blk.external.nnz for blk in blocks], dtype=np.int64)
    ext_rows = [blk.external._expanded_rows() for blk in blocks]
    scatter_base = [np.arange(blk.nrows, dtype=np.int64) for blk in blocks]
    rhs_ok = rhs_preserves_fold(b)
    order, gamma = eng.scheduler.plan_for_sweep(eng.sweep_index, rng)
    snapshot = x if np.all(gamma >= 1.0) else x.copy()
    draw_defer = cfg.deferred_write_prob > 0.0
    deferred: List[Tuple[slice, np.ndarray]] = []

    for pos, bid in enumerate(order):
        blk = blocks[bid]
        g = gamma[pos]
        if g <= 0.0:
            ext = blk.external.matvec(snapshot)
            read = snapshot
        elif g >= 1.0:
            ext = blk.external.matvec(x)
            read = x
        else:
            ext = blk.external.matvec(snapshot)
            e = blk.external
            fresh = rng.random(ennz[bid]) < g
            if fresh.any():
                cols = e.indices[fresh]
                delta = e.data[fresh] * (x[cols] - snapshot[cols])
                if rhs_ok:
                    ext = segment_sum_fold(
                        ext, ext_rows[bid][fresh], delta,
                        base_ids=scatter_base[bid],
                    )
                else:
                    np.add.at(ext, ext_rows[bid][fresh], delta)
            read = snapshot
        s = b[blk.elo : blk.ehi] - ext
        z = read[blk.elo : blk.ehi]
        for _ in range(cfg.local_iterations):
            new = (s - blk.local_off.matvec(z)) / blk.diag
            if cfg.omega != 1.0:
                new = (1.0 - cfg.omega) * z + cfg.omega * new
            z = new
        owned = z[blk.owned]
        if draw_defer and rng.random() < cfg.deferred_write_prob:
            deferred.append((slice(blk.start, blk.stop), owned))
        else:
            x[blk.start : blk.stop] = owned
        eng.update_counts[bid] += 1

    for rows, vals in deferred:
        x[rows] = vals
    eng.sweep_index += 1
    return x
