"""Provenance of a result and the computed kernel counts of each system."""

from __future__ import annotations

import os
import platform
import time
from pathlib import Path
from typing import Dict, Optional

import numpy as np

#: Bytes of one float64 iterate/right-hand-side element.
F8 = 8


class HostSpeed:
    """A fixed reference kernel, timed between measurements to track host speed.

    Shared 2-vCPU hosts switch between speed states for minutes at a time:
    on the host this was written on, this kernel and a ``paper_default``
    pass both run about 1.5x slower in the slow state, and the two
    correlate at r = 0.78 pass by pass.  A run reports each timed
    interval at the nominal speed: ``seconds * NOMINAL_S / reference``,
    where the reference is the mean of this kernel's times measured just
    before and just after the interval.  The kernel uses numpy and the interpreter the way the solver
    package does (gathers, segment sums, a Python loop), on arrays
    generated here, so no change to the package can change it.
    """

    #: Kernel time that defines the nominal speed (typical on the host above).
    NOMINAL_S = 0.020
    REPEATS = 9

    def __init__(self) -> None:
        rng = np.random.default_rng(12345)
        n, nnz = 20000, 200000
        self._cols = rng.integers(0, n, nnz)
        self._vals = rng.random(nnz)
        self._starts = np.arange(0, nnz, 10)
        self._x = rng.random(n)

    def _once(self) -> float:
        cols, vals, starts, x = self._cols, self._vals, self._starts, self._x
        t0 = time.perf_counter()
        for _ in range(10):
            np.add.reduceat(vals * x[cols], starts)
        acc = 0
        for i in range(100000):
            acc += i
        for _ in range(300):
            np.add.reduceat(vals[:1000] * x[cols[:1000]], starts[:100])
        return time.perf_counter() - t0

    def measure(self) -> float:
        """Median kernel time over a few repeats, in seconds."""
        return sorted(self._once() for _ in range(self.REPEATS))[self.REPEATS // 2]

    def factor(self, before: float, after: float) -> float:
        """Multiplier taking seconds measured between two kernel timings to nominal speed."""
        return self.NOMINAL_S / (0.5 * (before + after))


def nproc() -> int:
    """CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


def commit(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _parse_size(text: str) -> int:
    text = text.strip().upper()
    for suffix, scale in (("K", 1 << 10), ("M", 1 << 20), ("G", 1 << 30)):
        if text.endswith(suffix):
            return int(text[:-1]) * scale
    return int(text)


def cache_sizes() -> Dict[str, int]:
    """Unified/data cache sizes in bytes by level (``{"L2": ..., "L3": ...}``)."""
    out: Dict[str, int] = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            if (index / "type").read_text().strip() == "Instruction":
                continue
            level = "L" + (index / "level").read_text().strip()
            out[level] = _parse_size((index / "size").read_text())
        except (OSError, ValueError):
            continue
    return out


def last_level_cache() -> Optional[int]:
    sizes = cache_sizes()
    return sizes[max(sizes)] if sizes else None


def provenance(root: Path, workload: str, seed: int) -> Dict[str, object]:
    import scipy

    caches = cache_sizes()
    return {
        "commit": commit(root),
        "workload": workload,
        "seed": seed,
        "nproc": nproc(),
        "cpu_model": cpu_model(),
        "l2_bytes": caches.get("L2"),
        "l3_bytes": caches.get("L3"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def csr_bytes(A) -> int:
    """Bytes of a CSR matrix's three arrays."""
    return int(A.data.nbytes + A.indices.nbytes + A.indptr.nbytes)


def kernel_counts(name: str, A, view, k: int, precond_sweeps: int = 0) -> Dict[str, object]:
    """Computed flops and bytes moved per async sweep and per CG iteration.

    Labelled "computed": each stored entry is read once per use (value,
    column index and the gathered iterate element), each vector element
    once per pass, and cache reuse is ignored.  The sweep is Eq. (4):
    one external product per block, then *k* local Jacobi passes; the
    residual ``||b - A x||`` the run loop evaluates after each sweep is
    counted separately.  The CG iteration counts one ``A p``, two dot
    products, three vector updates, the run loop's residual and
    *precond_sweeps* snapshot sweeps (k = 1) of the preconditioner.
    """
    n, nnz = A.shape[0], A.nnz
    entry = A.data.itemsize + A.indices.itemsize + F8
    ext = sum(blk.external.nnz for blk in view.blocks)
    loc = sum(blk.local_off.nnz for blk in view.blocks)
    sweep_flops = 2 * ext + n + k * (2 * loc + 2 * n)
    sweep_bytes = entry * (ext + k * loc) + 2 * F8 * n + k * 3 * F8 * n
    res_flops = 2 * nnz + 3 * n
    res_bytes = entry * nnz + 3 * F8 * n
    snap_flops = 2 * ext + n + 2 * loc + 2 * n
    snap_bytes = entry * (ext + loc) + 5 * F8 * n
    cg_flops = 2 * nnz + 4 * n + 6 * n + res_flops + precond_sweeps * snap_flops
    cg_bytes = entry * nnz + 2 * F8 * n + 4 * F8 * n + 9 * F8 * n + res_bytes
    cg_bytes += precond_sweeps * snap_bytes
    working_set = csr_bytes(A) + 4 * F8 * n
    llc = last_level_cache()
    return {
        "label": "computed",
        "system": name,
        "n": n,
        "nnz": nnz,
        "nblocks": view.nblocks,
        "k": k,
        "sweep_flops": sweep_flops,
        "sweep_bytes": sweep_bytes,
        "residual_flops": res_flops,
        "residual_bytes": res_bytes,
        "cg_iteration_flops": cg_flops,
        "cg_iteration_bytes": cg_bytes,
        "working_set_bytes": working_set,
        "llc_bytes": llc,
        "cache_resident": llc is not None and working_set < llc,
    }
