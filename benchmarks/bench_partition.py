"""Cost and benefit of the partition subsystem (:mod:`repro.partition`).

Two claims keep the refactor honest:

* **work balancing pays** — on Trefethen_2000, whose logarithmically
  varying row costs are the paper's §4.1 skew source, ``work_balanced``
  boundaries must cut the nnz imbalance *excess* (``max/mean − 1``, the
  skew above perfectly level thread blocks) by the gate below versus the
  equal-row ``uniform`` cut at the same block count;
* **the abstraction is free** — the default ``uniform`` partition routes
  every solve through :class:`repro.partition.Partition`, and that
  threading must cost < 2% per sweep against the pre-refactor flow
  (boundaries computed inline, view built from the raw array).  Both
  cells time view + engine construction *and* the sweeps, so partition
  construction is charged to the partitioned path.

Timings use min-of-repeats (the standard noise filter for sub-millisecond
cells), reported with each cell's spread (median over min).  A 2% bar
can only be read on a host whose noise is below 2%, so the overhead cells
carry an **A/A control**: the raw flow timed a second time, interleaved
with the A/B cells.  The host's noise floor is the largest of the A/A
difference and the three cells' spreads; the overhead gate is enforced
only when that floor is below the bar (``gate_enforced`` and
``noise_floor`` in the JSON), the way ``bench_shard`` arms its scaling
gate on core count.  Artifacts: ``benchmarks/artifacts/BENCH_partition.txt`` (rendered)
and ``BENCH_partition.json`` (machine-readable rows).  Runs standalone
(``python benchmarks/bench_partition.py``) or under pytest.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro.core import AsyncConfig
from repro.core.engine import AsyncEngine
from repro.matrices import default_rhs, get_matrix
from repro.partition import make_partition
from repro.runtime import StoppingCriterion
from repro.sparse import BlockRowView

#: Sweeps per timed run (tol=0 keeps the budget fully used).
SWEEPS = 60

#: Min-of-repeats noise filter (the uniform-overhead gate compares two
#: noise-dominated ~equal cells, so it gets a deeper filter than usual).
REPEATS = 7

#: The A5 ablation's Trefethen_2000 setup: 16 blocks of 125 rows.
BALANCE_NBLOCKS = 16

#: Fine decomposition where per-sweep Python overhead is most visible.
OVERHEAD_BLOCK_SIZE = 12

#: Hard gate: work_balanced must cut the imbalance excess this much.
MIN_IMBALANCE_REDUCTION = 1.5

#: Hard gate: uniform partition threading per sweep vs the raw-boundary
#: pre-refactor flow.
MAX_UNIFORM_OVERHEAD = 0.02


def _balance_row() -> dict:
    """Imbalance of uniform vs work_balanced cuts on Trefethen_2000."""
    T = get_matrix("Trefethen_2000")
    bs = T.shape[0] // BALANCE_NBLOCKS
    uniform = make_partition(T, f"uniform:{bs}")
    work = make_partition(T, f"work_balanced:{BALANCE_NBLOCKS}")
    ui = uniform.ensure_stats(T).imbalance
    wi = work.ensure_stats(T).imbalance
    return {
        "claim": "imbalance-reduction",
        "matrix": "Trefethen_2000",
        "nblocks": BALANCE_NBLOCKS,
        "uniform_imbalance": ui,
        "work_balanced_imbalance": wi,
        "excess_reduction": (ui - 1.0) / (wi - 1.0) if wi > 1.0 else float("inf"),
        "gate": MIN_IMBALANCE_REDUCTION,
    }


def _overhead_row() -> dict:
    """Per-sweep cost of the partition-threaded uniform path vs raw cuts."""
    A = get_matrix("fv1")
    b = default_rhs(A)
    n = A.shape[0]
    cfg = AsyncConfig(
        local_iterations=1, block_size=OVERHEAD_BLOCK_SIZE, order="gpu", seed=0
    )
    stopping = StoppingCriterion(tol=0.0, maxiter=SWEEPS)

    def run_raw():
        # The pre-refactor flow: grid cuts computed inline, view built
        # from the raw boundary array.
        cuts = np.concatenate(
            [np.arange(0, n, OVERHEAD_BLOCK_SIZE, dtype=np.int64), [n]]
        )
        view = BlockRowView(A, boundaries=cuts)
        AsyncEngine(view, b, cfg).run(stopping=stopping)

    def run_partitioned():
        part = make_partition(A, "uniform", block_size=OVERHEAD_BLOCK_SIZE)
        view = BlockRowView(A, partition=part)
        AsyncEngine(view, b, cfg).run(stopping=stopping)

    # Interleaved min-of-repeats, rotating the cell order each repeat so
    # no path systematically inherits the warmer caches.  "raw_control" is
    # the A/A cell: the raw flow again, so its difference from "raw" is
    # the noise floor of the comparison.
    cells = [("raw", run_raw), ("partitioned", run_partitioned), ("raw_control", run_raw)]
    times = {name: [] for name, _ in cells}
    for rep in range(REPEATS):
        shift = rep % len(cells)
        for name, fn in cells[shift:] + cells[:shift]:
            t0 = time.perf_counter()
            fn()
            times[name].append((time.perf_counter() - t0) / SWEEPS)
    best = {name: min(t) for name, t in times.items()}
    spread = {name: float(np.median(t)) / best[name] - 1.0 for name, t in times.items()}
    raw_s, part_s, control_s = best["raw"], best["partitioned"], best["raw_control"]
    aa = (control_s - raw_s) / raw_s
    # Identical code differs by |aa|; any one cell's readings vary by its
    # spread.  A bar below either cannot be read on this host.
    noise = max(abs(aa), *spread.values())
    return {
        "claim": "uniform-overhead",
        "matrix": "fv1",
        "block_size": OVERHEAD_BLOCK_SIZE,
        "sweeps": SWEEPS,
        "repeats": REPEATS,
        "raw_s_per_sweep": raw_s,
        "partitioned_s_per_sweep": part_s,
        "control_s_per_sweep": control_s,
        "spread": spread,
        "overhead": (part_s - raw_s) / raw_s,
        "aa_overhead": aa,
        "noise_floor": noise,
        "gate": MAX_UNIFORM_OVERHEAD,
        "gate_enforced": noise < MAX_UNIFORM_OVERHEAD,
    }


def run_benchmark() -> list:
    """Both cells; returns one result row per claim."""
    return [_balance_row(), _overhead_row()]


def render(rows: list) -> str:
    balance, overhead = rows
    return "\n".join(
        [
            "Partition subsystem — balance benefit and threading cost",
            "",
            f"Trefethen_2000, {balance['nblocks']} blocks:",
            f"  uniform        imbalance (max/mean nnz) {balance['uniform_imbalance']:.5f}",
            f"  work_balanced  imbalance (max/mean nnz) {balance['work_balanced_imbalance']:.5f}",
            f"  imbalance-excess reduction {balance['excess_reduction']:.2f}x"
            f"  (gate >= {balance['gate']:.2f}x)",
            "",
            f"fv1, block size {overhead['block_size']}, {SWEEPS} sweeps, "
            f"min of {REPEATS} repeats (construction + sweeps), spread = median/min - 1:",
            f"  raw boundaries     {overhead['raw_s_per_sweep'] * 1e3:8.3f} ms/sweep"
            f"  spread {overhead['spread']['raw'] * 100:5.1f}%",
            f"  uniform partition  {overhead['partitioned_s_per_sweep'] * 1e3:8.3f} ms/sweep"
            f"  spread {overhead['spread']['partitioned'] * 100:5.1f}%",
            f"  raw again (A/A)    {overhead['control_s_per_sweep'] * 1e3:8.3f} ms/sweep"
            f"  spread {overhead['spread']['raw_control'] * 100:5.1f}%",
            f"  overhead {overhead['overhead'] * 100:+.3f}%"
            f"  (gate < {overhead['gate'] * 100:.0f}%)",
            f"  A/A control {overhead['aa_overhead'] * 100:+.3f}%,"
            f" noise floor {overhead['noise_floor'] * 100:.2f}%: gate "
            + (
                "ARMED"
                if overhead["gate_enforced"]
                else f"not armed (host noise is above {overhead['gate'] * 100:.0f}%)"
            ),
        ]
    )


def _write_artifacts(text: str, rows: list) -> Path:
    outdir = Path(__file__).parent / "artifacts"
    outdir.mkdir(exist_ok=True)
    path = outdir / "BENCH_partition.txt"
    path.write_text(text + "\n")
    (outdir / "BENCH_partition.json").write_text(json.dumps(rows, indent=2) + "\n")
    return path


def _check(rows: list) -> None:
    balance, overhead = rows
    assert balance["excess_reduction"] >= MIN_IMBALANCE_REDUCTION, (
        f"work_balanced only cuts the imbalance excess "
        f"{balance['excess_reduction']:.2f}x "
        f"(gate {MIN_IMBALANCE_REDUCTION:.2f}x):\n" + render(rows)
    )
    assert not overhead["gate_enforced"] or overhead["overhead"] < MAX_UNIFORM_OVERHEAD, (
        f"uniform partition threading costs {overhead['overhead'] * 100:.3f}% "
        f"per sweep (gate {MAX_UNIFORM_OVERHEAD * 100:.0f}%):\n" + render(rows)
    )


def test_partition_benchmark():
    rows = run_benchmark()
    _write_artifacts(render(rows), rows)
    _check(rows)


if __name__ == "__main__":
    rows = run_benchmark()
    text = render(rows)
    print(text)
    print(f"\nwrote {_write_artifacts(text, rows)}")
    try:
        _check(rows)
    except AssertionError as exc:
        print(f"FAIL: {exc}")
        raise SystemExit(1)
    raise SystemExit(0)
