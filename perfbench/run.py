"""End-to-end benchmark of the async-(k) solver stack.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper_default --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the workload's end-to-end metrics with tracing off;
``--trace 1`` runs the traced per-layer breakdown of the whole stack (see
``traced.py``).  The last line of standard output is the JSON result; the
lines before it are a readable report, and the full record (provenance,
computed kernel counts, spans) is written under ``perfbench/out/``.  The
exit status is non-zero when any oracle check failed, after every metric
has been printed.
"""

from __future__ import annotations

import os
import sys

# One BLAS thread, set before numpy loads.  The workloads run in one
# process; with a second BLAS thread their vector products also depend on
# whatever else the shared host runs on the other CPU, which the host-speed
# reference (host.HostSpeed, single-threaded) cannot see.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: An untraced run keeps going past ``--seconds`` until this much wall time
#: only if it still lacks the samples its percentiles need.
HARD_CAP_S = 120.0

WORKLOAD_NAMES = ("paper_default", "krylov_snapshot", "serve_mix")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument(
        "--scale",
        default="full",
        choices=("full", "tiny"),
        help="tiny: small systems and loose tolerances, for the benchmark's own smoke test",
    )
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def import_package() -> None:
    """Put this checkout's ``src`` first on the path and insist the package comes from it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no solver package at {SRC / 'repro'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not from {SRC}")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(wl, seconds: float, ledger):
    """Set up, then time passes; every time is scaled to nominal host speed (``host.HostSpeed``)."""
    from host import HostSpeed
    from metrics import median, metric, min_samples_for, percentile

    speed = HostSpeed()
    refs = [speed.measure()]
    setups = []
    for _ in range(wl.setup_repeats):
        t0 = time.perf_counter()
        wl.setup()
        setups.append(time.perf_counter() - t0)
    refs.append(speed.measure())
    setup_factor = speed.factor(refs[0], refs[1])

    passes, walls = [], []
    need = min_samples_for(90)
    start = time.perf_counter()
    while True:
        try:
            p = wl.run_pass(len(walls))
        except Exception:  # a raising solve is a failed operation; stop measuring
            ledger.check(False, f"pass {len(walls)} raised:\n{traceback.format_exc()}")
            break
        refs.append(speed.measure())
        f = speed.factor(refs[-2], refs[-1])
        walls.append(p.seconds)
        passes.append(replace(p, seconds=p.seconds * f, latencies=[s * f for s in p.latencies]))
        elapsed = time.perf_counter() - start
        nlat = sum(len(p.latencies) for p in passes)
        if elapsed >= seconds and nlat >= need and len(passes) >= 2:
            break
        if elapsed >= HARD_CAP_S:
            break
    peak = peak_rss_mb()
    extra = wl.finish() if passes else {}

    latencies = [s for p in passes for s in p.latencies]
    busy = sum(p.seconds for p in passes)
    p50, p90 = percentile(latencies, 50), percentile(latencies, 90)
    if p90 is None:
        ledger.check(False, f"only {len(latencies)} latency samples; the p90 needs {need}")
    m = {"setup_s": metric(median(setups) * setup_factor, "s")}
    if passes:
        m.update(
            {
                "solve_s": metric(median([p.seconds for p in passes]), "s"),
                "iterations": metric(median([p.iterations for p in passes]), "count"),
                "requests_per_s": metric(sum(p.requests for p in passes) / busy, "1/s"),
            }
        )
    if p50 is not None and p90 is not None:
        m["latency_p50_s"] = metric(p50, "s")
        m["latency_p90_s"] = metric(p90, "s")
    m["peak_rss_mb"] = metric(peak, "MB")
    report = {
        "reference_kernel_s": refs,
        "setup_wall_s": setups,
        "pass_wall_s": walls,
        "pass_iterations": [p.iterations for p in passes],
        "requests": sum(p.requests for p in passes),
        "latency_samples": len(latencies),
        "kernel_counts": wl.counts() if passes else [],
        **extra,
    }
    return m, report


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    import_package()
    sys.path.insert(0, str(HERE))
    import host
    import oracle

    ledger = oracle.Ledger()
    prov = host.provenance(ROOT, args.workload, args.seed)
    if args.trace:
        from traced import run_traced

        metrics, report, tracer = run_traced(args.scale, args.seed, ledger)
    else:
        from workloads import WORKLOADS

        wl = WORKLOADS[args.workload](args.scale, args.seed, ledger)
        metrics, report = run_untraced(wl, args.seconds, ledger)
        tracer = None

    error_rate = ledger.error_rate
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    record = {
        "provenance": prov,
        "scale": args.scale,
        "trace": args.trace,
        "metrics": metrics,
        "error_rate": error_rate,
        "attempted": ledger.attempted,
        "failures": ledger.failures,
        "report": report,
    }
    if tracer is not None:
        record.update(tracer.to_dict())
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1, default=str) + "\n")

    print(f"# provenance {json.dumps(prov)}")
    for counts in report.get("kernel_counts", []):
        print(f"# kernel counts (computed) {json.dumps(counts)}")
    for row in report.get("spans", []):
        p90 = "-" if row["p90_s"] is None else f"{row['p90_s']:.6g}"
        print(f"# span {row['span']:<26} calls {row['calls']:>6}  median_s {row['median_s']:.6g}  p90_s {p90}")
    for layer, s in sorted(report.get("self_time_s", {}).items()):
        print(f"# self time {layer:<10} {s:.6g} s")
    for name, m in metrics.items():
        print(f"# {name:<24} {m['value']:.6g} {m['unit']}")
    print(f"# {'error_rate':<24} {error_rate:.6g} ratio ({ledger.failed} of {ledger.attempted} failed)")
    if "latency_samples" in report:
        print(f"# latency samples {report['latency_samples']}")
    for failure in ledger.failures:
        print(f"# FAILED {failure}")
    print(f"# full record: {out_file.relative_to(ROOT)}")
    correct = ledger.failed == 0
    print(
        json.dumps(
            {"correct": correct, "attempted": ledger.attempted, "failed": ledger.failed, "metrics": metrics}
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
