"""The traced run: one pass of every workload with a span per layer call.

Whatever ``--workload`` names, the traced run covers the whole stack, so
every per-layer metric is measured in every traced run and keeps one
meaning.  Each workload is run once with tracing off and once traced on
the same inputs; the traced results must be bitwise the untraced ones,
and the difference of the two pass times is the tracing overhead.
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

import numpy as np

import oracle
from host import HostSpeed
from metrics import median, metric, percentile
from proxies import TracedCSR
from spans import Tracer
from workloads import KrylovSnapshot, PaperDefault, ServeMix

#: Layers (modules under ``src/repro``) that spans are attributed to.
LAYERS = ("matrices", "partition", "sparse", "perf", "core", "runtime", "solvers", "krylov", "serve")

#: Serve waves per traced run (each run once untraced and once traced).
SERVE_WAVES = {"full": 3, "tiny": 2}

#: Calls per block for the single-block product probe.
BLOCK_MATVEC_CALLS = 200


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def _same(ledger: oracle.Ledger, label: str, a, b) -> None:
    same = oracle.bitwise_equal(a.x, b.x) and oracle.bitwise_equal(a.residuals, b.residuals)
    ledger.check(same, f"{label}: traced result differs from the untraced one")


def trace_paper_default(tr, wl: PaperDefault, ledger) -> Tuple[float, float]:
    wl.setup(tr)
    refs, untraced = _timed(wl.solve_all)
    t0 = time.perf_counter()
    for item, ref in zip(wl.items, refs):
        x, history = wl.drive(tr, item)
        label = f"traced {item['name']}"
        why = oracle.solve_ok(item["A"], item["b"], ref, item["tol"])
        ledger.check(why is None, f"{label}: {why}")
        same = oracle.bitwise_equal(np.array(history), ref.residuals) and oracle.bitwise_equal(x, ref.x)
        ledger.check(same, f"{label}: driven residual history differs from BlockAsyncSolver.solve")
    traced = time.perf_counter() - t0
    for item in wl.items:  # per-call cost of the reference executor's unit of work
        blk = item["view"].blocks[item["view"].nblocks // 2]
        local = blk.local_off_compressed()
        xs = np.ones(blk.nrows)
        for _ in range(BLOCK_MATVEC_CALLS):
            with tr.span("sparse.block_matvec"):
                local.matvec(xs)
    return traced, untraced


def trace_krylov(tr, wl: KrylovSnapshot, ledger) -> Tuple[float, float, int]:
    wl.setup(tr)
    refs, untraced = _timed(wl.solve_all)
    results, traced = _timed(lambda: wl.solve_all(tr=tr))
    for item, ref, res in zip(wl.items, refs, results):
        label = f"traced {item['name']}"
        why = oracle.solve_ok(item["A"], item["b"], res, item["tol"])
        ledger.check(why is None, f"{label}: {why}")
        _same(ledger, label, res, ref)
    return traced, untraced, sum(r.iterations for r in results)


def trace_serve(tr, wl: ServeMix, ledger, waves: int) -> Tuple[float, float, Dict[str, float]]:
    wl.setup(tr)
    plain = wl.new_service()
    traced_service = wl.new_service(tr)
    hot_traced = {name: TracedCSR.wrap(A, tr) for name, A in wl.mats.items()}
    untraced = traced = 0.0
    queue_waits: List[float] = []
    requests = 0
    for w in range(waves):
        jobs = wl.wave_jobs(w)
        cold: Dict = {}
        ref_reqs = [wl.request(job, wl.matrix_of(job, cold)) for job in jobs]
        got_ref, seconds, _ = wl.stream(plain, ref_reqs)
        untraced += seconds
        reqs = [
            wl.request(job, hot_traced[job.matrix] if job.scale == 1.0 else TracedCSR.wrap(wl.matrix_of(job, cold), tr))
            for job in jobs
        ]
        got, seconds, _ = wl.stream(traced_service, reqs, tr)
        traced += seconds
        for job, ref_req, req in zip(jobs, ref_reqs, reqs):
            resp, ref = got[req.request_id][0], got_ref[ref_req.request_id][0]
            label = f"traced wave {w} {job.key}"
            if not (resp.completed and ref.completed):
                ledger.check(False, f"{label}: {resp.status}/{ref.status}")
                continue
            why = oracle.solve_ok(ref_req.A, job.b, resp.result, wl.tol)
            ledger.check(why is None, f"{label}: {why}")
            _same(ledger, label, resp.result, ref.result)
            queue_waits.append(resp.queue_seconds)
        requests += len(jobs)
    batches = tr.count("serve.pump")
    cache = traced_service.cache
    extra = {
        "queue_wait_s": median(queue_waits),
        "mean_batch_size": requests / batches,
        "cache_hit_rate": cache.hits / (cache.hits + cache.misses),
    }
    return traced, untraced, extra


def run_traced(scale: str, seed: int, ledger: oracle.Ledger):
    """Every workload traced; returns (metrics, report, tracer)."""
    tr = Tracer()
    speed = HostSpeed()
    ref_before = speed.measure()
    overhead: Dict[str, Tuple[float, float]] = {}
    pd = PaperDefault(scale, seed, ledger)
    t, u = trace_paper_default(tr, pd, ledger)
    overhead[pd.name] = (t, u)
    kw = KrylovSnapshot(scale, seed, ledger)
    t, u, krylov_iters = trace_krylov(tr, kw, ledger)
    overhead[kw.name] = (t, u)
    sm = ServeMix(scale, seed, ledger)
    t, u, serve = trace_serve(tr, sm, ledger, SERVE_WAVES[scale])
    overhead[sm.name] = (t, u)

    ref_after = speed.measure()

    def med(name: str, scale_to: float = 1.0) -> float:
        samples = tr.durations(name)
        if not samples:
            raise RuntimeError(f"no {name!r} spans were recorded")
        return median(samples) * scale_to

    m = {
        "matrices.build_s": metric(med("matrices.build"), "s"),
        "partition.make_s": metric(med("partition.make"), "s"),
        "sparse.view_s": metric(med("sparse.view"), "s"),
        "perf.plan_compile_s": metric(med("perf.plan_compile"), "s"),
        "core.engine_init_s": metric(med("core.engine_init"), "s"),
        "sparse.block_matvec_us": metric(med("sparse.block_matvec", 1e6), "us"),
        "sparse.matvec_ms": metric(med("sparse.matvec", 1e3), "ms"),
        "core.sweep_ms": metric(med("core.sweep", 1e3), "ms"),
        "core.sweeps": metric(tr.count("core.sweep"), "count"),
        "runtime.residual_ms": metric(med("runtime.residual", 1e3), "ms"),
        "runtime.residual_calls": metric(tr.count("runtime.residual"), "count"),
        "solvers.tau_estimate_s": metric(med("solvers.tau_estimate"), "s"),
        "krylov.precond_build_s": metric(med("krylov.precond_build"), "s"),
        "krylov.precond_apply_ms": metric(med("krylov.precond_apply", 1e3), "ms"),
        "krylov.iterations": metric(krylov_iters, "count"),
        "serve.submit_us": metric(med("serve.submit", 1e6), "us"),
        "serve.drain_s": metric(med("serve.drain"), "s"),
        "serve.batch_solve_s": metric(med("serve.pump"), "s"),
        "serve.queue_wait_s": metric(serve["queue_wait_s"], "s"),
        "serve.mean_batch_size": metric(serve["mean_batch_size"], "requests"),
        "serve.cache_hit_rate": metric(serve["cache_hit_rate"], "ratio"),
        "serve.compile_s": metric(med("serve.compile"), "s"),
        "trace.overhead_s": metric(sum(t - u for t, u in overhead.values()), "s"),
    }
    self_times = tr.self_times()
    for layer in LAYERS:
        m[f"self.{layer}_s"] = metric(self_times.get(layer, 0.0), "s")

    names = sorted({s.name for s in tr.spans})
    table = []
    for name in names:
        d = tr.durations(name)
        p90 = percentile(d, 90)
        table.append({"span": name, "calls": len(d), "median_s": median(d), "p90_s": p90, "total_s": sum(d)})
    report = {
        "spans": table,
        "self_time_s": self_times,
        "overhead_s": {k: {"traced_s": t, "untraced_s": u, "overhead_s": t - u} for k, (t, u) in overhead.items()},
        "serve_waves": SERVE_WAVES[scale],
        "reference_kernel_s": [ref_before, ref_after],
    }
    return m, report, tr
