"""The workloads: their inputs, set-up, timed passes and oracle checks.

Each workload builds its inputs from the workload seed on the benchmark
side and hands the solver package nothing else.  ``setup`` is what a user
pays before the first sweep; ``run_pass`` is one timed pass over the
workload's solve list through the public front end, with tracing off.
The traced run (``traced.py``) reuses the same pieces with a real
``Tracer`` and the proxies of ``proxies.py``.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core import AsyncConfig, BlockAsyncSolver
from repro.core.engine import AsyncEngine
from repro.experiments.runner import paper_async_config
from repro.krylov import AsyncSweepPreconditioner, make_outer_solver
from repro.matrices import default_rhs, get_matrix
from repro.partition import make_partition
from repro.perf import compile_sweep_plan
from repro.runtime import RunRecorder
from repro.serve import SolveRequest, SolveService
from repro.solvers import ConjugateGradientSolver, StoppingCriterion
from repro.solvers.scaling import estimate_tau
from repro.sparse import BlockRowView, CSRMatrix

import host
import oracle
from spans import Tracer
from proxies import NULL, TracedCSR, TracedPlanCache, TracedPreconditioner

#: Local iterations of the paper's default async-(k) configuration.
K = 5
#: Sweep budget of every async solve (all suite systems converge far below it).
MAXITER = 2000


@dataclass
class PassResult:
    seconds: float
    iterations: int
    requests: int
    latencies: List[float] = field(default_factory=list)


def sweep_latencies(rec: RunRecorder) -> List[float]:
    """Per-outer-iteration wall times of every run on *rec*."""
    return [s for run in rec.runs for s in run.sweep_seconds]


def suite_system(tr, name: str) -> Tuple[CSRMatrix, np.ndarray]:
    """A freshly generated suite matrix and the package's default right-hand side."""
    with tr.span("matrices.build"):
        A = get_matrix(name, cache=False)
        b = default_rhs(A)
    return A, b


class Workload:
    name = ""
    #: Set-ups per untraced run; ``setup_s`` is their median.
    setup_repeats = 15

    def __init__(self, scale: str, seed: int, ledger: oracle.Ledger):
        self.scale = scale
        self.seed = seed
        self.ledger = ledger
        self.rng = np.random.default_rng(seed)

    def setup(self, tr=NULL) -> None:
        raise NotImplementedError

    def run_pass(self, index: int) -> PassResult:
        raise NotImplementedError

    def finish(self) -> Dict[str, object]:
        """Checks that need the whole run; returns extra report fields."""
        return {}

    def counts(self) -> List[Dict[str, object]]:
        raise NotImplementedError

    def _check_solve(self, label: str, A, b, result, tol: float) -> None:
        why = oracle.solve_ok(A, b, result, tol)
        self.ledger.check(why is None, f"{label}: {why}")


# --------------------------------------------------------------------------- #


class PaperDefault(Workload):
    """``BlockAsyncSolver(paper_async_config(5))`` — the path ``repro solve`` takes."""

    name = "paper_default"
    SYSTEMS = {
        "full": (("fv1", 1e-10), ("fv2", 1e-10), ("Trefethen_2000", 1e-10), ("Chem97ZtZ", 1e-10)),
        "tiny": (("Chem97ZtZ", 1e-8), ("Trefethen_2000", 1e-8)),
    }

    def __init__(self, scale, seed, ledger):
        super().__init__(scale, seed, ledger)
        self.systems = self.SYSTEMS[scale]
        # The seed picks each solve's schedule seed; iteration counts barely
        # depend on it (194-196 sweeps per pass over the four systems).
        self.configs = [
            paper_async_config(K, seed=int(self.rng.integers(2**31))) for _ in self.systems
        ]
        self.items: List[dict] = []
        self.first: Optional[List] = None

    def setup(self, tr=NULL) -> None:
        self.items = []
        for (name, tol), cfg in zip(self.systems, self.configs):
            A, b = suite_system(tr, name)
            stop = StoppingCriterion(tol=tol, maxiter=MAXITER)
            item = dict(name=name, tol=tol, A=A, b=b, cfg=cfg, stop=stop)
            self.build(tr, item)
            self.items.append(item)

    @staticmethod
    def build(tr, item: dict) -> None:
        """What ``BlockAsyncSolver.solve`` builds before its first sweep."""
        A, cfg = item["A"], item["cfg"]
        with tr.span("partition.make"):
            part = make_partition(A, cfg.partition, block_size=cfg.block_size)
        with tr.span("sparse.view"):
            item["view"] = BlockRowView(A, partition=part)
        with tr.span("perf.plan_compile"):
            compile_sweep_plan(item["view"])
        with tr.span("core.engine_init"):
            item["engine"] = AsyncEngine(item["view"], item["b"], cfg)

    def solve_all(self, rec: Optional[RunRecorder] = None) -> List:
        return [
            BlockAsyncSolver(it["cfg"], stopping=it["stop"], recorder=rec).solve(it["A"], it["b"])
            for it in self.items
        ]

    def run_pass(self, index: int) -> PassResult:
        rec = RunRecorder()
        t0 = time.perf_counter()
        results = self.solve_all(rec)
        seconds = time.perf_counter() - t0
        for it, res in zip(self.items, results):
            self._check_solve(f"pass {index} {it['name']}", it["A"], it["b"], res, it["tol"])
        if self.first is None:
            self.first = [r.x for r in results]
        else:  # identical seeds and inputs: every pass repeats the first bitwise
            for it, x0, res in zip(self.items, self.first, results):
                self.ledger.check(
                    oracle.bitwise_equal(x0, res.x), f"pass {index} {it['name']}: not bitwise repeatable"
                )
        return PassResult(
            seconds=seconds,
            iterations=sum(r.iterations for r in results),
            requests=len(results),
            latencies=sweep_latencies(rec),
        )

    def drive(self, tr: Tracer, item: dict) -> Tuple[np.ndarray, List[float]]:
        """``BlockAsyncSolver.solve`` driven from here: set-up spans, then one per sweep and residual."""
        self.build(tr, item)
        A, b, stop, engine = item["A"], item["b"], item["stop"], item["engine"]
        x = np.zeros(A.shape[0])
        threshold = stop.threshold(float(np.linalg.norm(b)))
        with tr.span("runtime.residual"):
            res = float(np.linalg.norm(A.residual(x, b)))
        history = [res]
        converged = res <= threshold
        it = 0
        while not converged and it < stop.maxiter:
            with tr.span("core.sweep"):
                nx = engine.sweep(x)
            if nx is not None:
                x = nx
            it += 1
            with tr.span("runtime.residual"):
                res = float(np.linalg.norm(A.residual(x, b)))
            history.append(res)
            if res <= threshold:
                converged = True
            elif stop.diverged(res):
                break
        return x, history

    def counts(self):
        return [host.kernel_counts(it["name"], it["A"], it["view"], K) for it in self.items]


# --------------------------------------------------------------------------- #


class KrylovSnapshot(Workload):
    """CG with the snapshot ``AsyncSweepPreconditioner``, built as ``bench_precond`` builds it."""

    name = "krylov_snapshot"
    setup_repeats = 3  # each set-up takes ~3 s (Lanczos τ estimates)
    SYSTEMS = {
        "full": (("s1rmt3m1", 1e-6), ("lap3d7pt_32", 1e-10)),
        "tiny": (("Trefethen_2000", 1e-8),),
    }
    SWEEPS = 2
    BLOCK_SIZE = 256
    MAXITER = 30000

    def __init__(self, scale, seed, ledger):
        super().__init__(scale, seed, ledger)
        # Inputs are the default right-hand sides for every seed: a random
        # right-hand side moves s1rmt3m1's PCG count between ~550 and ~840
        # iterations, which would turn solve_s's spread into an input effect.
        self.systems = self.SYSTEMS[scale]
        self.items: List[dict] = []

    def setup(self, tr=NULL) -> None:
        self.items = []
        for name, tol in self.systems:
            A, b = suite_system(tr, name)
            with tr.span("solvers.tau_estimate"):
                ts = estimate_tau(A)
            lo, hi = 0.9 * ts.lambda_min, 1.05 * ts.lambda_max
            cfg = AsyncConfig(
                local_iterations=1, block_size=self.BLOCK_SIZE, order="synchronous", omega=2.0 / (lo + hi)
            )
            with tr.span("krylov.precond_build"):
                P = AsyncSweepPreconditioner(A, sweeps=self.SWEEPS, config=cfg, symmetrize=False)
            stop = StoppingCriterion(tol=tol, maxiter=self.MAXITER)
            self.items.append(dict(name=name, tol=tol, A=A, b=b, P=P, stop=stop))

    def solve_all(self, rec: Optional[RunRecorder] = None, tr: Optional[Tracer] = None) -> List:
        out = []
        for it in self.items:
            A, P = it["A"], it["P"]
            if tr is not None:
                A, P = TracedCSR.wrap(A, tr), TracedPreconditioner(P, tr)
            solver = ConjugateGradientSolver(preconditioner=P, stopping=it["stop"], recorder=rec)
            if tr is None:
                out.append(solver.solve(A, it["b"]))
            else:
                with tr.span("solvers.cg_solve"):
                    out.append(solver.solve(A, it["b"]))
        return out

    def run_pass(self, index: int) -> PassResult:
        rec = RunRecorder()
        t0 = time.perf_counter()
        results = self.solve_all(rec)
        seconds = time.perf_counter() - t0
        for it, res in zip(self.items, results):
            self._check_solve(f"pass {index} {it['name']}", it["A"], it["b"], res, it["tol"])
        return PassResult(
            seconds=seconds,
            iterations=sum(r.iterations for r in results),
            requests=len(results),
            latencies=sweep_latencies(rec),
        )

    def counts(self):
        return [
            host.kernel_counts(it["name"], it["A"], it["P"].view, 1, precond_sweeps=self.SWEEPS)
            for it in self.items
        ]


# --------------------------------------------------------------------------- #


@dataclass
class Job:
    """One generated request: which matrix, its right-hand side and routing."""

    key: Tuple
    matrix: str
    b: np.ndarray
    seed: int
    method: str = "async"
    scale: float = 1.0  # value scaling of a cold-tail copy (1.0 = the hot matrix)


class ServeMix(Workload):
    """One closed-loop client submitting waves to ``SolveService`` and draining each."""

    name = "serve_mix"
    HOT = {"full": ("fv1", "Trefethen_2000", "Chem97ZtZ"), "tiny": ("Chem97ZtZ", "Trefethen_2000")}
    PER_HOT = {"full": 8, "tiny": 4}
    TOL = {"full": 1e-10, "tiny": 1e-8}

    def __init__(self, scale, seed, ledger):
        super().__init__(scale, seed, ledger)
        self.hot = self.HOT[scale]
        self.per_hot = self.PER_HOT[scale]
        self.tol = self.TOL[scale]
        self.config = paper_async_config(K)
        self.stopping = StoppingCriterion(tol=self.tol, maxiter=MAXITER)
        self.mats: Dict[str, CSRMatrix] = {}
        self.samples: Dict[Tuple, Tuple[Job, CSRMatrix, object]] = {}

    def setup(self, tr=NULL) -> None:
        self.mats = {}
        for name in self.hot:
            with tr.span("matrices.build"):
                self.mats[name] = get_matrix(name, cache=False)
        with tr.span("serve.service_init"):
            self.service = self.new_service()

    def new_service(self, tr: Optional[Tracer] = None) -> SolveService:
        service = SolveService(config=self.config, stopping=self.stopping)
        if tr is not None:
            service.cache = TracedPlanCache(service.cache, tr)
        return service

    def wave_jobs(self, wave: int) -> List[Job]:
        """The requests of one wave, from the seed and the wave number alone.

        Hot requests interleave the hot matrices; then, per hot matrix, one
        cold-tail request on a value-scaled copy of it and one pcg request.
        Every wave does the same kind of work; only the values differ.
        """
        rng = np.random.default_rng([self.seed, wave])
        jobs: List[Job] = []
        for _ in range(self.per_hot):
            for name in self.hot:
                jobs.append(self._job(rng, ("hot", name), name))
        for name in self.hot:
            scale = 1.0 + float(rng.uniform(1e-3, 1e-2))
            jobs.append(self._job(rng, ("cold", wave, name), name, scale=scale))
        for name in self.hot:
            jobs.append(self._job(rng, ("pcg", name), name, method="pcg"))
        return jobs

    def _job(self, rng, key, name, *, scale=1.0, method="async") -> Job:
        A = self.mats[name]
        z = rng.standard_normal(A.shape[0])
        b = scale * (oracle.scipy_matrix(A) @ z)
        return Job(key=key, matrix=name, b=b, seed=int(rng.integers(2**31)), method=method, scale=scale)

    def matrix_of(self, job: Job, cold: Dict[Tuple, CSRMatrix]) -> CSRMatrix:
        if job.scale == 1.0:
            return self.mats[job.matrix]
        if job.key not in cold:
            A = self.mats[job.matrix]
            cold[job.key] = CSRMatrix(A.indptr.copy(), A.indices.copy(), A.data * job.scale, A.shape)
        return cold[job.key]

    def request(self, job: Job, A: CSRMatrix) -> SolveRequest:
        if job.method == "pcg":
            return SolveRequest(A=A, b=job.b, seed=job.seed, method="pcg", precond="async:2")
        return SolveRequest(A=A, b=job.b, seed=job.seed)

    def stream(self, service: SolveService, requests: List[SolveRequest], tr=NULL):
        """Submit one wave, then pump to empty; latency is submit → the pump that returned it."""
        sent: Dict[str, float] = {}
        got: Dict[str, Tuple[object, float]] = {}
        t0 = time.perf_counter()
        for req in requests:
            sent[req.request_id] = time.perf_counter()
            with tr.span("serve.submit"):
                rejected = service.submit(req)
            if rejected is not None:
                got[req.request_id] = (rejected, time.perf_counter())
        with tr.span("serve.drain"):
            while service.queue_depth:
                with tr.span("serve.pump"):
                    batch = service.pump()
                now = time.perf_counter()
                for resp in batch:
                    got[resp.request_id] = (resp, now)
        seconds = time.perf_counter() - t0
        latencies = [got[r][1] - sent[r] for r in sent if r in got]
        return got, seconds, latencies

    def run_pass(self, index: int) -> PassResult:
        jobs = self.wave_jobs(index)
        cold: Dict[Tuple, CSRMatrix] = {}
        pairs = [(job, self.request(job, self.matrix_of(job, cold))) for job in jobs]
        got, seconds, latencies = self.stream(self.service, [r for _, r in pairs])
        iterations = 0
        for job, req in pairs:
            resp = got.get(req.request_id, (None, 0.0))[0]
            label = f"wave {index} {job.key} {req.request_id}"
            if resp is None or not resp.completed:
                self.ledger.check(False, f"{label}: {getattr(resp, 'status', 'no response')}")
                continue
            iterations += int(resp.result.iterations)
            self._check_solve(label, req.A, job.b, resp.result, self.tol)
            if job.key not in self.samples:
                self.samples[job.key] = (job, req.A, resp.result)
        return PassResult(
            seconds=seconds, iterations=iterations, requests=len(jobs), latencies=latencies
        )

    def lone_solve(self, job: Job, A: CSRMatrix):
        if job.method == "pcg":
            solver = make_outer_solver(
                "pcg", A, precond="async:2", config=self.config, stopping=self.stopping
            )
            return solver.solve(A, job.b)
        cfg = dataclasses.replace(self.config, seed=job.seed)
        return BlockAsyncSolver(cfg, stopping=self.stopping).solve(A, job.b)

    def finish(self):
        # One sample per batch key: the served result must be bitwise the
        # lone solve of that request with the same seed.
        for key, (job, A, served) in self.samples.items():
            ref = self.lone_solve(job, A)
            same = oracle.bitwise_equal(served.x, ref.x) and oracle.bitwise_equal(
                served.residuals, ref.residuals
            )
            self.ledger.check(same, f"batch key {key}: served result differs from the lone solve")
        return {"bitwise_samples": len(self.samples)}

    def counts(self):
        out = []
        for name, A in self.mats.items():
            view = BlockRowView(A, partition=make_partition(A, self.config.partition, block_size=self.config.block_size))
            out.append(host.kernel_counts(name, A, view, K))
        return out


WORKLOADS = {w.name: w for w in (PaperDefault, KrylovSnapshot, ServeMix)}
