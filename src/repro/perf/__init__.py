"""Performance layer: sweep-plan compilation and backend dispatch.

The engines in :mod:`repro.core` describe *what* a block-asynchronous
sweep computes; this subpackage decides *how* it executes:

* :class:`SweepPlan` (:mod:`repro.perf.plan`) compiles a block
  decomposition, once, into the precomputed structures every execution
  path consumes — compressed local parts, scatter segment ids, stacked
  whole-system matrices, and (on demand) the stencil structure detection
  outcome;
* :mod:`repro.perf.stencil` detects stencil-regular systems and compiles
  their matrix-free offset-shifted sweep kernels;
* :mod:`repro.perf.backends` dispatches each engine to the matrix-free
  stencil executor where detection succeeds, to a fused whole-system
  executor wherever that is bitwise-exact for the configured asynchronism
  regime, and to the (plan-accelerated) per-block reference loop
  everywhere else.

This mirrors how production asynchronous-solver stacks are organised
(e.g. the backend-dispatched executors over precompiled per-subdomain
plans of abstract asynchronous Schwarz solvers): the schedule semantics
stay in one place, while execution strategies compete behind a dispatch
seam that is observable only through timing.
"""

# The canonical backend-name tuple lives with AsyncConfig's validation.
# repro.core's engine imports this package's *submodules* directly, so
# `import repro.perf` works standalone in either import order.
from ..core.schedules import BACKENDS
from .backends import (
    FusedSweepExecutor,
    ReferenceSweepExecutor,
    StencilSweepExecutor,
    consume_schedule_draws,
    fused_sweep_exact,
    make_executor,
    resolve_backend,
)
from .plan import SweepPlan, compile_sweep_plan, plan_compile_count, rhs_preserves_fold
from .ras import RASSweepExecutor, RASWorkspace
from .stencil import StencilDescriptor, StencilKernels, detect_stencil

__all__ = [
    "SweepPlan",
    "compile_sweep_plan",
    "plan_compile_count",
    "rhs_preserves_fold",
    "BACKENDS",
    "fused_sweep_exact",
    "resolve_backend",
    "consume_schedule_draws",
    "make_executor",
    "FusedSweepExecutor",
    "RASSweepExecutor",
    "RASWorkspace",
    "ReferenceSweepExecutor",
    "StencilSweepExecutor",
    "StencilDescriptor",
    "StencilKernels",
    "detect_stencil",
]
