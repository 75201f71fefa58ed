"""Transparent stand-ins for public objects, recording a span per call.

The traced run hands these to the solver package in place of the real
objects, so calls the package makes internally are timed without
instrumenting it.  Each proxy computes exactly what the wrapped object
computes; the traced run checks that bitwise.
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np

from repro.sparse import CSRMatrix


class _NullTracer:
    """Tracing off: every span is the same no-op context."""

    _null = nullcontext()

    def span(self, name: str):
        return self._null


NULL = _NullTracer()


class TracedCSR(CSRMatrix):
    """A ``CSRMatrix`` sharing another's arrays whose ``matvec`` and ``residual`` are spans."""

    __slots__ = ("_tracer",)

    @classmethod
    def wrap(cls, A: CSRMatrix, tracer) -> "TracedCSR":
        out = cls(A.indptr, A.indices, A.data, A.shape, check=False)
        # One untraced product first: whatever the kernel caches per matrix
        # object was built for the wrapped matrix during set-up.
        out.matvec(np.zeros(A.shape[1]))
        out._tracer = tracer
        return out

    def _span(self, name: str):
        return (getattr(self, "_tracer", None) or NULL).span(name)

    def matvec(self, x, out=None):
        with self._span("sparse.matvec"):
            return super().matvec(x, out)

    def residual(self, x, b, out=None):
        with self._span("runtime.residual"):
            return super().residual(x, b, out)


class TracedPreconditioner:
    """Times each application ``z = P(r)`` as ``krylov.precond_apply``."""

    def __init__(self, inner, tracer):
        self._inner = inner
        self._tracer = tracer

    def __call__(self, r):
        with self._tracer.span("krylov.precond_apply"):
            return self._inner(r)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TracedPlanCache:
    """Times ``PlanCache.lookup``; a lookup that missed (and compiled) is ``serve.compile``."""

    def __init__(self, inner, tracer):
        self._inner = inner
        self._tracer = tracer

    def lookup(self, *args, **kwargs):
        with self._tracer.span("serve.cache_lookup") as sp:
            entry, hit = self._inner.lookup(*args, **kwargs)
        if not hit:
            sp.name = "serve.compile"
        return entry, hit

    def __getattr__(self, name):
        return getattr(self._inner, name)
