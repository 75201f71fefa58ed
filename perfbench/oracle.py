"""Correctness checks that do not trust the program under test.

Residuals are recomputed with ``scipy.sparse`` from the matrix's raw CSR
arrays, so a defect in the package's own sparse kernels cannot hide a
wrong answer.  Each failed check is one failed operation in the result.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np
import scipy.sparse as sp


class Ledger:
    """Counts attempted and failed operations and keeps each failure's reason.

    An operation is one check: a solve against the scipy residual, or one
    bitwise comparison.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []

    def check(self, ok: bool, what: str) -> None:
        """Record one operation; *what* names it if it failed."""
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def scipy_matrix(A) -> sp.csr_array:
    """*A* rebuilt by scipy from copies of its CSR arrays."""
    return sp.csr_array(
        (np.array(A.data), np.array(A.indices), np.array(A.indptr)), shape=A.shape
    )


def relative_residual(A, x: np.ndarray, b: np.ndarray) -> float:
    """``||b - A x|| / ||b||`` computed by scipy."""
    r = b - scipy_matrix(A) @ x
    return float(np.linalg.norm(r) / np.linalg.norm(b))


def solve_ok(A, b: np.ndarray, result, tol: float) -> Optional[str]:
    """Why a solve failed its oracle check, or ``None`` if it passed."""
    if result is None:
        return "no result"
    if not result.converged:
        info = {k: v for k, v in result.info.items() if isinstance(v, (bool, int, float, str))}
        return f"did not converge in {result.iterations} iterations (final residual {result.final_residual:.3e}, {info})"
    x = np.asarray(result.x)
    if x.shape != b.shape or not np.all(np.isfinite(x)):
        return "non-finite or misshapen solution"
    rel = relative_residual(A, x, b)
    if not rel <= tol:
        return f"relative residual {rel:.3e} > tol {tol:g}"
    return None


def bitwise_equal(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()
