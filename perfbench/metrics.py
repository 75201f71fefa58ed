"""Metric arithmetic shared by the untraced and traced runs.

Everything here is pure Python so the tests can pin it down without
importing the solver package.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Sequence

#: A percentile is reported only when at least this many samples lie
#: beyond it; below that it is an extrapolation, not a measurement.
MIN_BEYOND = 10


def median(samples: Sequence[float]) -> float:
    """The median (mean of the two middle values for an even count)."""
    if not samples:
        raise ValueError("median of no samples")
    s = sorted(samples)
    mid = len(s) // 2
    return s[mid] if len(s) % 2 else 0.5 * (s[mid - 1] + s[mid])


def min_samples_for(q: float, min_beyond: int = MIN_BEYOND) -> int:
    """Fewest samples for which the *q*-th percentile has *min_beyond* beyond it."""
    if not 0.0 < q < 100.0:
        raise ValueError("q must lie strictly between 0 and 100")
    return math.ceil(min_beyond * 100.0 / (100.0 - q) - 1e-9)


def percentile(
    samples: Sequence[float], q: float, min_beyond: int = MIN_BEYOND
) -> Optional[float]:
    """The *q*-th percentile (linear interpolation between order statistics).

    Returns ``None`` unless ``len(samples) * (100 - q) / 100 >= min_beyond``:
    the p50 needs 20 samples and the p90 needs 100.
    """
    n = len(samples)
    if n < min_samples_for(q, min_beyond):
        return None
    s = sorted(samples)
    pos = (n - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def metric(value: float, unit: str) -> Dict[str, object]:
    """One entry of the result line's ``metrics`` object."""
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"metric value must be finite, got {value!r}")
    return {"value": value, "unit": unit}
