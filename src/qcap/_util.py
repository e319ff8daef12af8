"""Shared error types and small numeric helpers."""

from __future__ import annotations

import numpy as np


# The most cells d^(n+k) a probability array may have: 2^40 float64 cells
# take 8 TB, and the array's build holds d^2 times as many.
MAX_CELLS = 2**40


class QcapError(Exception):
    """Base class for all package errors."""


class ValidationError(QcapError):
    """A parameter or input violates a precondition."""


class GuardError(QcapError):
    """A computation would exceed a declared enumeration or size guard."""


class ConvergenceError(QcapError):
    """An iterative solver failed to reach its tolerance within its budget."""


def is_int(x) -> bool:
    """True for a Python or numpy integer, but not a bool."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def entropy_nats(p: np.ndarray) -> float:
    """Shannon entropy of a nonnegative weight vector in nats, with 0 log 0 = 0."""
    p = np.asarray(p, dtype=float).ravel()
    mask = p > 0.0
    if not mask.any():
        return 0.0
    q = p[mask]
    return float(-np.dot(q, np.log(q))) + 0.0


def wilson_interval(successes: int, trials: int, z: float = 1.959963984540054) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion (default 95%)."""
    if trials <= 0:
        raise ValidationError("wilson_interval requires trials >= 1")
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * np.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    # clamp so the interval always contains the point estimate despite rounding
    low = min(max(0.0, center - half), phat)
    high = max(min(1.0, center + half), phat)
    return (low, high)
