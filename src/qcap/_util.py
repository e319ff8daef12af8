"""Shared error types and small numeric helpers."""

from __future__ import annotations

import math

import numpy as np


# Fixed, so that the exit code does not depend on the machine.
MAX_BUILD_BYTES = 2**32


class QcapError(Exception):
    """Base class for all package errors."""


class ValidationError(QcapError):
    """A parameter or input violates a precondition."""


class GuardError(QcapError):
    """A computation would exceed a declared enumeration or size guard."""


def check_array_build(d: int, n: int, k: int) -> None:
    """Refuse, before anything is built, an array build past MAX_BUILD_BYTES:
    8 (d^2 + 2) bytes per cell for the d^(n+k) cells, their d^2-fold gather
    and the next array, compared in log2 so that no big power is formed."""
    log_bytes = math.log2(8 * (d * d + 2)) + (n + k) * math.log2(d)
    if log_bytes > math.log2(MAX_BUILD_BYTES):
        raise GuardError(f"the array of d^(n+k) = {d}^{n + k} cells needs 2^{log_bytes:.1f} "
                         f"bytes to build, over the guard of 2^{math.log2(MAX_BUILD_BYTES):g}")


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
