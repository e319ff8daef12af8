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
    and the next array.  The int n + k is compared with the log_d of the cells
    the guard admits, so that no big power and no float past 1e308 is formed."""
    per_cell = 8 * (d * d + 2)
    if n + k > math.log(MAX_BUILD_BYTES / per_cell, d):
        raise GuardError(f"the array of d^(n+k) = {d}^{n + k} cells needs {per_cell} bytes "
                         f"per cell to build, over the guard of 2^{math.log2(MAX_BUILD_BYTES):g}")


class ConvergenceError(QcapError):
    """An iterative solver failed to reach its tolerance within its budget."""


def is_int(x) -> bool:
    """True for a Python or numpy integer, but not a bool."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def entropy_nats(p: np.ndarray) -> float:
    """Shannon entropy of a nonnegative weight vector in nats, with 0 log 0 = 0."""
    p = np.asarray(p, dtype=float).ravel()
    q = p[p > 0.0]
    return float(-np.dot(q, np.log(q))) + 0.0


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise ValidationError("wilson_interval requires trials >= 1")
    z = 1.959963984540054
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * np.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    # clamp so the interval always contains the point estimate despite rounding
    low = min(max(0.0, center - half), phat)
    high = max(min(1.0, center + half), phat)
    return (low, high)
