"""Arithmetic in the prime field F_d on int64 digit arrays.

Conventions used throughout the package:

* A vector over F_d is a 1-d int64 numpy array of digits in [0, d); there is
  no other vector type.
* Vector coordinates are interleaved as (u_1, v_1, ..., u_n, v_n), where the
  pair (u_i, v_i) indexes the error letter acting on the i-th subsystem
  (u = X power, v = Z power).  No other coordinate layout exists anywhere in
  the codebase.
* A vector of length L corresponds to the integer index
  sum_j coords[j] * d**j, i.e. coordinate 0 is the least significant digit of
  a little-endian mixed-radix counter.  `index_to_digits(np.arange(d**L), d, L)`
  lists all of F_d^L in increasing index order.
"""

from __future__ import annotations

import numpy as np

from ._util import ValidationError, is_int


def is_prime(n: int) -> bool:
    """True iff n is a prime number."""
    if n < 2:
        return False
    i = 2
    while i * i <= n:
        if n % i == 0:
            return False
        i += 1
    return True


# Keeps is_prime's trial division short; such d fail _util.check_array_build anyway.
_MAX_MODULUS = 1 << 20


def _check_modulus(d: int) -> int:
    if not is_int(d):
        raise ValidationError(f"modulus must be a prime integer, got {d!r}")
    if d > _MAX_MODULUS:
        raise ValidationError(f"modulus {d} exceeds 2^20: its d^2 channel letters pass the array guard")
    if not is_prime(d):
        raise ValidationError(f"modulus must be prime, got {d}")
    return int(d)


def index_to_digits(indices: np.ndarray, d: int, length: int) -> np.ndarray:
    """Digit matrix (len(indices) x length) of little-endian base-d counters."""
    indices = np.asarray(indices, dtype=np.int64)
    powers = d ** np.arange(length, dtype=np.int64)
    return ((indices[:, None] // powers) % d).astype(np.int64)


def digits_to_index(digits: np.ndarray, d: int) -> np.ndarray:
    """Indices of little-endian base-d counters with their digits on the
    last axis, in the digits' type, which must hold them: the inverse of
    index_to_digits.  Horner's rule reads one digit slice at a time."""
    index = np.zeros(digits.shape[:-1], dtype=digits.dtype)
    for p in reversed(range(digits.shape[-1])):
        index = index * d + digits[..., p]
    return index


def _mod(x: np.ndarray, d: int) -> np.ndarray:
    """x mod d for an integer array, as x - (x // d) * d: numpy divides an
    array by a scalar several times faster than it takes the remainder."""
    return x - x // d * d
