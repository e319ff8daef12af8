"""Pauli-channel probability models on the d^2-letter alphabet {0..d-1}^2.

A channel is a probability distribution P over error letters (u, v), where
u is the X power and v the Z power; (0, 0) is the identity letter.  Entropic
quantities default to base-d logarithms; pass base=2 or base=np.e to convert
(a single multiplicative constant).
"""

from __future__ import annotations

import math

import numpy as np

from ._util import ValidationError, entropy_nats
from .gf import _check_modulus

_SUM_TOL = 1e-12


class PauliChannel:
    """A distribution over the d^2 single-symbol error letters."""

    def __init__(self, d: int, probs) -> None:
        self.d = _check_modulus(d)
        mat = np.array(probs, dtype=float)
        if mat.size != self.d * self.d:
            raise ValidationError(f"need {self.d * self.d} probabilities, got {mat.size}")
        mat = mat.reshape(self.d, self.d)
        if not np.isfinite(mat).all():
            raise ValidationError("probabilities must be finite")
        if (mat < 0).any():
            raise ValidationError("probabilities must be nonnegative")
        if abs(mat.sum() - 1.0) > _SUM_TOL:
            raise ValidationError(f"probabilities sum to {mat.sum()}, not 1")
        self.matrix = mat
        self.matrix.setflags(write=False)

    def __repr__(self) -> str:
        return f"PauliChannel(d={self.d}, identity={self.matrix[0, 0]:.6g})"


def depolarizing(d: int, p: float) -> PauliChannel:
    """The p-depolarizing channel: identity with probability 1-p, the
    remaining mass spread uniformly over the d^2 - 1 nontrivial letters."""
    d = _check_modulus(d)
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"depolarizing parameter must lie in [0, 1], got {p}")
    mat = np.full((d, d), p / (d * d - 1))
    mat[0, 0] = 1.0 - p
    return PauliChannel(d, mat)


def shannon_entropy(P, base: float) -> float:
    """Entropy of a probability vector in the requested base, with 0 log 0 = 0."""
    base = float(base)
    if base <= 1.0:
        raise ValidationError("entropy base must exceed 1")
    arr = np.asarray(P, dtype=float).ravel()
    if (arr < 0).any():
        raise ValidationError("probabilities must be nonnegative")
    if abs(arr.sum() - 1.0) > _SUM_TOL:
        raise ValidationError(f"probabilities sum to {arr.sum()}, not 1")
    return entropy_nats(arr) / math.log(base)


def channel_from_file(path, d: int) -> PauliChannel:
    """Read a custom channel over F_d from text lines 'u v prob'; letters
    not listed have probability 0, and a letter may be listed only once."""
    mat = np.zeros((d, d))
    seen = set()
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            toks = line.split()
            if len(toks) != 3:
                raise ValidationError(f"bad channel line: {line!r}")
            u, v = int(toks[0]), int(toks[1])
            if not (0 <= u < d and 0 <= v < d):
                raise ValidationError(f"letter ({u}, {v}) is outside F_{d}: {line!r}")
            if (u, v) in seen:
                raise ValidationError(f"letter ({u}, {v}) is listed twice: {line!r}")
            seen.add((u, v))
            mat[u, v] = float(toks[2])
    return PauliChannel(d, mat)
