"""Probability arrays of stabilizer codes and the coherent-information
lower bound c_n = k - H(logical | syndrome).

For a code with stabilizer subspace L, every error vector x in F_d^{2n}
falls into one coset of L, labeled by the syndrome s_i = <g_i, x> for
i <= n-k (row) and the logical pair labels (w, z) of the k logical
hyperbolic pairs (column).  Pushing the product channel measure P^n through
this labeling gives the d^{n-k} x d^{2k} probability array; all entropic
quantities derive from it.

The labeling is linear, x -> chi_sel x into F_d^{n+k}, so the array is the
convolution of n one-site distributions of d^2 points each: starting from a
point mass at 0, each site shifts the array by its column pair of chi_sel
applied to every letter (u, v), weighted by P(u, v).  That costs
n * d^2 * d^{n+k} operations, exact up to the rounding of sums of
nonnegative terms; the largest routine instance (d=3, n=7, 3^8 cells) takes
a few milliseconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._util import GuardError, ValidationError, entropy_nats
from .channels import PauliChannel
from .codes import StabilizerCode


@dataclass(frozen=True)
class ProbabilityArray:
    """The d^{n-k} x d^{2k} coset-probability array of a code under a channel.

    Row index: syndrome tuple in little-endian mixed radix.  Column index:
    logical label (w_1, z_1, ..., w_k, z_k) folded the same way.
    """

    d: int
    n: int
    k: int
    table: np.ndarray

    def __post_init__(self):
        rows = self.d ** (self.n - self.k)
        cols = self.d ** (2 * self.k)
        if self.table.shape != (rows, cols):
            raise ValidationError(f"array shape {self.table.shape} != ({rows}, {cols})")
        self.table.setflags(write=False)

    @property
    def rows(self) -> int:
        return self.table.shape[0]

    @property
    def cols(self) -> int:
        return self.table.shape[1]

    def total(self) -> float:
        return float(self.table.sum())

    def syndrome_marginal(self) -> np.ndarray:
        return self.table.sum(axis=1)

    def entropy(self, base: float) -> float:
        return entropy_nats(self.table) / math.log(base)

    def syndrome_entropy(self, base: float) -> float:
        return entropy_nats(self.syndrome_marginal()) / math.log(base)

    def conditional_entropy(self, base: float) -> float:
        """Entropy of the logical column given the syndrome row; rows of zero
        marginal contribute nothing."""
        return (entropy_nats(self.table) - entropy_nats(self.syndrome_marginal())) / math.log(base)


def _pushforward(code: StabilizerCode, channel: PauliChannel) -> np.ndarray:
    """The array as the image of P^n under x -> chi_sel x, built site by site.

    Cells are indexed little-endian over F_d^{n+k}: the 2k logical digits
    lowest, then the n-k syndrome digits, so the flat result reshapes
    straight into (row, column).  Site i adds s = chi_sel[:, 2i:2i+2] (u, v)
    with probability P(u, v): new[y] = sum_(u,v) P(u, v) old[y - s].  The
    index of y - s is the sum of the indices of its low and high halves of
    digits, each read from a table over that half.
    """
    d, n, k = code.d, code.n, code.k
    nk, m = n - k, n + k
    full = code.completion.chi_matrix()
    # chi_sel: the (w, z) rows of the k logical pairs, then the syndrome
    # rows z_i = <g_i, x> for i < n-k
    chi = np.concatenate([full[2 * nk:], full[1:2 * nk:2]])
    letters = np.indices((d, d)).reshape(2, -1).T  # (u, v) in the order of matrix.ravel()
    shifts = (letters @ chi.reshape(m, n, 2).transpose(1, 2, 0)) % d  # (site, letter, digit)
    h = m // 2
    weights = d ** np.arange(m - h)
    digits = (np.arange(d ** (m - h))[:, None] // weights) % d
    low = ((digits[:d ** h, :h] - shifts[..., None, :h]) % d) @ weights[:h]
    high = ((digits - shifts[..., None, h:]) % d) @ (weights * d ** h)
    probs = channel.matrix.ravel()
    dist = np.zeros(d ** m)
    dist[0] = 1.0
    for i in range(n):
        dist = probs @ dist[high[i][:, :, None] + low[i][:, None, :]].reshape(d * d, -1)
    return dist.reshape(d ** nk, d ** (2 * k))


def probability_array(code: StabilizerCode, channel: PauliChannel, *,
                      max_cells: int = 2**40) -> ProbabilityArray:
    """The coset-probability array of a code under a Pauli channel.

    Guarded by max_cells on the d^{n+k} cells of the array (override to go
    bigger); the build holds d^2 times that many while it runs.
    """
    d, n, k = code.d, code.n, code.k
    if channel.d != d:
        raise ValidationError("channel and code moduli differ")
    if (n + k) * math.log2(d) > math.log2(max_cells) + 1e-9:
        raise GuardError(f"array of d^(n+k) = {d}^{n + k} cells exceeds the guard {max_cells}")
    table = _pushforward(code, channel)
    if abs(table.sum() - 1.0) > 1e-12:
        raise ValidationError(f"probability array sums to {table.sum()}, not 1")
    return ProbabilityArray(d, n, k, table)


@dataclass(frozen=True)
class BoundReport:
    """Coherent-information bound for one (code, channel) pair.

    All entropies are in the report's log base; c_n = k * log_base(d) - H_cond
    holds by construction.
    """

    c_n: float
    H_syndrome: float
    H_cond: float
    per_symbol: float
    base: float
    n: int
    k: int

    def as_dict(self) -> dict:
        return {
            "c_n": self.c_n,
            "per_symbol": self.per_symbol,
            "H_syndrome": self.H_syndrome,
            "H_cond": self.H_cond,
            "base": self.base,
            "n": self.n,
            "k": self.k,
        }


def coherent_bound(code: StabilizerCode, channel: PauliChannel,
                   base: float | None = None) -> BoundReport:
    """The lower bound c_n = k - H(logical | syndrome) for one code.

    Computed from the probability array; base defaults to d, the natural
    unit in which k counts logical symbols.  To raise the array guard, call
    bound_from_array(probability_array(code, channel, max_cells=m), base).
    """
    return bound_from_array(probability_array(code, channel), base)


def bound_from_array(arr: ProbabilityArray, base: float | None = None) -> BoundReport:
    base = float(base) if base is not None else float(arr.d)
    h_cond = arr.conditional_entropy(base)
    c_n = arr.k * math.log(arr.d) / math.log(base) - h_cond
    return BoundReport(
        c_n=c_n,
        H_syndrome=arr.syndrome_entropy(base),
        H_cond=h_cond,
        per_symbol=c_n / arr.n,
        base=base,
        n=arr.n,
        k=arr.k,
    )


def bound_sweep(code: StabilizerCode, channels, base: float | None = None) -> list[BoundReport]:
    """One BoundReport per channel, in the given order."""
    return [coherent_bound(code, ch, base) for ch in channels]
