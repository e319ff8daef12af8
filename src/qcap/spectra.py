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

The cost splits in two.  The shifts and the index tables that turn them
into gathers depend on the code alone: they are built on a code's first
array and kept on the code, n * d^2 * (d^ceil(m/2) + d^floor(m/2)) ints
with m = n + k (82 KB for d=3, n=7).  Every array then pays only for its
channel: per site one gather of row and column permutations of its 2-D
view and one matrix-vector product, so the many channels of a sweep share
one table build per code.  The many rates of an exponent scan share one
array: exponent keeps the objective of its last (code, channel) pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._util import ValidationError, check_array_build, entropy_nats
from .channels import PauliChannel
from .codes import StabilizerCode
from .gf import digits_to_index, index_to_digits


@dataclass(frozen=True, eq=False)
class ProbabilityArray:
    """The d^{n-k} x d^{2k} coset-probability array of a code under a channel,
    compared by identity.

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

    def syndrome_marginal(self) -> np.ndarray:
        return self.table.sum(axis=1)

    def conditional_entropy(self, base: float) -> float:
        """Entropy of the logical column given the syndrome row; rows of zero
        marginal contribute nothing."""
        return (entropy_nats(self.table) - entropy_nats(self.syndrome_marginal())) / math.log(base)


def _site_tables(code: StabilizerCode) -> tuple[np.ndarray, np.ndarray]:
    """The code's half of the pushforward: gather tables (high, low) of
    shapes (n, d^2, d^ceil(m/2)) and (n, d^2, d^floor(m/2)), m = n + k.

    Cells are indexed little-endian over F_d^m: the 2k logical digits
    lowest, then the n-k syndrome digits, so the flat array reshapes
    straight into (row, column).  Site i shifts a cell y by
    s = chi_sel[:, 2i:2i+2] (u, v) for letter (u, v); y sits at (a, b) of
    the (d^ceil(m/2), d^floor(m/2)) view, and y - s at (high[i, letter, a],
    low[i, letter, b]).  StabilizerCode keeps the result, so each code
    builds it once.
    """
    d, n, k = code.d, code.n, code.k
    nk, m = n - k, n + k
    full = code.completion.chi
    # chi_sel: the (w, z) rows of the k logical pairs, then the syndrome
    # rows z_i = <g_i, x> for i < n-k
    chi = np.concatenate([full[2 * nk:], full[1:2 * nk:2]])
    letters = np.indices((d, d)).reshape(2, -1).T  # (u, v) in the order of matrix.ravel()
    shifts = (letters @ chi.reshape(m, n, 2).transpose(1, 2, 0)) % d  # (site, letter, digit)
    h = m // 2
    digits = index_to_digits(np.arange(d ** (m - h)), d, m - h)
    low = digits_to_index((digits[:d ** h, :h] - shifts[..., None, :h]) % d, d)
    high = digits_to_index((digits - shifts[..., None, h:]) % d, d)
    high.setflags(write=False)
    low.setflags(write=False)
    return high, low


def probability_array(code: StabilizerCode, channel: PauliChannel) -> ProbabilityArray:
    """The coset-probability array of a code under a Pauli channel.

    The image of P^n under x -> chi_sel x, built site by site from a point
    mass at 0: new[y] = sum_(u,v) P(u, v) old[y - s(u, v)].  The gather
    tables depend on the code alone and are built on the code's first call
    (`_site_tables`), then kept on it: n * d^2 * (d^ceil(m/2) + d^floor(m/2))
    ints, m = n + k.  Each call pays only for the channel: per site one
    (d^2, d^m) gather of row and column permutations of the array's 2-D view
    and one (d^2,) @ (d^2, d^m) product.

    The build holds 8 (d^2 + 2) bytes per cell, which check_array_build
    bounds before anything is built.
    """
    d, n, k = code.d, code.n, code.k
    if channel.d != d:
        raise ValidationError("channel and code moduli differ")
    check_array_build(d, n, k)
    probs = channel.matrix.ravel()
    dist = np.zeros(d ** (n + k))
    dist[0] = 1.0
    view = (d ** ((n + k + 1) // 2), -1)
    for rows, cols in zip(*code._site_tables):
        dist = probs @ dist.reshape(view)[rows[:, :, None], cols[:, None, :]].reshape(d * d, -1)
    table = dist.reshape(d ** (n - k), d ** (2 * k))
    # the array's mass is the letters' mass to the n-th power, which the
    # channel holds to within 1e-12 of 1
    mass = probs.sum() ** n
    if abs(table.sum() - mass) > 1e-12:
        raise ValidationError(f"probability array sums to {table.sum()}, not {mass}")
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


def coherent_bound(code: StabilizerCode, channel: PauliChannel,
                   base: float | None = None) -> BoundReport:
    """The lower bound c_n = k - H(logical | syndrome) for one code.

    Computed from the probability array; base defaults to d, the natural
    unit in which k counts logical symbols.
    """
    return bound_from_array(probability_array(code, channel), base)


def bound_from_array(arr: ProbabilityArray, base: float | None = None) -> BoundReport:
    base = float(base) if base is not None else float(arr.d)
    if not base > 1.0:
        raise ValidationError(f"entropy base must exceed 1, got {base}")
    h_cond = arr.conditional_entropy(base)
    c_n = arr.k * math.log(arr.d) / math.log(base) - h_cond
    return BoundReport(
        c_n=c_n,
        H_syndrome=entropy_nats(arr.syndrome_marginal()) / math.log(base),
        H_cond=h_cond,
        per_symbol=c_n / arr.n,
        base=base,
        n=arr.n,
        k=arr.k,
    )
