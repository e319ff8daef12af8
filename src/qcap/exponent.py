"""The fidelity error exponent for an inner code at outer rate R:

    E(R) = min over joint distributions P' of
           D(P' || P_L) + | k - k R - H(logical | syndrome under P') |+

with |t|+ = max(t, 0) and all logarithms base d.  The minimum runs over
distributions on the (syndrome, logical) alphabet of the code's probability
array; any mass placed outside supp(P_L) makes D infinite, so the search is
restricted to the support.

The objective is convex (relative entropy plus a hinge of an affine term
minus a concave conditional entropy).  Writing |t|+ = max_{0<=beta<=1} beta*t
turns it into a concave one-dimensional dual whose inner minimum has a closed
form, a Renyi-type tilting of P_L.  The dual's slope is gap - H_c(x_beta),
and with t = 1/(1+beta) both H_c(x_beta) and its derivative,
Var_w(H_s) + t^3 E_w[Var_s(log cond)] >= 0 over the tilted row weights w and
rows s, have closed forms.  So the solver runs Newton's method on
g(beta) = H_c(x_beta) - gap, inside the bracket [0, 1] kept from the signs
of g seen so far, and bisects the bracket whenever a Newton step would leave
it, the slope is 0 or |g| fails to halve.  Newton starts where the chord
through (0, g(0)) and (1, g(1)) crosses zero: g(0) = H_c(P_L) - gap and
g(1) come with the objective, which depends on the code and channel only
and is kept between calls, so a scan over rates builds one array.  It stops
when g = 0 or a step moves beta by at most a few ulps of 1: H_c carries
about 1e-16 of round-off, so a finer beta buys nothing.  The tilted distribution at
the maximizer is feasible and primal-optimal: at an interior root its hinge is
zero, and at beta = 1 the hinge is active and its value equals the dual
bound.  So the solver returns that primal value together with the gap to the
dual bound as an auditable optimality residual, and needs no iterative
polish.

Also hosts the type-combinatorics utilities (compositions, type counts) and
the brute-force grid oracle used to validate the solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._util import ConvergenceError, GuardError, ValidationError, entropy_nats, is_int
from .channels import PauliChannel
from .codes import StabilizerCode
from .spectra import ProbabilityArray, probability_array


# ---------------------------------------------------------------------------
# type combinatorics


def count_types(d: int, n: int, k: int, N: int) -> int:
    """Number of joint types with denominator N on the (syndrome, logical)
    alphabet of size m = d^(n+k): C(N + m - 1, m - 1)."""
    m = d ** (n + k)
    return math.comb(N + m - 1, m - 1)


def compositions(total: int, parts: int) -> np.ndarray:
    """All nonnegative integer vectors of the given length summing to total,
    one per row, in lexicographic order, in the narrowest unsigned integer
    type that holds total."""
    if parts < 1 or total < 0:
        raise ValidationError("compositions needs parts >= 1 and total >= 0")
    # Each step prepends a column.  With the last k columns filled, their
    # first comb(total + k, k) rows hold the compositions into k parts of
    # s = total, total - 1, ..., 0 in turn, each in lexicographic order, and
    # left[i] = total - s for row i.  The compositions of s into k + 1 parts
    # are those of s' = s, ..., 0 into k parts with s - s' in front: the
    # filled rows whose sum is at most s, a tail of them.  For s = total the
    # tail is every filled row, so that block stays in place and the blocks
    # for smaller s are copied below it.
    dtype = np.min_scalar_type(total)
    out = np.empty((math.comb(total + parts - 1, parts - 1), parts), dtype=dtype)
    left = np.empty(out.shape[0], dtype=dtype)
    left[0] = total
    size = 1
    for k in range(parts):
        col = parts - 1 - k
        row = size
        # the last step needs only the block for s = total
        for s in range(total - 1, -1 if col else total, -1):
            n = math.comb(s + k, k)
            tail = size - n
            out[row:row + n, col + 1:] = out[tail:size, col + 1:]
            out[row:row + n, col] = left[tail:size] - (total - s)
            left[row:row + n] = total - s
            row += n
        out[:size, col] = left[:size]
        left[:size] = 0
        size = row
    return out


# ---------------------------------------------------------------------------
# objective pieces (everything in base-d logs)


class _Objective:
    """f(P') = D(P'||P_L) + |gap - H_c(P')|+, restricted to supp(P_L), for a
    hinge threshold gap = k - kR that each method takes as an argument.

    Cells are flattened with the row (syndrome) structure kept as an index
    array, so conditional entropies reduce to segment sums.  Nothing here
    depends on the rate: h_cond_pl = H_c(P_L) and h_one = H_c(x_1), the
    tilted entropy at beta = 1, are computed once on construction, and the
    object never changes after that.
    """

    def __init__(self, arr: ProbabilityArray):
        self.d = arr.d
        flat = arr.table.ravel()
        support = flat > 0.0
        self.p = flat[support]
        # label the rows that hold support 0, 1, ... in order
        present = support.reshape(arr.rows, arr.cols).any(axis=1)
        self.row_of = np.repeat(np.cumsum(present) - 1, arr.cols)[support]
        self.nrows = int(np.count_nonzero(present))
        self.logd = math.log(self.d)
        self.marg = self.row_sums(self.p)
        self.log_marg = np.log(self.marg)
        self.log_cond = np.log(self.p / self.marg[self.row_of])
        # H_c(P_L) = -sum_cells p log cond
        self.h_cond_pl = -float(self.p @ self.log_cond) / self.logd
        self.h_one = self.tilted_entropy(1.0)[0]

    def row_sums(self, x: np.ndarray) -> np.ndarray:
        return np.bincount(self.row_of, weights=x, minlength=self.nrows)

    def h_cond(self, x: np.ndarray) -> float:
        """H(logical | syndrome) of a support-restricted distribution, base d."""
        return (entropy_nats(x) - entropy_nats(self.row_sums(x))) / self.logd

    def value(self, x: np.ndarray, gap: float) -> float:
        mask = x > 0
        div = float(np.sum(x[mask] * np.log(x[mask] / self.p[mask]))) / self.logd
        return div + max(0.0, gap - self.h_cond(x))

    def _tilt(self, beta: float) -> tuple[np.ndarray, np.ndarray]:
        """cond_beta ∝ cond^(1/(1+beta)) and its row normalizers Z_s."""
        tilted = np.exp(self.log_cond / (1.0 + beta))
        z = self.row_sums(tilted)
        return tilted / z[self.row_of], z

    def tilted(self, beta: float, gap: float) -> tuple[np.ndarray, float]:
        """Closed-form minimizer of D(P'||P_L) - beta * H_c(P') and the value
        of the dual function phi(beta) = beta*gap + that minimum."""
        cond, z = self._tilt(beta)
        row_weight = self.marg * z ** (1.0 + beta)
        total = row_weight.sum()
        x = row_weight[self.row_of] / total * cond
        return x, beta * gap - math.log(total) / self.logd

    def tilted_entropy(self, beta: float) -> tuple[float, float]:
        """H_c(x_beta) of the minimizer that tilted(beta) returns, and its
        derivative in beta, both base d, without building x_beta.

        With t = 1/(1+beta), row s holds cond_beta ∝ cond^t with entropy
        H_s = log Z_s - t E_s[log cond], and carries the row weight
        w_s ∝ marg_s Z_s^(1/t).  H_c = E_w[H_s], and differentiating in beta
        gives Var_w(H_s) + t^3 E_w[Var_s(log cond)].
        """
        t = 1.0 / (1.0 + beta)
        cond, z = self._tilt(beta)
        mean = self.row_sums(cond * self.log_cond)
        spread = self.row_sums(cond * (self.log_cond - mean[self.row_of]) ** 2)
        log_z = np.log(z)
        h_rows = log_z - t * mean
        log_w = self.log_marg + log_z / t
        w = np.exp(log_w - log_w.max())
        w /= w.sum()
        h = w @ h_rows
        slope = w @ (h_rows - h) ** 2 + t**3 * (w @ spread)
        return float(h / self.logd), float(slope / self.logd)


# the Newton iteration stops once a step moves beta by at most this much
_BETA_TOL = 4.0 * math.ulp(1.0)
# exponent() raises ConvergenceError when its value exceeds the dual bound by more
_RESIDUAL_TOL = 1e-8
# exponent_grid_oracle() refuses grids of more (grid points x support cells):
# it holds one integer count per such cell, one byte each up to 255 steps,
# beside a few float vectors with one entry per grid point
_ORACLE_CELLS = 2**24


@dataclass(frozen=True)
class ExponentReport:
    """Solver output: the exponent value, its certificate, and context.

    iterations counts evaluations of the dual function (closed-form tiltings
    of P_L): one at beta = 1, whether the objective made it just now or was
    kept from an earlier call, one per Newton or bisection step, and one for
    the witness at the maximizer.  So a report does not depend on what was
    kept.  It is 0 when the rate is at or above the threshold, 2 when the
    maximizer is beta = 1, and typically 5 to 8 at an interior root; its
    worst case is about twice bisection's.
    """

    value: float
    kkt_residual: float
    rate: float
    threshold: float  # k - H_c(P_L); the exponent is positive iff kR < threshold
    iterations: int

    def as_dict(self) -> dict:
        return {
            "E": self.value,
            "kkt_residual": self.kkt_residual,
            "rate": self.rate,
            "threshold": self.threshold,
            "iterations": self.iterations,
        }


# The objective of the last (code, channel) pair, as one tuple
# (code, channel, objective), matched by the identity of both objects; codes
# and channels are never changed after construction.  It retains one
# _Objective, not its array: three vectors of the support's size (p, row_of,
# log_cond) and two of the occupied rows' size, beside the code and channel.
_last: tuple | None = None


def _objective(code: StabilizerCode, channel: PauliChannel) -> _Objective:
    """The rate-free objective of (code, channel), kept from the last call
    on the same two objects or built afresh."""
    global _last
    last = _last
    if last is not None and last[0] is code and last[1] is channel:
        return last[2]
    _last = None  # free the old objective before the array is built
    obj = _Objective(probability_array(code, channel))
    _last = (code, channel, obj)
    return obj


def exponent(code: StabilizerCode, channel: PauliChannel, R: float) -> ExponentReport:
    """The error exponent E(R) for one (code, channel, rate) triple, base d.

    Consecutive calls on the same code and channel objects share one array
    and one objective, so a scan over rates builds them once.  Raises
    ConvergenceError if the returned value exceeds its dual certificate by
    more than _RESIDUAL_TOL = 1e-8.
    """
    R = float(R)
    if not 0.0 <= R <= 1.0:
        raise ValidationError(f"rate must lie in [0, 1], got {R}")
    obj = _objective(code, channel)
    gap = code.k - code.k * R  # the hinge threshold on H_c
    threshold = code.k - obj.h_cond_pl

    # the hinge is inactive at P_L itself: P' = P_L attains the global
    # minimum 0 whenever kR >= k - H_c(P_L)
    if code.k * R >= threshold:
        return ExponentReport(0.0, 0.0, R, threshold, 0)

    # concave dual line search over the hinge multiplier beta.  The dual
    # derivative is -g(beta) = gap - H_c(x_beta), nonincreasing by concavity,
    # so the maximizer is either beta = 1 (g still <= 0 there) or the root of
    # g, found by safeguarded Newton steps from the chord's root.  The
    # objective's evaluation at beta = 1 counts as one, kept or not.
    evals = 1
    g0, g1 = code.k * R - threshold, obj.h_one - gap  # g(0) < 0 here

    def slack(beta: float) -> tuple[float, float]:
        nonlocal evals
        evals += 1
        h, slope = obj.tilted_entropy(beta)
        return h - gap, slope

    beta_star = 1.0
    if g1 > 0.0:
        lo_b, hi_b, beta, last = 0.0, 1.0, -g0 / (g1 - g0), math.inf
        while True:
            g, slope = slack(beta)
            if g == 0.0:
                break
            if g < 0.0:
                lo_b = beta
            else:
                hi_b = beta
            newton = beta - g / slope if slope > 0.0 else math.nan
            if abs(newton - beta) <= _BETA_TOL:
                beta = min(max(newton, lo_b), hi_b)
                break
            # bisect when Newton leaves the bracket or, right after a Newton
            # step, |g| did not halve
            if lo_b < newton < hi_b and abs(g) <= 0.5 * last:
                beta, last = newton, abs(g)
            else:
                beta, last = 0.5 * (lo_b + hi_b), math.inf
                if hi_b - lo_b <= 2.0 * _BETA_TOL:
                    break
        beta_star = beta
    witness, phi_star = obj.tilted(beta_star, gap)
    evals += 1

    # E >= 0 by definition; clamp the round-off just below the threshold
    value = max(obj.value(witness, gap), 0.0)
    residual = value - phi_star
    if residual > _RESIDUAL_TOL:
        raise ConvergenceError(
            f"exponent solver residual {residual:.3e} above tol {_RESIDUAL_TOL:.1e} "
            f"after {evals} dual evaluations")
    return ExponentReport(value, max(residual, 0.0), R, threshold, evals)


def exponent_grid_oracle(code: StabilizerCode, channel: PauliChannel, R: float,
                         grid_steps: int) -> float:
    """Minimum of the exponent objective over the rational grid of the
    support simplex with denominator grid_steps.  Upper-bounds the true
    exponent; refining the grid never increases it.

    The grid is held as the integer counts of `compositions`, one byte per
    (grid point x support cell) up to 255 steps.  Every coordinate is
    count / grid_steps, so the terms x log(x / p_c) and x log x are read
    from tables over the counts, and a row marginal is the integer sum of
    its cells' counts; the terms add up into float vectors with one entry
    per grid point.  The guard counts (grid points x support cells), or the
    table entries if more, and raises GuardError past _ORACLE_CELLS = 2^24
    before the grid is built."""
    R = float(R)
    if not 0.0 <= R <= 1.0:
        raise ValidationError(f"rate must lie in [0, 1], got {R}")
    if not is_int(grid_steps) or grid_steps < 1:
        raise ValidationError(f"grid_steps must be an integer >= 1, got {grid_steps!r}")
    obj = _objective(code, channel)
    m = obj.p.size
    npoints = math.comb(grid_steps + m - 1, m - 1)
    height = max(npoints, grid_steps + 1)  # the tables have grid_steps + 1 entries
    if height * m > _ORACLE_CELLS:
        raise GuardError(f"grid of {height} points or table entries x {m} support cells "
                         f"exceeds the oracle guard of {_ORACLE_CELLS} cells")
    counts = compositions(grid_steps, m)

    # x log(x / p_c) for every cell c and x log x, at x = count / grid_steps
    x = np.arange(1, grid_steps + 1) / grid_steps
    div_table = np.zeros((m, grid_steps + 1))
    div_table[:, 1:] = x * np.log(x / obj.p[:, None])
    xlogx = np.zeros(grid_steps + 1)
    xlogx[1:] = x * np.log(x)

    div = np.zeros(npoints)
    h = np.zeros(npoints)  # H(logical | syndrome) in nats
    marg = np.empty(npoints, dtype=counts.dtype)
    index = np.empty(npoints, dtype=np.intp)  # take() would convert each index array
    # support cells are flattened row by row, so each row's cells are a run
    bounds = np.flatnonzero(np.diff(obj.row_of, prepend=-1, append=obj.nrows))
    for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        marg[:] = 0
        for c in range(lo, hi):
            index[:] = counts[:, c]
            div += div_table[c].take(index)
            h -= xlogx.take(index)
            marg += counts[:, c]
        index[:] = marg
        h += xlogx.take(index)

    div /= obj.logd
    h /= obj.logd
    np.subtract(code.k - code.k * R, h, out=h)  # the hinge's gap - H_c
    np.maximum(h, 0.0, out=h)
    div += h
    return float(div.min())
