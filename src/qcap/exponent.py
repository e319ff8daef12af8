"""The fidelity error exponent for an inner code at outer rate R:

    E(R) = min over joint distributions P' of
           D(P' || P_L) + | k - k R - H(logical | syndrome under P') |+

with |t|+ = max(t, 0) and all logarithms base d.  The minimum runs over
distributions on the (syndrome, logical) alphabet of the code's probability
array; any mass placed outside supp(P_L) makes D infinite, so the search is
restricted to the support.

The objective is convex (relative entropy plus a hinge of an affine term
minus a concave conditional entropy).  Writing |t|+ = max_{0<=beta<=1} beta*t
turns it into a concave one-dimensional dual

    phi(beta) = beta*gap - Lambda(beta),
    Lambda(beta) = log sum_s P(s) Z_s^(1+beta),  Z_s = sum_l P(l|s)^(1/(1+beta)),

whose inner minimum, min D(P'||P_L) - beta*H_c(P'), is attained at a
Renyi-type tilting x_beta of P_L: row s keeps P(l|s)^(1/(1+beta)) / Z_s and
the weight P(s) Z_s^(1+beta) / e^Lambda.  Lambda(beta) is beta times
Arimoto's conditional Renyi entropy H^A_(1/(1+beta))(L|S), so

    E(R) = max_{0<=beta<=1} beta*(k - kR - H^A_(1/(1+beta))(L|S)),

the form of Csiszar's exponent for linear codes under minimum-entropy
decoding (IEEE Trans. Inf. Theory 28, 585, 1982), which is how simconcat
decodes.  The same tilting gives D(x_beta||P_L) = beta*H_c(x_beta) -
Lambda(beta), so the objective at x_beta is beta*H_c - Lambda +
|gap - H_c|+: one evaluation at beta yields both the primal value at x_beta
and the dual bound without building x_beta.

The dual's slope is gap - H_c(x_beta), and with t = 1/(1+beta) both
H_c(x_beta) and its derivative, Var_w(H_s) + t^3 E_w[Var_s(log cond)] >= 0
over the tilted row weights w and rows s, have closed forms.  So the solver
runs Newton's method on g(beta) = H_c(x_beta) - gap, inside the bracket
[0, 1] kept from the signs of g seen so far, and bisects the bracket
whenever a Newton step would leave it, the slope is 0 or |g| fails to
halve.  g(0) = H_c(P_L) - gap, and g(1) and g'(1) come with the objective,
which depends on the code and channel only and is kept between calls, so a
scan over rates builds one array.  Newton starts at the root in (0, 1) of
the quadratic through g(0), g(1) and g'(1), or at the chord's root if the
quadratic has none there.  The search stops at the first evaluation with
|g| <= 1e-9 and g^2 <= 1e-17 g', where the Newton estimate g^2 / 2g' of
what the dual can still rise is below round-off, so a further step would
move phi by nothing that shows.  It also stops when a step would move beta
by at most a few ulps of 1, or the bracket is that narrow: H_c carries
about 1e-16 of round-off, so a finer beta buys nothing.

The exponent is read off the last evaluation as the dual bound
E = max(phi(beta), 0).  At or below the critical rate R_crit =
1 - H_c(x_1)/k, g(1) <= 0, the maximizer is beta = 1 and E = gap -
Lambda(1), affine in R, from the kept evaluation alone.  Above it the last
evaluation sits where the dual is flat to round-off.  Weak duality gives
phi(beta) <= E(R) <= f(x_beta) for every beta, and the objective at x_beta
exceeds phi(beta) by beta*g + |-g|+ at that beta's g.  The solver returns
that gap as an auditable optimality residual, so [E, E + residual] holds
the exponent, with the reported value at its conservative end: a search
that stopped short of the root leaves |g| and so the residual large.

Also hosts the type-combinatorics utilities (compositions, type counts) and
the brute-force grid oracle used to validate the solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._util import ConvergenceError, GuardError, ValidationError, is_int
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
    """The dual of f(P') = D(P'||P_L) + |gap - H_c(P')|+, restricted to
    supp(P_L): evaluate(beta) gives H_c(x_beta), its slope and Lambda(beta),
    none of which depends on the hinge threshold gap = k - kR.

    Cells are flattened with the row (syndrome) structure kept as an index
    array, so conditional entropies reduce to segment sums.  Nothing here
    depends on the rate: h_cond_pl = H_c(P_L) and at_one = evaluate(1.0)
    are computed once on construction, and the object never changes after
    that.
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
        self.at_one = self.evaluate(1.0)

    def row_sums(self, x: np.ndarray) -> np.ndarray:
        return np.bincount(self.row_of, weights=x, minlength=self.nrows)

    def evaluate(self, beta: float) -> tuple[float, float, float]:
        """H_c(x_beta), its derivative in beta, and the log-partition
        Lambda(beta), all base d, without building x_beta.

        With t = 1/(1+beta), row s holds cond_beta ∝ cond^t with normalizer
        Z_s and entropy H_s = log Z_s - t E_s[log cond], and carries the row
        weight w_s = marg_s Z_s^(1/t) / e^Lambda.
        H_c = E_w[H_s], and differentiating in beta gives
        Var_w(H_s) + t^3 E_w[Var_s(log cond)].
        """
        t = 1.0 / (1.0 + beta)
        tilted = np.exp(self.log_cond / (1.0 + beta))
        z = self.row_sums(tilted)
        cond = tilted / z[self.row_of]
        mean = self.row_sums(cond * self.log_cond)
        spread = self.row_sums(cond * (self.log_cond - mean[self.row_of]) ** 2)
        log_z = np.log(z)
        h_rows = log_z - t * mean
        log_w = self.log_marg + log_z / t
        top = log_w.max()
        w = np.exp(log_w - top)
        total = w.sum()
        w /= total
        h = w @ h_rows
        slope = w @ (h_rows - h) ** 2 + t**3 * (w @ spread)
        lam = top + math.log(total)
        return float(h / self.logd), float(slope / self.logd), float(lam / self.logd)


# the Newton iteration stops once a step moves beta by at most this much,
# or at an evaluation with |g| <= _G_TOL and g^2 <= _RISE_TOL g', where the
# Newton estimate g^2 / 2g' of the dual's remaining rise is below round-off
_BETA_TOL = 4.0 * math.ulp(1.0)
_G_TOL = 1e-9
_RISE_TOL = 1e-17
# exponent() raises ConvergenceError when the objective at x_beta exceeds its
# value, the dual bound, by more
_RESIDUAL_TOL = 1e-8
# exponent_grid_oracle() refuses grids of more (grid points x support cells):
# it holds one integer count per such cell, one byte each up to 255 steps,
# beside a few float vectors with one entry per grid point
_ORACLE_CELLS = 2**24


@dataclass(frozen=True)
class ExponentReport:
    """Solver output: the exponent value, its certificate, and context.

    value is the dual bound max(phi(beta), 0) at the last evaluation, the
    lower end of the certified interval [value, value + kkt_residual]: the
    objective at that evaluation's tilted distribution exceeds it by
    kkt_residual.

    iterations counts evaluations of the dual function (closed-form tiltings
    of P_L): one at beta = 1, whether the objective made it just now or was
    kept from an earlier call, and one per Newton or bisection step.  So a
    report does not depend on what was kept.  It is 0 when the rate is at
    or above the threshold, 1 when the maximizer is beta = 1 (at or below
    the critical rate), and typically 3 to 5 at an interior root; its worst
    case is about twice bisection's.
    """

    value: float
    kkt_residual: float
    rate: float
    threshold: float  # k - H_c(P_L); the exponent is positive iff kR < threshold
    critical_rate: float  # 1 - H_c(x_1)/k; E is affine in R at or below it
    iterations: int


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


def _checked_rate(code: StabilizerCode, R: float) -> float:
    """R as a float, refused unless it lies in [0, 1] and the code carries
    k >= 1 logical qudits for the outer code's rate to count."""
    R = float(R)
    if not 0.0 <= R <= 1.0:
        raise ValidationError(f"rate must lie in [0, 1], got {R}")
    if code.k < 1:
        raise ValidationError("the exponent needs a code with k >= 1")
    return R


def exponent(code: StabilizerCode, channel: PauliChannel, R: float) -> ExponentReport:
    """The error exponent E(R) for one (code, channel, rate) triple, base d.

    Consecutive calls on the same code and channel objects share one array
    and one objective, so a scan over rates builds them once.  The value is
    the dual bound at the last evaluation; raises ConvergenceError if the
    objective at that evaluation's tilted distribution exceeds it by more
    than _RESIDUAL_TOL = 1e-8.
    """
    R = _checked_rate(code, R)
    obj = _objective(code, channel)
    gap = code.k - code.k * R  # the hinge threshold on H_c
    threshold = code.k - obj.h_cond_pl
    h, slope, lam = obj.at_one
    critical_rate = 1.0 - h / code.k

    # the hinge is inactive at P_L itself: P' = P_L attains the global
    # minimum 0 whenever kR >= k - H_c(P_L)
    if code.k * R >= threshold:
        return ExponentReport(0.0, 0.0, R, threshold, critical_rate, 0)

    # concave dual line search over the hinge multiplier beta.  The dual
    # derivative is -g(beta) = gap - H_c(x_beta), nonincreasing by concavity,
    # so the maximizer is either beta = 1 (g still <= 0 there, R <= R_crit)
    # or the root of g, found by safeguarded Newton steps.  The objective's
    # evaluation at beta = 1 counts as one, kept or not.
    evals, beta = 1, 1.0
    g0, g = code.k * R - threshold, h - gap  # g(0) < 0 here
    if g > 0.0:
        # start from the root in (0, 1) of the quadratic through g(0), g(1)
        # and g'(1), written in u = beta - 1, or else from the chord's
        curve = g0 - g + slope
        denom = slope + math.sqrt(max(slope * slope - 4.0 * curve * g, 0.0))
        u = -2.0 * g / denom if denom > 0.0 else math.nan
        beta = 1.0 + u if -1.0 < u < 0.0 else -g0 / (g - g0)
        lo_b, hi_b, last = 0.0, 1.0, math.inf
        while True:
            evals += 1
            h, slope, lam = obj.evaluate(beta)
            g = h - gap
            if abs(g) <= _G_TOL and g * g <= _RISE_TOL * slope:
                break
            if g < 0.0:
                lo_b = beta
            else:
                hi_b = beta
            newton = beta - g / slope if slope > 0.0 else math.nan
            if abs(newton - beta) <= _BETA_TOL:
                break
            # bisect when Newton leaves the bracket or, right after a Newton
            # step, |g| did not halve
            if lo_b < newton < hi_b and abs(g) <= 0.5 * last:
                beta, last = newton, abs(g)
            elif hi_b - lo_b <= 2.0 * _BETA_TOL:
                break
            else:
                beta, last = 0.5 * (lo_b + hi_b), math.inf

    # the dual bound phi(beta) = beta gap - Lambda at the last evaluation;
    # E >= 0 by definition, so clamp the round-off just below the threshold.
    # The objective at x_beta, D(x_beta||P_L) + |gap - H_c|+ with
    # D = beta H_c - Lambda, exceeds phi(beta) by beta g + |-g|+ >= 0, which
    # is 0 at beta = 1 with g <= 0
    value = max(beta * gap - lam, 0.0)
    residual = beta * g + max(-g, 0.0)
    if residual > _RESIDUAL_TOL:
        raise ConvergenceError(
            f"exponent solver residual {residual:.3e} above tol {_RESIDUAL_TOL:.1e} "
            f"after {evals} dual evaluations")
    return ExponentReport(value, residual, R, threshold, critical_rate, evals)


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
    R = _checked_rate(code, R)
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
