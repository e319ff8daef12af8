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
g(beta) = H_c(x_beta) - gap from beta = 0, inside the bracket [0, 1] kept
from the signs of g seen so far, and bisects the bracket whenever a Newton
step would leave it, the slope is 0 or |g| fails to halve.  It stops when
g = 0 or a step moves beta by at most a few ulps of 1: H_c carries about
1e-16 of round-off, so a finer beta buys nothing.  The tilted distribution at
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

from ._util import ConvergenceError, GuardError, ValidationError
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
    one per row, in lexicographic order."""
    if parts < 1 or total < 0:
        raise ValidationError("compositions needs parts >= 1 and total >= 0")
    # Grow prefixes one part at a time, a prefix with `left` to place getting
    # children 0..left in order; keep only parent links and read them back.
    left = np.array([total], dtype=np.int64)
    levels = []
    for _ in range(parts - 1):
        fan = left + 1
        parent = np.repeat(np.arange(left.size), fan)
        value = np.arange(parent.size) - np.repeat(np.cumsum(fan) - fan, fan)
        levels.append((parent, value))
        left = left[parent] - value
    out = np.empty((left.size, parts), dtype=np.int32)
    out[:, -1] = left
    row = np.arange(left.size)
    for j in range(parts - 2, -1, -1):
        parent, value = levels[j]
        out[:, j] = value[row]
        row = parent[row]
    return out


# ---------------------------------------------------------------------------
# objective pieces (everything in base-d logs)


class _Objective:
    """f(P') = D(P'||P_L) + |threshold_gap - H_c(P')|+, restricted to supp(P_L).

    Cells are flattened with the row (syndrome) structure kept as an index
    array, so conditional entropies reduce to segment sums.
    """

    def __init__(self, arr: ProbabilityArray, k: int, R: float):
        self.d = arr.d
        self.k = k
        self.R = R
        table = arr.table
        self.support = table.ravel() > 0.0
        self.p = table.ravel()[self.support]
        rows = np.repeat(np.arange(arr.rows), arr.cols)[self.support]
        # compress row labels to the rows that actually appear
        uniq, inv = np.unique(rows, return_inverse=True)
        self.row_of = inv
        self.nrows = uniq.size
        self.logd = math.log(self.d)
        self.gap = k - k * R  # k - kR, the hinge threshold on H_c
        self.marg = self.row_sums(self.p)
        self.log_marg = np.log(self.marg)
        self.log_cond = np.log(self.p / self.marg[self.row_of])

    def row_sums(self, x: np.ndarray) -> np.ndarray:
        return np.bincount(self.row_of, weights=x, minlength=self.nrows)

    def h_cond(self, x: np.ndarray) -> float:
        """H(logical | syndrome) of a support-restricted distribution, base d."""
        mask = x > 0
        h_joint = -np.sum(x[mask] * np.log(x[mask]))
        marg = self.row_sums(x)
        mm = marg > 0
        h_marg = -np.sum(marg[mm] * np.log(marg[mm]))
        return (h_joint - h_marg) / self.logd

    def value(self, x: np.ndarray) -> float:
        mask = x > 0
        div = np.sum(x[mask] * np.log(x[mask] / self.p[mask])) / self.logd
        return div + max(0.0, self.gap - self.h_cond(x))

    def _tilt(self, beta: float) -> tuple[np.ndarray, np.ndarray]:
        """cond_beta ∝ cond^(1/(1+beta)) and its row normalizers Z_s."""
        tilted = np.exp(self.log_cond / (1.0 + beta))
        z = self.row_sums(tilted)
        return tilted / z[self.row_of], z

    def tilted(self, beta: float) -> tuple[np.ndarray, float]:
        """Closed-form minimizer of D(P'||P_L) - beta * H_c(P') and the value
        of the dual function phi(beta) = beta*gap + that minimum."""
        cond, z = self._tilt(beta)
        row_weight = self.marg * z ** (1.0 + beta)
        total = row_weight.sum()
        x = row_weight[self.row_of] / total * cond
        return x, beta * self.gap - math.log(total) / self.logd

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
# exponent_grid_oracle() refuses grids of more (grid points x support cells)
_ORACLE_CELLS = 2**24


@dataclass(frozen=True)
class ExponentReport:
    """Solver output: the exponent value, its certificate, and context.

    iterations counts evaluations of the dual function (closed-form tiltings
    of P_L): one at beta = 1, one per Newton or bisection step, and one for
    the witness at the maximizer.  It is 0 when the rate is at or above the
    threshold, 2 when the maximizer is beta = 1, and typically 6 to 10 at an
    interior root; its worst case is about twice bisection's.
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


def exponent(code: StabilizerCode, channel: PauliChannel, R: float) -> ExponentReport:
    """The error exponent E(R) for one (code, channel, rate) triple, base d.

    Raises ConvergenceError if the returned value exceeds its dual
    certificate by more than _RESIDUAL_TOL = 1e-8.
    """
    R = float(R)
    if not 0.0 <= R <= 1.0:
        raise ValidationError(f"rate must lie in [0, 1], got {R}")
    arr = probability_array(code, channel)
    obj = _Objective(arr, code.k, R)
    threshold = code.k - arr.conditional_entropy(code.d)

    # the hinge is inactive at P_L itself: P' = P_L attains the global
    # minimum 0 whenever kR >= k - H_c(P_L)
    if code.k * R >= threshold:
        return ExponentReport(0.0, 0.0, R, threshold, 0)

    # concave dual line search over the hinge multiplier beta.  The dual
    # derivative is -g(beta) = gap - H_c(x_beta), nonincreasing by concavity,
    # so the maximizer is either beta = 1 (g still <= 0 there) or the root of
    # g, found by safeguarded Newton steps from beta = 0.
    evals = 0

    def slack(beta: float) -> tuple[float, float]:
        nonlocal evals
        evals += 1
        h, slope = obj.tilted_entropy(beta)
        return h - obj.gap, slope

    beta_star = 1.0
    if slack(1.0)[0] > 0.0:
        lo_b, hi_b, beta, last = 0.0, 1.0, 0.0, math.inf
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
    witness, phi_star = obj.tilted(beta_star)
    evals += 1

    # E >= 0 by definition; clamp the round-off just below the threshold
    value = max(obj.value(witness), 0.0)
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

    The search holds several float arrays of (grid points x support cells);
    the guard counts those cells and raises GuardError past
    _ORACLE_CELLS = 2^24, before the grid is built."""
    R = float(R)
    if not 0.0 <= R <= 1.0:
        raise ValidationError(f"rate must lie in [0, 1], got {R}")
    if grid_steps < 1:
        raise ValidationError(f"grid_steps must be >= 1, got {grid_steps}")
    arr = probability_array(code, channel)
    obj = _Objective(arr, code.k, R)
    m = obj.p.size
    npoints = math.comb(grid_steps + m - 1, m - 1)
    if npoints * m > _ORACLE_CELLS:
        raise GuardError(f"grid of {npoints} points x {m} support cells exceeds the "
                         f"oracle guard of {_ORACLE_CELLS} cells")
    counts = compositions(grid_steps, m).astype(np.float64)
    dist = counts / grid_steps

    logd = obj.logd
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = dist * np.log(dist / obj.p[None, :])
    terms[dist == 0.0] = 0.0
    div = terms.sum(axis=1) / logd

    with np.errstate(divide="ignore", invalid="ignore"):
        h_joint = -np.where(dist > 0, dist * np.log(dist), 0.0).sum(axis=1)
    marg = np.zeros((dist.shape[0], obj.nrows))
    np.add.at(marg.T, obj.row_of, dist.T)
    with np.errstate(divide="ignore", invalid="ignore"):
        h_marg = -np.where(marg > 0, marg * np.log(marg), 0.0).sum(axis=1)
    h_cond = (h_joint - h_marg) / logd

    vals = div + np.maximum(0.0, obj.gap - h_cond)
    return float(vals.min())
