"""Independent oracles for the tests: slow, direct implementations of what
the library computes by faster means, kept here so that the fast paths are
always checked against them."""

from __future__ import annotations

import math

import numpy as np

from qcap import GuardError, PauliChannel, SimConfig, StabilizerCode, ValidationError, simconcat
from qcap._util import entropy_nats
from qcap.exponent import _Objective, compositions
from qcap.gf import index_to_digits
from qcap.simconcat import _cell_cdf
from qcap.spectra import ProbabilityArray, probability_array
from qcap.symplectic import HyperbolicBasis, Subspace, symplectic_dual


# ---------------------------------------------------------------------------
# dense Gauss-Jordan elimination mod a prime: the reference for the library's
# incremental echelon forms, at every d


def rref(mat: np.ndarray, d: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over F_d: (R, pivots), the nonzero rows and
    the pivot column of each row, in increasing order."""
    a = np.array(mat, dtype=np.int64) % d
    nrows, ncols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        a[r] = (a[r] * pow(int(a[r, c]), d - 2, d)) % d
        for rr in range(nrows):
            if rr != r and a[rr, c] != 0:
                a[rr] = (a[rr] - a[rr, c] * a[r]) % d
        pivots.append(c)
        r += 1
    return a[:r], pivots


def nullspace(mat: np.ndarray, d: int, ncols: int | None = None) -> np.ndarray:
    """Basis rows of {x : mat @ x = 0 mod d}, one per free column of
    rref(mat), in increasing order."""
    mat = np.atleast_2d(np.asarray(mat, dtype=np.int64))
    if ncols is None:
        ncols = mat.shape[1]
    if mat.shape[0] == 0 or mat.size == 0:
        return np.eye(ncols, dtype=np.int64)
    red, pivots = rref(mat, d)
    free = [c for c in range(ncols) if c not in pivots]
    basis = np.zeros((len(free), ncols), dtype=np.int64)
    for i, fc in enumerate(free):
        basis[i, fc] = 1
        for r, pc in enumerate(pivots):
            basis[i, pc] = (-red[r, fc]) % d
    return basis


def solve_affine(mat: np.ndarray, rhs: np.ndarray, d: int) -> np.ndarray | None:
    """The solution x of mat @ x = rhs mod d that is zero at the free
    columns, or None if the system is inconsistent."""
    sols = solve_affine_multi(mat, np.asarray(rhs).reshape(-1, 1), d)
    return None if sols is None else sols[0]


def solve_affine_multi(mat: np.ndarray, rhs_cols: np.ndarray, d: int) -> np.ndarray | None:
    """solve_affine for each column of rhs_cols, one solution row per
    column; None if any system is inconsistent."""
    mat = np.atleast_2d(np.asarray(mat, dtype=np.int64)) % d
    rhs_cols = np.atleast_2d(np.asarray(rhs_cols, dtype=np.int64)) % d
    ncols = mat.shape[1]
    red, pivots = rref(np.hstack([mat, rhs_cols]), d)
    if any(pc >= ncols for pc in pivots):
        return None
    out = np.zeros((rhs_cols.shape[1], ncols), dtype=np.int64)
    for r, pc in enumerate(pivots):
        out[:, pc] = red[r, ncols:]
    return out


def random_isotropic_dense(d: int, ambient: int, dim: int, rng: np.random.Generator,
                           trials: int = 1) -> list[np.ndarray]:
    """The isotropic sampler's rows of `trials` subspaces by dense
    elimination: each step recomputes perp(current) from scratch and tests
    membership against rref.  The digits are read as the library reads
    them: at dimension i, each round of attempts draws one
    (len(todo), ambient - i) block, row r for the r-th trial still drawing."""
    rows = [np.zeros((0, ambient), dtype=np.int64) for _ in range(trials)]
    for i in range(dim):
        perps = [nullspace(symplectic_dual(r, d), d, ambient) for r in rows]
        todo = list(range(trials))
        while todo:
            missed = []
            for t, coeffs in zip(todo, rng.integers(0, d, (len(todo), ambient - i))):
                v = (coeffs @ perps[t]) % d
                if rref(np.vstack([rows[t], v]), d)[0].shape[0] > rows[t].shape[0]:
                    rows[t] = np.vstack([rows[t], v])
                else:
                    missed.append(t)
            todo = missed
    return rows


def hyperbolic_complete_dense(L: Subspace, rng: np.random.Generator | None = None
                              ) -> tuple[np.ndarray, np.ndarray]:
    """The completion (g, h) by the classical two-stage pairing on dense
    matrices.  Each partner solves its constraint system in the coordinates
    of a basis of the remainder space, which then shrinks to the part
    orthogonal to the new pair.

    Without rng this is the canonical completion that `hyperbolic_complete`
    reads off its echelon form: each partner is the particular solution,
    zero at the free columns, and each fresh g is the first vector of the
    remainder basis.  With rng, each partner adds a uniform vector of the
    solution kernel and each fresh g is a uniform nonzero vector of the
    remainder, which gives another valid completion of the same basis."""
    d, n = L.d, L.ambient // 2

    def constrained(v_basis, targets, rhs):
        products = symplectic_dual(targets, d) @ v_basis.T % d
        coeffs = solve_affine(products, rhs, d)
        ker = nullspace(products, d, len(v_basis))
        if rng is not None and len(ker):
            coeffs = (coeffs + rng.integers(0, d, size=len(ker)) @ ker) % d
        return coeffs @ v_basis % d

    def fresh(v_basis):
        if rng is None:
            return v_basis[0]
        while not (coeffs := rng.integers(0, d, size=len(v_basis))).any():
            pass
        return coeffs @ v_basis % d

    def shrink(v_basis, g, h):
        products = symplectic_dual(np.array([g, h]), d) @ v_basis.T % d
        return nullspace(products, d, len(v_basis)) @ v_basis % d

    gs = list(L.basis)
    hs = [None] * L.dim
    v_basis = np.eye(2 * n, dtype=np.int64)
    for l in range(L.dim, 0, -1):
        hs[l - 1] = constrained(v_basis, np.array(gs[:l]), np.eye(l, dtype=np.int64)[l - 1])
        v_basis = shrink(v_basis, gs[l - 1], hs[l - 1])
    for _ in range(L.dim, n):
        gs.append(fresh(v_basis))
        hs.append(constrained(v_basis, gs[-1][None], np.ones(1, dtype=np.int64)))
        v_basis = shrink(v_basis, gs[-1], hs[-1])
    return np.array(gs), np.array(hs)


def random_completion(L: Subspace, seed) -> HyperbolicBasis:
    """A seeded random hyperbolic completion of L's ordered basis, for tests
    whose claim must hold for every completion and not only the canonical
    one."""
    g, h = hyperbolic_complete_dense(L, np.random.default_rng(seed))
    return HyperbolicBasis(L.d, g, h)


# ---------------------------------------------------------------------------
# channels, syndromes and the probability array


def product_prob(ch: PauliChannel, x: np.ndarray) -> float:
    """Probability P^n(x) = prod_i P(u_i, v_i) of an interleaved error vector."""
    x = np.asarray(x, dtype=np.int64)
    if x.ndim != 1 or x.size % 2 != 0:
        raise ValidationError("error vector must be a 1-d array of even length")
    return float(np.prod(ch.matrix[x[0::2] % ch.d, x[1::2] % ch.d]))


def completion_syndrome(basis: HyperbolicBasis, x: np.ndarray, n_minus_k: int) -> np.ndarray:
    """The first n-k pairings (<g_i, x>)_i identifying the coset of perp(L),
    read off the z rows of the completion's chi matrix."""
    x = np.asarray(x, dtype=np.int64)
    return (basis.chi[1:2 * n_minus_k:2] @ x) % basis.d


def pushforward(code: StabilizerCode, channel: PauliChannel) -> np.ndarray:
    """The probability array's table built in one shot, site tables and all,
    as probability_array built it before the tables were kept on the code:
    the reference for the split build, which must match it bit for bit."""
    d, n, k = code.d, code.n, code.k
    nk, m = n - k, n + k
    full = code.completion.chi
    chi = np.concatenate([full[2 * nk:], full[1:2 * nk:2]])
    letters = np.indices((d, d)).reshape(2, -1).T
    shifts = (letters @ chi.reshape(m, n, 2).transpose(1, 2, 0)) % d
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


def sample_error(array: ProbabilityArray, N: int, rng: np.random.Generator
                 ) -> tuple[np.ndarray, np.ndarray]:
    """N i.i.d. draws from the inner probability array, one per outer block,
    as (row, column) index arrays, read off N uniforms from rng as simulate
    reads a trial's errors off its row of uniforms."""
    draws = np.searchsorted(_cell_cdf(array), rng.random(N), side="right")
    return draws // array.cols, draws % array.cols


def kl_divergence(P, Q, base: float) -> float:
    """D(P||Q) in the given base; +inf iff P puts mass outside supp(Q)."""
    P = np.asarray(P, dtype=float).ravel()
    Q = np.asarray(Q, dtype=float).ravel()
    if P.shape != Q.shape:
        raise ValidationError("distributions must have the same shape")
    if (P < 0).any() or (Q < 0).any():
        raise ValidationError("distributions must be nonnegative")
    if np.any((P > 0) & (Q == 0)):
        return math.inf
    mask = P > 0
    return float(np.sum(P[mask] * np.log(P[mask] / Q[mask])) / math.log(base))


def tilted(obj: _Objective, beta: float) -> np.ndarray:
    """The tilted distribution x_beta built cell by cell: row s keeps the
    conditional law cond^t / Z_s, t = 1/(1+beta), and the row weight
    marg_s Z_s^(1+beta) / sum_s' marg_s' Z_s'^(1+beta).  It minimizes
    D(P'||P_L) - beta H_c(P') over the support."""
    cond = np.exp(obj.log_cond / (1.0 + beta))
    z = obj.row_sums(cond)
    cond /= z[obj.row_of]
    row_weight = obj.marg * z ** (1.0 + beta)
    return row_weight[obj.row_of] / row_weight.sum() * cond


def h_cond(obj: _Objective, x: np.ndarray) -> float:
    """H(logical | syndrome) of a support-restricted distribution, base d."""
    return (entropy_nats(x) - entropy_nats(obj.row_sums(x))) / obj.logd


def objective_value(obj: _Objective, x: np.ndarray, gap: float) -> float:
    """The exponent objective D(x||P_L) + |gap - H_c(x)|+ at a
    support-restricted distribution, base d."""
    return kl_divergence(x, obj.p, obj.d) + max(0.0, gap - h_cond(obj, x))


def arimoto_entropy(arr: ProbabilityArray, alpha: float) -> float:
    """Arimoto's conditional Renyi entropy of order alpha != 1 of the
    logical given the syndrome, base d, straight from the array:
    alpha/(1-alpha) log sum_s (sum_l P(s,l)^alpha)^(1/alpha)."""
    inner = (arr.table ** alpha).sum(axis=1) ** (1.0 / alpha)
    return alpha / (1.0 - alpha) * math.log(inner.sum()) / math.log(arr.d)


def reference_exponent(code: StabilizerCode, channel: PauliChannel, R: float) -> float:
    """E(R) by bisection on the hinge multiplier beta down to adjacent floats,
    with H_c and the objective measured on the built tilted distribution:
    the solver that `exponent()` used before its Newton iteration."""
    arr = probability_array(code, channel)
    obj = _Objective(arr)
    gap = code.k - code.k * R
    if code.k * R >= code.k - arr.conditional_entropy(code.d):
        return 0.0

    def hinge_slack(beta: float) -> float:
        return h_cond(obj, tilted(obj, beta)) - gap

    beta_star = 1.0
    if hinge_slack(1.0) > 0.0:
        lo_b, hi_b = 0.0, 1.0
        while lo_b < (beta_star := 0.5 * (lo_b + hi_b)) < hi_b:
            if hinge_slack(beta_star) < 0.0:
                lo_b = beta_star
            else:
                hi_b = beta_star
    return max(objective_value(obj, tilted(obj, beta_star), gap), 0.0)


def grid_oracle_tables(code: StabilizerCode, channel: PauliChannel, R: float,
                       grid_steps: int) -> float:
    """The exponent objective's minimum over the grid with denominator
    grid_steps, from the whole grid's integer counts: the body
    `exponent_grid_oracle` had before it streamed the grid in blocks.  Each
    point's terms are read from tables over the counts and added cell by
    cell, in float vectors with one entry per grid point."""
    obj = _Objective(probability_array(code, channel))
    m = obj.p.size
    counts = compositions(grid_steps, m)
    npoints = counts.shape[0]

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
    np.subtract(code.k - code.k * float(R), h, out=h)  # the hinge's gap - H_c
    np.maximum(h, 0.0, out=h)
    div += h
    return float(div.min())


def grid_oracle_dense(code: StabilizerCode, channel: PauliChannel, R: float,
                      grid_steps: int) -> float:
    """The exponent objective's minimum over the grid with denominator
    grid_steps, from float arrays of (grid points x support cells): the body
    `exponent_grid_oracle` had before it read its terms from tables."""
    arr = probability_array(code, channel)
    obj = _Objective(arr)
    counts = compositions(grid_steps, obj.p.size).astype(np.float64)
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

    vals = div + np.maximum(0.0, code.k - code.k * float(R) - h_cond)
    return float(vals.min())


# ---------------------------------------------------------------------------
# the decoder one trial at a time: the reference for simconcat's trial axis


class OuterContext:
    """The decoding machinery of one outer code with generator rows basis
    (kN-K, 2kN): syndrome map, the two halves of the candidate coset
    enumeration, and membership tests.  perp(C_out) and the syndrome
    representatives come from dense elimination."""

    def __init__(self, d: int, basis: np.ndarray, k: int, N: int):
        self.d = d
        self.k = k
        self.N = N
        length = 2 * k * N
        basis = np.asarray(basis, dtype=np.int64).reshape(-1, length)
        self.dual = symplectic_dual(basis, d)
        # representatives y_i with <g'_i, y_j> = delta_ij, so that
        # v0 = sigma @ reps has syndrome sigma
        self.perp_basis = nullspace(self.dual, d, length)
        self.reps = (solve_affine_multi(self.dual, np.eye(len(basis), dtype=np.int64), d)
                     if len(basis) else np.zeros((0, length), dtype=np.int64))
        # C_out = perp(perp(C_out)): x lies in C_out iff it pairs to zero
        # with every row of perp_basis
        self._perp_dual = symplectic_dual(self.perp_basis, d)
        cols = d ** (2 * k)
        self._dtype = np.min_scalar_type(cols - 1)
        self._powers = d ** np.arange(2 * k, dtype=np.int64)
        half = self.perp_basis.shape[0] // 2
        self._head_span = self._span(self.perp_basis[:half])
        tail = self._symbols(self._span(self.perp_basis[half:]))
        # _tail_sums[j, s, b]: the symbol of s plus block j of the b-th vector
        # of the second half's span, added digit by digit
        symbols = np.arange(cols, dtype=self._dtype)
        self._tail_sums = np.zeros((N, cols, tail.shape[1]), dtype=self._dtype)
        for power in self._powers.tolist():
            digit_sum = symbols[None, :, None] // power % d + tail[:, None, :] // power % d
            self._tail_sums += digit_sum % d * power

    def _span(self, basis: np.ndarray) -> np.ndarray:
        """All d^h vectors of span(basis), basis (h, 2kN), as digit rows."""
        h = basis.shape[0]
        return index_to_digits(np.arange(self.d**h), self.d, h) @ basis % self.d

    def _symbols(self, vecs: np.ndarray) -> np.ndarray:
        """(N, m) per-block symbols of m digit vectors."""
        blocks = vecs.reshape(-1, self.N, 2 * self.k) @ self._powers
        return blocks.T.astype(self._dtype)

    def syndrome(self, v_digits: np.ndarray) -> np.ndarray:
        return (self.dual @ v_digits) % self.d

    def contains(self, x: np.ndarray) -> bool:
        return not (self._perp_dual @ x % self.d).any()

    def candidate_symbols(self, sigma: np.ndarray) -> np.ndarray:
        """Per-block logical symbols (N x Q) of every v' with syndrome sigma.

        The coset v0 + perp(C_out) is enumerated as v0 + span(first half of
        the basis) plus span(second half), summing symbols block by block.
        """
        v0 = (sigma @ self.reps) % self.d
        head = self._symbols((self._head_span + v0) % self.d)
        return self._tail_sums[np.arange(self.N)[:, None], head].reshape(self.N, -1)


def decode_ctx(inner: StabilizerCode, ctx: OuterContext, z_indices: np.ndarray,
               sigma: np.ndarray) -> np.ndarray:
    """The candidate of minimum conditional type entropy among those with
    outer syndrome sigma, scored per z-group with uint8 counts, screened by
    a float product and compared exactly as Python ints."""
    syms = ctx.candidate_symbols(sigma)
    z = np.asarray(z_indices)
    # counts[j, c]: the blocks of candidate c whose joint symbol (z, v') equals
    # block j's; blocks with different syndromes never share one
    counts = np.empty(syms.shape, dtype=np.uint8)
    for s in set(z.tolist()):
        group = np.flatnonzero(z == s)
        block = syms[group]
        counts[group] = (block[:, None, :] == block[None, :, :]).sum(axis=1, dtype=np.uint8)
    # the product over blocks is the entropy key prod c^c; as a float it is
    # exact below 2^53 and within N ulps beyond, so it only screens
    score = counts.prod(axis=0, dtype=np.float64)
    near = np.flatnonzero(score >= score.max() * (1 - 1e-12))
    if near.size > 1:
        keys = [math.prod(col) for col in counts[:, near].T.tolist()]
        top = max(keys)
        tied = near[[key == top for key in keys]]
        digits = index_to_digits(syms[:, tied].T.ravel(), inner.d, 2 * inner.k)
        rows = digits.reshape(tied.size, -1).tolist()
        winner = int(tied[min(range(tied.size), key=rows.__getitem__)])
    else:
        winner = int(near[0])
    return syms[:, winner].astype(np.int64)


def decode_min_conditional_entropy(inner: StabilizerCode, outer: Subspace | StabilizerCode,
                                   z_indices: np.ndarray, sigma: np.ndarray
                                   ) -> np.ndarray:
    """The syndrome-compatible candidate v' minimizing the conditional type
    entropy H(type of [z, v'] | type of z); ties go to the lexicographically
    smallest candidate digit vector.

    Returns the column indices of the decoded logical labels, one per block.
    """
    sub = outer.subspace if isinstance(outer, StabilizerCode) else outer
    ctx = OuterContext(inner.d, sub.basis, inner.k, len(z_indices))
    return decode_ctx(inner, ctx, np.asarray(z_indices), np.asarray(sigma))


def trial_rows(cfg: SimConfig) -> list[dict]:
    """The trials of simconcat.simulate(cfg), one row each, read off the
    records of its batches (simconcat._batches)."""
    return [{"trial": t, "failure": not good, "z": zt, "v": vt, "v_hat": ht}
            for trials, z, v, v_hat, ok in simconcat._batches(cfg)
            for t, good, zt, vt, ht in zip(trials, ok.tolist(), z.tolist(), v.tolist(),
                                           v_hat.tolist())]


def simulate_per_trial(cfg: SimConfig) -> list[dict]:
    """The rows of trial_rows(cfg), one trial at a time, under seed
    contract v4.  Batch b of simconcat._BATCH trials reads the generator
    (seed, b): first every trial's error uniforms, then, with a resampled
    outer code, every trial's outer code by the dense sampler.  The
    explicit outer code, or the one drawn from (seed, 0, 2), is shared.
    Each trial decodes with decode_ctx."""
    inner = cfg.inner
    d, k, N, K = inner.d, inner.k, cfg.N, cfg.K
    arr = probability_array(inner, cfg.channel)
    cdf = _cell_cdf(arr)
    ambient, dim = 2 * k * N, k * N - K
    fixed = None
    if cfg.outer is not None:
        fixed = OuterContext(d, cfg.outer.basis, k, N)
    elif not cfg.resample_outer:
        rows = random_isotropic_dense(d, ambient, dim, np.random.default_rng((cfg.seed, 0, 2)))
        fixed = OuterContext(d, rows[0], k, N)
    col_digits = index_to_digits(np.arange(arr.cols), d, 2 * k)
    trace = []
    for batch, start in enumerate(range(0, cfg.trials, simconcat._BATCH)):
        count = min(simconcat._BATCH, cfg.trials - start)
        rng = np.random.default_rng((cfg.seed, batch))
        uniforms = rng.random((count, N))
        outers = (random_isotropic_dense(d, ambient, dim, rng, count)
                  if fixed is None else [None] * count)
        for t, (u, rows) in enumerate(zip(uniforms, outers), start):
            ctx = fixed if fixed is not None else OuterContext(d, rows, k, N)
            draws = np.searchsorted(cdf, u, side="right")
            z, v = draws // arr.cols, draws % arr.cols
            v_digits = col_digits[v].ravel()
            v_hat = decode_ctx(inner, ctx, z, ctx.syndrome(v_digits))
            ok = ctx.contains((col_digits[v_hat].ravel() - v_digits) % d)
            trace.append({"trial": t, "failure": not ok, "z": z.tolist(), "v": v.tolist(),
                          "v_hat": v_hat.tolist()})
    return trace


def fidelity_bound_brute(inner: StabilizerCode, N: int, K: int, channel: PauliChannel,
                         *, max_sequences: int = 1 << 20) -> float:
    """The type-sum bound of `fidelity_bound_exact` evaluated without type
    grouping: a direct sum over all [z, v] sequences, counting competitor
    sequences one by one."""
    d, n, k = inner.d, inner.n, inner.k
    if N < 1:
        raise ValidationError("need at least one outer block")
    if not 0 <= K <= k * N:
        raise ValidationError(f"K must lie in [0, kN] = [0, {k * N}]")
    arr = probability_array(inner, channel)
    rows, cols = arr.rows, arr.cols
    m = rows * cols
    total = m**N
    if total > max_sequences:
        raise GuardError(f"{total} sequences exceed the guard {max_sequences}")
    flat = arr.table.ravel()

    seqs = index_to_digits(np.arange(total), m, N)
    probs = flat[seqs].prod(axis=1)
    zseqs = seqs // cols

    pow_table = [c**c for c in range(N + 1)]
    keys = []
    for row in seqs:
        counts = np.bincount(row, minlength=m)
        acc = 1
        for c in counts:
            if c > 1:
                acc *= pow_table[c]
        keys.append(acc)

    groups: dict[bytes, list[int]] = {}
    for idx in range(total):
        groups.setdefault(zseqs[idx].tobytes(), []).append(idx)

    scale = float(d) ** (K - k * N)
    bound_terms = []
    for members in groups.values():
        members.sort(key=lambda i: keys[i], reverse=True)
        run_start = 0
        cum = 0
        while run_start < len(members):
            run_end = run_start
            while run_end < len(members) and keys[members[run_end]] == keys[members[run_start]]:
                run_end += 1
            cum += run_end - run_start
            for i in members[run_start:run_end]:
                bound_terms.append(probs[i] * min(cum * scale, 1.0))
            run_start = run_end
    return math.fsum(bound_terms)


# ---------------------------------------------------------------------------
# the decoder's exact ensemble failure rate: every outer code, every error


def _lex_vectors(d: int, length: int) -> np.ndarray:
    """All of F_d^length as digit rows in lexicographic order: row i is the
    vector whose digits, read from position 0, spell i in base d."""
    return index_to_digits(np.arange(d**length), d, length)[:, ::-1]


def isotropic_subspaces(d: int, ambient: int, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Every isotropic subspace of F_d^ambient of the given dimension, as
    (generator rows (S, dim, ambient), member masks (S, d^ambient)) with
    vectors indexed as in _lex_vectors.

    The spans grow one vector at a time: each span of dimension i is
    extended by every vector that pairs to zero with its generators and
    lies outside it, and spans with equal member sets are kept once."""
    vecs = _lex_vectors(d, ambient)
    size = len(vecs)
    lex = d ** np.arange(ambient - 1, -1, -1)
    pairs = symplectic_dual(vecs, d) @ vecs.T % d
    # add[x, y] and mul[a, y]: the indices of x + y and of a * y
    add = (vecs[:, None, :] + vecs[None, :, :]) % d @ lex
    mul = (np.arange(d)[:, None, None] * vecs[None]) % d @ lex
    gens = np.zeros((1, 0), dtype=np.int64)
    members = np.zeros((1, 1), dtype=np.int64)
    for _ in range(dim):
        fits = ~pairs[gens].any(axis=1)
        fits[np.arange(len(members))[:, None], members] = False
        span, v = np.nonzero(fits)
        grown = add[members[span][:, :, None], mul[:, v].T[:, None, :]]
        grown = np.sort(grown.reshape(len(v), -1), axis=1)
        order = np.lexsort(grown.T)
        fresh = np.ones(len(order), dtype=bool)
        fresh[1:] = (grown[order[1:]] != grown[order[:-1]]).any(axis=1)
        first = order[fresh]
        gens = np.hstack([gens[span[first]], v[first, None]])
        members = grown[first]
    masks = np.zeros((len(members), size), dtype=bool)
    masks[np.arange(len(members))[:, None], members] = True
    return vecs[gens], masks


def ensemble_failure_exact(inner: StabilizerCode, N: int, K: int, channel: PauliChannel
                           ) -> tuple[float, np.ndarray]:
    """The decoder's failure rate averaged over every isotropic outer code
    of dimension kN - K, with no sampling: (the average, each code's rate).

    For a code C and a syndrome sequence z, every v in one coset of perp(C)
    has the same outer syndrome and so the same decoded v_hat: the coset's
    member w of largest key prod c^c of the joint type of (z, w), ties to
    the lexicographically smallest digit vector.  A trial (z, v) succeeds
    iff v - w lies in C, so each code's failure rate is a sum of products
    of array cells over the (z, v) that miss.  The codes are handled about
    2^20 (code, z, v) cells at a time."""
    arr = probability_array(inner, channel)
    zs = index_to_digits(np.arange(arr.rows**N), arr.rows, N)
    return _ensemble_failure(inner, N, K, arr, zs,
                             lambda symbols: arr.table[zs[:, None, :], symbols[None]].prod(axis=-1))


def set_partitions(N: int) -> np.ndarray:
    """Every set partition of N blocks, as the Bell(N) restricted growth
    strings a (a_0 = 0, a_j <= 1 + max(a_<j)), in lexicographic order:
    blocks j and j' share a part iff a_j = a_j'."""
    strings = [()]
    for _ in range(N):
        strings = [a + (c,) for a in strings for c in range(max(a, default=-1) + 2)]
    return np.array(strings, dtype=np.int64).reshape(len(strings), N)


def ensemble_failure_by_pattern(inner: StabilizerCode, N: int, K: int, channel: PauliChannel
                                ) -> tuple[float, np.ndarray]:
    """ensemble_failure_exact with one syndrome sequence per equality
    pattern: Bell(N) of them in place of rows^N.

    The decoder reads z only through the keys z_j * cols + w_j of a
    candidate w, and only through which blocks share a key: blocks j and j'
    do iff z_j = z_j' and w_j = w_j'.  The key prod c^c counts those shares,
    and ties go to the lexicographically smallest w, which does not involve
    z.  So relabelling the syndromes by any injection leaves v_hat, and
    whether (z, v) fails, unchanged: both depend on z only through its
    pattern sigma, the set partition of the blocks into equal syndromes.
    Each code's rate is then the sum over (sigma, v) of the failure of one
    representative of sigma times P(sigma, v), the probability that the
    syndromes have pattern exactly sigma and the logicals are v.

    For a partition pi, the z constant on every part of pi (the z whose
    pattern is pi or coarser) have total probability
    F(pi, v) = prod_{B in pi} sum_s prod_{j in B} q[s, v_j], so
    F(pi) = sum_{sigma >= pi} P(sigma), and Moebius inversion on the
    partition lattice gives P(sigma) = sum_{pi >= sigma} mu(sigma, pi)
    F(pi), with mu(sigma, pi) = prod_{B in pi} (-1)^(m-1) (m-1)! where m
    is the number of parts of sigma merged into B.  The coarser pi are the
    set partitions of sigma's parts.  A pattern with more parts than the
    array has rows gets P = 0, up to rounding."""
    arr = probability_array(inner, channel)
    patterns = set_partitions(N)

    def pattern_probs(symbols: np.ndarray) -> np.ndarray:
        # the factors F of every nonempty set of blocks, by its bit mask
        factor = {mask: arr.table[:, symbols[:, [j for j in range(N) if mask >> j & 1]]]
                  .prod(axis=-1).sum(axis=0) for mask in range(1, 1 << N)}
        prob = np.zeros((len(patterns), len(symbols)))
        for sigma, row in zip(patterns, prob):
            parts = [int((1 << np.flatnonzero(sigma == b)).sum()) for b in range(sigma.max() + 1)]
            for merge in set_partitions(len(parts)):
                term = 1.0
                for b in range(merge.max() + 1):
                    merged = np.flatnonzero(merge == b)
                    m = len(merged)
                    term *= ((-1) ** (m - 1) * math.factorial(m - 1)
                             * factor[sum(parts[i] for i in merged)])
                row += term
        return prob

    return _ensemble_failure(inner, N, K, arr, patterns, pattern_probs)


def _ensemble_failure(inner: StabilizerCode, N: int, K: int, arr: ProbabilityArray,
                      zs: np.ndarray, probs) -> tuple[float, np.ndarray]:
    """Each code's failure rate summed over the syndrome sequences zs and
    every v, weighted by probs(symbols), the (len(zs), d^2kN) probability
    of each (z, v) given the per-block symbols of every v."""
    d, k = inner.d, inner.k
    length, dim = 2 * k * N, k * N - K
    codes, in_code = isotropic_subspaces(d, length, dim)
    vecs = _lex_vectors(d, length)
    size = len(vecs)
    symbols = vecs.reshape(size, N, 2 * k) @ d ** np.arange(2 * k)
    joint = zs[:, None, :] * arr.cols + symbols[None]
    # key[z, v] = prod over blocks of the blocks that share the block's joint symbol
    key = (joint[..., :, None] == joint[..., None, :]).sum(axis=-1).prod(axis=-1)
    prob = probs(symbols)
    # the vectors of each z in decoding preference; a stable sort keeps the
    # lexicographic order among equal keys
    ranked = np.argsort(-key, axis=1, kind="stable")
    lex = d ** np.arange(length - 1, -1, -1)
    diff = (vecs[:, None, :] - vecs[None, :, :]) % d @ lex
    syndromes = symplectic_dual(codes, d) @ vecs.T % d
    labels = np.moveaxis(syndromes, 1, -1) @ d ** np.arange(dim)
    group = size // d**dim
    z_index = np.arange(len(zs))[:, None]
    rates = []
    step = max(1, (1 << 20) // (len(zs) * size))
    for at in range(0, len(codes), step):
        chunk = slice(at, at + step)
        # each code's vectors in preference order, regrouped by syndrome
        # with a stable sort: every group of `group` starts with its winner
        order = np.argsort(labels[chunk][:, ranked], axis=-1, kind="stable")
        v = ranked[z_index, order]
        w = np.repeat(v[..., ::group], group, axis=-1)
        ok = np.take_along_axis(in_code[chunk], diff[v, w].reshape(len(v), -1), axis=1)
        rates.append((prob[z_index, v] * ~ok.reshape(v.shape)).sum(axis=(1, 2)))
    rates = np.concatenate(rates)
    return float(rates.mean()), rates
