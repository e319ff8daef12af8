"""Independent oracles for the tests: slow, direct implementations of what
the library computes by faster means, kept here so that the fast paths are
always checked against them."""

from __future__ import annotations

import math

import numpy as np

from qcap import GuardError, PauliChannel, StabilizerCode, ValidationError
from qcap.exponent import _Objective
from qcap.gf import index_to_digits
from qcap.simconcat import _decode_ctx, _OuterContext
from qcap.spectra import probability_array
from qcap.symplectic import Subspace, _DualEchelon, symplectic_dual


def digits_to_index(digits: np.ndarray, d: int) -> np.ndarray:
    """Fold little-endian base-d digit rows back into integer indices: the
    inverse of qcap.gf.index_to_digits."""
    digits = np.asarray(digits, dtype=np.int64)
    powers = d ** np.arange(digits.shape[-1], dtype=np.int64)
    return digits @ powers


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


def random_isotropic_dense(d: int, ambient: int, dim: int, rng: np.random.Generator
                           ) -> np.ndarray:
    """random_isotropic_basis by dense elimination: each step recomputes
    perp(current) from scratch and tests membership against rref."""
    rows = np.zeros((0, ambient), dtype=np.int64)
    for _ in range(dim):
        perp_basis = nullspace(symplectic_dual(rows, d), d, ambient)
        while True:
            v = (rng.integers(0, d, size=perp_basis.shape[0]) @ perp_basis) % d
            if rref(np.vstack([rows, v]), d)[0].shape[0] > rows.shape[0]:
                break
        rows = np.vstack([rows, v])
    return rows


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


def reference_exponent(code: StabilizerCode, channel: PauliChannel, R: float) -> float:
    """E(R) by bisection on the hinge multiplier beta down to adjacent floats,
    with H_c measured on the built tilted distribution: the solver that
    `exponent()` used before its Newton iteration."""
    arr = probability_array(code, channel)
    obj = _Objective(arr, code.k, R)
    if code.k * R >= code.k - arr.conditional_entropy(code.d):
        return 0.0

    def hinge_slack(beta: float) -> float:
        return obj.h_cond(obj.tilted(beta)[0]) - obj.gap

    beta_star = 1.0
    if hinge_slack(1.0) > 0.0:
        lo_b, hi_b = 0.0, 1.0
        while lo_b < (beta_star := 0.5 * (lo_b + hi_b)) < hi_b:
            if hinge_slack(beta_star) < 0.0:
                lo_b = beta_star
            else:
                hi_b = beta_star
    witness, _ = obj.tilted(beta_star)
    return max(obj.value(witness), 0.0)


def decode_min_conditional_entropy(inner: StabilizerCode, outer: Subspace | StabilizerCode,
                                   z_indices: np.ndarray, sigma: np.ndarray
                                   ) -> np.ndarray:
    """The syndrome-compatible candidate v' minimizing the conditional type
    entropy H(type of [z, v'] | type of z); ties go to the lexicographically
    smallest candidate digit vector.

    Returns the column indices of the decoded logical labels, one per block.
    """
    sub = outer.subspace if isinstance(outer, StabilizerCode) else outer
    ctx = _OuterContext(_DualEchelon.of(inner.d, sub.basis), inner.k, len(z_indices))
    return _decode_ctx(inner, ctx, np.asarray(z_indices), np.asarray(sigma))


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
