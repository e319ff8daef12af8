"""Small-dimension dense-matrix oracle: Weyl operators, code projectors,
channel actions, purifications, and a direct coherent-information computation.

This module exists to cross-check the classical probability-array route.
Everything is explicit complex linear algebra with an intentional dimension
cap, so phases never need bookkeeping: they are carried exactly by the
matrix products.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import reduce
from itertools import product

import numpy as np

from ._util import GuardError, ValidationError
from .channels import PauliChannel
from .codes import StabilizerCode
from .gf import _check_modulus

DEFAULT_DIM_CAP = 256
_PSD_TOL = 1e-10


@dataclass(frozen=True)
class DenseOperator:
    """A dense complex matrix with a guarded dimension."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValidationError("operator must be a square matrix")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def is_unitary(self, tol: float = 1e-12) -> bool:
        eye = np.eye(self.dim)
        return bool(np.allclose(self.matrix @ self.matrix.conj().T, eye, atol=tol))


@dataclass(frozen=True)
class EigenvalueList:
    """Chosen eigenvalues mu_i of the stabilizer generators; mu_i^d is the
    scalar lambda_i with N_{g_i}^d = lambda_i * I."""

    values: tuple[complex, ...]

    def __post_init__(self):
        for mu in self.values:
            if abs(abs(mu) - 1.0) > 1e-9:
                raise ValidationError("stabilizer eigenvalues must have modulus 1")


def weyl_operator(d: int, u: tuple[int, int]) -> DenseOperator:
    """The d x d operator X^i Z^j for the letter u = (i, j).

    X sends basis vector e_j to e_{(j-1) mod d}; Z multiplies e_j by omega^j
    with omega = exp(2*pi*i/d).
    """
    d = _check_modulus(d)
    return DenseOperator(_weyl_matrix(d, int(u[0]) % d, int(u[1]) % d))


def _weyl_matrix(d: int, i: int, j: int) -> np.ndarray:
    omega = cmath.exp(2j * cmath.pi / d)
    x = np.zeros((d, d), dtype=np.complex128)
    for col in range(d):
        x[(col - 1) % d, col] = 1.0
    z = np.diag([omega**row for row in range(d)])
    return np.linalg.matrix_power(x, i) @ np.linalg.matrix_power(z, j)


def weyl_string(d: int, coords) -> np.ndarray:
    """The n-fold tensor product operator indexed by an interleaved vector."""
    coords = list(int(c) % d for c in coords)
    if len(coords) % 2 != 0:
        raise ValidationError("error index must have even length")
    singles = {(i, j): _weyl_matrix(d, i, j) for i in range(d) for j in range(d)}
    factors = [singles[(coords[2 * t], coords[2 * t + 1])] for t in range(len(coords) // 2)]
    return reduce(np.kron, factors) if factors else np.eye(1, dtype=np.complex128)


def _generator_operators(code: StabilizerCode, cap: int) -> list[np.ndarray]:
    dim = code.d**code.n
    if dim > cap:
        raise GuardError(f"dimension d^n = {dim} exceeds the oracle cap {cap}")
    return [weyl_string(code.d, row) for row in code.generators]


def _scalar_of_power(op: np.ndarray, d: int) -> complex:
    power = np.linalg.matrix_power(op, d)
    lam = power[0, 0]
    if not np.allclose(power, lam * np.eye(power.shape[0]), atol=1e-10):
        raise ValidationError("generator's d-th power is not scalar")
    return complex(lam)


def stabilizer_eigenvalues(code: StabilizerCode, *, cap: int = DEFAULT_DIM_CAP) -> EigenvalueList:
    """Principal d-th roots of the scalars N_{g_i}^d = lambda_i I."""
    ops = _generator_operators(code, cap)
    mus = []
    for op in ops:
        lam = _scalar_of_power(op, code.d)
        mus.append(cmath.exp(cmath.log(lam) / code.d))
    return EigenvalueList(tuple(mus))


def _averager(op: np.ndarray, mu: complex, d: int) -> np.ndarray:
    dim = op.shape[0]
    acc = np.eye(dim, dtype=np.complex128)
    term = np.eye(dim, dtype=np.complex128)
    scaled = op / mu
    for _ in range(d - 1):
        term = term @ scaled
        acc = acc + term
    return acc / d


def code_projector(code: StabilizerCode, mu: EigenvalueList | None = None, *,
                   cap: int = DEFAULT_DIM_CAP) -> tuple[DenseOperator, EigenvalueList]:
    """The rank-d^k projector onto the joint eigenspace of the stabilizer.

    With mu=None the eigenvalues start from the principal roots and, should
    that choice annihilate (rank != d^k), the other root combinations are
    tried in lexicographic order.  An explicit mu that fails the rank check
    is rejected with diagnostics.
    """
    d = code.d
    dim = d**code.n
    rank_target = d**code.k
    ops = _generator_operators(code, cap)
    if not ops:
        return DenseOperator(np.eye(dim, dtype=np.complex128)), EigenvalueList(())

    lams = [_scalar_of_power(op, d) for op in ops]
    principal = [cmath.exp(cmath.log(lam) / d) for lam in lams]
    omega = cmath.exp(2j * cmath.pi / d)

    def build(mus) -> np.ndarray:
        proj = np.eye(dim, dtype=np.complex128)
        for op, m in zip(ops, mus):
            proj = proj @ _averager(op, m, d)
        return proj

    if mu is not None:
        for m, lam in zip(mu.values, lams):
            if abs(m**d - lam) > 1e-9:
                raise ValidationError(
                    f"eigenvalue {m} is not a d-th root of the generator scalar {lam}")
        proj = build(mu.values)
        if abs(proj.trace().real - rank_target) > 1e-6:
            raise ValidationError(
                f"eigenvalue list gives rank {proj.trace().real:.6f}, expected {rank_target}")
        return DenseOperator(proj), mu

    for shifts in product(range(d), repeat=len(ops)):
        mus = tuple(p * omega**s for p, s in zip(principal, shifts))
        proj = build(mus)
        if abs(proj.trace().real - rank_target) <= 1e-6:
            if not np.allclose(proj, proj @ proj, atol=1e-10):
                raise ValidationError("projector candidate is not idempotent")
            return DenseOperator(proj), EigenvalueList(mus)
    raise ValidationError("no eigenvalue combination yields the expected rank")


def apply_pauli_channel(rho: np.ndarray, channel: PauliChannel, n: int) -> np.ndarray:
    """sum_x P^n(x) N_x rho N_x^dagger over all error vectors of length 2n."""
    d = channel.d
    flat = channel.flat()
    singles = {c: _weyl_matrix(d, c % d, c // d) for c in range(d * d)}
    out = np.zeros_like(rho)
    for letters in product(range(d * d), repeat=n):
        p = 1.0
        for c in letters:
            p *= flat[c]
        if p == 0.0:
            continue
        op = reduce(np.kron, [singles[c] for c in letters]) if n else np.eye(1)
        out += p * (op @ rho @ op.conj().T)
    return out


def von_neumann_entropy(rho: np.ndarray, base: float) -> float:
    """Entropy of a density matrix from its eigenvalues, with 0 log 0 = 0.

    Raises if the matrix is materially non-PSD or not unit trace, since that
    indicates a bug upstream rather than a rounding artifact.
    """
    evals = np.linalg.eigvalsh(rho)
    if evals.min() < -_PSD_TOL:
        raise ValidationError(f"matrix is not PSD (min eigenvalue {evals.min():.3e})")
    if abs(evals.sum() - 1.0) > 1e-10:
        raise ValidationError(f"trace is {evals.sum()}, not 1")
    evals = np.clip(evals, 0.0, None)
    mask = evals > 0
    return float(-(evals[mask] * np.log(evals[mask])).sum() / math.log(base))


def _codeword_basis(proj: np.ndarray, rank: int) -> np.ndarray:
    """Orthonormal basis of the projector's range by pivoted orthogonalization."""
    cols = proj.copy()
    basis = []
    for _ in range(rank):
        norms = np.linalg.norm(cols, axis=0)
        piv = int(np.argmax(norms))
        if norms[piv] < 1e-9:
            raise ValidationError("projector rank is lower than expected")
        vec = cols[:, piv] / norms[piv]
        basis.append(vec)
        cols = cols - np.outer(vec, vec.conj() @ cols)
    return np.column_stack(basis)


def _purification(proj: np.ndarray, k_dim: int) -> np.ndarray:
    """|Psi> = k_dim^{-1/2} sum_b |b> (x) |codeword b> as a flat vector."""
    words = _codeword_basis(proj, k_dim)
    dim = proj.shape[0]
    psi = np.zeros(k_dim * dim, dtype=np.complex128)
    for b in range(k_dim):
        psi[b * dim:(b + 1) * dim] = words[:, b]
    return psi / math.sqrt(k_dim)


@dataclass(frozen=True)
class OracleReport:
    """Direct coherent information and its two entropy pieces."""

    coherent_info: float
    entropy_output: float
    entropy_joint: float
    base: float


def oracle_report(code: StabilizerCode, channel: PauliChannel,
                  base: float | None = None, *, cap: int = DEFAULT_DIM_CAP) -> OracleReport:
    """Build rho = Pi / d^k, push it (and its purification) through the
    channel, and return S(output), S(joint) and their difference."""
    if channel.d != code.d:
        raise ValidationError("channel and code moduli differ")
    d, n, k = code.d, code.n, code.k
    if d ** (n + k) > cap:
        raise GuardError(f"purification dimension d^(n+k) = {d**(n+k)} exceeds cap {cap}")
    base = float(base) if base is not None else float(d)

    proj, _ = code_projector(code, cap=cap)
    k_dim = d**k
    rho = proj.matrix / k_dim

    out = apply_pauli_channel(rho, channel, n)
    s_out = von_neumann_entropy(out, base)

    psi = _purification(proj.matrix, k_dim)
    joint = np.zeros((k_dim * d**n, k_dim * d**n), dtype=np.complex128)
    flat = channel.flat()
    singles = {c: _weyl_matrix(d, c % d, c // d) for c in range(d * d)}
    eye_ref = np.eye(k_dim, dtype=np.complex128)
    for letters in product(range(d * d), repeat=n):
        p = 1.0
        for c in letters:
            p *= flat[c]
        if p == 0.0:
            continue
        op = reduce(np.kron, [singles[c] for c in letters]) if n else np.eye(1)
        vec = np.kron(eye_ref, op) @ psi
        joint += p * np.outer(vec, vec.conj())
    s_joint = von_neumann_entropy(joint, base)

    return OracleReport(coherent_info=s_out - s_joint, entropy_output=s_out,
                        entropy_joint=s_joint, base=base)


def coherent_info_direct(code: StabilizerCode, channel: PauliChannel,
                         base: float | None = None, *, cap: int = DEFAULT_DIM_CAP) -> float:
    """S(channel(rho)) - S((I (x) channel)(purification)) for rho = Pi / d^k."""
    return oracle_report(code, channel, base, cap=cap).coherent_info
