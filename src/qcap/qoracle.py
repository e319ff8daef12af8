"""Small-dimension dense-matrix oracle for the coherent-information bound.

The bound c_n = k - H(logical | syndrome) is the coherent information of the
code-space state Pi / d^k.  This module computes that quantity the hard way,
on plain complex arrays: Weyl strings as matrices, the code projector as a
product of generator averages, one Kraus sum over the d^(2n) error letters
acting on a purification, and von Neumann entropies.  It shares only the
code and channel objects with the probability-array route, so agreement is
an end-to-end check of both.  Phases never need bookkeeping: the matrix
products carry them.  The dimension is capped on purpose.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from ._util import GuardError, ValidationError, entropy_nats
from .channels import PauliChannel
from .codes import StabilizerCode

# the largest Hilbert-space dimension the oracle builds matrices for
_DIM_CAP = 256
_PSD_TOL = 1e-10


def weyl_string(d: int, coords) -> np.ndarray:
    """The operator X^u_1 Z^v_1 (x) ... (x) X^u_n Z^v_n of the interleaved
    vector (u_1, v_1, ..., u_n, v_n); on one qudit, weyl_string(d, (u, v)).

    X sends basis vector e_j to e_{(j-1) mod d}; Z multiplies e_j by omega^j
    with omega = exp(2*pi*i/d).
    """
    coords = [int(c) % d for c in coords]
    if len(coords) % 2 != 0:
        raise ValidationError("error index must have even length")
    cols = np.arange(d)
    out = np.eye(1, dtype=np.complex128)
    for u, v in zip(coords[0::2], coords[1::2]):
        single = np.zeros((d, d), dtype=np.complex128)
        single[(cols - u) % d, cols] = np.exp(2j * np.pi * v * cols / d)
        out = np.kron(out, single)
    return out


def code_projector(code: StabilizerCode) -> np.ndarray:
    """The rank-d^k projector onto a joint eigenspace of the stabilizer.

    Each generator N contributes the average (1/d) sum_t (N / mu)^t, where mu
    is the principal d-th root of the scalar N^d.  Every choice of roots
    gives a rank-d^k projector, because every nonzero product of independent
    commuting generators is a traceless Weyl string; the principal one is
    used.
    """
    d = code.d
    dim = d**code.n
    if dim > _DIM_CAP:
        raise GuardError(f"dimension d^n = {dim} exceeds the oracle cap {_DIM_CAP}")
    eye = np.eye(dim, dtype=np.complex128)
    proj = eye
    for row in code.generators:
        op = weyl_string(d, row)
        power = np.linalg.matrix_power(op, d)
        lam = complex(power[0, 0])
        if not np.allclose(power, lam * eye, atol=1e-10):
            raise ValidationError("generator's d-th power is not scalar")
        scaled = op / cmath.exp(cmath.log(lam) / d)
        term, acc = eye, eye
        for _ in range(d - 1):
            term = term @ scaled
            acc = acc + term
        proj = proj @ (acc / d)
    rank = proj.trace().real
    if abs(rank - d**code.k) > 1e-6:
        raise ValidationError(f"projector has rank {rank:.6f}, expected {d**code.k}")
    if not np.allclose(proj, proj @ proj, atol=1e-10):
        raise ValidationError("projector is not idempotent")
    return proj


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
    return entropy_nats(evals) / math.log(base)


def _channel_states(proj: np.ndarray, channel: PauliChannel, n: int
                    ) -> tuple[np.ndarray, np.ndarray]:
    """The channel output for rho = proj / rank, and the joint state on
    reference (x) system of its purification, from one Kraus sum.

    The purification is |Psi> = rank^{-1/2} sum_b |b> (x) |w_b> over an
    orthonormal basis w_b of the projector's range; the output is the joint
    state's partial trace over the reference.
    """
    d = channel.d
    evals, evecs = np.linalg.eigh(proj)
    words = evecs[:, evals > 0.5]
    dim, k_dim = words.shape
    flat = channel.matrix.ravel()
    joint = np.zeros((k_dim * dim, k_dim * dim), dtype=np.complex128)
    for letters in product(range(d * d), repeat=n):
        p = math.prod(flat[c] for c in letters)
        if p == 0.0:
            continue
        op = weyl_string(d, [a for c in letters for a in divmod(c, d)])
        vec = (op @ words).T.ravel()  # (I (x) N_x) |Psi>, reference index first
        joint += (p / k_dim) * np.outer(vec, vec.conj())
    out = np.trace(joint.reshape(k_dim, dim, k_dim, dim), axis1=0, axis2=2)
    return out, joint


@dataclass(frozen=True)
class OracleReport:
    """Direct coherent information and its two entropy pieces."""

    coherent_info: float
    entropy_output: float
    entropy_joint: float
    base: float


def oracle_report(code: StabilizerCode, channel: PauliChannel,
                  base: float | None = None) -> OracleReport:
    """Push rho = Pi / d^k and its purification through the channel and
    return S(output), S(joint) and their difference."""
    if channel.d != code.d:
        raise ValidationError("channel and code moduli differ")
    d, n, k = code.d, code.n, code.k
    if d ** (n + k) > _DIM_CAP:
        raise GuardError(f"purification dimension d^(n+k) = {d**(n+k)} exceeds cap {_DIM_CAP}")
    base = float(base) if base is not None else float(d)
    out, joint = _channel_states(code_projector(code), channel, n)
    s_out = von_neumann_entropy(out, base)
    s_joint = von_neumann_entropy(joint, base)
    return OracleReport(coherent_info=s_out - s_joint, entropy_output=s_out,
                        entropy_joint=s_joint, base=base)
