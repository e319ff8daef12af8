"""Subspace algebra in (F_d^{2n}, <.,.>): orthogonality, hyperbolic completion,
chi coordinates, and uniform sampling of self-orthogonal subspaces.

A self-orthogonal (isotropic) subspace L with an ordered basis g_1..g_{n-k}
extends to n hyperbolic pairs (g_i, h_i) satisfying

    <g_i, h_j> = delta_ij,   <g_i, g_j> = 0,   <h_i, h_j> = 0.

The completion continues, on a copy with room for 2n rows, the echelon
form of the rows [dual(x) | e_x] (`_DualEchelon`) that L was grown on from
g_1..g_{n-k}.  Reading it off gives perp of the rows so far (the nullspace
of the dual rows, one basis vector per free column) and, from the identity
columns, a representative y_x with <x', y_x> = delta_x'x for every row x'.
Every new vector is read off the form and then joins it.  For l = n-k .. 1
the partner h_l is y_{g_l}, which the form takes, as g_l pairs to 1 with it
and to 0 with the whole span.  Then fresh planes are split off the
remaining perp: g is its first basis vector, which the form takes, as a
nonzero vector in the perp of a nondegenerate span lies outside it, and
its partner is y_g.  Nothing is drawn: the completion is a function of the
ordered basis of L, and a caller who wants another one builds any
HyperbolicBasis.

The sampler `sample_self_orthogonal` grows a subspace one dimension at a
time with a uniform vector from perp(current) \\ current.  At dimension m'
in ambient dimension 2m the number of valid extension vectors is
d**(2m - m') - d**m', a function of m' alone, so every isotropic subspace of
the target dimension is reached with equal probability.  On the same kind
of form a drawn v lies in the span exactly when dual(v) reduces to zero on
the first 2m columns, and perp(current) is updated in place when a row with
a new pivot p joins (drop n_p, subtract r[c] n_p from every other n_c).
Every Subspace keeps the form grown from its generators (for a sampled
subspace, the sampler's own form) and reads its perp basis off it, which
is all the decoder needs of an outer code; the completion continues a
widened copy of that form, so each subspace's generator rows are reduced
once.

The form is held for T independent lists of vectors on a leading trial
axis: the decoder samples the outer codes of a whole batch of trials at
once, and everything else uses T = 1.  Over any field the reduced row
echelon form of a row space is unique, and so is the nullspace basis read
off it, so every trial's rows equal those of a form grown alone.  For the
same reason a Subspace's perp basis is a canonical form: L = perp(perp(L)),
so two subspaces are equal exactly when their perp bases are, and v lies in
L exactly when it pairs to zero with every row.  The dense Gauss-Jordan
elimination in tests/oracles.py is the reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._util import ValidationError, is_int
from .gf import _check_modulus, _mod


# ---------------------------------------------------------------------------
# the pairing as a matrix


def symplectic_dual(vec: np.ndarray, d: int) -> np.ndarray:
    """The ordinary-dot representative of <vec, .>: dual(v) @ x = <v, x> mod d.

    A matrix is mapped row by row."""
    vec = np.asarray(vec, dtype=np.int64)
    out = np.empty_like(vec)
    out[..., 0::2] = (-vec[..., 1::2]) % d
    out[..., 1::2] = vec[..., 0::2] % d
    return out


def symplectic_form(x: np.ndarray, y: np.ndarray, d: int) -> int:
    """The standard symplectic pairing sum_i (u_i v'_i - v_i u'_i) mod d."""
    x = np.asarray(x, dtype=np.int64)
    y = np.asarray(y, dtype=np.int64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValidationError(f"need two 1-d vectors of equal length, got shapes {x.shape} and {y.shape}")
    if x.size % 2 != 0:
        raise ValidationError("symplectic form requires even-length vectors")
    return int(symplectic_dual(x, d) @ y % d)


def gram_matrix(rows_a: np.ndarray, rows_b: np.ndarray, d: int) -> np.ndarray:
    """Matrix of pairings <a_i, b_j> mod d."""
    rows_a = np.atleast_2d(np.asarray(rows_a, dtype=np.int64))
    rows_b = np.atleast_2d(np.asarray(rows_b, dtype=np.int64))
    return (symplectic_dual(rows_a, d) @ rows_b.T) % d


# ---------------------------------------------------------------------------
# the echelon form


class _DualEchelon:
    """The echelon forms of the rows [dual(g_1) | e_1], ..., [dual(g_m) | e_m]
    of T growing lists of vectors in F_d^ambient (m <= dim), one list per
    trial on a leading axis; every list has the same length m.

    Each form is the reduced row echelon form of its rows, kept as (T, m,
    ambient + dim) rows with their pivot columns.  A row's pivot lies left
    of the identity columns exactly when g is outside the span of the
    earlier g, so the form is also the membership test.  Beside it the
    basis of perp(span g) is kept in place, row for row the nullspace basis
    read off the form: one vector n_c per free column c, in increasing
    order, as `perp` (T, ambient - m, ambient).  When a row r with pivot p
    joins, n_p is dropped and every other n_c becomes n_c - r[c] n_p.  The
    identity columns give representatives y_j with <g_i, y_j> = delta_ij.
    A reduced echelon form and the nullspace basis read off it are
    canonical, so every trial's rows equal those of a form grown from its g
    alone.
    """

    def __init__(self, d: int, ambient: int, dim: int, trials: int = 1) -> None:
        self.d = d
        self.ambient = ambient
        self.dim = dim
        self.size = 0
        self.gens = np.zeros((trials, dim, ambient), dtype=np.int64)
        self.rows = np.zeros((trials, dim, ambient + dim), dtype=np.int64)
        self.pivots = np.zeros((trials, dim), dtype=np.int64)
        self.free = np.repeat(np.arange(ambient)[None], trials, axis=0)
        self.perp = np.repeat(np.eye(ambient, dtype=np.int64)[None], trials, axis=0)

    @classmethod
    def of(cls, d: int, gens: np.ndarray) -> "_DualEchelon":
        """The form of one trial grown from the given rows, in order."""
        gens = np.asarray(gens, dtype=np.int64) % d
        grown = cls(d, gens.shape[1], len(gens))
        for g in gens:
            if not grown.add(g[None]):
                raise ValidationError("generators are linearly dependent")
        return grown

    def widened(self, dim: int) -> "_DualEchelon":
        """A copy with room for dim rows, which grows on as a form with that
        room from the start would: the rows so far are zero in the new
        identity columns."""
        m, ambient = self.size, self.ambient
        out = _DualEchelon(self.d, ambient, dim, len(self.rows))
        out.gens[:, :m], out.pivots[:, :m] = self.gens[:, :m], self.pivots[:, :m]
        out.rows[:, :m, :ambient + m] = self.rows[:, :m, :ambient + m]
        out.size, out.free, out.perp = m, self.free.copy(), self.perp.copy()
        return out

    @classmethod
    def sample(cls, d: int, ambient: int, dim: int, rng: np.random.Generator,
               trials: int = 1) -> "_DualEchelon":
        """The forms of `trials` uniformly random self-orthogonal subspaces
        of the given dimension, all drawn from the one generator rng.

        Trial t grows one dimension at a time with a uniform vector from
        perp(current) \\ current, given by its coefficients on the perp
        basis, until the form takes one.  Each round of attempts at
        dimension i draws one `integers(0, d, (len(todo), ambient - i))`
        block, row r for the r-th trial still drawing, in increasing trial
        order.  Bounded integer draws concatenate in the stream, so at
        trials = 1 these are the digits of one `integers(0, d, ambient - i)`
        call per attempt.
        """
        grown = cls(d, ambient, dim, trials)
        for i in range(dim):
            gens = np.empty((trials, ambient), dtype=np.int64)
            rows = np.empty((trials, ambient + dim), dtype=np.int64)
            todo = np.arange(trials)
            while todo.size:
                coeffs = rng.integers(0, d, (todo.size, ambient - i))
                g = _mod((coeffs[:, None, :] @ grown.perp[todo])[:, 0], d)
                r = grown.reduce(g, todo)
                took = r[:, :ambient].any(axis=1)
                gens[todo[took]] = g[took]
                rows[todo[took]] = r[took]
                todo = todo[~took]
            grown.insert(gens, rows)
        return grown

    def reduce(self, g: np.ndarray, at=slice(None)) -> np.ndarray:
        """The rows [dual(g_i) | e_m] reduced by the forms of the trials at:
        zero in the first ambient columns iff g_i lies in the span."""
        m, ambient = self.size, self.ambient
        r = np.zeros((len(g), ambient + self.dim), dtype=np.int64)
        r[:, :ambient] = symplectic_dual(g, self.d)
        r[:, ambient + m] = 1
        # each form row is zero at the other rows' pivots: one pass reduces
        coeffs = r[np.arange(len(r))[:, None], self.pivots[at, :m]]
        return _mod(r - (coeffs[:, None, :] @ self.rows[at, :m])[:, 0], self.d)

    def insert(self, gens: np.ndarray, rows: np.ndarray) -> None:
        """Append gens[t] to form t, for every trial, given its reduced row
        rows[t] with a pivot left of the identity columns."""
        d, m = self.d, self.size
        t = np.arange(len(gens))
        p = (rows != 0).argmax(axis=1)
        # each pivot's inverse x^(d-2) mod d
        inverse = np.array([pow(x, d - 2, d) for x in rows[t, p].tolist()], dtype=np.int64)
        r = _mod(rows * inverse[:, None], d)
        done = self.rows[:, :m]
        done[...] = _mod(done - self.rows[t, :m, p][:, :, None] * r[:, None, :], d)
        keep = self.free != p[:, None]
        n_p = self.perp[~keep]
        self.free = self.free[keep].reshape(len(t), -1)
        perp = self.perp[keep].reshape(len(t), -1, self.ambient)
        self.perp = _mod(perp - r[t[:, None], self.free][:, :, None] * n_p[:, None, :], d)
        self.gens[:, m] = gens
        self.rows[:, m] = r
        self.pivots[:, m] = p
        self.size = m + 1

    def add(self, gens: np.ndarray) -> bool:
        """Append gens[t] to form t, for every trial; False, changing
        nothing, if some gens[t] lies in the span of its form's rows."""
        rows = self.reduce(gens)
        if not rows[:, :self.ambient].any(axis=1).all():
            return False
        self.insert(gens, rows)
        return True

    def basis(self) -> np.ndarray:
        """The vectors g_i of every trial: (T, m, ambient)."""
        return self.gens[:, :self.size]

    def reps(self) -> np.ndarray:
        """Rows y_j with <g_i, y_j> = delta_ij of every trial: (T, m, ambient)."""
        m, ambient = self.size, self.ambient
        out = np.zeros((len(self.rows), ambient, m), dtype=np.int64)
        out[np.arange(len(out))[:, None], self.pivots[:, :m]] = self.rows[:, :m, ambient:ambient + m]
        return out.transpose(0, 2, 1)


# ---------------------------------------------------------------------------
# subspaces


class Subspace:
    """A subspace L of F_d^ambient, ambient even, given by an ordered
    independent basis.

    The user-supplied generators are kept as-is (downstream code relies on
    their order), with the [dual | I] form grown from them, which the
    completion continues, and `canonical`, the canonical basis of perp(L)
    read off it, which is all the decoder uses.  As L = perp(perp(L)), two
    Subspaces are equal exactly when they span the same vectors, and v lies
    in L exactly when it pairs to zero with every row of `canonical`.
    """

    def __init__(self, d: int, ambient: int, basis) -> None:
        self.d = _check_modulus(d)
        if not is_int(ambient) or ambient < 2 or ambient % 2:
            raise ValidationError(f"ambient must be an even integer, at least 2, got {ambient!r}")
        self.ambient = int(ambient)
        try:
            rows = np.asarray(basis)
        except ValueError:  # ragged rows
            raise ValidationError(f"basis rows must have length {self.ambient}") from None
        if rows.size and rows.dtype.kind not in "iu":
            raise ValidationError(f"basis entries must be integers, got dtype {rows.dtype}")
        rows = rows.astype(np.int64)
        if rows.shape == (0,):
            rows = rows.reshape(0, self.ambient)
        if rows.ndim != 2 or rows.shape[1] != self.ambient:
            raise ValidationError(f"basis rows must have length {self.ambient}")
        self._read(_DualEchelon.of(self.d, rows))

    @classmethod
    def _of_form(cls, form: _DualEchelon) -> "Subspace":
        """The span of a one-trial form's generators, keeping that form
        instead of growing a second one."""
        self = cls.__new__(cls)
        self.d, self.ambient = form.d, form.ambient
        self._read(form)
        return self

    def _read(self, form: _DualEchelon) -> None:
        self._form = form
        self.basis = form.basis()[0]
        self.basis.setflags(write=False)
        self.canonical = form.perp[0]

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def contains(self, vec: np.ndarray) -> bool:
        v = np.asarray(vec, dtype=np.int64)
        if v.shape != (self.ambient,):
            raise ValidationError("vector/ambient dimension mismatch")
        return not gram_matrix(self.canonical, v, self.d).any()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return (self.d == other.d and self.ambient == other.ambient
                and np.array_equal(self.canonical, other.canonical))

    def __hash__(self) -> int:
        return hash((self.d, self.ambient, self.canonical.tobytes()))

    def __repr__(self) -> str:
        return f"Subspace(d={self.d}, ambient={self.ambient}, dim={self.dim})"


def is_self_orthogonal(L: Subspace) -> bool:
    """True iff <x, y> = 0 for all pairs of basis vectors of L."""
    return not gram_matrix(L.basis, L.basis, L.d).any()


def perp(L: Subspace) -> Subspace:
    """The symplectic orthogonal complement {y : <x, y> = 0 for all x in L}."""
    return Subspace(L.d, L.ambient, L.canonical)


# ---------------------------------------------------------------------------
# hyperbolic completion and chi coordinates


@dataclass(frozen=True, eq=False)
class HyperbolicBasis:
    """n hyperbolic pairs (g_i, h_i) spanning F_d^{2n}, with the matrix chi
    whose (chi @ x) % d is (w_1, z_1, ..., w_n, z_n); compared by identity."""

    d: int
    g: np.ndarray  # (n, 2n)
    h: np.ndarray  # (n, 2n)
    chi: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        g = np.asarray(self.g, dtype=np.int64) % self.d
        h = np.asarray(self.h, dtype=np.int64) % self.d
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "h", h)
        n = g.shape[0]
        if g.shape != (n, 2 * n) or h.shape != (n, 2 * n):
            raise ValidationError("hyperbolic basis needs n pairs of length-2n vectors")
        # chi rows: row 2i -> w_{i+1} = <x, h_i> = -<h_i, x>; row 2i+1 -> z_{i+1} = <g_i, x>
        chi = np.empty((2 * n, 2 * n), dtype=np.int64)
        chi[0::2] = (-symplectic_dual(h, self.d)) % self.d
        chi[1::2] = symplectic_dual(g, self.d)
        chi.setflags(write=False)
        g.setflags(write=False)
        h.setflags(write=False)
        object.__setattr__(self, "chi", chi)

    @property
    def n(self) -> int:
        return self.g.shape[0]

    def gram_ok(self) -> bool:
        """Exact check of the defining pairing conditions."""
        d = self.d
        n = self.n
        gg = gram_matrix(self.g, self.g, d)
        hh = gram_matrix(self.h, self.h, d)
        gh = gram_matrix(self.g, self.h, d)
        return (not gg.any()) and (not hh.any()) and bool((gh == np.eye(n, dtype=np.int64)).all())

    def coordinates(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Chi coordinates: the (w, z) arrays with x = sum_i w_i g_i + z_i h_i,
        where z_i = <g_i, x> and w_i = <x, h_i>."""
        x = np.asarray(x, dtype=np.int64)
        if x.shape != (2 * self.n,):
            raise ValidationError("vector length does not match the basis")
        full = (self.chi @ x) % self.d
        return full[0::2], full[1::2]


def hyperbolic_complete(L: Subspace) -> HyperbolicBasis:
    """The canonical extension of the ordered basis of a self-orthogonal L
    to n hyperbolic pairs.

    The first dim(L) vectors g_i are exactly L's generators in their given
    order; a copy of L's form grows on, and every new vector is read off it
    (see the module docstring), so the completion is a function of the
    ordered basis alone.
    """
    if not is_self_orthogonal(L):
        raise ValidationError("subspace is not self-orthogonal")
    n, nk = L.ambient // 2, L.dim
    grown = L._form.widened(2 * n)

    def join(x: np.ndarray) -> np.ndarray:
        grown.add(x[None])
        return x

    # stage 1: pair up the given generators, last to first
    hs = [join(grown.reps()[0, i]) for i in reversed(range(nk))][::-1]
    # stage 2: split the orthogonal remainder into fresh hyperbolic planes
    gs = list(L.basis)
    for _ in range(nk, n):
        gs.append(join(grown.perp[0, 0]))
        hs.append(join(grown.reps()[0, -1]))

    basis = HyperbolicBasis(L.d, np.array(gs), np.array(hs))
    if not basis.gram_ok():
        raise ValidationError("completion failed the pairing conditions")
    return basis


# ---------------------------------------------------------------------------
# uniform sampling of self-orthogonal subspaces


def sample_self_orthogonal(d: int, ambient: int, dim: int, rng_seed) -> Subspace:
    """A uniformly random self-orthogonal subspace of the given dimension.

    ambient is the full dimension 2m; dim must not exceed m.
    """
    d = _check_modulus(d)
    if not is_int(ambient) or ambient < 2 or ambient % 2:
        raise ValidationError(f"ambient must be an even integer, at least 2, got {ambient!r}")
    m = ambient // 2
    if not is_int(dim) or not 0 <= dim <= m:
        raise ValidationError(f"no isotropic subspace of dimension {dim!r} in dimension {ambient}")
    rng = np.random.default_rng(rng_seed)
    return Subspace._of_form(_DualEchelon.sample(d, ambient, dim, rng))
