"""Subspace algebra in (F_d^{2n}, <.,.>): orthogonality, hyperbolic completion,
chi coordinates, syndromes, and uniform sampling of self-orthogonal subspaces.

A self-orthogonal (isotropic) subspace L with an ordered basis g_1..g_{n-k}
extends to n hyperbolic pairs (g_i, h_i) satisfying

    <g_i, h_j> = delta_ij,   <g_i, g_j> = 0,   <h_i, h_j> = 0.

The completion is built by the classical two-stage pairing procedure: first
find a partner h_l for each given generator g_l (orthogonal to the not yet
paired generators), then split off hyperbolic planes from what remains.  Free
choices are resolved by a seeded RNG, picking uniformly among the exact
solutions of the constraint system, so a seed fully determines the output.

The sampler `sample_self_orthogonal` grows a subspace one dimension at a
time with a uniform vector from perp(current) \\ current.  At dimension m'
in ambient dimension 2m the number of valid extension vectors is
d**(2m - m') - d**m', a function of m' alone, so every isotropic subspace of
the target dimension is reached with equal probability.

At d = 2 the sampler, `Subspace` and the decoder's coset machinery run on
bit-packed rows (`_GF2Echelon`); the mod-d routines serve every other d and
are the reference the packed ones are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._util import ValidationError
from .gf import _check_modulus


# ---------------------------------------------------------------------------
# dense linear algebra mod a prime


def rref(mat: np.ndarray, d: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over F_d.

    Returns (R, pivots) where R holds the nonzero rows and pivots the pivot
    column of each row, in increasing order.
    """
    a = np.array(mat, dtype=np.int64) % d
    if a.ndim != 2:
        raise ValidationError("rref expects a 2-d array")
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
        inv = pow(int(a[r, c]), d - 2, d)
        a[r] = (a[r] * inv) % d
        for rr in range(nrows):
            if rr != r and a[rr, c] != 0:
                a[rr] = (a[rr] - a[rr, c] * a[r]) % d
        pivots.append(c)
        r += 1
    return a[:r], pivots


def nullspace(mat: np.ndarray, d: int, ncols: int | None = None) -> np.ndarray:
    """Basis rows of {x : mat @ x = 0 mod d}."""
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


def solve_affine(mat: np.ndarray, rhs: np.ndarray, d: int,
                 rng: np.random.Generator | None = None) -> np.ndarray | None:
    """One solution x of mat @ x = rhs mod d, or None if inconsistent.

    With an rng, the solution is drawn uniformly from the full solution set
    (particular solution plus a random nullspace combination).
    """
    mat = np.atleast_2d(np.asarray(mat, dtype=np.int64)) % d
    rhs = np.asarray(rhs, dtype=np.int64) % d
    nrows, ncols = mat.shape
    aug = np.hstack([mat, rhs.reshape(-1, 1)])
    red, pivots = rref(aug, d)
    if ncols in pivots:
        return None
    x = np.zeros(ncols, dtype=np.int64)
    for r, pc in enumerate(pivots):
        x[pc] = red[r, ncols]
    if rng is not None:
        ker = nullspace(mat, d, ncols)
        if ker.shape[0] > 0:
            coeffs = rng.integers(0, d, size=ker.shape[0])
            x = (x + coeffs @ ker) % d
    return x % d


def solve_affine_multi(mat: np.ndarray, rhs_cols: np.ndarray, d: int) -> np.ndarray | None:
    """Solutions X (one row per rhs column) of mat @ x = rhs for several
    right-hand sides at once; None if any system is inconsistent."""
    mat = np.atleast_2d(np.asarray(mat, dtype=np.int64)) % d
    rhs_cols = np.atleast_2d(np.asarray(rhs_cols, dtype=np.int64)) % d
    nrows, ncols = mat.shape
    red, pivots = rref(np.hstack([mat, rhs_cols]), d)
    if any(pc >= ncols for pc in pivots):
        return None
    out = np.zeros((rhs_cols.shape[1], ncols), dtype=np.int64)
    for r, pc in enumerate(pivots):
        out[:, pc] = red[r, ncols:]
    return out


def symplectic_dual(vec: np.ndarray, d: int) -> np.ndarray:
    """The ordinary-dot representative of <vec, .>: dual(v) @ x = <v, x> mod d.

    A matrix is mapped row by row."""
    vec = np.asarray(vec, dtype=np.int64)
    out = np.empty_like(vec)
    out[..., 0::2] = (-vec[..., 1::2]) % d
    out[..., 1::2] = vec[..., 0::2] % d
    return out


def gram_matrix(rows_a: np.ndarray, rows_b: np.ndarray, d: int) -> np.ndarray:
    """Matrix of pairings <a_i, b_j> mod d."""
    rows_a = np.atleast_2d(np.asarray(rows_a, dtype=np.int64))
    rows_b = np.atleast_2d(np.asarray(rows_b, dtype=np.int64))
    return (symplectic_dual(rows_a, d) @ rows_b.T) % d


# ---------------------------------------------------------------------------
# bit-packed linear algebra over F_2
#
# A row is a Python int with bit j = column j, so a row operation is one XOR
# and a row's leading column is its lowest set bit.  Over F_2 the reduced row
# echelon form of a row space is unique, and the nullspace basis read off it
# is canonical, so the packed routines return exactly the rows that rref,
# nullspace and solve_affine_multi return at d = 2.


def _pack(mat: np.ndarray) -> list[int]:
    """The rows of a 0/1 matrix as ints, bit j = column j."""
    bits = np.packbits(np.asarray(mat, dtype=np.uint8), axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in bits]


def _unpack(rows: list[int], ncols: int) -> np.ndarray:
    """The (len(rows), ncols) int64 0/1 matrix of packed rows."""
    nbytes = (ncols + 7) // 8
    buf = np.frombuffer(b"".join(r.to_bytes(nbytes, "little") for r in rows), dtype=np.uint8)
    bits = np.unpackbits(buf.reshape(len(rows), nbytes), axis=1, count=ncols, bitorder="little")
    return bits.astype(np.int64)


def _dual_gf2(row: int, ambient: int) -> int:
    """symplectic_dual at d = 2: swap the bits of every (u_i, v_i) pair."""
    even = int("01" * (ambient // 2), 2)
    return ((row & even) << 1) | ((row >> 1) & even)


class _GF2Echelon:
    """The reduced row echelon form over F_2 of a growing set of packed rows,
    kept as {lowest set bit: row}; every row is zero at the others' pivots."""

    def __init__(self, rows=()) -> None:
        self.rows: dict[int, int] = {}
        for row in rows:
            self.add(row)

    def reduce(self, v: int) -> int:
        """v minus its component in the span; 0 iff v lies in the span."""
        for bit, row in self.rows.items():
            if v & bit:
                v ^= row
        return v

    def add(self, v: int) -> bool:
        """Insert v; False if it was already in the span."""
        v = self.reduce(v)
        if not v:
            return False
        low = v & -v
        for bit, row in self.rows.items():
            if row & low:
                self.rows[bit] = row ^ v
        self.rows[low] = v
        return True

    def echelon(self) -> tuple[list[int], list[int]]:
        """(rows, pivot columns) in increasing pivot order, as rref returns."""
        order = sorted(self.rows)
        return [self.rows[b] for b in order], [b.bit_length() - 1 for b in order]

    def _column(self, j: int) -> int:
        """The pivot bits of the rows that have bit j set."""
        col = 0
        for bit, row in self.rows.items():
            if row >> j & 1:
                col |= bit
        return col

    def nullspace(self, ncols: int) -> list[int]:
        """nullspace's basis of {x : row . x = 0 for every row}, over the
        first ncols columns, one vector per free column in increasing order."""
        return [1 << fc | self._column(fc) for fc in range(ncols) if 1 << fc not in self.rows]

    def solutions(self, ncols: int, nrhs: int) -> list[int] | None:
        """For rows [A | B] (B in bits ncols..ncols+nrhs-1), solve_affine_multi's
        solutions x_i of A x = b_i; None if some system is inconsistent."""
        if any(bit >> ncols for bit in self.rows):
            return None
        return [self._column(i) for i in range(ncols, ncols + nrhs)]


# ---------------------------------------------------------------------------
# subspaces


class Subspace:
    """A subspace of F_d^ambient given by an ordered independent basis.

    The user-supplied generators are kept as-is (downstream code relies on
    their order); a reduced row echelon form is retained alongside as the
    canonical form, so two Subspace objects are equal exactly when they span
    the same set of vectors.
    """

    def __init__(self, d: int, ambient: int, basis) -> None:
        self.d = _check_modulus(d)
        self.ambient = int(ambient)
        rows = np.asarray(basis, dtype=np.int64).reshape(-1, self.ambient) % self.d
        self.basis = rows
        self.basis.setflags(write=False)
        self._gf2 = None
        if self.d == 2:
            self._gf2 = _GF2Echelon(_pack(rows))
            packed, pivots = self._gf2.echelon()
            red = _unpack(packed, self.ambient)
        else:
            red, pivots = rref(rows, self.d)
        if red.shape[0] != rows.shape[0]:
            raise ValidationError("generators are linearly dependent")
        self._rref = red
        self._pivots = pivots

    @classmethod
    def zero(cls, d: int, ambient: int) -> "Subspace":
        return cls(d, ambient, np.zeros((0, ambient), dtype=np.int64))

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @property
    def canonical(self) -> np.ndarray:
        return self._rref

    def contains(self, vec: np.ndarray) -> bool:
        v = np.asarray(vec, dtype=np.int64) % self.d
        if v.shape != (self.ambient,):
            raise ValidationError("vector/ambient dimension mismatch")
        if self._gf2 is not None:
            return not self._gf2.reduce(_pack(v[None, :])[0])
        for r, pc in enumerate(self._pivots):
            if v[pc] != 0:
                v = (v - v[pc] * self._rref[r]) % self.d
        return not v.any()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return (self.d == other.d and self.ambient == other.ambient
                and self._rref.shape == other._rref.shape
                and bool((self._rref == other._rref).all()))

    def __hash__(self) -> int:
        return hash((self.d, self.ambient, self._rref.tobytes()))

    def __repr__(self) -> str:
        return f"Subspace(d={self.d}, ambient={self.ambient}, dim={self.dim})"


def is_self_orthogonal(L: Subspace) -> bool:
    """True iff <x, y> = 0 for all pairs of basis vectors of L."""
    if L.dim == 0:
        return True
    return not gram_matrix(L.basis, L.basis, L.d).any()


def perp(L: Subspace) -> Subspace:
    """The symplectic orthogonal complement {y : <x, y> = 0 for all x in L}."""
    if L.ambient % 2 != 0:
        raise ValidationError("perp requires an even ambient dimension")
    if L.dim == 0:
        return Subspace(L.d, L.ambient, np.eye(L.ambient, dtype=np.int64))
    return Subspace(L.d, L.ambient, nullspace(symplectic_dual(L.basis, L.d), L.d, L.ambient))


# ---------------------------------------------------------------------------
# hyperbolic completion and chi coordinates


@dataclass(frozen=True)
class HyperbolicBasis:
    """n hyperbolic pairs (g_i, h_i) spanning F_d^{2n}."""

    d: int
    g: np.ndarray  # (n, 2n)
    h: np.ndarray  # (n, 2n)
    _chi: np.ndarray = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "_chi", chi)

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

    def chi_matrix(self) -> np.ndarray:
        """Matrix C with (C @ x) % d = (w_1, z_1, ..., w_n, z_n)."""
        return self._chi

    def coordinates(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Chi coordinates: the (w, z) arrays with x = sum_i w_i g_i + z_i h_i,
        where z_i = <g_i, x> and w_i = <x, h_i>."""
        x = np.asarray(x, dtype=np.int64)
        if x.shape != (2 * self.n,):
            raise ValidationError("vector length does not match the basis")
        full = (self._chi @ x) % self.d
        return full[0::2], full[1::2]

    def syndrome(self, x: np.ndarray, n_minus_k: int) -> np.ndarray:
        """The first n-k pairings (<g_i, x>)_i identifying the coset of perp(L)."""
        x = np.asarray(x, dtype=np.int64)
        return (self._chi[1:2 * n_minus_k:2] @ x) % self.d


def _constrained_vector(v_basis: np.ndarray, targets: np.ndarray, rhs: np.ndarray,
                        d: int, rng: np.random.Generator) -> np.ndarray:
    """A uniformly random v in span(v_basis) with <t_i, v> = rhs_i for each target row."""
    products = (symplectic_dual(targets, d) @ v_basis.T) % d
    coeffs = solve_affine(products, rhs, d, rng)
    if coeffs is None:
        raise ValidationError("constraint system has no solution; input is not a valid code")
    return (coeffs @ v_basis) % d


def _shrink(v_basis: np.ndarray, g: np.ndarray, h: np.ndarray, d: int) -> np.ndarray:
    """Basis of {v in span(v_basis) : <g, v> = <h, v> = 0}."""
    products = (symplectic_dual(np.array([g, h]), d) @ v_basis.T) % d
    ker = nullspace(products, d, v_basis.shape[0])
    return (ker @ v_basis) % d


def hyperbolic_complete(L: Subspace, rng_seed: int) -> HyperbolicBasis:
    """Extend the ordered basis of a self-orthogonal L to n hyperbolic pairs.

    The first dim(L) vectors g_i are exactly L's generators in their given
    order.  Deterministic for a fixed seed.
    """
    if L.ambient % 2 != 0:
        raise ValidationError("ambient dimension must be even")
    if not is_self_orthogonal(L):
        raise ValidationError("subspace is not self-orthogonal")
    d = L.d
    n = L.ambient // 2
    nk = L.dim
    if nk > n:
        raise ValidationError("self-orthogonal dimension exceeds n")
    rng = np.random.default_rng(rng_seed)

    gs: list[np.ndarray] = [row.copy() for row in L.basis]
    hs: list[np.ndarray | None] = [None] * nk
    v_basis = np.eye(2 * n, dtype=np.int64)

    # stage 1: pair up the given generators, last to first
    for l in range(nk, 0, -1):
        targets = np.array(gs[:l])
        rhs = np.zeros(l, dtype=np.int64)
        rhs[l - 1] = 1
        h = _constrained_vector(v_basis, targets, rhs, d, rng)
        hs[l - 1] = h
        v_basis = _shrink(v_basis, gs[l - 1], h, d)

    # stage 2: split the orthogonal remainder into fresh hyperbolic planes
    for _ in range(nk, n):
        while True:
            coeffs = rng.integers(0, d, size=v_basis.shape[0])
            if coeffs.any():
                break
        g = (coeffs @ v_basis) % d
        gs.append(g)
        h = _constrained_vector(v_basis, g.reshape(1, -1), np.array([1]), d, rng)
        hs.append(h)
        v_basis = _shrink(v_basis, g, h, d)

    if v_basis.shape[0] != 0:
        raise ValidationError("completion did not exhaust the ambient space")
    basis = HyperbolicBasis(d, np.array(gs), np.array(hs))
    if not basis.gram_ok():
        raise ValidationError("completion failed the pairing conditions")
    return basis


# ---------------------------------------------------------------------------
# uniform sampling of self-orthogonal subspaces


def random_isotropic_basis(d: int, ambient: int, dim: int, rng: np.random.Generator
                           ) -> np.ndarray:
    """Basis rows of a uniformly random self-orthogonal subspace.

    Grows one dimension at a time with a uniform vector from
    perp(current) \\ current; an echelon form is carried along so membership
    tests stay cheap.  At d = 2 the rows are bit-packed; both paths draw the
    same coefficients from rng and return the same rows.
    """
    if d == 2:
        return _unpack(_random_isotropic_gf2(ambient, dim, rng), ambient)
    return _random_isotropic_dense(d, ambient, dim, rng)


def _random_isotropic_dense(d: int, ambient: int, dim: int, rng: np.random.Generator
                            ) -> np.ndarray:
    """random_isotropic_basis on int64 digit rows, for any prime d."""
    rows = np.zeros((0, ambient), dtype=np.int64)
    duals = np.zeros((0, ambient), dtype=np.int64)
    ech: list[np.ndarray] = []  # rows with normalized leading pivots
    piv: list[int] = []

    def reduce_vec(v: np.ndarray) -> np.ndarray:
        v = v % d
        for r, pc in zip(ech, piv):
            if v[pc] != 0:
                v = (v - v[pc] * r) % d
        return v

    for _ in range(dim):
        perp_basis = nullspace(duals, d, ambient)
        while True:
            coeffs = rng.integers(0, d, size=perp_basis.shape[0])
            v = (coeffs @ perp_basis) % d
            red = reduce_vec(v)
            if red.any():
                break
        rows = np.vstack([rows, v[None, :]])
        duals = np.vstack([duals, symplectic_dual(v, d)[None, :]])
        pc = int(np.nonzero(red)[0][0])
        ech.append((red * pow(int(red[pc]), d - 2, d)) % d)
        piv.append(pc)
    return rows


def _random_isotropic_gf2(ambient: int, dim: int, rng: np.random.Generator) -> list[int]:
    """random_isotropic_basis at d = 2, on packed rows."""
    rows: list[int] = []
    span, duals = _GF2Echelon(), _GF2Echelon()
    for _ in range(dim):
        perp_basis = duals.nullspace(ambient)
        while True:
            v = 0
            for c, b in zip(rng.integers(0, 2, size=len(perp_basis)).tolist(), perp_basis):
                if c:
                    v ^= b
            if span.add(v):
                break
        rows.append(v)
        duals.add(_dual_gf2(v, ambient))
    return rows


def sample_self_orthogonal(d: int, ambient: int, dim: int, rng_seed) -> Subspace:
    """A uniformly random self-orthogonal subspace of the given dimension.

    ambient is the full dimension 2m; dim must not exceed m.
    """
    d = _check_modulus(d)
    if ambient % 2 != 0:
        raise ValidationError("ambient dimension must be even")
    m = ambient // 2
    if dim < 0 or dim > m:
        raise ValidationError(f"no isotropic subspace of dimension {dim} in dimension {ambient}")
    rng = np.random.default_rng(rng_seed)
    rows = random_isotropic_basis(d, ambient, dim, rng)
    return Subspace(d, ambient, rows) if dim else Subspace.zero(d, ambient)
