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
the target dimension is reached with equal probability.  It keeps one
echelon form of the rows [dual(g_i) | e_i] (`_DualEchelon`): a drawn v lies
in the span exactly when dual(v) reduces to zero on the first 2m columns,
and perp(current), the nullspace of the dual rows, is updated in place
when a row with a new pivot p joins (drop n_p, subtract r[c] n_p from every
other n_c).  The decoder takes its perp basis and syndrome representatives
from the same form, so a resampled trial eliminates its rows once.

All of this linear algebra (canonical forms, membership, nullspaces, the
completion's constraint systems, the sampler and the decoder's coset
machinery) runs on one incremental reduced row echelon form in two
arithmetics: rows bit-packed into Python ints at d = 2 (`_GF2Echelon`) and
int64 digit rows mod d for every other prime (`_ModEchelon`).  The factory
`_echelon` is the only place that chooses between them.  Over any field the
reduced row echelon form of a row space is unique, and so is the nullspace
basis read off it, so both arithmetics give the same rows; the dense
Gauss-Jordan elimination in tests/oracles.py is the reference for both.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._util import ValidationError
from .gf import _check_modulus


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


def gram_matrix(rows_a: np.ndarray, rows_b: np.ndarray, d: int) -> np.ndarray:
    """Matrix of pairings <a_i, b_j> mod d."""
    rows_a = np.atleast_2d(np.asarray(rows_a, dtype=np.int64))
    rows_b = np.atleast_2d(np.asarray(rows_b, dtype=np.int64))
    return (symplectic_dual(rows_a, d) @ rows_b.T) % d


# ---------------------------------------------------------------------------
# the echelon form
#
# Both classes keep the reduced row echelon form of a growing set of rows as
# {pivot: row}, every row zero at the others' pivots, behind one interface:
# add (reduce then insert), reduce, `in`, echelon, nullspace and solutions on
# packed rows, the codec pack/unpack/units to int64 digit matrices, and the
# row operations combine, dual, lead and drop_free.


class _GF2Echelon:
    """The echelon form over F_2 on rows packed into Python ints, bit j =
    column j, keyed by the pivot's bit: a row operation is one XOR and a
    row's leading column is its lowest set bit."""

    def __init__(self) -> None:
        self.rows: dict[int, int] = {}

    @staticmethod
    def pack(mat: np.ndarray) -> list[int]:
        bits = np.packbits((np.asarray(mat, dtype=np.int64) % 2).astype(np.uint8), axis=1,
                           bitorder="little")
        return [int.from_bytes(row.tobytes(), "little") for row in bits]

    @staticmethod
    def unpack(rows: list[int], ncols: int) -> np.ndarray:
        nbytes = (ncols + 7) // 8
        buf = np.frombuffer(b"".join(r.to_bytes(nbytes, "little") for r in rows), dtype=np.uint8)
        bits = np.unpackbits(buf.reshape(len(rows), nbytes), axis=1, count=ncols,
                             bitorder="little")
        return bits.astype(np.int64)

    @staticmethod
    def units(count: int, ncols: int, first: int = 0) -> list[int]:
        """The unit rows e_first .. e_(first+count-1), packed."""
        return [1 << j for j in range(first, first + count)]

    @staticmethod
    def combine(coeffs: np.ndarray, rows: list[int]) -> int:
        """sum_i coeffs_i rows_i."""
        v = 0
        for c, row in zip(coeffs.tolist(), rows):
            if c:
                v ^= row
        return v

    @staticmethod
    def dual(row: int, ncols: int) -> int:
        """symplectic_dual of the first ncols columns: swap the bits of every
        (u_i, v_i) pair; zero beyond."""
        even = int("01" * (ncols // 2), 2)
        return ((row & even) << 1) | ((row >> 1) & even)

    @staticmethod
    def lead(v: int) -> int:
        """The column of v's first nonzero entry; -1 for the zero row."""
        return (v & -v).bit_length() - 1

    @staticmethod
    def drop_free(basis: list[int], free: list[int], row: int, p: int) -> list[int]:
        """The nullspace basis, one vector n_c per free column c, after row
        (reduced, pivot p scaled to 1) joins: n_c - row[c] n_p, without n_p."""
        n_p = basis[free.index(p)]
        return [n ^ n_p if row >> c & 1 else n for c, n in zip(free, basis) if c != p]

    def reduce(self, v: int) -> int:
        """v minus its component in the span; 0 iff v lies in the span."""
        for bit, row in self.rows.items():
            if v & bit:
                v ^= row
        return v

    def __contains__(self, v: int) -> bool:
        return not self.reduce(v)

    def add(self, v: int) -> bool:
        """Insert v; False if it was already in the span."""
        v = self.reduce(v)
        if not v:
            return False
        self.insert(v, self.lead(v))
        return True

    def insert(self, v: int, p: int) -> int:
        """Insert a nonzero row that `reduce` leaves unchanged, with its
        leading column p; returns it with its pivot scaled to 1."""
        low = 1 << p
        for bit, row in self.rows.items():
            if row & low:
                self.rows[bit] = row ^ v
        self.rows[low] = v
        return v

    def echelon(self) -> tuple[list[int], list[int]]:
        """(rows, pivot columns) in increasing pivot order."""
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
        """Basis of {x : row . x = 0 for every row} over the first ncols
        columns, one vector per free column in increasing order."""
        return [1 << fc | self._column(fc) for fc in range(ncols) if 1 << fc not in self.rows]

    def solutions(self, ncols: int, nrhs: int) -> list[int] | None:
        """For rows [A | B] (B in columns ncols..ncols+nrhs-1), the solution
        x_i of A x = b_i that is zero at the free columns, one per column of
        B; None if some system is inconsistent."""
        if any(bit >> ncols for bit in self.rows):
            return None
        return [self._column(i) for i in range(ncols, ncols + nrhs)]


class _ModEchelon:
    """The echelon form over F_d on int64 digit rows, keyed by pivot column,
    with every pivot scaled to 1.  A set of packed rows is a 2-d array."""

    def __init__(self, d: int) -> None:
        self.d = d
        self.rows: dict[int, np.ndarray] = {}

    def pack(self, mat: np.ndarray) -> np.ndarray:
        return np.asarray(mat, dtype=np.int64) % self.d

    @staticmethod
    def unpack(rows, ncols: int) -> np.ndarray:
        return np.asarray(rows, dtype=np.int64).reshape(len(rows), ncols)

    @staticmethod
    def units(count: int, ncols: int, first: int = 0) -> np.ndarray:
        return np.eye(count, ncols, first, dtype=np.int64)

    def combine(self, coeffs: np.ndarray, rows: np.ndarray) -> np.ndarray:
        return coeffs @ rows % self.d

    def dual(self, row: np.ndarray, ncols: int) -> np.ndarray:
        out = np.zeros_like(row)
        out[0:ncols:2] = -row[1:ncols:2] % self.d
        out[1:ncols:2] = row[0:ncols:2]
        return out

    @staticmethod
    def lead(v: np.ndarray) -> int:
        nonzero = v.nonzero()[0]
        return int(nonzero[0]) if nonzero.size else -1

    def drop_free(self, basis: np.ndarray, free: list[int], row: np.ndarray, p: int
                  ) -> np.ndarray:
        i = free.index(p)
        basis = (basis - row[free][:, None] * basis[i]) % self.d
        return np.concatenate((basis[:i], basis[i + 1:]))

    def reduce(self, v: np.ndarray) -> np.ndarray:
        for pc, row in self.rows.items():
            if v[pc]:
                v = (v - v[pc] * row) % self.d
        return v

    def __contains__(self, v: np.ndarray) -> bool:
        return not self.reduce(v).any()

    def add(self, v: np.ndarray) -> bool:
        v = self.reduce(v)
        pc = self.lead(v)
        if pc < 0:
            return False
        self.insert(v, pc)
        return True

    def insert(self, v: np.ndarray, pc: int) -> np.ndarray:
        v = v * pow(int(v[pc]), -1, self.d) % self.d
        for c, row in self.rows.items():
            if row[pc]:
                self.rows[c] = (row - row[pc] * v) % self.d
        self.rows[pc] = v
        return v

    def echelon(self) -> tuple[list[np.ndarray], list[int]]:
        order = sorted(self.rows)
        return [self.rows[c] for c in order], order

    def nullspace(self, ncols: int) -> np.ndarray:
        free = [c for c in range(ncols) if c not in self.rows]
        basis = np.zeros((len(free), ncols), dtype=np.int64)
        basis[range(len(free)), free] = 1
        for pc, row in self.rows.items():
            if pc < ncols:
                basis[:, pc] = -row[free] % self.d
        return basis

    def solutions(self, ncols: int, nrhs: int) -> np.ndarray | None:
        if any(pc >= ncols for pc in self.rows):
            return None
        out = np.zeros((nrhs, ncols), dtype=np.int64)
        for pc, row in self.rows.items():
            out[:, pc] = row[ncols:ncols + nrhs]
        return out


def _echelon(d: int, mat: np.ndarray | None = None) -> _GF2Echelon | _ModEchelon:
    """The echelon form over F_d of mat's rows (none if mat is None): the one
    place that picks packed rows at d = 2."""
    ech = _GF2Echelon() if d == 2 else _ModEchelon(d)
    if mat is not None:
        for row in ech.pack(mat):
            ech.add(row)
    return ech


def _nullspace(mat: np.ndarray, d: int, ncols: int) -> np.ndarray:
    """Basis rows of {x : mat @ x = 0 mod d}."""
    ech = _echelon(d, mat)
    return ech.unpack(ech.nullspace(ncols), ncols)


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
        self._ech = _echelon(self.d, rows)
        red, _ = self._ech.echelon()
        if len(red) != rows.shape[0]:
            raise ValidationError("generators are linearly dependent")
        self.canonical = self._ech.unpack(red, self.ambient)

    @classmethod
    def zero(cls, d: int, ambient: int) -> "Subspace":
        return cls(d, ambient, np.zeros((0, ambient), dtype=np.int64))

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def contains(self, vec: np.ndarray) -> bool:
        v = np.asarray(vec, dtype=np.int64)
        if v.shape != (self.ambient,):
            raise ValidationError("vector/ambient dimension mismatch")
        return self._ech.pack(v[None, :])[0] in self._ech

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
    if L.ambient % 2 != 0:
        raise ValidationError("perp requires an even ambient dimension")
    return Subspace(L.d, L.ambient, _nullspace(symplectic_dual(L.basis, L.d), L.d, L.ambient))


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
    """A uniformly random v in span(v_basis) with <t_i, v> = rhs_i for each
    target row: the echelon form's particular solution plus a uniform
    combination of its nullspace."""
    r = v_basis.shape[0]
    products = (symplectic_dual(targets, d) @ v_basis.T) % d
    ech = _echelon(d, np.hstack([products, rhs.reshape(-1, 1)]))
    coeffs = ech.solutions(r, 1)
    if coeffs is None:
        raise ValidationError("constraint system has no solution; input is not a valid code")
    coeffs = ech.unpack(coeffs, r)[0]
    ker = ech.unpack(ech.nullspace(r), r)
    if len(ker):
        coeffs = (coeffs + rng.integers(0, d, size=len(ker)) @ ker) % d
    return (coeffs @ v_basis) % d


def _shrink(v_basis: np.ndarray, g: np.ndarray, h: np.ndarray, d: int) -> np.ndarray:
    """Basis of {v in span(v_basis) : <g, v> = <h, v> = 0}."""
    products = (symplectic_dual(np.array([g, h]), d) @ v_basis.T) % d
    return (_nullspace(products, d, v_basis.shape[0]) @ v_basis) % d


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


class _DualEchelon:
    """The echelon form of the rows [dual(g_i) | e_i] of a growing list of
    vectors g_1..g_m in F_d^ambient (m <= dim), with the basis of
    perp(span g) kept in place: row for row the basis that `nullspace`
    would read off the form.  The identity columns give representatives y_j
    with <g_i, y_j> = delta_ij.  Packed g and perp rows have width
    ambient + dim and are zero beyond `ambient`.
    """

    def __init__(self, d: int, ambient: int, dim: int) -> None:
        self.d = d
        self.ambient = ambient
        self.width = ambient + dim
        self.ech = ech = _echelon(d)
        self._units = ech.units(dim, self.width, ambient)
        self.free = list(range(ambient))
        self.perp = ech.units(ambient, self.width)
        self.rows: list = []

    @classmethod
    def of(cls, d: int, gens: np.ndarray) -> "_DualEchelon":
        """The form grown from the given rows, in order."""
        gens = np.asarray(gens, dtype=np.int64)
        dim, ambient = gens.shape
        grown = cls(d, ambient, dim)
        for g in grown.ech.pack(np.hstack([gens, np.zeros((dim, dim), dtype=np.int64)])):
            if not grown.add(g):
                raise ValidationError("generators are linearly dependent")
        return grown

    def add(self, g) -> bool:
        """Append the packed row g; False, changing nothing, if g lies in the
        span of the rows so far."""
        ech = self.ech
        r = ech.reduce(ech.dual(g, self.ambient) + self._units[len(self.rows)])
        p = ech.lead(r)
        if p >= self.ambient:
            return False
        r = ech.insert(r, p)
        self.perp = ech.drop_free(self.perp, self.free, r, p)
        self.free.remove(p)
        self.rows.append(g)
        return True

    def basis(self) -> np.ndarray:
        """The rows g_i as an int64 digit matrix."""
        return self.ech.unpack(self.rows, self.width)[:, :self.ambient]

    def perp_basis(self) -> np.ndarray:
        """Basis rows of perp(span g), one per free column in increasing order."""
        return self.ech.unpack(self.perp, self.width)[:, :self.ambient]

    def reps(self) -> np.ndarray:
        """Rows y_j with <g_i, y_j> = delta_ij."""
        return self.ech.unpack(self.ech.solutions(self.ambient, len(self.rows)), self.ambient)


def _sample_isotropic(d: int, ambient: int, dim: int, rng: np.random.Generator
                      ) -> _DualEchelon:
    """The grown form of a uniformly random self-orthogonal subspace: each
    row is a uniform vector of perp(current) \\ current."""
    grown = _DualEchelon(d, ambient, dim)
    for _ in range(dim):
        while not grown.add(grown.ech.combine(rng.integers(0, d, size=len(grown.free)),
                                              grown.perp)):
            pass
    return grown


def random_isotropic_basis(d: int, ambient: int, dim: int, rng: np.random.Generator
                           ) -> np.ndarray:
    """Basis rows of a uniformly random self-orthogonal subspace.

    Grows one dimension at a time with a uniform vector from
    perp(current) \\ current, on one echelon form of [dual | I] that gives
    both the membership test and perp(current) without a fresh elimination.
    """
    return _sample_isotropic(d, ambient, dim, rng).basis()


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
    return Subspace(d, ambient, random_isotropic_basis(d, ambient, dim, rng))
