"""Stabilizer codes as self-orthogonal subspaces with hyperbolic completions:
a named catalog, inner/outer concatenation in Kronecker form (I_N (x) inner
generators stacked over the outer generators times I_N (x) inner logical
pairs), and block-diagonal direct sums.

Code file format (text): a header line "d n k" followed by n-k generator
lines.  A generator line is either 2n space-separated digits (interleaved
layout) or a compact digit string of length n over Z_{d^2}, where digit
t encodes the pair (u, v) = (t mod d, t div d); e.g. over d=3 the string
"1100000" is the vector (1,0, 1,0, 0,0, ..., 0,0).  The catalog gives the
five-qubit code in this digit format.
"""

from __future__ import annotations

import functools
import re

import numpy as np

from ._util import ValidationError, check_array_build
from .gf import _check_modulus
from .symplectic import HyperbolicBasis, Subspace, hyperbolic_complete


class StabilizerCode:
    """A self-orthogonal subspace L of F_d^{2n} plus a hyperbolic completion.

    dim L = n - k; the first n - k completion vectors g_i are L's generators,
    and the remaining k pairs (g_{n-k+m}, h_{n-k+m}) carry the logical labels.
    k = n (an empty L) is allowed and encodes the unencoded n-symbol system.
    The completion defaults to the canonical hyperbolic_complete(subspace);
    pass any HyperbolicBasis that starts with the generators to choose another.
    """

    def __init__(self, subspace: Subspace, completion: HyperbolicBasis | None = None,
                 *, name: str | None = None) -> None:
        self.subspace = subspace
        self.d = subspace.d
        self.n = subspace.ambient // 2
        self.k = self.n - subspace.dim
        self.name = name
        if completion is None:
            completion = hyperbolic_complete(subspace)
        else:
            self._check_completion(subspace, completion)
        self.completion = completion

    @staticmethod
    def _check_completion(subspace: Subspace, completion: HyperbolicBasis) -> None:
        if completion.d != subspace.d or completion.n != subspace.ambient // 2:
            raise ValidationError("completion does not match the code dimensions")
        if not completion.gram_ok():
            raise ValidationError("completion violates the hyperbolic pairing conditions")
        if not (completion.g[:subspace.dim] % subspace.d == subspace.basis).all():
            raise ValidationError("completion must start with the code generators")

    @property
    def generators(self) -> np.ndarray:
        return self.subspace.basis

    @functools.cached_property
    def _site_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """spectra.probability_array's channel-free row and column gather
        tables, built on the first call and kept; construction builds none."""
        from .spectra import _site_tables  # spectra imports this module
        return _site_tables(self)

    def logical_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """(g, h) arrays of the k logical hyperbolic pairs."""
        nk = self.n - self.k
        return self.completion.g[nk:], self.completion.h[nk:]

    def _key(self) -> tuple:
        return (self.d, self.n, self.k,
                self.subspace.canonical.tobytes(),
                self.completion.g.tobytes(), self.completion.h.tobytes())

    def __eq__(self, other):
        if not isinstance(other, StabilizerCode):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"StabilizerCode(d={self.d}, n={self.n}, k={self.k}{label})"


# ---------------------------------------------------------------------------
# catalog


# XZZXI and its cyclic shifts in the code-file digit format (I = 0, X = 1, Z = 2)
_FIVE_QUBIT_STRINGS = ("12210", "01221", "10122", "21012")


def _repetition_generators(n: int) -> np.ndarray:
    """[1 | I_{n-1}] (x) (1, 0): generator i is X on qudit 1 and on qudit i+2."""
    return np.kron(np.c_[np.ones(n - 1, np.int64), np.eye(n - 1, dtype=np.int64)], [1, 0])


def catalog_names() -> list[str]:
    return ["trivial(n)", "rep(n)", "five_qubit"]


def catalog(name: str, d: int) -> StabilizerCode:
    """A named code with the canonical completion.

    Supported names: trivial(n) for any n >= 1, rep(n) for any n >= 2 and any
    prime d, five_qubit (d = 2 only).  Parentheses are optional: rep7 == rep(7).
    Raises GuardError (check_array_build) before anything is built.
    """
    d = _check_modulus(d)
    name = name.strip().lower()
    m = re.fullmatch(r"(rep|trivial)\(?(\d+)\)?", name)
    if m:
        kind, n = m.group(1), int(m.group(2))
        check_array_build(d, n, n if kind == "trivial" else 1)
        if kind == "trivial":
            if n < 1:
                raise ValidationError("trivial(n) needs n >= 1")
            return StabilizerCode(Subspace(d, 2 * n, []), name=f"trivial({n})")
        if n < 2:
            raise ValidationError("rep(n) needs n >= 2")
        return StabilizerCode(Subspace(d, 2 * n, _repetition_generators(n)), name=f"rep({n})")
    if name in ("five_qubit", "five-qubit", "5qubit"):
        if d != 2:
            raise ValidationError("five_qubit is a d=2 code")
        gens = [vector_from_digit_string(2, s) for s in _FIVE_QUBIT_STRINGS]
        return StabilizerCode(Subspace(2, 10, gens), name="five_qubit")
    raise ValidationError(f"unknown catalog code {name!r}")


# ---------------------------------------------------------------------------
# digit strings and code files


def vector_from_digit_string(d: int, digits: str) -> np.ndarray:
    """Decode a length-n string over Z_{d^2}: digit t -> (t mod d, t div d)."""
    coords: list[int] = []
    for ch in digits:
        t = int(ch)
        if not 0 <= t < d * d:
            raise ValidationError(f"digit {t} out of range for d={d}")
        coords += [t % d, t // d]
    return np.array(coords, dtype=np.int64)


def write_code_file(code: StabilizerCode, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{code.d} {code.n} {code.k}\n")
        for row in code.generators:
            fh.write(" ".join(str(int(c)) for c in row) + "\n")


def read_code_file(path) -> StabilizerCode:
    return StabilizerCode(read_generators(path))


def read_generators(path, shape: tuple[int, int] | None = None) -> Subspace:
    """A code file's generators as a Subspace of F_d^{2n}.  Before any row
    is built, the header must give shape = (d, n) if that is given, as an
    outer code over an inner code's kN labels must, or else pass the array
    guard (check_array_build): no array of an outer code is ever built."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [(no, ln.strip()) for no, ln in enumerate(fh, 1)
                 if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines:
        raise ValidationError("empty code file")
    head = lines[0][1].split()
    if len(head) != 3:
        raise ValidationError("code file header must be 'd n k'")
    d, n, k = (int(t) for t in head)
    if n < 1:
        raise ValidationError(f"code file header needs n >= 1 qudits, got n = {n}")
    if not 0 <= k <= n:
        raise ValidationError(f"code file header needs 0 <= k <= n, got k = {k} with n = {n}")
    d = _check_modulus(d)
    if shape is None:
        check_array_build(d, n, k)
    elif (d, n) != shape:
        raise ValidationError(f"code file header has (d, n) = {(d, n)}, expected {shape}")
    rows = []
    for no, ln in lines[1:]:
        if " " in ln:
            coords = [int(t) for t in ln.split()]
            if len(coords) != 2 * n:
                raise ValidationError(
                    f"line {no}: generator line has {len(coords)} digits, expected {2 * n}")
            bad = [c for c in coords if not 0 <= c < d]
            if bad:
                raise ValidationError(f"line {no}: digit {bad[0]} out of range for d={d}")
            rows.append(coords)
        else:
            if len(ln) != n:
                raise ValidationError(
                    f"line {no}: digit string has length {len(ln)}, expected {n}")
            try:
                rows.append(vector_from_digit_string(d, ln))
            except ValidationError as exc:
                raise ValidationError(f"line {no}: {exc}") from None
    if len(rows) != n - k:
        raise ValidationError(f"expected {n - k} generators, found {len(rows)}")
    return Subspace(d, 2 * n, rows)


# ---------------------------------------------------------------------------
# concatenation and direct sums


def _bar_matrix(inner: StabilizerCode, N: int) -> np.ndarray:
    """Matrix B with bar(x) = x @ B: I_N (x) the inner logical pairs, rows
    g_m, h_m interleaved, so label pair m of block j multiplies pair m of
    inner block j."""
    gl, hl = inner.logical_pairs()
    pairs = np.stack([gl, hl], axis=1).reshape(2 * inner.k, 2 * inner.n)
    return np.kron(np.eye(N, dtype=np.int64), pairs)


def bar_map(inner: StabilizerCode, x: np.ndarray) -> np.ndarray:
    """Embed a logical-label vector x in F_d^{2kN} into F_d^{2nN}.

    Coordinate pair (u_{j,m}, u'_{j,m}) of x multiplies the logical pair
    (g_{n-k+m}, h_{n-k+m}) of inner block j.  The map is a symplectic isometry.
    """
    x = np.asarray(x, dtype=np.int64)
    if inner.k == 0:
        raise ValidationError("inner code has no logical pairs (k = 0)")
    if x.ndim != 1 or x.size % (2 * inner.k) != 0:
        raise ValidationError(f"vector length {x.size} is not a multiple of 2k = {2 * inner.k}")
    N = x.size // (2 * inner.k)
    return (x @ _bar_matrix(inner, N)) % inner.d


def concatenate(inner: StabilizerCode, outer: StabilizerCode) -> StabilizerCode:
    """Concatenate an (n, k) inner code with an outer code over F_d^{2kN}.

    The generator matrix stacks I_N (x) (inner generators) over
    (outer generators) @ B, with B = I_N (x) (inner logical pairs) the bar
    map: an (nN, K) code.
    """
    if inner.d != outer.d:
        raise ValidationError("inner and outer codes must share d")
    if inner.k == 0:
        raise ValidationError("inner code must have k >= 1")
    if outer.n % inner.k != 0:
        raise ValidationError(
            f"outer ambient {2 * outer.n} is not 2*k*N for inner k={inner.k}")
    N = outer.n // inner.k
    gens = np.vstack([np.kron(np.eye(N, dtype=np.int64), inner.generators),
                      outer.generators @ _bar_matrix(inner, N) % inner.d])
    return StabilizerCode(Subspace(inner.d, 2 * inner.n * N, gens),
                          name=f"concat[{inner.name or 'inner'};{outer.name or 'outer'}]")


def _block_diag(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The block matrix [[x, 0], [0, y]]."""
    return np.block([[x, np.zeros((len(x), y.shape[1]), dtype=np.int64)],
                     [np.zeros((len(y), x.shape[1]), dtype=np.int64), y]])


def direct_sum(a: StabilizerCode, b: StabilizerCode) -> StabilizerCode:
    """The code on concatenated coordinates whose generators are the two
    generator sets side by side; the completion is pasted blockwise, with
    both codes' generator pairs before both codes' logical pairs."""
    if a.d != b.d:
        raise ValidationError("modulus mismatch")
    n, nk_a, nk_b = a.n + b.n, a.n - a.k, b.n - b.k
    order = np.r_[0:nk_a, a.n:a.n + nk_b, nk_a:a.n, a.n + nk_b:n]
    g = _block_diag(a.completion.g, b.completion.g)[order]
    h = _block_diag(a.completion.h, b.completion.h)[order]
    return StabilizerCode(Subspace(a.d, 2 * n, g[:nk_a + nk_b]), HyperbolicBasis(a.d, g, h),
                          name=f"({a.name or '?'})+({b.name or '?'})")
