"""Stabilizer codes as self-orthogonal subspaces with hyperbolic completions:
a named catalog, inner/outer concatenation, and direct sums.

Code file format (text): a header line "d n k" followed by n-k generator
lines.  A generator line is either 2n space-separated digits (interleaved
layout) or a compact digit string of length n over Z_{d^2}, where digit
t encodes the pair (u, v) = (t mod d, t div d); e.g. over d=3 the string
"1100000" is the vector (1,0, 1,0, 0,0, ..., 0,0).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from ._util import ValidationError
from .gf import _check_modulus
from .symplectic import (
    HyperbolicBasis,
    Subspace,
    hyperbolic_complete,
    is_self_orthogonal,
)


class StabilizerCode:
    """A self-orthogonal subspace L of F_d^{2n} plus a hyperbolic completion.

    dim L = n - k; the first n - k completion vectors g_i are L's generators,
    and the remaining k pairs (g_{n-k+m}, h_{n-k+m}) carry the logical labels.
    k = n (an empty L) is allowed and encodes the unencoded n-symbol system.
    The completion defaults to hyperbolic_complete(subspace, 0); pass
    hyperbolic_complete(subspace, seed) to choose another.
    """

    def __init__(self, subspace: Subspace, completion: HyperbolicBasis | None = None,
                 *, name: str | None = None) -> None:
        if subspace.ambient % 2 != 0:
            raise ValidationError("code ambient dimension must be even")
        if not is_self_orthogonal(subspace):
            raise ValidationError("stabilizer generators must be mutually orthogonal")
        self.subspace = subspace
        self.d = subspace.d
        self.n = subspace.ambient // 2
        self.k = self.n - subspace.dim
        if self.k < 0:
            raise ValidationError("more generators than n")
        self.name = name
        if completion is None:
            completion = hyperbolic_complete(subspace, 0)
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

    @classmethod
    def from_generators(cls, d: int, n: int, generators, *,
                        name: str | None = None) -> "StabilizerCode":
        return cls(Subspace(d, 2 * n, generators), name=name)

    @property
    def generators(self) -> np.ndarray:
        return self.subspace.basis

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


_FIVE_QUBIT_STRINGS = ("XZZXI", "IXZZX", "XIXZZ", "ZXIXZ")


def _pauli_string_vector(s: str) -> list[int]:
    coords: list[int] = []
    for ch in s:
        if ch == "I":
            coords += [0, 0]
        elif ch == "X":
            coords += [1, 0]
        elif ch == "Z":
            coords += [0, 1]
        elif ch == "Y":
            coords += [1, 1]
        else:
            raise ValidationError(f"unknown Pauli letter {ch!r}")
    return coords


def _repetition_generators(d: int, n: int) -> np.ndarray:
    # generator i has the X-type letter (1, 0) in block 1 and in block i+1
    gens = np.zeros((n - 1, 2 * n), dtype=np.int64)
    for i in range(n - 1):
        gens[i, 0] = 1
        gens[i, 2 * (i + 1)] = 1
    return gens


def catalog_names() -> list[str]:
    return ["trivial(n)", "rep(n)", "five_qubit"]


def catalog(name: str, d: int) -> StabilizerCode:
    """A named code with a deterministic (seed 0) completion.

    Supported names: trivial(n) for any n >= 1, rep(n) for any n >= 2 and any
    prime d, five_qubit (d = 2 only).  Parentheses are optional: rep7 == rep(7).
    """
    d = _check_modulus(d)
    name = name.strip().lower()
    m = re.fullmatch(r"(rep|trivial)\(?(\d+)\)?", name)
    if m:
        kind, n = m.group(1), int(m.group(2))
        if kind == "trivial":
            if n < 1:
                raise ValidationError("trivial(n) needs n >= 1")
            return StabilizerCode.from_generators(d, n, np.zeros((0, 2 * n), dtype=np.int64),
                                                  name=f"trivial({n})")
        if n < 2:
            raise ValidationError("rep(n) needs n >= 2")
        return StabilizerCode.from_generators(d, n, _repetition_generators(d, n),
                                              name=f"rep({n})")
    if name in ("five_qubit", "five-qubit", "5qubit"):
        if d != 2:
            raise ValidationError("five_qubit is a d=2 code")
        gens = [_pauli_string_vector(s) for s in _FIVE_QUBIT_STRINGS]
        return StabilizerCode.from_generators(2, 5, gens, name="five_qubit")
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
    return StabilizerCode.from_generators(d, n, rows)


# ---------------------------------------------------------------------------
# concatenation and direct sums


def _embed_block(x: np.ndarray, block: int, n: int, N: int) -> np.ndarray:
    out = np.zeros(2 * n * N, dtype=np.int64)
    out[2 * n * block:2 * n * (block + 1)] = x
    return out


def _bar_matrix(inner: StabilizerCode, N: int) -> np.ndarray:
    """Matrix B with bar(x) = x @ B: logical labels of N inner blocks embedded
    into the inner logical pairs, block by block."""
    d, n, k = inner.d, inner.n, inner.k
    gl, hl = inner.logical_pairs()
    B = np.zeros((2 * k * N, 2 * n * N), dtype=np.int64)
    for j in range(N):
        for m_idx in range(k):
            B[2 * (k * j + m_idx)] = _embed_block(gl[m_idx], j, n, N)
            B[2 * (k * j + m_idx) + 1] = _embed_block(hl[m_idx], j, n, N)
    return B % d


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


@dataclass(frozen=True)
class ConcatenatedCode:
    inner: StabilizerCode
    outer: StabilizerCode
    result: StabilizerCode

    @property
    def N(self) -> int:
        return self.outer.n // self.inner.k

    @property
    def K(self) -> int:
        return self.outer.k


def concatenate(inner: StabilizerCode, outer: StabilizerCode) -> ConcatenatedCode:
    """Concatenate an (n, k) inner code with an outer code over F_d^{2kN}.

    The result spans the N embedded copies of the inner generators together
    with the bar images of the outer generators: an (nN, K) code.
    """
    if inner.d != outer.d:
        raise ValidationError("inner and outer codes must share d")
    if inner.k == 0:
        raise ValidationError("inner code must have k >= 1")
    if outer.n % inner.k != 0:
        raise ValidationError(
            f"outer ambient {2 * outer.n} is not 2*k*N for inner k={inner.k}")
    N = outer.n // inner.k
    if N < 1:
        raise ValidationError("need at least one inner block")
    d, n, k = inner.d, inner.n, inner.k
    barmat = _bar_matrix(inner, N)
    rows: list[np.ndarray] = []
    for j in range(N):
        for gen in inner.generators:
            rows.append(_embed_block(gen, j, n, N))
    for gen in outer.generators:
        rows.append((gen @ barmat) % d)
    result = StabilizerCode.from_generators(
        d, n * N, np.array(rows, dtype=np.int64).reshape(len(rows), 2 * n * N),
        name=f"concat[{inner.name or 'inner'};{outer.name or 'outer'}]")
    if result.k != outer.k:
        raise ValidationError("concatenated dimension check failed")
    return ConcatenatedCode(inner, outer, result)


def direct_sum(a: StabilizerCode, b: StabilizerCode) -> StabilizerCode:
    """The code on concatenated coordinates whose generators are the two
    generator sets embedded side by side; the completion is pasted blockwise."""
    if a.d != b.d:
        raise ValidationError("modulus mismatch")
    d = a.d
    n = a.n + b.n
    left = lambda row: np.concatenate([row, np.zeros(2 * b.n, dtype=np.int64)])
    right = lambda row: np.concatenate([np.zeros(2 * a.n, dtype=np.int64), row])

    nk_a, nk_b = a.n - a.k, b.n - b.k
    g_rows = ([left(r) for r in a.completion.g[:nk_a]]
              + [right(r) for r in b.completion.g[:nk_b]]
              + [left(r) for r in a.completion.g[nk_a:]]
              + [right(r) for r in b.completion.g[nk_b:]])
    h_rows = ([left(r) for r in a.completion.h[:nk_a]]
              + [right(r) for r in b.completion.h[:nk_b]]
              + [left(r) for r in a.completion.h[nk_a:]]
              + [right(r) for r in b.completion.h[nk_b:]])
    completion = HyperbolicBasis(d, np.array(g_rows), np.array(h_rows))

    gens = [left(r) for r in a.generators] + [right(r) for r in b.generators]
    return StabilizerCode(Subspace(d, 2 * n, gens), completion,
                          name=f"({a.name or '?'})+({b.name or '?'})")
