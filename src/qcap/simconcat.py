"""Monte Carlo simulation of the concatenated-code decoder in (z, v)
coordinates, plus the exact type-sum upper bound on average infidelity.

A concatenated code with N inner blocks never needs to be materialized:
conditioned on the inner syndromes z = (z_1..z_N), an error is equivalent,
block by block, to its logical label v = (v_1..v_N), and the pair (z_j, v_j)
of one block is distributed exactly like the (row, column) index of the
inner code's probability array.  Decoding searches the candidates v'
with the observed outer syndrome (a coset of perp(C_out), of size d^{kN+K})
for the one whose joint type with z has minimum conditional entropy; the
decoded block succeeds iff v_hat - v lands in C_out.

The coset is v0 + span(B) for a basis B of perp(C_out).  B and the
syndrome representatives behind v0 come from one echelon form of
[dual(C_out) | I], the one the isotropic sampler grows while it draws a
resampled outer code (an explicit outer code grows it from its rows); the
sampler keeps B up to date in place as rows join.  Splitting B into
halves B1, B2, the decoder lists the per-block symbols of v0 + span(B1) and
of span(B2), about sqrt(d^{kN+K}) vectors each, and forms every candidate's
symbols by looking up, per block, the sum of a v0 + span(B1) symbol and a
span(B2) symbol in a table built once per outer code.

Entropy comparisons between types are resolved exactly: for counts c the
quantity N*H_c differs from a constant by -log(prod c^c), so candidate
order and tie handling reduce to integer comparisons of prod c^c.  The key
needs no table of cells: if block j's joint symbol (z_j, v'_j) is shared by
n_j of the N blocks, then prod_j n_j = prod_cells c^c, since a cell holding
c blocks contributes c factors of c.  A float product screens the
candidates, and Python ints compare the near-best ones, so which candidates
tie never depends on rounding; ties go to the lexicographically smallest
digit vector.

The exact bound never lists joint types.  A type enters it only through its
z-marginal a, its key prod c^c, its shell (the number of v per fixed z) and
its probability, and given a all four factor over syndrome rows.  So each
row's contents are folded into classes by (row total, key), and the rows'
classes are multiplied together once per z-marginal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._util import GuardError, ValidationError, wilson_interval
from .channels import PauliChannel
from .codes import StabilizerCode
from .exponent import compositions
from .gf import index_to_digits
from .spectra import ProbabilityArray, probability_array
from .symplectic import Subspace, _DualEchelon, _sample_isotropic, symplectic_dual

_SEARCH_GUARD = 1 << 24


# ---------------------------------------------------------------------------
# configuration and report


@dataclass(frozen=True)
class SimConfig:
    """One decoder experiment: an inner code, an outer code over the inner
    logical labels (an explicit self-orthogonal subspace, or None for a
    seeded random draw, fixed or fresh every trial), and the channel/trial
    bookkeeping."""

    inner: StabilizerCode
    outer: Subspace | None
    N: int
    K: int
    channel: PauliChannel
    trials: int
    seed: int
    resample_outer: bool = False
    record_trace: bool = False

    def __post_init__(self):
        k, N, K = self.inner.k, self.N, self.K
        if k < 1:
            raise ValidationError("inner code needs k >= 1")
        if N < 1:
            raise ValidationError("need at least one outer block")
        if not 0 <= K <= k * N:
            raise ValidationError(f"K must lie in [0, kN] = [0, {k * N}]")
        if self.trials < 1:
            raise ValidationError("trials must be >= 1")
        if self.channel.d != self.inner.d:
            raise ValidationError("channel and inner code moduli differ")
        sub = self.outer
        if sub is not None:
            if self.resample_outer:
                raise ValidationError("resample_outer draws the outer code; "
                                      "it cannot be combined with an explicit outer code")
            if sub.d != self.inner.d:
                raise ValidationError("outer and inner code moduli differ")
            if sub.ambient != 2 * k * N:
                raise ValidationError(
                    f"outer ambient {sub.ambient} != 2kN = {2 * k * N}")
            if sub.dim != k * N - K:
                raise ValidationError(
                    f"outer dimension {sub.dim} != kN - K = {k * N - K}")


@dataclass(frozen=True)
class SimReport:
    failures: int
    trials: int
    failure_rate: float
    wilson_low: float
    wilson_high: float
    trace: tuple | None = None

    def as_dict(self) -> dict:
        return {
            "failures": self.failures,
            "trials": self.trials,
            "failure_rate": self.failure_rate,
            "wilson_low": self.wilson_low,
            "wilson_high": self.wilson_high,
        }


# ---------------------------------------------------------------------------
# error sampling


def sample_error(array: ProbabilityArray, N: int, rng: np.random.Generator
                 ) -> tuple[np.ndarray, np.ndarray]:
    """N i.i.d. draws from the inner probability array, one per outer block.

    Returns (z_indices, v_indices): row and column indices in the array's
    mixed-radix order.
    """
    flat = array.table.ravel()
    cdf = np.cumsum(flat)
    cdf[-1] = 1.0
    draws = np.searchsorted(cdf, rng.random(N), side="right")
    return draws // array.cols, draws % array.cols


# ---------------------------------------------------------------------------
# outer-code decoding context


class _OuterContext:
    """Per-outer-code machinery, built from the grown echelon form of C_out's
    generator rows (kN-K, 2kN): syndrome map, the two halves of the
    candidate coset enumeration, and membership tests."""

    def __init__(self, outer: _DualEchelon, k: int, N: int):
        self.d = d = outer.d
        self.k = k
        self.N = N
        self.length = length = outer.ambient
        self.n_checks = len(outer.rows)
        self.search_size = d ** (length - self.n_checks)
        if self.search_size > _SEARCH_GUARD:
            raise GuardError(
                f"decoder search set d^(kN+K) = {self.search_size} exceeds 2^24")
        self.dual = symplectic_dual(outer.basis(), d)
        # the form of [dual | I] holds a basis of perp(C_out) and
        # representatives y_i with <g'_i, y_j> = delta_ij, so that
        # v0 = sigma @ reps has syndrome sigma
        self.perp_basis = outer.perp_basis()
        self.reps = outer.reps()
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


def _decode_ctx(inner: StabilizerCode, ctx: _OuterContext, z_indices: np.ndarray,
                sigma: np.ndarray) -> np.ndarray:
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


# ---------------------------------------------------------------------------
# simulation


def simulate(cfg: SimConfig) -> SimReport:
    """Run the decoder experiment; fully reproducible from cfg.seed.

    Per trial: draw (or reuse) the outer code, sample the per-block
    (syndrome, logical) labels from the inner array, decode by minimum
    conditional type entropy within the observed outer-syndrome coset, and
    count a failure when the decoded and true labels differ by a vector
    outside C_out.
    """
    inner = cfg.inner
    d, k, N, K = inner.d, inner.k, cfg.N, cfg.K
    arr = probability_array(inner, cfg.channel)
    cols = arr.cols

    fixed_ctx = None
    if cfg.outer is not None:
        fixed_ctx = _OuterContext(_DualEchelon.of(d, cfg.outer.basis), k, N)
    elif not cfg.resample_outer:
        fixed_ctx = _OuterContext(_sample_isotropic(
            d, 2 * k * N, k * N - K, np.random.default_rng((cfg.seed, 0, 2))), k, N)

    col_digits = index_to_digits(np.arange(cols), d, 2 * k)
    failures = 0
    trace = [] if cfg.record_trace else None
    for t in range(cfg.trials):
        rng = np.random.default_rng((cfg.seed, t))
        if fixed_ctx is not None:
            ctx = fixed_ctx
        else:
            outer = _sample_isotropic(d, 2 * k * N, k * N - K,
                                      np.random.default_rng((cfg.seed, t, 1)))
            ctx = _OuterContext(outer, k, N)
        z_idx, v_idx = sample_error(arr, N, rng)
        v_digits = col_digits[v_idx].ravel()
        sigma = ctx.syndrome(v_digits)
        v_hat = _decode_ctx(inner, ctx, z_idx, sigma)
        diff = (col_digits[v_hat].ravel() - v_digits) % d
        ok = ctx.contains(diff)
        if not ok:
            failures += 1
        if trace is not None:
            trace.append({"trial": t, "failure": not ok,
                          "z": z_idx.tolist(), "v": v_idx.tolist(),
                          "v_hat": v_hat.tolist()})
    low, high = wilson_interval(failures, cfg.trials)
    return SimReport(failures, cfg.trials, failures / cfg.trials, low, high,
                     tuple(trace) if trace is not None else None)


# ---------------------------------------------------------------------------
# exact ensemble-average fidelity bound


def _row_classes(q: list[float], N: int, lone: bool, powers: list[int], spend
                 ) -> list[tuple[dict, dict]]:
    """classes[c] = (shells, probability), two dicts keyed by prod t^t, over
    the contents t of one syndrome row that hold c blocks in total.

    The shell is the number of logical sequences on those c blocks with the
    given per-column counts t; the probability sums shell * prod q^t.  The
    row's columns are folded in one at a time: placing b more blocks on a
    column multiplies the shells of a row already holding `used` blocks by
    comb(used + b, b).  A lone row holds all N blocks, so only that total is
    kept from its last column.  powers[b] = b**b for b <= N.  spend(n) is
    told of each block of n dictionary updates before the block runs.
    """
    classes = [({1: 1}, {1: 1.0})] + [({}, {}) for _ in range(N)]
    for j, qc in enumerate(q):
        least = N if lone and j == len(q) - 1 else 0
        folded = [({}, {}) for _ in range(N + 1)]
        for used, (shells, probs) in enumerate(classes):
            if not shells:
                continue
            first = max(least - used, 0)
            spend(len(shells) * (N - used + 1 - first))
            for b in range(first, N - used + 1):
                ways = math.comb(used + b, b)
                weight, power = ways * qc**b, powers[b]
                to_shells, to_probs = folded[used + b]
                for key, shell in shells.items():
                    new = key * power
                    to_shells[new] = to_shells.get(new, 0) + shell * ways
                    to_probs[new] = to_probs.get(new, 0.0) + probs[key] * weight
        classes = folded
    return classes


def fidelity_bound_exact(inner: StabilizerCode, N: int, K: int, channel: PauliChannel,
                         *, max_work: int = 5_000_000) -> float:
    """Exact evaluation of the type-grouped upper bound on the ensemble
    average infidelity 1 - Fbar of the concatenated code.

    Every joint type T of [z, v] sequences contributes its probability times
    min{ #competitors * d^-(kN-K), 1 }, where the competitors are the v'
    sharing z whose joint type has conditional entropy <= that of T (ties
    included, resolved by exact integer keys).

    Per z-marginal a, the rows' classes multiply: keys and shells multiply,
    and the probability starts from N!/prod a_s!.  Sorting a's keys in
    descending order and accumulating shells gives every competitor count.
    The guard counts the fold's dictionary updates, weighted by the machine
    words of an N-block key, a block at a time before the block runs (a
    lower bound before the array is built), and raises GuardError once they
    would pass max_work.
    """
    d, k = inner.d, inner.k
    if N < 1:
        raise ValidationError("need at least one outer block")
    if not 0 <= K <= k * N:
        raise ValidationError(f"K must lie in [0, kN] = [0, {k * N}]")
    # keys and shells reach N^N, so one update costs about this many words
    words = 1 + N * N.bit_length() // 64
    work = 0

    def spend(updates: int) -> None:
        nonlocal work
        work += updates * words
        if work > max_work:
            raise GuardError(f"the type-sum fold needs more than {max_work} word-sized "
                             "dictionary updates (the guard)")

    # the table of the N + 1 keys b**b is built, each array cell is folded,
    # and each z-marginal touches every row
    rows = d ** (inner.n - k)
    spend(N + 1)
    spend(rows * d ** (2 * k))
    spend(math.comb(N + rows - 1, N) * rows)
    powers = [b**b for b in range(N + 1)]
    arr = probability_array(inner, channel)
    row_classes = [_row_classes(q, N, arr.rows == 1, powers, spend)
                   for q in arr.table.tolist()]

    scale = float(d) ** (K - k * N)
    terms = []
    for a in compositions(N, arr.rows).tolist():
        weight = math.factorial(N) // math.prod(math.factorial(c) for c in a)
        shells, probs = {1: 1}, {1: float(weight)}
        for classes, c in zip(row_classes, a):
            row_shells, row_probs = classes[c]
            spend(len(shells) * len(row_shells))
            to_shells, to_probs = {}, {}
            for key, shell in shells.items():
                prob = probs[key]
                for row_key, row_shell in row_shells.items():
                    new = key * row_key
                    to_shells[new] = to_shells.get(new, 0) + shell * row_shell
                    to_probs[new] = to_probs.get(new, 0.0) + prob * row_probs[row_key]
            shells, probs = to_shells, to_probs
        cum = 0
        for key in sorted(shells, reverse=True):
            cum += shells[key]
            terms.append(probs[key] * min(cum * scale, 1.0))
    # the probabilities sum to 1 only up to rounding
    return min(math.fsum(terms), 1.0)
