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

The trials run on a trial axis in batches of _BATCH, and consecutive
batches run together as one group, as many as _group_size allows.  A
group draws its errors, samples its outer codes, certifies the winners it
can and decodes the other trials as array operations in mod-d integer
arithmetic, as many at once as keep their (N, T, Q) candidate keys within
a fixed budget of cells and no more than a batch's share of the group's,
into one scratch made after the group has sampled and freed before the
next group samples.  It then tests every trial's success at once and
yields one record per batch (_batches): simulate sums their failures,
and the tests read them trial by trial.  The results follow seed contract
v4 (SEED_CONTRACT), which fixes the random streams and, by the canonical
completion, the inner codes' labels.  Batch b, trials b*_BATCH onwards,
reads one generator, (seed, b): one `random((T, N))` call gives its error
uniforms, row t for its trial t, and with a resampled outer code the
isotropic sampler then draws one block of digits per round of attempts,
a row for each of the batch's trials still drawing, in trial order; in a
group each generator reads just these digits.  The outer code drawn once
for all trials is sample_self_orthogonal(d, 2kN, kN - K, (seed, 0, 2)),
decoded as an explicit outer code would be, and its tables are built on
the first group with a trial to enumerate.  So the results depend on
_BATCH, part of the contract, but neither on the decoding budget nor on
how many batches run together; tests/test_seed_contract.py keeps the
record of each contract.

The candidates, the v' with v's outer syndrome, are the coset
v + perp(C_out), and the winner is a function of that set however it is
listed, so the decoder needs only a basis B of perp(C_out): a Subspace's
canonical one, or for a resampled outer code the one read off the rows of
the isotropic sampler's form of [dual(C_out) | I], which is the same
basis.  Each half B1, B2 of B gets one table per outer code, the
per-block sums of every symbol and every vector of its span (about
sqrt(d^{kN+K}) vectors): the head table at v's symbols lists v + span(B1),
and the tail table at each of those adds span(B2).

Before anything is listed, a trial whose v is constant on every syndrome
group is certified.  A group of n_g blocks contributes at most n_g^(n_g) to
the key prod c^c below, and exactly that when its blocks share one symbol,
so such a v reaches the largest key any candidate can, and the winner is
the lexicographically smallest candidate constant on each group.  With y
the group symbols in order of first appearance, those candidates solve
A y = A y_v, where A sums the dual of each generator of C_out over a
group's blocks.  Gauss-Jordan elimination of [A | A y_v] with its pivots
taken from the rightmost column first, every free variable set to 0, gives
the smallest solution, at a cost polynomial in 2kG for G groups, never
d^(2kG).  This is the root of a branch and bound over the candidates,
whose bound puts every block of a group on one symbol; below the root that
bound prunes too few candidates to pay for itself, so the other trials are
enumerated in full.

Entropy comparisons between types are resolved exactly: for counts c the
quantity N*H_c differs from a constant by -log(prod c^c), so candidate
order and tie handling reduce to integer comparisons of prod c^c.  The key
needs no table of cells: if block j's joint symbol (z_j, v'_j) is shared by
n_j of the N blocks, then prod_j n_j = prod_cells c^c, since a cell holding
c blocks contributes c factors of c.  The joint symbol is held as the
integer z_j * d^2k + v'_j, and n_j is counted over pairs of blocks in
uint8.  A float product screens the candidates, and Python ints compare
the near-best ones, so which candidates tie never depends on rounding;
ties go to the lexicographically smallest digit vector.

The exact bound never lists joint types.  A type enters it only through its
z-marginal a, its key prod c^c, its shell (the number of v per fixed z) and
its probability, and given a all four factor over syndrome rows.  Each
row's contents are folded into classes by (row total, key); the keys and
shells of a class do not depend on the row, so z-marginals whose counts
form one partition of N share them, and a row-by-row sum over partitions
of the blocks placed so far collects the probabilities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._util import GuardError, ValidationError, is_int, wilson_interval
from .channels import PauliChannel
from .codes import StabilizerCode
from .gf import _mod, digits_to_index, index_to_digits
from .spectra import ProbabilityArray, probability_array
from .symplectic import (Subspace, _DualEchelon, is_self_orthogonal, sample_self_orthogonal,
                         symplectic_dual)

# the version of simulate's random streams and labels (see the module docstring)
SEED_CONTRACT = 4
_SEARCH_GUARD = 1 << 24
# trials whose errors and outer codes come from one generator; part of the
# seed contract
_BATCH = 64
# the cells that the trials decoded at once may fill with candidate keys
# and tail tables; so it also sizes a batch's decoding scratch
_DECODE_CELLS = 1 << 19
# word-sized dictionary updates the exact bound's type-sum fold may make
_FOLD_WORK = 12_000_000


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

    def __post_init__(self):
        k, N, K = self.inner.k, self.N, self.K
        _check_blocks(self.inner, N, K)
        if not is_int(self.trials) or self.trials < 1:
            raise ValidationError(f"trials must be an integer >= 1, got {self.trials!r}")
        if not is_int(self.seed) or self.seed < 0:
            raise ValidationError(f"seed must be an integer >= 0, got {self.seed!r}")
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
            if not is_self_orthogonal(sub):
                raise ValidationError("outer code must be self-orthogonal")


def _check_blocks(inner: StabilizerCode, N: int, K: int) -> None:
    """Refuse an inner code with k = 0, non-integer N or K, N < 1 outer
    blocks, or K outside [0, kN]."""
    k = inner.k
    if k < 1:
        raise ValidationError("inner code needs k >= 1")
    if not (is_int(N) and is_int(K)):
        raise ValidationError(f"N and K must be integers, got {N!r} and {K!r}")
    if N < 1:
        raise ValidationError("need at least one outer block")
    if not 0 <= K <= k * N:
        raise ValidationError(f"K must lie in [0, kN] = [0, {k * N}]")


@dataclass(frozen=True)
class SimReport:
    failures: int
    trials: int
    failure_rate: float
    wilson_low: float
    wilson_high: float


# ---------------------------------------------------------------------------
# error sampling


def _cell_cdf(array: ProbabilityArray) -> np.ndarray:
    """The cumulative sum of the array's cells in flat order, set to 1 from
    the last cell of positive probability on: a uniform draw in [0, 1) then
    never lands on a cell of probability zero, even where the sum falls an
    ulp short of 1."""
    flat = array.table.ravel()
    cdf = np.cumsum(flat)
    cdf[np.flatnonzero(flat > 0)[-1]:] = 1.0
    return cdf


# ---------------------------------------------------------------------------
# outer-code decoding contexts


class _Contexts:
    """The candidate enumeration of C outer codes, one per trial of a batch
    or one shared by every trial (C = 1): a symbol-sum table of each half of
    a basis of perp(C_out) of each code, (C, kN+K, 2kN).  Nothing else of
    the code is needed: a trial's candidates v + perp(C_out) are a function
    of v and perp(C_out) alone."""

    def __init__(self, inner: StabilizerCode, N: int, perp_basis: np.ndarray):
        self.d, self.N, self.width = inner.d, N, 2 * inner.k
        self.cols = inner.d ** self.width
        half = perp_basis.shape[1] // 2
        self.heads = self._sums(perp_basis[:, :half], _key_type(inner))
        self.tails = self._sums(perp_basis[:, half:], _key_type(inner))

    def _sums(self, basis: np.ndarray, dtype: np.dtype) -> np.ndarray:
        """sums[j, c, s, b]: the symbol of s plus block j of the b-th vector
        of span(basis[c]), added digit by digit, for bases (C, h, 2kN), in a
        type that also holds every key z * cols + symbol.  The float product
        that spans them is exact: its entries are at most h (d-1)^2."""
        d, h = self.d, basis.shape[1]
        coeffs = index_to_digits(np.arange(d**h), d, h).astype(np.float64)
        digits = _mod((coeffs @ basis).astype(np.int64), d).reshape(-1, d**h, self.N, self.width)
        # digit p of block j of code c's b-th vector at [p, j, c, b]: with
        # the digit axis outermost, each digit's sums are one contiguous block
        digits = np.ascontiguousarray(digits.transpose(3, 2, 0, 1), dtype)
        s = index_to_digits(np.arange(self.cols), d, self.width).T.astype(dtype)
        sums = _mod(s[:, None, None, :, None] + digits[:, :, :, None], d)
        return digits_to_index(np.moveaxis(sums, 0, -1), d)

    def decode(self, z: np.ndarray, v: np.ndarray, scratch: _Scratch) -> np.ndarray:
        """Decode T trials, trial t on code t (or on the shared code), from
        their per-block syndromes z and logical symbols v, (T, N) each, in
        a scratch sized for at least T trials.

        Returns the decoded symbols (T, N).  The candidates, the v' with
        v's outer syndrome, are the coset v + perp(C_out): the head table
        at v's symbols lists v + span(first half of the basis), and the tail
        table at each of those adds span(second half).  Each candidate gets
        the key z_j * cols + symbol in every block j, so blocks with
        different syndromes never share a key.
        """
        N, cols = self.N, self.cols
        trials = len(z)
        # block j of trial t reads the rows (j, code, symbol) of either
        # table, where the code is t's own, or the shared one
        codes = self.tails.shape[1]
        first = (np.arange(N)[:, None] * codes + np.arange(trials) % codes) * cols
        head = self.heads.reshape(-1, self.heads.shape[-1])[first + v.T]
        table = self.tails.reshape(-1, self.tails.shape[-1])
        keys = _view(scratch.keys, (N, trials, head.shape[-1], table.shape[-1]))
        # the indices are in range, and mode="raise" would buffer the result
        np.take(table, first[:, :, None] + head, axis=0, out=keys, mode="wrap")
        keys = keys.reshape(N, trials, -1)
        keys += (z.T * cols).astype(keys.dtype)[:, :, None]
        winner = self._winners(keys, z, scratch)
        return keys[:, np.arange(trials), winner].T - z * cols

    def _winners(self, keys: np.ndarray, z: np.ndarray, scratch: _Scratch) -> np.ndarray:
        """Each trial's candidate of minimum conditional type entropy, from
        the (N, T, Q) keys: the largest prod c^c, ties to the
        lexicographically smallest digit vector."""
        N, cols = self.N, self.cols
        shape = keys.shape
        # counts[j, t, c]: the blocks of trial t's candidate c that share
        # block j's key, from the equality rows of later blocks and their tally
        counts = _view(scratch.counts, shape)
        counts.fill(1)
        work = _view(scratch.work, shape)
        equal, tally = work[:N - 1].view(np.bool_), work[N - 1]
        for j in range(N - 1):
            same = np.equal(keys[j + 1:], keys[j], out=equal[:N - 1 - j]).view(np.uint8)
            counts[j] += same.sum(axis=0, dtype=np.uint8, out=tally)
            counts[j + 1:] += same
        # the product over blocks is the entropy key prod c^c; as a float it
        # is exact below 2^53 and within N ulps beyond, so it only screens.
        # Pairs of counts multiply exactly in 16 bits first, in place of the
        # equality rows.
        pairs = _view(scratch.work, (N // 2,) + shape[1:], np.uint16)
        np.multiply(counts[0:N - 1:2], counts[1::2], dtype=np.uint16, out=pairs)
        score = np.prod(pairs, axis=0, dtype=np.float64, out=_view(scratch.score, shape[1:]))
        if N % 2:
            score *= counts[-1]
        near = np.greater_equal(score, score.max(axis=1, keepdims=True) * (1 - 1e-12),
                                out=_view(scratch.work, shape[1:], np.bool_))
        winner = score.argmax(axis=1)
        for t in np.flatnonzero(near.sum(axis=1) > 1).tolist():
            close = np.flatnonzero(near[t])
            exact = [math.prod(col) for col in counts[:, t, close].T.tolist()]
            top = max(exact)
            tied = close[[key == top for key in exact]]
            symbols = (keys[:, t, tied].T - z[t] * cols).ravel()
            rows = index_to_digits(symbols, self.d, self.width).reshape(tied.size, -1).tolist()
            winner[t] = tied[min(range(tied.size), key=rows.__getitem__)]
        return winner


def _key_type(inner: StabilizerCode) -> np.dtype:
    """The smallest unsigned type of the candidate keys z * d^2k + symbol."""
    return np.min_scalar_type(inner.d ** (inner.n + inner.k) - 1)


class _Scratch:
    """The arrays that decoding up to `trials` trials at once writes into,
    one decode after another: the (N, T, Q) candidate keys and counts, the
    work block of N T Q bytes that holds the equality rows and their tally,
    then the 16-bit pair products and last the near mask, and the (T, Q)
    float screen, (3N + 8) T Q bytes in all for one-byte keys.  A decode of
    T trials uses the first cells of each, as arrays of its own shape, and
    writes every cell it reads."""

    def __init__(self, inner: StabilizerCode, N: int, K: int, trials: int):
        cells = trials * inner.d ** (inner.k * N + K)
        self.keys = np.empty(N * cells, dtype=_key_type(inner))
        self.counts = np.empty(N * cells, dtype=np.uint8)
        self.work = np.empty(N * cells, dtype=np.uint8)
        self.score = np.empty(cells)


def _view(buffer: np.ndarray, shape: tuple, dtype=None) -> np.ndarray:
    """The first bytes of a buffer as a C-contiguous array of the shape, in
    the buffer's type or another."""
    dtype = np.dtype(dtype or buffer.dtype)
    return buffer[:math.prod(shape) * dtype.itemsize // buffer.itemsize].view(dtype).reshape(shape)


# ---------------------------------------------------------------------------
# the certificate and the success test


def _certify(d: int, z: np.ndarray, v: np.ndarray,
             gens: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Which of T trials have a v constant on every syndrome group, and
    their winners, found without listing candidates (see the module
    docstring).

    z and v are the trials' per-block syndromes and logical symbols, (T, N)
    each, and gens the generators of their outer codes, (T, kN-K, 2kN), or
    (1, kN-K, 2kN) for one shared code.  Returns the mask of the certified
    trials and their decoded symbols, (T', N) in trial order.  The symbols
    y of the groups, numbered by first block, solve A y = A y_v, where A
    sums dual(g) over each group's blocks for every generator g, and the
    smallest solution is the winner.  The trials' systems share 2kG
    columns for the largest G among them; a group that a trial lacks is a
    zero column, which the solution leaves at 0.
    """
    N = z.shape[1]
    same = z[:, :, None] == z[:, None, :]
    sure = ~(same & (v[:, :, None] != v[:, None, :])).any(axis=(1, 2))
    v = v[sure]
    gens = gens if len(gens) == 1 else gens[sure]
    width = gens.shape[2] // N
    # group[t, j]: the group of block j, numbered from 0 by first block, and
    # spread[t, j, g] whether that is g
    lead = same[sure].argmax(axis=2)
    first = lead == np.arange(N)
    group = np.take_along_axis(first.cumsum(axis=1) - 1, lead, axis=1)
    groups = int(first.sum(axis=1).max(initial=0))
    # the smallest signed type of the sums below, at most (d-1)^2 2kN
    dtype = np.min_scalar_type(-1 - (d - 1) ** 2 * gens.shape[2])
    spread = (group[:, :, None] == np.arange(groups)).astype(dtype)
    dual = symplectic_dual(gens, d).astype(dtype)
    m = dual.shape[1]
    blocks = dual.reshape(len(dual), m, N, width).transpose(0, 1, 3, 2)
    grouped = (blocks @ spread[:, None]).transpose(0, 1, 3, 2).reshape(len(v), m, groups * width)
    rhs = dual @ index_to_digits(v.ravel(), d, width).astype(dtype).reshape(len(v), N * width, 1)
    y = _smallest_solutions(_mod(np.concatenate([grouped, rhs], axis=2), d), d)
    symbols = digits_to_index(y.reshape(len(v), groups, width), d)
    return sure, np.take_along_axis(symbols, group, axis=1)


def _smallest_solutions(system: np.ndarray, d: int) -> np.ndarray:
    """The lexicographically smallest solution y of each consistent system
    [A | b] (T, m, n + 1) of digits mod d, in a signed type that holds
    (d-1)^2, (T, n).

    Gauss-Jordan elimination takes its pivots from the rightmost column
    first, so each pivot variable depends only on the free variables left
    of it.  Walking y from the left, a free variable is then best at 0 and
    a pivot variable is forced, so the smallest solution sets every free
    variable to 0 and each pivot variable to its row's reduced b.  The
    cost is polynomial in m and n, however many solutions there are.
    """
    trials, m, n = system.shape[0], system.shape[1], system.shape[2] - 1
    pivots = np.full((trials, m), -1)
    # row[t]: the pivot row of trial t's column c, or 0 if it has none
    row = np.zeros((trials, n + 1), dtype=system.dtype)
    for c in reversed(range(n)):
        open_rows = (system[:, :, c] != 0) & (pivots < 0)
        t = np.flatnonzero(open_rows.any(axis=1))
        if not t.size:
            continue
        r = open_rows[t].argmax(axis=1)
        row.fill(0)
        row[t] = system[t, r]
        if d > 2:
            # each pivot's inverse x^(d-2) mod d; over F_2 every pivot is 1
            inverse = [pow(x, d - 2, d) for x in system[t, r, c].tolist()]
            row[t] = _mod(row[t] * np.array(inverse, dtype=system.dtype)[:, None], d)
        system = _mod(system - system[:, :, c, None] * row[:, None, :], d)
        system[t, r] = row[t]
        pivots[t, r] = c
    y = np.zeros((trials, n), dtype=np.int64)
    t, r = np.nonzero(pivots >= 0)
    y[t, pivots[t, r]] = system[t, r, n]
    return y


def _in_code(perp: np.ndarray, x: np.ndarray, d: int) -> np.ndarray:
    """Whether each of the (T, 2kN) digit vectors x[t] lies in C_out, given
    a basis of perp(C_out) of each trial's code, (T, kN+K, 2kN), or of one
    shared code: C_out = perp(perp(C_out)), so x lies in it iff it pairs to
    zero with every row."""
    return ~_mod(perp @ symplectic_dual(x, d)[:, :, None], d).any(axis=(1, 2))


# ---------------------------------------------------------------------------
# simulation


def _decode_size(d: int, k: int, N: int, K: int) -> int:
    """Trials decoded at once: as many as keep the candidate keys (N, T, Q)
    and the tail tables (N, T, d^2k, Q_tail) within _DECODE_CELLS cells,
    at least one; the head tables, Q_head <= Q_tail, are no larger than
    the tail tables."""
    size = k * N + K
    per_trial = N * (d**size + d ** (2 * k + size - size // 2))
    return max(1, _DECODE_CELLS // per_trial)


def _group_size(k: int, N: int) -> int:
    """Batches run together on one trial axis: as many as keep a
    (T, 2kN, 2kN) array of eight-byte words within _DECODE_CELLS bytes, at
    least one.  Such an array bounds each of a group's outer codes,
    certificate systems and success tests."""
    return max(1, _DECODE_CELLS // (8 * _BATCH * (2 * k * N) ** 2))


def simulate(cfg: SimConfig) -> SimReport:
    """Run the decoder experiment; fully reproducible from cfg.seed.

    Per trial: draw (or reuse) the outer code, sample the per-block
    (syndrome, logical) labels from the inner array, decode by minimum
    conditional type entropy within the observed outer-syndrome coset, and
    count a failure when the decoded and true labels differ by a vector
    outside C_out.  The trials run in batches on a trial axis.
    """
    failures = sum(int(ok.size - ok.sum()) for *_, ok in _batches(cfg))
    low, high = wilson_interval(failures, cfg.trials)
    return SimReport(failures, cfg.trials, failures / cfg.trials, low, high)


def _batches(cfg: SimConfig):
    """simulate's trials batch by batch: yields each batch's trial numbers
    (a range), its z, v and v_hat, (T, N) each, and its success mask (T,).
    Consecutive batches run as one group on the trial axis."""
    inner = cfg.inner
    d, k, N, K = inner.d, inner.k, cfg.N, cfg.K
    # the exponent is capped so that no big power is formed: d^25 > 2^24
    if d ** min(k * N + K, 25) > _SEARCH_GUARD:
        raise GuardError(f"decoder search set d^(kN+K) = {d}^{k * N + K} exceeds 2^24")
    arr = probability_array(inner, cfg.channel)
    cdf = _cell_cdf(arr)
    ambient, dim = 2 * k * N, k * N - K

    ctx = None
    if not cfg.resample_outer:
        outer = cfg.outer or sample_self_orthogonal(d, ambient, dim, (cfg.seed, 0, 2))
        shared = outer.basis[None], outer.canonical[None]

    step = _decode_size(d, k, N, K)
    span = _group_size(k, N) * _BATCH
    for first in range(0, cfg.trials, span):
        trials = range(first, min(first + span, cfg.trials))
        batches = [trials[i:i + _BATCH] for i in range(0, len(trials), _BATCH)]
        streams = [(np.random.default_rng((cfg.seed, b.start // _BATCH)), len(b)) for b in batches]
        uniforms = np.concatenate([rng.random((n, N)) for rng, n in streams])
        z, v = np.divmod(np.searchsorted(cdf, uniforms, side="right"), arr.cols)
        if cfg.resample_outer:
            form = _DualEchelon.sample(d, ambient, dim, streams)
            # the group's perp bases are held in the form's small type, and
            # the form and the generators are freed before the scratch is made
            gens, perp = form.basis(), form.perp.astype(form.rows.dtype)
            del form
        else:
            gens, perp = shared
        v_hat = np.empty_like(v)
        sure, certified = _certify(d, z, v, gens)
        del gens
        v_hat[sure] = certified
        rest = np.flatnonzero(~sure)
        if rest.size:
            if ctx is None and not cfg.resample_outer:
                # built on the first group with a trial to enumerate
                ctx = _Contexts(inner, N, perp)
            # no more than a batch's share of them at once, so that the
            # scratch stays the size that one batch needs
            most = min(step, -(-rest.size // len(batches)))
            chunks = np.array_split(rest, -(-rest.size // most))
            scratch = _Scratch(inner, N, K, len(chunks[0]))
            for part in chunks:
                tables = ctx if ctx is not None else _Contexts(inner, N, perp[part])
                v_hat[part] = tables.decode(z[part], v[part], scratch)
            del scratch, tables
        diff = index_to_digits(v_hat.ravel(), d, 2 * k) - index_to_digits(v.ravel(), d, 2 * k)
        ok = _in_code(perp, diff.reshape(len(v), -1), d)
        for b in batches:
            part = slice(b.start - first, b.stop - first)
            yield b, z[part], v[part], v_hat[part], ok[part]


# ---------------------------------------------------------------------------
# exact ensemble-average fidelity bound


def _times(x: dict, y: dict, into: dict, spend) -> dict:
    """Add to `into`, and return it, the product of two sums classed by the
    key prod c^c: keys multiply, and the values of equal products add up.
    spend(n) is told of the n dictionary updates before they run."""
    spend(len(x) * len(y))
    for x_key, x_value in x.items():
        for y_key, y_value in y.items():
            key = x_key * y_key
            into[key] = into.get(key, 0) + x_value * y_value
    return into


def _row_classes(q: list[float], N: int, powers: list[int], spend, lone: bool) -> list[dict]:
    """classes[c]: key prod t^t -> sum of shell * prod q^t, over the contents
    t of one syndrome row that hold c blocks in total.

    The shell is the number of logical sequences on those c blocks with the
    given per-column counts t, so at q = [1] * cols the sums are the shells
    themselves, as ints.  The row's columns are folded in one at a time:
    placing b more blocks on a column multiplies the shells of a row already
    holding `used` blocks by comb(used + b, b).  powers[b] = b**b for b <= N.
    A lone row of the array holds all N blocks, so then the last column is
    folded into the total N only and classes[c] stays empty for c < N.
    """
    classes = [{1: 1}]
    for col, qc in enumerate(q, 1):
        folded = [{} for _ in range(N + 1)]
        for used, sums in enumerate(classes):
            for b in range(N - used if lone and col == len(q) else 0, N - used + 1):
                _times(sums, {powers[b]: math.comb(used + b, b) * qc**b}, folded[used + b], spend)
        classes = folded
    return classes


def fidelity_bound_exact(inner: StabilizerCode, N: int, K: int, channel: PauliChannel) -> float:
    """Exact evaluation of the type-grouped upper bound on the ensemble
    average infidelity 1 - Fbar of the concatenated code.

    Every joint type T of [z, v] sequences contributes its probability times
    min{ #competitors * d^-(kN-K), 1 }, where the competitors are the v'
    sharing z whose joint type has conditional entropy <= that of T (ties
    included, resolved by exact integer keys).

    Given its z-marginal a, a type's key, shell and probability factor over
    the occupied rows, and the keys and shells of a row holding c blocks do
    not depend on the row.  So all z-marginals whose nonzero counts form one
    partition lam of N share their sorted keys, shells and competitor counts,
    and their weight N!/prod lam_i!; only the probabilities differ.  A
    row-by-row sum keeps, per partition mu of the blocks placed so far, the
    probabilities by key; the states are visited in decreasing sum, so a row
    adds at most one part.  The guard counts the dictionary updates of the
    folds and products, weighted by the machine words of an N-block key,
    each product before it runs (a lower bound before the array is built),
    and raises GuardError once they would pass _FOLD_WORK.
    """
    _check_blocks(inner, N, K)
    d, k = inner.d, inner.k
    # keys and shells reach N^N, so one update costs about this many words
    words = 1 + N * N.bit_length() // 64
    work = 0

    def spend(updates: int) -> None:
        nonlocal work
        work += updates * words
        if work > _FOLD_WORK:
            raise GuardError(f"the type-sum fold needs more than {_FOLD_WORK} word-sized "
                             "dictionary updates (the guard)")

    # the table of the N + 1 keys b**b is built and each array cell is folded
    spend(N + 1)
    spend(d ** (inner.n - k) * d ** (2 * k))
    powers = [b**b for b in range(N + 1)]
    arr = probability_array(inner, channel)
    lone = arr.rows == 1
    shells = _row_classes([1] * arr.cols, N, powers, spend, lone)
    # states[mu]: key -> probability, summed over the z-marginals of the rows
    # so far whose nonzero counts are the parts of mu
    states = {(): {1: 1}}
    for q in arr.table.tolist():
        row = _row_classes(q, N, powers, spend, lone)
        for mu in sorted(states, key=sum, reverse=True):
            for c in range(1, N - sum(mu) + 1):
                grown = tuple(sorted(mu + (c,)))
                _times(states[mu], row[c], states.setdefault(grown, {}), spend)

    scale = float(d) ** (K - k * N)
    terms = []
    for lam, probs in states.items():
        if sum(lam) < N:
            continue
        weight = math.factorial(N) // math.prod(map(math.factorial, lam))
        shell = {1: 1}
        for c in lam:
            shell = _times(shell, shells[c], {}, spend)
        cum = 0
        for key in sorted(shell, reverse=True):
            cum += shell[key]
            terms.append(weight * probs[key] * min(cum * scale, 1.0))
    # the probabilities sum to 1 only up to rounding
    return min(math.fsum(terms), 1.0)
