import dataclasses
import math
import time
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcap import (
    GuardError,
    PauliChannel,
    StabilizerCode,
    Subspace,
    ValidationError,
    catalog,
    depolarizing,
    sample_self_orthogonal,
)
from qcap import simconcat
from qcap.exponent import compositions
from qcap.gf import index_to_digits
from qcap.symplectic import _DualEchelon, symplectic_dual
from qcap.simconcat import (
    SimConfig,
    SimReport,
    _Contexts,
    _Scratch,
    fidelity_bound_exact,
    simulate,
)
from qcap.spectra import ProbabilityArray, probability_array

from oracles import (
    decode_min_conditional_entropy,
    ensemble_failure_by_pattern,
    ensemble_failure_exact,
    fidelity_bound_brute,
    nullspace,
    random_completion,
    random_isotropic_dense,
    rref,
    sample_error,
    simulate_per_trial,
    solve_affine,
    trial_rows,
)


TRIV = catalog("trivial1", 2)
REP3 = catalog("rep3", 2)


def test_sample_error_noiseless_is_zero():
    arr = probability_array(REP3, depolarizing(2, 0.0))
    z, v = sample_error(arr, 10, np.random.default_rng(0))
    assert not z.any() and not v.any()


def test_sample_error_total_variation():
    arr = probability_array(REP3, depolarizing(2, 0.1))
    rng = np.random.default_rng(123)
    z, v = sample_error(arr, 100_000, rng)
    counts = np.zeros((arr.rows, arr.cols))
    np.add.at(counts, (z, v), 1.0)
    counts /= counts.sum()
    tv = 0.5 * np.abs(counts - arr.table).sum()
    assert tv < 0.02


def test_sample_error_syndrome_marginal():
    arr = probability_array(REP3, depolarizing(2, 0.15))
    z, _ = sample_error(arr, 60_000, np.random.default_rng(5))
    emp = np.bincount(z, minlength=arr.rows) / 60_000
    assert np.abs(emp - arr.syndrome_marginal()).max() < 0.01


class _FixedUniform:
    """Stands in for a Generator whose uniform draws all equal u."""

    def __init__(self, u: float):
        self.u = u

    def random(self, n: int) -> np.ndarray:
        return np.full(n, self.u)


def test_sample_error_never_lands_on_an_impossible_cell():
    # the cumulative sum reaches only 1 - 2^-53 at the last positive cell, so
    # the largest uniform double below 1 lies past it
    table = np.array([[0.7, 0.2, 0.1, 0.0]])
    assert np.cumsum(table)[2] < 1.0
    z, v = sample_error(ProbabilityArray(2, 1, 1, table), 3, _FixedUniform(1 - 2.0**-53))
    assert (table[z, v] > 0).all()


def test_decoder_zero_syndrome_zero_error():
    outer = sample_self_orthogonal(2, 12, 5, 3)
    z = np.zeros(6, dtype=np.int64)
    sigma = np.zeros(outer.dim, dtype=np.int64)
    v_hat = decode_min_conditional_entropy(TRIV, outer, z, sigma)
    assert not v_hat.any()


def test_decoder_output_satisfies_syndrome():
    rng = np.random.default_rng(8)
    arr = probability_array(REP3, depolarizing(2, 0.12))
    outer = sample_self_orthogonal(2, 12, 4, 9)
    ctx = _Contexts(REP3, 6, outer.canonical[None])
    col_digits = index_to_digits(np.arange(arr.cols), 2, 2)
    errors = [sample_error(arr, 6, rng) for _ in range(200)]
    z, v = (np.array(part) for part in zip(*errors))
    v_hat = ctx.decode(z, v, _Scratch(REP3, 6, 2, 200))
    dual = symplectic_dual(outer.basis, 2)
    sigma = dual @ col_digits[v].reshape(200, -1).T % 2
    assert (dual @ col_digits[v_hat].reshape(200, -1).T % 2 == sigma).all()


def test_decoder_success_indicator_cross_validated():
    # recompute the success flag, which simulate takes once per batch,
    # through exhaustive membership in C_out
    rng = np.random.default_rng(31)
    inner = TRIV
    N, K = 6, 1
    arr = probability_array(inner, depolarizing(2, 0.1))
    outer = sample_self_orthogonal(2, 2 * N, N - K, 77)
    ctx = _Contexts(inner, N, outer.canonical[None])
    col_digits = index_to_digits(np.arange(arr.cols), 2, 2)
    members = {tuple((c @ outer.basis) % 2)
               for c in index_to_digits(np.arange(2**outer.dim), 2, outer.dim)}
    errors = [sample_error(arr, N, rng) for _ in range(1000)]
    z, v = (np.array(part) for part in zip(*errors))
    v_hat = ctx.decode(z, v, _Scratch(inner, N, K, 1000))
    diff = index_to_digits(v_hat.ravel(), 2, 2) - index_to_digits(v.ravel(), 2, 2)
    ok = simconcat._in_code(outer.canonical[None], diff.reshape(1000, -1), 2)
    agree = 0
    for vt, ht, good in zip(v, v_hat, ok.tolist()):
        diff = (col_digits[ht].ravel() - col_digits[vt].ravel()) % 2
        assert good == (tuple(diff) in members)
        agree += 1
    assert agree == 1000


def reference_decode(inner, outer, z, sigma):
    """The decoder from its definition: list the syndrome's whole coset
    densely, count each candidate's joint type with bincount, keep the
    largest key prod c^c, and break ties by the lexicographically smallest
    digit vector."""
    d, k, N = inner.d, inner.k, len(z)
    length = 2 * k * N
    dual = np.array([symplectic_dual(g, d) for g in outer.basis]).reshape(-1, length)
    basis = nullspace(dual, d, length)
    v0 = solve_affine(dual, sigma, d) if outer.dim else np.zeros(length, dtype=np.int64)
    cands = (v0 + index_to_digits(np.arange(d ** basis.shape[0]), d, basis.shape[0]) @ basis) % d
    syms = cands.reshape(len(cands), N, 2 * k) @ d ** np.arange(2 * k)
    cols, m = d ** (2 * k), d ** (inner.n + inner.k)
    cells = np.arange(len(cands))[:, None] * m + np.asarray(z) * cols + syms
    counts = np.bincount(cells.ravel(), minlength=len(cands) * m).reshape(len(cands), m)
    keys = [math.prod(c**c for c in row if c > 1) for row in counts.tolist()]
    top = max(keys)
    winner = min((i for i, key in enumerate(keys) if key == top), key=lambda i: cands[i].tolist())
    return syms[winner]


def smallest_in_coset(basis, x, d):
    """The lexicographically smallest vector of x + span(basis): reduced
    against the reduced echelon form, it is zero in every pivot column."""
    rows, pivots = rref(basis, d)
    for row, p in zip(rows, pivots):
        x = (x - x[p] * row) % d
    return x


@st.composite
def random_decode_case(draw):
    """A random inner code with k >= 1, a random isotropic outer code whose
    coset search lists at most 4096 candidates, from outer dimension 0
    (K = kN) to K = 0, and random z and v.  z is drawn from few syndromes,
    so that candidates often tie, or gives every block a syndrome of its
    own.  v is drawn freely, or with one random symbol per syndrome group,
    so that its trial is certified."""
    d = draw(st.sampled_from((2, 3, 5)))
    # N >= 2 blocks on distinct syndromes need n > k, which d = 5 leaves out
    distinct = d < 5 and draw(st.integers(0, 3)) == 0
    n = draw(st.integers(1 + distinct, {2: 3, 3: 2, 5: 1}[d]))
    k = draw(st.integers(1, n - distinct))
    subspace = sample_self_orthogonal(d, 2 * n, n - k, draw(st.integers(0, 2**32 - 1)))
    inner = StabilizerCode(subspace, random_completion(subspace, draw(st.integers(0, 2**32 - 1))))
    rows, cols = d ** (n - k), d ** (2 * k)
    n_max = max(N for N in range(1, 13) if d ** (k * N) <= 4096)
    N = draw(st.integers(2, min(n_max, rows)) if distinct else st.integers(1, n_max))
    K = draw(st.integers(0, max(K for K in range(k * N + 1) if d ** (k * N + K) <= 4096)))
    outer = sample_self_orthogonal(d, 2 * k * N, k * N - K, draw(st.integers(0, 2**32 - 1)))
    if distinct:
        z = draw(st.permutations(range(rows)))[:N]
    else:
        z = draw(st.lists(st.integers(0, min(rows, draw(st.integers(1, 3))) - 1),
                          min_size=N, max_size=N))
    z = np.array(z, dtype=np.int64)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    v = rng.integers(0, cols, rows)[z] if draw(st.booleans()) else rng.integers(0, cols, N)
    return inner, outer, z, v


@settings(derandomize=True, deadline=None, max_examples=200)
@given(random_decode_case())
def test_decoder_matches_reference_on_random_codes(case):
    inner, outer, z, v = case
    d, k, N = inner.d, inner.k, len(z)
    v_digits = index_to_digits(v, d, 2 * k).ravel()
    sigma = symplectic_dual(outer.basis, d).reshape(-1, 2 * k * N) @ v_digits % d
    want = reference_decode(inner, outer, z, sigma).tolist()
    # the enumeration decodes every case; simulate sends it only the
    # trials that the certificate leaves
    ctx = _Contexts(inner, N, outer.canonical[None])
    scratch = _Scratch(inner, N, k * N - outer.dim, 1)
    assert ctx.decode(z[None], v[None], scratch)[0].tolist() == want
    # the certificate takes exactly the cases whose v is constant on each
    # syndrome group, as many (z, v) pairs as syndromes, and solves for
    # their winner
    sure, certified = simconcat._certify(d, z[None], v[None], outer.basis[None])
    assert sure.tolist() == [len(set(zip(z.tolist(), v.tolist()))) == len(set(z.tolist()))]
    if sure[0]:
        assert certified[0].tolist() == want
    if len(set(z.tolist())) == N:
        # every block on its own syndrome: always certified, and as every
        # candidate ties at key 1, the winner is the coset's smallest vector
        smallest = smallest_in_coset(outer.canonical, v_digits, d).reshape(N, 2 * k)
        assert sure[0] and want == (smallest @ d ** np.arange(2 * k)).tolist()


def test_decoder_resolves_ties_above_float_precision():
    # trivial1/d=2 at N = 16 under the outer code X-type even weight plus
    # Z^16 (K = 0): every block has the one syndrome, and the best keys pass
    # 2^53.  At v = 0 the four constant candidates tie at 16^16, and v is
    # certified: the certificate solves for the smallest of them.  At v = X
    # on block 0, which is not certified, the 64 candidates with 15 equal
    # blocks and the odd one anywhere tie at 15^15, which no float holds;
    # the enumeration's integer recheck decides them, and also the v = 0
    # tie that simulate would not send it.
    N = 16
    gens = np.zeros((N, 2 * N), dtype=np.int64)
    gens[:N - 1, 0] = 1
    gens[np.arange(N - 1), 2 * np.arange(1, N)] = 1
    gens[N - 1, 1::2] = 1
    outer = Subspace(2, 2 * N, gens)
    assert float(15**15) != 15**15 and 16**16 > 2**53
    ctx = _Contexts(TRIV, N, outer.canonical[None])
    scratch = _Scratch(TRIV, N, 0, 1)
    z = np.zeros(N, dtype=np.int64)
    for v, certified in ((np.zeros(N, dtype=np.int64), True),
                         (np.eye(N, dtype=np.int64)[0], False)):
        sigma = symplectic_dual(outer.basis, 2) @ index_to_digits(v, 2, 2).ravel() % 2
        want = reference_decode(TRIV, outer, z, sigma).tolist()
        assert ctx.decode(z[None], v[None], scratch)[0].tolist() == want
        sure, v_hat = simconcat._certify(2, z[None], v[None], outer.basis[None])
        assert sure.tolist() == [certified]
        if certified:
            assert v_hat[0].tolist() == want


def test_certificate_cost_does_not_grow_with_the_group_symbols():
    # rep7/d=3 at N = 8 with every block on a syndrome of its own: the 9^8
    # assignments of group symbols, or the 3^9 candidates, are never listed,
    # and one 7 x 16 system is solved instead.  Every candidate ties at key
    # 1, so the winner is the coset's smallest vector.  CPU time, not wall
    # time, so that a busy host does not fail the test.
    d, N, K = 3, 8, 1
    inner = catalog("rep7", d)
    outer = sample_self_orthogonal(d, 2 * N, N - K, 4)
    rng = np.random.default_rng(4)
    z = rng.choice(d ** (inner.n - inner.k), N, replace=False)
    v = rng.integers(0, d**2, N)
    start = time.process_time()
    sure, v_hat = simconcat._certify(d, z[None], v[None], outer.basis[None])
    assert time.process_time() - start < 1.0
    smallest = smallest_in_coset(outer.canonical, index_to_digits(v, d, 2).ravel(), d)
    assert sure.tolist() == [True]
    assert v_hat[0].tolist() == (smallest.reshape(N, 2) @ [1, d]).tolist()


@pytest.mark.parametrize("name, d, N, K",
                         [("rep3", 2, 5, 1), ("rep2", 3, 4, 1), ("trivial1", 5, 3, 1)])
def test_one_scratch_decodes_chunks_of_changing_size(name, d, N, K):
    # as in simulate's chunk loop, one scratch decodes chunk after chunk, here
    # of 12, 1, 3 and 12 trials on fresh outer codes, z and v; a chunk must
    # read nothing that a larger one before it left in the scratch
    inner = catalog(name, d)
    k, rows = inner.k, d ** (inner.n - inner.k)
    rng = np.random.default_rng(d)
    scratch = _Scratch(inner, N, K, 12)
    for trials in (12, 1, 3, 12):
        form = _DualEchelon.sample(d, 2 * k * N, k * N - K, [(rng, trials)])
        ctx = _Contexts(inner, N, form.perp)
        # few syndromes, so that candidates often tie
        z = rng.integers(0, min(rows, 2), (trials, N))
        v = rng.integers(0, d ** (2 * k), (trials, N))
        v_hat = ctx.decode(z, v, scratch)
        for t, basis in enumerate(form.basis()):
            outer = Subspace(d, 2 * k * N, basis)
            v_digits = index_to_digits(v[t], d, 2 * k).ravel()
            sigma = symplectic_dual(basis, d) @ v_digits % d
            assert v_hat[t].tolist() == reference_decode(inner, outer, z[t], sigma).tolist()


def test_syndrome_invariant_under_code_shifts():
    outer = sample_self_orthogonal(2, 16, 6, 13)
    ctx = _Contexts(TRIV, 8, outer.canonical[None])
    rng = np.random.default_rng(2)
    v = rng.integers(0, 2, (100, 16))
    c = (rng.integers(0, 2, (100, outer.dim)) @ outer.basis) % 2
    dual = symplectic_dual(outer.basis, 2)
    assert (dual @ v.T % 2 == dual @ ((v + c) % 2).T % 2).all()
    # failure indicator of a shifted truth is unchanged
    diff = rng.integers(0, 2, (100, 16))
    perp = outer.canonical[None]
    assert (simconcat._in_code(perp, diff, 2) == simconcat._in_code(perp, (diff + c) % 2, 2)).all()
    # and so is the decoding of a shifted truth
    z = np.zeros((100, 8), dtype=np.int64)
    weights = 2 ** np.arange(2)
    scratch = _Scratch(TRIV, 8, 2, 100)
    first = ctx.decode(z, v.reshape(100, 8, 2) @ weights, scratch)
    shifted = ctx.decode(z, ((v + c) % 2).reshape(100, 8, 2) @ weights, scratch)
    assert np.array_equal(first, shifted)


@pytest.mark.parametrize("name, d, N, K", [("rep3", 2, 6, 1), ("rep2", 3, 4, 1), ("rep7", 3, 2, 1)])
def test_decoding_invariant_under_syndrome_relabelling(name, d, N, K):
    # the decoder reads z only through which blocks share a syndrome, so an
    # injective relabelling of the syndromes changes no output; the exact
    # ensemble rate by equality pattern rests on this
    inner = catalog(name, d)
    k, rows = inner.k, d ** (inner.n - inner.k)
    rng = np.random.default_rng(5)
    trials = 64
    ctx = _Contexts(inner, N, _DualEchelon.sample(d, 2 * k * N, k * N - K, [(rng, trials)]).perp)
    # few syndromes, so that blocks often share one
    used = min(rows, 3)
    z = rng.integers(0, used, (trials, N))
    v = rng.integers(0, d ** (2 * k), (trials, N))
    relabel = rng.choice(rows, used, replace=False)
    scratch = _Scratch(inner, N, K, trials)
    assert np.array_equal(ctx.decode(z, v, scratch), ctx.decode(relabel[z], v, scratch))


@pytest.mark.parametrize("name, d, N, K, p",
                         [("rep3", 2, 3, 1, 0.08), ("rep2", 3, 2, 1, 0.1), ("trivial1", 3, 3, 1, 0.1)])
def test_ensemble_rate_by_pattern_matches_full_oracle(name, d, N, K, p):
    # per code; on trivial1 (one syndrome row) four of the five patterns
    # have no syndrome sequence, and their Moebius sums must cancel
    inner, ch = catalog(name, d), depolarizing(d, p)
    by_pattern = ensemble_failure_by_pattern(inner, N, K, ch)[1]
    assert np.abs(by_pattern - ensemble_failure_exact(inner, N, K, ch)[1]).max() <= 1e-15


@settings(derandomize=True, deadline=None, max_examples=100)
@given(st.sampled_from((2, 3, 5)), st.integers(1, 2), st.integers(1, 6), st.integers(0, 12),
       st.integers(0, 2**32 - 1))
def test_context_membership_matches_subspace(d, k, N, K, seed):
    # simulate tests x in C_out as <perp(C_out), x> = 0, without an echelon
    # form of C_out
    while d ** (k * N) > 4096:
        N -= 1
    K = min(K, k * N)
    while d ** (k * N + K) > 4096:
        K -= 1
    outer = sample_self_orthogonal(d, 2 * k * N, k * N - K, seed)
    perp = outer.canonical[None]
    rng = np.random.default_rng(seed)
    members = (rng.integers(0, d, (10, outer.dim)) @ outer.basis) % d
    noise = rng.integers(0, d, (10, 2 * k * N))
    assert simconcat._in_code(perp, members, d).all()
    others = np.vstack([noise, (members + noise) % d])
    assert simconcat._in_code(perp, others, d).tolist() == [outer.contains(x) for x in others]


@settings(derandomize=True, deadline=None, max_examples=100)
@given(st.sampled_from((2, 3, 5)), st.integers(1, 2), st.integers(1, 6), st.integers(0, 12),
       st.integers(0, 2**32 - 1))
def test_shared_echelon_matches_nullspace_dense_sampler_and_explicit_context(d, k, N, K, seed):
    # one echelon form of [dual | I] serves the sampler's rejection test,
    # perp(current) kept in place, and simulate's success test
    while d ** (k * N) > 4096:
        N -= 1
    K = min(K, k * N)
    while d ** (k * N + K) > 4096:
        K -= 1
    ambient, dim = 2 * k * N, k * N - K
    rng = np.random.default_rng(seed)
    # in-place perp against a fresh nullspace after every added row, with
    # dependent rows mixed in (the update never needs isotropy)
    grown = _DualEchelon(d, ambient, dim)
    rows = np.zeros((0, ambient), dtype=np.int64)
    while rows.shape[0] < dim:
        row = rng.integers(0, d, ambient)
        if rows.shape[0] and rng.integers(0, 3) == 0:
            row = rng.integers(0, d, rows.shape[0]) @ rows % d
        added = grown.add(row[None])
        assert added == (rref(np.vstack([rows, row]), d)[0].shape[0] > rows.shape[0])
        if added:
            rows = np.vstack([rows, row])
        assert np.array_equal(grown.perp[0],
                              nullspace(symplectic_dual(rows, d), d, ambient))
    assert np.array_equal(grown.basis()[0], rows)
    # the sampler draws what the dense reference draws
    sampled = _DualEchelon.sample(d, ambient, dim, [(np.random.default_rng(seed), 1)])
    basis = sampled.basis()[0]
    assert np.array_equal(basis, random_isotropic_dense(d, ambient, dim,
                                                        np.random.default_rng(seed))[0])
    # the sampler's form equals one grown from the same rows
    explicit = _DualEchelon.of(d, basis)
    assert np.array_equal(sampled.perp, explicit.perp)
    assert np.array_equal(sampled.reps(), explicit.reps())
    assert np.array_equal(symplectic_dual(basis, d) @ sampled.reps()[0].T % d,
                          np.eye(dim, dtype=np.int64))
    members = rng.integers(0, d, (10, dim)) @ basis % d
    xs = np.vstack([members, rng.integers(0, d, (20, ambient))])
    inside = simconcat._in_code(sampled.perp, xs, d)
    assert np.array_equal(inside, simconcat._in_code(explicit.perp, xs, d))
    assert inside.tolist() == [rref(np.vstack([basis, x]), d)[0].shape[0] == dim for x in xs]


def test_simulate_noiseless_never_fails():
    cfg = SimConfig(inner=REP3, outer=None, N=4, K=1, channel=depolarizing(2, 0.0),
                    trials=50, seed=0, resample_outer=True)
    rep = simulate(cfg)
    assert rep.failures == 0
    assert rep.wilson_low == 0.0


def test_simulate_bit_for_bit_deterministic():
    cfg = SimConfig(inner=TRIV, outer=None, N=6, K=1, channel=depolarizing(2, 0.1),
                    trials=300, seed=21, resample_outer=True)
    assert simulate(cfg) == simulate(cfg)
    fixed = SimConfig(inner=TRIV, outer=None, N=6, K=1, channel=depolarizing(2, 0.1),
                      trials=300, seed=21)
    assert simulate(fixed) == simulate(fixed)


@st.composite
def random_simulation(draw):
    """A random inner code with k >= 1 under a random Pauli channel, N and K
    with at most 729 decoding candidates, and an outer code that is
    resampled every trial, drawn once from the seed, or given."""
    d = draw(st.sampled_from((2, 3, 5)))
    n = draw(st.integers(1, {2: 3, 3: 2, 5: 1}[d]))
    k = draw(st.integers(1, n))
    seeds = st.integers(0, 2**32 - 1)
    subspace = sample_self_orthogonal(d, 2 * n, n - k, draw(seeds))
    inner = StabilizerCode(subspace, random_completion(subspace, draw(seeds)))
    N = draw(st.sampled_from([N for N in range(1, 7) if d ** (k * N) <= 729]))
    K = draw(st.sampled_from([K for K in range(k * N + 1) if d ** (k * N + K) <= 729]))
    weights = np.array([draw(st.integers(1, 50))]
                       + draw(st.lists(st.integers(0, 4), min_size=d * d - 1,
                                       max_size=d * d - 1)), dtype=float)
    mode = draw(st.sampled_from(("resampled", "fixed", "explicit")))
    outer = (sample_self_orthogonal(d, 2 * k * N, k * N - K, draw(seeds))
             if mode == "explicit" else None)
    return dict(inner=inner, outer=outer, N=N, K=K,
                channel=PauliChannel(d, weights / weights.sum()), seed=draw(seeds),
                resample_outer=mode == "resampled")


@settings(derandomize=True, deadline=None, max_examples=60)
@given(random_simulation(), st.sampled_from((None, -1, 0, 1)), st.sampled_from((1, 1 << 12, None)))
def test_trial_axis_matches_per_trial_reference(config, offset, cells):
    # row for row against the decoder run one trial at a time, with one
    # trial or B - 1, B and B + 1 around the batch size B, and budgets that
    # decode one trial, a few, or a whole batch at a time
    trials = 1 if offset is None else simconcat._BATCH + offset
    cfg = SimConfig(trials=trials, **config)
    with patch.object(simconcat, "_DECODE_CELLS", cells or simconcat._DECODE_CELLS):
        rows, report = trial_rows(cfg), simulate(cfg)
    want = simulate_per_trial(cfg)
    assert rows == want
    assert report.failures == sum(t["failure"] for t in want)


@pytest.mark.parametrize("name, d, N, K, mode", [
    ("rep3", 2, 6, 1, "resampled"), ("trivial1", 3, 5, 1, "resampled"),
    ("trivial1", 5, 3, 1, "resampled"), ("rep2", 3, 4, 1, "fixed"), ("rep3", 2, 6, 2, "explicit")])
def test_trial_axis_matches_per_trial_reference_on_catalog_codes(name, d, N, K, mode):
    code = catalog(name, d)
    outer = (sample_self_orthogonal(d, 2 * code.k * N, code.k * N - K, 5)
             if mode == "explicit" else None)
    cfg = SimConfig(inner=code, outer=outer, N=N, K=K, channel=depolarizing(d, 0.1),
                    trials=simconcat._BATCH + 1, seed=3, resample_outer=mode == "resampled")
    assert trial_rows(cfg) == simulate_per_trial(cfg)


def test_trial_axis_matches_per_trial_reference_one_trial_at_a_time():
    # configs whose candidates alone fill the budget decode one trial at a time
    for name, d, N, K, p in (("rep3", 2, 12, 3, 0.03), ("trivial1", 3, 8, 2, 0.1)):
        code = catalog(name, d)
        assert simconcat._decode_size(d, code.k, N, K) == 1
        cfg = SimConfig(inner=code, outer=None, N=N, K=K, channel=depolarizing(d, p),
                        trials=3, seed=11, resample_outer=True)
        assert trial_rows(cfg) == simulate_per_trial(cfg)


@pytest.mark.parametrize("name, d, N, K, mode", [
    ("rep3", 2, 3, 1, "resampled"), ("rep3", 2, 2, 1, "fixed"), ("rep2", 3, 2, 1, "resampled"),
    ("trivial1", 3, 3, 1, "fixed"), ("trivial1", 5, 2, 1, "resampled")])
@pytest.mark.parametrize("cells", (None, 1 << 14, 1))
def test_batch_groups_change_no_record(name, d, N, K, mode, cells):
    # 2B + 5 trials for the batch size B: three batches, the last one part
    # full, in one group that has room for more at the default budget, and
    # in groups of one or two batches, the last one part full, at the small
    # budgets, which also decode fewer trials at once
    code = catalog(name, d)
    cfg = SimConfig(inner=code, outer=None, N=N, K=K, channel=depolarizing(d, 0.15),
                    trials=2 * simconcat._BATCH + 5, seed=9, resample_outer=mode == "resampled")
    with patch.object(simconcat, "_DECODE_CELLS", cells or simconcat._DECODE_CELLS):
        per_group = simconcat._group_size(code.k, N)
        assert per_group > 3 if cells is None else per_group <= 2
        rows = trial_rows(cfg)
    assert rows == simulate_per_trial(cfg)
    assert [row["trial"] for row in rows] == list(range(cfg.trials))


@pytest.mark.parametrize("mode", ("fixed", "explicit"))
def test_certified_run_builds_no_context(monkeypatch, mode):
    # at p = 0 every v is constant on the one syndrome group, so every trial
    # is certified and no trial reads the shared outer code's tables
    d, N, K = 3, 4, 1
    outer = sample_self_orthogonal(d, 2 * N, N - K, 4) if mode == "explicit" else None
    cfg = SimConfig(inner=catalog("trivial1", d), outer=outer, N=N, K=K,
                    channel=depolarizing(d, 0.0), trials=simconcat._BATCH + 3, seed=1)
    built = []
    monkeypatch.setattr(simconcat, "_Contexts",
                        lambda *args: built.append(1) or _Contexts(*args))
    rows = trial_rows(cfg)
    assert not built
    assert rows == simulate_per_trial(cfg)
    assert not any(row["failure"] for row in rows)
    # with noise some trial enumerates, and the shared tables are built once
    noisy = dataclasses.replace(cfg, channel=depolarizing(d, 0.3))
    assert trial_rows(noisy) == simulate_per_trial(noisy)
    assert len(built) == 1


def test_simulate_trace():
    # the batch records that tests read trial by trial hold simulate's trials
    cfg = SimConfig(inner=TRIV, outer=None, N=4, K=1, channel=depolarizing(2, 0.1),
                    trials=simconcat._BATCH + 5, seed=2)
    rows = trial_rows(cfg)
    assert [row["trial"] for row in rows] == list(range(cfg.trials))
    assert {"trial", "failure", "z", "v", "v_hat"} == set(rows[0])
    assert sum(row["failure"] for row in rows) == simulate(cfg).failures


def test_simulate_has_no_trace_option():
    # the removed option is refused, not ignored, and the report holds the
    # five numbers that the CLI prints
    with pytest.raises(TypeError):
        SimConfig(inner=TRIV, outer=None, N=4, K=1, channel=depolarizing(2, 0.1),
                  trials=5, seed=2, record_trace=True)
    assert [f.name for f in dataclasses.fields(SimReport)] == [
        "failures", "trials", "failure_rate", "wilson_low", "wilson_high"]


def test_simconfig_validation():
    with pytest.raises(ValidationError):
        SimConfig(inner=TRIV, outer=None, N=4, K=5, channel=depolarizing(2, 0.1),
                  trials=10, seed=0)
    with pytest.raises(ValidationError):
        SimConfig(inner=TRIV, outer=None, N=0, K=0, channel=depolarizing(2, 0.1),
                  trials=10, seed=0)
    with pytest.raises(ValidationError):
        SimConfig(inner=TRIV, outer=sample_self_orthogonal(2, 10, 4, 0),
                  N=6, K=1, channel=depolarizing(2, 0.1), trials=10, seed=0)
    with pytest.raises(ValidationError):
        SimConfig(inner=catalog("trivial1", 3), outer=None, N=4, K=1,
                  channel=depolarizing(2, 0.1), trials=10, seed=0)
    with pytest.raises(ValidationError):  # right shape, wrong field
        SimConfig(inner=TRIV, outer=sample_self_orthogonal(3, 8, 3, 0),
                  N=4, K=1, channel=depolarizing(2, 0.1), trials=10, seed=0)
    with pytest.raises(ValidationError, match="self-orthogonal"):  # <e_1, e_2> = 1
        SimConfig(inner=TRIV, outer=Subspace(2, 4, [[1, 0, 0, 0], [0, 1, 0, 0]]), N=2, K=0,
                  channel=depolarizing(2, 0.1), trials=50, seed=0)
    with pytest.raises(ValidationError):  # an explicit outer code is never resampled
        SimConfig(inner=TRIV, outer=sample_self_orthogonal(2, 8, 3, 0), N=4, K=1,
                  channel=depolarizing(2, 0.1), trials=10, seed=0, resample_outer=True)
    # numpy integers are integers
    assert simulate(SimConfig(inner=TRIV, outer=None, N=np.int64(4), K=np.int64(1),
                              channel=depolarizing(2, 0.1), trials=np.int64(2),
                              seed=np.uint32(3), resample_outer=True)).trials == 2


@pytest.mark.parametrize("field, value", [
    ("seed", -1), ("seed", 2.5), ("seed", "7"), ("seed", None), ("trials", 2.5),
    ("trials", "10"), ("trials", True), ("N", 4.0), ("K", 1.5)])
def test_simconfig_refuses_non_integer_and_negative_counts(field, value):
    # these used to fail deep inside numpy with ValueError or TypeError
    fields = dict(inner=TRIV, outer=None, N=4, K=1, channel=depolarizing(2, 0.1),
                  trials=10, seed=0, resample_outer=True)
    with pytest.raises(ValidationError, match=field if field in ("seed", "trials") else "N and K"):
        SimConfig(**dict(fields, **{field: value}))
    if field in ("N", "K"):
        with pytest.raises(ValidationError, match="N and K"):
            fidelity_bound_exact(TRIV, **dict(dict(N=4, K=1), **{field: value}),
                                 channel=fields["channel"])


def test_search_guard():
    # d^(kN+K) is never formed: at N = 10^5 its decimal string is too long to
    # print, and at N = 10^9 the power alone takes seconds
    for N in (30, 10**5, 10**9, 10**10):
        cfg = SimConfig(inner=TRIV, outer=None, N=N, K=5, channel=depolarizing(2, 0.1),
                        trials=1, seed=0, resample_outer=True)
        start = time.process_time()
        with pytest.raises(GuardError, match="decoder search set"):
            simulate(cfg)
        assert time.process_time() - start < 1.0


def test_fidelity_bound_noiseless_value():
    # only constant candidate sequences tie at zero conditional entropy
    for N, K in ((6, 1), (5, 2)):
        b = fidelity_bound_exact(TRIV, N, K, depolarizing(2, 0.0))
        assert b == pytest.approx(min(4 * 2.0 ** (K - N), 1.0), abs=1e-15)


def test_fidelity_bound_range_and_monotonicity_in_gap():
    ch = depolarizing(2, 0.1)
    prev = None
    for K in (5, 4, 3, 2, 1, 0):  # widening kN - K never increases the bound
        b = fidelity_bound_exact(TRIV, 6, K, ch)
        assert 0.0 <= b <= 1.0
        if prev is not None:
            assert b <= prev + 1e-15
        prev = b


def test_fidelity_bound_never_exceeds_one():
    # with K = kN the factor d^(K-kN) is 1, so every type counts in full and
    # the bound is the sum of all type probabilities, which rounds above 1 here
    assert fidelity_bound_exact(TRIV, 2, 2, depolarizing(2, 0.065)) == 1.0


def test_fidelity_bound_matches_brute_force_trivial_inner():
    for p in (0.05, 0.1, 0.25):
        ch = depolarizing(2, p)
        assert fidelity_bound_exact(TRIV, 6, 1, ch) == pytest.approx(
            fidelity_bound_brute(TRIV, 6, 1, ch), abs=1e-12)


def test_fidelity_bound_matches_brute_force_rep3_inner():
    ch = depolarizing(2, 0.15)
    assert fidelity_bound_exact(REP3, 3, 1, ch) == pytest.approx(
        fidelity_bound_brute(REP3, 3, 1, ch), abs=1e-12)


def _multinomial(counts) -> int:
    return math.factorial(sum(counts)) // math.prod(math.factorial(c) for c in counts)


def type_by_type_bound(inner, N, K, channel):
    """The bound straight from its definition: list every joint type and
    count its competitors among the types with the same z-marginal."""
    arr = probability_array(inner, channel)
    flat = arr.table.ravel().tolist()
    groups = {}
    for t in compositions(N, len(flat)).tolist():
        rows = [t[s * arr.cols:(s + 1) * arr.cols] for s in range(arr.rows)]
        shell = math.prod(_multinomial(r) for r in rows)
        prob = _multinomial(t) * math.prod(q**c for q, c in zip(flat, t))
        key = math.prod(c**c for c in t)
        groups.setdefault(tuple(map(sum, rows)), []).append((key, shell, prob))
    scale = float(inner.d) ** (K - inner.k * N)
    return math.fsum(
        prob * min(sum(s for other, s, _ in members if other >= key) * scale, 1.0)
        for members in groups.values() for key, _, prob in members)


def test_fidelity_bound_matches_type_by_type_sum():
    # N beyond the reach of the brute force, so that the competitor counts of
    # types well below the top key stay under d^(kN-K) and their order shows;
    # rep2/d=3 and rep5/d=2 spread the partitions of N over several rows
    for name, d, N, K, p in (("trivial1", 2, 12, 0, 0.02), ("trivial1", 2, 12, 3, 0.05),
                             ("trivial1", 3, 7, 1, 0.05), ("rep3", 2, 4, 1, 0.05),
                             ("rep2", 3, 3, 0, 0.05), ("rep5", 2, 3, 0, 0.02)):
        code, ch = catalog(name, d), depolarizing(d, p)
        assert fidelity_bound_exact(code, N, K, ch) == pytest.approx(
            type_by_type_bound(code, N, K, ch), rel=1e-12)


@st.composite
def random_bound_case(draw):
    """A random isotropic inner code with k >= 1 and m = d^(n+k) <= 27, a
    number of outer blocks N with m^N <= 4096 sequences, K in [0, kN], and a
    random Pauli channel whose integer weights leave some letters at 0.  The
    identity letter gets a heavier weight so that many bounds lie below 1."""
    d = draw(st.sampled_from((2, 3, 5)))
    n = draw(st.integers(1, {2: 3, 3: 2, 5: 1}[d]))
    k = draw(st.integers(1, min(n, {2: 4, 3: 3, 5: 2}[d] - n)))
    m = d ** (n + k)
    n_max = max(N for N in range(1, 7) if m**N <= 4096)
    N = n_max - draw(st.integers(0, n_max - 1))  # N = 1 always bounds at 1
    K = draw(st.integers(0, k * N))
    seed, seed2 = draw(st.integers(0, 2**32 - 1)), draw(st.integers(0, 2**32 - 1))
    subspace = sample_self_orthogonal(d, 2 * n, n - k, seed)
    code = StabilizerCode(subspace, random_completion(subspace, seed2))
    weights = np.array([draw(st.integers(1, 200))]
                       + draw(st.lists(st.integers(0, 4), min_size=d * d - 1,
                                       max_size=d * d - 1)), dtype=float)
    return code, N, K, PauliChannel(d, weights / weights.sum())


@settings(derandomize=True, deadline=None, max_examples=80)
@given(random_bound_case())
def test_fidelity_bound_matches_brute_force_on_random_codes(case):
    code, N, K, ch = case
    exact = fidelity_bound_exact(code, N, K, ch)
    assert 0.0 <= exact <= 1.0
    assert abs(exact - fidelity_bound_brute(code, N, K, ch)) <= 1e-12


def test_fidelity_bounds_reject_no_outer_blocks():
    ch = depolarizing(2, 0.1)
    for bound in (fidelity_bound_exact, fidelity_bound_brute):
        with pytest.raises(ValidationError):
            bound(REP3, 0, 0, ch)


def test_fidelity_bound_guard():
    with patch.object(simconcat, "_FOLD_WORK", 1000), pytest.raises(GuardError):
        fidelity_bound_exact(REP3, 10, 2, depolarizing(2, 0.1))


def test_fidelity_bound_guard_counts_the_fold_not_the_types():
    # 10,518,300 joint types, which the fold never lists: it finishes at once
    code = catalog("trivial1", 5)
    assert fidelity_bound_exact(code, 8, 2, depolarizing(5, 0.1)) == pytest.approx(
        0.30574248371199714, rel=1e-12)


def test_fidelity_bound_guard_refuses_large_inner_codes_before_the_array(monkeypatch):
    # the refusal must not wait for the array to be built: trivial14 and
    # rep26 (2^28 and 2^27 cells) fail the array-build guard in catalog,
    # trivial12 and rep24 (2^24 and 2^25 cells) pass it and reach the fold's
    def unbuilt(*args, **kwargs):
        raise AssertionError("the probability array was built")

    monkeypatch.setattr("qcap.simconcat.probability_array", unbuilt)
    for name, d, N in (("trivial14", 2, 1), ("rep26", 2, 2), ("trivial12", 2, 1), ("rep24", 2, 2)):
        with pytest.raises(GuardError):
            fidelity_bound_exact(catalog(name, d), N, 0, depolarizing(d, 0.1))


def test_fidelity_bound_sums_z_marginals_by_their_partition():
    # rep7/d=3 has 729 syndrome rows and rep8/d=3 2187: the z-marginals are
    # summed per partition of N, not listed one by one (64.8 million for
    # rep7 at N = 3), so all three fit the guard.  CPU time, not wall time,
    # so that a busy host does not fail the test.
    ch = depolarizing(3, 0.05)
    for name, N in (("rep7", 3), ("rep7", 4), ("rep8", 2)):
        start = time.process_time()
        bound = fidelity_bound_exact(catalog(name, 3), N, 1, ch)
        assert time.process_time() - start < 2.0
        assert 0.0 <= bound <= 1.0
        if N == 4:
            assert bound < 1.0


def test_fidelity_bound_folds_a_lone_row_into_its_full_total():
    # an n = k inner code has one syndrome row, which holds all N blocks, so
    # its last column is folded into the total N only; the values below N = 73
    # are those of the full fold, and N = 100 fits the guard
    ch = depolarizing(2, 0.05)
    assert fidelity_bound_exact(TRIV, 72, 1, ch) == 6.055512656197747e-05
    assert fidelity_bound_exact(TRIV, 100, 1, ch) == pytest.approx(1.9186e-6, rel=1e-4)


def test_fidelity_bound_guard_admits_a_lone_row_at_N_128():
    # the lone row costs 40-66 ns per charged word; N = 128 charges 9.3
    # million words and fits the guard, N = 160 charges 22 million and does not
    ch = depolarizing(2, 0.05)
    assert fidelity_bound_exact(TRIV, 128, 1, ch) == pytest.approx(5.4727e-8, rel=1e-4)
    with pytest.raises(GuardError):
        fidelity_bound_exact(TRIV, 160, 1, ch)


def test_empirical_failure_below_bound():
    p = 0.08
    cfg = SimConfig(inner=TRIV, outer=None, N=6, K=1, channel=depolarizing(2, p),
                    trials=4000, seed=5, resample_outer=True)
    rep = simulate(cfg)
    bound = fidelity_bound_exact(TRIV, 6, 1, depolarizing(2, p))
    sigma = np.sqrt(bound * (1 - bound) / cfg.trials)
    assert rep.failure_rate <= bound + 3 * sigma


def test_unencoded_inner_scores_ignore_syndromes():
    # with n = k the syndrome alphabet is a single symbol, so conditional
    # and plain type entropy agree; the decoder is plain minimum-entropy
    arr = probability_array(TRIV, depolarizing(2, 0.1))
    assert arr.rows == 1
    outer = sample_self_orthogonal(2, 10, 4, 1)
    ctx = _Contexts(TRIV, 5, outer.canonical[None])
    z = np.zeros((50, 5), dtype=np.int64)
    v = np.random.default_rng(0).integers(0, arr.cols, (50, 5))
    v_hat = ctx.decode(z, v, _Scratch(TRIV, 5, 1, 50))
    dual = symplectic_dual(outer.basis, 2)
    sigma = dual @ index_to_digits(v.ravel(), 2, 2).reshape(50, -1).T % 2
    assert (dual @ index_to_digits(v_hat.ravel(), 2, 2).reshape(50, -1).T % 2 == sigma).all()
