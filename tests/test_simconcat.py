import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcap import (
    GuardError,
    PauliChannel,
    StabilizerCode,
    ValidationError,
    catalog,
    depolarizing,
    hyperbolic_complete,
    sample_self_orthogonal,
)
from qcap.exponent import compositions
from qcap.gf import index_to_digits
from qcap.symplectic import _DualEchelon, _sample_isotropic, symplectic_dual
from qcap.simconcat import (
    SimConfig,
    _OuterContext,
    _decode_ctx,
    fidelity_bound_exact,
    sample_error,
    simulate,
)
from qcap.spectra import probability_array

from oracles import (
    decode_min_conditional_entropy,
    fidelity_bound_brute,
    nullspace,
    random_isotropic_dense,
    rref,
    solve_affine,
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
    ctx = _OuterContext(_DualEchelon.of(2, outer.basis), 1, 6)
    col_digits = index_to_digits(np.arange(arr.cols), 2, 2)
    for _ in range(200):
        z, v = sample_error(arr, 6, rng)
        sigma = ctx.syndrome(col_digits[v].ravel())
        v_hat = _decode_ctx(REP3, ctx, z, sigma)
        assert (ctx.syndrome(col_digits[v_hat].ravel()) == sigma).all()


def test_decoder_success_indicator_cross_validated():
    # recompute the success flag through exhaustive membership in C_out
    rng = np.random.default_rng(31)
    inner = TRIV
    N, K = 6, 1
    arr = probability_array(inner, depolarizing(2, 0.1))
    outer = sample_self_orthogonal(2, 2 * N, N - K, 77)
    ctx = _OuterContext(_DualEchelon.of(2, outer.basis), 1, N)
    col_digits = index_to_digits(np.arange(arr.cols), 2, 2)
    members = {tuple((c @ outer.basis) % 2)
               for c in index_to_digits(np.arange(2**outer.dim), 2, outer.dim)}
    agree = 0
    for _ in range(1000):
        z, v = sample_error(arr, N, rng)
        vd = col_digits[v].ravel()
        sigma = ctx.syndrome(vd)
        v_hat = _decode_ctx(inner, ctx, z, sigma)
        diff = (col_digits[v_hat].ravel() - vd) % 2
        assert ctx.contains(diff) == (tuple(diff) in members)
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


@st.composite
def random_decode_case(draw):
    """A random inner code with k >= 1, a random isotropic outer code whose
    coset search lists at most 4096 candidates, and random z and sigma; z is
    drawn from few syndromes so that candidates often tie."""
    d = draw(st.sampled_from((2, 3, 5)))
    n = draw(st.integers(1, {2: 3, 3: 2, 5: 1}[d]))
    k = draw(st.integers(1, n))
    subspace = sample_self_orthogonal(d, 2 * n, n - k, draw(st.integers(0, 2**32 - 1)))
    inner = StabilizerCode(subspace, hyperbolic_complete(subspace, draw(st.integers(0, 2**32 - 1))))
    n_max = max(N for N in range(1, 13) if d ** (k * N) <= 4096)
    N = draw(st.integers(1, n_max))
    K = draw(st.integers(0, max(K for K in range(k * N + 1) if d ** (k * N + K) <= 4096)))
    outer = sample_self_orthogonal(d, 2 * k * N, k * N - K, draw(st.integers(0, 2**32 - 1)))
    rows = d ** (n - k)
    z = np.array(draw(st.lists(st.integers(0, min(rows, draw(st.integers(1, 3))) - 1),
                               min_size=N, max_size=N)), dtype=np.int64)
    sigma = np.array(draw(st.lists(st.integers(0, d - 1), min_size=outer.dim, max_size=outer.dim)),
                     dtype=np.int64)
    return inner, outer, z, sigma


@settings(derandomize=True, deadline=None, max_examples=150)
@given(random_decode_case())
def test_decoder_matches_reference_on_random_codes(case):
    inner, outer, z, sigma = case
    ctx = _OuterContext(_DualEchelon.of(inner.d, outer.basis), inner.k, len(z))
    v_hat = _decode_ctx(inner, ctx, z, sigma)
    assert v_hat.tolist() == reference_decode(inner, outer, z, sigma).tolist()


def test_syndrome_invariant_under_code_shifts():
    outer = sample_self_orthogonal(2, 16, 6, 13)
    ctx = _OuterContext(_DualEchelon.of(2, outer.basis), 1, 8)
    rng = np.random.default_rng(2)
    for _ in range(100):
        v = rng.integers(0, 2, 16)
        c = (rng.integers(0, 2, outer.dim) @ outer.basis) % 2
        assert (ctx.syndrome(v) == ctx.syndrome((v + c) % 2)).all()
        # failure indicator of a shifted truth is unchanged
        diff = rng.integers(0, 2, 16)
        assert ctx.contains(diff) == ctx.contains((diff + c) % 2)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(st.sampled_from((2, 3, 5)), st.integers(1, 2), st.integers(1, 6), st.integers(0, 12),
       st.integers(0, 2**32 - 1))
def test_context_membership_matches_subspace(d, k, N, K, seed):
    # the context tests x in C_out as <perp(C_out), x> = 0, without an
    # echelon form of C_out
    while d ** (k * N) > 4096:
        N -= 1
    K = min(K, k * N)
    while d ** (k * N + K) > 4096:
        K -= 1
    outer = sample_self_orthogonal(d, 2 * k * N, k * N - K, seed)
    ctx = _OuterContext(_DualEchelon.of(d, outer.basis), k, N)
    rng = np.random.default_rng(seed)
    members = (rng.integers(0, d, (10, outer.dim)) @ outer.basis) % d
    noise = rng.integers(0, d, (10, 2 * k * N))
    assert all(ctx.contains(x) for x in members)
    for x in np.vstack([noise, (members + noise) % d]):
        assert ctx.contains(x) == outer.contains(x)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(st.sampled_from((2, 3, 5)), st.integers(1, 2), st.integers(1, 6), st.integers(0, 12),
       st.integers(0, 2**32 - 1))
def test_shared_echelon_matches_nullspace_dense_sampler_and_explicit_context(d, k, N, K, seed):
    # one echelon form of [dual | I] serves the sampler's rejection test,
    # perp(current) kept in place, and the decoder context
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
        added = grown.add(grown.pack(row)[0])
        assert added == (rref(np.vstack([rows, row]), d)[0].shape[0] > rows.shape[0])
        if added:
            rows = np.vstack([rows, row])
        assert np.array_equal(grown.perp_basis(),
                              nullspace(symplectic_dual(rows, d), d, ambient))
    assert np.array_equal(grown.basis(), rows)
    # the sampler draws what the dense reference draws
    sampled = _sample_isotropic(d, ambient, dim, np.random.default_rng(seed))
    basis = sampled.basis()
    assert np.array_equal(basis, random_isotropic_dense(d, ambient, dim,
                                                        np.random.default_rng(seed)))
    # a context on the sampler's form equals one grown from the same rows
    ctx = _OuterContext(sampled, k, N)
    explicit = _OuterContext(_DualEchelon.of(d, basis), k, N)
    assert np.array_equal(ctx.perp_basis, explicit.perp_basis)
    assert np.array_equal(ctx.reps, explicit.reps)
    assert np.array_equal(symplectic_dual(basis, d) @ ctx.reps.T % d,
                          np.eye(dim, dtype=np.int64))
    members = rng.integers(0, d, (10, dim)) @ basis % d
    for x in np.vstack([members, rng.integers(0, d, (20, ambient))]):
        assert ctx.contains(x) == explicit.contains(x)
        assert ctx.contains(x) == (rref(np.vstack([basis, x]), d)[0].shape[0] == dim)


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


def test_simulate_trace():
    cfg = SimConfig(inner=TRIV, outer=None, N=4, K=1, channel=depolarizing(2, 0.1),
                    trials=5, seed=2, record_trace=True)
    rep = simulate(cfg)
    assert rep.trace is not None and len(rep.trace) == 5
    assert {"trial", "failure", "z", "v", "v_hat"} <= set(rep.trace[0])


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
    with pytest.raises(ValidationError):  # an explicit outer code is never resampled
        SimConfig(inner=TRIV, outer=sample_self_orthogonal(2, 8, 3, 0), N=4, K=1,
                  channel=depolarizing(2, 0.1), trials=10, seed=0, resample_outer=True)


def test_search_guard():
    cfg = SimConfig(inner=TRIV, outer=None, N=30, K=5, channel=depolarizing(2, 0.1),
                    trials=1, seed=0, resample_outer=True)
    with pytest.raises(GuardError):
        simulate(cfg)


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
    # types well below the top key stay under d^(kN-K) and their order shows
    for name, d, N, K, p in (("trivial1", 2, 12, 0, 0.02), ("trivial1", 2, 12, 3, 0.05),
                             ("trivial1", 3, 7, 1, 0.05), ("rep3", 2, 4, 1, 0.05)):
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
    code = StabilizerCode(subspace, hyperbolic_complete(subspace, seed2))
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
    with pytest.raises(GuardError):
        fidelity_bound_exact(REP3, 10, 2, depolarizing(2, 0.1), max_work=1000)


def test_fidelity_bound_guard_counts_the_fold_not_the_types():
    # 10,518,300 joint types, which the fold never lists: it finishes at once
    code = catalog("trivial1", 5)
    assert fidelity_bound_exact(code, 8, 2, depolarizing(5, 0.1)) == pytest.approx(
        0.30574248371199714, rel=1e-12)


def test_fidelity_bound_guard_refuses_large_inner_codes_before_the_array(monkeypatch):
    # 2^28 and 2^27 cells: the refusal must not wait for the array to be built
    def unbuilt(*args, **kwargs):
        raise AssertionError("the probability array was built")

    monkeypatch.setattr("qcap.simconcat.probability_array", unbuilt)
    for name, N in (("trivial14", 1), ("rep26", 2)):
        with pytest.raises(GuardError):
            fidelity_bound_exact(catalog(name, 2), N, 0, depolarizing(2, 0.1))


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
    ctx = _OuterContext(_DualEchelon.of(2, outer.basis), 1, 5)
    z = np.zeros(5, dtype=np.int64)
    rng = np.random.default_rng(0)
    for _ in range(50):
        sigma = rng.integers(0, 2, outer.dim)
        v_hat = _decode_ctx(TRIV, ctx, z, sigma)
        assert (ctx.syndrome(index_to_digits(v_hat, 2, 2).ravel()) == sigma).all()
