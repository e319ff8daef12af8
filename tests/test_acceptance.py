"""Acceptance suite: one test per top-level criterion, each printing a
PASS line with its measured margins (run pytest -s to see them inline)."""

import math

import numpy as np
import pytest

from qcap import (
    catalog,
    coherent_bound,
    depolarizing,
    direct_sum,
    bar_map,
    probability_array,
    sample_self_orthogonal,
    symplectic_form,
    hyperbolic_complete,
)
from qcap.codes import StabilizerCode
from qcap.gf import index_to_digits
from qcap.symplectic import Subspace, symplectic_dual
from qcap.exponent import exponent, exponent_grid_oracle
from qcap.qoracle import oracle_report
from qcap.simconcat import SimConfig, fidelity_bound_exact, simulate

from oracles import (
    decode_min_conditional_entropy,
    ensemble_failure_by_pattern,
    ensemble_failure_exact,
    fidelity_bound_brute,
    isotropic_subspaces,
    random_completion,
)

# frozen on first run: zero crossing of the qubit hashing bound 1 - h(p) - p log2(3)
HASHING_CROSSING = 0.189289624915232

# one-sided 95% normal quantile for the two-proportion decrease test
Z_95 = 1.6448536269514722


def binary_entropy(p: float) -> float:
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def test_criterion_1_superadditivity_ternary_window():
    """c_7 > 0 while c_1 < 0 on the ternary depolarizing window."""
    rep7 = catalog("rep7", 3)
    triv = catalog("trivial1", 3)
    margins = []
    for p in np.linspace(0.2552, 0.2557, 8):
        ch = depolarizing(3, float(p))
        c7 = coherent_bound(rep7, ch, base=3).c_n
        c1 = coherent_bound(triv, ch, base=3).c_n
        assert c7 > 1e-6, f"c_7 = {c7} at p = {p}"
        assert c1 < -1e-6, f"c_1 = {c1} at p = {p}"
        margins.append((float(p), c7, c1))
    print(f"\nACCEPTANCE 1 PASS: c_7 in [{min(m[1] for m in margins):.3e}, "
          f"{max(m[1] for m in margins):.3e}] > 0 > c_1 on all 8 grid points")


def test_criterion_2_hashing_bound_and_crossing():
    """Unencoded qubit bound equals 1 - h(p) - p log2(3) to 1e-12; the zero
    crossing matches the frozen regression value to 1e-9."""
    code = catalog("trivial1", 2)
    worst = 0.0
    for p in np.linspace(0.0, 1.0, 101):
        got = coherent_bound(code, depolarizing(2, float(p)), base=2).c_n
        want = 1 - binary_entropy(float(p)) - float(p) * math.log2(3)
        worst = max(worst, abs(got - want))
        assert abs(got - want) <= 1e-12, f"p={p}: {got} vs {want}"

    def c1(p):
        return coherent_bound(code, depolarizing(2, p), base=2).c_n

    lo, hi = 0.1, 0.3
    assert c1(lo) > 0 > c1(hi)
    while hi - lo > 1e-13:
        mid = 0.5 * (lo + hi)
        if c1(mid) > 0:
            lo = mid
        else:
            hi = mid
    crossing = 0.5 * (lo + hi)
    assert abs(crossing - HASHING_CROSSING) <= 1e-9
    print(f"\nACCEPTANCE 2 PASS: max formula deviation {worst:.2e}; "
          f"crossing {crossing:.12f} (frozen {HASHING_CROSSING})")


def test_criterion_3_matrix_oracle_equivalence():
    """Direct coherent information equals k - H_cond, and both entropy
    pieces match, to 1e-9 for every in-scope catalog code."""
    cases = [(2, ["trivial1", "trivial2", "trivial3", "trivial4", "rep2", "rep3", "rep4"]),
             (3, ["trivial1", "trivial2", "rep2"])]
    worst = 0.0
    checked = 0
    for d, names in cases:
        for name in names:
            code = catalog(name, d)
            for p in (0.0, 0.05, 0.25, 0.75):
                ch = depolarizing(d, p)
                rep = oracle_report(code, ch)
                cb = coherent_bound(code, ch)
                s1_expected = cb.H_syndrome + code.k
                s2_expected = cb.H_syndrome + cb.H_cond
                errs = (abs(rep.coherent_info - cb.c_n),
                        abs(rep.entropy_output - s1_expected),
                        abs(rep.entropy_joint - s2_expected))
                assert max(errs) <= 1e-9, (d, name, p, errs)
                worst = max(worst, *errs)
                checked += 1
    print(f"\nACCEPTANCE 3 PASS: {checked} (code, p) cases, worst deviation {worst:.2e}")


def test_criterion_4_exponent_threshold_oracle_monotone():
    """(a) E = 0 exactly when kR reaches k - H_cond; (b) solver matches the
    200-step grid oracle to 1e-3 at unambiguous optima; (c) E is
    nonincreasing in R."""
    # (a) threshold behavior on a (p, R) grid, skipping a +-0.03 band where
    # the exponent itself is below the 1e-8 resolution
    for name in ("trivial1", "rep3"):
        code = catalog(name, 2)
        for p in (0.05, 0.10, 0.18):
            ch = depolarizing(2, p)
            thr = exponent(code, ch, 0.0).threshold
            for R in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0):
                kR = code.k * R
                if abs(kR - thr) < 0.03:
                    continue
                rep = exponent(code, ch, R)
                if kR >= thr:
                    assert rep.value <= 1e-8, (name, p, R, rep.value)
                else:
                    assert rep.value > 1e-8, (name, p, R, rep.value)
                assert rep.kkt_residual <= 1e-8

    # (b) solver vs grid oracle at smooth optima (d=2, n=k=1, 200 steps)
    code = catalog("trivial1", 2)
    gaps = []
    for p in (0.005, 0.01):
        ch = depolarizing(2, p)
        val = exponent(code, ch, 0.0).value
        oracle = exponent_grid_oracle(code, ch, 0.0, 200)
        assert abs(val - oracle) <= 1e-3, (p, val, oracle)
        gaps.append(abs(val - oracle))

    # (c) monotone in R on every sweep
    for name, p in (("trivial1", 0.05), ("trivial1", 0.12), ("rep3", 0.05), ("rep3", 0.12)):
        code = catalog(name, 2)
        vals = [exponent(code, depolarizing(2, p), R).value for R in np.linspace(0, 1, 11)]
        assert all(vals[i + 1] <= vals[i] + 1e-9 for i in range(10)), (name, p, vals)
    print(f"\nACCEPTANCE 4 PASS: threshold grid clean; oracle gaps {[f'{g:.1e}' for g in gaps]}; "
          "all rate sweeps nonincreasing")


def test_criterion_5_direct_sum_additivity():
    """c of a direct sum equals the sum of the parts to 1e-10, 20 random
    catalog pairs over d in {2, 3}."""
    pools = {
        2: ["trivial1", "trivial2", "trivial3", "rep2", "rep3", "rep4"],
        3: ["trivial1", "trivial2", "rep2", "rep3"],
    }
    rng = np.random.default_rng(55)
    worst = 0.0
    done = 0
    while done < 20:
        d = int(rng.choice([2, 3]))
        a = catalog(str(rng.choice(pools[d])), d)
        b = catalog(str(rng.choice(pools[d])), d)
        if d ** (2 * (a.n + b.n)) > 1 << 21:
            continue
        p = float(rng.uniform(0.02, 0.6))
        ch = depolarizing(d, p)
        c_sum = coherent_bound(direct_sum(a, b), ch).c_n
        c_parts = coherent_bound(a, ch).c_n + coherent_bound(b, ch).c_n
        assert abs(c_sum - c_parts) <= 1e-10, (d, a.name, b.name, p)
        worst = max(worst, abs(c_sum - c_parts))
        done += 1
    print(f"\nACCEPTANCE 5 PASS: 20 random pairs, worst additivity gap {worst:.2e}")


def test_criterion_6_structural_property_suites():
    """Pairing conditions exact on the completions of 1000 random subspaces; the logical
    embedding preserves the symplectic form on 10000 pairs; H_cond is
    completion-invariant to 1e-12; arrays are normalized to 1e-12."""
    rng = np.random.default_rng(606)
    for trial in range(1000):
        d = int(rng.choice([2, 3]))
        n = int(rng.integers(1, 7))
        dim = int(rng.integers(0, n + 1))
        L = sample_self_orthogonal(d, 2 * n, dim, (606, trial))
        basis = hyperbolic_complete(L)
        assert basis.gram_ok()

    pair_count = 0
    for inner_name, d in (("rep3", 2), ("rep2", 3)):
        inner = catalog(inner_name, d)
        for _ in range(5000):
            N = int(rng.integers(1, 4))
            x = rng.integers(0, d, 2 * inner.k * N)
            y = rng.integers(0, d, 2 * inner.k * N)
            lhs = symplectic_form(bar_map(inner, x), bar_map(inner, y), d)
            assert lhs == symplectic_form(x, y, d)
            pair_count += 1

    for name, d, p in (("rep3", 2, 0.11), ("rep2", 3, 0.2)):
        base_code = catalog(name, d)
        ch = depolarizing(d, p)
        values = [probability_array(StabilizerCode(base_code.subspace,
                                                   random_completion(base_code.subspace, seed)),
                                    ch).conditional_entropy(d)
                  for seed in range(10)]
        assert max(values) - min(values) <= 1e-12, (name, values)

    for name, d, p in (("rep3", 2, 0.1), ("rep7", 3, 0.2552), ("five_qubit", 2, 0.05),
                       ("trivial4", 2, 0.4)):
        arr = probability_array(catalog(name, d), depolarizing(d, p))
        assert abs(arr.table.sum() - 1.0) <= 1e-12
    print(f"\nACCEPTANCE 6 PASS: 1000 completions exact, {pair_count} isometry pairs, "
          "completion invariance <= 1e-12, arrays normalized")


# matched decoder configurations: (inner name, N, K, p); seeds frozen below
MATCHED_CONFIGS = [
    ("trivial1", 6, 1, 0.08),
    ("trivial1", 8, 2, 0.06),
    ("trivial1", 10, 2, 0.06),
    ("rep3", 6, 1, 0.08),
    ("rep3", 8, 2, 0.05),
]


def test_criterion_7_decoder_consistency():
    """Ensemble-average decoding failure stays below the exact type bound
    (plus 3 binomial sigma) on five matched configurations, and decays with
    N at a fixed rate below threshold (one-sided 95% test)."""
    trials = 10_000
    lines = []
    for name, N, K, p in MATCHED_CONFIGS:
        inner = catalog(name, 2)
        ch = depolarizing(2, p)
        bound = fidelity_bound_exact(inner, N, K, ch)
        cfg = SimConfig(inner=inner, outer=None, N=N, K=K, channel=ch,
                        trials=trials, seed=2026, resample_outer=True)
        rep = simulate(cfg)
        sigma = math.sqrt(bound * (1 - bound) / trials)
        assert rep.failure_rate <= bound + 3 * sigma, (name, N, K, p, rep.failure_rate, bound)
        lines.append(f"{name} N={N}: emp {rep.failure_rate:.4f} <= bound {bound:.4f} + 3s")

    # decay with N at fixed rate K/(kN) = 1/4, far below the p = 0.03 threshold
    inner = catalog("rep3", 2)
    ch = depolarizing(2, 0.03)
    thr = coherent_bound(inner, ch, base=2).c_n
    assert 0.25 < thr
    rates = {}
    for N, K in ((4, 1), (8, 2), (12, 3)):
        cfg = SimConfig(inner=inner, outer=None, N=N, K=K, channel=ch,
                        trials=trials, seed=314, resample_outer=True)
        rates[N] = simulate(cfg)
    p4, p12 = rates[4].failure_rate, rates[12].failure_rate
    pooled = (rates[4].failures + rates[12].failures) / (2 * trials)
    z = (p4 - p12) / math.sqrt(pooled * (1 - pooled) * 2 / trials)
    assert z > Z_95, f"decrease not significant: {p4} -> {p12}, z = {z:.2f}"
    # the midpoint must not sit significantly above the start
    p8 = rates[8].failure_rate
    pooled8 = (rates[4].failures + rates[8].failures) / (2 * trials)
    z8 = (p8 - p4) / math.sqrt(pooled8 * (1 - pooled8) * 2 / trials)
    assert z8 < Z_95, f"midpoint increased: {p4} -> {p8}"
    print("\nACCEPTANCE 7 PASS: " + "; ".join(lines)
          + f"; decay {p4:.4f} -> {p8:.4f} -> {p12:.4f} (z = {z:.1f})")


def test_criterion_8_type_bound_equals_brute_force():
    """The type-grouped bound equals the ungrouped per-sequence sum to
    1e-12 on the unencoded inner code with N = 6, K = 1."""
    inner = catalog("trivial1", 2)
    worst = 0.0
    for p in (0.05, 0.1, 0.25):
        ch = depolarizing(2, p)
        grouped = fidelity_bound_exact(inner, 6, 1, ch)
        brute = fidelity_bound_brute(inner, 6, 1, ch)
        assert abs(grouped - brute) <= 1e-12, (p, grouped, brute)
        worst = max(worst, abs(grouped - brute))
    print(f"\nACCEPTANCE 8 PASS: grouped vs brute-force bound, worst gap {worst:.2e}")


def test_criterion_9_qubit_window_above_hashing():
    """c_5 > 0 > c_1 on the qubit depolarizing window [0.1894, 0.1903],
    above the hashing crossing: rep5/d=2 keeps a positive bound where the
    unencoded qubit has none."""
    rep5 = catalog("rep5", 2)
    triv = catalog("trivial1", 2)
    ps = np.linspace(0.1894, 0.1903, 10)
    assert ps[0] > HASHING_CROSSING
    c5s, c1s = [], []
    for p in ps:
        ch = depolarizing(2, float(p))
        c5s.append(coherent_bound(rep5, ch, base=2).c_n)
        c1s.append(coherent_bound(triv, ch, base=2).c_n)
        assert c5s[-1] > 0 > c1s[-1], (p, c5s[-1], c1s[-1])
    print(f"\nACCEPTANCE 9 PASS: min c_5 {min(c5s):.3e} > 0 > max c_1 {max(c1s):.3e} "
          "on all 10 grid points")


# (inner name, d, p, block counts N) for the exponent sandwich, at K = N/4
SANDWICH_CONFIGS = [
    ("trivial1", 2, 0.05, (16, 32, 64, 113, 128)),
    ("trivial1", 3, 0.1, (8, 12, 16)),
    ("rep3", 2, 0.05, (4, 8)),
]
# the configurations whose measured prefactor is held in a window
PREFACTOR_WINDOW = {("trivial1", 2, N) for N in (64, 113, 128)}


def test_criterion_10_exponent_sandwiches_the_type_bound():
    """The type-sum bound decays at the rate exponent() reports:

        E - 2m log_d(N+1)/N <= -log_d(fbound)/N <= E_grid(N) + 2m log_d(N+1)/N

    with m the number of support cells, R = K/(kN), E = exponent(R) and
    E_grid(N) the grid oracle at denominator N.  Logarithms are base d,
    gap = k - kR, so N gap = kN - K, and f(T) = D(T||P) + |gap - H_T(L|S)|+
    is the exponent's objective at a type T.

    fbound = sum over joint types T of P^N(T) min{C(T) d^-(kN-K), 1}, with
    C(T) the v' that share z and whose joint type with z has conditional
    entropy <= H_T(L|S).  By the method of types:

    - Upper end.  Keep the one term of a type T on the support: P^N(T) >=
      (N+1)^-m d^(-N D(T||P)), and C(T) counts at least T's own shell,
      prod_s multinomial(N_s; N_sl) >= (N+1)^-m d^(N H_T(L|S)).  So fbound
      >= (N+1)^-2m d^(-N f(T)), and the best T on the grid gives
      E_grid(N).
    - Lower end.  P^N(T) <= d^(-N D(T||P)).  Each conditional type V given
      z has a shell of at most d^(N H_V) <= d^(N H_T) sequences, and there
      are at most (N+1)^m of them, since here the channel reaches every
      cell, so the support is the whole array.  So each term is at most
      (N+1)^m d^(-N f(T)) <= (N+1)^m d^(-N E), as E is at most the
      minimum of f, and there are at most (N+1)^m types on the support.

    That slack is 0.44 to 18.6 against E = 0.02 to 0.12, so it would pass
    E = 0 or 5E too.  The measured prefactor N (rate - E) is far smaller:
    at trivial1/d=2 p=0.05 it is 2.13 to 2.37 for N = 64 to 128, about
    0.34 log_2(N+1).  There the test holds fbound between
    d^-(NE) / sqrt(N+1) and d^-(NE), that is 0 <= N (rate - E) <=
    log_d(N+1) / 2, and checks that E = 0 and 5E fall outside.
    """
    lines = []
    for name, d, p, Ns in SANDWICH_CONFIGS:
        code, ch = catalog(name, d), depolarizing(d, p)
        m = int(np.count_nonzero(probability_array(code, ch).table))
        assert m == d ** (code.n + code.k)  # the support is the whole array
        prefactors = []
        for N in Ns:
            K = N // 4
            R = K / (code.k * N)
            E = exponent(code, ch, R).value
            rate = -math.log(fidelity_bound_exact(code, N, K, ch), d) / N
            slack = 2 * m * math.log(N + 1, d) / N
            grid = exponent_grid_oracle(code, ch, R, N)
            assert E - slack <= rate <= grid + slack, (name, d, N, E, rate, grid, slack)
            if (name, d, N) in PREFACTOR_WINDOW:
                def in_window(e):
                    return 0 <= N * (rate - e) <= math.log(N + 1, d) / 2
                assert in_window(E) and not in_window(0) and not in_window(5 * E), (N, E, rate)
            prefactors.append(f"{N * (rate - E):.2f}")
        lines.append(f"{name}/d={d} p={p} N={list(Ns)}: N(rate - E) = {', '.join(prefactors)}")
    print("\nACCEPTANCE 10 PASS: " + "; ".join(lines))


# exact ensemble configurations: (inner name, d, N, K, p, number of isotropic
# outer codes); trivial1 has one syndrome, rep3 and rep2 have several
EXACT_CONFIGS = [
    ("trivial1", 2, 3, 1, 0.08, 315),
    ("trivial1", 2, 4, 1, 0.08, 11475),
    ("rep3", 2, 3, 1, 0.08, 315),
    ("trivial1", 3, 3, 1, 0.1, 3640),
    ("rep2", 3, 2, 1, 0.1, 40),
]


def _brute_force_failure(inner, N, K, channel, codes):
    """Each code's failure rate from decoding every (z, v) with
    decode_min_conditional_entropy.  The decoder sees only z and the outer
    syndrome of v, so each such pair is decoded once and its v_hat checked
    against every v that shares it."""
    d, k = inner.d, inner.k
    arr = probability_array(inner, channel)
    col_digits = index_to_digits(np.arange(arr.cols), d, 2 * k)
    vs = index_to_digits(np.arange(arr.cols**N), arr.cols, N)
    v_digits = col_digits[vs].reshape(len(vs), -1)
    rates = []
    for basis in codes:
        outer = Subspace(d, 2 * k * N, basis)
        sigmas = symplectic_dual(basis, d) @ v_digits.T % d
        fail = []
        for z in index_to_digits(np.arange(arr.rows**N), arr.rows, N):
            for sigma in np.unique(sigmas, axis=1).T:
                v_hat = decode_min_conditional_entropy(inner, outer, z, sigma)
                coset = (sigmas == sigma[:, None]).all(axis=0)
                diffs = (col_digits[v_hat].ravel() - v_digits[coset]) % d
                missed = (symplectic_dual(outer.canonical, d) @ diffs.T % d).any(axis=0)
                fail += arr.table[z, vs[coset][missed]].prod(axis=1).tolist()
        rates.append(math.fsum(fail))
    return np.array(rates)


def test_criterion_11_exact_ensemble_failure_rate():
    """The decoder's failure rate averaged exactly over every isotropic
    outer code stays below the type-sum bound; the simulator agrees with it
    two-sided within 3 binomial sigma at a frozen seed; and on the smallest
    configuration it equals a brute-force decode of every (code, error)."""
    trials = 10_000
    lines = []
    for name, d, N, K, p, count in EXACT_CONFIGS:
        inner = catalog(name, d)
        ch = depolarizing(d, p)
        exact, rates = ensemble_failure_exact(inner, N, K, ch)
        assert rates.size == count
        bound = fidelity_bound_exact(inner, N, K, ch)
        assert exact <= bound, (name, d, N, K, p, exact, bound)
        cfg = SimConfig(inner=inner, outer=None, N=N, K=K, channel=ch,
                        trials=trials, seed=2026, resample_outer=True)
        rate = simulate(cfg).failure_rate
        z = (rate - exact) / math.sqrt(exact * (1 - exact) / trials)
        assert abs(z) <= 3, (name, d, N, K, p, rate, exact, z)
        lines.append(f"{name}/d={d} N={N} K={K}: exact {exact:.5f} <= bound {bound:.4f}, "
                     f"sim {rate:.4f} (z = {z:+.2f})")

    # the smallest configuration is the last one, whose rates are still at hand
    codes, _ = isotropic_subspaces(d, 2 * inner.k * N, inner.k * N - K)
    brute = _brute_force_failure(inner, N, K, ch, codes)
    assert np.abs(rates - brute).max() <= 1e-12
    print("\nACCEPTANCE 11 PASS: " + "; ".join(lines)
          + f"; {name}/d={d} N={N} equals brute force on all {len(codes)} codes")


def test_criterion_11_random_inner_codes():
    """On random [[2,1]] inner codes over d in {2, 3, 5} at N = 2, K = 1,
    p = 0.1, the pattern reduction equals the full exact oracle per outer
    code, and the resampled-outer simulator agrees with the exact rate
    within 3 binomial sigma, two-sided.  (The type-sum bound is 1 at N = 2,
    so it checks nothing here.)"""
    trials = 2_000
    lines = []
    for d in (2, 3, 5):
        inner = StabilizerCode(sample_self_orthogonal(d, 4, 1, 2026))
        ch = depolarizing(d, 0.1)
        exact, rates = ensemble_failure_exact(inner, 2, 1, ch)
        _, by_pattern = ensemble_failure_by_pattern(inner, 2, 1, ch)
        assert rates.size == (d**4 - 1) // (d - 1)  # every isotropic line of F_d^4
        assert np.abs(by_pattern - rates).max() <= 1e-15, d
        cfg = SimConfig(inner=inner, outer=None, N=2, K=1, channel=ch,
                        trials=trials, seed=2026, resample_outer=True)
        rate = simulate(cfg).failure_rate
        z = (rate - exact) / math.sqrt(exact * (1 - exact) / trials)
        assert abs(z) <= 3, (d, rate, exact, z)
        lines.append(f"d={d}: exact {exact:.5f} over {rates.size} codes, sim {rate:.4f} "
                     f"(z = {z:+.2f})")
    print("\nACCEPTANCE 11 PASS (random [[2,1]] inner codes, N=2 K=1 p=0.1): "
          + "; ".join(lines))


def test_criterion_12_paper_code_decoder_below_type_bound():
    """On the paper's rep7/d=3 code at p = 0.05, K = 1, the resampled-outer
    decoder's failure rate agrees with the exact ensemble rate within 3
    binomial sigma, two-sided, at N = 2 and 3, and stays below the exact
    type-sum bound (plus 3 binomial sigma) at N = 2 and 4; the error
    exponent E(1/4) is reported alongside."""
    inner = catalog("rep7", 3)
    ch = depolarizing(3, 0.05)
    trials = 10_000
    lines = []
    for N in (2, 3, 4):
        cfg = SimConfig(inner=inner, outer=None, N=N, K=1, channel=ch,
                        trials=trials, seed=2026, resample_outer=True)
        rate = simulate(cfg).failure_rate
        if N < 4:
            exact, _ = ensemble_failure_by_pattern(inner, N, 1, ch)
            z = (rate - exact) / math.sqrt(exact * (1 - exact) / trials)
            assert abs(z) <= 3, (N, rate, exact, z)
            lines.append(f"N={N}: emp {rate:.4f} vs exact {exact:.6f} (z = {z:+.2f})")
        if N != 3:
            bound = fidelity_bound_exact(inner, N, 1, ch)
            sigma = math.sqrt(bound * (1 - bound) / trials)
            assert rate <= bound + 3 * sigma, (N, rate, bound)
            lines.append(f"N={N}: emp {rate:.4f} <= bound {bound:.4f} + 3s")
    e = exponent(inner, ch, 0.25).value
    print("\nACCEPTANCE 12 PASS: rep7/d=3 p=0.05 K=1: " + "; ".join(lines)
          + f"; E(1/4) = {e:.4f}")
