import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcap import (
    ConvergenceError,
    GuardError,
    PauliChannel,
    StabilizerCode,
    ValidationError,
    bound_sweep,
    catalog,
    coherent_bound,
    depolarizing,
    hyperbolic_complete,
    read_code_file,
    sample_self_orthogonal,
    write_code_file,
)
from qcap.exponent import (
    _Objective,
    compositions,
    count_types,
    exponent,
    exponent_grid_oracle,
)
from qcap.spectra import probability_array

from oracles import kl_divergence, reference_exponent

# dual evaluations one solve may use: bisection needed up to about 107
EVAL_BUDGET = 16


def test_kl_basics():
    p = [0.3, 0.7]
    assert kl_divergence(p, p, 2) == 0.0
    assert kl_divergence([1.0, 0.0], [0.0, 1.0], 2) == math.inf
    with pytest.raises(ValidationError):
        kl_divergence([1.0], [0.5, 0.5], 2)


def test_kl_nonnegative_random():
    rng = np.random.default_rng(12)
    for _ in range(10_000):
        m = int(rng.integers(2, 6))
        p = rng.dirichlet(np.ones(m))
        q = rng.dirichlet(np.ones(m))
        assert kl_divergence(p, q, 2) >= -1e-13


def test_count_types_examples():
    assert count_types(2, 0, 0, 5) == 1  # one-cell alphabet
    assert count_types(2, 1, 1, 1) == 4  # N = 1: one type per letter
    assert count_types(2, 2, 1, 10) == 19448  # C(17, 7)


def test_compositions_shape_and_sums():
    arr = compositions(6, 4)
    assert arr.shape == (math.comb(9, 3), 4)
    assert (arr.sum(axis=1) == 6).all()
    assert len({tuple(r) for r in arr}) == arr.shape[0]


def test_compositions_match_stars_and_bars_in_order():
    for total in range(5):
        for parts in range(1, 6):
            # bars at sorted positions among total + parts - 1 slots, in
            # lexicographic order of the bar positions, give the rows in
            # lexicographic order of the parts
            want = []
            for bars in itertools.combinations(range(total + parts - 1), parts - 1):
                edges = (-1, *bars, total + parts - 1)
                want.append([edges[i + 1] - edges[i] - 1 for i in range(parts)])
            assert compositions(total, parts).tolist() == want


def test_compositions_with_many_parts():
    arr = compositions(1, 1000)
    assert arr.shape == (1000, 1000)
    assert (arr == np.eye(1000, dtype=int)[::-1]).all()


def test_exponent_zero_at_and_above_threshold():
    code = catalog("trivial1", 2)
    ch = depolarizing(2, 0.1)
    rep = exponent(code, ch, 1.0)
    assert rep.value == 0.0 and rep.kkt_residual == 0.0
    thr = rep.threshold
    rep2 = exponent(code, ch, thr + 0.01)  # kR just above threshold (k = 1)
    assert rep2.value == 0.0


def test_exponent_noiseless_is_k_times_one_minus_R():
    for code, d in ((catalog("trivial1", 2), 2), (catalog("rep2", 3), 3)):
        for R in (0.0, 0.25, 0.5, 1.0):
            rep = exponent(code, depolarizing(d, 0.0), R)
            assert rep.value == pytest.approx(code.k * (1 - R), abs=1e-12)


def test_exponent_positive_below_threshold():
    code = catalog("rep3", 2)
    ch = depolarizing(2, 0.08)
    rep = exponent(code, ch, 0.0)
    assert rep.value > 1e-4
    assert rep.kkt_residual <= 1e-8


def test_exponent_matches_independent_tilt_reduction():
    # for the unencoded qubit at R=0 the optimum rides the hinge; the
    # one-parameter tilted family q ~ p^(1/(1+beta)) pinned to H(q) = 1
    # reproduces it independently of the solver
    p = np.array([0.95, 0.05 / 3, 0.05 / 3, 0.05 / 3])

    def h2(q):
        m = q > 0
        return float(-(q[m] * np.log2(q[m])).sum())

    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        q = p ** (1 / (1 + mid))
        q /= q.sum()
        if h2(q) < 1.0:
            lo = mid
        else:
            hi = mid
    q = p ** (1 / (1 + 0.5 * (lo + hi)))
    q /= q.sum()
    expect = float((q * np.log2(q / p)).sum())
    rep = exponent(catalog("trivial1", 2), depolarizing(2, 0.05), 0.0)
    assert rep.value == pytest.approx(expect, abs=1e-8)


def test_exponent_vs_grid_oracle():
    code = catalog("trivial1", 2)
    for p, R in ((0.05, 0.0), (0.01, 0.0), (0.005, 0.0)):
        ch = depolarizing(2, p)
        rep = exponent(code, ch, R)
        oracle = exponent_grid_oracle(code, ch, R, 200)
        assert rep.value <= oracle + 1e-9  # the oracle can only overshoot
        assert rep.value >= oracle - 5e-3  # grid resolution bound


def test_grid_oracle_refinement_is_monotone():
    code = catalog("trivial1", 2)
    ch = depolarizing(2, 0.05)
    coarse = exponent_grid_oracle(code, ch, 0.0, 60)
    fine = exponent_grid_oracle(code, ch, 0.0, 120)  # grid points are a superset
    assert fine <= coarse + 1e-15


def test_grid_oracle_at_on_grid_distribution():
    # when P_L lies on the grid the divergence term can vanish, so the
    # oracle is at most the bare hinge value
    code = catalog("trivial1", 2)
    ch = depolarizing(2, 0.5)  # P = (0.5, 1/6, 1/6, 1/6) is on a 6-step grid
    val = exponent_grid_oracle(code, ch, 0.0, 6)
    arr = probability_array(code, ch)
    hinge = max(0.0, 1.0 - arr.conditional_entropy(2))
    assert val <= hinge + 1e-12


def test_exponent_nonincreasing_in_rate():
    code = catalog("rep3", 2)
    ch = depolarizing(2, 0.1)
    vals = [exponent(code, ch, R).value for R in np.linspace(0, 1, 11)]
    assert all(vals[i + 1] <= vals[i] + 1e-9 for i in range(10))


def test_objective_convexity_chords():
    arr = probability_array(catalog("rep2", 2), depolarizing(2, 0.12))
    obj = _Objective(arr, 1, 0.2)
    rng = np.random.default_rng(4)
    m = obj.p.size
    for _ in range(300):
        a = rng.dirichlet(np.ones(m))
        b = rng.dirichlet(np.ones(m))
        lam = rng.random()
        mix = lam * a + (1 - lam) * b
        assert obj.value(mix) <= lam * obj.value(a) + (1 - lam) * obj.value(b) + 1e-12


def test_exponent_rate_validation():
    code = catalog("trivial1", 2)
    with pytest.raises(ValidationError):
        exponent(code, depolarizing(2, 0.1), -0.2)
    with pytest.raises(ValidationError):
        exponent(code, depolarizing(2, 0.1), 1.2)


def test_grid_oracle_guard():
    code = catalog("rep3", 2)  # 16 support cells: a 200-step grid is infeasible
    with pytest.raises(GuardError):
        exponent_grid_oracle(code, depolarizing(2, 0.1), 0.0, 200)


def test_grid_oracle_rejects_an_empty_grid():
    code = catalog("trivial1", 2)
    for steps in (0, -1):
        with pytest.raises(ValidationError):
            exponent_grid_oracle(code, depolarizing(2, 0.1), 0.0, steps)


def test_exponent_nonnegative_just_below_threshold():
    # the root sits near beta = 0 here, where bisection took up to 107 steps;
    # the Newton iteration must match it within the evaluation budget
    for name, d, p in (("rep3", 2, 0.08), ("trivial1", 2, 0.05), ("five_qubit", 2, 0.1),
                       ("rep2", 3, 0.1)):
        code, ch = catalog(name, d), depolarizing(d, p)
        thr = exponent(code, ch, 0.0).threshold
        for offset in (1e-4, 1e-8, 1e-12, 1e-15):
            R = (thr - offset) / code.k
            rep = exponent(code, ch, R)
            assert rep.value >= 0.0
            assert rep.kkt_residual <= 1e-8
            assert abs(rep.value - reference_exponent(code, ch, R)) <= 1e-12, (name, offset)
            assert rep.iterations <= EVAL_BUDGET, (name, offset, rep.iterations)


def test_exponent_raises_when_the_certificate_fails(monkeypatch):
    code = catalog("rep3", 2)
    ch = depolarizing(2, 0.08)
    monkeypatch.setattr(_Objective, "value", lambda self, x: 1.0)
    with pytest.raises(ConvergenceError):
        exponent(code, ch, 0.0)


def test_exponent_has_no_polish_knobs(tmp_path):
    # removed keyword options are refused, not ignored: the solver's polish
    # knobs and tolerance, the completion seed (pass a completion built by
    # hyperbolic_complete instead) and the array guards of the bound helpers
    # (pass probability_array(..., max_cells=) to bound_from_array instead)
    code = catalog("trivial1", 2)
    ch = depolarizing(2, 0.05)
    path = tmp_path / "trivial1.code"
    write_code_file(code, path)
    table = [
        (exponent, (code, ch, 0.0), "polish_iters"),
        (exponent, (code, ch, 0.0), "max_iter"),
        (exponent, (code, ch, 0.0), "tol"),
        (exponent_grid_oracle, (code, ch, 0.0, 2), "max_cells"),
        (coherent_bound, (code, ch), "max_cells"),
        (bound_sweep, (code, [ch]), "max_cells"),
        (StabilizerCode, (code.subspace,), "seed"),
        (StabilizerCode.from_generators, (2, 1, []), "seed"),
        (read_code_file, (path,), "seed"),
    ]
    for fn, args, kwarg in table:
        with pytest.raises(TypeError):
            fn(*args, **{kwarg: 10})


@st.composite
def random_exponent_case(draw):
    """A random isotropic code with k >= 1 and d^(n+k) <= 64, a random Pauli
    channel whose integer weights leave some letters at probability 0, and a
    rate.  The identity letter gets a heavier weight so that many draws fall
    below the threshold, where the exponent is positive."""
    d = draw(st.sampled_from((2, 3, 5)))
    n = draw(st.integers(1, {2: 3, 3: 2, 5: 1}[d]))
    k = draw(st.integers(1, min(n, {2: 6, 3: 3, 5: 2}[d] - n)))
    seed, seed2 = draw(st.integers(0, 2**32 - 1)), draw(st.integers(0, 2**32 - 1))
    subspace = sample_self_orthogonal(d, 2 * n, n - k, seed)
    code = StabilizerCode(subspace, hyperbolic_complete(subspace, seed2))
    weights = np.array([draw(st.integers(1, 200))]
                       + draw(st.lists(st.integers(0, 4), min_size=d * d - 1,
                                       max_size=d * d - 1)), dtype=float)
    R = draw(st.floats(0.0, 1.0))
    return code, PauliChannel(d, weights / weights.sum()), R


@settings(derandomize=True, deadline=None, max_examples=80)
@given(random_exponent_case())
def test_exponent_certificate_on_random_codes(case):
    code, ch, R = case
    rep = exponent(code, ch, R)
    assert rep.value >= 0.0
    assert rep.kkt_residual <= 1e-8
    # weak duality: every dual value phi(beta) bounds the exponent from below,
    # and rep.value is the objective at a feasible point, independently of
    # where the solver stopped
    obj = _Objective(probability_array(code, ch), code.k, R)
    dual = max(obj.tilted(beta)[1] for beta in np.linspace(0.0, 1.0, 41))
    assert rep.value >= dual - 1e-10
    if obj.p.size <= 4:
        assert rep.value <= exponent_grid_oracle(code, ch, R, 60) + 1e-9


@settings(derandomize=True, deadline=None, max_examples=80)
@given(random_exponent_case(), st.floats(0.0, 1.0))
def test_exponent_matches_bisection_on_random_codes(case, beta):
    code, ch, R = case
    rep = exponent(code, ch, R)
    assert abs(rep.value - reference_exponent(code, ch, R)) <= 1e-12
    assert rep.iterations <= EVAL_BUDGET
    # the closed-form slope of H_c(x_beta) against a central difference of
    # the entropy of the built tilted distribution
    obj = _Objective(probability_array(code, ch), code.k, R)
    h, slope = obj.tilted_entropy(beta)
    assert h == pytest.approx(obj.h_cond(obj.tilted(beta)[0]), abs=1e-12)
    step = 1e-5
    central = (obj.h_cond(obj.tilted(beta + step)[0])
               - obj.h_cond(obj.tilted(beta - step)[0])) / (2 * step)
    assert slope >= 0.0
    assert slope == pytest.approx(central, rel=1e-5, abs=1e-9)

