import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcap import (
    GuardError,
    PauliChannel,
    StabilizerCode,
    catalog,
    coherent_bound,
    depolarizing,
    direct_sum,
    probability_array,
    symplectic_form,
)
from qcap import _util, spectra
from qcap.channels import shannon_entropy
from qcap.gf import index_to_digits
from qcap.spectra import bound_from_array
from qcap.symplectic import sample_self_orthogonal

from oracles import completion_syndrome, product_prob, pushforward, random_completion


def brute_force_array(code, channel):
    """Independent oracle: bin every error vector by direct pairings."""
    d, n, k = code.d, code.n, code.k
    nk = n - k
    g = code.completion.g
    h = code.completion.h
    table = np.zeros((d**nk, d ** (2 * k)))
    for x in index_to_digits(np.arange(d ** (2 * n)), d, 2 * n):
        s_digits = [symplectic_form(g[i], x, d) for i in range(nk)]
        col_digits = []
        for m in range(nk, n):
            col_digits += [symplectic_form(x, h[m], d), symplectic_form(g[m], x, d)]
        row = sum(s * d**i for i, s in enumerate(s_digits))
        col = sum(c * d**i for i, c in enumerate(col_digits))
        table[row, col] += product_prob(channel, x)
    return table


def test_rep2_array_matches_hand_enumeration():
    code = catalog("rep2", 2)
    ch = depolarizing(2, 0.13)
    arr = probability_array(code, ch)
    oracle = brute_force_array(code, ch)
    assert arr.table.shape == (2, 4)
    assert np.abs(arr.table - oracle).max() < 1e-15


def test_rep2_ternary_array_matches_hand_enumeration():
    code = catalog("rep2", 3)
    ch = depolarizing(3, 0.21)
    arr = probability_array(code, ch)
    oracle = brute_force_array(code, ch)
    assert np.abs(arr.table - oracle).max() < 1e-15


def test_unencoded_array_is_channel_itself():
    # with no stabilizer the single row holds the letter distribution,
    # relabeled by the completion's coordinate change
    ch = depolarizing(2, 0.3)
    arr = probability_array(catalog("trivial1", 2), ch)
    assert arr.table.shape == (1, 4)
    assert sorted(arr.table[0]) == sorted(ch.matrix.ravel())
    assert shannon_entropy(arr.table, 2) == pytest.approx(shannon_entropy(ch.matrix, 2), abs=1e-14)


def test_noiseless_array_is_point_mass():
    arr = probability_array(catalog("rep3", 2), depolarizing(2, 0.0))
    expect = np.zeros((4, 4))
    expect[0, 0] = 1.0
    assert (arr.table == expect).all()


def test_normalization():
    for name, d, p in (("rep3", 2, 0.1), ("rep2", 3, 0.3), ("five_qubit", 2, 0.05), ("trivial3", 2, 0.4)):
        arr = probability_array(catalog(name, d), depolarizing(d, p))
        assert abs(arr.table.sum() - 1.0) < 1e-12


def test_channel_mass_off_one_within_the_channel_tolerance_still_bounds():
    # PauliChannel admits letter sums within 1e-12 of 1, and the array sums to
    # that sum to the n-th power: 1 + 6.3e-12 on rep7 for letters summing to
    # 1 + 9e-13.  The bound must run and match the normalised channel's.
    for d in (2, 3):
        probs = depolarizing(d, 0.1).matrix.copy()
        probs[0, 0] += 9e-13
        heavy, normal = PauliChannel(d, probs), PauliChannel(d, probs / probs.sum())
        for n in range(2, 8):
            code = catalog(f"rep{n}", d)
            assert coherent_bound(code, heavy).c_n == pytest.approx(
                coherent_bound(code, normal).c_n, abs=1e-11)


def test_syndrome_marginal_matches_direct_binning():
    code = catalog("rep3", 2)
    ch = depolarizing(2, 0.17)
    arr = probability_array(code, ch)
    direct = np.zeros(4)
    for x in index_to_digits(np.arange(2**6), 2, 6):
        s = completion_syndrome(code.completion, x, 2)
        direct[s[0] + 2 * s[1]] += product_prob(ch, x)
    assert np.abs(arr.syndrome_marginal() - direct).max() < 1e-14


def test_completion_invariance_of_conditional_entropy():
    for name, d, p in (("rep3", 2, 0.11), ("rep2", 3, 0.23)):
        base_code = catalog(name, d)
        ch = depolarizing(d, p)
        values = []
        for seed in range(10):
            completion = random_completion(base_code.subspace, seed)
            code = type(base_code)(base_code.subspace, completion)
            values.append(probability_array(code, ch).conditional_entropy(d))
        assert max(values) - min(values) < 1e-12


def test_bound_report_identity_and_fields():
    code = catalog("rep3", 2)
    rep = coherent_bound(code, depolarizing(2, 0.08))
    assert rep.c_n == pytest.approx(code.k - rep.H_cond, abs=1e-12)
    assert rep.per_symbol == pytest.approx(rep.c_n / code.n, abs=1e-15)
    assert rep.H_cond >= 0
    assert rep.H_syndrome <= code.n - code.k + 1e-12


def test_hashing_formula_binary():
    for p in (0.0, 0.05, 0.189, 0.5, 1.0):
        rep = coherent_bound(catalog("trivial1", 2), depolarizing(2, p), base=2)
        h = 0.0 if p in (0.0, 1.0) else -p * math.log2(p) - (1 - p) * math.log2(1 - p)
        assert rep.c_n == pytest.approx(1 - h - p * math.log2(3), abs=1e-12)


def test_noiseless_bound_is_k():
    for name, d in (("rep3", 2), ("rep2", 3), ("trivial2", 3)):
        code = catalog(name, d)
        rep = coherent_bound(code, depolarizing(d, 0.0))
        assert rep.c_n == pytest.approx(code.k, abs=1e-12)


def test_base_conversion():
    code = catalog("rep2", 3)
    ch = depolarizing(3, 0.2)
    b3 = coherent_bound(code, ch, base=3)
    b2 = coherent_bound(code, ch, base=2)
    assert b2.c_n == pytest.approx(b3.c_n * math.log2(3), rel=1e-13)


def test_bound_sweep_order_and_monotone_scan():
    code = catalog("rep3", 2)
    ps = np.linspace(0.0, 0.75, 16)
    reports = [coherent_bound(code, depolarizing(2, p), base=2) for p in ps]
    assert len(reports) == 16
    vals = [r.c_n for r in reports]
    # numerical regression: nonincreasing on [0, (d^2-1)/d^2] for this family
    assert all(vals[i + 1] <= vals[i] + 1e-12 for i in range(15))


def test_direct_sum_array_is_product():
    a = catalog("rep2", 2)
    ch = depolarizing(2, 0.19)
    s = direct_sum(a, a)
    arr_a = probability_array(a, ch)
    arr_s = probability_array(s, ch)
    Ra, Ca = arr_a.rows, arr_a.cols
    for ra in range(Ra):
        for rb in range(Ra):
            for ca in range(Ca):
                for cb in range(Ca):
                    got = arr_s.table[ra + Ra * rb, ca + Ca * cb]
                    want = arr_a.table[ra, ca] * arr_a.table[rb, cb]
                    assert got == pytest.approx(want, abs=1e-14)


@st.composite
def random_code_and_channel(draw):
    """A random isotropic code with d^(2n) <= 4096 and a random Pauli channel
    whose integer weights leave some letters at probability 0."""
    d = draw(st.sampled_from((2, 3, 5)))
    n = draw(st.integers(1, {2: 6, 3: 3, 5: 2}[d]))
    k = draw(st.integers(0, n))
    seed, seed2 = draw(st.integers(0, 2**32 - 1)), draw(st.integers(0, 2**32 - 1))
    subspace = sample_self_orthogonal(d, 2 * n, n - k, seed)
    code = StabilizerCode(subspace, random_completion(subspace, seed2))
    weights = np.array(draw(st.lists(st.integers(0, 4), min_size=d * d, max_size=d * d)
                            .filter(any)), dtype=float)
    return code, PauliChannel(d, weights / weights.sum())


@settings(derandomize=True, deadline=None, max_examples=60)
@given(random_code_and_channel())
def test_pushforward_matches_brute_force_on_random_codes(case):
    code, ch = case
    arr = probability_array(code, ch)
    assert np.abs(arr.table - brute_force_array(code, ch)).max() <= 1e-13


@st.composite
def random_code_and_two_channels(draw):
    """A random code with two channels, the second with at least one letter
    of probability 0."""
    code, first = draw(random_code_and_channel())
    d = code.d
    weights = np.array(draw(st.lists(st.integers(0, 4), min_size=d * d, max_size=d * d)
                            .filter(lambda w: any(w) and not all(w))), dtype=float)
    return code, first, PauliChannel(d, weights / weights.sum())


@settings(derandomize=True, deadline=None, max_examples=60)
@given(random_code_and_two_channels())
def test_kept_site_tables_reproduce_the_one_shot_build(case):
    # the second channel runs on the tables the first call left on the code
    code, first, second = case
    for ch in (first, second):
        assert np.array_equal(probability_array(code, ch).table, pushforward(code, ch))


def test_site_tables_are_built_once_per_code(monkeypatch):
    builds = []
    build = spectra._site_tables
    monkeypatch.setattr(spectra, "_site_tables", lambda code: builds.append(code) or build(code))
    codes = [catalog(name, d) for name, d in (("rep3", 3), ("rep7", 3), ("five_qubit", 2))]
    assert builds == []
    for p in np.linspace(0.0, 0.5, 12):
        probability_array(codes[0], depolarizing(3, p))
    assert builds == [codes[0]]


def test_enumeration_guard(monkeypatch):
    code = catalog("trivial2", 2)  # 16 cells, 768 bytes to build
    monkeypatch.setattr(_util, "MAX_BUILD_BYTES", 512)
    with pytest.raises(GuardError):
        probability_array(code, depolarizing(2, 0.1))


def test_array_build_holds_at_most_the_guarded_bytes_per_cell():
    # the guard counts 8 (d^2 + 2) = 88 bytes per cell at d = 3: the array,
    # its gather and the next array, with room for the site tables
    code = catalog("rep10", 3)
    tracemalloc.start()
    try:
        probability_array(code, depolarizing(3, 0.1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / 3 ** 11 <= 110


def test_bound_from_array_base_default_is_d():
    arr = probability_array(catalog("rep2", 3), depolarizing(3, 0.2))
    rep = bound_from_array(arr)
    assert rep.base == 3.0
