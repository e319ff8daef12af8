import math
from unittest.mock import patch

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
    coherent_bound,
    depolarizing,
    sample_self_orthogonal,
)
from qcap import qoracle
from qcap.symplectic import symplectic_form
from qcap.qoracle import (
    _channel_states,
    code_projector,
    oracle_report,
    von_neumann_entropy,
    weyl_string,
)

from oracles import random_completion


def test_weyl_qubit_matrices():
    X = weyl_string(2, (1, 0))
    Z = weyl_string(2, (0, 1))
    assert np.allclose(X, [[0, 1], [1, 0]])
    assert np.allclose(Z, [[1, 0], [0, -1]])
    for d in (2, 3, 5):
        for u in range(d):
            for v in range(d):
                op = weyl_string(d, (u, v))
                assert np.allclose(op @ op.conj().T, np.eye(d), atol=1e-12)


def test_weyl_commutation_relation():
    for d in (2, 3, 5):
        X = weyl_string(d, (1, 0))
        Z = weyl_string(d, (0, 1))
        omega = np.exp(2j * np.pi / d)
        assert np.allclose(X @ Z, omega * (Z @ X), atol=1e-12)


def test_weyl_products_close_up_to_phase():
    rng = np.random.default_rng(2)
    for d in (2, 3):
        for _ in range(50):
            n = int(rng.integers(1, 3))
            x = rng.integers(0, d, 2 * n)
            y = rng.integers(0, d, 2 * n)
            nx = weyl_string(d, x)
            ny = weyl_string(d, y)
            nxy = weyl_string(d, (x + y) % d)
            prod = nx @ ny
            # find the phase from the largest entry of the target
            idx = np.unravel_index(np.abs(nxy).argmax(), nxy.shape)
            phase = prod[idx] / nxy[idx]
            assert abs(abs(phase) - 1.0) < 1e-12
            assert np.allclose(prod, phase * nxy, atol=1e-12)


def test_weyl_commutation_exponent_matches_form():
    rng = np.random.default_rng(6)
    for d in (2, 3):
        omega = np.exp(2j * np.pi / d)
        for _ in range(40):
            n = int(rng.integers(1, 3))
            x = rng.integers(0, d, 2 * n)
            y = rng.integers(0, d, 2 * n)
            nx = weyl_string(d, x)
            ny = weyl_string(d, y)
            expo = symplectic_form(x, y, d)
            assert np.allclose(nx @ ny, omega**expo * (ny @ nx), atol=1e-11)


def test_generator_powers_are_unimodular_scalars():
    # N_g^d = lambda I with |lambda| = 1, so every d-th root of lambda the
    # projector could use has modulus 1
    for name, d in (("five_qubit", 2), ("rep3", 3)):
        code = catalog(name, d)
        for row in code.generators:
            power = np.linalg.matrix_power(weyl_string(d, row), d)
            lam = power[0, 0]
            assert np.allclose(power, lam * np.eye(d**code.n), atol=1e-10)
            assert abs(abs(lam) - 1.0) < 1e-12


def test_projector_trivial_code_is_identity():
    for d, n in ((2, 2), (3, 1)):
        proj = code_projector(catalog(f"trivial{n}", d))
        assert np.allclose(proj, np.eye(d**n))


def test_projector_rep2_rank_and_structure():
    code = catalog("rep2", 2)
    P = code_projector(code)
    assert abs(P.trace().real - 2) < 1e-12
    assert np.allclose(P, P @ P, atol=1e-12)
    assert np.allclose(P, P.conj().T, atol=1e-12)
    # eigendecomposition cross-check: the range is the +1 eigenspace of X(x)X,
    # +1 being the principal root of (X(x)X)^2 = I
    op = weyl_string(2, code.generators[0])
    evals, evecs = np.linalg.eigh(op)
    span = evecs[:, np.isclose(evals, 1.0)]
    assert np.allclose(P, span @ span.conj().T, atol=1e-10)


def test_projector_rank_is_dk_for_catalog_codes():
    for name, d in (("rep2", 2), ("rep3", 2), ("rep4", 2),
                    ("five_qubit", 2), ("trivial2", 3), ("rep2", 3)):
        code = catalog(name, d)
        if d**code.n > 64:
            continue
        P = code_projector(code)
        assert abs(P.trace().real - d**code.k) < 1e-9
        assert np.allclose(P, P @ P, atol=1e-10)
        assert np.allclose(P, P.conj().T, atol=1e-12)


def _shifted_eigenspaces(code):
    """N_h^t Pi N_h^-t for t = 0..d-1, with h the partner of the first
    generator: the joint eigenspaces that the other roots of N_g^d select."""
    P = code_projector(code)
    nh = weyl_string(code.d, code.completion.h[0])
    out = [P]
    for _ in range(code.d - 1):
        out.append(nh @ out[-1] @ nh.conj().T)
    return out


def test_projector_alternative_root_combination():
    for name, d in (("rep2", 2), ("rep2", 3)):
        code = catalog(name, d)
        spaces = _shifted_eigenspaces(code)
        for P in spaces[1:]:
            assert abs(P.trace().real - d**code.k) < 1e-12
            assert np.allclose(P, P @ P, atol=1e-12)
        assert np.allclose(sum(spaces), np.eye(d**code.n), atol=1e-12)


def test_mu_independence_of_coherent_info():
    # the value from the default projector equals the one from each shifted
    # eigenspace (the code spaces are isometric under the h operators)
    for name, d, p in (("rep2", 2, 0.15), ("rep2", 3, 0.2)):
        code = catalog(name, d)
        ch = depolarizing(d, p)
        base = oracle_report(code, ch, 2).coherent_info
        for P in _shifted_eigenspaces(code)[1:]:
            out, joint = _channel_states(P, ch, code.n)
            s_out = von_neumann_entropy(out, 2)
            s_joint = von_neumann_entropy(joint, 2)
            assert (s_out - s_joint) == pytest.approx(base, abs=1e-10)


def test_errors_in_same_stabilizer_coset_act_identically():
    code = catalog("rep2", 2)
    P = code_projector(code)
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = rng.integers(0, 2, 4)
        g = code.generators[rng.integers(0, code.generators.shape[0])]
        nx = weyl_string(2, x)
        nxg = weyl_string(2, (x + g) % 2)
        a = nx @ P @ nx.conj().T
        b = nxg @ P @ nxg.conj().T
        assert np.allclose(a, b, atol=1e-12)


def test_channel_application_preserves_trace():
    code = catalog("rep3", 2)
    out, joint = _channel_states(code_projector(code), depolarizing(2, 0.3), 3)
    assert abs(np.trace(out).real - 1.0) < 1e-12
    assert abs(np.trace(joint).real - 1.0) < 1e-12


def test_von_neumann_entropy_validation():
    with pytest.raises(ValidationError):
        von_neumann_entropy(np.diag([0.7, 0.7]), 2)  # trace 1.4
    with pytest.raises(ValidationError):
        von_neumann_entropy(np.diag([1.5, -0.5]), 2)  # not PSD


def test_coherent_info_noiseless_is_k():
    for name, d in (("rep3", 2), ("rep2", 3)):
        code = catalog(name, d)
        rep = oracle_report(code, depolarizing(d, 0.0))
        assert rep.coherent_info == pytest.approx(code.k, abs=1e-10)


def test_coherent_info_hashing_formula():
    for p in (0.05, 0.2, 0.6):
        val = oracle_report(catalog("trivial1", 2), depolarizing(2, p), base=2).coherent_info
        h = -p * math.log2(p) - (1 - p) * math.log2(1 - p)
        assert val == pytest.approx(1 - h - p * math.log2(3), abs=1e-12)


def test_coherent_info_matches_array_bound():
    code = catalog("rep3", 2)
    ch = depolarizing(2, 0.1)
    direct = oracle_report(code, ch).coherent_info
    assert direct == pytest.approx(coherent_bound(code, ch).c_n, abs=1e-9)


@st.composite
def random_oracle_case(draw):
    """A random isotropic code with d^(n+k) <= 64 and a random Pauli channel
    whose identity letter is heavier and whose other letters may be 0."""
    d = draw(st.sampled_from((2, 3, 5)))
    most = {2: 6, 3: 3, 5: 2}[d]  # the largest n + k with d^(n+k) <= 64
    n = draw(st.integers(1, most))
    k = draw(st.integers(0, min(n, most - n)))
    seed, seed2 = draw(st.integers(0, 2**32 - 1)), draw(st.integers(0, 2**32 - 1))
    subspace = sample_self_orthogonal(d, 2 * n, n - k, seed)
    code = StabilizerCode(subspace, random_completion(subspace, seed2))
    weights = np.array([draw(st.integers(4, 12))]
                       + draw(st.lists(st.integers(0, 3), min_size=d * d - 1,
                                       max_size=d * d - 1)), dtype=float)
    return code, PauliChannel(d, weights / weights.sum())


@settings(derandomize=True, deadline=None, max_examples=60)
@given(random_oracle_case())
def test_oracle_matches_array_on_random_codes(case):
    # a sign or (u, v) swap in the oracle's Weyl strings or letter order
    # changes these values on a non-depolarizing channel
    code, ch = case
    assert code.d ** (code.n + code.k) <= 64
    rep = oracle_report(code, ch)
    cb = coherent_bound(code, ch)
    assert abs(rep.coherent_info - cb.c_n) <= 1e-9
    assert abs(rep.entropy_output - (cb.H_syndrome + code.k)) <= 1e-9
    assert abs(rep.entropy_joint - (cb.H_syndrome + cb.H_cond)) <= 1e-9


def test_dimension_guard():
    with patch.object(qoracle, "_DIM_CAP", 16):
        with pytest.raises(GuardError):
            oracle_report(catalog("rep5", 2), depolarizing(2, 0.1))
        with pytest.raises(GuardError):
            code_projector(catalog("rep5", 2))
