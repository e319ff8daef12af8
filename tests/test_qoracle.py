import math

import numpy as np
import pytest

from qcap import GuardError, ValidationError, catalog, coherent_bound, depolarizing
from qcap.gf import symplectic_form
from qcap.qoracle import (
    EigenvalueList,
    apply_pauli_channel,
    code_projector,
    coherent_info_direct,
    oracle_report,
    stabilizer_eigenvalues,
    von_neumann_entropy,
    weyl_operator,
    weyl_string,
)


def test_weyl_qubit_matrices():
    X = weyl_operator(2, (1, 0)).matrix
    Z = weyl_operator(2, (0, 1)).matrix
    assert np.allclose(X, [[0, 1], [1, 0]])
    assert np.allclose(Z, [[1, 0], [0, -1]])
    assert weyl_operator(2, (0, 0)).is_unitary()


def test_weyl_commutation_relation():
    for d in (2, 3, 5):
        X = weyl_operator(d, (1, 0)).matrix
        Z = weyl_operator(d, (0, 1)).matrix
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


def test_projector_trivial_code_is_identity():
    for d, n in ((2, 2), (3, 1)):
        proj, mu = code_projector(catalog(f"trivial{n}", d))
        assert np.allclose(proj.matrix, np.eye(d**n))
        assert mu.values == ()


def test_projector_rep2_rank_and_structure():
    code = catalog("rep2", 2)
    proj, mu = code_projector(code)
    P = proj.matrix
    assert abs(P.trace().real - 2) < 1e-12
    assert np.allclose(P, P @ P, atol=1e-12)
    assert np.allclose(P, P.conj().T, atol=1e-12)
    # eigendecomposition cross-check: the range is the mu-eigenspace of X(x)X
    op = weyl_string(2, code.generators[0])
    evals, evecs = np.linalg.eigh(op @ np.eye(4))
    keep = np.isclose(evals, complex(mu.values[0]).real)
    span = evecs[:, keep]
    assert np.allclose(P, span @ span.conj().T, atol=1e-10)


def test_projector_rank_is_dk_for_catalog_codes():
    for name, d in (("rep2", 2), ("rep3", 2), ("rep4", 2),
                    ("five_qubit", 2), ("trivial2", 3), ("rep2", 3)):
        code = catalog(name, d)
        if d**code.n > 64:
            continue
        proj, _ = code_projector(code)
        assert abs(proj.matrix.trace().real - d**code.k) < 1e-9


def test_projector_rejects_bad_eigenvalues():
    code = catalog("rep2", 2)
    with pytest.raises(ValidationError):
        code_projector(code, EigenvalueList((1j,)))  # not a root of lambda = 1


def test_projector_alternative_root_combination():
    code = catalog("rep2", 2)
    p_plus, _ = code_projector(code, EigenvalueList((1.0,)))
    p_minus, _ = code_projector(code, EigenvalueList((-1.0,)))
    assert abs(p_minus.matrix.trace().real - 2) < 1e-12
    assert np.allclose(p_plus.matrix + p_minus.matrix, np.eye(4), atol=1e-12)


def test_mu_independence_of_coherent_info():
    # value computed from the default projector equals the one from the
    # shifted eigenspace (the code spaces are isometric under the h operators)
    code = catalog("rep2", 2)
    ch = depolarizing(2, 0.15)
    base = oracle_report(code, ch, 2).coherent_info

    from qcap.codes import StabilizerCode
    from qcap import qoracle

    proj, _ = code_projector(code, EigenvalueList((-1.0,)))
    k_dim = 2
    rho = proj.matrix / k_dim
    out = apply_pauli_channel(rho, ch, code.n)
    s_out = von_neumann_entropy(out, 2)
    psi = qoracle._purification(proj.matrix, k_dim)
    joint = np.zeros((8, 8), dtype=np.complex128)
    flat = ch.flat()
    for c1 in range(4):
        for c2 in range(4):
            p = flat[c1] * flat[c2]
            op = np.kron(qoracle._weyl_matrix(2, c1 % 2, c1 // 2),
                         qoracle._weyl_matrix(2, c2 % 2, c2 // 2))
            vec = np.kron(np.eye(2), op) @ psi
            joint += p * np.outer(vec, vec.conj())
    s_joint = von_neumann_entropy(joint, 2)
    assert (s_out - s_joint) == pytest.approx(base, abs=1e-10)


def test_errors_in_same_stabilizer_coset_act_identically():
    code = catalog("rep2", 2)
    proj, _ = code_projector(code)
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = rng.integers(0, 2, 4)
        g = code.generators[rng.integers(0, code.generators.shape[0])]
        nx = weyl_string(2, x)
        nxg = weyl_string(2, (x + g) % 2)
        a = nx @ proj.matrix @ nx.conj().T
        b = nxg @ proj.matrix @ nxg.conj().T
        assert np.allclose(a, b, atol=1e-12)


def test_channel_application_preserves_trace():
    code = catalog("rep3", 2)
    proj, _ = code_projector(code)
    rho = proj.matrix / 2
    out = apply_pauli_channel(rho, depolarizing(2, 0.3), 3)
    assert abs(np.trace(out).real - 1.0) < 1e-12


def test_von_neumann_entropy_validation():
    with pytest.raises(ValidationError):
        von_neumann_entropy(np.diag([0.7, 0.7]), 2)  # trace 1.4
    with pytest.raises(ValidationError):
        von_neumann_entropy(np.diag([1.5, -0.5]), 2)  # not PSD


def test_coherent_info_noiseless_is_k():
    for name, d in (("rep3", 2), ("rep2", 3)):
        code = catalog(name, d)
        assert coherent_info_direct(code, depolarizing(d, 0.0)) == pytest.approx(code.k, abs=1e-10)


def test_coherent_info_hashing_formula():
    for p in (0.05, 0.2, 0.6):
        val = coherent_info_direct(catalog("trivial1", 2), depolarizing(2, p), base=2)
        h = -p * math.log2(p) - (1 - p) * math.log2(1 - p)
        assert val == pytest.approx(1 - h - p * math.log2(3), abs=1e-12)


def test_coherent_info_matches_array_bound():
    code = catalog("rep3", 2)
    ch = depolarizing(2, 0.1)
    direct = coherent_info_direct(code, ch)
    assert direct == pytest.approx(coherent_bound(code, ch).c_n, abs=1e-9)


def test_dimension_guard():
    with pytest.raises(GuardError):
        oracle_report(catalog("rep5", 2), depolarizing(2, 0.1), cap=16)


def test_stabilizer_eigenvalues_are_roots():
    code = catalog("five_qubit", 2)
    mus = stabilizer_eigenvalues(code)
    assert len(mus.values) == 4
    for mu in mus.values:
        assert abs(abs(mu) - 1.0) < 1e-12
