import numpy as np
import pytest

from qcap import PauliChannel, Subspace, ValidationError, catalog, depolarizing, symplectic_form
from qcap.gf import _check_modulus, digits_to_index, index_to_digits, is_prime


def test_is_prime():
    assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]


def test_rejects_composite_modulus():
    with pytest.raises(ValidationError):
        Subspace(4, 2, [[1, 0]])
    with pytest.raises(ValidationError):
        PauliChannel(6, np.full(36, 1 / 36))
    with pytest.raises(ValidationError):
        catalog("rep3", 1)
    # a non-integer modulus is refused, never truncated to a prime
    for make in (lambda: Subspace(2.5, 4, []), lambda: depolarizing(3.9, 0.1),
                 lambda: catalog("rep3", 2.9), lambda: _check_modulus(True)):
        with pytest.raises(ValidationError, match="prime"):
            make()
    assert type(_check_modulus(np.int64(3))) is int


def test_modulus_cap():
    assert _check_modulus(1048573) == 1048573  # the largest prime below 2^20
    with pytest.raises(ValidationError):
        _check_modulus(1000000000000000003)


def test_symplectic_form_examples():
    assert symplectic_form(np.array([1, 0]), np.array([0, 1]), 2) == 1
    # direct evaluation over F_3: (1*1 - 2*2) + (0*1 - 1*1) = -4 = 2 mod 3
    x = np.array([1, 2, 0, 1])
    y = np.array([2, 1, 1, 1])
    value = symplectic_form(x, y, 3)
    assert value == 2 and type(value) is int


def test_symplectic_form_requires_even_length():
    with pytest.raises(ValidationError):
        symplectic_form(np.array([1]), np.array([1]), 2)


def test_symplectic_form_rejects_unequal_lengths():
    with pytest.raises(ValidationError):
        symplectic_form(np.array([1, 0]), np.array([1, 0, 0, 0]), 2)
    with pytest.raises(ValidationError):
        symplectic_form(np.zeros((2, 2), dtype=np.int64), np.zeros((2, 2), dtype=np.int64), 2)


def test_symplectic_form_is_alternating_and_antisymmetric():
    rng = np.random.default_rng(11)
    for d in (2, 3, 5):
        for _ in range(200):
            n = rng.integers(1, 4)
            x = rng.integers(0, d, 2 * n)
            y = rng.integers(0, d, 2 * n)
            assert symplectic_form(x, x, d) == 0
            assert (symplectic_form(x, y, d) + symplectic_form(y, x, d)) % d == 0


def test_symplectic_form_bilinear():
    rng = np.random.default_rng(7)
    for d in (2, 3, 5):
        for _ in range(200):
            n = rng.integers(1, 4)
            a, b = int(rng.integers(0, d)), int(rng.integers(0, d))
            x = rng.integers(0, d, 2 * n)
            y = rng.integers(0, d, 2 * n)
            z = rng.integers(0, d, 2 * n)
            lhs = symplectic_form((a * x + b * y) % d, z, d)
            rhs = (a * symplectic_form(x, z, d) + b * symplectic_form(y, z, d)) % d
            assert lhs == rhs


def test_symplectic_form_nondegenerate_small():
    for d in (2, 3):
        for n in (1, 2):
            vectors = index_to_digits(np.arange(d ** (2 * n)), d, 2 * n)
            for x in vectors[1:]:
                assert any(symplectic_form(x, y, d) != 0 for y in vectors)


def test_index_to_digits_enumerates_in_index_order():
    got = index_to_digits(np.arange(4), 2, 2).tolist()
    assert got == [[0, 0], [1, 0], [0, 1], [1, 1]]
    assert index_to_digits(np.arange(3), 3, 1).shape == (3, 1)
    seen = {tuple(v) for v in index_to_digits(np.arange(3**4), 3, 4).tolist()}
    assert len(seen) == 3**4


def test_index_digit_round_trip():
    idx = np.arange(3**5)
    digits = index_to_digits(idx, 3, 5)
    assert (digits_to_index(digits, 3) == idx).all()
    assert (digits[4] == [1, 1, 0, 0, 0]).all()
    # over the last axis of any shape, in the digits' own type
    small = digits_to_index(digits.reshape(3, 81, 5).astype(np.uint8), 3)
    assert small.dtype == np.uint8 and (small == idx.reshape(3, 81)).all()


def test_pairs_layout():
    # coordinates (2i, 2i+1) are the (u_i, v_i) pair of site i: the form
    # pairs u_i only with v_i
    e = np.eye(4, dtype=np.int64)
    gram = [[symplectic_form(e[a], e[b], 2) for b in range(4)] for a in range(4)]
    assert gram == [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
    with pytest.raises(ValidationError):
        symplectic_form(np.array([1, 0, 1]), np.array([1, 0, 1]), 2)
