import math

import numpy as np
import pytest

from qcap import PauliChannel, ValidationError, depolarizing, shannon_entropy
from qcap.channels import channel_from_file
from qcap.gf import index_to_digits

from oracles import product_prob


def test_depolarizing_noiseless():
    ch = depolarizing(2, 0.0)
    assert ch.matrix[0, 0] == 1.0
    assert ch.matrix.sum() == 1.0


def test_depolarizing_completely_mixing_point():
    ch = depolarizing(2, 0.75)
    assert np.allclose(ch.matrix, 0.25)


def test_depolarizing_ternary_values():
    ch = depolarizing(3, 0.2552)
    assert ch.matrix[0, 0] == pytest.approx(0.7448, abs=1e-15)
    off = [ch.matrix[u, v] for u in range(3) for v in range(3) if (u, v) != (0, 0)]
    assert np.allclose(off, 0.2552 / 8)


def test_depolarizing_range_check():
    with pytest.raises(ValidationError):
        depolarizing(2, -0.1)
    with pytest.raises(ValidationError):
        depolarizing(2, 1.1)


def test_channel_validation():
    with pytest.raises(ValidationError):
        PauliChannel(2, [0.5, 0.5, 0.1, 0.0])  # does not sum to 1
    with pytest.raises(ValidationError):
        PauliChannel(2, [1.2, -0.2, 0.0, 0.0])


def test_channel_rejects_non_finite_probabilities():
    for bad in (np.nan, np.inf):
        with pytest.raises(ValidationError):
            PauliChannel(2, [bad, 0.0, 0.0, 0.0])


def test_product_prob_single_letter():
    ch = depolarizing(3, 0.3)
    for u in range(3):
        for v in range(3):
            x = np.array([u, v])
            assert product_prob(ch, x) == ch.matrix[u, v]


def test_product_prob_zero_vector():
    ch = depolarizing(2, 0.2)
    for n in (1, 3, 5):
        x = np.zeros(2 * n, dtype=np.int64)
        assert product_prob(ch, x) == pytest.approx(0.8**n, rel=1e-14)


def test_product_prob_sums_to_one():
    for d, n in ((2, 1), (2, 2), (2, 3), (2, 4), (3, 2)):
        ch = depolarizing(d, 0.37)
        vectors = index_to_digits(np.arange(d ** (2 * n)), d, 2 * n)
        total = math.fsum(product_prob(ch, x) for x in vectors)
        assert total == pytest.approx(1.0, abs=1e-12)


def test_shannon_entropy_examples():
    assert shannon_entropy([1.0, 0.0, 0.0], 2) == 0.0
    assert shannon_entropy([0.25] * 4, 4) == pytest.approx(1.0, abs=1e-15)
    p = 0.25
    h = -p * math.log2(p) - (1 - p) * math.log2(1 - p)
    expect = h + p * math.log2(3)
    assert shannon_entropy(depolarizing(2, p).matrix, 2) == pytest.approx(expect, abs=1e-14)


def test_entropy_bounds_and_concavity_spot():
    rng = np.random.default_rng(0)
    for _ in range(200):
        m = int(rng.integers(2, 9))
        p = rng.dirichlet(np.ones(m))
        q = rng.dirichlet(np.ones(m))
        hp = shannon_entropy(p, m)
        assert -1e-12 <= hp <= 1.0 + 1e-12
        lam = rng.random()
        mix = lam * p + (1 - lam) * q
        assert shannon_entropy(mix, m) >= lam * hp + (1 - lam) * shannon_entropy(q, m) - 1e-12


def test_base_conversion_constant():
    ch = depolarizing(3, 0.4)
    assert shannon_entropy(ch.matrix, 2) == pytest.approx(
        shannon_entropy(ch.matrix, 3) * math.log2(3), rel=1e-14)


def test_channel_file_round_trip(tmp_path):
    path = tmp_path / "chan.txt"
    ch = depolarizing(3, 0.6)
    lines = [f"{u} {v} {ch.matrix[u, v]:.17g}" for u in range(3) for v in range(3)]
    path.write_text("\n".join(lines) + "\n")
    back = channel_from_file(path, 3)
    assert back.d == 3
    assert np.allclose(back.matrix, ch.matrix, atol=1e-16)


def test_channel_file_rejects_garbage(tmp_path):
    path = tmp_path / "bad.txt"
    # a short line, then letters outside F_3
    for text in ("0 0\n", "0 0 0.9\n3 0 0.1\n", "0 0 0.9\n0 -1 0.1\n"):
        path.write_text(text)
        with pytest.raises(ValidationError):
            channel_from_file(path, 3)


def test_channel_file_rejects_repeated_letter(tmp_path):
    path = tmp_path / "twice.txt"
    path.write_text("0 0 0.5\n0 0 1.0\n")  # the second line would overwrite the first
    with pytest.raises(ValidationError):
        channel_from_file(path, 2)


def test_channel_file_omitted_letters_are_zero(tmp_path):
    # a d=3 channel whose support avoids the digit 2 still reads as d=3
    path = tmp_path / "chan.txt"
    path.write_text("# bit flips only\n0 0 0.9\n1 0 0.1\n")
    ch = channel_from_file(path, 3)
    assert ch.d == 3
    expect = np.zeros((3, 3))
    expect[0, 0], expect[1, 0] = 0.9, 0.1
    assert (ch.matrix == expect).all()
