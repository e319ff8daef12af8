import numpy as np
import pytest

from qcap import (
    StabilizerCode,
    ValidationError,
    bar_map,
    catalog,
    concatenate,
    depolarizing,
    direct_sum,
    is_self_orthogonal,
    read_code_file,
    sample_self_orthogonal,
    symplectic_form,
    write_code_file,
)
from qcap.codes import vector_from_digit_string
from qcap.spectra import probability_array
from qcap.symplectic import _DualEchelon, hyperbolic_complete

from oracles import random_completion


def test_catalog_rep7_matches_digit_strings():
    code = catalog("rep(7)", 3)
    assert (code.n, code.k) == (7, 1)
    assert code.generators.shape == (6, 14)
    assert code.generators[0].tolist() == [1, 0, 1, 0] + [0] * 10
    strings = ["1100000", "1010000", "1001000", "1000100", "1000010", "1000001"]
    for row, s in zip(code.generators, strings):
        assert (row == vector_from_digit_string(3, s)).all()


@pytest.mark.parametrize("name, d, rows", [("rep7", 3, 14), ("five_qubit", 2, 10),
                                            ("rep3", 2, 6)])
def test_codes_grow_their_rows_once(monkeypatch, name, d, rows):
    # the completion continues the form the subspace was grown on: each of
    # the 2n completion vectors joins one form once
    calls = []
    insert = _DualEchelon.insert
    monkeypatch.setattr(_DualEchelon, "insert",
                        lambda self, *args: calls.append(1) or insert(self, *args))
    code = catalog(name, d)
    assert len(calls) == rows == 2 * code.n
    # completing L leaves L's own form as it was, so a second completion
    # repeats the first
    again = hyperbolic_complete(code.subspace)
    assert np.array_equal(again.g, code.completion.g)
    assert np.array_equal(again.h, code.completion.h)
    assert code.subspace._form.size == code.n - code.k


def test_catalog_trivial():
    code = catalog("trivial(1)", 2)
    assert (code.n, code.k) == (1, 1)
    assert code.subspace.dim == 0


def test_catalog_rep3_self_orthogonal():
    code = catalog("rep3", 2)
    assert code.subspace.dim == 2
    assert is_self_orthogonal(code.subspace)
    assert code.completion.gram_ok()


def test_catalog_five_qubit_and_unknown():
    code = catalog("five_qubit", 2)
    assert (code.n, code.k) == (5, 1)
    assert is_self_orthogonal(code.subspace)
    with pytest.raises(ValidationError):
        catalog("five_qubit", 3)
    with pytest.raises(ValidationError):
        catalog("hexacode", 2)


def test_catalog_completion_deterministic():
    a = catalog("rep4", 2)
    b = catalog("rep4", 2)
    assert (a.completion.g == b.completion.g).all()
    assert (a.completion.h == b.completion.h).all()


def test_codes_compare_by_content_completions_and_arrays_by_identity():
    a, b = catalog("rep3", 2), catalog("rep3", 2)
    assert a == b and hash(a) == hash(b)
    other = StabilizerCode(a.subspace, random_completion(a.subspace, 5))
    assert not np.array_equal(other.completion.h, a.completion.h)
    assert a != other
    # completions and arrays hold ndarrays, so they compare by identity
    assert a.completion != b.completion and a.completion == a.completion
    assert hash(a.completion) == hash(a.completion)
    ch = depolarizing(2, 0.1)
    x, y = probability_array(a, ch), probability_array(b, ch)
    assert x != y and x == x and hash(x) == hash(x)


def test_digit_string_round_trip():
    v = vector_from_digit_string(3, "102")
    assert v.dtype == np.int64 and v.tolist() == [1, 0, 0, 0, 2, 0]
    # digit t of the string is u + d*v of its pair
    assert "".join(str(u + 3 * w) for u, w in zip(v[0::2], v[1::2])) == "102"
    with pytest.raises(ValidationError):
        vector_from_digit_string(2, "5")


def test_code_file_round_trip(tmp_path):
    code = catalog("rep3", 2)
    path = tmp_path / "rep3.code"
    write_code_file(code, path)
    back = read_code_file(path)
    assert back.subspace == code.subspace
    assert (back.d, back.n, back.k) == (2, 3, 1)


def test_code_file_digit_string_form(tmp_path):
    path = tmp_path / "rep7.code"
    path.write_text("3 7 1\n1100000\n1010000\n1001000\n1000100\n1000010\n1000001\n")
    code = read_code_file(path)
    assert code.subspace == catalog("rep7", 3).subspace


def test_code_file_header_errors(tmp_path):
    path = tmp_path / "bad.code"
    path.write_text("2 3\n")
    with pytest.raises(ValidationError):
        read_code_file(path)
    path.write_text("2 3 1\n1 0 1 0 0 0\n")  # one generator missing
    with pytest.raises(ValidationError):
        read_code_file(path)
    # k outside [0, n] is refused at the header, naming k and n
    for text in ("2 2 3\n", "2 2 -1\n1 0 0 0\n0 1 0 0\n1 1 0 0\n"):
        path.write_text(text)
        with pytest.raises(ValidationError, match="k = .* n = 2"):
            read_code_file(path)


@pytest.mark.parametrize("digit", ["3", "-1", "2"])
def test_code_file_rejects_out_of_range_digits(tmp_path, digit):
    # the space-separated form used to read 3 (and -1) as 1 mod 2
    path = tmp_path / "bad.code"
    path.write_text(f"2 3 1\n# a comment\n{digit} 0 1 0 0 0\n0 0 1 0 1 0\n")
    with pytest.raises(ValidationError, match=f"line 3: digit {digit} out of range for d=2"):
        read_code_file(path)


def test_bar_map_zero_and_embedding():
    inner = catalog("rep3", 2)
    assert not bar_map(inner, np.zeros(4, dtype=np.int64)).any()
    # first logical g of block 1, embedded in F_2^12 (two blocks)
    image = bar_map(inner, np.array([1, 0, 0, 0]))
    g_log = inner.logical_pairs()[0][0]
    assert (image[:6] == g_log).all()
    assert not image[6:].any()


def test_bar_map_is_symplectic_isometry():
    rng = np.random.default_rng(17)
    inner = catalog("rep3", 2)
    for _ in range(2000):
        N = int(rng.integers(1, 4))
        x = rng.integers(0, 2, 2 * N)
        y = rng.integers(0, 2, 2 * N)
        assert symplectic_form(bar_map(inner, x), bar_map(inner, y), 2) == symplectic_form(x, y, 2)


def test_bar_map_injective_exhaustive():
    inner = catalog("rep2", 3)
    seen = set()
    for idx in range(3**4):
        coords = np.array([(idx // 3**j) % 3 for j in range(4)])
        seen.add(tuple(bar_map(inner, coords).tolist()))
    assert len(seen) == 3**4


def test_concatenate_trivial_inner_relabels():
    inner = catalog("trivial2", 2)  # n = k = 2
    outer = StabilizerCode(sample_self_orthogonal(2, 8, 2, 4))  # N = 2, K = 2
    cc = concatenate(inner, outer)
    assert cc.n == 4 and cc.k == 2
    assert is_self_orthogonal(cc.subspace)


def test_concatenate_rep5_rep5():
    inner = catalog("rep5", 2)
    outer = catalog("rep5", 2)  # ambient 10 = 2 * k * N with k=1, N=5
    cc = concatenate(inner, outer)
    assert cc.n == 25 and cc.subspace.dim == 24 and cc.k == 1
    assert is_self_orthogonal(cc.subspace)
    assert cc.completion.gram_ok()


def test_concatenate_rep3_random_outer():
    inner = catalog("rep3", 2)
    outer = StabilizerCode(sample_self_orthogonal(2, 8, 2, 11))  # N=4, K=2
    cc = concatenate(inner, outer)
    assert cc.n == 12 and cc.subspace.dim == 10
    assert is_self_orthogonal(cc.subspace)


def test_concatenate_dimension_mismatch():
    inner = catalog("rep3", 2)
    outer = StabilizerCode(sample_self_orthogonal(2, 6, 1, 0))  # ambient 6 is not 2kN... N=3 works
    # ambient 6 = 2*1*3 so this is fine; force a failure with modulus mismatch
    concatenate(inner, outer)
    with pytest.raises(ValidationError):
        concatenate(inner, catalog("rep2", 3))


def test_direct_sum_of_trivials_is_trivial():
    s = direct_sum(catalog("trivial1", 2), catalog("trivial1", 2))
    assert s.subspace == catalog("trivial2", 2).subspace
    assert (s.n, s.k) == (2, 2)


def test_direct_sum_dims_add():
    s = direct_sum(catalog("rep3", 2), catalog("rep3", 2))
    assert (s.n, s.k) == (6, 2)
    assert is_self_orthogonal(s.subspace)
    assert s.completion.gram_ok()
    with pytest.raises(ValidationError):
        direct_sum(catalog("rep2", 2), catalog("rep2", 3))


def test_completion_prefix_is_code_basis():
    for name, d in (("rep3", 2), ("rep2", 3), ("five_qubit", 2)):
        code = catalog(name, d)
        nk = code.n - code.k
        assert (code.completion.g[:nk] == code.generators).all()
