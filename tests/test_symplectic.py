import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcap import (
    Subspace,
    ValidationError,
    hyperbolic_complete,
    is_self_orthogonal,
    perp,
    sample_self_orthogonal,
    symplectic_form,
)
from qcap.gf import index_to_digits
from qcap.symplectic import _DualEchelon, _echelon, gram_matrix, symplectic_dual

from oracles import (
    digits_to_index,
    hyperbolic_complete_dense,
    nullspace,
    random_isotropic_dense,
    rref,
    solve_affine_multi,
)

# chi-square(14 dof) upper critical value at significance 0.01
CHI2_99_14 = 29.141237740672796


def random_self_orthogonal(d, n, dim, seed):
    return sample_self_orthogonal(d, 2 * n, dim, seed)


def test_rref_and_nullspace_mod3():
    mat = np.array([[1, 2, 0], [2, 1, 1]])
    ech = _echelon(3, mat)
    red, piv = ech.echelon()
    assert piv == [0, 2]  # second row reduces to (0, 0, 1)
    assert ech.unpack(red, 3).tolist() == [[1, 2, 0], [0, 0, 1]]
    # the nullspace of the dual rows, read off their [dual | I] form
    rows = np.array([[1, 2, 0, 1], [0, 1, 1, 2]])
    ker = _DualEchelon.of(3, rows).perp_basis()
    assert ker.shape == (2, 4)
    assert not (symplectic_dual(rows, 3) @ ker.T % 3).any()


def test_solve_affine():
    # the identity columns of the [dual | I] form solve <g_i, y_j> = delta_ij
    rows = np.array([[1, 2, 0, 1], [0, 1, 1, 2]])
    reps = _DualEchelon.of(3, rows).reps()
    assert (gram_matrix(rows, reps, 3) == np.eye(2, dtype=np.int64)).all()
    with pytest.raises(ValidationError):
        _DualEchelon.of(3, np.array([[1, 2, 0, 1], [2, 1, 0, 2]]))


def test_subspace_rejects_dependent_generators():
    with pytest.raises(ValidationError):
        Subspace(2, 4, [[1, 0, 1, 0], [1, 0, 1, 0]])


def test_subspace_equality_is_span_equality():
    a = Subspace(3, 4, [[1, 0, 2, 0], [0, 1, 0, 1]])
    b = Subspace(3, 4, [[1, 1, 2, 1], [0, 2, 0, 2]])
    assert a == b
    assert hash(a) == hash(b)


def test_is_self_orthogonal_examples():
    assert is_self_orthogonal(Subspace(2, 4, []))
    assert is_self_orthogonal(Subspace(2, 4, [[1, 0, 1, 0]]))
    assert not is_self_orthogonal(Subspace(2, 2, [[1, 0], [0, 1]]))


def test_perp_of_zero_is_everything():
    P = perp(Subspace(3, 4, []))
    assert P.dim == 4


def test_perp_dimension_formula_random():
    rng = np.random.default_rng(3)
    for trial in range(1000):
        d = int(rng.choice([2, 3]))
        n = int(rng.integers(1, 5))
        dim = int(rng.integers(0, n + 1))
        L = random_self_orthogonal(d, n, dim, (3, trial))
        P = perp(L)
        assert P.dim == 2 * n - L.dim
        if dim:
            assert all(P.contains(row) for row in L.basis)  # L self-orthogonal


def test_perp_against_exhaustive_scan():
    for d, n in ((2, 2), (3, 2)):
        L = random_self_orthogonal(d, n, 1, seed=(d, n))
        P = perp(L)
        count = 0
        powers = d ** np.arange(2 * n, dtype=np.int64)
        for idx in range(d ** (2 * n)):
            v = (idx // powers) % d
            orth = all(symplectic_form(row, v, d) == 0 for row in L.basis)
            assert orth == P.contains(v)
            count += orth
        assert count == d**P.dim


def test_hyperbolic_complete_trivial_space():
    B = hyperbolic_complete(Subspace(2, 2, []), 0)
    assert B.n == 1 and B.gram_ok()


def test_hyperbolic_complete_single_generator():
    L = Subspace(2, 4, [[1, 0, 1, 0]])
    B = hyperbolic_complete(L, 5)
    assert B.gram_ok()
    assert (B.g[0] == [1, 0, 1, 0]).all()


def test_hyperbolic_complete_rejects_non_isotropic():
    with pytest.raises(ValidationError):
        hyperbolic_complete(Subspace(2, 2, [[1, 0], [0, 1]]), 0)


def test_hyperbolic_complete_random_gram_exact():
    rng = np.random.default_rng(9)
    for trial in range(300):
        d = int(rng.choice([2, 3]))
        n = int(rng.integers(1, 7))
        dim = int(rng.integers(0, n + 1))
        L = random_self_orthogonal(d, n, dim, (9, trial))
        B = hyperbolic_complete(L, int(rng.integers(0, 1 << 30)))
        assert B.gram_ok()
        if dim:
            assert (B.g[:dim] == L.basis).all()


def test_hyperbolic_complete_deterministic_per_seed():
    L = Subspace(3, 6, [[1, 0, 1, 0, 1, 0]])
    B1 = hyperbolic_complete(L, 42)
    B2 = hyperbolic_complete(L, 42)
    B3 = hyperbolic_complete(L, 43)
    assert (B1.g == B2.g).all() and (B1.h == B2.h).all()
    assert not ((B1.g == B3.g).all() and (B1.h == B3.h).all())


@settings(derandomize=True, deadline=None, max_examples=150)
@given(st.sampled_from((2, 3, 5)), st.integers(1, 8), st.data(), st.integers(0, 2**32 - 1))
def test_completion_and_perp_match_dense_reference(d, n, data, seed):
    # bit for bit: the one grown [dual | I] form reads off the same particular
    # solutions and nullspace bases as the chained dense constraint solves
    L = sample_self_orthogonal(d, 2 * n, data.draw(st.integers(0, n)), seed)
    for rng_seed in (0, 1, seed):
        B = hyperbolic_complete(L, rng_seed)
        g, h = hyperbolic_complete_dense(L, rng_seed)
        assert np.array_equal(B.g, g) and np.array_equal(B.h, h)
    assert np.array_equal(perp(L).basis, nullspace(symplectic_dual(L.basis, d), d, 2 * n))


def test_chi_coordinates_basis_vectors():
    L = Subspace(2, 6, [[1, 0, 1, 0, 0, 0], [1, 0, 0, 0, 1, 0]])
    B = hyperbolic_complete(L, 1)
    unit = np.eye(B.n, dtype=np.int64)
    for j in range(B.n):
        w, z = B.coordinates(B.g[j])
        assert (w == unit[j]).all()
        assert not z.any()
        w, z = B.coordinates(B.h[j])
        assert not w.any()
        assert (z == unit[j]).all()
    with pytest.raises(ValidationError):
        B.coordinates(np.zeros(4, dtype=np.int64))


def test_chi_coordinates_reconstruction_and_linearity():
    rng = np.random.default_rng(21)
    L = Subspace(3, 8, [[1, 0, 1, 0, 0, 0, 0, 0], [1, 0, 0, 0, 1, 0, 0, 0]])
    B = hyperbolic_complete(L, 2)
    d = 3
    for _ in range(2000):
        x = rng.integers(0, d, 8)
        w, z = B.coordinates(x)
        recon = (w @ B.g + z @ B.h) % d
        assert (recon == x % d).all()
        y = rng.integers(0, d, 8)
        wx, zx = B.coordinates(x)
        wy, zy = B.coordinates(y)
        wxy, zxy = B.coordinates((x + y) % d)
        assert ((wx + wy) % d == wxy).all() and ((zx + zy) % d == zxy).all()


def test_chi_coordinates_injective_exhaustive_small():
    L = Subspace(2, 4, [[1, 0, 1, 0]])
    B = hyperbolic_complete(L, 0)
    seen = set()
    for idx in range(16):
        x = np.array([(idx >> j) & 1 for j in range(4)])
        seen.add(tuple(int(c) for pair in zip(*B.coordinates(x)) for c in pair))
    assert len(seen) == 16


def test_syndrome_map_depends_only_on_code_basis():
    # two completions of the same ordered basis give identical syndromes
    L = Subspace(2, 8, [[1, 0, 1, 0, 0, 0, 0, 0], [1, 0, 0, 0, 1, 0, 0, 0]])
    B1 = hyperbolic_complete(L, 10)
    B2 = hyperbolic_complete(L, 77)
    rng = np.random.default_rng(5)
    for _ in range(500):
        x = rng.integers(0, 2, 8)
        assert (B1.syndrome(x, 2) == B2.syndrome(x, 2)).all()


def test_sample_self_orthogonal_basics():
    assert sample_self_orthogonal(2, 6, 0, 1).dim == 0
    for trial in range(50):
        L = sample_self_orthogonal(3, 8, 3, (1, trial))
        assert L.dim == 3
        assert is_self_orthogonal(L)


def test_sample_self_orthogonal_rejects_overlarge_dim():
    with pytest.raises(ValidationError):
        sample_self_orthogonal(2, 4, 3, 0)


def test_sampler_uniform_over_isotropic_lines():
    # all 15 one-dimensional subspaces of F_2^4 are isotropic; chi-square
    # against the uniform distribution at significance 0.01
    counts: dict[bytes, int] = {}
    trials = 30_000
    for s in range(trials):
        L = sample_self_orthogonal(2, 4, 1, (2024, s))
        key = L.canonical.tobytes()
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 15
    expected = trials / 15
    stat = sum((c - expected) ** 2 / expected for c in counts.values())
    assert stat < CHI2_99_14, f"chi-square statistic {stat:.2f}"


def extension_count(L: Subspace) -> int:
    """The number of vectors in perp(L) \\ L, by listing all of F_d^ambient."""
    d, ambient = L.d, L.ambient
    space = index_to_digits(np.arange(d**ambient), d, ambient)
    orthogonal = (gram_matrix(L.basis, space, d) == 0).all(axis=0)
    members = digits_to_index(index_to_digits(np.arange(d**L.dim), d, L.dim) @ L.basis % d, d)
    orthogonal[members] = False
    return int(orthogonal.sum())


def test_sampler_extension_count_identity():
    # the uniformity argument: at dimension m' there are d^(ambient - m') - d^m'
    # extension vectors, whatever the isotropic subspace; checked on every
    # signature with d^ambient <= 4096
    for d in (2, 3, 5):
        for ambient in range(2, 13, 2):
            if d**ambient > 4096:
                break
            for dim in range(ambient // 2 + 1):
                L = sample_self_orthogonal(d, ambient, dim, (d, ambient, dim))
                assert extension_count(L) == d ** (ambient - dim) - d**dim, (d, ambient, dim)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(st.sampled_from((2, 3, 5)), st.integers(0, 8), st.integers(1, 14),
       st.integers(0, 2**32 - 1))
def test_echelon_matches_dense_oracle(d, nrows, ncols, seed):
    rng = np.random.default_rng(seed)
    mat = rng.integers(0, d, (nrows, ncols))
    if nrows and rng.integers(0, 2):  # force a dependent row
        mat[-1] = (mat[0] + mat[rng.integers(0, nrows)]) % d
    ech = _echelon(d, mat)
    rows, pivots = ech.echelon()
    red, want_pivots = rref(mat, d)
    assert pivots == want_pivots and np.array_equal(ech.unpack(rows, ncols), red)
    # perp and the representatives read off the [dual | I] form of mat's
    # independent rows, widened to an even ambient dimension
    ambient = 2 * (1 + ncols // 2)
    rows = np.zeros((0, ambient), dtype=np.int64)
    for row in np.hstack([mat, rng.integers(0, d, (nrows, ambient - ncols))]):
        if rref(np.vstack([rows, row]), d)[0].shape[0] > len(rows):
            rows = np.vstack([rows, row])
    grown = _DualEchelon.of(d, rows)
    dual = symplectic_dual(rows, d)
    assert np.array_equal(grown.perp_basis(), nullspace(dual, d, ambient))
    if len(rows):
        assert np.array_equal(grown.reps(),
                              solve_affine_multi(dual, np.eye(len(rows), dtype=np.int64), d))
    # the incremental sampler draws the same coefficients as the dense one
    dim = int(rng.integers(0, ambient // 2 + 1))
    basis = sample_self_orthogonal(d, ambient, dim, seed).basis
    dense = random_isotropic_dense(d, ambient, dim, np.random.default_rng(seed))
    assert np.array_equal(basis, dense)
    L = Subspace(d, ambient, basis)
    assert np.array_equal(L.canonical, rref(basis, d)[0])
    members = (rng.integers(0, d, (5, dim)) @ basis) % d
    for v in rng.integers(0, d, (20, ambient)).tolist() + basis.tolist() + members.tolist():
        v = np.array(v)
        assert L.contains(v) == (rref(np.vstack([basis, v]), d)[0].shape[0] == dim)


def test_random_isotropic_basis_matches_subspace_contract():
    rows = sample_self_orthogonal(3, 10, 4, 8).basis
    L = Subspace(3, 10, rows)
    assert L.dim == 4 and is_self_orthogonal(L)


def test_gram_matrix_orientation():
    # <e1, e2> = 1 and <e2, e1> = -1 in the interleaved layout
    e1 = np.array([1, 0])
    e2 = np.array([0, 1])
    assert gram_matrix(e1, e2, 3)[0, 0] == 1
    assert gram_matrix(e2, e1, 3)[0, 0] == 2
