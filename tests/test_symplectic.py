import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcap import (
    StabilizerCode,
    Subspace,
    ValidationError,
    hyperbolic_complete,
    is_self_orthogonal,
    perp,
    sample_self_orthogonal,
    symplectic_form,
)
from qcap.gf import digits_to_index, index_to_digits
from qcap.symplectic import _DualEchelon, gram_matrix, symplectic_dual

from oracles import (
    completion_syndrome,
    hyperbolic_complete_dense,
    nullspace,
    random_completion,
    random_isotropic_dense,
    rref,
    solve_affine_multi,
)

# chi-square(14 dof) upper critical value at significance 0.01
CHI2_99_14 = 29.141237740672796


def random_self_orthogonal(d, n, dim, seed):
    return sample_self_orthogonal(d, 2 * n, dim, seed)


def test_rref_and_nullspace_mod3():
    # the nullspace of the dual rows, read off their [dual | I] form
    rows = np.array([[1, 2, 0, 1], [0, 1, 1, 2]])
    ker = _DualEchelon.of(3, rows).perp[0]
    assert ker.shape == (2, 4)
    assert not (symplectic_dual(rows, 3) @ ker.T % 3).any()


def test_solve_affine():
    # the identity columns of the [dual | I] form solve <g_i, y_j> = delta_ij
    rows = np.array([[1, 2, 0, 1], [0, 1, 1, 2]])
    reps = _DualEchelon.of(3, rows).reps()[0]
    assert (gram_matrix(rows, reps, 3) == np.eye(2, dtype=np.int64)).all()
    with pytest.raises(ValidationError):
        _DualEchelon.of(3, np.array([[1, 2, 0, 1], [2, 1, 0, 2]]))


def test_subspace_rejects_dependent_generators():
    with pytest.raises(ValidationError):
        Subspace(2, 4, [[1, 0, 1, 0], [1, 0, 1, 0]])
    # rows of the wrong length are refused, never reshaped into other rows
    for bad in ([[1, 0], [0, 1]], [1, 0, 0], [1, 0, 0, 1], np.zeros((0, 2))):
        with pytest.raises(ValidationError, match="length 4"):
            Subspace(2, 4, bad)
    with pytest.raises(ValidationError, match="length 4"):
        StabilizerCode(Subspace(2, 4, [[1, 0], [0, 1]]))
    with pytest.raises(ValidationError, match="at least 2"):
        Subspace(3, 0, [])
    # ragged rows and non-integer entries are refused, never coerced
    with pytest.raises(ValidationError, match="length 4"):
        Subspace(2, 4, [[1, 0, 0, 0], [1]])
    with pytest.raises(ValidationError, match="integers"):
        Subspace(2, 4, [[0.5, 0, 0, 0]])
    assert Subspace(2, 4, [[1, 0, 0, 0]]).dim == 1
    assert Subspace(2, 4, []) == Subspace(2, 4, np.zeros((0, 4)))
    assert Subspace(2, 4, []).dim == 0
    # a non-integer ambient dimension is refused, never truncated
    with pytest.raises(ValidationError, match="integer"):
        Subspace(2, 4.5, [])
    assert Subspace(np.int64(2), np.int64(4), []).ambient == 4


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
        with pytest.raises(ValidationError, match="mismatch"):
            P.contains(np.zeros(2 * n + 1, dtype=np.int64))


def test_hyperbolic_complete_trivial_space():
    B = hyperbolic_complete(Subspace(2, 2, []))
    assert B.n == 1 and B.gram_ok()


def test_hyperbolic_complete_single_generator():
    L = Subspace(2, 4, [[1, 0, 1, 0]])
    B = hyperbolic_complete(L)
    assert B.gram_ok()
    assert (B.g[0] == [1, 0, 1, 0]).all()


def test_hyperbolic_complete_rejects_non_isotropic():
    with pytest.raises(ValidationError):
        hyperbolic_complete(Subspace(2, 2, [[1, 0], [0, 1]]))


def test_hyperbolic_complete_random_gram_exact():
    rng = np.random.default_rng(9)
    for trial in range(300):
        d = int(rng.choice([2, 3]))
        n = int(rng.integers(1, 7))
        dim = int(rng.integers(0, n + 1))
        L = random_self_orthogonal(d, n, dim, (9, trial))
        B = hyperbolic_complete(L)
        assert B.gram_ok()
        if dim:
            assert (B.g[:dim] == L.basis).all()


def test_hyperbolic_complete_is_canonical():
    # the completion depends on the ordered basis alone: the empty subspace
    # gets the standard pairs (X_i, Z_i), and reordering the basis reorders
    # the form the completion is read off
    for d, n in ((2, 1), (3, 3), (5, 2)):
        B = hyperbolic_complete(Subspace(d, 2 * n, []))
        eye = np.eye(2 * n, dtype=np.int64)
        assert np.array_equal(B.g, eye[0::2]) and np.array_equal(B.h, eye[1::2])
    rows = [[1, 0, 1, 0, 1, 0], [0, 2, 0, 0, 0, 1]]
    B1 = hyperbolic_complete(Subspace(3, 6, rows))
    B2 = hyperbolic_complete(Subspace(3, 6, rows))
    assert np.array_equal(B1.g, B2.g) and np.array_equal(B1.h, B2.h)
    B3 = hyperbolic_complete(Subspace(3, 6, rows[::-1]))
    assert np.array_equal(B3.g[:2], B1.g[1::-1]) and B3.gram_ok()
    assert not np.array_equal(B3.h[:2], B1.h[1::-1])
    with pytest.raises(TypeError):
        hyperbolic_complete(Subspace(3, 6, rows), 0)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(st.sampled_from((2, 3, 5)), st.integers(1, 8), st.data(), st.integers(0, 2**32 - 1))
def test_completion_and_perp_match_dense_reference(d, n, data, seed):
    # bit for bit: the one grown [dual | I] form reads off the same particular
    # solutions and nullspace bases as the chained dense constraint solves
    # L continues the sampler's form, and its rebuilt copy the constructor's
    L = sample_self_orthogonal(d, 2 * n, data.draw(st.integers(0, n)), seed)
    g, h = hyperbolic_complete_dense(L)
    for sub in (L, Subspace(d, 2 * n, L.basis)):
        B = hyperbolic_complete(sub)
        assert np.array_equal(B.g, g) and np.array_equal(B.h, h)
    # the randomized completion the other tests use is another valid one
    other = random_completion(L, seed)
    assert other.gram_ok() and np.array_equal(other.g[:L.dim], L.basis)
    assert np.array_equal(perp(L).basis, nullspace(symplectic_dual(L.basis, d), d, 2 * n))


def test_chi_coordinates_basis_vectors():
    L = Subspace(2, 6, [[1, 0, 1, 0, 0, 0], [1, 0, 0, 0, 1, 0]])
    B = hyperbolic_complete(L)
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
    B = hyperbolic_complete(L)
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
    B = hyperbolic_complete(L)
    seen = set()
    for idx in range(16):
        x = np.array([(idx >> j) & 1 for j in range(4)])
        seen.add(tuple(int(c) for pair in zip(*B.coordinates(x)) for c in pair))
    assert len(seen) == 16


def test_syndrome_map_depends_only_on_code_basis():
    # two completions of the same ordered basis give identical syndromes
    L = Subspace(2, 8, [[1, 0, 1, 0, 0, 0, 0, 0], [1, 0, 0, 0, 1, 0, 0, 0]])
    B1 = hyperbolic_complete(L)
    B2 = random_completion(L, 77)
    rng = np.random.default_rng(5)
    for _ in range(500):
        x = rng.integers(0, 2, 8)
        assert (completion_syndrome(B1, x, 2) == completion_syndrome(B2, x, 2)).all()


def test_sample_self_orthogonal_basics():
    assert sample_self_orthogonal(2, 6, 0, 1).dim == 0
    for trial in range(50):
        L = sample_self_orthogonal(3, 8, 3, (1, trial))
        assert L.dim == 3
        assert is_self_orthogonal(L)
        # the perp basis kept from the sampler's form is the one a form
        # grown from the returned generators reads off
        again = Subspace(3, 8, L.basis)
        assert np.array_equal(L.canonical, again.canonical) and hash(L) == hash(again)
        assert not L.basis.flags.writeable


def test_sample_self_orthogonal_rejects_overlarge_dim():
    with pytest.raises(ValidationError):
        sample_self_orthogonal(2, 4, 3, 0)
    # like Subspace(2, 0, []), an empty ambient space is refused
    with pytest.raises(ValidationError):
        sample_self_orthogonal(2, 0, 0, 0)
    # non-integer (or bool) sizes are refused before any numpy call
    for ambient, dim in ((4, 1.5), (4.0, 1), (4, True)):
        with pytest.raises(ValidationError):
            sample_self_orthogonal(2, ambient, dim, 0)
    assert sample_self_orthogonal(np.int64(2), np.int64(4), np.int64(1), 0).dim == 1


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
    # perp and the representatives read off the [dual | I] form of mat's
    # independent rows, widened to an even ambient dimension
    ambient = 2 * (1 + ncols // 2)
    rows = np.zeros((0, ambient), dtype=np.int64)
    for row in np.hstack([mat, rng.integers(0, d, (nrows, ambient - ncols))]):
        if rref(np.vstack([rows, row]), d)[0].shape[0] > len(rows):
            rows = np.vstack([rows, row])
    grown = _DualEchelon.of(d, rows)
    dual = symplectic_dual(rows, d)
    assert np.array_equal(grown.perp[0], nullspace(dual, d, ambient))
    if len(rows):
        assert np.array_equal(grown.reps()[0],
                              solve_affine_multi(dual, np.eye(len(rows), dtype=np.int64), d))
    # the incremental sampler draws the same coefficients as the dense one
    dim = int(rng.integers(0, ambient // 2 + 1))
    basis = sample_self_orthogonal(d, ambient, dim, seed).basis
    [dense] = random_isotropic_dense(d, ambient, dim, np.random.default_rng(seed))
    assert np.array_equal(basis, dense)
    # a Subspace keeps the canonical basis of its perp, so any basis of the
    # same span gives an equal Subspace with an equal hash
    L = Subspace(d, ambient, basis)
    assert np.array_equal(L.canonical, nullspace(symplectic_dual(basis, d), d, ambient))
    change = rng.integers(0, d, (dim, dim))
    while len(rref(change, d)[1]) < dim:
        change = rng.integers(0, d, (dim, dim))
    M = Subspace(d, ambient, change @ basis)
    assert M == L and hash(M) == hash(L)
    with pytest.raises(ValidationError, match="even"):
        Subspace(d, ambient - 1, basis[:, 1:])
    members = (rng.integers(0, d, (5, dim)) @ basis) % d
    for v in rng.integers(0, d, (20, ambient)).tolist() + basis.tolist() + members.tolist():
        v = np.array(v)
        assert L.contains(v) == (rref(np.vstack([basis, v]), d)[0].shape[0] == dim)


@pytest.mark.parametrize("d", (2, 3, 5))
def test_bounded_integer_draws_concatenate(d):
    # the trial-axis sampler draws one block of digits per round of attempts,
    # and a one-trial sampler reads the same digits as one draw per attempt:
    # numpy's bounded integer draws must concatenate, and leave the stream
    # where the separate draws would
    for seed in range(50):
        a, b = 1 + seed % 17, 1 + seed % 5 * 7
        split = np.random.default_rng(seed)
        parts = np.concatenate([split.integers(0, d, a), split.integers(0, d, b)])
        whole = np.random.default_rng(seed)
        assert np.array_equal(parts, whole.integers(0, d, a + b))
        assert np.array_equal(split.integers(0, d, 9), whole.integers(0, d, 9))


class _CountingDraws:
    """A generator that counts the digits drawn through integers()."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.drawn = 0

    def integers(self, low, high, size):
        self.drawn += np.prod(size)
        return self.rng.integers(low, high, size)


@pytest.mark.parametrize("d, ambient, dim, trials",
                         [(2, 2, 1, 300), (2, 8, 4, 100), (3, 6, 3, 60), (5, 4, 2, 60),
                          (3, 10, 0, 5)])
def test_trial_axis_sampler_matches_per_trial_dense_sampler(d, ambient, dim, trials):
    grown = _DualEchelon.sample(d, ambient, dim, np.random.default_rng(7), trials)
    counter = _CountingDraws(np.random.default_rng(7))
    dense = random_isotropic_dense(d, ambient, dim, counter, trials)
    for t, rows in enumerate(dense):
        assert np.array_equal(grown.basis()[t], rows)
        dual = symplectic_dual(rows, d)
        assert np.array_equal(grown.perp[t], nullspace(dual, d, ambient))
        if dim:
            assert np.array_equal(grown.reps()[t],
                                  solve_affine_multi(dual, np.eye(dim, dtype=np.int64), d))
    if (d, ambient, dim) == (2, 2, 1):
        # one (len(todo), ambient) block per round of attempts: the trials
        # that drew the zero vector draw again in the next round
        replay, todo, drawn = np.random.default_rng(7), trials, 0
        while todo:
            block = replay.integers(0, d, (todo, ambient))
            drawn += block.size
            todo = int((~block.any(axis=1)).sum())
        assert counter.drawn == drawn > 2 * trials


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
