import importlib
import itertools
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcap import (
    ConvergenceError,
    GuardError,
    PauliChannel,
    StabilizerCode,
    Subspace,
    ValidationError,
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
from qcap.spectra import ProbabilityArray, bound_from_array, probability_array

from oracles import (
    arimoto_entropy,
    grid_oracle_dense,
    grid_oracle_tables,
    h_cond,
    kl_divergence,
    objective_value,
    random_completion,
    reference_exponent,
    tilted,
)

# the package re-exports the function exponent() under its submodule's name
exponent_mod = importlib.import_module("qcap.exponent")

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


def test_compositions_refuse_non_integers():
    for total, parts in ((2.5, 2), (3, 2.0), (True, 2)):
        with pytest.raises(ValidationError, match="integers"):
            compositions(total, parts)


def stars_and_bars(total, parts):
    """Every composition from its bar positions, in lexicographic order."""
    if parts == 1:  # no bars; combinations() would hold total slots in a tuple
        return [[total]]
    rows = []
    for bars in itertools.combinations(range(total + parts - 1), parts - 1):
        edges = (-1, *bars, total + parts - 1)
        rows.append([edges[i + 1] - edges[i] - 1 for i in range(parts)])
    return rows


def test_compositions_take_the_narrowest_dtype_at_its_boundaries():
    for total, parts, dtype in ((255, 3, np.uint8), (256, 3, np.uint16),
                                (65535, 2, np.uint16), (65536, 2, np.uint32),
                                (2**32 - 1, 1, np.uint32), (2**32, 1, np.uint64)):
        for p in range(1, parts + 1):
            arr = compositions(total, p)
            assert arr.dtype == dtype, (total, p)
            assert arr.tolist() == stars_and_bars(total, p), (total, p)


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


def test_grid_oracle_reference_value():
    # the value perfbench/reference.json holds for the exponent workload
    code = catalog("trivial1", 2)
    for oracle in (exponent_grid_oracle, grid_oracle_dense):
        val = oracle(code, depolarizing(2, 0.01), 0.0, 100)
        assert val == pytest.approx(0.5514780781660824, rel=1e-12, abs=0.0)


def test_grid_oracle_memory_per_grid_cell():
    # the dense oracle peaked at 43 bytes per (grid point x support cell)
    code, ch, steps = catalog("trivial1", 2), depolarizing(2, 0.01), 200
    cells = math.comb(steps + 3, 3) * 4
    probability_array(code, ch)  # the code's kept site tables are not the oracle's
    tracemalloc.start()
    try:
        exponent_grid_oracle(code, ch, 0.0, steps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * cells, peak / cells


def test_grid_oracle_streams_the_grid_in_bounded_memory():
    # 1.37M grid points x 4 support cells: holding their counts and one float
    # per point peaked at 48.5 MB
    code, ch = catalog("trivial1", 2), depolarizing(2, 0.05)
    probability_array(code, ch)  # the code's kept site tables are not the oracle's
    tracemalloc.start()
    try:
        exponent_grid_oracle(code, ch, 0.25, 200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, peak


def spy_blocks(monkeypatch) -> list:
    """Record the shape (leading entries, table rows) of every block the
    grid oracle evaluates."""
    shapes = []
    real = exponent_mod._GridTerms.block_min

    def spied(self, first, rows, t, div0, *rest):
        shapes.append((div0.size, rows.shape[1]))
        return real(self, first, rows, t, div0, *rest)

    monkeypatch.setattr(exponent_mod._GridTerms, "block_min", spied)
    return shapes


@pytest.mark.parametrize("name, d, p, R, steps, block, blocks", [
    ("trivial1", 2, 0.05, 0.25, 20, None, (1, 1)),  # the whole grid, as one table
    ("rep3", 2, 0.0, 0.25, 1000, None, (1, 1)),  # one support cell: one grid point
    ("rep2", 3, 0.1, 0.2, 4, None, (2, 10)),
    ("five_qubit", 2, 0.05, 0.5, 3, None, (2, 10)),
    ("rep3", 2, 0.05, 0.3, 8, None, (10, 40)),
    ("trivial1", 2, 0.01, 0.0, 100, None, (100, 200)),
    ("rep3", 2, 0.1, 0.1, 6, 64, (500, 2000)),
    ("trivial1", 3, 0.1, 0.1, 9, 16, (1000, 20000)),
])
def test_streamed_grid_oracle_equals_the_whole_grid(monkeypatch, name, d, p, R, steps, block,
                                                    blocks):
    if block is not None:
        monkeypatch.setattr(exponent_mod, "_ORACLE_BLOCK", block)
    shapes = spy_blocks(monkeypatch)
    code, ch = catalog(name, d), depolarizing(d, p)
    assert exponent_grid_oracle(code, ch, R, steps) == grid_oracle_tables(code, ch, R, steps)
    assert blocks[0] <= len(shapes) <= blocks[1]
    assert max(a * b for a, b in shapes) <= exponent_mod._ORACLE_BLOCK
    m = int(np.count_nonzero(probability_array(code, ch).table))
    assert sum(a * b for a, b in shapes) == math.comb(steps + m - 1, m - 1)


def test_streamed_grid_oracle_reference_value():
    code, ch = catalog("trivial1", 2), depolarizing(2, 0.01)
    assert exponent_grid_oracle(code, ch, 0.0, 100) == 0.5514780781660824
    assert grid_oracle_tables(code, ch, 0.0, 100) == 0.5514780781660824


def test_thin_grid_streams_runs_of_its_table(monkeypatch):
    # two support cells: a one-dimensional grid, one point per leading count,
    # so the oracle splits off no cell and cuts its table into runs of rows
    monkeypatch.setattr(exponent_mod, "_ORACLE_BLOCK", 64)
    shapes = spy_blocks(monkeypatch)
    code, ch = catalog("trivial1", 2), PauliChannel(2, [0.9, 0.1, 0.0, 0.0])
    assert exponent_grid_oracle(code, ch, 0.3, 5000) == grid_oracle_tables(code, ch, 0.3, 5000)
    assert shapes == [(1, 64)] * 78 + [(1, 5001 - 78 * 64)]


def draw_code_and_channel(draw, d: int, n: int, k: int):
    """A random isotropic [[n, k]] code over d with a random completion, and
    a random Pauli channel whose integer weights leave some letters at
    probability 0.  The identity letter gets a heavier weight so that many
    draws fall below the exponent's threshold."""
    seed, seed2 = draw(st.integers(0, 2**32 - 1)), draw(st.integers(0, 2**32 - 1))
    subspace = sample_self_orthogonal(d, 2 * n, n - k, seed)
    code = StabilizerCode(subspace, random_completion(subspace, seed2))
    weights = np.array([draw(st.integers(1, 200))]
                       + draw(st.lists(st.integers(0, 4), min_size=d * d - 1,
                                       max_size=d * d - 1)), dtype=float)
    return code, PauliChannel(d, weights / weights.sum())


@st.composite
def random_grid_case(draw):
    """A random code with n - k >= 1 stabilizers, so that its support can
    span several syndrome rows, a random channel, a rate and a grid of at
    most 2 * 10^4 (points x support cells)."""
    d = draw(st.sampled_from((2, 3, 5)))
    n = draw(st.integers(2, {2: 3, 3: 2, 5: 2}[d]))
    code, ch = draw_code_and_channel(draw, d, n, draw(st.integers(1, n - 1)))
    m = int(np.count_nonzero(probability_array(code, ch).table))
    steps = draw(st.integers(1, 12))
    while steps > 1 and math.comb(steps + m - 1, m - 1) * m > 20_000:
        steps -= 1
    return code, ch, draw(st.floats(0.0, 1.0)), steps


@settings(derandomize=True, deadline=None, max_examples=60)
@given(random_grid_case(), st.sampled_from((2**15, 64, 4)))
def test_streamed_grid_oracle_equals_the_whole_grid_on_random_codes(case, block):
    code, ch, R, steps = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exponent_mod, "_ORACLE_BLOCK", block)
        got = exponent_grid_oracle(code, ch, R, steps)
    assert got == grid_oracle_tables(code, ch, R, steps)


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
    obj = _Objective(arr)
    gap = 1 - 0.2  # k = 1, R = 0.2
    rng = np.random.default_rng(4)
    m = obj.p.size
    for _ in range(300):
        a = rng.dirichlet(np.ones(m))
        b = rng.dirichlet(np.ones(m))
        lam = rng.random()
        mix = lam * a + (1 - lam) * b
        assert (objective_value(obj, mix, gap)
                <= lam * objective_value(obj, a, gap) + (1 - lam) * objective_value(obj, b, gap)
                + 1e-12)


def test_objective_row_labels_skip_empty_rows():
    # syndrome rows 0, 2 and 5 hold no mass; row 3 holds some zero cells
    table = np.zeros((8, 4))
    table[1] = [0.1, 0.0, 0.05, 0.05]
    table[3] = [0.0, 0.2, 0.0, 0.1]
    table[4, 2] = 0.25
    table[6:] = 0.03125
    obj = _Objective(ProbabilityArray(2, 4, 1, table))
    rows = np.repeat(np.arange(8), 4)[table.ravel() > 0]
    uniq, inverse = np.unique(rows, return_inverse=True)
    assert np.array_equal(obj.row_of, inverse)
    assert obj.nrows == uniq.size == 5


def count_arrays(monkeypatch) -> list:
    """Patch the exponent module's probability_array to record each build."""
    builds = []

    def counted(code, channel):
        builds.append((code, channel))
        return probability_array(code, channel)

    monkeypatch.setattr(exponent_mod, "probability_array", counted)
    return builds


def test_a_rate_scan_builds_one_array(monkeypatch):
    builds = count_arrays(monkeypatch)
    code, ch = catalog("rep3", 2), depolarizing(2, 0.08)
    reports = [exponent(code, ch, R) for R in np.linspace(0.0, 1.0, 11)]
    assert len(builds) == 1
    assert sum(rep.value > 0.0 for rep in reports) >= 2
    # the grid oracle reads the same objective
    ch = depolarizing(2, 0.05)
    exponent(code, ch, 0.25)
    exponent_grid_oracle(code, ch, 0.25, 4)
    assert len(builds) == 2


def test_kept_objective_gives_the_cold_report(monkeypatch):
    code, ch = catalog("rep3", 2), depolarizing(2, 0.03)
    rates = (0.0, 0.4, 0.6, 1.0)  # maximizer beta = 1, two interior roots, E = 0
    cold = []
    for R in rates:
        monkeypatch.setattr(exponent_mod, "_last", None)
        cold.append(exponent(code, ch, R))
    warm = [exponent(code, ch, R) for R in rates]
    assert warm == cold
    assert [rep.iterations > 2 for rep in cold] == [False, True, True, False]
    # a new object of either kind is built afresh and gives the same report
    builds = count_arrays(monkeypatch)
    pairs = [(code, depolarizing(2, 0.03)), (catalog("rep3", 2), ch)]
    for code2, ch2 in pairs:
        assert [exponent(code2, ch2, R) for R in rates] == cold
    assert len(builds) == 2
    assert all(a is c and b is h for (a, b), (c, h) in zip(builds, pairs))


def test_a_new_pair_frees_the_kept_objective():
    code = catalog("rep3", 2)
    exponent(code, depolarizing(2, 0.05), 0.1)
    first = weakref.ref(exponent_mod._last[2])
    exponent(code, depolarizing(2, 0.06), 0.1)
    assert first() is None


def test_report_fields_are_plain_python_numbers():
    code, ch = catalog("rep3", 2), depolarizing(2, 0.08)
    for R in (0.0, 0.2, 1.0):
        rep = exponent(code, ch, R)
        for field in ("value", "kkt_residual", "rate", "threshold", "critical_rate"):
            assert type(getattr(rep, field)) is float, (R, field)
        assert type(rep.iterations) is int


def test_exponent_rate_validation():
    code = catalog("trivial1", 2)
    for R in (-0.2, 1.2):
        with pytest.raises(ValidationError):
            exponent(code, depolarizing(2, 0.1), R)
        with pytest.raises(ValidationError, match="rate must lie in"):
            exponent_grid_oracle(code, depolarizing(2, 0.1), R, 10)
    # a code with k = 0 has no rate to count
    k0 = StabilizerCode(Subspace(2, 2, [[1, 0]]))
    with pytest.raises(ValidationError, match="k >= 1"):
        exponent(k0, depolarizing(2, 0.1), 0.5)
    with pytest.raises(ValidationError, match="k >= 1"):
        exponent_grid_oracle(k0, depolarizing(2, 0.1), 0.5, 4)


def test_grid_oracle_guard():
    code = catalog("rep3", 2)  # 16 support cells: a 200-step grid is infeasible
    with pytest.raises(GuardError):
        exponent_grid_oracle(code, depolarizing(2, 0.1), 0.0, 200)


def test_grid_oracle_guard_counts_the_tables_of_a_one_cell_support():
    # at p = 0 the support is the identity cell alone: one grid point, but
    # a table entry per count
    code = catalog("trivial1", 2)
    assert exponent_grid_oracle(code, depolarizing(2, 0.0), 0.0, 1000) == 1.0  # k(1 - R)
    with pytest.raises(GuardError):
        exponent_grid_oracle(code, depolarizing(2, 0.0), 0.0, 2**24)


def test_grid_oracle_rejects_an_empty_grid():
    code = catalog("trivial1", 2)
    for steps in (0, -1):
        with pytest.raises(ValidationError):
            exponent_grid_oracle(code, depolarizing(2, 0.1), 0.0, steps)


@pytest.mark.parametrize("call", [
    lambda code, ch: coherent_bound(code, ch, 1.0),
    lambda code, ch: coherent_bound(code, ch, -2),
    lambda code, ch: coherent_bound(code, ch, float("nan")),
    lambda code, ch: bound_from_array(probability_array(code, ch), 0.5),
    lambda code, ch: exponent_grid_oracle(code, ch, 0.0, 2.5),
    lambda code, ch: exponent_grid_oracle(code, ch, 0.0, True),
], ids=["base-1", "base-negative", "base-nan", "array-base-below-1", "grid-float", "grid-bool"])
def test_bad_base_and_grid_steps_are_validation_errors(call):
    with pytest.raises(ValidationError):
        call(catalog("rep3", 2), depolarizing(2, 0.1))


def test_exponent_nonnegative_just_below_threshold():
    # the root sits near beta = 0 here, where bisection took up to 107 steps;
    # the Newton iteration must match it within the evaluation budget.
    # trivial1/d=5 at p = 1e-6 and 1e-9 took up to 24 evaluations when the
    # search ran on until beta stopped moving
    for name, d, p in (("rep3", 2, 0.08), ("trivial1", 2, 0.05), ("five_qubit", 2, 0.1),
                       ("rep2", 3, 0.1), ("trivial1", 5, 1e-6), ("trivial1", 5, 1e-9)):
        code, ch = catalog(name, d), depolarizing(d, p)
        thr = exponent(code, ch, 0.0).threshold
        for offset in (1e-4, 1e-8, 1e-12, 1e-15):
            R = (thr - offset) / code.k
            rep = exponent(code, ch, R)
            assert rep.value >= 0.0
            assert rep.kkt_residual <= 1e-9
            assert abs(rep.value - reference_exponent(code, ch, R)) <= 1e-12, (name, offset)
            assert rep.iterations <= EVAL_BUDGET, (name, offset, rep.iterations)


def test_exponent_grid_takes_few_evaluations():
    # 4 catalog codes x 12 channels x 11 rates; stopping once the Newton
    # estimate of the dual's remaining rise is below round-off leaves every
    # interior root at most 5 evaluations (7 when the search ran on until
    # beta stopped moving, 1400 in all), and the reported dual bound never
    # exceeds the bisection reference's objective value
    total = 0
    for name, d in (("trivial1", 2), ("rep3", 2), ("five_qubit", 2), ("rep2", 3)):
        code = catalog(name, d)
        for p in np.arange(1, 13) / 100:
            ch = depolarizing(d, p)
            for R in np.arange(11) / 10:
                rep = exponent(code, ch, R)
                total += rep.iterations
                assert rep.iterations <= 5, (name, p, R, rep.iterations)
                assert rep.kkt_residual <= 1e-9, (name, p, R)
                assert rep.value <= reference_exponent(code, ch, R) + 1e-15, (name, p, R)
    assert total <= 1200, total


def test_exponent_raises_when_the_certificate_fails(monkeypatch):
    # a slope 1e20 times too steep makes the first Newton step vanish, so the
    # search stops where |g| is still large and the certificate must refuse it
    code = catalog("rep3", 2)
    ch = depolarizing(2, 0.08)
    assert exponent(code, ch, 0.0).iterations > 1  # an interior root
    evaluate = _Objective.evaluate

    def steep(self, beta):
        h, slope, lam = evaluate(self, beta)
        return h, slope * 1e20, lam

    monkeypatch.setattr(_Objective, "evaluate", steep)
    with pytest.raises(ConvergenceError):
        exponent(code, depolarizing(2, 0.08), 0.0)


def test_exponent_has_no_polish_knobs(tmp_path):
    # removed keyword options are refused, not ignored: the solver's polish
    # knobs and tolerance, the completion seeds (pass any HyperbolicBasis
    # instead) and the array guard, now the fixed byte
    # budget of _util.check_array_build
    code = catalog("trivial1", 2)
    ch = depolarizing(2, 0.05)
    path = tmp_path / "trivial1.code"
    write_code_file(code, path)
    table = [
        (exponent, (code, ch, 0.0), "polish_iters"),
        (exponent, (code, ch, 0.0), "max_iter"),
        (exponent, (code, ch, 0.0), "tol"),
        (exponent_grid_oracle, (code, ch, 0.0, 2), "max_cells"),
        (probability_array, (code, ch), "max_cells"),
        (coherent_bound, (code, ch), "max_cells"),
        (StabilizerCode, (code.subspace,), "seed"),
        (hyperbolic_complete, (code.subspace,), "rng_seed"),
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
    return *draw_code_and_channel(draw, d, n, k), draw(st.floats(0.0, 1.0))


@settings(derandomize=True, deadline=None, max_examples=80)
@given(random_exponent_case())
def test_exponent_certificate_on_random_codes(case):
    code, ch, R = case
    rep = exponent(code, ch, R)
    assert rep.value >= 0.0
    assert rep.kkt_residual <= 1e-9
    arr = probability_array(code, ch)
    assert abs(rep.threshold - (code.k - arr.conditional_entropy(code.d))) <= 1e-12
    # weak duality: every dual value phi(beta) = beta (gap - H^A_(1/(1+beta))),
    # from Arimoto's formula, bounds the exponent from below, and rep.value is
    # the objective at a feasible point, independently of where the solver
    # stopped
    gap = code.k - code.k * R
    dual = max(beta * (gap - arimoto_entropy(arr, 1.0 / (1.0 + beta)))
               for beta in np.linspace(0.0, 1.0, 41)[1:])
    assert rep.value >= max(dual, 0.0) - 1e-10
    if np.count_nonzero(arr.table) <= 4:
        assert rep.value <= exponent_grid_oracle(code, ch, R, 60) + 1e-9


@settings(derandomize=True, deadline=None, max_examples=80)
@given(random_exponent_case(), st.integers(1, 8))
def test_grid_oracle_matches_the_dense_oracle_on_random_codes(case, steps):
    code, ch, R = case
    m = int(np.count_nonzero(probability_array(code, ch).table))
    # keep the dense reference under about 10^5 (grid points x cells)
    while steps > 1 and math.comb(steps + m - 1, m - 1) * m > 100_000:
        steps -= 1
    want = grid_oracle_dense(code, ch, R, steps)
    assert exponent_grid_oracle(code, ch, R, steps) == pytest.approx(want, rel=1e-12, abs=0.0)


@settings(derandomize=True, deadline=None, max_examples=80)
@given(random_exponent_case(), st.floats(0.0, 1.0))
def test_exponent_matches_bisection_on_random_codes(case, beta):
    code, ch, R = case
    rep = exponent(code, ch, R)
    ref = reference_exponent(code, ch, R)
    assert abs(rep.value - ref) <= 1e-12
    # the value is the dual bound, the lower end of the certified interval
    assert rep.value <= ref + 1e-15
    assert rep.iterations <= EVAL_BUDGET
    # the closed-form slope of H_c(x_beta) against a central difference of
    # the entropy of the built tilted distribution
    obj = _Objective(probability_array(code, ch))
    h, slope, _ = obj.evaluate(beta)
    assert h == pytest.approx(h_cond(obj, tilted(obj, beta)), abs=1e-12)
    step = 1e-5
    central = (h_cond(obj, tilted(obj, beta + step))
               - h_cond(obj, tilted(obj, beta - step))) / (2 * step)
    assert slope >= 0.0
    assert slope == pytest.approx(central, rel=1e-5, abs=1e-9)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(random_exponent_case())
def test_closed_forms_match_the_built_tilted_distribution(case):
    # the evaluation's H_c and Lambda against the witness x_beta built cell by
    # cell: D(x_beta||P_L) = beta H_c - Lambda, and Lambda is beta times
    # Arimoto's conditional Renyi entropy of order 1/(1+beta)
    code, ch, _ = case
    arr = probability_array(code, ch)
    obj = _Objective(arr)
    for beta in np.linspace(0.05, 1.0, 20):
        h, _, lam = obj.evaluate(beta)
        x = tilted(obj, beta)
        assert abs(h - h_cond(obj, x)) <= 1e-12
        assert abs(kl_divergence(x, obj.p, code.d) - (beta * h - lam)) <= 1e-12
        assert abs(lam - beta * arimoto_entropy(arr, 1.0 / (1.0 + beta))) <= 1e-12


def test_exponent_is_affine_below_the_critical_rate():
    code, ch = catalog("rep3", 2), depolarizing(2, 0.03)
    rep = exponent(code, ch, 0.0)
    crit = rep.critical_rate
    assert 0.0 < crit < rep.threshold / code.k
    # at or below R_crit the maximizer is beta = 1: one evaluation, kept with
    # the objective, and E = k - kR - Lambda(1)
    below = [exponent(code, ch, f * crit) for f in (0.2, 0.5, 0.8)]
    assert all(r.iterations == 1 and r.critical_rate == crit for r in below)
    values = [r.value for r in below]
    assert abs(values[0] - 2 * values[1] + values[2]) <= 1e-12
    # between R_crit and the threshold the root is interior
    for f in (0.1, 0.5, 0.9):
        R = crit + f * (rep.threshold / code.k - crit)
        assert exponent(code, ch, R).iterations > 1
