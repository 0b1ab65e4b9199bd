"""Fixed-point iteration, structural threshold, functional, scalar roots, lambda scan."""

import logging
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st, target

from mfgl import DEFAULT_DAMPING, DEFAULT_TOL, meanfield
from mfgl.boolfn import FourierExpansion, eval_extension, vertex_values
from mfgl.hamiltonians import (
    ComplexityParams,
    CurieWeissSpec,
    SmoothedCutoffSpec,
    SparseFourierSpec,
    TriangleCountSpec,
    build_hamiltonian,
)
from mfgl.meanfield import (
    DEFAULT_MAX_ITER,
    _iterate_rows,
    as_gradient_field,
    curie_weiss_roots,
    default_lambda_grid,
    dedupe_solutions,
    lambda_scan,
    mean_field_functional,
    mf_iterate,
    multistart_points,
    solve_multistart,
)

from conftest import (
    curie_weiss_field,
    iterate_plain,
    lambda_scan_plain,
    mean_field_functional_gradient,
    random_expansion,
    residual_l1,
)

CUTOFF6 = SmoothedCutoffSpec(CurieWeissSpec(1.5, 6), 0.4, 0.05)


def test_zero_function_converges_in_one_step():
    sol = mf_iterate(FourierExpansion(5), np.full(5, 0.7), damping=1.0)
    assert sol.converged and sol.iterations == 1
    assert np.array_equal(sol.point, np.zeros(5))


def test_subcritical_curie_weiss_reaches_zero():
    f = build_hamiltonian(CurieWeissSpec(0.5, 8))
    rng = np.random.default_rng(0)
    for _ in range(5):
        sol = mf_iterate(f, rng.uniform(-1, 1, 8), tol=1e-12)
        assert sol.converged
        assert np.abs(sol.point).sum() < 1e-10


def test_all_ones_field_hits_scalar_root():
    # the all-ones-coupling map reproduces the scalar equation x = tanh(2x)
    (sol,) = _iterate_rows(curie_weiss_field(2.0, 12), np.full((1, 12), 0.9), ["start-0"],
                           lam=1.0, damping=DEFAULT_DAMPING, tol=1e-12, max_iter=DEFAULT_MAX_ITER)
    assert sol.converged
    assert np.allclose(sol.point, sol.point[0])
    assert sol.point[0] == pytest.approx(0.9575, abs=1e-4)


def test_iterates_stay_in_cube():
    rng = np.random.default_rng(1)
    f = random_expansion(rng, 6, degree=3, scale=3.0)
    sol = mf_iterate(f, rng.uniform(-1, 1, 6), tol=1e-12, max_iter=500)
    assert np.abs(sol.point).max() <= 1.0


def test_residual_recomputable_from_point():
    rng = np.random.default_rng(2)
    f = random_expansion(rng, 5, degree=2)
    sol = mf_iterate(f, rng.uniform(-1, 1, 5), max_iter=50)
    assert residual_l1(f, sol.point, sol.lam) == pytest.approx(sol.residual_l1, abs=1e-12)


def test_mf_iterate_validates_damping():
    with pytest.raises(ValueError):
        mf_iterate(FourierExpansion(3), np.zeros(3), damping=0.0)


@pytest.mark.parametrize("kwargs", [{"damping": 0.0}, {"damping": 1.7},
                                    {"damping": float("nan")}, {"max_iter": -3},
                                    {"tol": 0.0}, {"tol": -1e-10}, {"tol": float("nan")},
                                    {"tol": float("inf")}])
def test_iteration_inputs_validated_at_every_entry_point(kwargs):
    f = build_hamiltonian(CurieWeissSpec(1.5, 4))
    calls = [lambda: mf_iterate(f, np.zeros(4), **kwargs),
             lambda: solve_multistart(f, **kwargs),
             lambda: lambda_scan(f, 0.5, 0.05, lambda_grid=np.array([1.0]),
                                 **{"tol": 1e-8, **kwargs})]
    for call in calls:
        with pytest.raises(ValueError):
            call()


def _battery(n, seed):
    starts = multistart_points(n, seed)
    return np.stack([x for _, x in starts]), [sid for sid, _ in starts]


def _assert_same_as_plain(field, x0, ids, **kwargs):
    fast = _iterate_rows(field, x0, ids, **kwargs)
    plain = iterate_plain(field, x0, ids, **kwargs)
    for a, b in zip(fast, plain, strict=True):
        assert a.point.tobytes() == b.point.tobytes()
        assert (a.residual_l1, a.iterations, a.converged, a.start_id) == \
            (b.residual_l1, b.iterations, b.converged, b.start_id)
    return fast


def test_cycling_curie_weiss_battery_matches_plain_iteration():
    # at lambda = -5 the stuck starts sit in exact period-2 cycles
    field = as_gradient_field(build_hamiltonian(CurieWeissSpec(1.5, 10)))
    x0, ids = _battery(10, 501)
    sols = _assert_same_as_plain(field, x0, ids, lam=-5.0, damping=0.5, tol=1e-10,
                                 max_iter=10_000)
    assert sum(not s.converged for s in sols) == 16


@pytest.mark.parametrize("max_iter", [700, 701, 733, 1500])
def test_cycling_cutoff_battery_matches_plain_iteration_at_every_phase(max_iter):
    # the stuck starts cycle with periods 8, 32 and 128 by step 580
    field = as_gradient_field(build_hamiltonian(CUTOFF6))
    x0, ids = _battery(6, 501)
    sols = _assert_same_as_plain(field, x0, ids, lam=1.0, damping=0.5, tol=1e-10,
                                 max_iter=max_iter)
    assert sum(not s.converged for s in sols) == 8


def test_a_lone_row_keeps_its_battery_bits():
    # A one-row x @ A (gemv) rounds differently from the same row in a batch
    # (gemm).  The slowest start here runs its last steps alone, and
    # mf_iterate runs each start alone; both match the full battery.
    f = random_expansion(np.random.default_rng(0), 8, degree=2)
    x0, ids = _battery(8, 0)
    sols = _assert_same_as_plain(as_gradient_field(f), x0, ids, lam=1.0, damping=0.5,
                                 tol=1e-10, max_iter=10_000)
    for x, sol in zip(x0, sols):
        assert mf_iterate(f, x).point.tobytes() == sol.point.tobytes()


def _counted(field):
    calls = [0]

    def counting(x):
        calls[0] += 1
        return field(x)

    return counting, calls


@settings(max_examples=60, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12), degree=st.integers(1, 3),
       rows=st.integers(2, 600), data=st.data())
def test_gradient_field_is_row_wise_on_every_batch_of_two_or_more(seed, n, degree, rows, data):
    # the battery drops rows and batches grid points on the strength of this
    rng = np.random.default_rng(seed)
    field = as_gradient_field(random_expansion(rng, n, degree=min(degree, n)))
    x = rng.uniform(-1.0, 1.0, (rows, n))
    idx = data.draw(st.lists(st.integers(0, rows - 1), min_size=2, max_size=rows))
    assert field(x)[idx].tobytes() == field(x[idx]).tobytes()


@st.composite
def sparse_fourier_specs(draw, max_n=5):
    n = draw(st.integers(1, max_n))
    subsets = st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True)
    terms = draw(st.lists(st.tuples(subsets, st.floats(-2.0, 2.0, allow_nan=False)),
                          min_size=1, max_size=2 * n))
    return SparseFourierSpec(n, tuple(terms))


@settings(max_examples=100, deadline=None, database=None)
@given(spec=sparse_fourier_specs(), lam=st.floats(-20.0, 20.0), damping=st.sampled_from([0.5, 1.0]),
       max_iter=st.integers(0, 300), seed=st.integers(0, 2**16))
def test_iteration_matches_plain_iteration(spec, lam, damping, max_iter, seed):
    field, calls = _counted(as_gradient_field(build_hamiltonian(spec)))
    x0, ids = _battery(spec.n, seed)
    sols = _assert_same_as_plain(field, x0, ids, lam=lam, damping=damping, tol=1e-10,
                                 max_iter=max_iter)
    # steer the search toward batteries that end early in an exact cycle
    plain_calls = max(s.iterations for s in sols) + 1
    target(float(2 * plain_calls - calls[0]), label="field calls saved")


@pytest.mark.parametrize("max_iter", [1_237, 1_500])
@pytest.mark.parametrize("seed, periods", [(7, {32: 5, 128: 4}), (501, {8: 1, 32: 5, 128: 2})])
def test_late_cycles_match_plain_iteration(seed, periods, max_iter):
    # the stuck starts' period-32 and period-128 cycles repeat only after
    # step 300, so the plain loop is their oracle at caps past step 1,168
    f = build_hamiltonian(CUTOFF6)
    sols = solve_multistart(f, seed=seed, max_iter=max_iter)
    x0, ids = _battery(6, seed)
    plain = iterate_plain(as_gradient_field(f), x0, ids, lam=1.0, damping=DEFAULT_DAMPING,
                          tol=DEFAULT_TOL, max_iter=max_iter)
    plain = dedupe_solutions([s for s in plain if s.converged]) + \
        [s for s in plain if not s.converged]
    for a, b in zip(sols, plain, strict=True):
        assert a.point.tobytes() == b.point.tobytes()
        assert (a.residual_l1, a.iterations, a.converged, a.start_id) == \
            (b.residual_l1, b.iterations, b.converged, b.start_id)
    assert Counter(s.period for s in sols if not s.converged) == periods


def test_cycling_batteries_stop_early(monkeypatch):
    # the capped loop evaluates the field max_iter + 1 = 10,001 times on both
    calls = []

    def counted(f, build=meanfield.as_gradient_field):
        field, count = _counted(build(f))
        calls.append(count)
        return field

    monkeypatch.setattr(meanfield, "as_gradient_field", counted)
    solve_multistart(build_hamiltonian(CUTOFF6), seed=501)
    solve_multistart(build_hamiltonian(CurieWeissSpec(1.5, 10)), lam=-5.0, seed=501)
    (cutoff,), (cw,) = calls
    assert cutoff <= 800
    assert cw <= 100


def test_iteration_logs_one_debug_line(caplog):
    solve_multistart(build_hamiltonian(CurieWeissSpec(1.5, 10)), lam=-5.0)
    assert not [r for r in caplog.records if r.name == "mfgl.meanfield"]
    caplog.set_level(logging.DEBUG, logger="mfgl.meanfield")
    solve_multistart(build_hamiltonian(CUTOFF6), seed=501)
    (record,) = [r for r in caplog.records if r.name == "mfgl.meanfield"]
    assert record.levelno == logging.DEBUG
    assert record.getMessage() == ("17 rows in 688 steps: 9 converged, 8 frozen in exact "
                                   "cycles (period: rows {8: 1, 32: 5, 128: 2}), 0 at the cap")


def test_solutions_carry_status_and_period():
    # the periods of the DEBUG line in test_iteration_logs_one_debug_line
    f = build_hamiltonian(CUTOFF6)
    sols = solve_multistart(f, seed=501)
    assert Counter(s.status for s in sols) == {"converged": 7, "cycle": 8}
    assert Counter(s.period for s in sols if s.status == "cycle") == {8: 1, 32: 5, 128: 2}
    assert all(s.period == 0 for s in sols if s.status == "converged")
    # by step 300 no stuck start has repeated yet
    capped = [s for s in solve_multistart(f, seed=501, max_iter=300) if not s.converged]
    assert {(s.status, s.period, s.iterations) for s in capped} == {("max_iter", 0, 300)}


def test_structural_set_exact_root_is_member():
    f = FourierExpansion(4)
    residual = residual_l1(f, np.zeros(4))
    assert residual == 0.0
    assert residual <= ComplexityParams(1.0, 1.0, 1.0).structural_threshold(4)


def test_structural_set_threshold_formula():
    # 5000 L1 L2^(3/4) D^(1/4) n^(3/4): 5000 * 8 at unit params and n = 16
    assert ComplexityParams(1.0, 1.0, 1.0).structural_threshold(16) == 40_000.0
    assert ComplexityParams(16.0, 2.0, 16.0).structural_threshold(16) == 5000.0 * 2 * 8 * 2 * 8


def test_structural_set_subcritical_norm_bound():
    # below critical coupling every structural-set member with the literal
    # threshold satisfies |X|_1 <= 5001 (1+beta)^2/(1-beta) n^(7/8)
    beta, n = 0.5, 8
    f = build_hamiltonian(CurieWeissSpec(beta, n))
    sols = solve_multistart(f, seed=3)
    cap = 5001.0 * (1 + beta) ** 2 / (1 - beta) * n ** 0.875
    for sol in sols:
        if sol.converged:
            assert np.abs(sol.point).sum() <= cap


def test_functional_value_at_uniform_point():
    f = FourierExpansion(6)
    assert mean_field_functional(f, np.zeros(6)) == pytest.approx(6 * np.log(2.0))


def test_functional_gradient_matches_central_differences():
    rng = np.random.default_rng(4)
    f = random_expansion(rng, 5, degree=3)
    x = rng.uniform(-0.8, 0.8, 5)
    grad = mean_field_functional_gradient(f, x)
    h = 1e-5
    for i in range(5):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        fd = (mean_field_functional(f, xp) - mean_field_functional(f, xm)) / (2 * h)
        assert grad[i] == pytest.approx(fd, abs=1e-6)


def test_functional_gradient_vanishes_at_fixed_points():
    f = build_hamiltonian(CurieWeissSpec(2.0, 10))
    sols = solve_multistart(f, seed=5, tol=1e-13)
    checked = 0
    for sol in sols:
        if sol.converged and np.abs(sol.point).max() < 1.0:
            g = mean_field_functional_gradient(f, sol.point)
            assert np.abs(g).max() < 1e-8
            checked += 1
    assert checked >= 2


def test_functional_rejects_boundary_points():
    f = FourierExpansion(3)
    with pytest.raises(ValueError):
        mean_field_functional(f, np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        mean_field_functional_gradient(f, np.array([0.0, -1.0, 0.0]))


def test_curie_weiss_roots_regimes():
    assert curie_weiss_roots(0.5).tolist() == [0.0]
    assert curie_weiss_roots(1.0).tolist() == [0.0]
    roots2 = curie_weiss_roots(2.0)
    assert roots2.shape == (3,)
    assert roots2[2] == pytest.approx(0.9575, abs=1e-4)
    assert roots2[0] == pytest.approx(-roots2[2])
    assert curie_weiss_roots(5.0)[2] > 0.9999


def test_curie_weiss_field_contracts_below_critical():
    beta, n = 0.7, 9
    field = curie_weiss_field(beta, n)
    rng = np.random.default_rng(6)
    for _ in range(20):
        x, y = rng.uniform(-1, 1, (2, n))
        lhs = np.abs(np.tanh(field(x)) - np.tanh(field(y))).sum()
        assert lhs <= beta * np.abs(x - y).sum() + 1e-12


def test_multistart_deterministic_and_deduped():
    f = build_hamiltonian(CurieWeissSpec(2.0, 6))
    a = solve_multistart(f, seed=7)
    b = solve_multistart(f, seed=7)
    assert [s.start_id for s in a] == [s.start_id for s in b]
    for sa, sb in zip(a, b):
        assert np.array_equal(sa.point, sb.point)
    converged = [s for s in a if s.converged]
    for i, si in enumerate(converged):
        for sj in converged[i + 1:]:
            assert np.abs(si.point - sj.point).sum() > 1e-6


def test_multistart_policy_battery():
    starts = multistart_points(5, seed=0)
    ids = [sid for sid, _ in starts]
    assert ids[:3] == ["zeros", "plus09", "minus09"]
    assert len(ids) == 17
    again = multistart_points(5, seed=0)
    assert all(np.array_equal(a[1], b[1]) for a, b in zip(starts, again))


def test_dedupe_keeps_first():
    mk = lambda v, sid: mf_iterate(FourierExpansion(2), np.array(v), max_iter=0, start_id=sid)
    sols = [mk([0.0, 0.0], "a"), mk([0.0, 0.0], "b"), mk([0.5, 0.5], "c")]
    kept = dedupe_solutions(sols)
    assert [s.start_id for s in kept] == ["a", "c"]


def test_default_lambda_grid_shape():
    grid = default_lambda_grid(64, 1e-2, 1e2)
    assert grid.size == 129
    assert 0.0 in grid
    assert grid[0] == -grid[-1]
    assert np.all(np.diff(grid) > 0)


def test_lambda_scan_zero_lambda_window():
    # lambda = 0 collapses to X = 0, kept iff the constant term is in the window
    f = FourierExpansion.from_terms(4, [((), 0.5), ((0, 1), 0.2)])
    inside = lambda_scan(f, t=0.125, delta=0.05, lambda_grid=np.array([0.0]), tol=1e-9)
    assert len(inside) == 1
    assert np.abs(inside[0].point).sum() < 1e-9
    outside = lambda_scan(f, t=0.6, delta=0.01, lambda_grid=np.array([0.0]), tol=1e-9)
    assert outside == []


def test_lambda_scan_finds_curie_weiss_root_in_window():
    beta, n = 2.0, 10
    f = build_hamiltonian(CurieWeissSpec(beta, n))
    x_star = float(curie_weiss_roots(beta)[2])
    t = eval_extension(f, np.full(n, x_star)) / n
    sols = lambda_scan(f, t, 0.05, lambda_grid=np.geomspace(0.1, 3.0, 25),
                       seed=8, tol=1e-9, max_iter=3000)
    window = [(t - 0.3) * n, t * n]
    hits = [s for s in sols
            if np.allclose(s.point, s.point[0], atol=1e-6)
            and window[0] <= eval_extension(f, s.point) <= window[1]]
    assert hits, "no constant solution landed in the conditioning window"


def test_lambda_scan_filter_soundness():
    f = build_hamiltonian(TriangleCountSpec(0.8, 5))
    fmax = float(eval_extension(f, np.ones(f.n)))
    t, delta = 0.4 * fmax / f.n, 0.1
    grid = default_lambda_grid(8, 1e-2, 1e2)
    sols = lambda_scan(f, t, delta, lambda_grid=grid, seed=9, tol=1e-8, max_iter=1500)
    for sol in sols:
        assert sol.converged
        assert residual_l1(f, sol.point, sol.lam) <= 1e-8 + 1e-12
        value = eval_extension(f, sol.point)
        assert (t - 0.6) * f.n <= value <= t * f.n


# 9 warm solutions kept, 2 of them in the second battery of seeded starts
_WARM_SCAN = dict(
    spec=SparseFourierSpec(6, (((4,), 0.05), ((0, 1, 5), -1.17), ((0, 2, 5), 1.07),
                               ((2, 3, 5), 1.7), ((3, 4), -0.2), ((0, 2), -0.88), ((2,), -0.37),
                               ((1, 2), -1.7), ((5,), 0.29))),
    window=(34, 21), damping=0.5, max_iter=252, seed=19,
    grid=[-5.67, -5.36, -4.24, -2.75, -1.79, -0.21, 0.0, 1.6, 3.3, 4.23, 5.37, 5.76, 5.77,
          6.94, 7.76, 7.8, 8.0, 8.0])


@settings(max_examples=40, deadline=None, database=None)
@given(spec=sparse_fourier_specs(max_n=6),
       window=st.tuples(st.integers(0, 63), st.integers(0, 63)),
       grid=st.lists(st.one_of(st.just(0.0), st.floats(-8.0, 8.0)), min_size=1, max_size=40),
       damping=st.sampled_from([0.5, 1.0]), max_iter=st.integers(0, 300),
       seed=st.integers(0, 2**16))
@example(**_WARM_SCAN)
def test_lambda_scan_matches_the_per_lambda_scan(spec, window, grid, damping, max_iter, seed):
    f = build_hamiltonian(spec)
    # a window between two vertex values keeps solutions, so warm starts run
    values = vertex_values(f)
    lo, hi = sorted(values[k % values.size] for k in window)
    t, delta = hi / f.n, (hi - lo) / (6 * f.n) + 0.01
    kwargs = dict(lambda_grid=np.array(grid), tol=1e-10, seed=seed, damping=damping,
                  max_iter=max_iter)
    fast = lambda_scan(f, t, delta, **kwargs)
    plain = lambda_scan_plain(f, t, delta, **kwargs)
    for a, b in zip(fast, plain, strict=True):
        assert a.point.tobytes() == b.point.tobytes()
        assert (a.lam, a.residual_l1, a.iterations, a.converged, a.start_id, a.period) == \
            (b.lam, b.residual_l1, b.iterations, b.converged, b.start_id, b.period)
    target(float(sum(s.start_id.startswith("warm") for s in fast)), label="warm solutions")


def test_lambda_scan_work_is_bounded_by_the_battery(monkeypatch):
    rows = []  # the batch size of every field call

    def counted(f, build=meanfield.as_gradient_field):
        field = build(f)
        return lambda x: rows.append(len(x)) or field(x)

    monkeypatch.setattr(meanfield, "as_gradient_field", counted)
    f = build_hamiltonian(CurieWeissSpec(1.5, 10))
    # the CLI's default --lambda-grid 1e-2:1e2:64; one battery per lambda made 8,801 calls
    lambda_scan(f, 0.675, 0.05, lambda_grid=default_lambda_grid(64, 1e-2, 1e2),
                tol=DEFAULT_TOL, seed=7)
    assert len(rows) <= 1_400
    assert max(rows) <= meanfield._SCAN_BATTERY_ROWS
    # 4,097 grid points: batteries stay as wide, so memory does not grow with the grid
    rows.clear()
    lambda_scan(f, 0.675, 0.05, lambda_grid=default_lambda_grid(2048, 1e-2, 1e2),
                tol=DEFAULT_TOL, seed=7)
    assert len(rows) <= 30_000
    assert max(rows) <= meanfield._SCAN_BATTERY_ROWS


def test_lambda_scan_rejects_empty_grid():
    with pytest.raises(ValueError):
        lambda_scan(FourierExpansion(3), 0.0, 0.1, lambda_grid=np.array([]), tol=1e-8)
