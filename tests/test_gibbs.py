"""Gibbs measures, tilts, covariance functional, product approximation, distances."""

import logging
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mfgl import size_caps
from mfgl.boolfn import (
    CapExceeded,
    DimensionMismatch,
    FourierExpansion,
    flip_differences,
    vertex_values,
)
from mfgl.gibbs import (
    DenseMeasure,
    gibbs_measure,
    product_law,
    tanh_covariance,
    mean,
    tilt,
    tv,
    w1_result,
)
from mfgl.hamiltonians import LinearSpec, build_hamiltonian
from mfgl.transport import mass_scale, solve_w1
from mfgl.verify import theta_in_tilt_support

from conftest import (
    add_linear,
    all_vertices,
    linear_vertex_values_loop,
    point_mass,
    product_law_loop,
    random_expansion,
    shift,
    w1_ssp,
)


def _linear(theta):
    return build_hamiltonian(LinearSpec(tuple(theta)))


def test_gibbs_of_zero_is_uniform():
    nu = gibbs_measure(FourierExpansion(4))
    assert nu.probs == pytest.approx(np.full(16, 1 / 16))
    assert nu.log_norm == pytest.approx(np.log(16))


def test_gibbs_of_linear_is_product_law():
    rng = np.random.default_rng(2)
    theta = rng.uniform(-1, 1, 6)
    nu = gibbs_measure(_linear(theta))
    pm = product_law(np.tanh(theta))
    assert np.abs(nu.probs - pm.probs).max() < 1e-14


def test_gibbs_shift_invariance():
    rng = np.random.default_rng(3)
    f = random_expansion(rng, 5, degree=2)
    nu = gibbs_measure(f)
    nu17 = gibbs_measure(shift(f, 17.0))
    assert nu17.probs == pytest.approx(nu.probs, abs=1e-13)
    assert nu17.log_norm == pytest.approx(nu.log_norm + 17.0)


def test_tilt_identity_and_gibbs_consistency():
    rng = np.random.default_rng(4)
    f = random_expansion(rng, 5, degree=3)
    nu = gibbs_measure(f)
    assert tilt(nu, np.zeros(5)) is nu and tilt(nu, np.array([0.0, -0.0, 0.0, -0.0, 0.0])) is nu
    theta = rng.uniform(-0.5, 0.5, 5)
    direct = gibbs_measure(add_linear(f, theta))
    tilted = tilt(nu, theta)
    assert np.abs(tilted.probs - direct.probs).max() < 1e-12
    assert tilted.log_norm == pytest.approx(direct.log_norm, abs=1e-10)


def test_tilt_shifts_the_gradient_field():
    # the tilted measure's mean equals its average of tanh(grad f + theta)
    rng = np.random.default_rng(5)
    f = random_expansion(rng, 6, degree=2)
    theta = rng.uniform(-0.25, 0.25, 6)
    tilted = tilt(gibbs_measure(f), theta)
    field = flip_differences(vertex_values(f)).T.copy() + theta
    assert mean(tilted) == pytest.approx(tilted.probs @ np.tanh(field), abs=1e-12)


def test_product_law_matches_itertools_oracle():
    from conftest import product_weights_direct

    rng = np.random.default_rng(55)
    for _ in range(5):
        n = int(rng.integers(2, 7))
        z = rng.uniform(-0.95, 0.95, n)
        dense = product_law(z)
        assert dense.probs == pytest.approx(product_weights_direct(z), abs=1e-14)


_MEAN_ENTRY = st.one_of(
    st.sampled_from([1.0, -1.0, 0.0, -0.0, 1.0 + 5e-13, -1.0 - 5e-13]),
    st.floats(-1.0, 1.0),
)
# entries from 1e-300 to 1e3 in size, signed zeros among them
_THETA_ENTRY = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.builds(lambda x, e: x * 10.0**e, st.floats(-1.0, 1.0), st.integers(-300, 3)),
)


@settings(max_examples=300, deadline=None, database=None)
@given(data=st.data(), n=st.integers(1, 10))
def test_product_law_and_tilt_match_the_per_bit_loops_bit_for_bit(data, n):
    m = np.array(data.draw(st.lists(_MEAN_ENTRY, min_size=n, max_size=n)))
    nu = product_law(m)
    assert nu.probs.tobytes() == product_law_loop(np.clip(m, -1.0, 1.0)).tobytes()
    assert nu.log_norm == 0.0
    theta = np.array(data.draw(st.lists(_THETA_ENTRY, min_size=n, max_size=n)))
    tilted = tilt(nu, theta)
    if not np.any(theta):
        assert tilted is nu
        return
    with np.errstate(divide="ignore"):
        ref = DenseMeasure.from_log_weights(n, np.log(nu.probs) + linear_vertex_values_loop(theta))
    assert tilted.probs.tobytes() == ref.probs.tobytes()
    assert tilted.log_norm == nu.log_norm + ref.log_norm


def test_mean_uniform_and_product():
    assert mean(gibbs_measure(FourierExpansion(5))) == pytest.approx(np.zeros(5), abs=1e-15)


def test_mean_matches_enumeration_oracle():
    rng = np.random.default_rng(6)
    f = random_expansion(rng, 5, degree=3)
    theta = rng.uniform(-0.3, 0.3, 5)
    tilted = tilt(gibbs_measure(f), theta)
    coords = all_vertices(5)
    assert mean(tilted) == pytest.approx(tilted.probs @ coords, abs=1e-12)


def test_h_matrix_zero_for_constant_field():
    theta = np.array([0.4, -0.2, 0.8, 0.1])
    f = _linear(theta)
    nu = gibbs_measure(f)
    _, cov, trace = tanh_covariance(nu, flip_differences(vertex_values(f)).T)
    assert np.abs(cov).max() < 1e-15
    assert trace == pytest.approx(0.0, abs=1e-15)


def test_h_matrix_psd():
    rng = np.random.default_rng(7)
    for _ in range(5):
        f = random_expansion(rng, 5, degree=3)
        nu = gibbs_measure(f)
        _, cov, trace = tanh_covariance(nu, flip_differences(vertex_values(f)).T)
        eig = np.linalg.eigvalsh(cov)
        assert eig.min() > -1e-10
        assert trace >= -1e-12


def test_h_matrix_tilt_sandwich():
    # covariances of the base field vs the shifted field under the same
    # measure agree up to exp(+-4 |theta|_inf) on the trace
    rng = np.random.default_rng(8)
    f = random_expansion(rng, 5, degree=2)
    nu_tilt = tilt(gibbs_measure(f), rng.uniform(-0.2, 0.2, 5))
    for _ in range(5):
        theta = rng.uniform(-0.25, 0.25, 5)
        base = flip_differences(vertex_values(f)).T
        _, _, tr_a = tanh_covariance(nu_tilt, base)
        _, _, tr_b = tanh_covariance(nu_tilt, base + theta)
        factor = np.exp(4.0 * np.abs(theta).max())
        assert tr_a <= factor * tr_b + 1e-12
        assert tr_a >= tr_b / factor - 1e-12


def test_product_approx_exact_for_product_laws():
    theta = np.array([0.6, -0.3, 0.2, 0.9, -0.8])
    f = _linear(theta)
    nu = gibbs_measure(f)
    center, _, _ = tanh_covariance(nu, flip_differences(vertex_values(f)).T)
    assert center == pytest.approx(np.tanh(theta), abs=1e-14)
    assert np.abs(product_law(center).probs - nu.probs).max() < 1e-13
    assert np.all(np.abs(center) < 1.0)


def test_product_approx_idempotent_on_product_laws():
    z = np.array([0.5, -0.7, 0.1, 0.3])
    f = _linear(np.arctanh(z))
    nu = gibbs_measure(f)
    field = flip_differences(vertex_values(f)).T
    center, _, _ = tanh_covariance(product_law(z), field)
    assert center == pytest.approx(z, abs=1e-10)


def test_product_approx_w1_within_trace_bound():
    rng = np.random.default_rng(9)
    for _ in range(3):
        n = int(rng.integers(4, 7))
        f = random_expansion(rng, n, degree=3)
        nu = gibbs_measure(f)
        field = flip_differences(vertex_values(f)).T
        center, _, trace = tanh_covariance(nu, field)
        xi = product_law(center)
        assert w1_result(nu, xi).value <= np.sqrt(n * max(trace, 0.0)) + 1e-9


# ---------------------------------------------------------------------------
# Transport
# ---------------------------------------------------------------------------


def test_w1_self_distance_zero():
    rng = np.random.default_rng(10)
    nu = gibbs_measure(random_expansion(rng, 5, degree=2))
    assert w1_result(nu, nu).value == 0.0


def test_w1_antipodal_point_masses():
    a = point_mass(5, 0)
    b = point_mass(5, 31)
    assert w1_result(a, b).value == 5.0


def _lp_w1(p, q, n):
    from scipy.optimize import linprog

    size = 1 << n
    ham = np.bitwise_count(
        (np.arange(size)[:, None] ^ np.arange(size)[None, :]).astype(np.uint64)
    ).astype(np.float64)
    rows = []
    for i in range(size):
        row = np.zeros((size, size))
        row[i, :] = 1
        rows.append(row.reshape(-1))
    for j in range(size):
        row = np.zeros((size, size))
        row[:, j] = 1
        rows.append(row.reshape(-1))
    res = linprog(ham.reshape(-1), A_eq=np.array(rows), b_eq=np.concatenate([p, q]),
                  bounds=(0, None), method="highs")
    assert res.status == 0
    return res.fun


def test_w1_matches_lp_oracle():
    rng = np.random.default_rng(11)
    for _ in range(5):
        nu1 = gibbs_measure(random_expansion(rng, 4, degree=2))
        nu2 = gibbs_measure(random_expansion(rng, 4, degree=3))
        assert abs(w1_result(nu1, nu2).value - _lp_w1(nu1.probs, nu2.probs, 4)) < 1e-9


def test_w1_metric_properties():
    rng = np.random.default_rng(12)
    n = 4
    trio = [gibbs_measure(random_expansion(rng, n, degree=2)) for _ in range(3)]
    d01 = w1_result(trio[0], trio[1]).value
    d10 = w1_result(trio[1], trio[0]).value
    d02 = w1_result(trio[0], trio[2]).value
    d12 = w1_result(trio[1], trio[2]).value
    assert d01 == pytest.approx(d10, abs=1e-12)
    assert d02 <= d01 + d12 + 1e-9
    assert max(d01, d02, d12) <= n


def test_w1_below_n_times_tv():
    rng = np.random.default_rng(13)
    for _ in range(5):
        nu1 = gibbs_measure(random_expansion(rng, 4, degree=2))
        nu2 = gibbs_measure(random_expansion(rng, 4, degree=2))
        assert w1_result(nu1, nu2).value <= 4 * tv(nu1, nu2) + 1e-9


def test_w1_certificate_and_error_bound():
    rng = np.random.default_rng(14)
    nu1 = gibbs_measure(random_expansion(rng, 5, degree=2))
    nu2 = gibbs_measure(random_expansion(rng, 5, degree=3))
    res = w1_result(nu1, nu2)
    assert res.certified
    assert res.mass_error_bound == 5 * 32 / 2**49


def test_mass_scale_keeps_flow_sums_exact():
    # at most 2 n (scale + 2^n) units cross arcs: rounding can add 2^n units
    for n in range(1, 21):
        scale = mass_scale(n)
        assert 2 * n * (scale + (1 << n)) < 2**53 <= 4 * (n + 1) * scale
    assert 10 * 1024 / mass_scale(10) < 4e-11


@st.composite
def measure_pairs(draw, max_n=8):
    """(p, q, n) with sparse supports, point masses among them, and p == q."""
    n = draw(st.integers(1, max_n))
    states = 1 << n

    def measure():
        support = draw(st.sampled_from(("point", "sparse", "full")))
        probs = np.zeros(states)
        if support == "point":
            probs[draw(st.integers(0, states - 1))] = 1.0
            return probs
        low = 0 if support == "sparse" else 1
        probs[:] = draw(st.lists(st.integers(low, 9), min_size=states, max_size=states))
        if probs.sum() == 0.0:
            probs[0] = 1.0
        return probs / probs.sum()

    p = measure()
    q = p.copy() if draw(st.booleans()) and draw(st.booleans()) else measure()
    return p, q, n


@settings(max_examples=150, deadline=None, database=None)
@given(pair=measure_pairs())
def test_w1_primal_dual_matches_successive_shortest_paths(pair):
    p, q, n = pair
    res = solve_w1(p, q, n)
    cost_units, certified, _ = w1_ssp(p, q, n, mass_scale(n))
    assert res.cost_units == cost_units
    assert res.certified and certified
    assert res.phases <= n


def test_w1_logs_one_debug_line(caplog):
    p = point_mass(3, 0).probs
    q = point_mass(3, 7).probs
    solve_w1(p, q, 3)
    assert not [r for r in caplog.records if r.name == "mfgl.transport"]
    caplog.set_level(logging.DEBUG, logger="mfgl.transport")
    res = solve_w1(p, q, 3)
    (record,) = [r for r in caplog.records if r.name == "mfgl.transport"]
    assert record.levelno == logging.DEBUG
    assert (res.phases, res.iterations, res.value) == (1, 1, 3.0)
    assert record.getMessage() == (
        "8 states: 1 phases, 1 search rounds, 1 augmenting paths, certified True")


@pytest.mark.parametrize("n", range(1, 11))
def test_w1_between_the_uniform_law_and_a_point_mass_is_exact(n, caplog):
    # the Hamming distances to one vertex sum to n 2^(n-1), so W1 = n/2; a
    # search from the atom's side finds every path of a phase in one round
    uniform = np.full(1 << n, 1.0 / (1 << n))
    atom = point_mass(n, (1 << n) // 3).probs
    caplog.set_level(logging.DEBUG, logger="mfgl.transport")
    for p, q in ((uniform, atom), (atom, uniform)):
        caplog.clear()
        res = solve_w1(p, q, n)
        assert res.value == n / 2
        assert res.certified
        (record,) = [r for r in caplog.records if r.name == "mfgl.transport"]
        rounds = int(re.search(r"(\d+) search rounds", record.getMessage()).group(1))
        assert rounds <= 2 * n


def test_w1_refuses_above_the_cap():
    rng = np.random.default_rng(15)
    nu1 = gibbs_measure(random_expansion(rng, 5, degree=2))
    nu2 = gibbs_measure(random_expansion(rng, 5, degree=2))
    with size_caps(transport_states=16), pytest.raises(CapExceeded):
        w1_result(nu1, nu2).value


def test_tv_extremes_and_dimension_check():
    a = point_mass(3, 0)
    b = point_mass(3, 5)
    assert tv(a, a) == 0.0
    assert tv(a, b) == 1.0
    with pytest.raises(DimensionMismatch):
        tv(a, point_mass(4, 0))


def test_dense_measure_validation():
    with pytest.raises(ValueError):
        DenseMeasure(2, np.array([0.5, 0.5, 0.1, 0.0]))
    with pytest.raises(ValueError):
        DenseMeasure(2, np.array([0.7, 0.5, -0.1, -0.1]))
    with pytest.raises(ValueError):
        DenseMeasure.from_log_weights(2, np.full(4, -np.inf))


def test_product_law_validation():
    with pytest.raises(ValueError):
        product_law(np.array([1.5, 0.0]))
    pm = product_law(np.array([1.0, -1.0]))
    assert pm.probs[np.array([1])] == pytest.approx(1.0)


def test_tilt_support_box_and_ball():
    assert theta_in_tilt_support(np.full(4, 0.1), eps=0.2)
    assert not theta_in_tilt_support(np.full(4, 0.3), eps=1.0)  # leaves the box
    assert not theta_in_tilt_support(np.full(4, 0.24), eps=0.1)  # leaves the ball


def test_gibbs_rejects_nonfinite_and_cap():
    overflow = FourierExpansion.from_terms(2, [((0,), 1e308), ((1,), 1e308)])
    with pytest.raises(ValueError), np.errstate(over="ignore"):
        gibbs_measure(overflow)
    with pytest.raises(CapExceeded):
        gibbs_measure(FourierExpansion.from_terms(25, [((0,), 1.0)]))
