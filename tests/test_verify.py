"""Audit rows, tilt sampling, and the per-inequality audit functions."""

import math
from fractions import Fraction

import numpy as np
import pytest

from mfgl.boolfn import FourierExpansion, vertex_values
from mfgl.hamiltonians import (
    CurieWeissSpec,
    CutoffShape,
    LinearSpec,
    CubicQuinticShape,
    build_hamiltonian,
    smoothed_cutoff_weights,
)
from mfgl.complexity import complexity_params
from mfgl.verify import (
    audit_chain_rule_and_moments,
    audit_large_deviations,
    audit_main_residuals,
    audit_product_proximity,
    audit_tanh_mean_swap,
    counting_composition_gradient_norm,
    eps_upper_limit,
    failures,
    make_row,
    sample_tilts,
    theta_in_tilt_support,
    tightness_demo,
)

from conftest import random_expansion, shift


# ---------------------------------------------------------------------------
# Row mechanics
# ---------------------------------------------------------------------------


def test_make_row_ratio_conventions():
    both_zero = make_row("x", {}, 0.0, 0.0)
    assert both_zero.ratio == 0.0 and both_zero.passed
    flagged = make_row("x", {}, 1.0, 0.0)
    assert flagged.ratio is None and not flagged.passed
    normal = make_row("x", {}, 1.0, 2.0)
    assert normal.ratio == 0.5 and normal.passed


def test_make_row_pass_slack():
    assert make_row("x", {}, 1.0 + 5e-10, 1.0).passed
    assert not make_row("x", {}, 1.0 + 5e-9, 1.0).passed


def test_failures_respects_kind_and_hypothesis():
    rows = [
        make_row("a", {}, 2.0, 1.0),                          # failing bound
        make_row("b", {}, 2.0, 1.0, kind="hypothesis"),       # informational
        make_row("c", {}, 2.0, 1.0, hypothesis_met=False),    # unflagged
    ]
    assert [r.check_id for r in failures(rows)] == ["a"]


def test_sample_tilts_stay_in_support():
    for eps in (0.05, 0.2, 0.5):
        tilts = sample_tilts(6, eps, 50, seed=1)
        for theta in tilts:
            assert theta_in_tilt_support(theta, eps)


@pytest.mark.parametrize("eps", [0.0, -0.1, float("nan"), float("inf")])
def test_sample_tilts_refuses_a_bad_eps(eps):
    with pytest.raises(ValueError, match="finite and positive"):
        sample_tilts(6, eps, 3, seed=1)


def test_sample_tilts_stall_is_a_value_error():
    # the ball of radius 0.252 holds ~4e-6 of the box [-1/4, 1/4]^16
    with pytest.raises(ValueError, match="stalled"):
        sample_tilts(16, 0.063, 4, seed=1)


# ---------------------------------------------------------------------------
# Product-measure proximity
# ---------------------------------------------------------------------------


def test_proximity_linear_zero_tilt_degenerate():
    f = build_hamiltonian(LinearSpec((0.4, -0.2, 0.7)))
    rows = audit_product_proximity(f, [np.zeros(3)])
    assert rows[0].measured == pytest.approx(0.0, abs=1e-9)
    assert rows[0].bound == pytest.approx(0.0, abs=1e-9)
    assert rows[0].passed


def test_proximity_random_instances_pass():
    rng = np.random.default_rng(2)
    for _ in range(5):
        n = int(rng.integers(4, 7))
        f = random_expansion(rng, n, degree=3)
        rows = audit_product_proximity(f, [np.zeros(n)])
        assert not failures(rows)


def test_proximity_with_tilts_passes():
    f = build_hamiltonian(CurieWeissSpec(1.2, 6))
    thetas = [np.zeros(6)] + list(sample_tilts(6, 0.2, 5, seed=3))
    rows = audit_product_proximity(f, thetas, instance={"name": "cw"})
    assert len(rows) == 6
    assert not failures(rows)
    assert rows[0].instance["name"] == "cw"


# ---------------------------------------------------------------------------
# Tilt-mean residuals
# ---------------------------------------------------------------------------


def test_main_residuals_linear_bounded_by_tilt_norm():
    theta0 = np.array([0.3, -0.5, 0.2, 0.4, -0.1])
    f = build_hamiltonian(LinearSpec(tuple(theta0)))
    params = complexity_params(f, samples=2000, seed=4)
    eps = 0.2
    tilts = sample_tilts(5, eps, 10, seed=5)
    rows = audit_main_residuals(f, tilts, eps, params)
    assert not failures(rows)
    # the residual for a linear Hamiltonian is |tanh(t0+th) - tanh(t0)|_1 <= |th|_1 <= eps n
    for row, theta in zip([r for r in rows if r.check_id == "tilt_mean_residual"], tilts):
        assert row.measured <= np.abs(theta).sum() + 1e-12
        assert row.measured <= eps * 5 + 1e-9


def test_main_residuals_zero_tilt_product_law():
    f = build_hamiltonian(LinearSpec((0.6, -0.3, 0.1, 0.2)))
    params = complexity_params(f, samples=2000, seed=6)
    rows = audit_main_residuals(f, [np.zeros(4)], 0.2, params)
    resid = [r for r in rows if r.check_id == "tilt_mean_residual"][0]
    assert resid.measured == pytest.approx(0.0, abs=1e-12)


def test_main_residuals_trace_rows_are_hypothesis_kind():
    f = build_hamiltonian(CurieWeissSpec(2.0, 6))
    params = complexity_params(f, samples=2000, seed=7)
    rows = audit_main_residuals(f, sample_tilts(6, 0.2, 3, seed=8), 0.2, params)
    kinds = {r.check_id: r.kind for r in rows}
    assert kinds["tilt_trace_condition"] == "hypothesis"
    assert kinds["tilt_mean_residual"] == "bound"


def test_main_residuals_refuses_out_of_range_eps():
    f = build_hamiltonian(CurieWeissSpec(2.0, 6))
    params = complexity_params(f, samples=2000, seed=9)
    limit = eps_upper_limit(6, params.d)
    with pytest.raises(ValueError):
        audit_main_residuals(f, [np.zeros(6)], limit * 1.01, params)
    with pytest.raises(ValueError):
        audit_main_residuals(f, [np.zeros(6)], -0.1, params)


# ---------------------------------------------------------------------------
# Scalar composition and moments
# ---------------------------------------------------------------------------


def test_tanh_mean_swap_point_mass_trivial():
    [row] = audit_tanh_mean_swap(1, (1.0, 1.0), seed=12)
    # a single-atom draw is possible; in any case the ratio is bounded by 1
    assert row.measured <= 1.0


def test_tanh_mean_swap_symmetric_two_point():
    # symmetric +-a distributions have tanh(EZ) = 0 = E tanh Z exactly
    a = 0.8
    lhs = abs(math.tanh(0.0) - 0.5 * (math.tanh(a) + math.tanh(-a)))
    assert lhs == 0.0


def test_tanh_mean_swap_bulk_ratio_below_one():
    [row] = audit_tanh_mean_swap(10_000, (1.0, 5.0), seed=13)
    assert row.passed and row.measured <= 1.0
    assert row.instance["trials"] == 10_000


def test_chain_rule_block_affine_shape_has_zero_defects():
    # shifted to vertex values <= -2, f only meets the cutoff's affine branch 2x+1
    rng = np.random.default_rng(14)
    f = random_expansion(rng, 6, degree=2)
    f = shift(f, -2.0 - float(vertex_values(f).max()))
    means = [rng.uniform(-0.8, 0.8, 6) for _ in range(3)]
    rows = audit_chain_rule_and_moments(f, CutoffShape(), means)
    by_id = {r.check_id: r for r in rows}
    assert by_id["chain_rule_vertex_defect_l1"].measured == pytest.approx(0.0, abs=1e-10)
    assert by_id["chain_rule_extension_defect_l1"].measured == pytest.approx(0.0, abs=1e-10)
    assert not failures(rows)


def test_chain_rule_block_cutoff_rows_pass():
    rng = np.random.default_rng(15)
    f = random_expansion(rng, 8, degree=2)
    means = [rng.uniform(-0.9, 0.9, 8) for _ in range(4)]
    rows = audit_chain_rule_and_moments(f, CutoffShape(), means, seed=15)
    assert not failures(rows)
    swaps = [r for r in rows if r.check_id == "expectation_swap_equality"]
    assert len(swaps) == 4
    assert all(r.measured < 1e-10 for r in swaps)


def test_chain_rule_block_evaluates_h_over_the_table_once():
    rng = np.random.default_rng(16)
    f = random_expansion(rng, 6, degree=2)
    table_calls = []

    class CountingCutoff(CutoffShape):
        def value(self, x):
            if np.shape(x) == (1 << f.n,):
                table_calls.append(x)
            return super().value(x)

    audit_chain_rule_and_moments(f, CountingCutoff(), [rng.uniform(-0.9, 0.9, 6)])
    assert len(table_calls) == 1


def test_chain_rule_block_requires_second_derivative_bound():
    f = FourierExpansion.from_terms(4, [((0,), 1.0)])
    shape = CutoffShape()
    shape.d2_bound = None
    with pytest.raises(ValueError):
        audit_chain_rule_and_moments(f, shape, [])


# ---------------------------------------------------------------------------
# Large deviations
# ---------------------------------------------------------------------------


def test_large_deviations_rows_pass_on_witnessed_instance():
    f = build_hamiltonian(CurieWeissSpec(1.5, 10))
    fmax = float(vertex_values(f).max())
    cutoff = smoothed_cutoff_weights(f, 0.5 * fmax / 10, 0.05)
    rows = audit_large_deviations(cutoff)
    by_id = {r.check_id: r for r in rows}
    assert by_id["cutoff_tail_mass"].measured <= 2.0 ** -10 + 1e-9
    assert by_id["cutoff_total_variation"].measured <= 2.0 * 2.0 ** -10 + 1e-9
    assert not failures(rows)


def test_large_deviations_witness_missing_error_row():
    f = build_hamiltonian(LinearSpec((0.1, 0.2, -0.3, 0.1)))
    rows = audit_large_deviations(smoothed_cutoff_weights(f, 5.0, 0.05))
    assert len(rows) == 1
    assert rows[0].check_id == "witness_missing"
    assert rows[0].kind == "error" and not rows[0].passed


# ---------------------------------------------------------------------------
# Tightness demo
# ---------------------------------------------------------------------------


def test_counting_composition_matches_bruteforce_gradient():
    # the binomial-sum shortcut equals the dense-transform gradient at small n
    from mfgl.boolfn import compose, gradient_extension as grad

    n = 8
    f = FourierExpansion.from_terms(n, [((i,), 1.0) for i in range(n)])
    shape = CubicQuinticShape()
    hf = compose(f, shape.value)
    g0 = grad(hf, np.zeros(n))
    assert np.allclose(g0, g0[0])  # permutation symmetry
    assert n * abs(g0[0]) == pytest.approx(counting_composition_gradient_norm(n), abs=1e-9)


def test_counting_composition_pmf_matches_scipy_binomial():
    # the integer pmf agrees with scipy's binomial pmf to rounding
    from scipy import stats

    shape = CubicQuinticShape()
    for n in (2, 16, 64, 256, 1024, 4096):
        ks = np.arange(n)
        s = 2.0 * ks - (n - 1)
        halves = 0.5 * (shape.value(s + 1.0) - shape.value(s - 1.0))
        norm = counting_composition_gradient_norm(n)
        assert norm == pytest.approx(n * abs(float(stats.binom.pmf(ks, n - 1, 0.5) @ halves)),
                                     rel=1e-15)
        if n <= 1024:  # the recurrence's masses are math.comb's, bit for bit
            masses = np.array([math.comb(n - 1, k) / 2 ** (n - 1) for k in range(n)])
            assert norm == n * abs(float(masses @ halves))
        if n == 16:  # every product and partial sum is dyadic, so the norm is exact
            exact = n * abs(sum(Fraction(math.comb(n - 1, k), 2 ** (n - 1)) * Fraction(h)
                                for k, h in enumerate(halves)))
            assert norm == exact == 50.2734375


def test_counting_composition_comparison_term_vanishes():
    shape = CubicQuinticShape()
    assert float(shape.deriv1(0.0)) == 0.0


def test_tightness_slope_in_band():
    rows = tightness_demo([16, 64, 256, 1024])
    assert 1.4 <= rows[-1].instance["slope"] <= 1.6
    assert not failures(rows)
    ids = [r.check_id for r in rows]
    assert "growth_exponent_upper" in ids and "growth_exponent_lower" in ids


def test_tightness_rejects_tiny_sizes():
    with pytest.raises(ValueError):
        tightness_demo([4, 16])
