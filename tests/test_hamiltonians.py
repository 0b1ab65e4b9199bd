"""Hamiltonian catalog, scalar shapes, closed-form bounds, composition parameters."""

import json
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mfgl.boolfn import (
    FourierExpansion,
    eval_extension,
    flip_differences,
    gradient_extension,
    lipschitz,
    compose,
    pairwise_form,
    vertex_values,
)
from mfgl.complexity import GradientCloud, complexity_params, gaussian_width_mc
from mfgl.hamiltonians import (
    SPEC_TYPES,
    ComplexityParams,
    HamiltonianSpec,
    CurieWeissSpec,
    CutoffShape,
    InvalidSpec,
    IsingSpec,
    LinearSpec,
    CubicQuinticShape,
    SmoothedCutoffSpec,
    SparseFourierSpec,
    TriangleCountSpec,
    build_hamiltonian,
    composition_params,
    edge_index_map,
    smoothed_cutoff_weights,
    spec_from_dict,
)
from mfgl.meanfield import as_gradient_field

from conftest import all_vertices, random_expansion


# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------


def test_linear_vertex_values():
    theta = (0.2, -0.4, 1.0)
    f = build_hamiltonian(LinearSpec(theta))
    for coords in all_vertices(3):
        assert eval_extension(f, coords) == pytest.approx(np.dot(theta, coords))


def test_curie_weiss_pair_coefficient_and_n3_oracle():
    beta, n = 1.3, 3
    f = build_hamiltonian(CurieWeissSpec(beta, n))
    # pair coefficient is 2*beta/n because the ordered sum visits each pair twice
    assert np.allclose(f.coeffs, 2.0 * beta / n)
    assert f.masks.size == 3
    for coords in all_vertices(n):
        direct = sum(
            beta / n * coords[i] * coords[j]
            for i in range(n) for j in range(n) if i != j
        )
        assert eval_extension(f, coords) == pytest.approx(direct, abs=1e-12)
    assert eval_extension(f, np.ones(n)) == pytest.approx(2.0 * beta)


def test_curie_weiss_closed_form_gradient_matches_expansion():
    f = build_hamiltonian(CurieWeissSpec(0.8, 5))
    field = as_gradient_field(f)
    rng = np.random.default_rng(1)
    for _ in range(4):
        x = rng.uniform(-1, 1, 5)
        assert field(x) == pytest.approx(gradient_extension(f, x), abs=1e-12)


def test_triangle_count_all_ones_value():
    beta, big_n = 0.9, 3
    f = build_hamiltonian(TriangleCountSpec(beta, big_n))
    # ordered pairwise-distinct triples: N(N-1)(N-2) of them, so value 2*beta at all-ones
    assert eval_extension(f, np.ones(3)) == pytest.approx(2.0 * beta)


def test_triangle_count_direct_summation_oracle():
    beta, big_n = 0.9, 4
    f = build_hamiltonian(TriangleCountSpec(beta, big_n))
    edges = edge_index_map(big_n)
    n = f.n

    def direct(coords):
        total = 0.0
        for i in range(big_n):
            for j in range(big_n):
                for k in range(big_n):
                    if len({i, j, k}) == 3:
                        e = lambda a, b: coords[edges[(min(a, b), max(a, b))]]
                        total += e(i, j) * e(j, k) * e(k, i)
        return beta / big_n * total

    for coords in all_vertices(n):
        assert eval_extension(f, coords) == pytest.approx(direct(coords), abs=1e-10)


def test_ising_gradient_closed_form_equals_generic_at_every_vertex():
    rng = np.random.default_rng(4)
    n = 5
    a = rng.normal(size=(n, n))
    a = (a + a.T) / 2
    np.fill_diagonal(a, 0.0)
    mu = rng.normal(size=n)
    f = build_hamiltonian(IsingSpec(tuple(map(tuple, a.tolist())), tuple(mu.tolist())))
    field = as_gradient_field(f)
    for coords in all_vertices(n):
        closed = field(coords)
        assert np.array_equal(closed, coords @ a + mu)
        assert closed == pytest.approx(gradient_extension(f, coords), abs=1e-12)


def test_ising_lipschitz_bounds_hold_exactly():
    rng = np.random.default_rng(6)
    n = 6
    a = rng.normal(size=(n, n))
    a = (a + a.T) / 2
    np.fill_diagonal(a, 0.0)
    mu = rng.normal(size=n)
    f = build_hamiltonian(IsingSpec(tuple(map(tuple, a.tolist())), tuple(mu.tolist())))
    mu_max = np.abs(mu).max()
    row = np.abs(a).sum(axis=1).max()
    l1, l2 = lipschitz(f)
    assert l1 <= mu_max + row + 1e-12
    assert l2 <= row + 1e-12


def test_sparse_fourier_spec_round_trip():
    spec = SparseFourierSpec(4, (((0, 2), 1.5), ((1,), -0.5)))
    f = build_hamiltonian(spec)
    assert eval_extension(f, np.ones(4)) == pytest.approx(1.0)


def test_spec_validation_errors():
    with pytest.raises(InvalidSpec):
        IsingSpec(((0.0, 1.0), (2.0, 0.0)), (0.0, 0.0))  # asymmetric
    with pytest.raises(InvalidSpec):
        IsingSpec(((1.0, 0.0), (0.0, 0.0)), (0.0, 0.0))  # nonzero diagonal
    with pytest.raises(InvalidSpec):
        CurieWeissSpec(-1.0, 4)
    with pytest.raises(InvalidSpec):
        SmoothedCutoffSpec(CurieWeissSpec(1.0, 4), 0.5, 0.0)
    with pytest.raises(InvalidSpec):
        SmoothedCutoffSpec({"type": "curie_weiss", "beta": 1.0, "n": 4}, 0.5, 0.1)
    with pytest.raises(InvalidSpec):
        SparseFourierSpec(3, (((0, 5), 1.0),))
    # integer fields take integral numbers; fractions are refused, not truncated
    assert CurieWeissSpec(1.5, 6.0).n == 6
    with pytest.raises(InvalidSpec):
        CurieWeissSpec(1.5, 6.9)
    with pytest.raises(InvalidSpec):
        TriangleCountSpec(1.0, float("inf"))
    with pytest.raises(InvalidSpec):
        SparseFourierSpec(3, (((0, 1.7), 1.0),))
    # a spec has at least one coordinate
    for make in (lambda: IsingSpec(np.zeros((0, 0)), np.zeros(0)),
                 lambda: SparseFourierSpec(0, ()),
                 lambda: SparseFourierSpec(-3, ())):
        with pytest.raises(InvalidSpec, match="at least one coordinate"):
            make()


def test_specs_refuse_dimensions_the_masks_cannot_hold():
    # int64 masks hold coordinates 0..62, so n = 63 is the largest dimension
    top = build_hamiltonian(SparseFourierSpec(63, (((0, 62), 1.0),)))
    assert top.n == 63 and top.masks.tolist() == [1 | 1 << 62]
    assert build_hamiltonian(CurieWeissSpec(1.0, 63)).n == 63
    assert TriangleCountSpec(1.0, 11).n == 55
    for make in (lambda: CurieWeissSpec(1.0, 64),
                 lambda: SparseFourierSpec(64, (((0,), 1.0),)),
                 lambda: SparseFourierSpec(70, (((65,), 1.0),)),
                 lambda: TriangleCountSpec(1.0, 12),  # 66 edges
                 lambda: LinearSpec(tuple(np.ones(64))),
                 lambda: IsingSpec(tuple(map(tuple, np.zeros((64, 64)))), tuple(np.zeros(64)))):
        with pytest.raises(InvalidSpec, match="exceeds 63"):
            make()


def test_a_huge_curie_weiss_spec_is_refused_before_any_work():
    start = time.perf_counter()
    with pytest.raises(InvalidSpec, match="n = 3000 exceeds 63"):
        CurieWeissSpec(1.0, 3000)
    assert time.perf_counter() - start < 1.0


_reals = st.floats(-4.0, 4.0, allow_nan=False)


def _ising(n: int, upper: list, field: list) -> IsingSpec:
    a = np.zeros((n, n))
    a[np.triu_indices(n, 1)] = upper
    return IsingSpec((a + a.T).tolist(), field)


def _sparse_fourier(n: int):
    terms = st.lists(st.tuples(st.sets(st.integers(0, n - 1), max_size=3), _reals), max_size=8)
    return st.builds(SparseFourierSpec, st.just(n), terms.map(tuple))


_linear = st.lists(_reals, min_size=1, max_size=6).map(LinearSpec)
_curie_weiss = st.builds(CurieWeissSpec, st.floats(0.01, 4.0), st.integers(2, 8))
_sparse = st.integers(1, 6).flatmap(_sparse_fourier)

# Spec type tag -> strategy; the property test runs once per registered tag.
SPEC_STRATEGIES = {
    "linear": _linear,
    "ising": st.integers(1, 5).flatmap(lambda n: st.builds(
        _ising, st.just(n), st.lists(_reals, min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2),
        st.lists(_reals, min_size=n, max_size=n))),
    "curie_weiss": _curie_weiss,
    "triangle_count": st.builds(TriangleCountSpec, _reals, st.integers(3, 5)),
    "sparse_fourier": _sparse,
    "smoothed_cutoff": st.builds(SmoothedCutoffSpec, st.one_of(_linear, _curie_weiss, _sparse),
                                 st.floats(-1.0, 1.0), st.floats(0.01, 1.0)),
}


@pytest.mark.parametrize("kind", list(SPEC_TYPES))
@settings(max_examples=30, deadline=None, database=None)
@given(data=st.data())
def test_spec_json_round_trip_and_build(kind, data):
    spec = data.draw(SPEC_STRATEGIES[kind])
    assert spec_from_dict(json.loads(json.dumps(spec.to_dict()))) == spec
    assert isinstance(build_hamiltonian(spec), FourierExpansion)


@settings(max_examples=50, deadline=None, database=None)
@given(spec=st.builds(CurieWeissSpec, st.floats(0.01, 4.0), st.integers(2, 21)))
def test_curie_weiss_builds_two_beta_over_n_on_every_pair(spec):
    # built with 2 (beta / n), which is 2 beta / n bit for bit at these beta and n
    f = build_hamiltonian(spec)
    n = spec.n
    pairs = [(1 << i) | (1 << j) for i in range(n) for j in range(i + 1, n)]
    assert sorted(f.masks.tolist()) == sorted(pairs)
    assert f.coeffs.tobytes() == np.full(len(pairs), 2.0 * spec.beta / n).tobytes()


def test_every_spec_type_is_registered():
    assert set(HamiltonianSpec.__subclasses__()) == set(SPEC_TYPES.values())
    assert all(cls.type == kind for kind, cls in SPEC_TYPES.items())


def test_curie_weiss_matrices_match_literal_pair_coefficient():
    # twice the interaction matrix is bit-identical to 2 beta / n off the diagonal
    for beta, n in [(1.5, 10), (2.0, 6), (0.3, 7), (1.0 / 3.0, 13)]:
        a, mu = pairwise_form(build_hamiltonian(CurieWeissSpec(beta, n)))
        assert np.array_equal(a, 2.0 * beta / n * (np.ones((n, n)) - np.eye(n)))
        assert np.array_equal(mu, np.zeros(n))


# ---------------------------------------------------------------------------
# Closed-form complexity bounds
# ---------------------------------------------------------------------------


def test_ising_bounds_trivial_instance():
    p = complexity_params(FourierExpansion(4))
    assert (p.d, p.d_stderr, p.d_lower, p.d_upper, p.l1, p.l2) == (0.0, 0.0, 0.0, 0.0, 1.0, 1.0)
    # above degree 2 the width is sampled over the vertex table, with no certified ends
    p = complexity_params(FourierExpansion.from_terms(3, [((0, 1, 2), 1.0)]), samples=100)
    assert (p.d_lower, p.d_upper) == (None, None)


def test_pairwise_params_refuse_an_overflow():
    # the row norms of A are taken scale-safely, so couplings of 1e160, whose squares
    # overflow, give the finite D = sqrt(2/pi) 3 sqrt(2) 1e160.  At 1e308 the row sums
    # of |A|, and with them L1, overflow: refused, with no numpy warning
    a = np.ones((3, 3)) - np.eye(3)
    p = complexity_params(build_hamiltonian(IsingSpec(1e160 * a, np.zeros(3))))
    assert p.d == pytest.approx(math.sqrt(2 / math.pi) * 3e160 * math.sqrt(2), rel=1e-15)
    assert p.l1 == p.l2 == 2e160
    with pytest.raises(ValueError, match="must be finite"):
        complexity_params(build_hamiltonian(IsingSpec(1e308 * a, np.zeros(3))))


def test_curie_weiss_as_ising_width_bound():
    # mu = 0: D = sqrt(2/pi) sum_i ||A_i||_2 = sqrt(2/pi) beta sqrt(n - 1) exactly, no draw
    beta, n = 1.4, 8
    a = np.full((n, n), beta / n)
    np.fill_diagonal(a, 0.0)
    p = complexity_params(build_hamiltonian(IsingSpec(a, np.zeros(n))))
    assert p.d == pytest.approx(math.sqrt(2 / math.pi) * beta * math.sqrt(n - 1), rel=1e-12)
    assert (p.d_stderr, p.d_lower, p.d_upper) == (0.0, p.d, p.d)


def test_mc_width_within_closed_form_bound():
    rng = np.random.default_rng(8)
    n = 8
    a = rng.normal(size=(n, n)) * 0.3
    a = (a + a.T) / 2
    np.fill_diagonal(a, 0.0)
    mu = rng.normal(size=n) * 0.2
    f = build_hamiltonian(IsingSpec(tuple(map(tuple, a.tolist())), tuple(mu.tolist())))
    p = complexity_params(f)
    width = gaussian_width_mc(GradientCloud(flip_differences(vertex_values(f)).T),
                              samples=20_000, seed=9)
    est, se = width.estimate, width.stderr
    assert p.d_lower - 3.0 * se <= est <= p.d_upper + 3.0 * se


# ---------------------------------------------------------------------------
# Scalar shapes
# ---------------------------------------------------------------------------


def test_cutoff_shape_pinned_values():
    h = CutoffShape()
    assert [float(h.value(x)) for x in (-2.0, -1.0, 0.0, 3.0)] == [-3.0, -1.0, 0.0, 0.0]


def test_cutoff_shape_derivative_bounds_and_monotonicity():
    h = CutoffShape()
    xs = np.linspace(-4, 4, 2001)
    vals, d1, d2 = h.value(xs), h.deriv1(xs), h.deriv2(xs)
    assert np.all(np.abs(d1) <= 2.0) and np.all(np.abs(d2) <= 2.0)
    assert np.all(np.diff(vals) >= -1e-15)  # monotone nondecreasing
    assert np.all(d1 >= 0.0)


def test_cutoff_shape_one_sided_derivatives_at_knots():
    h = CutoffShape()
    eps = 1e-9
    for knot in (-1.0, 0.0):
        left = float(h.deriv1(knot - eps))
        right = float(h.deriv1(knot + eps))
        assert left == pytest.approx(right, abs=1e-8)


def test_cutoff_shape_defaults_are_the_literal_ramp():
    # n = 1, t = 0, delta = 1: every scaling step is exact, so the shape is
    # the ramp bit for bit, signs of zero included
    h = CutoffShape()
    xs = np.array([-np.inf, -3.5, -1.0 - 2**-52, -1.0, -1.0 + 2**-53, -0.5, -1e-200, -0.0,
                   0.0, 1e-300, 2.0, np.inf])
    ramp = np.where(xs <= -1.0, 2.0 * xs + 1.0, np.where(xs < 0.0, -xs * xs, 0.0))
    d1 = np.where(xs <= -1.0, 2.0, np.where(xs < 0.0, -2.0 * xs, 0.0))
    d2 = np.where(xs <= -1.0, 0.0, np.where(xs < 0.0, -2.0, 0.0))
    for got, want in ((h.value(xs), ramp), (h.deriv1(xs), d1), (h.deriv2(xs), d2)):
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))
    assert np.signbit(h.value(-1e-200))  # the grid reaches a -0.0 value: -(1e-200)^2 underflows
    assert (h.n, h.t, h.delta, h.d1_bound, h.d2_bound) == (1, 0.0, 1.0, 2.0, 2.0)


def test_cubic_quintic_shape_knot_continuity_and_flat_origin():
    h = CubicQuinticShape()
    # cubic-quintic branch 3/4 - 1/4 = 1/2 meets the quadratic branch at 1
    assert float(h.value(1.0)) == pytest.approx(0.5)
    assert float(h.value(1.0 - 1e-10)) == pytest.approx(0.5, abs=1e-9)
    assert float(h.deriv1(0.0)) == 0.0
    eps = 1e-9
    for knot in (-1.0, 1.0):
        assert float(h.deriv1(knot - eps)) == pytest.approx(float(h.deriv1(knot + eps)), abs=1e-8)
    xs = np.linspace(-3, 3, 2001)
    assert np.all(np.abs(h.deriv2(xs)) <= h.d2_bound + 1e-12)


def test_scaled_cutoff_bounds_and_sign():
    psi = CutoffShape(10, 0.4, 0.05)
    xs = np.linspace(-30, 30, 1001)
    assert np.all(psi.value(xs) <= 0.0)
    assert np.all(np.abs(psi.deriv1(xs)) <= 2.0 / 0.05 + 1e-12)
    assert np.all(np.abs(psi.deriv2(xs)) <= 2.0 / (10 * 0.05**2) + 1e-12)
    assert psi.d1_bound == pytest.approx(40.0)


# ---------------------------------------------------------------------------
# Smoothed cutoff weights
# ---------------------------------------------------------------------------


def test_smoothed_cutoff_weight_bands():
    rng = np.random.default_rng(12)
    f = random_expansion(rng, 8, degree=2)
    n = f.n
    fvals = vertex_values(f)
    t = 0.5 * float(fvals.max()) / n
    cut = smoothed_cutoff_weights(f, t, 0.05)
    assert cut.delta_prime == pytest.approx((math.log(4.0) + 1.0) / 2.0 * 0.05)
    # top band: g = 0 exactly and phi = 1
    assert np.all(cut.g_values[cut.top_mask] == 0.0)
    assert np.all(cut.log_phi[cut.top_mask] == 0.0)
    # zero band: phi = 0 below (t - delta') n
    assert np.all(np.isneginf(cut.log_phi[cut.zero_mask]))
    # middle band: phi = exp(g) with g <= 0
    assert np.all(cut.g_values[cut.mid_mask] <= 0.0)
    assert np.array_equal(cut.log_phi[cut.mid_mask], cut.g_values[cut.mid_mask])
    # g <= 0 at every vertex and tabulates psi∘f
    assert np.all(cut.g_values <= 1e-12)
    assert np.array_equal(cut.g_values, cut.psi.value(fvals))


def test_smoothed_cutoff_spec_builds_composition():
    spec = SmoothedCutoffSpec(CurieWeissSpec(1.5, 6), 0.4, 0.1)
    f = build_hamiltonian(spec)
    inner = build_hamiltonian(spec.inner)
    psi = CutoffShape(6, 0.4, 0.1)
    expected = psi.value(vertex_values(inner))
    assert vertex_values(f) == pytest.approx(np.asarray(expected), abs=1e-9)


# ---------------------------------------------------------------------------
# Composition parameters
# ---------------------------------------------------------------------------


def test_composition_params_affine_shape():
    base = ComplexityParams(2.0, 1.5, 1.2)
    out = composition_params(0.7, 0.0, base, 10)
    assert out.d == pytest.approx(0.7 * 2.0)
    assert out.l3 == 0.0


def test_composition_params_large_deviation_instantiation():
    # b1 = 2/delta and b2 = 2/(n delta^2): the n in b2 L1^2 n cancels
    base = ComplexityParams(3.0, 2.0, 1.5)
    delta = 0.1
    for n in (8, 64):
        out = composition_params(2.0 / delta, 2.0 / (n * delta**2), base, n)
        assert out.d == pytest.approx(2.0 / delta * base.d + 2.0 / delta**2 * base.l1**2)
        assert out.l3 == pytest.approx(2.0 * (2.0 / delta**2) * base.l1**2 * math.sqrt(n))


def test_composition_params_pinned_example():
    out = composition_params(1.0, 1.0, ComplexityParams(0.0, 1.0, 1.0), 4)
    assert (out.d, out.l1, out.l2, out.l3) == (4.0, 1.0, 13.0, 16.0)


def test_composition_params_rejects_negative_bounds():
    with pytest.raises(ValueError):
        composition_params(-0.1, 0.0, ComplexityParams(0.0, 1.0, 1.0), 4)


def test_composition_lipschitz_bounds_hold_empirically():
    rng = np.random.default_rng(31)
    h = CutoffShape()
    for _ in range(4):
        n = int(rng.integers(5, 9))
        f = random_expansion(rng, n, degree=2)
        params = ComplexityParams.from_raw(0.0, *lipschitz(f))
        l1, l2 = lipschitz(compose(f, h.value))
        assert l1 <= h.d1_bound * params.l1 + 1e-9
        assert l2 <= h.d1_bound * params.l2 + 3.0 * h.d2_bound * params.l1**2 * n + 1e-9


def test_complexity_params_floors():
    with pytest.raises(ValueError):
        ComplexityParams(1.0, 0.5, 1.0)
    p = ComplexityParams.from_raw(0.0, 0.2, 0.3)
    assert (p.l1, p.l2) == (1.0, 1.0)
