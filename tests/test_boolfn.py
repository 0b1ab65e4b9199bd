"""Fourier expansions: evaluation, gradients, Lipschitz constants, composition."""

import tracemalloc
from functools import cached_property
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from mfgl import DEFAULT_ENUM_CAP, boolfn, size_caps
from mfgl.boolfn import (
    CapExceeded,
    DimensionMismatch,
    FourierExpansion,
    add_linear,
    compose,
    eval_extension,
    from_vertex_values,
    flip_differences,
    gradient_extension,
    lipschitz,
    pairwise_form,
    vertex_values,
    walsh_hadamard,
)
from mfgl.complexity import complexity_params
from mfgl.gibbs import gibbs_measure, product_law
from mfgl.hamiltonians import (
    CurieWeissSpec,
    CutoffShape,
    SmoothedCutoffSpec,
    SparseFourierSpec,
    build_hamiltonian,
    smoothed_cutoff_weights,
)
from mfgl.meanfield import as_gradient_field, lambda_scan, residual_l1
from mfgl.transport import solve_w1

from conftest import (
    all_vertices,
    eval_direct,
    eval_extension_loop,
    gradient_direct,
    gradient_extension_loop,
    pairwise_form_loop,
    product_weights_direct,
    random_expansion,
)


def test_monomial_at_vertices():
    f = FourierExpansion.from_terms(2, [((0, 1), 1.0)])
    assert eval_extension(f, [1.0, -1.0]) == -1.0
    assert eval_extension(f, [0.5, 0.5]) == 0.25


def test_extension_is_product_expectation():
    # harmonic extension at z equals the exhaustive product-law expectation
    rng = np.random.default_rng(11)
    for _ in range(5):
        n = int(rng.integers(3, 7))
        f = random_expansion(rng, n, degree=3)
        z = rng.uniform(-0.9, 0.9, n)
        weights = product_weights_direct(z)
        coords = all_vertices(n)
        expected = sum(w * eval_direct(f, c) for w, c in zip(weights, coords))
        assert eval_extension(f, z) == pytest.approx(expected, abs=1e-10)


def test_gradient_of_linear_is_constant():
    mu = np.array([0.3, -1.2, 0.7])
    f = FourierExpansion.from_terms(3, [((i,), mu[i]) for i in range(3)])
    rng = np.random.default_rng(0)
    for _ in range(4):
        x = rng.uniform(-1, 1, 3)
        assert np.array_equal(gradient_extension(f, x), mu)


def test_gradient_matches_flip_definition_at_vertices():
    rng = np.random.default_rng(5)
    f = random_expansion(rng, 5, degree=3)
    vertices = all_vertices(5)
    for v in [0, 7, 19, 31]:
        coords = vertices[v]
        assert gradient_extension(f, coords) == pytest.approx(gradient_direct(f, coords), abs=1e-12)


def test_gradient_matches_central_difference():
    # multilinear in each coordinate, so any step size is exact up to rounding
    rng = np.random.default_rng(7)
    f = random_expansion(rng, 6, degree=3)
    x = rng.uniform(-0.8, 0.8, 6)
    g = gradient_extension(f, x)
    h = 0.25
    for i in range(6):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        fd = (eval_extension(f, xp) - eval_extension(f, xm)) / (2 * h)
        assert g[i] == pytest.approx(fd, abs=1e-12)


def test_gradient_safe_at_zero_coordinates():
    f = FourierExpansion.from_terms(3, [((0, 1, 2), 2.0)])
    g = gradient_extension(f, [0.0, 0.5, 0.5])
    assert g == pytest.approx([0.5, 0.0, 0.0])


# Coordinate 0 lies in 16 terms whose shares sum to 1.0 one after another but
# to 1.0000000000000002 in numpy's pairwise (8-accumulator) order.
HUB = FourierExpansion(5, np.arange(1, 32, 2), np.array([1.0] + [1e-16] * 15))


@st.composite
def kernel_cases(draw):
    """An expansion with n <= 10, points of shape (n,), (B, n) or (B1, B2, n)
    with zero coordinates among them, and a block constant, often tiny."""
    n = draw(st.integers(1, 10))
    masks = sorted(draw(st.sets(st.integers(0, (1 << n) - 1), max_size=40)))
    coeffs = draw(st.lists(st.floats(-1e3, 1e3), min_size=len(masks), max_size=len(masks)))
    batch = draw(st.sampled_from([(), (3,), (2, 3)]))
    x = draw(arrays(np.float64, batch + (n,),
                    elements=st.one_of(st.just(0.0), st.floats(-1.0, 1.0))))
    block = draw(st.one_of(st.just(boolfn._BLOCK_ENTRIES), st.integers(1, 64)))
    return FourierExpansion(n, np.array(masks, dtype=np.int64), np.array(coeffs)), x, block


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


@settings(max_examples=150, deadline=None, database=None)
@given(case=kernel_cases())
@example(case=(FourierExpansion(4), np.zeros((2, 4)), 1 << 18))
@example(case=(FourierExpansion(3, np.array([0, 5, 7]), np.array([2.5, -1.0, 0.5])),
               np.array([0.0, -0.5, 0.25]), 1))
@example(case=(HUB, np.ones(5), 1 << 18))
@example(case=(HUB, np.ones((2, 5)), 7))
def test_extension_kernels_match_the_per_term_loops_bit_for_bit(case):
    f, x, block = case
    with mock.patch.object(boolfn, "_BLOCK_ENTRIES", block):
        value, grad = eval_extension(f, x), gradient_extension(f, x)
    expected = eval_extension_loop(f, x)
    assert type(value) is type(expected)
    assert np.array_equal(_bits(value), _bits(expected))
    assert grad.shape == x.shape
    assert np.array_equal(_bits(grad), _bits(gradient_extension_loop(f, x)))


def test_hub_example_separates_sequential_from_pairwise_sums():
    shares = HUB.coeffs[HUB.masks & 1 == 1]
    assert shares.size >= 9
    assert gradient_extension_loop(HUB, np.ones(5))[0] == 1.0 != np.sum(shares)


def test_gradient_memory_is_bounded_by_the_block():
    # 8,192 terms of degree up to 14: unblocked, one call peaks near 47 MB
    f = build_hamiltonian(SmoothedCutoffSpec(CurieWeissSpec(1.5, 14), 0.4, 0.05))
    x = np.random.default_rng(3).uniform(-1.0, 1.0, (17, 14))
    tracemalloc.start()
    try:
        gradient_extension(f, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the term index plus about six block-sized float arrays at once
    index_bytes = f.masks.size * f.degree() * 8
    assert peak < index_bytes + 8 * 8 * boolfn._BLOCK_ENTRIES


def test_vertex_values_match_direct_eval():
    rng = np.random.default_rng(3)
    f = random_expansion(rng, 4, degree=4)
    values = vertex_values(f)
    for v, coords in enumerate(all_vertices(4)):
        assert values[v] == pytest.approx(eval_direct(f, coords), abs=1e-12)


def test_vertex_table_is_built_once_and_read_only(monkeypatch):
    f = random_expansion(np.random.default_rng(5), 5, degree=3)
    sizes = []
    transform = boolfn.walsh_hadamard
    monkeypatch.setattr(boolfn, "walsh_hadamard", lambda a: sizes.append(a.size) or transform(a))
    values = vertex_values(f)
    assert vertex_values(f) is values and flip_differences(vertex_values(f)).shape == (5, 32)
    assert sizes == [32]
    with pytest.raises(ValueError, match="read-only"):
        values[0] = 1.0


def test_term_index_and_pairwise_form_are_built_once_and_read_only(monkeypatch):
    builds = []
    for name in ("_terms", "_pairwise"):
        cached = vars(FourierExpansion)[name]
        assert isinstance(cached, cached_property), f"{name} is not kept on the expansion"
        monkeypatch.setattr(cached, "func", lambda self, build=cached.func, name=name:
                            builds.append(name) or build(self))
    f = build_hamiltonian(CurieWeissSpec(1.5, 10))
    x = np.random.default_rng(4).uniform(-1.0, 1.0, (3, 10))
    eval_extension(f, x)
    gradient_extension(f, x)
    as_gradient_field(f)(x)
    residual_l1(f, x[0])
    lambda_scan(f, 0.675, 0.05, lambda_grid=np.array([0.44, 0.5]))
    assert sorted(builds) == ["_pairwise", "_terms"]
    a, mu = pairwise_form(f)
    assert pairwise_form(f)[0] is a and a.flags.c_contiguous
    for table in (f._terms, a, mu):
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 0


_PAIRWISE_MASKS = {n: [0] + [1 << i | 1 << j for i in range(n) for j in range(i, n)]
                   for n in range(1, 9)}


@st.composite
def pairwise_expansions(draw):
    """Degree <= 2 expansions on n <= 8 built straight from masks, so a -0.0
    coefficient survives; the constant and singletons are among the masks."""
    n = draw(st.integers(1, 8))
    masks = sorted(draw(st.sets(st.sampled_from(_PAIRWISE_MASKS[n]), max_size=20)))
    coeffs = draw(st.lists(st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e3, 1e3)),
                           min_size=len(masks), max_size=len(masks)))
    return FourierExpansion(n, np.array(masks, dtype=np.int64), np.array(coeffs))


@settings(max_examples=150, deadline=None, database=None)
@given(f=pairwise_expansions())
@example(f=FourierExpansion(4))
@example(f=FourierExpansion(3, np.array([0]), np.array([2.5])))
@example(f=FourierExpansion(3, np.array([1, 2, 4]), np.array([-0.0, 1.5, 0.0])))
@example(f=FourierExpansion(3, np.array([0, 3, 6]), np.array([1.0, -0.0, -2.0])))
def test_pairwise_form_matches_the_per_mask_loop_bit_for_bit(f):
    a, mu = pairwise_form(f)
    a_loop, mu_loop = pairwise_form_loop(f)
    assert a.flags.c_contiguous and a.shape == (f.n, f.n)
    assert np.array_equal(_bits(a), _bits(a_loop)) and np.array_equal(_bits(mu), _bits(mu_loop))


def test_pairwise_form_is_none_above_degree_two():
    assert pairwise_form(FourierExpansion.from_terms(3, [((0, 1, 2), 1.0), ((0,), 0.5)])) is None


def test_cap_is_checked_after_the_table_is_kept():
    f = random_expansion(np.random.default_rng(6), 6, degree=2)
    vertex_values(f)
    gibbs_measure(f)
    with size_caps(f.n - 1):
        with pytest.raises(CapExceeded):
            vertex_values(f)
        with pytest.raises(CapExceeded):
            gibbs_measure(f)


def test_size_caps_nest_and_restore_the_outer_caps():
    f = random_expansion(np.random.default_rng(6), 6, degree=2)
    with size_caps(f.n - 1, 8):
        with size_caps(f.n):
            vertex_values(f)
        with pytest.raises(CapExceeded):
            vertex_values(f)
        with pytest.raises(RuntimeError), size_caps(f.n):
            raise RuntimeError("leaves the inner block")
        with pytest.raises(CapExceeded):
            vertex_values(f)
        with pytest.raises(CapExceeded, match="cap is 8"):
            solve_w1(np.full(16, 1 / 16), np.full(16, 1 / 16), 4)
    vertex_values(f)
    assert solve_w1(np.full(16, 1 / 16), np.full(16, 1 / 16), 4).value == 0.0


def test_transform_round_trip():
    rng = np.random.default_rng(9)
    values = rng.normal(size=32)
    f = from_vertex_values(5, values, prune=0.0)
    assert vertex_values(f) == pytest.approx(values, abs=1e-12)


def test_walsh_hadamard_self_inverse():
    rng = np.random.default_rng(13)
    a = rng.normal(size=16)
    assert walsh_hadamard(walsh_hadamard(a)) / 16 == pytest.approx(a, abs=1e-12)


@st.composite
def expansions(draw, max_n=8):
    n = draw(st.integers(1, max_n))
    terms = draw(st.lists(st.tuples(st.integers(0, (1 << n) - 1),
                                    st.floats(-10.0, 10.0, allow_nan=False)), max_size=12))
    return FourierExpansion.from_terms(n, terms)


@settings(max_examples=60, deadline=None, database=None)
@given(f=expansions())
def test_gradient_tables_match_flip_definition(f):
    tables = flip_differences(vertex_values(f))
    tol = 1e-12 * (1.0 + float(np.abs(vertex_values(f)).max()))
    for v, coords in enumerate(all_vertices(f.n)):
        assert np.abs(tables[:, v] - gradient_direct(f, coords)).max() <= tol


def test_walsh_hadamard_matches_definition_and_keeps_input():
    rng = np.random.default_rng(12)
    a = rng.normal(size=32)
    before = a.copy()
    signs = np.array([[(-1.0) ** bin(s & v).count("1") for v in range(32)] for s in range(32)])
    assert walsh_hadamard(a) == pytest.approx(signs @ a, abs=1e-12)
    assert np.array_equal(a, before)


def test_lipschitz_l1_linear():
    mu = np.array([0.3, -1.2, 0.7])
    f = FourierExpansion.from_terms(3, [((i,), mu[i]) for i in range(3)])
    assert lipschitz(f)[0] == pytest.approx(1.2)


def test_lipschitz_l1_brute_force():
    rng = np.random.default_rng(21)
    for _ in range(5):
        f = random_expansion(rng, 6, degree=2)
        brute = max(
            abs(gradient_direct(f, coords)[i])
            for coords in all_vertices(6)
            for i in range(6)
        )
        assert lipschitz(f)[0] == pytest.approx(brute, abs=1e-12)


def test_lipschitz_l2_linear_is_zero():
    f = FourierExpansion.from_terms(4, [((i,), 1.0) for i in range(4)])
    assert lipschitz(f)[1] == 0.0


def test_lipschitz_l2_curie_weiss_matrix():
    # couplings beta/n off-diagonal: gradient is A x, contraction factor <= beta
    beta, n = 1.7, 6
    terms = [((i, j), beta / n) for i in range(n) for j in range(i + 1, n)]
    f = FourierExpansion.from_terms(n, terms)
    assert lipschitz(f)[1] <= beta + 1e-12


def _l2_all_pairs(f):
    tables = flip_differences(vertex_values(f))
    size = 1 << f.n
    best = 0.0
    for u in range(size):
        for v in range(u + 1, size):
            dist = bin(u ^ v).count("1")
            num = float(np.abs(tables[:, u] - tables[:, v]).sum())
            best = max(best, num / (2.0 * dist))
    return best


def test_lipschitz_l2_hamming1_equals_all_pairs():
    rng = np.random.default_rng(33)
    for _ in range(6):
        n = int(rng.integers(3, 7))
        f = random_expansion(rng, n, degree=3)
        assert lipschitz(f)[1] == _l2_all_pairs(f)


def test_l1_bound_on_vertex_pairs():
    rng = np.random.default_rng(41)
    f = random_expansion(rng, 6, degree=3)
    l1 = lipschitz(f)[0]
    values = vertex_values(f)
    coords = all_vertices(6)
    for _ in range(50):
        u, v = rng.integers(0, 64, 2)
        gap = abs(values[u] - values[v])
        assert gap <= l1 * np.abs(coords[u] - coords[v]).sum() + 1e-12


def test_multilinearity_random_slice():
    rng = np.random.default_rng(55)
    f = random_expansion(rng, 5, degree=3)
    x = rng.uniform(-1, 1, 5)
    i = int(rng.integers(0, 5))
    ts = rng.uniform(-1, 1, 3)
    vals = []
    for t in ts:
        y = x.copy()
        y[i] = t
        vals.append(eval_extension(f, y))
    # affine in coordinate i: second difference along the slice vanishes
    slope01 = (vals[1] - vals[0]) / (ts[1] - ts[0])
    slope02 = (vals[2] - vals[0]) / (ts[2] - ts[0])
    assert slope01 == pytest.approx(slope02, abs=1e-9)


def test_tanh_contraction_helper():
    rng = np.random.default_rng(60)
    u = rng.normal(size=200) * 3
    v = rng.normal(size=200) * 3
    assert np.all(np.abs(np.tanh(u) - np.tanh(v)) <= np.abs(u - v) + 1e-15)


def test_compose_identity_preserves_truth_table():
    rng = np.random.default_rng(61)
    f = random_expansion(rng, 5, degree=3)
    g = compose(f, lambda x: x)
    assert vertex_values(g) == pytest.approx(vertex_values(f), abs=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_vertex_values_are_refused(bad):
    # a NaN coefficient fails the pruning test, so the table would become the zero function
    values = np.arange(8.0)
    values[3] = bad
    with pytest.raises(ValueError, match="finite"):
        from_vertex_values(3, values)
    f = FourierExpansion.from_terms(3, [((0,), 1.0)])
    with pytest.raises(ValueError, match="finite"):
        compose(f, lambda x: np.where(x > 0, bad, x))


def test_compose_constant_function():
    f = FourierExpansion.from_terms(4, [((), -0.7)])
    g = compose(f, CutoffShape())
    assert g.masks.tolist() == [0]
    assert g.coeffs[0] == pytest.approx(-0.49)


def test_compose_round_trip_with_cutoff():
    rng = np.random.default_rng(62)
    f = random_expansion(rng, 6, degree=3)
    h = CutoffShape()
    g = compose(f, h)
    expected = np.asarray(h.value(vertex_values(f)))
    assert np.abs(vertex_values(g) - expected).max() < 1e-10


def test_zero_function_everywhere():
    z = FourierExpansion(4)
    assert eval_extension(z, np.zeros(4)) == 0.0
    assert np.array_equal(gradient_extension(z, np.ones(4)), np.zeros(4))
    assert lipschitz(z) == (0.0, 0.0)
    assert vertex_values(z) == pytest.approx(np.zeros(16))


def test_shift_invariance_of_terms():
    f = FourierExpansion.from_terms(3, [((0,), 1.0)])
    g = add_linear(f, np.zeros(3), 17.0)
    assert (g.masks[0], g.coeffs[0]) == (0, 17.0)
    assert vertex_values(g) == pytest.approx(vertex_values(f) + 17.0)


def test_dimension_mismatch_errors():
    f = FourierExpansion.from_terms(3, [((0,), 1.0)])
    with pytest.raises(DimensionMismatch):
        eval_extension(f, [1.0, -1.0])
    with pytest.raises(DimensionMismatch):
        gradient_extension(f, np.zeros(5))


# Every entry point that builds a 2^n table, called on a degree-3 spec
TABLE_ENTRY_POINTS = {
    "vertex_values": lambda spec: vertex_values(build_hamiltonian(spec)),
    "lipschitz": lambda spec: lipschitz(build_hamiltonian(spec)),
    "compose": lambda spec: compose(build_hamiltonian(spec), np.tanh),
    "gibbs_measure": lambda spec: gibbs_measure(build_hamiltonian(spec)),
    "product_law": lambda spec: product_law(np.zeros(spec.n)),
    "smoothed_cutoff_weights":
        lambda spec: smoothed_cutoff_weights(build_hamiltonian(spec), 0.0, 0.5),
    "SmoothedCutoffSpec.build": lambda spec: SmoothedCutoffSpec(spec, 0.0, 0.5).build(),
    "complexity_params": lambda spec: complexity_params(build_hamiltonian(spec), samples=64),
}


@pytest.mark.parametrize("entry", list(TABLE_ENTRY_POINTS))
def test_enumeration_cap(entry):
    build = TABLE_ENTRY_POINTS[entry]
    terms = (((0, 1, 2), 0.5), ((1,), -1.0))
    with pytest.raises(CapExceeded):
        build(SparseFourierSpec(DEFAULT_ENUM_CAP + 1, terms))
    spec = SparseFourierSpec(6, terms)
    build(spec)
    with size_caps(spec.n - 1), pytest.raises(CapExceeded):
        build(spec)


def test_term_validation():
    with pytest.raises(ValueError):
        FourierExpansion(3, np.array([8]), np.array([1.0]))  # bit outside low 3
    with pytest.raises(ValueError):
        FourierExpansion(3, np.array([1, 1]), np.array([1.0, 2.0]))  # duplicate
    f = FourierExpansion.from_terms(3, [((0,), 1.0), ((0,), -1.0)])
    assert f.masks.size == 0  # zero coefficients dropped
