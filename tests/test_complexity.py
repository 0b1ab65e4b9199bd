"""Gradient clouds and Monte-Carlo Gaussian width."""

import json
import logging
import math
import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import mfgl.boolfn as boolfn
import mfgl.complexity as complexity
from mfgl import size_caps
from mfgl.boolfn import FourierExpansion, flip_differences, lipschitz, vertex_values
from mfgl.complexity import (
    LEVEL1_FLOOR,
    PILOT_DRAWS,
    PLAIN_DRAWS,
    GradientCloud,
    PairwiseCloud,
    VertexCloud,
    complexity_params,
    gaussian_width_mc,
    width_samples,
)
from mfgl.hamiltonians import (
    ComplexityParams,
    CurieWeissSpec,
    SparseFourierSpec,
    TriangleCountSpec,
    build_hamiltonian,
    IsingSpec,
    spec_from_dict,
)
from conftest import flip_lipschitz_tables, random_expansion


def test_width_of_origin_cloud():
    for k in (0, 1):  # K empty or {0}: the width is over {0} either way
        cloud = GradientCloud(np.zeros((k, 6)))
        width = gaussian_width_mc(cloud, samples=100, seed=0)
        assert (width.estimate, width.stderr, width.winners) == (0.0, 0.0, k + 1)


def test_width_two_point_cloud_analytic():
    # sup over {mu} and the implicit origin is the positive part of
    # N(0, |mu|^2): mean |mu|/sqrt(2 pi)
    rng = np.random.default_rng(1)
    mu = rng.normal(size=7)
    cloud = GradientCloud(mu[None])
    width = gaussian_width_mc(cloud, samples=100_000, seed=2)
    est, se = width.estimate, width.stderr
    truth = np.linalg.norm(mu) / math.sqrt(2 * math.pi)
    assert abs(est - truth) <= 3 * se


def test_width_curie_weiss_within_closed_form():
    beta, n = 1.2, 8
    a = np.full((n, n), beta / n)
    np.fill_diagonal(a, 0.0)
    f = build_hamiltonian(IsingSpec(tuple(map(tuple, a.tolist())), tuple(np.zeros(n))))
    width = gaussian_width_mc(GradientCloud(flip_differences(vertex_values(f)).T),
                              samples=50_000, seed=3)
    est, se = width.estimate, width.stderr
    assert est <= beta * math.sqrt(n) + 3 * se


def test_width_monotone_under_inclusion():
    rng = np.random.default_rng(4)
    pts = rng.normal(size=(5, 4))
    small = GradientCloud(pts[:2])
    big = GradientCloud(pts)
    s_small = width_samples(small, 256, seed=5)
    s_big = width_samples(big, 256, seed=5)
    assert np.all(s_big >= s_small)


def test_width_scaling_per_draw():
    rng = np.random.default_rng(6)
    pts = rng.normal(size=(3, 5))
    base = width_samples(GradientCloud(pts), 128, seed=7)
    # power-of-two scaling commutes exactly with float rounding
    exact = width_samples(GradientCloud(2.0 * pts), 128, seed=7)
    assert np.array_equal(exact, 2.0 * base)
    general = width_samples(GradientCloud(2.5 * pts), 128, seed=7)
    assert general == pytest.approx(2.5 * base, rel=1e-14, abs=1e-13)


def test_width_reproducibility_bit_identical():
    rng = np.random.default_rng(8)
    cloud = GradientCloud(rng.normal(size=(10, 6)))
    a = gaussian_width_mc(cloud, samples=5000, seed=42)
    b = gaussian_width_mc(cloud, samples=5000, seed=42)
    assert a == b


@settings(max_examples=60, deadline=None, database=None)
@given(k=st.integers(0, 12), n=st.integers(1, 6), samples=st.integers(2, PLAIN_DRAWS),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_width_is_plain_monte_carlo_up_to_pilot_plus_level1(k, n, samples, seed, data):
    values = data.draw(st.lists(st.floats(-1e3, 1e3), min_size=k * n, max_size=k * n))
    cloud = GradientCloud(np.reshape(values, (k, n)))
    width = gaussian_width_mc(cloud, samples=samples, seed=seed)
    sups = width_samples(cloud, samples, seed=seed)
    assert width.estimate == float(sups.mean())
    assert width.stderr == float(sups.std(ddof=1) / np.sqrt(samples))
    assert (width.pilot_draws, width.winners, width.level0_draws) == (0, k + 1, samples)
    assert (width.level1_draws, width.level1_stderr, width.level1_nonzero) == (0, 0.0, 0)


def test_two_level_width_agrees_with_plain_where_winners_are_missed():
    # 4000 points on the unit sphere in R^16: the pilot finds ~500 of the
    # winners, so level 1 carries variance and Giles' rule sizes it above its floor
    rng = np.random.default_rng(13)
    x = rng.normal(size=(4000, 16))
    cloud = GradientCloud(x / np.linalg.norm(x, axis=1, keepdims=True))
    width = gaussian_width_mc(cloud, samples=20_000, seed=1)
    assert (width.pilot_draws, width.level0_draws) == (PILOT_DRAWS + LEVEL1_FLOOR, 20_000)
    assert LEVEL1_FLOOR < width.level1_draws <= PLAIN_DRAWS - width.pilot_draws
    assert width.winners < cloud.size and width.level1_nonzero > 0
    assert width.stderr == pytest.approx(math.hypot(width.level0_stderr, width.level1_stderr))
    plain = width_samples(cloud, 8192, seed=2)
    plain_se = plain.std(ddof=1) / math.sqrt(plain.size)
    assert abs(width.estimate - plain.mean()) <= 4 * math.hypot(width.stderr, plain_se)


@settings(max_examples=30, deadline=None, database=None)
@given(k=st.integers(0, 40), n=st.integers(1, 6),
       samples=st.integers(PLAIN_DRAWS + 1, 3 * PLAIN_DRAWS), seed=st.integers(0, 2**32 - 1),
       data=st.data())
def test_two_level_width_sizes_level1_within_its_floor_and_cap(k, n, samples, seed, data):
    values = data.draw(st.lists(st.floats(-1e3, 1e3), min_size=k * n, max_size=k * n))
    cloud = GradientCloud(np.reshape(values, (k, n)))
    sups, level1_samples = complexity._sups, complexity._level1_samples
    over_k, level1 = [], []  # draws per walk over K; (draws, samples) per level-1 batch

    def counted_sups(c, draws, winners=False):
        if c is cloud:
            over_k.append(draws.shape[0])
        return sups(c, draws, winners)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(complexity, "_sups", counted_sups)
        mp.setattr(complexity, "_level1_samples",
                   lambda *a: level1.append((a[-1], level1_samples(*a))) or level1[-1][1])
        width = gaussian_width_mc(cloud, samples=samples, seed=seed)
    (probe_g, probe), (fresh_g, fresh) = level1
    cap = PLAIN_DRAWS - PILOT_DRAWS - LEVEL1_FLOOR
    assert LEVEL1_FLOOR <= probe.size <= cap and LEVEL1_FLOOR <= fresh.size <= cap
    assert sum(over_k) == width.pilot_draws + width.level1_draws <= PLAIN_DRAWS
    assert np.all(probe >= 0) and np.all(fresh >= 0)
    if not probe.any():
        assert fresh.size == LEVEL1_FLOOR
    # level 1's mean comes from the draws after the probe in the level-1
    # stream, never from the probe's draws that sized it
    stream = np.random.default_rng(np.random.SeedSequence(seed).spawn(2)[1])
    assert np.array_equal(np.concatenate([probe_g, fresh_g]),
                          stream.standard_normal((probe.size + fresh.size, n)))
    assert (width.level1_draws, width.level1_nonzero) == (fresh.size, np.count_nonzero(fresh))
    assert width.level1_stderr == float(np.sqrt(fresh.var(ddof=1) / fresh.size))
    assert gaussian_width_mc(cloud, samples=samples, seed=seed) == width


def test_degree3_fixture_is_its_seeded_construction():
    # the two-level width's timing instance: 40 degree-3 terms over n = 20,
    # where the pilot misses winners and level 1 is nonzero on most draws;
    # time it with  mfgl analyze --spec tests/fixtures/sparse_fourier_deg3_n20.json
    rng = random.Random(20)
    terms = [{"subset": sorted(rng.sample(range(20), 3)), "coeff": rng.gauss(0.0, 1.0)}
             for _ in range(40)]
    spec = json.loads((Path(__file__).parent / "fixtures/sparse_fourier_deg3_n20.json").read_text())
    assert spec == {"type": "sparse_fourier", "n": 20, "terms": terms}
    f = build_hamiltonian(spec_from_dict(spec))
    assert (f.n, f.degree()) == (20, 3)


def test_width_logs_one_debug_line(caplog):
    cloud = GradientCloud(np.eye(3))  # |K u {0}| = 4
    gaussian_width_mc(cloud, samples=100, seed=0)
    assert not [r for r in caplog.records if r.name == "mfgl.complexity"]
    caplog.set_level(logging.DEBUG, logger="mfgl.complexity")
    gaussian_width_mc(cloud, samples=10_000, seed=0)
    (record,) = [r for r in caplog.records if r.name == "mfgl.complexity"]
    assert record.levelno == logging.DEBUG
    assert record.getMessage() == ("width over 4 points: 4 winners from 1024 pilot draws; "
                                   "level 0 10000 draws, level 1 512 draws with 0 nonzero")


def test_width_input_validation():
    cloud = GradientCloud(np.zeros((1, 3)))
    with pytest.raises(ValueError):
        gaussian_width_mc(cloud, samples=1, seed=0)


def test_complexity_params_zero_function():
    # degree 0 <= 2: A = 0 and mu = 0, so D = 0 in closed form at any draws, with no levels
    for samples in (100, 10_000):
        p = complexity_params(FourierExpansion(4), samples=samples, seed=0)
        assert (p.d, p.d_stderr, p.d_lower, p.d_upper, p.l1, p.l2) == (0.0, 0.0, 0.0, 0.0, 1.0, 1.0)
        assert p.d_levels is None


def test_complexity_params_random_instance():
    rng = np.random.default_rng(9)
    f = random_expansion(rng, 6, degree=3)
    p = complexity_params(f, samples=2000, seed=10)
    assert p.d > 0 and p.d_stderr > 0
    assert p.l1 >= 1.0 and p.l2 >= 1.0


def test_complexity_params_builds_tables_once(monkeypatch):
    sizes, tables = [], []
    transform, tabulate = boolfn.walsh_hadamard, boolfn.flip_differences
    monkeypatch.setattr(boolfn, "walsh_hadamard", lambda a: sizes.append(a.size) or transform(a))
    monkeypatch.setattr(boolfn, "flip_differences", lambda *a: tables.append(a) or tabulate(*a))
    f = random_expansion(np.random.default_rng(12), 6, degree=3)
    p = complexity_params(f, samples=500, seed=4)
    assert (sizes, tables) == ([64], [])
    # the streamed numbers are the ones the whole (n, 2^n) tables give
    monkeypatch.undo()
    grads = flip_differences(vertex_values(f))
    width = gaussian_width_mc(GradientCloud(grads.T), samples=500, seed=4)
    d, d_se = width.estimate, width.stderr
    assert p == ComplexityParams.from_raw(d, float(np.abs(grads).max()),
                                          flip_lipschitz_tables(grads),
                                          d_stderr=d_se, d_levels=width.levels())


def test_complexity_params_never_holds_the_gradient_tables():
    # the tables alone take n 2^n 8 bytes (37.7 MB); the width, L1 and L2 stay
    # under half of that, the vertex table F included (degree 3, so F is built)
    f = random_expansion(np.random.default_rng(5), 18, degree=3)
    assert f.degree() == 3
    tracemalloc.start()
    try:
        complexity_params(f, samples=200, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 18 * (1 << 18) * 8 / 2


@st.composite
def sparse_fourier_specs(draw, max_n=10, max_degree=4):
    n = draw(st.integers(1, max_n))
    subsets = st.sets(st.integers(0, n - 1), max_size=min(n, max_degree)).map(
        lambda s: tuple(sorted(s)))
    terms = draw(st.lists(st.tuples(subsets, st.floats(-10.0, 10.0, allow_nan=False)),
                          max_size=12))
    return SparseFourierSpec(n, tuple(terms))


@st.composite
def streamed_cloud_cases(draw):
    """A spec, a flip block and a cloud block of 1 .. 2^n vertices, and a draw count.

    The flip block serves the Lipschitz walk and the cloud's slabs alike:
    bits below the block pair inside it, the rest pair it with the block at
    start ^ 2^i.
    """
    spec = draw(sparse_fourier_specs())
    flip_block = 1 << draw(st.integers(0, spec.n), label="log2 flip block")
    rows = 1 << draw(st.integers(0, spec.n), label="log2 cloud block")
    return spec, flip_block, rows, draw(st.integers(2, 9), label="draws")


@settings(max_examples=50, deadline=None, database=None)
@given(case=streamed_cloud_cases())
# blocks that cut the rows differently, or a transposed one-row slab, moved
# the last ulp of the two-level width
@example(case=(SparseFourierSpec(n=4, terms=(((0, 1), 1.90234375),)), 1, 16, 6))
def test_streamed_cloud_matches_the_gradient_tables(case):
    spec, flip_block, rows, draws = case
    f = build_hamiltonian(spec)
    n, values = f.n, vertex_values(f)
    tables = flip_differences(values)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(boolfn, "_FLIP_BLOCK", flip_block)
        mp.setattr(boolfn, "_BLOCK_ENTRIES", rows * draws)
        assert lipschitz(f) == (float(np.abs(tables).max()), flip_lipschitz_tables(tables))
        streamed, oracle = VertexCloud(values), GradientCloud(tables.T)
        g = np.random.default_rng(draws).standard_normal((draws, n))
        sups, won = complexity._sups(streamed, g, winners=True)
        want, want_won = complexity._sups(oracle, g, winners=True)
        assert np.array_equal(sups, want) and np.array_equal(won, want_won)
        index = np.unique(won[won >= 0])
        assert np.array_equal(streamed.take(index), oracle.points[index])
        # the two-level path: pilot winners, level 0 on the gathered rows, level 1
        mp.setattr(complexity, "PILOT_DRAWS", draws)
        mp.setattr(complexity, "LEVEL1_FLOOR", draws)
        mp.setattr(complexity, "PLAIN_DRAWS", 4 * draws)  # N1 up to twice its floor
        assert (gaussian_width_mc(streamed, samples=5 * draws, seed=draws)
                == gaussian_width_mc(oracle, samples=5 * draws, seed=draws))


@st.composite
def ising_specs(draw, max_n=12):
    n = draw(st.integers(1, max_n))
    entries = st.floats(-10.0, 10.0, allow_nan=False)
    upper = np.triu(np.reshape(draw(st.lists(entries, min_size=n * n, max_size=n * n)), (n, n)), 1)
    field = draw(st.lists(entries, min_size=n, max_size=n))
    return IsingSpec(tuple(map(tuple, (upper + upper.T).tolist())), tuple(field))


@settings(max_examples=80, deadline=None, database=None)
@given(spec=st.one_of(ising_specs(), sparse_fourier_specs(max_n=12, max_degree=2)),
       draws=st.integers(1, 9))
def test_pairwise_cloud_matches_the_vertex_table(spec, draws):
    f = build_hamiltonian(spec)
    values = vertex_values(f)
    cloud = PairwiseCloud(*boolfn.pairwise_form(f))
    assert cloud.a.shape == (f.n, f.n)
    # relative to the coefficient mass sum |c_S|, the scale of every F value
    # and flip difference: both sides round at that scale
    mass = math.fsum(np.abs(f.coeffs))
    g = np.random.default_rng(draws).standard_normal((draws, f.n))
    sups = np.maximum(cloud.sups(g), 0.0)  # the origin's 0 joins the vertices
    want = complexity._sups(VertexCloud(values), g)[0]
    assert np.all(np.abs(sups - want) <= 1e-12 * mass * np.abs(g).sum(axis=1))
    for got, exact in zip(cloud.lipschitz(), lipschitz(f)):
        assert abs(got - exact) <= 1e-12 * mass


def _row_norm_width(spec: IsingSpec) -> float:
    """m = sqrt(2/pi) sum_i ||A_i||_2, from the spec's coupling rows."""
    return math.sqrt(2 / math.pi) * sum(math.hypot(*row) for row in spec.coupling)


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(spec=ising_specs(max_n=8), zero_field=st.booleans())
def test_pairwise_width_interval_holds_the_vertex_cloud_width(spec, zero_field):
    if zero_field:
        spec = IsingSpec(spec.coupling, (0.0,) * spec.n)
    f = build_hamiltonian(spec)
    p = complexity_params(f, samples=2000, seed=1)
    assert p.d_lower <= p.d <= p.d_upper
    m = _row_norm_width(spec)
    assert p.d_lower == pytest.approx(m, rel=1e-12, abs=1e-150)  # row norms may underflow
    if not any(spec.field):  # X >= 0, so D = m with no draw
        assert (p.d, p.d_stderr, p.d_upper) == (p.d_lower, 0.0, p.d_lower)
    # the two-level width over every vertex gradient, sampled in full
    width = gaussian_width_mc(VertexCloud(vertex_values(f)), samples=4000, seed=2)
    assert p.d_lower - 4 * width.stderr <= width.estimate <= p.d_upper + 4 * width.stderr


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(spec=ising_specs(max_n=8), zero_field=st.booleans(), k=st.integers(-900, 900))
def test_pairwise_closed_forms_scale_exactly(spec, zero_field, k):
    # Scaling A and mu by 2^k scales every float step of the closed forms exactly, as
    # long as no value leaves the normal range: d_lower, d_upper, L1 and L2 scale by
    # exactly 2^k, and so do d and its d_stderr = 0 when mu = 0, with no refusal.
    # Entries below 2^-60 are set to 0 first: at 2^-900 they would go subnormal, where
    # no float step scales exactly.  With a field, d_stderr's variance under- or
    # overflows beyond |k| = 400, so d and d_stderr are compared up to there.
    def flushed(values):
        return tuple(0.0 if abs(x) < 2.0 ** -60 else x for x in values)

    coupling = tuple(map(flushed, spec.coupling))
    field = (0.0,) * spec.n if zero_field else flushed(spec.field)
    scale = math.ldexp(1.0, k)
    got = []
    for s in (1.0, scale):
        f = build_hamiltonian(IsingSpec(tuple(tuple(s * x for x in row) for row in coupling),
                                        tuple(s * x for x in field)))
        cloud = PairwiseCloud(*boolfn.pairwise_form(f))
        with np.errstate(over="ignore"):  # d_stderr's variance, beyond |k| = 400
            got.append(np.array([*cloud.width(500, seed=1), *cloud.lipschitz()]))
    assert np.array_equal(got[1][2:], scale * got[0][2:])  # d_lower, d_upper, L1, L2
    if not any(field) or abs(k) <= 400:
        assert np.array_equal(got[1][:2], scale * got[0][:2])  # d, d_stderr
        p = complexity_params(f, samples=500, seed=1)  # the scaled spec, not refused
        assert (p.d, p.d_stderr, p.d_lower, p.d_upper) == tuple(got[1][:4])
    if not any(field):
        assert got[1][1] == 0.0


def test_pairwise_width_samples_only_the_negative_part_over_the_width_draws():
    # with a field, D is m plus the mean of X^- over the draws width_samples takes
    rng = np.random.default_rng(3)
    upper = np.triu(rng.normal(0.0, 0.3, (12, 12)), 1)
    spec = IsingSpec(tuple(map(tuple, (upper + upper.T).tolist())),
                     tuple(rng.normal(0.0, 1.0, 12).tolist()))
    cloud = PairwiseCloud(*boolfn.pairwise_form(build_hamiltonian(spec)))
    d, d_stderr, d_lower, d_upper = cloud.width(20_000, seed=3)
    negative = np.maximum(-cloud.sups(np.random.default_rng(3).standard_normal((20_000, 12))), 0)
    assert d_lower == pytest.approx(_row_norm_width(spec), rel=1e-12)
    assert d == min(d_lower + float(negative.mean()), d_upper)
    assert d_stderr == float(negative.std(ddof=1) / np.sqrt(negative.size)) > 0
    # without one, D = m exactly, and no draw is taken
    cw = PairwiseCloud(*boolfn.pairwise_form(build_hamiltonian(CurieWeissSpec(1.5, 63))))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(complexity, "_draws", None)
        d, d_stderr, d_lower, d_upper = cw.width(20_000, seed=3)
    assert d == d_lower == d_upper == pytest.approx(math.sqrt(2 / math.pi) * 3 * math.sqrt(62),
                                                    rel=1e-12)
    assert d_stderr == 0.0


def test_vertex_cloud_refuses_tables_whose_flips_overflow():
    # the magnitude rule is boolfn's one rule for dense tables (test_boolfn), read here
    for values in ([1.0, np.inf], [1e308, -1e308], [np.nan, 0.0]):
        with pytest.raises(ValueError, match=r"\|F\| <= max float / 2"):
            VertexCloud(np.array(values))
    with pytest.raises(ValueError, match="2\\^n"):
        VertexCloud(np.zeros(3))
    assert VertexCloud(np.zeros(8)).size == 8 and VertexCloud(np.zeros(8)).n == 3


def test_triangle_count_parameters_bounded():
    # N = 7 graph vertices, n = 21 coordinates; exact Lipschitz parameters
    # stay under the 200|beta| envelope and everything is finite
    beta = 1.0
    with size_caps(21):
        f = build_hamiltonian(TriangleCountSpec(beta, 7))
        p = complexity_params(f, samples=64, seed=11)
    assert math.isfinite(p.d) and p.d > 0
    assert p.l1 <= 200 * abs(beta)
    assert p.l2 <= 200 * abs(beta)
    # closed forms for the triangle Hamiltonian at N=7: each edge sits in 5
    # triangles of weight 6 beta / 7
    assert p.l1 == pytest.approx(30.0 / 7.0)
    assert p.l2 == pytest.approx(60.0 / 7.0)
