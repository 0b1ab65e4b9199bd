"""Gradient clouds and Monte-Carlo Gaussian width."""

import math

import numpy as np
import pytest

from mfgl.boolfn import FourierExpansion, gradient_tables, lipschitz_l1, lipschitz_l2
from mfgl.complexity import (
    GradientCloud,
    cloud_from_points,
    complexity_params,
    gaussian_width_mc,
    gradient_cloud,
    width_samples,
)
from mfgl.hamiltonians import (
    ComplexityParams,
    CurieWeissSpec,
    TriangleCountSpec,
    build_hamiltonian,
    curie_weiss_interaction_matrix,
    IsingSpec,
)
from mfgl.meanfield import as_gradient_field

from conftest import random_expansion


def test_cloud_of_zero_function():
    cloud = gradient_cloud(FourierExpansion(4))
    assert cloud.points.shape == (1, 4)
    assert np.array_equal(cloud.points[0], np.zeros(4))


def test_cloud_of_linear_function():
    mu = np.array([0.3, -1.0, 0.5])
    f = FourierExpansion.from_terms(3, [((i,), mu[i]) for i in range(3)])
    cloud = gradient_cloud(f)
    assert cloud.size == 2
    rows = {tuple(r) for r in cloud.points.round(12).tolist()}
    assert tuple(mu.tolist()) in rows and (0.0, 0.0, 0.0) in rows


def test_cloud_requires_origin():
    with pytest.raises(ValueError):
        GradientCloud(np.ones((2, 3)))
    cloud = cloud_from_points(np.ones((2, 3)))
    assert cloud.size == 2  # deduped + origin appended


def test_curie_weiss_cloud_size_bound():
    built = build_hamiltonian(CurieWeissSpec(1.0, 4))
    cloud = gradient_cloud(built.expansion)
    field = as_gradient_field(built.expansion)
    # gradients depend only on the per-coordinate leave-one-out sums
    patterns = {tuple(np.round(field(v), 12))
                for v in (np.array([1.0 if (k >> i) & 1 else -1.0 for i in range(4)])
                          for k in range(16))}
    assert cloud.size <= len(patterns) + 1


def test_width_of_origin_cloud():
    cloud = GradientCloud(np.zeros((1, 6)))
    est, se = gaussian_width_mc(cloud, samples=100, seed=0)
    assert est == 0.0 and se == 0.0


def test_width_two_point_cloud_analytic():
    # sup over {mu, 0} is the positive part of N(0, |mu|^2): mean |mu|/sqrt(2 pi)
    rng = np.random.default_rng(1)
    mu = rng.normal(size=7)
    cloud = cloud_from_points(np.vstack([mu, np.zeros(7)]))
    est, se = gaussian_width_mc(cloud, samples=100_000, seed=2)
    truth = np.linalg.norm(mu) / math.sqrt(2 * math.pi)
    assert abs(est - truth) <= 3 * se


def test_width_curie_weiss_within_closed_form():
    beta, n = 1.2, 8
    a = curie_weiss_interaction_matrix(beta, n)
    built = build_hamiltonian(IsingSpec(tuple(map(tuple, a.tolist())), tuple(np.zeros(n))))
    est, se = gaussian_width_mc(gradient_cloud(built.expansion), samples=50_000, seed=3)
    assert est <= beta * math.sqrt(n) + 3 * se


def test_width_monotone_under_inclusion():
    rng = np.random.default_rng(4)
    pts = rng.normal(size=(5, 4))
    small = cloud_from_points(pts[:2])
    big = cloud_from_points(pts)
    s_small = width_samples(small, 256, seed=5)
    s_big = width_samples(big, 256, seed=5)
    assert np.all(s_big >= s_small)


def test_width_scaling_per_draw():
    rng = np.random.default_rng(6)
    pts = np.vstack([rng.normal(size=(3, 5)), np.zeros(5)])
    base = width_samples(GradientCloud(pts), 128, seed=7)
    # power-of-two scaling commutes exactly with float rounding
    exact = width_samples(GradientCloud(2.0 * pts), 128, seed=7)
    assert np.array_equal(exact, 2.0 * base)
    general = width_samples(GradientCloud(2.5 * pts), 128, seed=7)
    assert general == pytest.approx(2.5 * base, rel=1e-14, abs=1e-13)


def test_width_reproducibility_bit_identical():
    rng = np.random.default_rng(8)
    cloud = cloud_from_points(rng.normal(size=(10, 6)))
    a = gaussian_width_mc(cloud, samples=5000, seed=42)
    b = gaussian_width_mc(cloud, samples=5000, seed=42)
    assert a == b


def test_width_input_validation():
    cloud = GradientCloud(np.zeros((1, 3)))
    with pytest.raises(ValueError):
        gaussian_width_mc(cloud, samples=1, seed=0)


def test_complexity_params_zero_function():
    p = complexity_params(FourierExpansion(4), samples=100, seed=0)
    assert (p.d, p.l1, p.l2) == (0.0, 1.0, 1.0)
    assert p.d_provenance == "monte_carlo"
    assert p.l1_provenance == "exact"


def test_complexity_params_random_instance():
    rng = np.random.default_rng(9)
    f = random_expansion(rng, 6, degree=3)
    p = complexity_params(f, samples=2000, seed=10)
    assert p.d > 0 and p.d_stderr > 0
    assert p.l1 >= 1.0 and p.l2 >= 1.0


def test_complexity_params_builds_tables_once(monkeypatch):
    import mfgl.complexity as complexity

    calls = []

    def counted(f, max_n=None):
        calls.append(f)
        return gradient_tables(f, max_n)

    monkeypatch.setattr(complexity, "gradient_tables", counted)
    f = random_expansion(np.random.default_rng(12), 6, degree=3)
    p = complexity_params(f, samples=500, seed=4)
    assert len(calls) == 1
    # the one table set gives the numbers the standalone functions give
    monkeypatch.undo()
    d, d_se = gaussian_width_mc(gradient_cloud(f), samples=500, seed=4)
    assert p == ComplexityParams.from_raw(max(d, 0.0), lipschitz_l1(f), lipschitz_l2(f),
                                          d_stderr=d_se, d_provenance="monte_carlo")


def test_triangle_count_parameters_bounded():
    # N = 7 graph vertices, n = 21 coordinates; exact Lipschitz parameters
    # stay under the 200|beta| envelope and everything is finite
    beta = 1.0
    built = build_hamiltonian(TriangleCountSpec(beta, 7), max_n=21)
    p = complexity_params(built.expansion, samples=64, seed=11, max_n=21)
    assert math.isfinite(p.d) and p.d > 0
    assert p.l1 <= 200 * abs(beta)
    assert p.l2 <= 200 * abs(beta)
    # closed forms for the triangle Hamiltonian at N=7: each edge sits in 5
    # triangles of weight 6 beta / 7
    assert p.l1 == pytest.approx(30.0 / 7.0)
    assert p.l2 == pytest.approx(60.0 / 7.0)
