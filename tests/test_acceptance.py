"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every test prints a single PASS line on success (visible with ``pytest -s``
or in the captured output); a failure raises with the measured numbers.
Criteria with stated runtime budgets assert those budgets too.
"""

import math
import time

import numpy as np

from mfgl import DEFAULT_DAMPING
from mfgl.boolfn import (
    compose,
    eval_extension,
    flip_differences,
    gradient_extension,
    lipschitz,
    vertex_values,
)
from mfgl.complexity import GradientCloud, gaussian_width_mc
from mfgl.gibbs import gibbs_measure, product_law
from mfgl.hamiltonians import (
    CurieWeissSpec,
    CutoffShape,
    IsingSpec,
    LinearSpec,
    build_hamiltonian,
    smoothed_cutoff_weights,
)
from mfgl.meanfield import (
    DEFAULT_MAX_ITER,
    _iterate_rows,
    as_gradient_field,
    curie_weiss_roots,
    solve_multistart,
)
from mfgl.verify import (
    audit_large_deviations,
    audit_product_proximity,
    audit_tanh_mean_swap,
    failures,
    tightness_demo,
)

from conftest import curie_weiss_field, mean_field_functional_gradient, random_expansion
from test_goldens import GOLDEN_DIR, run_golden


def _report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


def test_criterion_01_product_law_exactness():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(20):
        theta = rng.uniform(-1.5, 1.5, 6)
        nu = gibbs_measure(build_hamiltonian(LinearSpec(tuple(theta))))
        pm = product_law(np.tanh(theta))
        worst = max(worst, float(np.abs(nu.probs - pm.probs).max()))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-12, f"worst entrywise gap {worst:.3e}"
    assert elapsed < 1.0
    _report("01 product-law-exactness", f"worst gap {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_expectation_swap_equality():
    start = time.perf_counter()
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(3, 11))
        f = random_expansion(rng, n, degree=3)
        z = rng.uniform(-0.95, 0.95, n)
        weights = product_law(z).probs
        exhaustive = float(weights @ vertex_values(f))
        worst = max(worst, abs(exhaustive - float(eval_extension(f, z))))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-10, f"worst equality gap {worst:.3e}"
    assert elapsed < 30.0
    _report("02 expectation-swap", f"worst gap {worst:.2e}, {elapsed:.1f}s")


def test_criterion_03_w1_within_trace_bound():
    start = time.perf_counter()
    rng = np.random.default_rng(103)
    rows = []
    for k in range(50):
        n = int(rng.integers(4, 9))
        f = random_expansion(rng, n, degree=3)
        tilts = [np.zeros(n)] + [rng.uniform(-0.25, 0.25, n) for _ in range(20)]
        rows.extend(audit_product_proximity(f, tilts, instance={"instance": k}))
    elapsed = time.perf_counter() - start
    bad = failures(rows)
    assert len(rows) == 50 * 21
    assert not bad, f"{len(bad)} rows exceeded sqrt(n tr H) + 1e-9"
    worst = max((r.ratio or 0.0) for r in rows)
    assert elapsed < 300.0
    _report("03 w1-vs-trace", f"{len(rows)} rows, worst ratio {worst:.3f}, {elapsed:.0f}s")


def test_criterion_04_gaussian_width():
    start = time.perf_counter()
    rng = np.random.default_rng(104)
    worst_sigma = 0.0
    for _ in range(20):
        n = int(rng.integers(3, 9))
        mu = rng.normal(size=n) * rng.uniform(0.5, 2.0)
        cloud = GradientCloud(mu[None])
        width = gaussian_width_mc(cloud, samples=100_000, seed=int(rng.integers(1 << 30)))
        est, se = width.estimate, width.stderr
        truth = float(np.linalg.norm(mu)) / math.sqrt(2.0 * math.pi)
        worst_sigma = max(worst_sigma, abs(est - truth) / se)
    assert worst_sigma <= 3.0, f"width estimate off by {worst_sigma:.2f} standard errors"
    beta, n = 1.5, 8
    a = np.full((n, n), beta / n)
    np.fill_diagonal(a, 0.0)
    built = build_hamiltonian(IsingSpec(tuple(map(tuple, a.tolist())), tuple(np.zeros(n))))
    width = gaussian_width_mc(GradientCloud(flip_differences(vertex_values(built)).T),
                              samples=100_000, seed=105)
    est, se = width.estimate, width.stderr
    assert est <= beta * math.sqrt(n) + 3.0 * se, f"ferromagnet width {est:.3f}"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report("04 gaussian-width",
            f"worst |z|={worst_sigma:.2f}, ferromagnet {est:.3f} <= {beta * math.sqrt(n):.3f}, {elapsed:.0f}s")


def test_criterion_05_scalar_roots_and_subcritical_collapse():
    roots_half = curie_weiss_roots(0.5)
    assert roots_half.tolist() == [0.0]
    x2 = float(curie_weiss_roots(2.0)[2])
    assert abs(x2 - 0.9575) <= 1e-4, f"x* = {x2}"
    x5 = float(curie_weiss_roots(5.0)[2])
    assert x5 > 0.9999
    built = build_hamiltonian(CurieWeissSpec(0.5, 12))
    all_ones_map = curie_weiss_field(0.5, 12)
    x0 = np.random.default_rng(105).uniform(-1.0, 1.0, (100, 12))
    worst = 0.0
    for fld in (as_gradient_field(built), all_ones_map):
        # each start ends bit for bit as it would alone
        for sol in _iterate_rows(fld, x0, [f"start-{k}" for k in range(100)], lam=1.0,
                                 damping=DEFAULT_DAMPING, tol=1e-12, max_iter=DEFAULT_MAX_ITER):
            assert sol.converged
            worst = max(worst, float(np.abs(sol.point).sum()))
    assert worst <= 1e-8, f"subcritical iterate stuck at |X|_1 = {worst:.2e}"
    _report("05 scalar-roots", f"x*(2)={x2:.6f}, x*(5)={x5:.6f}, worst |X|_1 {worst:.1e}")


def test_criterion_06_fixed_points_are_critical_points():
    built = build_hamiltonian(CurieWeissSpec(2.0, 12))
    sols = solve_multistart(built, seed=106, tol=1e-13)
    converged = [s for s in sols if s.converged]
    assert converged, "supercritical run produced no converged solutions"
    worst = 0.0
    for sol in converged:
        assert np.abs(sol.point).max() < 1.0
        grad = mean_field_functional_gradient(built, sol.point)
        worst = max(worst, float(np.abs(grad).max()))
    assert worst <= 1e-8, f"functional gradient {worst:.2e} at a residual-zero point"
    _report("06 critical-points", f"{len(converged)} solutions, worst gradient {worst:.1e}")


def test_criterion_07_large_deviation_tail_and_tv():
    start = time.perf_counter()
    built = build_hamiltonian(CurieWeissSpec(1.5, 10))
    f_top = float(vertex_values(built).max())
    t = 0.5 * f_top / 10
    cutoff = smoothed_cutoff_weights(built, t, 0.05)
    rows = {r.check_id: r for r in audit_large_deviations(cutoff)}
    elapsed = time.perf_counter() - start
    tail = rows["cutoff_tail_mass"]
    dist = rows["cutoff_total_variation"]
    assert tail.measured <= 2.0 ** -10, f"tail mass {tail.measured:.3e}"
    assert dist.measured <= 2.0 * 2.0 ** -10, f"TV {dist.measured:.3e}"
    assert elapsed < 10.0
    _report("07 large-deviations",
            f"tail {tail.measured:.1e} <= 2^-10, TV {dist.measured:.1e} <= 2^-9, {elapsed:.1f}s")


def test_criterion_08_tanh_mean_swap_bound():
    start = time.perf_counter()
    [row] = audit_tanh_mean_swap(10_000, (1.0, 5.0), seed=108)
    elapsed = time.perf_counter() - start
    assert row.measured <= 1.0, f"max ratio {row.measured:.4f}"
    assert elapsed < 10.0
    _report("08 tanh-mean-swap", f"max ratio {row.measured:.4f} over 10^4 trials, {elapsed:.1f}s")


def test_criterion_09_chain_rule_defects():
    rng = np.random.default_rng(109)
    h = CutoffShape()
    b = h.d2_bound
    n = 8
    worst_vertex = worst_ext = 0.0
    for _ in range(20):
        f = random_expansion(rng, n, degree=3)
        lip = lipschitz(f)[0]
        hf = compose(f, h.value)
        fvals = vertex_values(f)
        defect = (flip_differences(vertex_values(hf))
                  - np.asarray(h.deriv1(fvals)) * flip_differences(fvals))
        vertex_gap = float(np.abs(defect).sum(axis=0).max())
        assert vertex_gap <= b * lip**2 * n + 1e-9
        worst_vertex = max(worst_vertex, vertex_gap / (b * lip**2 * n))
        for _ in range(20):
            x = rng.uniform(-0.95, 0.95, n)
            d = gradient_extension(hf, x) - float(h.deriv1(eval_extension(f, x))) * gradient_extension(f, x)
            ext_gap = float(np.abs(d).sum())
            assert ext_gap <= 2.0 * b * lip**2 * n**1.5 + 1e-9
            worst_ext = max(worst_ext, ext_gap / (2.0 * b * lip**2 * n**1.5))
    _report("09 chain-rule", f"worst vertex ratio {worst_vertex:.3f}, worst extension ratio {worst_ext:.3f}")


def test_criterion_10_product_law_concentration():
    rng = np.random.default_rng(110)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(4, 9))
        f = random_expansion(rng, n, degree=3)
        lip = lipschitz(f)[0]
        z = rng.uniform(-0.95, 0.95, n)
        weights = product_law(z).probs
        deviation = float(weights @ np.abs(vertex_values(f) - float(eval_extension(f, z))))
        bound = math.sqrt(n) * lip
        assert deviation <= bound + 1e-9, f"E|f(Y)-f(EY)| = {deviation:.4f} > {bound:.4f}"
        worst = max(worst, deviation / bound if bound else 0.0)
    _report("10 concentration", f"50 pairs, worst ratio {worst:.3f}")


def test_criterion_11_composition_growth_exponent():
    start = time.perf_counter()
    rows = tightness_demo([16, 64, 256, 1024])
    elapsed = time.perf_counter() - start
    slope = rows[-1].instance["slope"]
    assert 1.4 <= slope <= 1.6, f"fitted exponent {slope:.4f}"
    assert not failures(rows)
    assert elapsed < 10.0
    _report("11 growth-exponent", f"slope {slope:.4f} in [1.4, 1.6], {elapsed:.1f}s")


def test_criterion_12_gradient_ratio_oracle_equivalence():
    rng = np.random.default_rng(112)
    for _ in range(30):
        n = int(rng.integers(3, 7))
        f = random_expansion(rng, n, degree=3)
        tables = flip_differences(vertex_values(f))
        size = 1 << n
        best = 0.0
        for u in range(size):
            for v in range(u + 1, size):
                dist = bin(u ^ v).count("1")
                best = max(best, float(np.abs(tables[:, u] - tables[:, v]).sum()) / (2.0 * dist))
        assert lipschitz(f)[1] == best, "distance-1 restriction disagreed with all pairs"
    _report("12 ratio-oracle", "30 instances, distance-1 equals all-pairs exactly")


def test_criterion_13_deterministic_reports(tmp_path):
    # curie_weiss(2.0, 6), seed 113, 5000 samples, from a scratch directory
    name = "analyze_curie_weiss.json"
    first = run_golden(name, tmp_path)
    second = run_golden(name, tmp_path)
    assert first == second, "identical runs produced different report bytes"
    assert first == (GOLDEN_DIR / name).read_bytes(), "report differs from the committed golden"
    _report("13 determinism", f"{len(first)} bytes, identical across runs and to the golden")
