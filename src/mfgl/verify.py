"""Numerical audit harness for the package's quantitative inequalities.

Every audit emits structured rows comparing a measured quantity against its
stated bound.  Bound-kind rows are proven inequalities: a failing row
beyond the 1e-9 slack is a defect, not a tolerance issue.  Rows whose
hypotheses are not met (e.g. a sampled tilt falling outside the trace
condition) stay in the output but are excluded from the pass/fail verdict,
and hypothesis checks themselves are emitted as informational rows.

Tilt sampling note: the mixture decomposition only guarantees existence of
a tilt measure supported on the ball of radius eps*sqrt(n) inside the
[-1/4, 1/4] box; that measure is not constructible here, so audits sample
tilts uniformly from the support set instead.  The support set lives here
alone: ``sample_tilts`` draws from it and ``theta_in_tilt_support`` tests it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Optional, Sequence

import numpy as np

from .boolfn import (
    FourierExpansion,
    eval_extension,
    flip_differences,
    from_vertex_values,
    gradient_extension,
    vertex_values,
)
from .gibbs import (
    DenseMeasure,
    gibbs_measure,
    tanh_covariance,
    mean,
    product_law,
    tilt,
    tv,
    w1_result,
)
from .hamiltonians import ComplexityParams, CubicQuinticShape, ScalarShape, SmoothedCutoff

PASS_SLACK = 1e-9
MAX_TILT_TRIES = 100_000


@dataclass(frozen=True)
class AuditRow:
    """One measured-vs-bound comparison.

    ``kind`` is "bound" for proven inequalities, "hypothesis" for
    informational hypothesis checks, and "error" for refused instances,
    which never pass; ``hypothesis_met`` marks whether the row's own
    preconditions held.  ``ratio`` is measured/bound, zero when both vanish
    and None (flagged) when the bound vanishes but the measurement does not.
    ``make_row`` builds every row.
    """

    check_id: str
    instance: dict
    measured: float
    bound: float
    ratio: Optional[float]
    passed: bool
    kind: str = "bound"
    hypothesis_met: bool = True

    def as_dict(self) -> dict:
        """The report row: every field in order, ``passed`` written as ``pass``."""
        return {"pass" if f.name == "passed" else f.name: getattr(self, f.name)
                for f in fields(self)}


def make_row(check_id: str, instance: dict, measured: float, bound: float,
             kind: str = "bound", hypothesis_met: bool = True) -> AuditRow:
    measured = float(measured)
    bound = float(bound)
    if bound == 0.0:
        ratio: Optional[float] = 0.0 if measured == 0.0 else None
    elif math.isinf(bound):
        ratio = 0.0
    else:
        ratio = measured / bound
    return AuditRow(check_id=check_id, instance=instance, measured=measured,
                    bound=bound, ratio=ratio,
                    passed=kind != "error" and measured <= bound + PASS_SLACK,
                    kind=kind, hypothesis_met=hypothesis_met)


def failures(rows: Sequence[AuditRow]) -> list[AuditRow]:
    """Bound-kind rows with met hypotheses that did not pass."""
    return [r for r in rows if r.kind == "bound" and r.hypothesis_met and not r.passed]


def theta_in_tilt_support(theta: np.ndarray, eps: float) -> bool:
    """Whether theta lies in the ball of radius eps*sqrt(n) meeting [-1/4,1/4]^n."""
    theta = np.asarray(theta, dtype=np.float64)
    n = theta.size
    return bool(
        np.linalg.norm(theta) <= eps * np.sqrt(n) + 1e-12
        and np.abs(theta).max(initial=0.0) <= 0.25 + 1e-12
    )


def sample_tilts(n: int, eps: float, count: int, seed: int | None = 0) -> np.ndarray:
    """Tilts uniform on the box [-1/4,1/4]^n meeting the ball of radius eps*sqrt(n).

    Rejection from the box; when the ball lies inside the box the sample is
    drawn directly in the ball.  A rejection run that needs more than
    ``MAX_TILT_TRIES`` candidates raises ``ValueError``.
    """
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be finite and positive, got {eps}")
    rng = np.random.default_rng(seed)
    radius = eps * math.sqrt(n)
    out = np.empty((count, n))
    if radius <= 0.25:
        for k in range(count):
            direction = rng.standard_normal(n)
            direction /= np.linalg.norm(direction)
            out[k] = direction * radius * rng.random() ** (1.0 / n)
        return out
    k = 0
    tries = 0
    while k < count:
        tries += 1
        if tries > MAX_TILT_TRIES:
            raise ValueError(f"tilt sampler rejection stalled at eps = {eps}: the ball "
                             "of radius eps*sqrt(n) covers too little of the box")
        cand = rng.uniform(-0.25, 0.25, n)
        if np.linalg.norm(cand) <= radius:
            out[k] = cand
            k += 1
    return out


# ---------------------------------------------------------------------------
# Product-measure proximity
# ---------------------------------------------------------------------------


def audit_product_proximity(f: FourierExpansion, theta_list: Sequence[np.ndarray], *,
                            instance: dict | None = None) -> list[AuditRow]:
    """W1 to the centered product law against sqrt(n tr H), per tilt.

    theta = 0 rows audit the base Gibbs measure itself.
    """
    base_instance = dict(instance or {})
    nu, grad = gibbs_measure(f), flip_differences(vertex_values(f)).T.copy()
    rows = []
    for k, theta in enumerate(theta_list):
        theta = np.asarray(theta, dtype=np.float64)
        tilted = tilt(nu, theta)
        center, _, trace = tanh_covariance(tilted, grad + theta)
        w1 = w1_result(tilted, product_law(center))
        bound = math.sqrt(f.n * max(trace, 0.0))
        inst = dict(base_instance, tilt_index=k, theta_norm=float(np.linalg.norm(theta)),
                    trace=trace, mass_error_bound=w1.mass_error_bound)
        rows.append(make_row("w1_vs_trace_bound", inst, w1.value, bound))
    return rows


# ---------------------------------------------------------------------------
# Tilt-mean residual bounds
# ---------------------------------------------------------------------------


def eps_upper_limit(n: int, d: float) -> float:
    """Upper end of the admissible tilt-scale range, (1/4) sqrt(log(4n/D))."""
    if d <= 0.0:
        return math.inf
    arg = 4.0 * n / d
    if arg <= 1.0:
        return 0.0
    return 0.25 * math.sqrt(math.log(arg))


def audit_main_residuals(f: FourierExpansion, theta_list: Sequence[np.ndarray],
                         eps: float, params: ComplexityParams, *,
                         instance: dict | None = None) -> list[AuditRow]:
    """Fixed-point residual of the tilt means against the displayed bounds.

    Per tilt: the trace condition tr H <= 256 n^(1/3) D^(2/3) / eps^(2/3)
    flags membership in the good set; for flagged tilts the residual
    ||A - tanh(grad f(A))||_1 is audited against
    41 L1 (112 L2 n^(2/3) D^(1/3) / eps^(1/3) + eps n) and the exact
    product-law expectation E||tanh(grad f(Y)) - A||_1 against
    64 L2 n^(2/3) D^(1/3) / eps^(1/3) + eps n.  Out-of-range eps is refused
    rather than extrapolated.
    """
    n = f.n
    limit = eps_upper_limit(n, params.d)
    if not (0.0 < eps < limit):
        raise ValueError(f"eps must lie in (0, {limit:.6g}) for D = {params.d:.6g}")
    base_instance = dict(instance or {}, eps=eps, d=params.d, d_stderr=params.d_stderr,
                         l1=params.l1, l2=params.l2)
    nu, grad = gibbs_measure(f), flip_differences(vertex_values(f)).T.copy()
    tanh_grad = np.tanh(grad)
    trace_cap = 256.0 * n ** (1.0 / 3.0) * params.d ** (2.0 / 3.0) / eps ** (2.0 / 3.0)
    scale = n ** (2.0 / 3.0) * params.d ** (1.0 / 3.0) / eps ** (1.0 / 3.0)
    bound8 = 41.0 * params.l1 * (112.0 * params.l2 * scale + eps * n)
    bound9 = 64.0 * params.l2 * scale + eps * n
    rows = []
    for k, theta in enumerate(theta_list):
        theta = np.asarray(theta, dtype=np.float64)
        tilted = tilt(nu, theta)
        _, _, trace = tanh_covariance(tilted, grad + theta)
        in_good_set = trace <= trace_cap + PASS_SLACK
        center = mean(tilted)
        resid = float(np.abs(center - np.tanh(gradient_extension(f, center))).sum())
        weights = product_law(center).probs
        spread = float(weights @ np.abs(tanh_grad - center).sum(axis=1))
        inst = dict(base_instance, tilt_index=k,
                    theta_norm=float(np.linalg.norm(theta)),
                    theta_in_support=theta_in_tilt_support(theta, eps),
                    trace=trace)
        rows.append(make_row("tilt_trace_condition", inst, trace, trace_cap,
                             kind="hypothesis"))
        rows.append(make_row("tilt_mean_residual", inst, resid, bound8,
                             hypothesis_met=in_good_set))
        rows.append(make_row("product_law_expected_residual", inst, spread, bound9,
                             hypothesis_met=in_good_set))
    return rows


# ---------------------------------------------------------------------------
# Scalar composition and moment checks
# ---------------------------------------------------------------------------


def audit_tanh_mean_swap(trials: int, l_range: tuple[float, float] = (1.0, 5.0),
                         seed: int | None = 0) -> list[AuditRow]:
    """|tanh(EZ) - E tanh Z| vs 20 L E|tanh Z - E tanh Z| on random bounded Z.

    Z has at most four atoms in [-L, L]; the summary row reports the worst
    ratio across trials against the bound 1.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    lo, hi = l_range
    if lo < 1.0:
        raise ValueError("the bound needs L >= 1")
    rng = np.random.default_rng(seed)
    ls = rng.uniform(lo, hi, trials)
    atoms = rng.integers(1, 5, trials)
    values = rng.uniform(-1.0, 1.0, (trials, 4)) * ls[:, None]
    weights = rng.random((trials, 4))
    for k in range(trials):
        weights[k, atoms[k]:] = 0.0
    weights /= weights.sum(axis=1, keepdims=True)
    ez = (weights * values).sum(axis=1)
    tz = np.tanh(values)
    etz = (weights * tz).sum(axis=1)
    lhs = np.abs(np.tanh(ez) - etz)
    rhs = 20.0 * ls * (weights * np.abs(tz - etz[:, None])).sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(rhs > 0, lhs / np.where(rhs > 0, rhs, 1.0), np.where(lhs > 0, np.inf, 0.0))
    worst = float(ratios.max())
    inst = {"trials": trials, "l_range": [lo, hi], "seed": seed}
    return [make_row("tanh_mean_swap", inst, worst, 1.0)]


def audit_chain_rule_and_moments(f: FourierExpansion, h: ScalarShape,
                                 product_means: Sequence[np.ndarray],
                                 seed: int | None = None, *,
                                 instance: dict | None = None) -> list[AuditRow]:
    """Chain-rule defects, product-law concentration, and the expectation swap.

    (a) max vertex defect ||grad(h∘f) - h'(f) grad f||_1 vs B L^2 n and the
    two-norm variant vs B L^2 sqrt(n); (b) the same defect for the extension
    at the supplied interior points vs 2 B L^2 n^(3/2); (c) per product mean,
    exact E|f(Y) - f(EY)| vs sqrt(n) Lip(f); (d) per product mean, the exact
    equality E f(Y) = f(EY).
    """
    if h.d2_bound is None:
        raise ValueError("shape must carry a second-derivative bound")
    n = f.n
    base = dict(instance or {}, shape=h.name, seed=seed)
    fvals = vertex_values(f)
    grad_f = flip_differences(fvals)
    lip = float(np.abs(grad_f).max())
    b2 = float(h.d2_bound)
    # the vertex defect reads h(F) exactly; hf, built from that same table and
    # pruned, serves the interior points
    hvals = np.asarray(h.value(fvals))
    hf = from_vertex_values(n, hvals)
    defect = flip_differences(hvals) - np.asarray(h.deriv1(fvals)) * grad_f
    rows = [
        make_row("chain_rule_vertex_defect_l1", dict(base),
                 float(np.abs(defect).sum(axis=0).max()), b2 * lip**2 * n),
        make_row("chain_rule_vertex_defect_l2", dict(base),
                 float(np.sqrt((defect**2).sum(axis=0)).max()), b2 * lip**2 * math.sqrt(n)),
    ]
    means = np.array(product_means, dtype=np.float64) if len(product_means) else np.empty((0, n))
    f_at_means = eval_extension(f, means)
    d = gradient_extension(hf, means) - h.deriv1(f_at_means)[:, None] * gradient_extension(f, means)
    worst_ext = float(np.abs(d).sum(axis=1).max(initial=0.0))
    rows.append(make_row("chain_rule_extension_defect_l1", dict(base, points=len(product_means)),
                         worst_ext, 2.0 * b2 * lip**2 * n**1.5))
    for k, z in enumerate(means):
        weights = product_law(z).probs
        f_at_mean = float(f_at_means[k])
        inst = dict(base, mean_index=k)
        rows.append(make_row("product_law_concentration", inst,
                             float(weights @ np.abs(fvals - f_at_mean)),
                             math.sqrt(n) * lip))
        rows.append(make_row("expectation_swap_equality", inst,
                             abs(float(weights @ fvals) - f_at_mean), 0.0))
    return rows


# ---------------------------------------------------------------------------
# Large deviations
# ---------------------------------------------------------------------------


def audit_large_deviations(cutoff: SmoothedCutoff, *,
                           instance: dict | None = None) -> list[AuditRow]:
    """Tail mass, total variation, and coupling cost of the smoothed cutoff.

    ``cutoff`` comes from ``smoothed_cutoff_weights``; its ``psi`` carries
    n, t and delta.  Requires a witness vertex with f >= t n; without one
    the tail bound's hypothesis fails and a single error row is returned
    instead of a silently skipped audit.
    """
    n, t, delta = cutoff.psi.n, cutoff.psi.t, cutoff.psi.delta
    base = dict(instance or {}, t=t, delta=delta)
    witness_gap = float(cutoff.f_values.max()) - t * n
    if witness_gap < 0:
        return [make_row("witness_missing", dict(base, witness_gap=witness_gap), witness_gap, 0.0,
                         kind="error", hypothesis_met=False)]
    nu = DenseMeasure.from_log_weights(n, cutoff.g_values)
    sigma = DenseMeasure.from_log_weights(n, cutoff.log_phi)
    tail_set = cutoff.f_values <= (t - cutoff.delta_prime) * n
    tail_mass = float(nu.probs[tail_set].sum())
    distance = tv(nu, sigma)
    two_pow = 2.0 ** (-n)
    inst = dict(base, delta_prime=cutoff.delta_prime, witness_gap=witness_gap,
                tail_size=int(tail_set.sum()))
    return [
        make_row("cutoff_tail_mass", inst, tail_mass, two_pow),
        make_row("cutoff_total_variation", inst, distance, 2.0 * two_pow),
        make_row("cutoff_coupling_cost", inst, 2.0 * n * distance, 2.0 * n * two_pow),
    ]


# ---------------------------------------------------------------------------
# Tightness of the extension chain-rule bound
# ---------------------------------------------------------------------------


def counting_composition_gradient_norm(n: int) -> float:
    """||grad(h∘f)(0)||_1 for the counting function f(x) = sum x_i and the
    cubic-quintic h, exactly.

    h∘f depends only on the coordinate sum, so the extension gradient at the
    origin reduces to a binomial-weighted sum over the sum S of the other
    n-1 coordinates: each coordinate contributes E[(h(S+1) - h(S-1))/2] and
    all n coordinates agree by symmetry.  Exact without any 2^n table, so n
    can reach thousands.
    """
    shape = CubicQuinticShape()
    ks = np.arange(n)
    s = 2.0 * ks - (n - 1)
    # the Binomial(n-1, 1/2) coefficients by the exact integer recurrence
    # c_{k+1} = c_k (n-1-k) / (k+1); int / int true division is correctly
    # rounded, so each mass is exact
    coeffs, total = [1], 2 ** (n - 1)
    for k in range(n - 1):
        coeffs.append(coeffs[-1] * (n - 1 - k) // (k + 1))
    pmf = np.array([c / total for c in coeffs])
    halves = 0.5 * (np.asarray(shape.value(s + 1.0)) - np.asarray(shape.value(s - 1.0)))
    return n * abs(float(pmf @ halves))


def tightness_demo(n_list: Sequence[int]) -> list[AuditRow]:
    """Log-log growth rate of the counting-composition gradient norm.

    Comparing against the zero vector h'(f(0)) grad f(0) (the shape has
    vanishing derivative at the origin), the norm itself is the chain-rule
    defect; its fitted exponent should sit near 3/2.  The last two rows
    bound that exponent and carry it as ``instance["slope"]``.
    """
    n_list = [int(n) for n in n_list]
    if any(n < 8 for n in n_list) or len(n_list) < 2:
        raise ValueError("need at least two sizes, all >= 8")
    norms = [counting_composition_gradient_norm(n) for n in n_list]
    slope = float(np.polyfit(np.log(n_list), np.log(norms), 1)[0])
    rows = [make_row("counting_growth_norm", {"n": n}, c, math.inf, kind="hypothesis")
            for n, c in zip(n_list, norms)]
    inst = {"n_list": n_list, "slope": slope}
    rows.append(make_row("growth_exponent_upper", inst, slope, 1.6))
    rows.append(make_row("growth_exponent_lower", inst, 1.4, slope))
    return rows
