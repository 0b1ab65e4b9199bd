"""Fixed points of X = tanh(lambda * grad f(X)) and the associated functional.

The damped iteration, the membership test against the structural threshold
5000 L1 L2^(3/4) D^(1/4) n^(3/4), the variational functional whose critical
points are exactly the fixed points, the scalar ferromagnet analysis, and
the lambda scan used for smoothed-cutoff conditioning all live here, and
so does the conditioning window [(t - 6 delta) n, t n] that the scan filters
with and ``ld-scan`` reports.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import DEFAULT_DAMPING, DEFAULT_TOL
from .boolfn import FourierExpansion, eval_extension, gradient_extension, pairwise_form
from .hamiltonians import ComplexityParams

DEFAULT_MAX_ITER = 10_000
DEDUP_SOLUTION_TOL = 1e-6

logger = logging.getLogger(__name__)

# A batched gradient: rows of the input are points, rows of the output their
# gradients.  It must be deterministic and row-wise, so that an output row's
# bits depend only on that input row's bits (for a fixed batch shape); the
# iteration relies on this to fast-forward rows that cycle.
GradientField = Callable[[np.ndarray], np.ndarray]


def as_gradient_field(f: FourierExpansion | GradientField) -> GradientField:
    """Batched gradient callable for an expansion (or pass a callable through).

    Expansions of degree at most two run x @ A + mu on their ``pairwise_form``,
    higher degrees ``gradient_extension``; both forms are built once per
    expansion, so a battery step costs a few array operations, which keeps
    multi-start batteries and lambda scans cheap.
    """
    if isinstance(f, FourierExpansion):
        form = pairwise_form(f)
        if form is None:
            return lambda x: gradient_extension(f, x)
        a, mu = form
        return lambda x: np.asarray(x, dtype=np.float64) @ a + mu
    if callable(f):
        return f
    raise TypeError("expected a FourierExpansion or a gradient field callable")


@dataclass(frozen=True)
class FixedPointSolution:
    """A candidate fixed point with its recomputable residual.

    ``residual_l1`` is ||X - tanh(lambda * grad f(X))||_1 at ``point``;
    ``converged`` implies residual_l1 <= the tolerance of the run.
    """

    point: np.ndarray
    lam: float
    residual_l1: float
    iterations: int
    converged: bool
    start_id: str

    def __post_init__(self):
        pt = np.asarray(self.point, dtype=np.float64).copy()
        pt.flags.writeable = False
        object.__setattr__(self, "point", pt)


def residual_l1(f: FourierExpansion | GradientField, x: np.ndarray, lam: float = 1.0) -> float:
    field = as_gradient_field(f)
    x = np.asarray(x, dtype=np.float64)
    return float(np.abs(x - np.tanh(lam * field(x))).sum())


def mf_iterate(f: FourierExpansion | GradientField, x0, *, lam: float = 1.0,
               damping: float = DEFAULT_DAMPING, tol: float = DEFAULT_TOL,
               max_iter: int = DEFAULT_MAX_ITER, start_id: str = "start-0") -> FixedPointSolution:
    """Damped iteration X <- (1-gamma) X + gamma tanh(lambda grad f(X)).

    Iterates stay inside [-1,1]^n (tanh range plus convex combination).
    Damping does not rule out cycles: with gamma = 0.5 the stuck starts of a
    Curie-Weiss scan at negative lambda settle into exact period-2 cycles,
    which ``_iterate_batch`` fast-forwards to ``max_iter``.  This is the
    one-start battery of ``_iterate_batch``.
    """
    x = np.asarray(x0, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("start point must be a vector")
    return _iterate_batch(as_gradient_field(f), x[None, :], [start_id], lam=lam,
                          damping=damping, tol=tol, max_iter=max_iter)[0]


def _iterate_batch(field: GradientField, x0: np.ndarray, ids: Sequence[str], *,
                   lam: float, damping: float, tol: float,
                   max_iter: int) -> list[FixedPointSolution]:
    """Synchronous damped iteration of a whole start battery.

    Rows freeze at their first convergence, so each row reproduces the
    single-start iteration exactly while the gradient work is batched.

    A row whose state repeats bit for bit is periodic from then on, because
    the field is deterministic and row-wise and the battery keeps its shape.
    Such a row never converges, and its state at ``max_iter`` is the one at
    the first later step in phase with the cap, so it ends there with
    ``iterations = max_iter``.  Repeats are found Brent style, against one
    copy of the battery saved at the steps that are powers of two.
    """
    if not (0.0 < damping <= 1.0):
        raise ValueError("damping must lie in (0, 1]")
    if max_iter < 0:
        raise ValueError("max_iter must be nonnegative")
    if not (tol > 0.0):
        raise ValueError("tol must be positive")
    if not math.isfinite(tol):
        raise ValueError("tol must be finite")
    x = np.array(x0, dtype=np.float64)
    m = x.shape[0]
    live = np.ones(m, dtype=bool)
    done = np.zeros(m, dtype=bool)
    iters = np.zeros(m, dtype=np.int64)
    resid = np.full(m, np.inf)
    period = np.zeros(m, dtype=np.int64)
    end = np.full(m, max_iter, dtype=np.int64)
    saved, saved_step = x.view(np.int64).copy(), 0
    step = 0
    while True:
        g = field(x)
        if not np.all(np.isfinite(g)):
            raise ValueError("non-finite gradient during iteration")
        target = np.tanh(lam * g)
        r = np.abs(x - target).sum(axis=1)
        done |= live & (r <= tol)
        stop = live & (done | (end == step))
        resid[stop] = r[stop]
        iters[stop] = np.where(done[stop], step, max_iter)
        live &= ~stop
        if not live.any():
            break
        x[live] = (1.0 - damping) * x[live] + damping * target[live]
        step += 1
        bits = x.view(np.int64)
        repeat = live & (period == 0) & np.all(bits == saved, axis=1)
        period[repeat] = step - saved_step
        end[repeat] = step + (max_iter - step) % period[repeat]
        if step & (step - 1) == 0:
            saved, saved_step = bits.copy(), step
    if logger.isEnabledFor(logging.DEBUG):
        cycles = np.unique(period[period > 0], return_counts=True)
        logger.debug("%d rows in %d steps: %d converged, %d frozen in exact cycles "
                     "(period: rows %s), %d at the cap", m, step, int(done.sum()),
                     int((period > 0).sum()), dict(zip(*(c.tolist() for c in cycles))),
                     int((~done & (period == 0)).sum()))
    return [FixedPointSolution(x[k], lam, float(resid[k]), int(iters[k]),
                               bool(done[k]), ids[k]) for k in range(m)]


def multistart_points(n: int, seed: int = 0) -> list[tuple[str, np.ndarray]]:
    """Default start battery: all-zeros, all +-0.9, and 14 seeded uniform points."""
    starts = [("zeros", np.zeros(n)), ("plus09", np.full(n, 0.9)), ("minus09", np.full(n, -0.9))]
    rng = np.random.default_rng(seed)
    for k in range(14):
        starts.append((f"seed-{k:03d}", rng.uniform(-1.0, 1.0, n)))
    return starts


def dedupe_solutions(solutions: Sequence[FixedPointSolution]) -> list[FixedPointSolution]:
    """Drop solutions within one-norm ``DEDUP_SOLUTION_TOL`` of an earlier one (first wins)."""
    kept: list[FixedPointSolution] = []
    for sol in solutions:
        if all(np.abs(sol.point - k.point).sum() > DEDUP_SOLUTION_TOL for k in kept):
            kept.append(sol)
    return kept


def solve_multistart(f: FourierExpansion | GradientField, n: int, *, lam: float = 1.0,
                     seed: int = 0, damping: float = DEFAULT_DAMPING, tol: float = DEFAULT_TOL,
                     max_iter: int = DEFAULT_MAX_ITER) -> list[FixedPointSolution]:
    """Run the start battery, dedupe converged solutions, keep failures flagged."""
    starts = multistart_points(n, seed)
    sols = _iterate_batch(as_gradient_field(f), np.stack([x for _, x in starts]),
                          [sid for sid, _ in starts], lam=lam, damping=damping,
                          tol=tol, max_iter=max_iter)
    converged = dedupe_solutions([s for s in sols if s.converged])
    stuck = [s for s in sols if not s.converged]
    return converged + stuck


@dataclass(frozen=True)
class StructuralSetReport:
    threshold: float
    residual: float
    member: bool
    residual_over_n: float


def structural_set_test(f: FourierExpansion | GradientField, x,
                        params: ComplexityParams) -> StructuralSetReport:
    """Membership in the structural set: residual of x = tanh(grad f(x)) at the n = x.size
    coordinates of x, against the stated threshold.

    The threshold 5000 L1 L2^(3/4) D^(1/4) n^(3/4) exceeds the trivial
    diameter 2n at desk scale, making membership vacuous for small systems,
    so the report also carries residual/n: the raw residual is the
    scientifically informative number, the threshold the literal one.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.size
    resid = residual_l1(f, x)
    threshold = 5000.0 * params.l1 * params.l2**0.75 * params.d**0.25 * n**0.75
    return StructuralSetReport(threshold=threshold, residual=resid,
                    member=resid <= threshold, residual_over_n=resid / n)


def _binary_entropy(p: np.ndarray) -> np.ndarray:
    return -(p * np.log(p) + (1.0 - p) * np.log(1.0 - p))


def mean_field_functional(f: FourierExpansion, x) -> float:
    """f(X) + H(X) with H the coordinatewise binary entropy in +-1 coordinates.

    H(X) = sum_i H_b((1+X_i)/2); the coordinate gradient of the functional is
    grad f(X) - atanh(X), which vanishes exactly at the fixed points of
    X = tanh(grad f(X)).  Entries must be strictly interior.
    """
    x = np.asarray(x, dtype=np.float64)
    if np.any(np.abs(x) >= 1.0):
        raise ValueError("functional requires a strictly interior point")
    return float(eval_extension(f, x)) + float(_binary_entropy((1.0 + x) / 2.0).sum())


def mean_field_functional_gradient(f: FourierExpansion, x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if np.any(np.abs(x) >= 1.0):
        raise ValueError("functional requires a strictly interior point")
    return gradient_extension(f, x) - np.arctanh(x)


def curie_weiss_roots(beta: float) -> np.ndarray:
    """All roots of x = tanh(beta x) in [-1, 1], sorted.

    {0} when beta <= 1; for beta > 1 the positive root is bracketed on
    [1e-12, 1), which holds it for every float beta > 1, and found by
    bisection to width 1e-12.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    if beta <= 1.0:
        return np.array([0.0])
    lo, hi = 1e-12, 1.0
    while hi - lo > 1e-12:
        mid = (lo + hi) / 2.0
        if math.tanh(beta * mid) - mid > 0:
            lo = mid
        else:
            hi = mid
    root = (lo + hi) / 2.0
    return np.array([-root, 0.0, root])


def curie_weiss_field(beta: float, n: int) -> GradientField:
    """The all-ones-coupling map X -> (beta/n) * sum(X) * 1.

    Constant vectors are its exact fixed points up to the scalar equation
    x = tanh(beta x), independent of n, and the map contracts the one-norm
    by a factor beta.
    """
    def field(x):
        x = np.asarray(x, dtype=np.float64)
        s = x.sum(axis=-1, keepdims=True)
        return (beta / n) * s * np.ones_like(x)

    return field


def default_lambda_grid(count: int, lo: float, hi: float) -> np.ndarray:
    """Geometric grid on [lo, hi] plus zero and sign-flipped copies."""
    pos = np.geomspace(lo, hi, count)
    return np.unique(np.concatenate([-pos[::-1], [0.0], pos]))


def conditioning_window(t: float, delta: float, n: int) -> tuple[float, float]:
    """The window [(t - 6 delta) n, t n] of f values that the conditioned law keeps."""
    return (t - 6.0 * delta) * n, t * n


def lambda_scan(f: FourierExpansion, t: float, delta: float, *, lambda_grid: np.ndarray,
                seed: int = 0, tol: float = 1e-8, damping: float = DEFAULT_DAMPING,
                max_iter: int = DEFAULT_MAX_ITER) -> list[FixedPointSolution]:
    """Scan scales lambda for fixed points with f(X) in the ``conditioning_window``.

    For each lambda every start of the seeded battery (plus warm starts
    carried over from the previous lambda) is iterated on the gradient field
    of f; converged solutions are kept only when the extension value lands
    in the window.  Output is ordered by (lambda, start) and deterministic
    for a fixed seed.
    """
    grid = np.asarray(lambda_grid, dtype=np.float64)
    if grid.size == 0:
        raise ValueError("lambda grid must be nonempty")
    starts = multistart_points(f.n, seed)
    grad = as_gradient_field(f)
    lo_val, hi_val = conditioning_window(t, delta, f.n)
    kept: list[FixedPointSolution] = []
    warm: list[np.ndarray] = []
    for lam in np.sort(grid):
        batch = list(starts) + [(f"warm-{k}", w) for k, w in enumerate(warm)]
        sols = _iterate_batch(grad, np.stack([x for _, x in batch]),
                              [sid for sid, _ in batch], lam=float(lam),
                              damping=damping, tol=tol, max_iter=max_iter)
        conv = [s for s in sols if s.converged]
        values = eval_extension(f, np.stack([s.point for s in conv])) if conv else []
        found = dedupe_solutions([s for s, v in zip(conv, values) if lo_val <= v <= hi_val])
        kept.extend(found)
        warm = [s.point for s in found]
    return kept
