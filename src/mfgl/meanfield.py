"""Fixed points of X = tanh(lambda * grad f(X)) and the associated functional.

The damped iteration, the variational functional whose critical points are
exactly the fixed points, the scalar ferromagnet analysis, and the lambda
scan used for smoothed-cutoff conditioning all live here, and so does the
conditioning window [(t - 6 delta) n, t n] that the scan filters with and
``ld-scan`` reports.  The structural threshold that a fixed point's
residual is held against is ``ComplexityParams.structural_threshold``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import DEFAULT_DAMPING, DEFAULT_TOL, _debug_logger
from .boolfn import FourierExpansion, eval_extension, gradient_extension, pairwise_form

DEFAULT_MAX_ITER = 10_000
DEDUP_SOLUTION_TOL = 1e-6
# The most rows one ``lambda_scan`` battery holds: the seeded starts of 60
# consecutive grid points, so its memory does not grow with the grid.
_SCAN_BATTERY_ROWS = 1024

# A batched gradient: rows of the input are points, rows of the output their
# gradients.  It must be deterministic and row-wise, so that an output row's
# bits depend only on that input row's bits, for any batch of two or more
# rows.  The iteration relies on this to fast-forward rows that cycle, to drop
# finished rows from a battery and to batch a lambda scan's grid points, and
# it never calls the field on a single row.  (OpenBLAS rounds a one-row
# x @ A, a gemv, differently from the same row inside a gemm.)
GradientField = Callable[[np.ndarray], np.ndarray]


def as_gradient_field(f: FourierExpansion) -> GradientField:
    """The batched gradient field of an expansion.

    Expansions of degree at most two run x @ A + mu on their ``pairwise_form``,
    higher degrees ``gradient_extension``; both forms are built once per
    expansion, so a battery step costs a few array operations, which keeps
    multi-start batteries and lambda scans cheap.
    """
    form = pairwise_form(f)
    if form is None:
        return lambda x: gradient_extension(f, x)
    a, mu = form
    return lambda x: np.asarray(x, dtype=np.float64) @ a + mu


@dataclass(frozen=True, eq=False)
class FixedPointSolution:
    """A candidate fixed point with its recomputable residual.

    ``residual_l1`` is ||X - tanh(lambda * grad f(X))||_1 at ``point``;
    ``converged`` implies residual_l1 <= the tolerance of the run.
    ``period`` is the length of the exact cycle an unconverged start was
    found in, and 0 when none was found.
    """

    point: np.ndarray
    lam: float
    residual_l1: float
    iterations: int
    converged: bool
    start_id: str
    period: int = 0

    @property
    def status(self) -> str:
        """``converged``, ``cycle`` (stuck in an exact cycle) or ``max_iter``."""
        if self.converged:
            return "converged"
        return "cycle" if self.period else "max_iter"

    def __post_init__(self):
        pt = np.asarray(self.point, dtype=np.float64).copy()
        pt.flags.writeable = False
        object.__setattr__(self, "point", pt)


def mf_iterate(f: FourierExpansion, x0, *, lam: float = 1.0,
               damping: float = DEFAULT_DAMPING, tol: float = DEFAULT_TOL,
               max_iter: int = DEFAULT_MAX_ITER, start_id: str = "start-0") -> FixedPointSolution:
    """Damped iteration X <- (1-gamma) X + gamma tanh(lambda grad f(X)).

    Iterates stay inside [-1,1]^n (tanh range plus convex combination).
    Damping does not rule out cycles: with gamma = 0.5 the stuck starts of a
    Curie-Weiss scan at negative lambda settle into exact period-2 cycles,
    which ``_iterate_rows`` fast-forwards to ``max_iter``.  This is its
    one-start battery, which builds every solution, so the point is bit for
    bit the one the start reaches inside any larger battery.
    """
    x = np.asarray(x0, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("start point must be a vector")
    return _iterate_rows(as_gradient_field(f), x[None, :], [start_id], lam=lam,
                         damping=damping, tol=tol, max_iter=max_iter)[0]


def _iterate_rows(field: GradientField, x0: np.ndarray, ids: Sequence[str], *,
                  lam: float | np.ndarray, damping: float, tol: float,
                  max_iter: int) -> list[FixedPointSolution]:
    """Synchronous damped iteration of a whole start battery.

    ``lam`` is one scale for every row or one per row, so a battery may mix
    grid points.  Builds every ``FixedPointSolution``: one per row of ``x0``,
    in order, with its id from ``ids`` and its own lambda.

    A row stops at its first convergence and is then written out and
    dropped from the working arrays, so each step evaluates the field on the
    live rows only; a step where no row stops costs one ``any`` and one
    compare against the earliest pending cap step on top of the update.  The
    working set never holds fewer than two rows: a lone row iterates beside
    a copy of itself.  With a field that is row-wise on every batch of two or
    more rows, each row thus ends bit for bit as it would in any battery.

    A row whose state repeats bit for bit is periodic from then on.  Such a
    row never converges, and its state at ``max_iter`` is the one at the
    first later step in phase with the cap, so it ends there with
    ``iterations = max_iter`` and its period.  Repeats are found Brent
    style, against one copy of the live rows.  The copy is re-saved at
    every step that is a multiple of a quarter of the largest power of two
    up to it (at every step below 8), so from step 8 on saves are more than
    an eighth and at most a quarter of the step count apart.  A row in a
    cycle of period p is found p steps after the first save inside the
    cycle at which saves are p or more apart, as they are from step 8p on;
    its first repeat is then its minimal period.
    """
    if not (0.0 < damping <= 1.0):
        raise ValueError("damping must lie in (0, 1]")
    if max_iter < 0:
        raise ValueError("max_iter must be nonnegative")
    if not (tol > 0.0):
        raise ValueError("tol must be positive")
    if not math.isfinite(tol):
        raise ValueError("tol must be finite")
    x0 = np.asarray(x0, dtype=np.float64)
    m = x0.shape[0]
    out = np.empty_like(x0)
    resid = np.empty(m)
    iters = np.empty(m, dtype=np.int64)
    done = np.zeros(m, dtype=bool)
    period = np.zeros(m, dtype=np.int64)
    # Working arrays, one entry per live row: its row of x0, state, scale,
    # period (0 until found) and the step it stops at unless it converges.
    rows = np.arange(m) if m > 1 else np.zeros(2, dtype=np.int64)
    lams = np.broadcast_to(np.asarray(lam, dtype=np.float64), (m,))
    x, scale = x0[rows], lams[rows, None]
    cyc = np.zeros(rows.size, dtype=np.int64)
    end = np.full(rows.size, max_iter, dtype=np.int64)
    next_end = max_iter
    saved, saved_step = x.view(np.int64).copy(), 0
    step = 0
    while True:
        g = field(x)
        if not np.isfinite(g).all():
            raise ValueError("non-finite gradient during iteration")
        target = np.tanh(scale * g)
        r = np.abs(x - target).sum(axis=1)
        del g  # so the next field call does not run beside this step's gradient
        hit = r <= tol
        if step == next_end or hit.any():
            stop = hit | (end == step)
            k = rows[stop]
            out[k], resid[k], done[k], period[k] = x[stop], r[stop], hit[stop], cyc[stop]
            iters[k] = np.where(hit[stop], step, max_iter)
            keep = np.flatnonzero(~stop)
            if keep.size == 0:
                break
            if keep.size == 1:
                keep = np.repeat(keep, 2)
            x, target, rows, scale, cyc, end, saved = (
                a[keep] for a in (x, target, rows, scale, cyc, end, saved))
            next_end = int(end.min())
        x *= 1.0 - damping
        target *= damping
        x += target
        step += 1
        bits = x.view(np.int64)
        repeat = (bits == saved).all(axis=1)
        if repeat.any():
            repeat &= cyc == 0
            cyc[repeat] = step - saved_step
            end[repeat] = step + (max_iter - step) % cyc[repeat]
            next_end = int(end.min())
        if step % max(1, 1 << step.bit_length() >> 3) == 0:
            saved, saved_step = bits.copy(), step
    if (logger := _debug_logger(__name__)) is not None:
        cycles = np.unique(period[period > 0], return_counts=True)
        logger.debug("%d rows in %d steps: %d converged, %d frozen in exact cycles "
                     "(period: rows %s), %d at the cap", m, step, int(done.sum()),
                     int((period > 0).sum()), dict(zip(*(c.tolist() for c in cycles))),
                     int((~done & (period == 0)).sum()))
    return [FixedPointSolution(*row) for row in zip(
        out, lams.tolist(), resid.tolist(), iters.tolist(), done.tolist(), ids,
        period.tolist(), strict=True)]


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


def solve_multistart(f: FourierExpansion, *, lam: float = 1.0, seed: int = 0,
                     damping: float = DEFAULT_DAMPING, tol: float = DEFAULT_TOL,
                     max_iter: int = DEFAULT_MAX_ITER) -> list[FixedPointSolution]:
    """Run the start battery, dedupe converged solutions, keep failures flagged."""
    starts = multistart_points(f.n, seed)
    sols = _iterate_rows(as_gradient_field(f), np.stack([x for _, x in starts]),
                         [sid for sid, _ in starts], lam=lam, damping=damping,
                         tol=tol, max_iter=max_iter)
    converged = dedupe_solutions([s for s in sols if s.converged])
    stuck = [s for s in sols if not s.converged]
    return converged + stuck


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


def default_lambda_grid(count: int, lo: float, hi: float) -> np.ndarray:
    """Geometric grid on [lo, hi] plus zero and sign-flipped copies."""
    pos = np.geomspace(lo, hi, count)
    grid = np.sort(np.concatenate([-pos[::-1], [0.0], pos]))
    return grid[np.diff(grid, prepend=-np.inf) > 0]


def conditioning_window(t: float, delta: float, n: int) -> tuple[float, float]:
    """The window [(t - 6 delta) n, t n] of f values that the conditioned law keeps."""
    return (t - 6.0 * delta) * n, t * n


def lambda_scan(f: FourierExpansion, t: float, delta: float, *, lambda_grid: np.ndarray,
                tol: float, seed: int = 0, damping: float = DEFAULT_DAMPING,
                max_iter: int = DEFAULT_MAX_ITER) -> list[FixedPointSolution]:
    """Scan scales lambda for fixed points with f(X) in the ``conditioning_window``.

    For each lambda every start of the seeded battery (plus warm starts
    carried over from the previous lambda) is iterated on the gradient field
    of f; converged solutions are kept only when the extension value lands
    in the window.  Output is ordered by (lambda, start) and deterministic
    for a fixed seed.

    The seeded starts of consecutive lambdas run as one battery, as many
    lambdas as fit ``_SCAN_BATTERY_ROWS`` rows, so a converged row leaves
    the battery while slower ones go on.  Each lambda's warm starts depend
    on the one before, so they run as their own battery and their results go
    after the seeded ones, as in a single battery of seeded plus warm rows.
    """
    grid = np.sort(np.asarray(lambda_grid, dtype=np.float64))
    if grid.size == 0:
        raise ValueError("lambda grid must be nonempty")
    starts = multistart_points(f.n, seed)
    x0 = np.stack([x for _, x in starts])
    ids = [sid for sid, _ in starts]
    per = _SCAN_BATTERY_ROWS // len(starts)
    grad = as_gradient_field(f)
    steps = {"damping": damping, "tol": tol, "max_iter": max_iter}
    lo_val, hi_val = conditioning_window(t, delta, f.n)
    kept: list[FixedPointSolution] = []
    warm: list[np.ndarray] = []
    for first in range(0, grid.size, per):
        lams = grid[first:first + per]
        seeded = _iterate_rows(grad, np.tile(x0, (lams.size, 1)), ids * lams.size,
                               lam=np.repeat(lams, len(ids)), **steps)
        for j, lam in enumerate(lams):
            sols = seeded[j * len(ids):(j + 1) * len(ids)]
            if warm:
                sols += _iterate_rows(grad, np.stack(warm),
                                      [f"warm-{k}" for k in range(len(warm))], lam=lam, **steps)
            conv = [s for s in sols if s.converged]
            values = eval_extension(f, np.stack([s.point for s in conv])) if conv else []
            found = dedupe_solutions([s for s, v in zip(conv, values) if lo_val <= v <= hi_val])
            kept.extend(found)
            warm = [s.point for s in found]
        del seeded, sols  # so the next battery does not run beside these solutions
    return kept
