"""Exact finite-state Gibbs machinery: measures, tilts, covariances, distances.

All densities are constructed in log space with a max shift, since the
smoothed-cutoff Hamiltonians produce weights spanning hundreds of e-folds.
Measures are immutable after construction and indexed by the package-wide
vertex encoding (bit i set iff coordinate i equals +1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .boolfn import (
    DimensionMismatch,
    FourierExpansion,
    _check_cap,
    vertex_values,
)

if TYPE_CHECKING:
    from .transport import TransportResult

PROB_TOL = 1e-12


def _coordinate_table(ufunc: np.ufunc, minus: np.ndarray, plus: np.ndarray) -> np.ndarray:
    """Per vertex, ufunc over minus[i] (bit i clear) or plus[i] (bit i set), folded onto its
    identity in the order 0..n-1: each coordinate is the new top bit of one Kronecker pass."""
    table = np.array([ufunc.identity], dtype=np.float64)
    for pair in zip(minus, plus):
        table = ufunc.outer(pair, table).ravel()
    return table


@dataclass(frozen=True, eq=False)
class DenseMeasure:
    """Explicit probability vector over the 2^n vertices.

    ``log_norm`` records the log of the normalizing constant used at
    construction (log sum of the raw weights).
    """

    n: int
    probs: np.ndarray
    log_norm: float = 0.0

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=np.float64)
        if probs.shape != (1 << self.n,):
            raise ValueError(f"need 2^{self.n} probabilities, got shape {probs.shape}")
        if np.any(probs < -PROB_TOL) or not np.all(np.isfinite(probs)):
            raise ValueError("probabilities must be finite and nonnegative")
        if abs(float(probs.sum()) - 1.0) > PROB_TOL:
            raise ValueError("probabilities must sum to one")
        probs = np.maximum(probs, 0.0)
        probs.flags.writeable = False
        object.__setattr__(self, "probs", probs)

    @staticmethod
    def from_log_weights(n: int, log_weights: np.ndarray) -> "DenseMeasure":
        logw = np.asarray(log_weights, dtype=np.float64)
        if logw.shape != (1 << n,):
            raise ValueError(f"need 2^{n} log weights")
        if np.any(np.isnan(logw)) or np.any(logw == np.inf):
            raise ValueError("log weights must be < +inf and not NaN")
        m = float(np.max(logw))
        if m == -np.inf:
            raise ValueError("all weights vanish")
        with np.errstate(under="ignore"):
            w = np.exp(logw - m)
        total = float(w.sum())
        return DenseMeasure(n=n, probs=w / total, log_norm=m + float(np.log(total)))


def gibbs_measure(f: FourierExpansion) -> DenseMeasure:
    """Measure with probabilities proportional to exp(f(v))."""
    return DenseMeasure.from_log_weights(f.n, vertex_values(f))


def product_law(mean) -> DenseMeasure:
    """Explicit 2^n probabilities (unit normalizer) of the product law with the given mean:
    coordinate i equals +1 with probability (1 + mean_i)/2, independently."""
    mean = np.asarray(mean, dtype=np.float64)
    if mean.ndim != 1 or mean.size == 0:
        raise ValueError("mean must be a nonempty vector")
    if np.any(np.abs(mean) > 1.0 + PROB_TOL) or not np.all(np.isfinite(mean)):
        raise ValueError("mean entries must lie in [-1, 1]")
    _check_cap(mean.size, "product densification")
    up = (1.0 + np.clip(mean, -1.0, 1.0)) / 2.0
    return DenseMeasure(n=mean.size, probs=_coordinate_table(np.multiply, 1.0 - up, up))


def tilt(nu: DenseMeasure, theta) -> DenseMeasure:
    """Exponential reweighting of nu by exp(<theta, v>), renormalized; nu itself at theta = 0."""
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape != (nu.n,):
        raise DimensionMismatch(f"theta has shape {theta.shape}, expected ({nu.n},)")
    if not np.any(theta):
        return nu
    with np.errstate(divide="ignore"):
        logw = np.log(nu.probs) + _coordinate_table(np.add, -theta, theta)
    out = DenseMeasure.from_log_weights(nu.n, logw)
    return DenseMeasure(n=nu.n, probs=out.probs, log_norm=nu.log_norm + out.log_norm)


def mean(measure: DenseMeasure) -> np.ndarray:
    """Coordinatewise expectation of the +-1 coordinates."""
    idx = np.arange(1 << measure.n)
    out = np.empty(measure.n)
    for i in range(measure.n):
        out[i] = 2.0 * float(measure.probs[(idx >> i) & 1 == 1].sum()) - 1.0
    return out


def tanh_covariance(nu: DenseMeasure,
                    field: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Mean and covariance matrix of tanh(field(V)) under V ~ nu, plus the trace.

    ``field`` is the per-vertex effective gradient table (2^n, n), for
    tilt(gibbs(f), theta) the table ``flip_differences(vertex_values(f)).T +
    theta``; the caller supplies it because the probability vector alone
    does not expose the field.  The mean is the center of the product
    approximation ``product_law(center)``: for the measure's own effective
    field it coincides with the mean of nu (conditioning on the other
    coordinates makes each coordinate a tanh of its local field), and that
    product law is within sqrt(n tr H(nu)) of nu in Wasserstein distance.
    """
    field = np.asarray(field, dtype=np.float64)
    if field.shape != (1 << nu.n, nu.n):
        raise DimensionMismatch(f"field has shape {field.shape}, expected {(1 << nu.n, nu.n)}")
    t = np.tanh(field)
    w = nu.probs
    center = w @ t
    cov = (t * w[:, None]).T @ t - np.outer(center, center)
    cov = (cov + cov.T) / 2.0
    return center, cov, float(np.trace(cov))


def _check_pair(nu1: DenseMeasure, nu2: DenseMeasure) -> None:
    if nu1.n != nu2.n:
        raise DimensionMismatch(f"dimension mismatch: {nu1.n} vs {nu2.n}")


def w1_result(nu1: DenseMeasure, nu2: DenseMeasure) -> TransportResult:
    """Exact Wasserstein-1 distance, ground cost half the coordinate one-norm.

    Solved as a certified min-cost flow; ``.value`` is the distance, and the
    result carries the solver's output.  Above the state cap the solver raises
    ``CapExceeded``.
    """
    from . import transport  # here, so a command that takes no W1 never compiles it

    _check_pair(nu1, nu2)
    result = transport.solve_w1(nu1.probs, nu2.probs, nu1.n)
    if not result.certified:
        raise RuntimeError("transport dual certificate failed")
    return result


def tv(nu1: DenseMeasure, nu2: DenseMeasure) -> float:
    """Total variation distance, half the one-norm of the difference."""
    _check_pair(nu1, nu2)
    return 0.5 * float(np.abs(nu1.probs - nu2.probs).sum())
