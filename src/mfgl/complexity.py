"""Gradient complexity: exact gradient clouds and Monte-Carlo Gaussian width.

The width of a point cloud K is E[sup_{x in K} <x, G>] over standard
Gaussian vectors G; the gradient complexity of a Hamiltonian is the width
of its vertex gradient image together with the origin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boolfn import FourierExpansion, flip_lipschitz, gradient_tables
from .hamiltonians import ComplexityParams

DEDUP_TOL = 1e-12
DEFAULT_SAMPLES = 100_000
_CHUNK_BUDGET = 1 << 24  # entries per (cloud x draws) block


@dataclass(frozen=True)
class GradientCloud:
    """Deduplicated gradient vectors with the origin always included."""

    points: np.ndarray  # (k, n)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise ValueError("cloud must be a nonempty (k, n) array")
        if not np.all(np.isfinite(pts)):
            raise ValueError("cloud points must be finite")
        if not np.any(np.all(np.abs(pts) <= DEDUP_TOL, axis=1)):
            raise ValueError("cloud must contain the origin")
        pts = pts.copy()
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def n(self) -> int:
        return self.points.shape[1]


def _dedup_rows(points: np.ndarray, tol: float = DEDUP_TOL) -> np.ndarray:
    keys = np.round(points / tol)
    if np.abs(keys).max(initial=0.0) < 2.0**62:
        # single-key sort on the packed integer rows; far faster than axis=0
        packed = np.ascontiguousarray(keys.astype(np.int64))
        view = packed.view(f"V{packed.shape[1] * packed.itemsize}").ravel()
        _, first = np.unique(view, return_index=True)
    else:
        _, first = np.unique(keys, axis=0, return_index=True)
    return points[np.sort(first)]


def cloud_from_points(points: np.ndarray) -> GradientCloud:
    """Dedup to 1e-12 coordinatewise and append the origin if missing."""
    pts = _dedup_rows(np.asarray(points, dtype=np.float64))
    if not np.any(np.all(np.abs(pts) <= DEDUP_TOL, axis=1)):
        pts = np.vstack([pts, np.zeros(pts.shape[1])])
    return GradientCloud(pts)


def gradient_cloud(f: FourierExpansion, max_n: int | None = None) -> GradientCloud:
    """Exact gradients at all 2^n vertices, deduplicated, origin appended.

    Integer-coefficient Hamiltonians collide heavily here, which is what
    keeps the per-draw sup loop cheap.
    """
    return cloud_from_points(gradient_tables(f, max_n).T)


def width_samples(cloud: GradientCloud, samples: int, seed: int | None = 0) -> np.ndarray:
    """Per-draw suprema sup_{x in cloud} <x, G_k> for seeded Gaussian draws G_k.

    Draws come from ``numpy.random.default_rng(seed)`` (PCG64) in a fixed
    row-major order, so the k-th draw is the same vector for every cloud of
    the same dimension; per-draw sups are therefore directly comparable
    across clouds (monotone under cloud inclusion, exactly scaled under
    positive scaling).
    """
    if cloud.size == 0:
        raise ValueError("empty cloud")
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    chunk = max(1, min(int(samples), _CHUNK_BUDGET // max(cloud.size, 1)))
    sups = np.empty(samples)
    done = 0
    while done < samples:
        m = min(chunk, samples - done)
        g = rng.standard_normal((m, cloud.n))
        sups[done:done + m] = (cloud.points @ g.T).max(axis=0)
        done += m
    return sups


def gaussian_width_mc(cloud: GradientCloud, samples: int = DEFAULT_SAMPLES,
                      seed: int | None = 0) -> tuple[float, float]:
    """Monte-Carlo width estimate with its standard error.

    Bit-identical for identical (cloud, samples, seed); see ``width_samples``.
    """
    if samples < 2:
        raise ValueError("need at least two samples for a standard error")
    sups = width_samples(cloud, samples, seed)
    estimate = float(sups.mean())
    stderr = float(sups.std(ddof=1) / np.sqrt(samples))
    return estimate, stderr


def complexity_params(f: FourierExpansion, samples: int = DEFAULT_SAMPLES,
                      seed: int | None = 0, max_n: int | None = None) -> ComplexityParams:
    """Monte-Carlo D plus exact floored Lipschitz parameters for f, from one table set."""
    tables = gradient_tables(f, max_n)
    d, d_se = gaussian_width_mc(cloud_from_points(tables.T), samples=samples, seed=seed)
    return ComplexityParams.from_raw(
        max(d, 0.0),
        float(np.abs(tables).max()),
        flip_lipschitz(tables),
        d_stderr=d_se,
        d_provenance="monte_carlo",
    )
