"""Gradient complexity: the Monte-Carlo Gaussian width of the vertex gradients.

The gradient complexity of a Hamiltonian is the width
D = E[sup_{x in K u {0}} <x, G>] over standard Gaussian vectors G, where the
cloud K is its vertex gradient image.  The origin is never stored: every
supremum here starts at 0, so each width is over K u {0} by construction.

``gaussian_width_mc`` estimates D in two levels, a control variate in the
sense of multilevel Monte Carlo (Giles, Acta Numerica 2015):

    D = E sup_A <x, G> + E[sup_K <x, G> - sup_A <x, G>],

where the winner set A, a subset of K, holds the rows that attain the
supremum on a seeded pilot of ``PILOT_DRAWS`` draws over K.
Level 0 is ``width_samples(A, samples, seed)``: every requested draw, on
A alone.  Level 1 takes ``LEVEL1_DRAWS`` independent draws on all of K;
its samples are >= 0 draw by draw, and zero unless a draw's maximiser lies
outside A.  The pilot and level 1 draw from the two children spawned by
``SeedSequence(seed)``.
Few rows of a gradient cloud ever attain a supremum, so level 0 is cheap
and level 1 is mostly zeros.  When the pilot and level 1 together would
take at least as many draws as requested, A = K and the estimate is plain
Monte Carlo over ``width_samples``.

Duplicate rows never change a supremum, so ``complexity_params`` hands the
raw gradient tables to the width.
"""

from __future__ import annotations

import logging
from dataclasses import asdict, dataclass

import numpy as np

from .boolfn import FourierExpansion, flip_lipschitz, gradient_tables
from .hamiltonians import ComplexityParams

DEFAULT_SAMPLES = 100_000
PILOT_DRAWS = 4096
LEVEL1_DRAWS = 4096
_BLOCK_ENTRIES = 1 << 18  # entries per (rows x draws) product block: 2 MB

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class GradientCloud:
    """Gradient vectors K, one per row; widths are over K and the origin."""

    points: np.ndarray  # (k, n), k >= 0

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2:
            raise ValueError("cloud must be a (k, n) array")
        if not np.all(np.isfinite(pts)):
            raise ValueError("cloud points must be finite")
        if pts.flags.writeable:  # a read-only array is kept as it is, without a copy
            pts = pts.copy()
            pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def n(self) -> int:
        return self.points.shape[1]


def _sups(points: np.ndarray, draws: np.ndarray,
          winners: bool = False) -> tuple[np.ndarray, np.ndarray | None]:
    """Per-draw sup of <x, g> over the rows x and the origin, walking the rows in blocks.

    The running maximum starts at the origin's 0 and carries the sup across
    blocks, each of about ``_BLOCK_ENTRIES`` products.  With ``winners``
    also return, per draw, the first row that beats the origin's 0 and
    attains the sup, or -1 where none does.
    """
    m = draws.shape[0]
    rows = max(1, _BLOCK_ENTRIES // m)
    best = np.zeros(m)
    where = np.full(m, -1, dtype=np.intp) if winners else None
    for start in range(0, points.shape[0], rows):
        block = points[start:start + rows] @ draws.T
        top = block.max(axis=0)
        if winners:
            # a column-wise argmax is slow; take it only where the sup moved
            better = top > best
            where[better] = start + block[:, better].argmax(axis=0)
        np.maximum(best, top, out=best)
    return best, where


def width_samples(cloud: GradientCloud, samples: int, seed: int | None = 0) -> np.ndarray:
    """Per-draw suprema sup_{x in cloud u {0}} <x, G_k> for seeded Gaussian draws G_k.

    Draws come from ``numpy.random.default_rng(seed)`` (PCG64) in a fixed
    row-major order, so the k-th draw is the same vector for every cloud of
    the same dimension; per-draw sups are therefore directly comparable
    across clouds (monotone under cloud inclusion, exactly scaled under
    positive scaling).
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    chunk = max(1, _BLOCK_ENTRIES // max(cloud.n, 1))
    sups = np.empty(samples)
    for done in range(0, samples, chunk):
        g = rng.standard_normal((min(chunk, samples - done), cloud.n))
        sups[done:done + g.shape[0]] = _sups(cloud.points, g)[0]
    return sups


@dataclass(frozen=True)
class WidthEstimate:
    """A Monte-Carlo width, its standard error, and the draws behind it.

    ``winners`` is |A| + 1, counting the origin.  On the plain path A = K,
    no pilot or level-1 draw is taken, and level 0 is the whole estimate.
    """

    estimate: float
    stderr: float
    pilot_draws: int
    winners: int
    level0_draws: int
    level0_stderr: float
    level1_draws: int
    level1_stderr: float
    level1_nonzero: int

    def levels(self) -> dict:
        """Every field but the estimate and its standard error."""
        out = asdict(self)
        del out["estimate"], out["stderr"]
        return out


def gaussian_width_mc(cloud: GradientCloud, samples: int = DEFAULT_SAMPLES,
                      seed: int | None = 0) -> WidthEstimate:
    """Two-level Monte-Carlo width estimate with its standard error.

    ``samples`` draws go to level 0 on the winner set A and ``LEVEL1_DRAWS``
    to level 1 on the full cloud, with SE = sqrt(var0/samples + var1/LEVEL1_DRAWS);
    see the module docstring for the seeding.  When ``samples`` is at most
    ``PILOT_DRAWS + LEVEL1_DRAWS`` the estimate is plain Monte Carlo: the
    mean and ddof=1 standard error of ``width_samples(cloud, samples, seed)``.
    Bit-identical for identical (cloud, samples, seed).
    """
    if samples < 2:
        raise ValueError("need at least two samples for a standard error")
    if PILOT_DRAWS + LEVEL1_DRAWS >= samples:
        sups = width_samples(cloud, samples, seed)
        stderr = float(sups.std(ddof=1) / np.sqrt(samples))
        width = WidthEstimate(estimate=float(sups.mean()), stderr=stderr,
                              pilot_draws=0, winners=cloud.size + 1,
                              level0_draws=samples, level0_stderr=stderr,
                              level1_draws=0, level1_stderr=0.0, level1_nonzero=0)
    else:
        points, n = cloud.points, cloud.n
        pilot_rng, level1_rng = map(np.random.default_rng, np.random.SeedSequence(seed).spawn(2))
        _, won = _sups(points, pilot_rng.standard_normal((PILOT_DRAWS, n)), winners=True)
        subset = GradientCloud(points[np.unique(won[won >= 0])])
        level0 = width_samples(subset, samples, seed)
        g = level1_rng.standard_normal((LEVEL1_DRAWS, n))
        level1 = _sups(points, g)[0] - _sups(subset.points, g)[0]
        sq0 = level0.var(ddof=1) / samples  # squared standard error of each level
        sq1 = level1.var(ddof=1) / LEVEL1_DRAWS
        width = WidthEstimate(estimate=float(level0.mean() + level1.mean()),
                              stderr=float(np.sqrt(sq0 + sq1)),
                              pilot_draws=PILOT_DRAWS, winners=subset.size + 1,
                              level0_draws=samples, level0_stderr=float(np.sqrt(sq0)),
                              level1_draws=LEVEL1_DRAWS, level1_stderr=float(np.sqrt(sq1)),
                              level1_nonzero=int(np.count_nonzero(level1)))
    logger.debug("width over %d points: %d winners from %d pilot draws; level 0 %d draws, "
                 "level 1 %d draws with %d nonzero", cloud.size + 1, width.winners,
                 width.pilot_draws, width.level0_draws, width.level1_draws, width.level1_nonzero)
    return width


def complexity_params(f: FourierExpansion, samples: int = DEFAULT_SAMPLES,
                      seed: int | None = 0, max_n: int | None = None) -> ComplexityParams:
    """Monte-Carlo D plus exact floored Lipschitz parameters for f, from one table set.

    The width reads the undeduplicated gradients through a read-only view.
    """
    tables = gradient_tables(f, max_n)
    tables.flags.writeable = False
    width = gaussian_width_mc(GradientCloud(tables.T), samples=samples, seed=seed)
    return ComplexityParams.from_raw(
        width.estimate,
        float(max(tables.max(), -tables.min())),
        flip_lipschitz(tables),
        d_stderr=width.stderr,
        d_provenance="monte_carlo",
        d_levels=width.levels(),
    )
