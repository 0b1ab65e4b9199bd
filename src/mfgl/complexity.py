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

A cloud is either a ``GradientCloud`` of explicit rows or the ``VertexCloud``
of a vertex table F, whose row v is the gradient at vertex v.  Every sup
walks the cloud in row blocks; a ``VertexCloud`` builds them from F as it
goes, in slabs that are the flip blocks of ``boolfn.flip_blocks``, so
``complexity_params`` never holds the (n, 2^n) gradient tables.  Duplicate
rows never change a supremum, so K is not deduplicated.
"""

from __future__ import annotations

import logging
from dataclasses import asdict, dataclass
from typing import Iterator

import numpy as np

from . import boolfn
from .boolfn import FourierExpansion, flip_blocks, flip_rows, lipschitz, vertex_values
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

    def blocks(self, rows: int) -> Iterator[tuple[int, np.ndarray]]:
        """(start, rows [start, start + rows)) over the cloud, in order."""
        for start in range(0, self.size, rows):
            yield start, self.points[start:start + rows]

    def take(self, index: np.ndarray) -> np.ndarray:
        """The rows at ``index``, shape (len(index), n)."""
        return self.points[index]


_MAX_VERTEX_VALUE = np.finfo(np.float64).max / 2  # keeps every flip difference finite


@dataclass(frozen=True)
class VertexCloud:
    """The gradient cloud of a vertex table F: row v is the gradient at vertex v.

    The rows are built from F a slab at a time and never stored whole.  A
    slab is a flip block of ``boolfn._FLIP_BLOCK`` vertices, the block size of
    the Lipschitz walk, read at call time; so a sup over K holds one slab and
    one block of about ``_BLOCK_ENTRIES`` products.  Blocks hold a power of
    two of rows, at most the rows asked for.
    """

    values: np.ndarray  # (2^n,)

    def __post_init__(self):
        values = self.values
        if values.ndim != 1 or values.size < 2 or values.size & (values.size - 1):
            raise ValueError("vertex table must have 2^n entries, n >= 1")
        if not max(values.max(), -values.min()) <= _MAX_VERTEX_VALUE:
            raise ValueError("vertex table must be finite, with |F| <= max float / 2 "
                             "so that every flip difference is finite")

    @property
    def size(self) -> int:
        return self.values.size

    @property
    def n(self) -> int:
        return self.values.size.bit_length() - 1

    def blocks(self, rows: int) -> Iterator[tuple[int, np.ndarray]]:
        rows = 1 << (rows.bit_length() - 1)  # a power of two, so blocks tile every slab
        for start, grad in flip_blocks(self.values, max(rows, boolfn._FLIP_BLOCK)):
            for at in range(0, grad.shape[1], rows):
                yield start + at, grad[:, at:at + rows].T

    def take(self, index: np.ndarray) -> np.ndarray:
        return flip_rows(self.values, index)


Cloud = GradientCloud | VertexCloud


def _sups(cloud: Cloud, draws: np.ndarray,
          winners: bool = False) -> tuple[np.ndarray, np.ndarray | None]:
    """Per-draw sup of <x, g> over the cloud's rows x and the origin, walking the rows in blocks.

    The running maximum starts at the origin's 0 and carries the sup across
    blocks, each of about ``_BLOCK_ENTRIES`` products.  With ``winners``
    also return, per draw, the first row that beats the origin's 0 and
    attains the sup, or -1 where none does.
    """
    m = draws.shape[0]
    best = np.zeros(m)
    where = np.full(m, -1, dtype=np.intp) if winners else None
    for start, rows in cloud.blocks(max(1, _BLOCK_ENTRIES // m)):
        block = rows @ draws.T
        top = block.max(axis=0)
        if winners:
            # a column-wise argmax is slow; take it only where the sup moved
            better = top > best
            where[better] = start + block[:, better].argmax(axis=0)
        np.maximum(best, top, out=best)
    return best, where


def width_samples(cloud: Cloud, samples: int, seed: int | None = 0) -> np.ndarray:
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
        sups[done:done + g.shape[0]] = _sups(cloud, g)[0]
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


def gaussian_width_mc(cloud: Cloud, samples: int = DEFAULT_SAMPLES,
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
        pilot_rng, level1_rng = map(np.random.default_rng, np.random.SeedSequence(seed).spawn(2))
        _, won = _sups(cloud, pilot_rng.standard_normal((PILOT_DRAWS, cloud.n)), winners=True)
        subset = GradientCloud(cloud.take(np.unique(won[won >= 0])))
        level0 = width_samples(subset, samples, seed)
        g = level1_rng.standard_normal((LEVEL1_DRAWS, cloud.n))
        level1 = _sups(cloud, g)[0] - _sups(subset, g)[0]
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
    """Monte-Carlo D plus exact floored Lipschitz parameters for f, from its one vertex table.

    The width walks the undeduplicated ``VertexCloud`` of F, and L1 and L2
    come from one walk over F's flip blocks, so no (n, 2^n) array is built.
    """
    width = gaussian_width_mc(VertexCloud(vertex_values(f, max_n)), samples=samples, seed=seed)
    return ComplexityParams.from_raw(
        width.estimate,
        *lipschitz(f, max_n),
        d_stderr=width.stderr,
        d_provenance="monte_carlo",
        d_levels=width.levels(),
    )
