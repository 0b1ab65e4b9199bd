"""Gradient complexity: the Gaussian width of the vertex gradients.

The gradient complexity of a Hamiltonian is the width
D = E[sup_{x in K u {0}} <x, G>] over standard Gaussian vectors G, where the
cloud K is its vertex gradient image.  The origin is never stored: every
supremum here starts at 0, so each width is over K u {0} by construction.

Above degree 2, ``gaussian_width_mc`` estimates D in two levels, a control
variate in the sense of multilevel Monte Carlo (Giles, Acta Numerica 2015):

    D = E sup_A <x, G> + E[sup_K <x, G> - sup_A <x, G>],

where the winner set A, a subset of K, holds the rows that attain the
supremum on a seeded pilot of ``PILOT_DRAWS`` draws over K.
Level 0 is ``width_samples(A, samples, seed)``: every requested draw, on
A alone.  Level 1 takes independent draws on all of K, as many as a probe
sizes by Giles' rule (``gaussian_width_mc``); its samples are
max(sup_K - sup_A, 0), zero unless a draw's maximiser lies outside A.  The
clamp is exact, since sup_K >= sup_A before rounding.  The two sups take
the same row's product in differently shaped blocks, which may round apart
either way: the clamp zeroes a draw that rounds below zero, but
``level1_nonzero`` can still count a draw that rounds above zero though its
maximiser lies in A.  The pilot draws from the first of the two children
spawned by ``SeedSequence(seed)``, the probe and level 1 in turn from the
second.  Few rows of a gradient cloud ever attain a supremum, so level 0
is cheap and level 1 is mostly zeros.  At most ``PLAIN_DRAWS`` requested
draws take A = K, and the estimate is plain Monte Carlo over ``width_samples``.

A cloud is a ``GradientCloud`` of explicit rows or the ``VertexCloud`` of a
vertex table F, held to ``boolfn``'s |F| <= max float / 2, whose row v is the
gradient at vertex v.  A sup walks the cloud in row blocks; a ``VertexCloud``
builds them from F as it goes, in slabs that are the flip blocks of
``boolfn.flip_blocks``, so ``complexity_params`` never holds the (n, 2^n)
gradient tables.  Duplicate rows never change a supremum, so K is not
deduplicated.

A degree <= 2 expansion takes none of this: its ``PairwiseCloud`` gives D in
closed form, at any scale.  Its gradient field x @ A + mu has a coordinate i
that does not depend on x_i, so a draw's sup over K is X = ||A G||_1 + <mu, G>.
Each (A G)_i is N(0, ||A_i||_2^2) and E<mu, G> = 0, so E X = m =
sqrt(2/pi) sum_i ||A_i||_2, and D = E max(X, 0) = m + E[X^-].  With mu = 0,
X >= 0 and D = m exactly; otherwise only the small term E[X^-] is sampled,
between the certified ends m and m + tau (``PairwiseCloud.width``).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Iterator

import numpy as np

from . import DEFAULT_SAMPLES, _debug_logger, boolfn
from .boolfn import FourierExpansion, flip_blocks, flip_rows, lipschitz, vertex_values
from .hamiltonians import ComplexityParams

PLAIN_DRAWS = 8192  # requested draws up to which the width is plain Monte Carlo over K
PILOT_DRAWS = 512
LEVEL1_FLOOR = 512  # the probe's draws, and the fewest that level 1 ever takes


@dataclass(frozen=True, eq=False)
class GradientCloud:
    """Gradient vectors K, one per row; widths are over K and the origin."""

    points: np.ndarray  # (k, n), k >= 0

    def __post_init__(self):
        pts = np.array(self.points, dtype=np.float64)
        if pts.ndim != 2:
            raise ValueError("cloud must be a (k, n) array")
        if not np.all(np.isfinite(pts)):
            raise ValueError("cloud points must be finite")
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


@dataclass(frozen=True, eq=False)
class VertexCloud:
    """The gradient cloud of a vertex table F: row v is the gradient at vertex v.

    The rows are built from F a slab at a time and never stored whole.  A
    slab is a flip block of ``boolfn._FLIP_BLOCK`` vertices, the block size of
    the Lipschitz walk, read at call time; so a sup over K holds one slab and
    one block of about ``boolfn._BLOCK_ENTRIES`` products.  Blocks hold the
    rows asked for, a power of two so that they tile every slab, or all 2^n
    rows where those are fewer.
    """

    values: np.ndarray  # (2^n,)

    def __post_init__(self):
        values = self.values
        if values.ndim != 1 or values.size < 2 or values.size & (values.size - 1):
            raise ValueError("vertex table must have 2^n entries, n >= 1")
        boolfn._check_vertex_table(values)

    @property
    def size(self) -> int:
        return self.values.size

    @property
    def n(self) -> int:
        return self.values.size.bit_length() - 1

    def blocks(self, rows: int) -> Iterator[tuple[int, np.ndarray]]:
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
    blocks, each of about ``boolfn._BLOCK_ENTRIES`` products.  With ``winners``
    also return, per draw, the first row that beats the origin's 0 and
    attains the sup, or -1 where none does.
    """
    m = draws.shape[0]
    best = np.zeros(m)
    where = np.full(m, -1, dtype=np.intp) if winners else None
    # every cloud gets the same power-of-two blocks (they tile each flip slab)
    # as C-contiguous rows, so each sup takes the same float steps on every cloud
    rows_per_block = max(1, boolfn._BLOCK_ENTRIES // m)
    for start, rows in cloud.blocks(1 << (rows_per_block.bit_length() - 1)):
        block = np.ascontiguousarray(rows) @ draws.T
        top = block.max(axis=0)
        if winners:
            # a column-wise argmax is slow; take it only where the sup moved
            better = top > best
            where[better] = start + block[:, better].argmax(axis=0)
        np.maximum(best, top, out=best)
    return best, where


def width_samples(cloud: Cloud, samples: int, seed: int | None = 0) -> np.ndarray:
    """Per-draw suprema sup_{x in cloud u {0}} <x, G_k> for the Gaussian draws G_k of
    ``_draws``: the k-th draw is the same vector for every cloud of the same
    dimension, so per-draw sups are comparable across clouds (monotone under
    inclusion, exactly scaled under positive scaling)."""
    if samples < 1:
        raise ValueError("need at least one sample")
    return np.concatenate([_sups(cloud, g)[0] for g in _draws(cloud.n, samples, seed)])


def _draws(n: int, samples: int, seed: int | None) -> Iterator[np.ndarray]:
    """``samples`` Gaussian draws in R^n from ``numpy.random.default_rng(seed)`` (PCG64),
    row-major, in blocks of about ``boolfn._BLOCK_ENTRIES`` entries."""
    rng = np.random.default_rng(seed)
    chunk = max(1, boolfn._BLOCK_ENTRIES // max(n, 1))
    for done in range(0, samples, chunk):
        yield rng.standard_normal((min(chunk, samples - done), n))


@dataclass(frozen=True)
class WidthEstimate:
    """A Monte-Carlo width, its standard error, and the draws behind it.

    ``winners`` is |A| + 1, counting the origin.  ``pilot_draws`` counts the
    pilot and level 1's probe.  On the plain path A = K, no pilot or level-1
    draw is taken, and level 0 is the whole estimate.
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


def _level1_samples(sup_k: np.ndarray, subset: GradientCloud, draws: np.ndarray) -> np.ndarray:
    """max(sup_K - sup_A, 0) per draw, from the draws' sups over K and the subset as A."""
    return np.maximum(sup_k - _sups(subset, draws)[0], 0.0)


def gaussian_width_mc(cloud: Cloud, samples: int = DEFAULT_SAMPLES,
                      seed: int | None = 0) -> WidthEstimate:
    """Two-level Monte-Carlo width estimate with its standard error.

    ``samples`` draws go to level 0 on the winner set A and N1 to level 1 on
    the full cloud, with SE = sqrt(var0/samples + var1/N1); see the module
    docstring for the seeding.  N1 follows Giles' rule N1/N0 = sqrt(V1 C0 /
    (V0 C1)), with the probe's variance as V1, level 0's as V0, C0 = |A| + 1
    and C1 = |K| + |A|, rounded up and clipped to [``LEVEL1_FLOOR``,
    ``PLAIN_DRAWS - PILOT_DRAWS - LEVEL1_FLOOR``]: the floor keeps level 1's
    SE from reading near zero on a few draws, and the cap keeps the draws
    over K at most ``PLAIN_DRAWS``.  A probe with no variance takes the floor; a
    level 0 with none, or a variance that is not finite, takes the cap.
    Level 1's mean and variance come from N1 draws taken after the probe, so
    the draws that chose N1 never enter it and the estimate stays unbiased.
    ``pilot_draws`` counts the pilot and the probe.

    When ``samples`` is at most ``PLAIN_DRAWS``, the estimate is plain
    Monte Carlo: the mean and ddof=1 standard error of
    ``width_samples(cloud, samples, seed)``.  Bit-identical for identical
    (cloud, samples, seed).
    """
    if samples < 2:
        raise ValueError("need at least two samples for a standard error")
    if samples <= PLAIN_DRAWS:
        sups = width_samples(cloud, samples, seed)
        stderr = float(sups.std(ddof=1) / np.sqrt(samples))
        width = WidthEstimate(estimate=float(sups.mean()), stderr=stderr, pilot_draws=0,
                              winners=cloud.size + 1, level0_draws=samples, level0_stderr=stderr,
                              level1_draws=0, level1_stderr=0.0, level1_nonzero=0)
    else:
        pilot_rng, level1_rng = map(np.random.default_rng, np.random.SeedSequence(seed).spawn(2))
        # a sup over K needs no A, so one walk over K takes the pilot, the
        # probe and level 1's first LEVEL1_FLOOR draws, which it always takes;
        # a BLAS product of more draws per row block is cheaper per draw
        g = np.concatenate([pilot_rng.standard_normal((PILOT_DRAWS, cloud.n)),
                            level1_rng.standard_normal((2 * LEVEL1_FLOOR, cloud.n))])
        sup_k, won = _sups(cloud, g, winners=True)
        won = np.sort(won[:PILOT_DRAWS])  # the origin's -1 first, then each row once
        subset = GradientCloud(cloud.take(won[np.diff(won, prepend=-1) > 0]))
        level0 = width_samples(subset, samples, seed)
        var0 = level0.var(ddof=1)
        probe = slice(PILOT_DRAWS, PILOT_DRAWS + LEVEL1_FLOOR)
        var1 = _level1_samples(sup_k[probe], subset, g[probe]).var(ddof=1)
        cap = PLAIN_DRAWS - PILOT_DRAWS - LEVEL1_FLOOR
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            want = samples * np.sqrt(var1 * (subset.size + 1) / (var0 * (cloud.size + subset.size)))
        if var1 == 0:  # nothing to allocate for, even where level 0 has no variance (0/0)
            draws = LEVEL1_FLOOR
        elif want <= cap:
            draws = max(math.ceil(want), LEVEL1_FLOOR)
        else:  # past the cap, or not finite
            draws = cap
        g, sup_k = g[probe.stop:], sup_k[probe.stop:]  # level 1's first LEVEL1_FLOOR draws
        if draws > LEVEL1_FLOOR:
            more = level1_rng.standard_normal((draws - LEVEL1_FLOOR, cloud.n))
            g, sup_k = np.concatenate([g, more]), np.concatenate([sup_k, _sups(cloud, more)[0]])
        level1 = _level1_samples(sup_k, subset, g)
        sq0 = var0 / samples  # squared standard error of each level
        sq1 = level1.var(ddof=1) / draws
        width = WidthEstimate(estimate=float(level0.mean() + level1.mean()),
                              stderr=float(np.sqrt(sq0 + sq1)),
                              pilot_draws=PILOT_DRAWS + LEVEL1_FLOOR, winners=subset.size + 1,
                              level0_draws=samples, level0_stderr=float(np.sqrt(sq0)),
                              level1_draws=draws, level1_stderr=float(np.sqrt(sq1)),
                              level1_nonzero=int(np.count_nonzero(level1)))
    if (logger := _debug_logger(__name__)) is not None:
        logger.debug("width over %d points: %d winners from %d pilot draws; level 0 %d draws, "
                     "level 1 %d draws with %d nonzero", cloud.size + 1, width.winners,
                     width.pilot_draws, width.level0_draws, width.level1_draws,
                     width.level1_nonzero)
    return width


@dataclass(frozen=True, eq=False)
class PairwiseCloud:
    """The 2^n vertex gradients x @ A + mu of a pairwise form (A symmetric, zero
    diagonal), as ``boolfn.pairwise_form`` returns it; no row is ever built."""

    a: np.ndarray  # (n, n)
    mu: np.ndarray  # (n,)

    def lipschitz(self) -> tuple[float, float]:
        """(L1, L2), both exact: with row_i = sum_j |A_ij|, L1 = max_i(row_i + |mu_i|) and
        L2 = max_i row_i, the one-norm of the gradient change under flipping x_i,
        halved (A is symmetric, so row sums are column sums)."""
        row = np.abs(self.a).sum(axis=1)
        return float((row + np.abs(self.mu)).max()), float(row.max())

    def sups(self, draws: np.ndarray) -> np.ndarray:
        """X = ||A g||_1 + <mu, g> per draw g, the sup of <x @ A + mu, g> over the vertices
        x alone: x_i = sign((A g)_i) attains it.  Without the origin, X may be negative."""
        return np.abs(draws @ self.a).sum(axis=1) + draws @ self.mu

    def width(self, samples: int, seed: int | None = 0) -> tuple[float, float, float, float]:
        """(D, its standard error, D-, D+): the width over K u {0} and its certified ends.

        D = m + E[X^-] (the module docstring), and with mu = 0, D = m: no draw is
        taken.  Else the ends are m and m + tau, tau = min(||mu||_2 / sqrt(2 pi),
        R sqrt(pi/2) erfc(m / (sqrt(2) R))): X^- <= <mu, G>^-, and X is R-Lipschitz in G,
        R = ||(sum_j |A_ij| + |mu_i|)_i||_2, so Gaussian concentration bounds E[X^-] by
        the second term.  D is m plus the mean of X^- over the ``samples`` draws of
        ``_draws``, at most m + tau, with that mean's standard error.  ``math.hypot``
        takes ||A_i||_2, ||mu||_2 and R with no overflow or underflow on the way, so m
        and tau scale exactly with A and mu, and R > 0 here.
        """
        if samples < 2:
            raise ValueError("need at least two samples for a standard error")
        rows = np.fromiter((math.hypot(*row) for row in self.a), float, self.mu.size)
        m = math.sqrt(2.0 / math.pi) * float(rows.sum())
        if not self.mu.any():
            return m, 0.0, m, m
        r = math.hypot(*(np.abs(self.a).sum(axis=1) + np.abs(self.mu)))
        tau = min(math.hypot(*self.mu) / math.sqrt(2.0 * math.pi),
                  r * math.sqrt(math.pi / 2.0) * math.erfc(m / (math.sqrt(2.0) * r)))
        negative = np.concatenate([np.maximum(-self.sups(g), 0.0)
                                   for g in _draws(self.mu.size, samples, seed)])
        return (min(m + float(negative.mean()), m + tau),
                float(negative.std(ddof=1) / math.sqrt(samples)), m, m + tau)


def complexity_params(f: FourierExpansion, samples: int = DEFAULT_SAMPLES,
                      seed: int | None = 0) -> ComplexityParams:
    """The width D with its standard error, and exact floored Lipschitz parameters, of f.

    A degree <= 2 expansion needs no vertex table and no cap, at any scale: D
    with its certified ends ``d_lower`` and ``d_upper``, and L1 and L2, come
    from the ``PairwiseCloud`` of ``boolfn.pairwise_form(f)``.  Any other f
    goes through its one vertex table F, held to |F| <= max float / 2: D and
    its ``d_levels`` from ``gaussian_width_mc`` over the ``VertexCloud`` of F,
    L1 and L2 from one walk over F's flip blocks.  A value that overflows is
    refused (``ComplexityParams`` takes finite ones only).
    """
    form = boolfn.pairwise_form(f)
    if form is not None:
        cloud = PairwiseCloud(*form)
        with np.errstate(over="ignore", invalid="ignore"):
            d, d_stderr, d_lower, d_upper = cloud.width(samples, seed)
            lips = cloud.lipschitz()
        return ComplexityParams.from_raw(d, *lips, d_stderr=d_stderr,
                                         d_lower=d_lower, d_upper=d_upper)
    cloud, lips = VertexCloud(vertex_values(f)), lipschitz(f)
    with np.errstate(over="ignore", invalid="ignore"):
        width = gaussian_width_mc(cloud, samples=samples, seed=seed)
    return ComplexityParams.from_raw(width.estimate, *lips, d_stderr=width.stderr,
                                     d_levels=width.levels())
