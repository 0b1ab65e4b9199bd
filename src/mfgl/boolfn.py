"""Sparse multilinear (Fourier) representation of real functions on {-1,1}^n.

A function f on the vertex set is stored as a sparse collection of
(subset bitmask, coefficient) pairs; its value anywhere is the multilinear
polynomial sum(coeff * prod_{i in S} x_i).  The multilinear extension to
[-1,1]^n equals the expectation of f under the product measure with the
given mean vector, which is what makes it the natural extension for
mean-field arguments.

Vertex encoding used everywhere in this package: bit i of the vertex index
is 1 when coordinate i equals +1, so vertex index = sum(b_i * 2^i).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from . import _caps_in_force

MAX_DIMENSION = 63  # int64 subset masks hold coordinates 0..62
PRUNE_TOL = 1e-14
_BLOCK_ENTRIES = 1 << 18  # entries per block of the term kernel and of complexity's width: 2 MB
_FLIP_BLOCK = 1 << 14  # vertices per flip block of F (Lipschitz walk, cloud slabs): 2.6 MB at n = 20


class DimensionMismatch(ValueError):
    """Input vector length does not match the function's ambient dimension."""


class CapExceeded(ValueError):
    """A dense 2^n enumeration was requested above the configured cap."""


def _check_cap(n: int, what: str) -> None:
    """Refuse a dense table of 2^n states above the cap in force (``mfgl.size_caps``)."""
    cap = _caps_in_force()[0]
    if n > cap:
        raise CapExceeded(f"{what} needs 2^{n} states but the cap is n <= {cap}")


def walsh_hadamard(values: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform, W[s] = sum_v a[v] (-1)^popcount(s & v)."""
    a = np.array(values, dtype=np.float64)
    m = a.size
    if m & (m - 1):
        raise ValueError("length must be a power of two")
    h = 1
    while h < m:
        a = a.reshape(-1, 2, h)
        x = a[:, 0, :].copy()
        a[:, 0, :] += a[:, 1, :]
        np.subtract(x, a[:, 1, :], out=a[:, 1, :])
        h *= 2
    return a.reshape(m)


@dataclass(frozen=True)
class FourierExpansion:
    """Immutable sparse multilinear polynomial over subsets of [n].

    ``masks`` holds one bitmask per subset (no duplicates, only the low n
    bits used) and ``coeffs`` the aligned real coefficients.  An empty term
    list is the zero function.
    """

    n: int
    masks: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    coeffs: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self):
        if self.n <= 0:
            raise ValueError("ambient dimension must be positive")
        masks = np.asarray(self.masks, dtype=np.int64)
        coeffs = np.asarray(self.coeffs, dtype=np.float64)
        if masks.shape != coeffs.shape or masks.ndim != 1:
            raise ValueError("masks and coeffs must be aligned 1-d arrays")
        if masks.size and (masks.min() < 0 or masks.max() >= (1 << self.n)):
            raise ValueError(f"subset bitmask outside the low {self.n} bits")
        if masks.size != np.unique(masks).size:
            raise ValueError("duplicate subsets in term list")
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("non-finite coefficient")
        order = np.argsort(masks, kind="stable")
        masks = masks[order]
        coeffs = coeffs[order]
        masks.flags.writeable = False
        coeffs.flags.writeable = False
        object.__setattr__(self, "masks", masks)
        object.__setattr__(self, "coeffs", coeffs)

    @staticmethod
    def from_terms(n: int, terms: Iterable[tuple[int | Sequence[int], float]]) -> "FourierExpansion":
        """Build from (subset, coefficient) pairs; subsets are bitmasks or index lists.

        Duplicate subsets are summed and exact-zero coefficients dropped.
        """
        acc: dict[int, float] = {}
        for subset, coeff in terms:
            if isinstance(subset, (int, np.integer)):
                mask = int(subset)
            else:
                mask = 0
                for i in subset:
                    bit = 1 << int(i)
                    if mask & bit:
                        raise ValueError(f"repeated index {i} in subset")
                    mask |= bit
            acc[mask] = acc.get(mask, 0.0) + float(coeff)
        masks = [m for m, c in acc.items() if c != 0.0]
        coeffs = [acc[m] for m in masks]
        return FourierExpansion(n, np.array(masks, dtype=np.int64), np.array(coeffs))

    def degree(self) -> int:
        if self.masks.size == 0:
            return 0
        return int(np.bitwise_count(self.masks.astype(np.uint64)).max())

    def shift(self, c: float) -> "FourierExpansion":
        """f + c as a new expansion."""
        return add_linear(self, np.zeros(self.n), c)

    @cached_property
    def _vertex_table(self) -> np.ndarray:
        """F on all 2^n vertices: built once, read-only, refused unless finite."""
        tab = np.zeros(1 << self.n)
        tab[self.masks] = self.coeffs * (1.0 - 2.0 * (np.bitwise_count(self.masks) & 1))
        with np.errstate(over="ignore", invalid="ignore"):
            tab = walsh_hadamard(tab)
        if not np.all(np.isfinite(tab)):
            raise ValueError("Hamiltonian evaluates to non-finite values")
        tab.flags.writeable = False
        return tab

    @cached_property
    def _terms(self) -> np.ndarray:
        """The term index of the extension kernels, built once and read-only.

        Column t (degree x terms) holds term t's coordinates in increasing
        order, padded to the degree with ``n``, the index of a row of ones
        appended to the points; terms keep the mask order.  Points enter as
        columns, so each product and sum runs over whole (terms x batch)
        slices.  ``eval_extension`` and ``gradient_extension`` walk the terms
        in blocks of about ``_BLOCK_ENTRIES`` entries, the width being the
        degree for the value and n + 1 for the gradient, whose shares are
        spread over every coordinate.  A running sum carries across blocks,
        adding the terms' shares one after another in mask order from 0.0.
        So each point's bits do not depend on the batch around it, and they
        match a per-term loop that adds ``coeff * prod`` (or, per coordinate,
        ``coeff * prefix * suffix``) into a zero-initialised accumulator.
        """
        masks = self.masks.astype(np.uint64)
        idx = np.full((max(self.degree(), 1), masks.size), self.n, dtype=np.intp)
        for i in range(self.n):
            has = np.nonzero((masks >> np.uint64(i)) & np.uint64(1))[0]
            below = np.bitwise_count(masks[has] & np.uint64((1 << i) - 1)).astype(np.intp)
            idx[below, has] = i
        idx.flags.writeable = False
        return idx

    @cached_property
    def _pairwise(self) -> tuple[np.ndarray, np.ndarray] | None:
        """(A, mu) with gradient field x @ A + mu for degree <= 2, else None.  Each term's
        coefficient is assigned, never added, at (i, j) and (j, i) of an (n + 1)^2 table, i, j
        its index rows (pads n), so -0.0 stays; A is the C-contiguous leading block, mu row n."""
        if self.degree() > 2:
            return None
        i, j = np.vstack([self._terms, np.full_like(self._terms, self.n)])[:2]
        full = np.zeros((self.n + 1, self.n + 1))
        full[i, j] = full[j, i] = self.coeffs
        a, mu = full[:-1, :-1].copy(), full[-1, :-1].copy()
        a.flags.writeable = mu.flags.writeable = False
        return a, mu


def add_linear(f: FourierExpansion, theta: np.ndarray, const: float = 0.0) -> FourierExpansion:
    """f + <theta, x> + const as a new expansion."""
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape != (f.n,):
        raise DimensionMismatch(f"theta has shape {theta.shape}, expected ({f.n},)")
    terms = list(zip(f.masks.tolist(), f.coeffs.tolist()))
    terms.extend((1 << i, theta[i]) for i in range(f.n) if theta[i] != 0.0)
    if const != 0.0:
        terms.append((0, const))
    return FourierExpansion.from_terms(f.n, terms)


def _points(f: FourierExpansion, x) -> tuple[np.ndarray, np.ndarray]:
    """x as an array (..., n) and its points as columns (n + 1, B), the last row ones."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != f.n:
        raise DimensionMismatch(f"point dimension {x.shape[-1]} != f.n = {f.n}")
    pts = x.reshape(-1, f.n).T
    return x, np.concatenate([pts, np.ones((1, pts.shape[1]))])


def _term_blocks(f: FourierExpansion, batch: int, width: int):
    size = max(1, _BLOCK_ENTRIES // max(batch * width, 1))
    for start in range(0, f.coeffs.size, size):
        yield f._terms[:, start:start + size], f.coeffs[start:start + size, None]


def eval_extension(f: FourierExpansion, x) -> float | np.ndarray:
    """Multilinear extension sum_S coeff(S) prod_{i in S} x_i.

    Accepts a single point (n,) or a batch (..., n); at vertices this equals
    the Boolean value of f.
    """
    x, pts = _points(f, x)
    acc = np.zeros((1, pts.shape[1]))
    for idx, coeffs in _term_blocks(f, pts.shape[1], f._terms.shape[0]):
        terms = coeffs * np.multiply.accumulate(pts[idx], axis=0)[-1]
        acc = np.add.accumulate(np.concatenate([acc, terms]), axis=0)[-1:]
    out = acc.reshape(x.shape[:-1])
    return float(out) if out.ndim == 0 else out


def gradient_extension(f: FourierExpansion, x) -> np.ndarray:
    """Extended discrete gradient: component i is sum_{S ∋ i} coeff(S) prod_{j in S\\{i}} x_j.

    At a vertex this is the vector of half-differences under single
    coordinate flips; on the solid cube it agrees with the real partial
    derivatives of the extension.  Division-free (safe at zero coordinates).
    """
    x, pts = _points(f, x)
    rows, batch = pts.shape
    acc = np.zeros((rows, batch))
    for idx, coeffs in _term_blocks(f, batch, rows):
        sub = pts[idx]
        share = np.empty_like(sub)
        share[0] = coeffs
        np.multiply(coeffs, np.multiply.accumulate(sub[:-1], axis=0), out=share[1:])
        share[:-1] *= np.multiply.accumulate(sub[:0:-1], axis=0)[::-1]
        # Term t's shares land in layer t + 1 at its coordinates' rows (pads
        # on row n, dropped at the end) and +0.0 everywhere else.  Adding
        # +0.0 leaves the running sum as it is: it starts at +0.0, so it
        # is never -0.0.
        spread = np.zeros((idx.shape[1] + 1, rows, batch))
        spread[0] = acc
        spread[np.arange(1, idx.shape[1] + 1), idx] = share
        acc = np.add.accumulate(spread, axis=0, out=spread)[-1].copy()
    return acc[:-1].T.reshape(x.shape)


def pairwise_form(f: FourierExpansion) -> tuple[np.ndarray, np.ndarray] | None:
    """(A, mu) of f's gradient field x @ A + mu, read-only, when f has degree <= 2; else None."""
    return f._pairwise


def vertex_values(f: FourierExpansion) -> np.ndarray:
    """Dense table of f over all 2^n vertices (index = bit encoding), built once
    per expansion and returned read-only; the cap is checked on every call."""
    _check_cap(f.n, "vertex table")
    return f._vertex_table


def from_vertex_values(n: int, values: np.ndarray, prune: float = PRUNE_TOL) -> FourierExpansion:
    """Inverse character transform: expansion matching the given vertex table.

    Coefficients below ``prune`` in absolute value are dropped to keep the
    result sparse; non-finite values, whose NaN coefficients would be dropped, are refused.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.size != (1 << n):
        raise ValueError(f"need 2^{n} vertex values, got {values.size}")
    if not np.all(np.isfinite(values)):
        raise ValueError("vertex values must be finite")
    signs = 1.0 - 2.0 * (np.bitwise_count(np.arange(1 << n)) & 1)
    coeffs = walsh_hadamard(values) * signs / float(1 << n)
    keep = np.nonzero(np.abs(coeffs) > prune)[0]
    return FourierExpansion(n, keep.astype(np.int64), coeffs[keep])


def flip_differences(values: np.ndarray) -> np.ndarray:
    """Discrete partial derivatives read off one vertex table F, shape (n, 2^n).

    The flip pair v, v ^ 2^i shares d_i f = (F[bit i set] - F[bit i clear]) / 2.
    """
    return flip_block(values, 0, values.size)


def flip_block(values: np.ndarray, start: int, size: int,
               out: np.ndarray | None = None) -> np.ndarray:
    """Columns [start, start + size) of ``flip_differences(values)``, shape (n, size).

    ``size`` is a power of two that divides ``start``.  For a bit i with
    2^i < size, viewing the block as (-1, 2, 2^i) lines up every flip pair
    inside it.  For a higher bit the whole block sits on one side of the flip,
    and its partners are the contiguous range at start ^ 2^i.  Each entry is
    the same 0.5 * (F[hi] - F[lo]), so a block equals the full table's columns
    bit for bit.  The block is written into ``out`` when given.
    """
    n = values.size.bit_length() - 1
    block = values[start:start + size]
    out = np.empty((n, size)) if out is None else out
    for i in range(n):
        step = 1 << i
        if step < size:
            pairs = block.reshape(-1, 2, step)
            out[i].reshape(pairs.shape)[:] = (0.5 * (pairs[:, 1] - pairs[:, 0]))[:, None]
        else:
            other = values[start ^ step:(start ^ step) + size]
            hi, lo = (block, other) if start & step else (other, block)
            np.subtract(hi, lo, out=out[i])
            out[i] *= 0.5
    return out


def flip_blocks(values: np.ndarray, size: int) -> Iterator[tuple[int, np.ndarray]]:
    """(start, ``flip_block(values, start, size)``) over the whole table, in order;
    ``size`` is a power of two, clipped to the table.

    Every block is written into one buffer, so a block is valid only until
    the next step: a scan touches fresh pages once, not once per block.
    """
    size = min(size, values.size)
    out = np.empty((values.size.bit_length() - 1, size))
    for start in range(0, values.size, size):
        yield start, flip_block(values, start, size, out)


def flip_rows(values: np.ndarray, vertices: np.ndarray) -> np.ndarray:
    """Columns ``vertices`` of ``flip_differences(values)`` as rows, shape (len(vertices), n)."""
    n = values.size.bit_length() - 1
    out = np.empty((len(vertices), n))
    for i in range(n):
        out[:, i] = 0.5 * (values[vertices | (1 << i)] - values[vertices & ~(1 << i)])
    return out


def lipschitz(f: FourierExpansion) -> tuple[float, float]:
    """(L1, L2) of f by exact enumeration, in one walk over the flip blocks of F.

    L1 is the max over coordinates and vertices of |partial_i f|, read off
    each block as max(grad.max(), -grad.min()).  L2 is the sup over vertex
    pairs of ||grad f(x) - grad f(y)||_1 / ||x - y||_1, computed over
    Hamming-distance-1 pairs only: the ratio for any pair is bounded by the
    worst single-flip ratio along a connecting path (the numerator is
    subadditive over the flips while the denominator is additive), so the
    supremum is attained at distance 1.  This costs O(n^2 2^n) instead of
    O(4^n); the small-n all-pairs oracle in the test suite guards the
    reduction.  The walk takes blocks of ``_FLIP_BLOCK`` vertices: a flip
    inside a block pairs its own columns, and a higher flip pairs the block
    with the partner block above it.
    """
    values = vertex_values(f)
    l1 = l2 = 0.0
    shape = (f.n, min(values.size, _FLIP_BLOCK))
    partner, buf = np.empty(shape), np.empty(shape)
    for start, grad in flip_blocks(values, _FLIP_BLOCK):
        l1 = max(l1, float(grad.max()), -float(grad.min()))
        size = grad.shape[1]
        for i in range(f.n):
            step = 1 << i
            if step < size:
                pairs = grad.reshape(f.n, -1, 2, step)
                hi, lo = pairs[:, :, 1], pairs[:, :, 0]
            elif start & step:
                continue  # scanned from the lower end of the flip
            else:
                hi, lo = flip_block(values, start | step, size, partner), grad
            diff = buf.reshape(-1)[:lo.size].reshape(lo.shape)
            np.abs(np.subtract(hi, lo, out=diff), out=diff)
            # the sum over j runs in order from diff[0], which is 0.0 + diff[0]
            for j in range(1, f.n):
                diff[0] += diff[j]
            l2 = max(l2, float(diff[0].max()) / 2.0)
    return l1, l2


def compose(f: FourierExpansion, h) -> FourierExpansion:
    """Expansion of the vertex map v -> h(f(v)) via a full truth table.

    ``h`` is a scalar shape (anything with a vectorized ``value``) or a
    plain callable.  Exact at every vertex up to the 1e-14 coefficient
    pruning applied after the transform.
    """
    values = vertex_values(f)
    fn: Callable = h.value if hasattr(h, "value") else h
    hv = np.asarray(fn(values), dtype=np.float64)
    if hv.shape != values.shape:
        raise ValueError("scalar shape did not evaluate elementwise")
    return from_vertex_values(f.n, hv)
