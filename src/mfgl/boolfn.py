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
from typing import Callable, Iterable, Sequence

import numpy as np

DEFAULT_ENUM_CAP = 20
PRUNE_TOL = 1e-14
_BLOCK_ENTRIES = 1 << 18  # entries per (width x terms x batch) block of the term kernel: 2 MB


class DimensionMismatch(ValueError):
    """Input vector length does not match the function's ambient dimension."""


class CapExceeded(ValueError):
    """A dense 2^n enumeration was requested above the configured cap."""


def _resolve_cap(max_n: int | None) -> int:
    return DEFAULT_ENUM_CAP if max_n is None else int(max_n)


def _check_cap(n: int, max_n: int | None, what: str) -> None:
    cap = _resolve_cap(max_n)
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
        """F on all 2^n vertices, built once and read-only; ``vertex_values`` checks the cap."""
        tab = np.zeros(1 << self.n)
        tab[self.masks] = self.coeffs * (1.0 - 2.0 * (np.bitwise_count(self.masks) & 1))
        tab = walsh_hadamard(tab)
        tab.flags.writeable = False
        return tab


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


@dataclass(frozen=True)
class TermPlan:
    """The terms of an expansion laid out for one batched kernel.

    Column t of ``idx`` (degree x terms) holds term t's coordinates in
    increasing order, padded to the degree with ``n``, the index of a row of
    ones appended to the points; terms keep the expansion's mask order.
    Points enter as columns, so each product and sum runs over whole
    (terms x batch) slices.  Both methods walk the terms in blocks of about
    ``_BLOCK_ENTRIES`` entries, the width being the degree for the value and
    n + 1 for the gradient, whose shares are spread over every coordinate.
    A running sum carries across blocks, adding the terms' shares one after
    another in mask order from 0.0.  So each point's bits do not depend on
    the batch around it, and they match a per-term loop that adds
    ``coeff * prod`` (or, per coordinate, ``coeff * prefix * suffix``) into
    a zero-initialised accumulator.
    """

    n: int
    idx: np.ndarray
    coeffs: np.ndarray

    def _points(self, x) -> tuple[np.ndarray, np.ndarray]:
        """x as an array (..., n) and its points as columns (n + 1, B), the last row ones."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != self.n:
            raise DimensionMismatch(f"point dimension {x.shape[-1]} != f.n = {self.n}")
        pts = x.reshape(-1, self.n).T
        return x, np.concatenate([pts, np.ones((1, pts.shape[1]))])

    def _blocks(self, batch: int, width: int):
        size = max(1, _BLOCK_ENTRIES // max(batch * width, 1))
        for start in range(0, self.coeffs.size, size):
            stop = start + size
            yield self.idx[:, start:stop], self.coeffs[start:stop, None]

    def value(self, x) -> np.ndarray:
        """Extension values sum_S coeff(S) prod_{i in S} x_i of the points x (..., n)."""
        x, pts = self._points(x)
        acc = np.zeros((1, pts.shape[1]))
        for idx, coeffs in self._blocks(pts.shape[1], self.idx.shape[0]):
            terms = coeffs * np.multiply.accumulate(pts[idx], axis=0)[-1]
            acc = np.add.accumulate(np.concatenate([acc, terms]), axis=0)[-1:]
        return acc.reshape(x.shape[:-1])

    def gradient(self, x) -> np.ndarray:
        """Extension gradients of the points x (..., n): per term and coordinate
        the exclusive prefix times the exclusive suffix product, division free."""
        x, pts = self._points(x)
        rows, batch = pts.shape
        acc = np.zeros((rows, batch))
        for idx, coeffs in self._blocks(batch, rows):
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


def term_plan(f: FourierExpansion) -> TermPlan:
    """The ``TermPlan`` of f; build it once to evaluate f at many batches."""
    masks = f.masks.astype(np.uint64)
    idx = np.full((max(f.degree(), 1), masks.size), f.n, dtype=np.intp)
    for i in range(f.n):
        has = np.nonzero((masks >> np.uint64(i)) & np.uint64(1))[0]
        below = np.bitwise_count(masks[has] & np.uint64((1 << i) - 1)).astype(np.intp)
        idx[below, has] = i
    return TermPlan(f.n, idx, f.coeffs)


def eval_extension(f: FourierExpansion, x) -> float | np.ndarray:
    """Multilinear extension sum_S coeff(S) prod_{i in S} x_i.

    Accepts a single point (n,) or a batch (..., n); at vertices this equals
    the Boolean value of f.
    """
    out = term_plan(f).value(x)
    return float(out) if out.ndim == 0 else out


def gradient_extension(f: FourierExpansion, x) -> np.ndarray:
    """Extended discrete gradient: component i is sum_{S ∋ i} coeff(S) prod_{j in S\\{i}} x_j.

    At a vertex this is the vector of half-differences under single
    coordinate flips; on the solid cube it agrees with the real partial
    derivatives of the extension.  Division-free (safe at zero coordinates).
    """
    return term_plan(f).gradient(x)


def vertex_values(f: FourierExpansion, max_n: int | None = None) -> np.ndarray:
    """Dense table of f over all 2^n vertices (index = bit encoding), built once
    per expansion and returned read-only; the cap is checked on every call."""
    _check_cap(f.n, max_n, "vertex table")
    return f._vertex_table


def from_vertex_values(n: int, values: np.ndarray, prune: float = PRUNE_TOL) -> FourierExpansion:
    """Inverse character transform: expansion matching the given vertex table.

    Coefficients below ``prune`` in absolute value are dropped to keep the
    result sparse.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.size != (1 << n):
        raise ValueError(f"need 2^{n} vertex values, got {values.size}")
    signs = 1.0 - 2.0 * (np.bitwise_count(np.arange(1 << n)) & 1)
    coeffs = walsh_hadamard(values) * signs / float(1 << n)
    keep = np.nonzero(np.abs(coeffs) > prune)[0]
    return FourierExpansion(n, keep.astype(np.int64), coeffs[keep])


def gradient_tables(f: FourierExpansion, max_n: int | None = None) -> np.ndarray:
    """All discrete partial derivatives over all vertices, shape (n, 2^n)."""
    return flip_differences(vertex_values(f, max_n))


def flip_differences(values: np.ndarray) -> np.ndarray:
    """Discrete partial derivatives read off one vertex table F, shape (n, 2^n).

    The flip pair v, v ^ 2^i shares d_i f = (F[bit i set] - F[bit i clear]) / 2,
    and viewing F as blocks of 2^i indices, shape (-1, 2, 2^i), lines up
    every such pair.
    """
    n = values.size.bit_length() - 1
    out = np.empty((n, values.size))
    for i in range(n):
        pairs = values.reshape(-1, 2, 1 << i)
        out[i].reshape(pairs.shape)[:] = (0.5 * (pairs[:, 1] - pairs[:, 0]))[:, None]
    return out


def lipschitz_l1(f: FourierExpansion, max_n: int | None = None) -> float:
    """max over coordinates and vertices of |partial_i f|, by exact enumeration."""
    return float(np.abs(gradient_tables(f, max_n)).max())


def lipschitz_l2(f: FourierExpansion, max_n: int | None = None) -> float:
    """sup over vertex pairs of ||grad f(x) - grad f(y)||_1 / ||x - y||_1.

    Computed over Hamming-distance-1 pairs only: the ratio for any pair is
    bounded by the worst single-flip ratio along a connecting path (the
    numerator is subadditive over the flips while the denominator is
    additive), so the supremum is attained at distance 1.  This costs
    O(n^2 2^n) instead of O(4^n); the small-n all-pairs oracle in the test
    suite guards the reduction.
    """
    return flip_lipschitz(gradient_tables(f, max_n))


def flip_lipschitz(tables: np.ndarray) -> float:
    """The distance-1 ratio of ``lipschitz_l2``, from gradient tables (n, 2^n)."""
    n = tables.shape[0]
    best = 0.0
    for i in range(n):
        pairs = tables.reshape(n, -1, 2, 1 << i)
        acc = np.zeros(pairs[0, :, 0].shape)
        diff = np.empty_like(acc)
        for j in range(n):
            np.subtract(pairs[j, :, 1], pairs[j, :, 0], out=diff)
            acc += np.abs(diff, out=diff)
        best = max(best, float(acc.max()) / 2.0)
    return best


def compose(f: FourierExpansion, h, max_n: int | None = None) -> FourierExpansion:
    """Expansion of the vertex map v -> h(f(v)) via a full truth table.

    ``h`` is a scalar shape (anything with a vectorized ``value``) or a
    plain callable.  Exact at every vertex up to the 1e-14 coefficient
    pruning applied after the transform.
    """
    values = vertex_values(f, max_n)
    fn: Callable = h.value if hasattr(h, "value") else h
    hv = np.asarray(fn(values), dtype=np.float64)
    if hv.shape != values.shape:
        raise ValueError("scalar shape did not evaluate elementwise")
    if not np.all(np.isfinite(hv)):
        raise ValueError("scalar shape produced non-finite values")
    return from_vertex_values(f.n, hv)
