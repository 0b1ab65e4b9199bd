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
from typing import Callable, Iterable, Sequence

import numpy as np

DEFAULT_ENUM_CAP = 20
PRUNE_TOL = 1e-14


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


def _mask_indices(mask: int) -> np.ndarray:
    idx = []
    i = 0
    m = int(mask)
    while m:
        if m & 1:
            idx.append(i)
        m >>= 1
        i += 1
    return np.array(idx, dtype=np.int64)


_PARITY_CACHE: dict[int, np.ndarray] = {}


def parity_signs(n: int) -> np.ndarray:
    """(-1)^popcount(v) for every index v < 2^n, as a read-only float array."""
    out = _PARITY_CACHE.get(n)
    if out is None:
        pop = np.bitwise_count(np.arange(1 << n, dtype=np.uint64)).astype(np.int64)
        out = 1.0 - 2.0 * (pop & 1)
        out.flags.writeable = False
        _PARITY_CACHE[n] = out
    return out


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


def _check_dims(f: FourierExpansion, x: np.ndarray) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.shape[-1] != f.n:
        raise DimensionMismatch(f"point dimension {arr.shape[-1]} != f.n = {f.n}")
    return arr


def eval_extension(f: FourierExpansion, x) -> float | np.ndarray:
    """Multilinear extension sum_S coeff(S) prod_{i in S} x_i.

    Accepts a single point (n,) or a batch (..., n); at vertices this equals
    the Boolean value of f.
    """
    arr = _check_dims(f, x)
    out = np.zeros(arr.shape[:-1], dtype=np.float64)
    for mask, coeff in zip(f.masks.tolist(), f.coeffs.tolist()):
        if mask == 0:
            out += coeff
        else:
            idx = _mask_indices(mask)
            out += coeff * np.prod(arr[..., idx], axis=-1)
    return float(out) if out.ndim == 0 else out


def gradient_extension(f: FourierExpansion, x) -> np.ndarray:
    """Extended discrete gradient: component i is sum_{S ∋ i} coeff(S) prod_{j in S\\{i}} x_j.

    At a vertex this is the vector of half-differences under single
    coordinate flips; on the solid cube it agrees with the real partial
    derivatives of the extension.  Division-free (safe at zero coordinates).
    """
    arr = _check_dims(f, x)
    grad = np.zeros_like(arr)
    for mask, coeff in zip(f.masks.tolist(), f.coeffs.tolist()):
        if mask == 0:
            continue
        idx = _mask_indices(mask)
        sub = arr[..., idx]
        ones = np.ones_like(sub[..., :1])
        pref = np.concatenate([ones, np.cumprod(sub[..., :-1], axis=-1)], axis=-1)
        if sub.shape[-1] > 1:
            suf = np.concatenate(
                [np.cumprod(sub[..., :0:-1], axis=-1)[..., ::-1], ones], axis=-1
            )
        else:
            suf = ones
        grad[..., idx] += coeff * pref * suf
    return grad


def vertex_values(f: FourierExpansion, max_n: int | None = None) -> np.ndarray:
    """Dense table of f over all 2^n vertices (index = bit encoding)."""
    _check_cap(f.n, max_n, "vertex table")
    size = 1 << f.n
    tab = np.zeros(size)
    if f.masks.size:
        tab[f.masks] = f.coeffs * parity_signs(f.n)[f.masks]
    return walsh_hadamard(tab)


def from_vertex_values(n: int, values: np.ndarray, prune: float = PRUNE_TOL) -> FourierExpansion:
    """Inverse character transform: expansion matching the given vertex table.

    Coefficients below ``prune`` in absolute value are dropped to keep the
    result sparse.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.size != (1 << n):
        raise ValueError(f"need 2^{n} vertex values, got {values.size}")
    coeffs = walsh_hadamard(values) * parity_signs(n) / float(1 << n)
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
