"""Shared helpers for the test suite: random instances and independent oracles."""

import itertools

import numpy as np

from mfgl.boolfn import FourierExpansion
from mfgl.meanfield import FixedPointSolution


def random_expansion(rng, n, degree=3, num_terms=None, scale=1.0):
    """Random sparse expansion with subsets up to the given degree."""
    if num_terms is None:
        num_terms = int(rng.integers(3, 3 + 2 * n))
    terms = []
    for _ in range(num_terms):
        size = int(rng.integers(1, degree + 1))
        subset = tuple(sorted(rng.choice(n, size=size, replace=False).tolist()))
        terms.append((subset, scale * float(rng.normal())))
    return FourierExpansion.from_terms(n, terms)


def all_vertices(n):
    """All vertex coordinate vectors in package index order (bit i = +1)."""
    out = np.empty((1 << n, n))
    for v in range(1 << n):
        out[v] = [1.0 if (v >> i) & 1 else -1.0 for i in range(n)]
    return out


def eval_direct(f, coords):
    """Term-by-term evaluation at one point; independent of the transform path."""
    total = 0.0
    for mask, coeff in zip(f.masks.tolist(), f.coeffs.tolist()):
        prod = coeff
        i = 0
        while mask:
            if mask & 1:
                prod *= coords[i]
            mask >>= 1
            i += 1
        total += prod
    return total


def gradient_direct(f, coords):
    """Discrete gradient at a vertex straight from the flip definition."""
    n = f.n
    out = np.empty(n)
    for i in range(n):
        plus = np.array(coords, dtype=float)
        minus = np.array(coords, dtype=float)
        plus[i] = 1.0
        minus[i] = -1.0
        out[i] = 0.5 * (eval_direct(f, plus) - eval_direct(f, minus))
    return out


def product_weights_direct(z):
    """Explicit product-law weights over all vertices via itertools enumeration."""
    n = len(z)
    weights = np.empty(1 << n)
    for bits in itertools.product((0, 1), repeat=n):
        v = sum(b << i for i, b in enumerate(bits))
        w = 1.0
        for i, b in enumerate(bits):
            w *= (1.0 + z[i]) / 2.0 if b else (1.0 - z[i]) / 2.0
        weights[v] = w
    return weights


def iterate_plain(field, x0, ids, *, lam, damping, tol, max_iter):
    """The damped battery iteration run step by step to the cap, with no cycle test."""
    x = np.array(x0, dtype=np.float64)
    m = x.shape[0]
    done = np.zeros(m, dtype=bool)
    iters = np.zeros(m, dtype=np.int64)
    resid = np.full(m, np.inf)
    step = 0
    while True:
        g = field(x)
        if not np.all(np.isfinite(g)):
            raise ValueError("non-finite gradient during iteration")
        target = np.tanh(lam * g)
        r = np.abs(x - target).sum(axis=1)
        newly = ~done & (r <= tol)
        resid[newly] = r[newly]
        iters[newly] = step
        done |= newly
        if done.all() or step >= max_iter:
            resid[~done] = r[~done]
            iters[~done] = step
            break
        active = ~done
        x[active] = (1.0 - damping) * x[active] + damping * target[active]
        step += 1
    return [FixedPointSolution(x[k], lam, float(resid[k]), int(iters[k]),
                               bool(done[k]), ids[k]) for k in range(m)]
