"""Shared helpers for the test suite: random instances and independent oracles."""

import itertools

import numpy as np

from mfgl.boolfn import FourierExpansion
from mfgl.meanfield import FixedPointSolution
from mfgl.transport import _certify, _integer_supplies


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


def _mask_indices(mask):
    return np.array([i for i in range(mask.bit_length()) if (mask >> i) & 1], dtype=np.int64)


def eval_extension_loop(f, x):
    """The per-term extension loop the term-plan kernel replaced, kept as its oracle."""
    arr = np.asarray(x, dtype=np.float64)
    out = np.zeros(arr.shape[:-1], dtype=np.float64)
    for mask, coeff in zip(f.masks.tolist(), f.coeffs.tolist()):
        if mask == 0:
            out += coeff
        else:
            idx = _mask_indices(mask)
            out += coeff * np.prod(arr[..., idx], axis=-1)
    return float(out) if out.ndim == 0 else out


def gradient_extension_loop(f, x):
    """The per-term gradient loop the term-plan kernel replaced, kept as its oracle."""
    arr = np.asarray(x, dtype=np.float64)
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


def w1_ssp(p, q, n, scale):
    """Successive shortest paths: one Bellman-Ford run per augmenting path.

    The exact-W1 loop the primal-dual solver replaced, kept as its oracle.
    Returns ``(cost_units, certified, paths)`` on the solver's integer
    supplies.
    """
    states = 1 << n
    excess = _integer_supplies(np.asarray(p, dtype=np.float64),
                               np.asarray(q, dtype=np.float64), scale).astype(np.float64)
    flow = np.zeros((n, states))
    potential = np.zeros(states)
    xor_idx = [np.arange(states) ^ (1 << i) for i in range(n)]
    iterations = 0
    while np.any(excess > 0):
        iterations += 1
        if iterations > 50 * states + 50:
            raise RuntimeError("transport solver failed to converge")
        dist = np.where(excess > 0, 0.0, np.inf)
        pred_dir = np.full(states, -1, dtype=np.int64)
        for _ in range(states + 1):
            changed = False
            for i in range(n):
                cost = np.where(flow[i] < 0, -1.0, 1.0)
                through = dist + cost + potential - potential[xor_idx[i]]
                cand = through[xor_idx[i]]
                improve = cand < dist - 0.5
                if improve.any():
                    dist[improve] = cand[improve]
                    pred_dir[improve] = i
                    changed = True
            if not changed:
                break
        else:
            raise RuntimeError("negative cycle in transport residual graph")
        reachable = (excess < 0) & np.isfinite(dist)
        if not reachable.any():
            raise RuntimeError("disconnected transport instance")
        target = int(np.argmin(np.where(reachable, dist, np.inf)))
        potential += np.minimum(dist, dist[target])
        path = []
        v = target
        seen = set()
        while pred_dir[v] >= 0:
            if v in seen:
                raise RuntimeError("cycle in shortest-path tree")
            seen.add(v)
            i = int(pred_dir[v])
            path.append((i, v ^ (1 << i), v))
            v = v ^ (1 << i)
        source = v
        if excess[source] <= 0:
            raise RuntimeError("path did not end at a source")
        amount = min(excess[source], -excess[target])
        for i, u, w in path:
            if flow[i][u] < 0:
                amount = min(amount, -flow[i][u])
        for i, u, w in path:
            flow[i][u] += amount
            flow[i][w] -= amount
        excess[source] -= amount
        excess[target] += amount
    cost_units = int(round(np.abs(flow).sum() / 2.0))
    return cost_units, _certify(flow, potential, xor_idx), iterations
