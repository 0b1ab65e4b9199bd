"""Shared helpers for the test suite: random instances, constructors that
only tests need, independent oracles and a fresh-interpreter run of the
command-line tool."""

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from mfgl.boolfn import DimensionMismatch, FourierExpansion, eval_extension, gradient_extension
from mfgl.gibbs import DenseMeasure
from mfgl.meanfield import (
    FixedPointSolution,
    as_gradient_field,
    conditioning_window,
    dedupe_solutions,
    multistart_points,
)
from mfgl.transport import _integer_supplies


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


def add_linear(f, theta, const=0.0):
    """f + <theta, x> + const as a new expansion."""
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape != (f.n,):
        raise DimensionMismatch(f"theta has shape {theta.shape}, expected ({f.n},)")
    terms = list(zip(f.masks.tolist(), f.coeffs.tolist()))
    terms.extend((1 << i, theta[i]) for i in range(f.n) if theta[i] != 0.0)
    if const != 0.0:
        terms.append((0, const))
    return FourierExpansion.from_terms(f.n, terms)


def shift(f, c):
    """f + c as a new expansion."""
    return add_linear(f, np.zeros(f.n), c)


def point_mass(n, vertex):
    """The dense measure with all its mass on one vertex."""
    probs = np.zeros(1 << n)
    probs[vertex] = 1.0
    return DenseMeasure(n=n, probs=probs)


def mean_field_functional_gradient(f, x):
    """The coordinate gradient grad f(X) - atanh(X) of ``mean_field_functional``."""
    x = np.asarray(x, dtype=np.float64)
    if np.any(np.abs(x) >= 1.0):
        raise ValueError("functional requires a strictly interior point")
    return gradient_extension(f, x) - np.arctanh(x)


def residual_l1(f, x, lam=1.0):
    """||x - tanh(lam * grad f(x))||_1 on the gradient field of an expansion or callable."""
    x = np.asarray(x, dtype=np.float64)
    return float(np.abs(x - np.tanh(lam * as_gradient_field(f)(x))).sum())


def curie_weiss_field(beta, n):
    """The all-ones-coupling map X -> (beta/n) * sum(X) * 1.

    Constant vectors are its exact fixed points up to the scalar equation
    x = tanh(beta x), independent of n, and the map contracts the one-norm
    by a factor beta.
    """
    def field(x):
        x = np.asarray(x, dtype=np.float64)
        s = x.sum(axis=-1, keepdims=True)
        return (beta / n) * s * np.ones_like(x)

    return field


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


def flip_lipschitz_tables(tables):
    """The distance-1 ratio of ``lipschitz``'s L2 from whole gradient tables (n, 2^n),
    the scan the streamed one replaced, kept as its oracle."""
    n = tables.shape[0]
    best = 0.0
    for i in range(n):
        pairs = tables.reshape(n, -1, 2, 1 << i)
        acc = np.zeros(pairs[0, :, 0].shape)
        for j in range(n):
            acc += np.abs(pairs[j, :, 1] - pairs[j, :, 0])
        best = max(best, float(acc.max()) / 2.0)
    return best


def _mask_indices(mask):
    return np.array([i for i in range(mask.bit_length()) if (mask >> i) & 1], dtype=np.int64)


def eval_extension_loop(f, x):
    """The per-term extension loop the extension kernel replaced, kept as its oracle."""
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
    """The per-term gradient loop the gradient kernel replaced, kept as its oracle."""
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


def pairwise_form_loop(f):
    """(A, mu) decoded mask by mask, as ``as_gradient_field`` once did for degree <= 2;
    the oracle of ``pairwise_form``."""
    n = f.n
    a = np.zeros((n, n))
    mu = np.zeros(n)
    for mask, coeff in zip(f.masks.tolist(), f.coeffs.tolist()):
        idx = [i for i in range(n) if (mask >> i) & 1]
        if len(idx) == 2:
            a[idx[0], idx[1]] = a[idx[1], idx[0]] = coeff
        elif len(idx) == 1:
            mu[idx[0]] = coeff
    return a, mu


def product_law_loop(mean):
    """The per-bit product-law loop ``product_law`` replaced, on a mean already clipped
    to [-1, 1]; kept as its bit-for-bit oracle."""
    n = len(mean)
    probs = np.ones(1 << n)
    idx = np.arange(1 << n)
    for i in range(n):
        up = (1.0 + mean[i]) / 2.0
        probs *= np.where((idx >> i) & 1, up, 1.0 - up)
    return probs


def linear_vertex_values_loop(theta):
    """<theta, v> for every vertex v by per-bit accumulation, the loop ``tilt``'s table
    replaced; kept as its bit-for-bit oracle."""
    n = theta.size
    out = np.zeros(1 << n)
    idx = np.arange(1 << n)
    for i in range(n):
        out += np.where((idx >> i) & 1, theta[i], -theta[i])
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


def lambda_scan_plain(f, t, delta, *, lambda_grid, tol, seed, damping, max_iter):
    """The per-lambda scan the chunked battery replaced, on ``iterate_plain``: one
    battery per lambda, its seeded starts first and then the previous lambda's
    kept points as warm starts; kept as ``lambda_scan``'s oracle."""
    starts = multistart_points(f.n, seed)
    grad = as_gradient_field(f)
    lo_val, hi_val = conditioning_window(t, delta, f.n)
    kept, warm = [], []
    for lam in np.sort(np.asarray(lambda_grid, dtype=np.float64)):
        batch = list(starts) + [(f"warm-{k}", w) for k, w in enumerate(warm)]
        sols = iterate_plain(grad, np.stack([x for _, x in batch]), [sid for sid, _ in batch],
                             lam=float(lam), damping=damping, tol=tol, max_iter=max_iter)
        conv = [s for s in sols if s.converged]
        values = eval_extension(f, np.stack([s.point for s in conv])) if conv else []
        found = dedupe_solutions([s for s, v in zip(conv, values) if lo_val <= v <= hi_val])
        kept.extend(found)
        warm = [s.point for s in found]
    return kept


def w1_ssp(p, q, n, scale):
    """Successive shortest paths: one Bellman-Ford run per augmenting path.

    The exact-W1 loop the primal-dual solver replaced, kept as its oracle,
    with its own optimality check: every residual arc has nonnegative
    reduced cost under the final potentials.  Returns ``(cost_units,
    certified, paths)`` on the solver's integer supplies.
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
    certified = all(
        (np.where(flow[i] < 0, -1.0, 1.0) + potential - potential[xor_idx[i]]).min() >= 0
        for i in range(n))
    return cost_units, certified, iterations


# Run as ``python -c PROBE [--block MODULE]... ARGS``: ARGS go to the CLI as
# under ``python -m mfgl.cli``, or ``--import MODULE`` only imports MODULE.
# At exit the last stderr line lists the numpy, scipy, logging and mfgl
# modules it loaded; a blocked module is not among them.
_CLI_PROBE = """
import atexit, importlib, json, runpy, sys
while sys.argv[1] == "--block":
    sys.modules[sys.argv[2]] = None  # every import of it now raises ImportError
    del sys.argv[1:3]
atexit.register(lambda: print("\\n" + json.dumps(sorted(
    m for m, module in list(sys.modules.items())
    if module is not None and m.split(".")[0] in ("numpy", "scipy", "logging", "mfgl"))),
    file=sys.stderr))
if sys.argv[1] == "--import":
    importlib.import_module(sys.argv[2])
else:
    runpy.run_module("mfgl.cli", run_name="__main__")
"""


def src_env() -> dict:
    """This process's environment with the checkout's ``src`` first on PYTHONPATH."""
    src = str(Path(__file__).parents[1] / "src")
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def run_cli_process(*args, cwd=None, block=()):
    """Run the CLI on ``args`` in a fresh interpreter.

    Returns ``(exit code, stdout bytes, set of loaded module names)``.
    Any import of a top-level module named in ``block`` fails.
    """
    argv = [sys.executable, "-c", _CLI_PROBE, *(a for name in block for a in ("--block", name)),
            *args]
    done = subprocess.run(argv, cwd=cwd, env=src_env(), capture_output=True, timeout=120)
    loaded = json.loads(done.stderr.decode().strip().splitlines()[-1])
    return done.returncode, done.stdout, set(loaded)
