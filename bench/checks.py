"""Output checks, so that a fast wrong answer counts as a failure.

Everything here evaluates Hamiltonians term by term with numpy from the
spec objects the benchmark wrote; no mfgl function is used.  Each check
returns a list of problems, empty when the output is right.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math

import numpy as np

# mfgl's verdict slack on proven-bound rows; the recheck uses the same one.
PASS_SLACK = 1e-9
# A residual recomputed here sums in another order than mfgl's, so it may
# exceed mfgl's own by a few ulps of the O(n) terms it adds up.
EVAL_SLACK = 1e-12
# Relative agreement required between mfgl's Lipschitz constants and the
# brute-force vertex scan (same quantities, different summation order).
LIPSCHITZ_RTOL = 1e-9
BRUTE_FORCE_MAX_N = 15


def _cutoff_shape(x: np.ndarray, n: int, t: float, delta: float) -> np.ndarray:
    """psi(x) = n h((x/n - t)/delta) for the ramp h: 2u+1 below -1, -u^2 on [-1,0], 0 above."""
    u = (x / n - t) / delta
    return n * np.where(u <= -1.0, 2.0 * u + 1.0, np.where(u < 0.0, -u * u, 0.0))


def vertices(n: int) -> np.ndarray:
    """All 2^n vertices as +-1 rows; row v has coordinate i = +1 iff bit i of v is set."""
    idx = np.arange(1 << n)
    return 2.0 * ((idx[:, None] >> np.arange(n)) & 1) - 1.0


def spec_terms(spec: dict) -> tuple[int, list[tuple[tuple[int, ...], float]]]:
    """(n, [(subset, coeff), ...]) of the multilinear polynomial a spec describes."""
    kind = spec["type"]
    if kind == "curie_weiss":
        n, c = int(spec["n"]), 2.0 * spec["beta"] / spec["n"]
        return n, [((i, j), c) for i, j in itertools.combinations(range(n), 2)]
    if kind == "ising":
        a, mu = np.array(spec["coupling"]), np.array(spec["field"])
        n = mu.size
        terms = [((i, j), a[i, j]) for i, j in itertools.combinations(range(n), 2) if a[i, j]]
        return n, terms + [((i,), mu[i]) for i in range(n) if mu[i]]
    if kind == "triangle_count":
        nv = int(spec["num_vertices"])
        edge = {p: k for k, p in enumerate(itertools.combinations(range(nv), 2))}
        c = 6.0 * spec["beta"] / nv
        return len(edge), [((edge[i, j], edge[j, k], edge[i, k]), c)
                           for i, j, k in itertools.combinations(range(nv), 3)]
    if kind == "sparse_fourier":
        return int(spec["n"]), [(tuple(t["subset"]), float(t["coeff"])) for t in spec["terms"]]
    if kind == "smoothed_cutoff":
        n, inner = spec_terms(spec["inner"])
        cube = vertices(n)
        g = _cutoff_shape(evaluate(inner, cube), n, spec["t"], spec["delta"])
        # Fourier coefficient of S is the cube average of g * prod_{i in S} x_i.
        subsets = [s for k in range(n + 1) for s in itertools.combinations(range(n), k)]
        chars = np.stack([cube[:, list(s)].prod(axis=1) for s in subsets], axis=1)
        return n, list(zip(subsets, (g @ chars) / cube.shape[0]))
    raise ValueError(f"no term table for spec type {kind!r}")


def evaluate(terms, x: np.ndarray) -> np.ndarray:
    """sum_S c_S prod_{i in S} x_i at each row of x."""
    x = np.asarray(x, dtype=np.float64)
    return sum((c * x[..., list(s)].prod(axis=-1) for s, c in terms),
               np.zeros(x.shape[:-1]))


def gradient(n: int, terms, x: np.ndarray) -> np.ndarray:
    """Component i is sum_{S containing i} c_S prod_{j in S, j != i} x_j."""
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros(x.shape[:-1] + (n,))
    for s, c in terms:
        for i in s:
            out[..., i] += c * x[..., [j for j in s if j != i]].prod(axis=-1)
    return out


def _fixed_point_problems(report: dict, n: int, terms, tol: float) -> list[str]:
    problems = []
    for sol in report["solutions"]:
        if not sol["converged"]:
            continue
        x = np.array(sol["point"])
        resid = float(np.abs(x - np.tanh(sol["lambda"] * gradient(n, terms, x))).sum())
        if not (resid <= tol + EVAL_SLACK and sol["residual_l1"] <= tol):
            problems.append(f"{sol['start_id']} at lambda {sol['lambda']}: residual "
                            f"{resid:.3g} (reported {sol['residual_l1']:.3g}) above tol {tol:g}")
    return problems


def _row_problems(rows: list[dict]) -> list[str]:
    problems = []
    for row in rows:
        if row["kind"] == "error":
            problems.append(f"audit row {row['check_id']} is an error")
        elif row["kind"] == "bound" and row["hypothesis_met"]:
            holds = row["measured"] is not None and row["bound"] is not None and \
                row["measured"] <= row["bound"] + PASS_SLACK
            if not (row["pass"] and holds):
                problems.append(f"audit row {row['check_id']} fails: measured "
                                f"{row['measured']} vs bound {row['bound']}")
    return problems


def lipschitz_brute_force(n: int, terms) -> tuple[float, float]:
    """(max |d_i f|, max over single flips of ||grad f(v) - grad f(v^i)||_1 / 2)."""
    cube = vertices(n)
    grads = gradient(n, terms, cube)
    idx = np.arange(cube.shape[0])
    l2 = max(float(np.abs(grads[idx ^ (1 << i)] - grads).sum(axis=1).max()) / 2.0
             for i in range(n))
    return float(np.abs(grads).max()), l2


def check_analyze(report: dict, spec: dict, tol: float) -> list[str]:
    n, terms = spec_terms(spec)
    problems = _fixed_point_problems(report, n, terms, tol)
    if n <= BRUTE_FORCE_MAX_N:
        l1, l2 = lipschitz_brute_force(n, terms)
        for name, want in (("l1", max(1.0, l1)), ("l2", max(1.0, l2))):
            got = report["params"][name]
            if not math.isclose(got, want, rel_tol=LIPSCHITZ_RTOL):
                problems.append(f"{name} = {got!r} but the vertex scan gives {want!r}")
    return problems


def check_fixed_points(report: dict, spec: dict, tol: float) -> list[str]:
    n, terms = spec_terms(spec)
    return _fixed_point_problems(report, n, terms, tol)


def check_ld_scan(report: dict, spec: dict, t: float, delta: float, tol: float) -> list[str]:
    n, terms = spec_terms(spec)
    lo, hi = (t - 6.0 * delta) * n, t * n
    problems = _fixed_point_problems(report, n, terms, tol) + _row_problems(report["audits"])
    for sol in report["solutions"]:
        value = float(evaluate(terms, np.array(sol["point"])))
        if not (sol["converged"] and lo <= value <= hi):
            problems.append(f"{sol['start_id']} at lambda {sol['lambda']}: f = {value!r} "
                            f"outside [{lo!r}, {hi!r}] or unconverged")
    return problems


def check_audit(report: dict) -> list[str]:
    summary = report["summary"]
    problems = _row_problems(report["audits"])
    if summary["failures"] or summary["errors"]:
        problems.append(f"summary has {summary['failures']} failures, {summary['errors']} errors")
    if summary["rows"] != len(report["audits"]):
        problems.append(f"summary counts {summary['rows']} rows, report has {len(report['audits'])}")
    return problems


def check_csv(data: bytes, source: dict) -> list[str]:
    rows = list(csv.reader(io.StringIO(data.decode())))
    if len(rows) - 1 != len(source["audits"]):
        return [f"CSV has {len(rows) - 1} rows, the audit has {len(source['audits'])}"]
    return []


def check_output(kind: str, options: dict, data: bytes, spec: dict | None,
                 source: dict | None = None) -> list[str]:
    """Problems with one command's output.

    ``options`` holds the command's flags (``tol``, ``t``, ``delta``);
    ``spec`` is the spec object the command read, and ``source`` the audit
    report a ``report`` command converted.
    """
    if kind == "report":
        return check_csv(data, source)
    report = json.loads(data)
    tol = float(options.get("tol", 1e-10))  # the CLI's default when --tol is not given
    if kind == "analyze":
        return check_analyze(report, spec, tol)
    if kind == "fixed-points":
        return check_fixed_points(report, spec, tol)
    if kind == "ld-scan":
        return check_ld_scan(report, spec, float(options["t"]), float(options["delta"]),
                             max(tol, 1e-10))
    if kind == "audit":
        return check_audit(report)
    raise ValueError(f"no check for command {kind!r}")
