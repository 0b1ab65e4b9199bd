"""Command-line surface: parse Hamiltonian specs, run analyses, write reports.

Commands
--------
analyze       complexity parameters, scalar roots where applicable, and
              multi-start fixed points with structural-set membership
fixed-points  multi-start fixed points only
ld-scan       smoothed-cutoff construction, tail/TV audits, and the lambda
              scan over the conditioning window
audit         named audit suites (appendix, proximity, main, ld, tightness, all)
report        re-serialize an existing JSON report (e.g. to CSV)

Hamiltonian spec JSON schema (one object, dispatch on "type"):
    {"type": "linear", "theta": [0.1, -0.2]}
    {"type": "ising", "coupling": [[0,1],[1,0]], "field": [0,0]}   # row-major
    {"type": "curie_weiss", "beta": 2.0, "n": 8}
    {"type": "triangle_count", "beta": 1.0, "num_vertices": 5}
    {"type": "sparse_fourier", "n": 6, "terms": [{"subset": [0, 2], "coeff": 1.5}]}
    {"type": "smoothed_cutoff", "inner": {...}, "t": 0.5, "delta": 0.05}
Matrices are row-major nested arrays; subsets are sorted index lists;
n, num_vertices and subset indices are integers (6.0 reads as 6, 6.9 is refused);
every number must be a JSON number, not a string or a boolean.

Every flag but --timings can be defaulted through an environment variable
with the MFGL_ prefix (e.g. MFGL_SEED, MFGL_SAMPLES, MFGL_MAX_N); explicit
flags win.
--max-n and --transport-max-states set the two size caps: ``run`` holds
them in ``mfgl.size_caps`` around the command, and every table and
transport the command builds reads them there.
Numbers in reports are emitted with 17 significant digits and reports are
written atomically (temp file + rename), so identical configs and seeds
produce byte-identical files.  Exit codes: 0 success, 1 input error,
2 at least one proven-bound audit failed.

``report``, ``--help`` and ``--version`` need no numpy: this front imports
the standard library alone, and ``import mfgl`` is lazy.  Each compute
command imports the layers it uses when it runs and calls them through
their modules (``verify.audit_tanh_mean_swap``), so ``fixed-points`` never
loads ``verify``, ``gibbs``, ``transport`` or ``complexity``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import numbers
import os
import sys
import tempfile
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence

from . import (DEFAULT_DAMPING, DEFAULT_ENUM_CAP, DEFAULT_SAMPLES, DEFAULT_TOL,
               DEFAULT_TRANSPORT_STATES, __version__, size_caps)

if TYPE_CHECKING:
    import numpy as np

    from .boolfn import FourierExpansion
    from .hamiltonians import HamiltonianSpec
    from .meanfield import FixedPointSolution
    from .verify import AuditRow

SUITES = ("appendix", "proximity", "main", "ld", "tightness", "all")

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_AUDIT_FAILED = 2


class InputError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Config
# ---------------------------------------------------------------------------


@dataclass
class RunConfig:
    command: str
    spec_path: Optional[str] = None
    out_path: Optional[str] = None
    fmt: str = "json"
    seed: int = 0
    samples: int = DEFAULT_SAMPLES
    tol: float = DEFAULT_TOL
    damping: float = DEFAULT_DAMPING
    epsilon: float = 0.2
    t: Optional[float] = None
    delta: Optional[float] = None
    max_n: int = DEFAULT_ENUM_CAP
    transport_max_states: int = DEFAULT_TRANSPORT_STATES
    suite: str = "all"
    lambda_grid: str = "1e-2:1e2:64"
    timings: bool = False

    def validate(self) -> None:
        if self.fmt not in ("json", "csv"):
            raise InputError(f"unsupported format {self.fmt!r}")
        if self.max_n < 1 or self.transport_max_states < 1:
            raise InputError("caps must be at least 1")
        if not (self.tol > 0):
            raise InputError("tol must be positive")
        if not math.isfinite(self.tol):
            raise InputError("tol must be finite")
        if not (0.0 < self.damping <= 1.0):
            raise InputError("damping must lie in (0, 1]")
        if self.suite not in SUITES:
            raise InputError(f"unknown suite {self.suite!r}; choose from {SUITES}")
        if (self.t is None) != (self.delta is None):
            raise InputError("--t and --delta must be given together")

    def parsed_lambda_grid(self) -> np.ndarray:
        try:
            lo, hi, count = self.lambda_grid.split(":")
            lo, hi, count = float(lo), float(hi), int(count)
        except ValueError as exc:
            raise InputError(f"bad lambda grid {self.lambda_grid!r}, want LO:HI:COUNT") from exc
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise InputError("lambda grid needs finite LO and HI")
        if not (0 < lo < hi) or count < 1:
            raise InputError("lambda grid needs 0 < LO < HI and COUNT >= 1")
        from . import meanfield

        return meanfield.default_lambda_grid(count, lo, hi)


_ENV_FIELDS = {
    "spec_path": ("MFGL_SPEC", str),
    "out_path": ("MFGL_OUT", str),
    "fmt": ("MFGL_FORMAT", str),
    "seed": ("MFGL_SEED", int),
    "samples": ("MFGL_SAMPLES", int),
    "tol": ("MFGL_TOL", float),
    "damping": ("MFGL_DAMPING", float),
    "epsilon": ("MFGL_EPSILON", float),
    "t": ("MFGL_T", float),
    "delta": ("MFGL_DELTA", float),
    "max_n": ("MFGL_MAX_N", int),
    "transport_max_states": ("MFGL_TRANSPORT_MAX_STATES", int),
    "suite": ("MFGL_SUITE", str),
    "lambda_grid": ("MFGL_LAMBDA_GRID", str),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mfgl", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"mfgl {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("analyze", "fixed-points", "ld-scan", "audit", "report"):
        p = sub.add_parser(name)
        p.add_argument("--spec", dest="spec_path", help="Hamiltonian spec JSON (or input report for `report`)")
        p.add_argument("--out", dest="out_path", help="output path; stdout when omitted")
        p.add_argument("--format", dest="fmt", choices=("json", "csv"))
        p.add_argument("--seed", type=int)
        p.add_argument("--samples", type=int)
        p.add_argument("--tol", type=float)
        p.add_argument("--damping", type=float)
        p.add_argument("--epsilon", type=float)
        p.add_argument("--t", type=float)
        p.add_argument("--delta", type=float)
        p.add_argument("--max-n", dest="max_n", type=int)
        p.add_argument("--transport-max-states", dest="transport_max_states", type=int)
        p.add_argument("--suite", choices=SUITES)
        p.add_argument("--lambda-grid", dest="lambda_grid", help="LO:HI:COUNT geometric grid, mirrored, plus 0")
        p.add_argument("--timings", action="store_true", default=None,
                       help="record wall-clock stage timings (breaks byte-identical reports)")
    return parser


def build_config(argv: Sequence[str], env: dict | None = None) -> RunConfig:
    env = dict(os.environ if env is None else env)
    ns = _build_parser().parse_args(list(argv))
    config = RunConfig(command=ns.command)
    for field_name, (env_key, cast) in _ENV_FIELDS.items():
        cli_val = getattr(ns, field_name, None)
        if cli_val is not None:
            setattr(config, field_name, cli_val)
        elif env_key in env:
            try:
                setattr(config, field_name, cast(env[env_key]))
            except ValueError as exc:
                raise InputError(f"bad value for {env_key}: {env[env_key]!r}") from exc
    if ns.timings is not None:
        config.timings = ns.timings
    config.validate()
    return config


def load_spec(path: str) -> HamiltonianSpec:
    from . import hamiltonians

    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        raise InputError(f"cannot read spec file {path}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"spec file is not valid JSON: {exc}") from exc
    return hamiltonians.spec_from_dict(data)


# ---------------------------------------------------------------------------
# Report serialization (17 significant digits, deterministic)
# ---------------------------------------------------------------------------


def _emit_json(obj, out: list, indent: int) -> None:
    pad = " " * indent
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(str(int(obj)))
    elif isinstance(obj, float):
        x = float(obj)
        if not math.isfinite(x):
            out.append("null")
        else:
            out.append(format(x, ".17g"))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (k, v) in enumerate(obj.items()):
            out.append(pad + "  " + json.dumps(str(k)) + ": ")
            _emit_json(v, out, indent + 2)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)) or _is_ndarray(obj):
        seq = list(obj)
        if not seq:
            out.append("[]")
            return
        out.append("[\n")
        for i, v in enumerate(seq):
            out.append(pad + "  ")
            _emit_json(v, out, indent + 2)
            out.append(",\n" if i < len(seq) - 1 else "\n")
        out.append(pad + "]")
    # numpy integer and float scalars, checked last: the checks are slow
    elif isinstance(obj, numbers.Integral):
        _emit_json(int(obj), out, indent)
    elif isinstance(obj, numbers.Real):
        _emit_json(float(obj), out, indent)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def _is_ndarray(obj) -> bool:
    # Without numpy loaded nothing can be an array, so the check never imports it.
    numpy = sys.modules.get("numpy")
    return numpy is not None and isinstance(obj, numpy.ndarray)


CSV_COLUMNS = ("check_id", "measured", "bound", "ratio", "pass", "kind",
               "hypothesis_met", "instance")


def serialize_report(report: dict, fmt: str) -> bytes:
    """Render a report as JSON (full document) or CSV (flat audit projection)."""
    if fmt == "json":
        out: list[str] = []
        _emit_json(report, out, 0)
        out.append("\n")
        return "".join(out).encode()
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for row in report.get("audits", []):
            writer.writerow([
                row["check_id"],
                _csv_num(row["measured"]),
                _csv_num(row["bound"]),
                _csv_num(row["ratio"]),
                str(bool(row["pass"])).lower(),
                row["kind"],
                str(bool(row["hypothesis_met"])).lower(),
                json.dumps(row["instance"], sort_keys=True),
            ])
        return buf.getvalue().encode()
    raise InputError(f"unsupported format {fmt!r}")


def _csv_num(x) -> str:
    if x is None:
        return ""
    x = float(x)
    return format(x, ".17g") if math.isfinite(x) else ""


def parse_report(data: bytes | str) -> dict:
    return json.loads(data)


def write_atomic(path: str, data: bytes) -> None:
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=target.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# Row/solution conversion
# ---------------------------------------------------------------------------


def _solution_dict(sol: FixedPointSolution, xf=None) -> dict:
    out = {
        "start_id": sol.start_id,
        "lambda": sol.lam,
        "point": [float(v) for v in sol.point],
        "residual_l1": sol.residual_l1,
        "iterations": sol.iterations,
        "converged": sol.converged,
    }
    if xf is not None:
        out["structural_set"] = {
            "threshold": xf.threshold,
            "residual": xf.residual,
            "member": xf.member,
            "residual_over_n": xf.residual_over_n,
        }
    return out


def _params_dict(p) -> dict:
    levels = {} if p.d_levels is None else {"d_levels": p.d_levels}
    return {
        "d": p.d, "d_stderr": p.d_stderr, **levels, "l1": p.l1, "l2": p.l2,
        "d_provenance": p.d_provenance, "l1_provenance": p.l1_provenance,
        "l2_provenance": p.l2_provenance,
    }


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _new_report(config: RunConfig, spec_dict: dict | None) -> dict:
    cfg = asdict(config)
    cfg["hamiltonian"] = spec_dict
    return {"config": cfg, "params": None, "solutions": [], "audits": [], "timings": {}}


def _require_spec(config: RunConfig) -> tuple[HamiltonianSpec, FourierExpansion]:
    from . import hamiltonians

    if not config.spec_path:
        raise InputError(f"command {config.command!r} requires --spec")
    spec = load_spec(config.spec_path)
    return spec, hamiltonians.build_hamiltonian(spec)


def _cmd_analyze(config: RunConfig) -> tuple[int, dict]:
    from . import boolfn, complexity, hamiltonians, meanfield

    spec, f = _require_spec(config)
    report = _new_report(config, spec.to_dict())
    with _timed(config, report, "complexity"):
        params = complexity.complexity_params(f, samples=config.samples, seed=config.seed)
    report["params"] = _params_dict(params)
    form = boolfn.pairwise_form(f)
    if form is not None:
        report["closed_form_bounds"] = _params_dict(hamiltonians.ising_complexity_bounds(*form))
    if isinstance(spec, hamiltonians.CurieWeissSpec):
        report["scalar_roots"] = [float(r) for r in meanfield.curie_weiss_roots(
            spec.scalar_slope)]
    with _timed(config, report, "fixed_points"):
        sols = meanfield.solve_multistart(f, f.n, lam=1.0, seed=config.seed,
                                          damping=config.damping, tol=config.tol)
    report["solutions"] = [
        _solution_dict(s, meanfield.structural_set_test(f, s.point, params)
                       if s.converged else None)
        for s in sols
    ]
    return EXIT_OK, report


def _cmd_fixed_points(config: RunConfig) -> tuple[int, dict]:
    from . import meanfield

    spec, f = _require_spec(config)
    report = _new_report(config, spec.to_dict())
    sols = meanfield.solve_multistart(f, f.n, lam=1.0,
                                      seed=config.seed, damping=config.damping, tol=config.tol)
    report["solutions"] = [_solution_dict(s) for s in sols]
    return EXIT_OK, report


def _cmd_ld_scan(config: RunConfig) -> tuple[int, dict]:
    from . import hamiltonians, meanfield, verify

    spec, f = _require_spec(config)
    if config.t is None or config.delta is None:
        raise InputError("ld-scan requires --t and --delta")
    report = _new_report(config, spec.to_dict())
    cutoff = hamiltonians.smoothed_cutoff_weights(f, config.t, config.delta)
    rows = verify.audit_large_deviations(cutoff, instance={"spec": config.spec_path})
    report["audits"] = [r.as_dict() for r in rows]
    if rows and rows[0].kind == "error":
        print(f"witness-missing: no vertex reaches f >= t*n = {config.t * f.n:.17g} "
              f"(max f = {float(cutoff.f_values.max()):.17g})", file=sys.stderr)
        return EXIT_INPUT_ERROR, report
    # The derived lower-cutoff width delta' sits below the looser 2*delta
    # description; report both so the gap stays visible.
    report["cutoff"] = {
        "t": config.t,
        "delta": config.delta,
        "delta_prime": cutoff.delta_prime,
        "two_delta_upper_bound": 2.0 * config.delta,
        "delta_prime_within_two_delta": cutoff.delta_prime <= 2.0 * config.delta,
        "window": list(meanfield.conditioning_window(config.t, config.delta, f.n)),
        "zero_band_states": int(cutoff.zero_mask.sum()),
        "mid_band_states": int(cutoff.mid_mask.sum()),
        "top_band_states": int(cutoff.top_mask.sum()),
    }
    with _timed(config, report, "lambda_scan"):
        sols = meanfield.lambda_scan(f, config.t, config.delta,
                                     lambda_grid=config.parsed_lambda_grid(), seed=config.seed,
                                     tol=config.tol, damping=config.damping)
    report["solutions"] = [_solution_dict(s) for s in sols]
    return (EXIT_AUDIT_FAILED if verify.failures(rows) else EXIT_OK), report


def _default_random_instances(seed: int, count: int, n_range=(4, 8), degree=3):
    import numpy as np

    from . import boolfn

    rng = np.random.default_rng(seed)
    out = []
    for k in range(count):
        n = int(rng.integers(n_range[0], n_range[1] + 1))
        terms = []
        for _ in range(int(rng.integers(3, 3 + 2 * n))):
            size = int(rng.integers(1, degree + 1))
            subset = tuple(sorted(rng.choice(n, size=size, replace=False).tolist()))
            terms.append((subset, float(rng.normal())))
        out.append((k, boolfn.FourierExpansion.from_terms(n, terms)))
    return out


def _cmd_audit(config: RunConfig) -> tuple[int, dict]:
    import numpy as np

    from . import hamiltonians, verify

    spec, built = _require_spec(config) if config.spec_path else (None, None)
    report = _new_report(config, spec.to_dict() if spec else None)
    rows: list[AuditRow] = []
    suites = SUITES[:-1] if config.suite == "all" else (config.suite,)
    if "ld" in suites and config.t is not None and built is None:
        raise InputError("--t and --delta need --spec for the ld suite")

    if "appendix" in suites:
        with _timed(config, report, "appendix"):
            rows.append(verify.audit_tanh_mean_swap(2000, (1.0, 5.0), seed=config.seed))
            rng = np.random.default_rng(config.seed + 1)
            for k, f in _default_random_instances(config.seed + 2, 3, n_range=(6, 8), degree=2):
                means = [rng.uniform(-0.9, 0.9, f.n) for _ in range(4)]
                rows.extend(verify.audit_chain_rule_and_moments(
                    f, hamiltonians.CutoffShape(), means, seed=config.seed,
                    instance={"suite_instance": k}))
            t_rows, _ = verify.tightness_demo([16, 64, 256])
            rows.extend(t_rows)

    if "proximity" in suites:
        with _timed(config, report, "proximity"):
            instances = ([(0, built)] if built is not None
                         else _default_random_instances(config.seed + 3, 4, n_range=(4, 6)))
            for k, f in instances:
                thetas = [np.zeros(f.n)] + list(verify.sample_tilts(
                    f.n, config.epsilon, 4, seed=config.seed + 10 + k))
                rows.extend(verify.audit_product_proximity(
                    f, thetas, instance={"suite_instance": k}))

    if "main" in suites:
        from . import complexity

        with _timed(config, report, "main"):
            f = built if built is not None else hamiltonians.build_hamiltonian(
                hamiltonians.CurieWeissSpec(2.0, 8))
            params = complexity.complexity_params(f, samples=min(config.samples, 20_000),
                                                  seed=config.seed)
            thetas = verify.sample_tilts(f.n, config.epsilon, 8, seed=config.seed + 20)
            rows.extend(verify.audit_main_residuals(f, thetas, config.epsilon, params,
                                                    instance={"spec": config.spec_path}))

    if "ld" in suites:
        with _timed(config, report, "ld"):
            if config.t is not None:
                f, t, delta, spec_path = built, config.t, config.delta, config.spec_path
            else:
                f = hamiltonians.build_hamiltonian(hamiltonians.CurieWeissSpec(1.5, 10))
                t, delta, spec_path = 0.675, 0.05, None
            rows.extend(verify.audit_large_deviations(
                hamiltonians.smoothed_cutoff_weights(f, t, delta),
                instance={"spec": spec_path}))

    if "tightness" in suites:
        with _timed(config, report, "tightness"):
            t_rows, _ = verify.tightness_demo([16, 64, 256, 1024])
            rows.extend(t_rows)

    report["audits"] = [r.as_dict() for r in rows]
    bad = verify.failures(rows)
    errors = [r for r in rows if r.kind == "error"]
    report["summary"] = {
        "rows": len(rows),
        "bound_rows": sum(1 for r in rows if r.kind == "bound" and r.hypothesis_met),
        "failures": len(bad),
        "errors": len(errors),
    }
    if errors:
        return EXIT_INPUT_ERROR, report
    return (EXIT_AUDIT_FAILED if bad else EXIT_OK), report


def _cmd_report(config: RunConfig) -> tuple[int, dict]:
    if not config.spec_path:
        raise InputError("report requires --spec pointing at an existing JSON report")
    try:
        report = parse_report(Path(config.spec_path).read_bytes())
    except OSError as exc:
        raise InputError(f"cannot read report {config.spec_path}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"input is not a JSON report: {exc}") from exc
    if not isinstance(report, dict) or "audits" not in report:
        raise InputError("input does not look like a report (missing 'audits')")
    audits = report["audits"]
    if not isinstance(audits, list) or not all(
            isinstance(row, dict) and all(key in row for key in CSV_COLUMNS) for row in audits):
        raise InputError(f"'audits' must be a list of rows with keys {', '.join(CSV_COLUMNS)}")
    return EXIT_OK, report


@contextlib.contextmanager
def _timed(config: RunConfig, report: dict, stage: str):
    """Record the wall time of the ``with`` body under ``report["timings"][stage]`` if asked."""
    start = time.perf_counter()
    yield
    if config.timings:
        report["timings"][stage] = time.perf_counter() - start


_COMMANDS = {
    "analyze": _cmd_analyze,
    "fixed-points": _cmd_fixed_points,
    "ld-scan": _cmd_ld_scan,
    "audit": _cmd_audit,
    "report": _cmd_report,
}


def run(config: RunConfig) -> tuple[int, dict | None]:
    """Execute one command under the config's size caps; returns (exit status, report)."""
    config.validate()
    with size_caps(config.max_n, config.transport_max_states):
        code, report = _COMMANDS[config.command](config)
    payload = serialize_report(report, config.fmt)
    if config.out_path:
        try:
            write_atomic(config.out_path, payload)
        except OSError as exc:
            raise InputError(f"cannot write {config.out_path}: {exc.strerror}") from exc
    else:
        sys.stdout.write(payload.decode())
    return code, report


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        config = build_config(argv)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; remap usage
        # errors onto the input-error code to keep 2 for audit failures.
        return EXIT_OK if exc.code in (0, None) else EXIT_INPUT_ERROR
    try:
        code, _ = run(config)
        return code
    except ValueError as exc:  # InputError and the layers' InvalidSpec, CapExceeded, ...
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
