"""Command-line surface: parse Hamiltonian specs, run analyses, write reports.

Commands
--------
analyze       complexity parameters with the structural threshold, scalar
              roots where applicable, and multi-start fixed points
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

Each command takes the flags it reads, and no other:
analyze       --spec --out --format --seed --samples --tol --damping --max-n
              --timings
fixed-points  --spec --out --format --seed --tol --damping --max-n
ld-scan       --spec --out --format --seed --tol --damping --t --delta --max-n
              --lambda-grid --timings
audit         --spec --out --format --seed --samples --epsilon --t --delta
              --max-n --transport-max-states --suite --timings
report        --spec --out --format
Every flag but --timings can be defaulted through the environment variable
MFGL_ plus its name upper-cased, - as _ (--max-n: MFGL_MAX_N); explicit
flags win, and a command ignores the variables of flags it does not take.
--max-n and --transport-max-states set the two size caps: ``run`` holds
them in ``mfgl.size_caps`` around the command, and every table and
transport the command builds reads them there.
Numbers in reports are emitted with 17 significant digits and reports are
written atomically (temp file + rename), so identical configs and seeds
produce byte-identical files.  Exit codes: 0 success, 1 input error or an
error-kind audit row (one ``error:`` line per row naming its check_id and
instance), 2 at least one proven-bound audit failed.

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
from dataclasses import Field, asdict, dataclass, field, fields
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

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_AUDIT_FAILED = 2


class InputError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Report serialization (17 significant digits, deterministic)
# ---------------------------------------------------------------------------


def _number(x) -> str:
    """``x`` with 17 significant digits; "" for None and non-finite values."""
    if x is None:
        return ""
    x = float(x)
    return format(x, ".17g") if math.isfinite(x) else ""


def _emit_json(obj, out: list, indent: int) -> None:
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(str(int(obj)))
    elif isinstance(obj, float):
        out.append(_number(obj) or "null")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, (dict, list, tuple)) or _is_ndarray(obj):
        keyed = isinstance(obj, dict)
        items = list(obj.items() if keyed else obj)
        brackets = "{}" if keyed else "[]"
        if not items:
            out.append(brackets)
            return
        pad = " " * indent
        out.append(brackets[0] + "\n")
        for i, item in enumerate(items):
            if keyed:
                key, item = item
                out.append(pad + "  " + json.dumps(str(key)) + ": ")
            else:
                out.append(pad + "  ")
            _emit_json(item, out, indent + 2)
            out.append(",\n" if i < len(items) - 1 else "\n")
        out.append(pad + brackets[1])
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
                _number(row["measured"]),
                _number(row["bound"]),
                _number(row["ratio"]),
                str(bool(row["pass"])).lower(),
                row["kind"],
                str(bool(row["hypothesis_met"])).lower(),
                json.dumps(row["instance"], sort_keys=True),
            ])
        return buf.getvalue().encode()
    raise InputError(f"unsupported format {fmt!r}")


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


def _solution_dict(sol: FixedPointSolution) -> dict:
    return {
        "start_id": sol.start_id,
        "lambda": sol.lam,
        "point": [float(v) for v in sol.point],
        "residual_l1": sol.residual_l1,
        "iterations": sol.iterations,
        "converged": sol.converged,
        "status": sol.status,
        "period": sol.period,
    }


def _params_dict(p) -> dict:
    se = {} if p.d_stderr is None else {"d_stderr": p.d_stderr}
    levels = {} if p.d_levels is None else {"d_levels": p.d_levels}
    return {"d": p.d, **se, **levels, "l1": p.l1, "l2": p.l2}


def _exit_status(rows: Sequence[AuditRow]) -> int:
    """1, with one ``error:`` line per error row, else 2 if a proven bound fails, else 0."""
    from . import verify

    errors = [r for r in rows if r.kind == "error"]
    for r in errors:
        print(f"error: audit row {r.check_id} refused the instance {json.dumps(r.instance)}",
              file=sys.stderr)
    if errors:
        return EXIT_INPUT_ERROR
    return EXIT_AUDIT_FAILED if verify.failures(rows) else EXIT_OK


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _new_report(config: RunConfig, spec_dict: dict | None) -> dict:
    cfg = asdict(config)
    cfg["hamiltonian"] = spec_dict
    return {"config": cfg, "params": None, "solutions": [], "audits": [], "timings": {}}


def load_spec(path: str) -> HamiltonianSpec:
    from . import hamiltonians

    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        raise InputError(f"cannot read spec file {path}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"spec file is not valid JSON: {exc}") from exc
    return hamiltonians.spec_from_dict(data)


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
    report["params"] = {**_params_dict(params),
                        "structural_threshold": params.structural_threshold(f.n)}
    form = boolfn.pairwise_form(f)
    if form is not None:
        report["closed_form_bounds"] = _params_dict(hamiltonians.ising_complexity_bounds(*form))
    if isinstance(spec, hamiltonians.CurieWeissSpec):
        report["scalar_roots"] = [float(r) for r in meanfield.curie_weiss_roots(
            spec.scalar_slope)]
    with _timed(config, report, "fixed_points"):
        sols = meanfield.solve_multistart(f, f.n, lam=1.0, seed=config.seed,
                                          damping=config.damping, tol=config.tol)
    report["solutions"] = [_solution_dict(s) for s in sols]
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
    code = _exit_status(rows)
    if code == EXIT_INPUT_ERROR:
        return code, report
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
    return code, report


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


def _suite_appendix(config: RunConfig, built: FourierExpansion | None) -> list[AuditRow]:
    import numpy as np

    from . import hamiltonians, verify

    rows = verify.audit_tanh_mean_swap(2000, (1.0, 5.0), seed=config.seed)
    rng = np.random.default_rng(config.seed + 1)
    for k, f in _default_random_instances(config.seed + 2, 3, n_range=(6, 8), degree=2):
        means = [rng.uniform(-0.9, 0.9, f.n) for _ in range(4)]
        rows.extend(verify.audit_chain_rule_and_moments(
            f, hamiltonians.CutoffShape(), means, seed=config.seed,
            instance={"suite_instance": k}))
    return rows + verify.tightness_demo([16, 64, 256])


def _suite_proximity(config: RunConfig, built: FourierExpansion | None) -> list[AuditRow]:
    import numpy as np

    from . import verify

    instances = ([(0, built)] if built is not None
                 else _default_random_instances(config.seed + 3, 4, n_range=(4, 6)))
    rows = []
    for k, f in instances:
        thetas = [np.zeros(f.n)] + list(verify.sample_tilts(
            f.n, config.epsilon, 4, seed=config.seed + 10 + k))
        rows.extend(verify.audit_product_proximity(f, thetas, instance={"suite_instance": k}))
    return rows


def _suite_main(config: RunConfig, built: FourierExpansion | None) -> list[AuditRow]:
    from . import complexity, hamiltonians, verify

    f = built if built is not None else hamiltonians.build_hamiltonian(
        hamiltonians.CurieWeissSpec(2.0, 8))
    params = complexity.complexity_params(f, samples=min(config.samples, 20_000),
                                          seed=config.seed)
    thetas = verify.sample_tilts(f.n, config.epsilon, 8, seed=config.seed + 20)
    return verify.audit_main_residuals(f, thetas, config.epsilon, params,
                                       instance={"spec": config.spec_path})


def _suite_ld(config: RunConfig, built: FourierExpansion | None) -> list[AuditRow]:
    from . import hamiltonians, verify

    if config.t is not None:
        f, t, delta, spec_path = built, config.t, config.delta, config.spec_path
    else:
        f = hamiltonians.build_hamiltonian(hamiltonians.CurieWeissSpec(1.5, 10))
        t, delta, spec_path = 0.675, 0.05, None
    return verify.audit_large_deviations(hamiltonians.smoothed_cutoff_weights(f, t, delta),
                                         instance={"spec": spec_path})


def _suite_tightness(config: RunConfig, built: FourierExpansion | None) -> list[AuditRow]:
    from . import verify

    return verify.tightness_demo([16, 64, 256, 1024])


# Each suite maps (config, the --spec expansion or None) to its rows; ``all``
# runs them in this order.
_SUITES = {
    "appendix": _suite_appendix,
    "proximity": _suite_proximity,
    "main": _suite_main,
    "ld": _suite_ld,
    "tightness": _suite_tightness,
}
SUITES = (*_SUITES, "all")


def _cmd_audit(config: RunConfig) -> tuple[int, dict]:
    from . import verify

    spec, built = _require_spec(config) if config.spec_path else (None, None)
    report = _new_report(config, spec.to_dict() if spec else None)
    rows: list[AuditRow] = []
    for name in _SUITES if config.suite == "all" else (config.suite,):
        with _timed(config, report, name):
            rows.extend(_SUITES[name](config, built))
    report["audits"] = [r.as_dict() for r in rows]
    report["summary"] = {
        "rows": len(rows),
        "bound_rows": sum(1 for r in rows if r.kind == "bound" and r.hypothesis_met),
        "failures": len(verify.failures(rows)),
        "errors": sum(1 for r in rows if r.kind == "error"),
    }
    return _exit_status(rows), report


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


# ---------------------------------------------------------------------------
# Config: one table of options, each with the commands that read it
# ---------------------------------------------------------------------------


def _option(default, flag: str, commands: str, **argparse_kw) -> Field:
    """A ``RunConfig`` field that the space-separated ``commands`` read, set by ``flag`` (and,
    unless a switch, by ``MFGL_`` plus the flag's name upper-cased, ``-`` as ``_``)."""
    env = None if "action" in argparse_kw else "MFGL_" + flag[2:].upper().replace("-", "_")
    return field(default=default, metadata={
        "flag": flag, "env": env, "commands": commands.split(), "argparse": argparse_kw})


_COMPUTE = "analyze fixed-points ld-scan audit"
_EVERY = _COMPUTE + " report"


@dataclass
class RunConfig:
    command: str
    spec_path: Optional[str] = _option(
        None, "--spec", _EVERY, help="Hamiltonian spec JSON (or input report for `report`)")
    out_path: Optional[str] = _option(
        None, "--out", _EVERY, help="output path; stdout when omitted")
    fmt: str = _option("json", "--format", _EVERY, choices=("json", "csv"))
    seed: int = _option(0, "--seed", _COMPUTE, type=int)
    samples: int = _option(DEFAULT_SAMPLES, "--samples", "analyze audit", type=int)
    tol: float = _option(DEFAULT_TOL, "--tol", "analyze fixed-points ld-scan", type=float)
    damping: float = _option(DEFAULT_DAMPING, "--damping", "analyze fixed-points ld-scan",
                             type=float)
    epsilon: float = _option(0.2, "--epsilon", "audit", type=float)
    t: Optional[float] = _option(None, "--t", "ld-scan audit", type=float)
    delta: Optional[float] = _option(None, "--delta", "ld-scan audit", type=float)
    max_n: int = _option(DEFAULT_ENUM_CAP, "--max-n", _COMPUTE, type=int)
    transport_max_states: int = _option(DEFAULT_TRANSPORT_STATES, "--transport-max-states",
                                        "audit", type=int)
    suite: str = _option("all", "--suite", "audit", choices=SUITES)
    lambda_grid: str = _option("1e-2:1e2:64", "--lambda-grid", "ld-scan",
                               help="LO:HI:COUNT geometric grid, mirrored, plus 0")
    timings: bool = _option(False, "--timings", "analyze ld-scan audit", action="store_true",
                            help="record wall-clock stage timings (breaks byte-identical reports)")

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
        if (self.command == "audit" and self.suite in ("ld", "all") and self.t is not None
                and not self.spec_path):
            raise InputError("--t and --delta need --spec for the ld suite")

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


def _options(command: str) -> list[Field]:
    """The ``RunConfig`` fields that ``command`` reads, in field order."""
    return [f for f in fields(RunConfig) if command in f.metadata.get("commands", ())]


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The ``mfgl`` parser and its subcommand parsers by name."""
    parser = argparse.ArgumentParser(prog="mfgl", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"mfgl {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name, allow_abbrev=False)  # so --t never reaches --tol
        for f in _options(name):
            p.add_argument(f.metadata["flag"], dest=f.name, default=None,
                           **f.metadata["argparse"])
    return parser, sub.choices


def build_config(argv: Sequence[str], env: dict | None = None) -> RunConfig:
    env = os.environ if env is None else env
    parser, commands = _build_parser()
    ns, extra = parser.parse_known_args(list(argv))
    if extra:  # under the command's own usage line, which lists the flags it takes
        commands[ns.command].error(f"unrecognized arguments: {' '.join(extra)}")
    config = RunConfig(command=ns.command)
    for f in _options(ns.command):
        value, key = getattr(ns, f.name), f.metadata["env"]
        if value is None and key is not None and key in env:
            try:
                value = f.metadata["argparse"].get("type", str)(env[key])
            except ValueError as exc:
                raise InputError(f"bad value for {key}: {env[key]!r}") from exc
        if value is not None:
            setattr(config, f.name, value)
    config.validate()
    return config


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
