"""Spans around calls into mfgl's modules, and the per-layer metrics they give.

``instrument`` swaps every cross-module reference to a public mfgl function
for a wrapper that records a span, so a call from ``complexity`` into
``boolfn.gradient_tables`` becomes a child span of the complexity call.
Inside one library module only calls to the kernels that the per-layer
metrics name are traced (``complexity_params`` calling ``gradient_cloud``);
other internal calls are the calling function's own work.  ``cli`` is the
entry layer, so its own stages (``load_spec``, ``serialize_report``, ...)
are traced on every call.  Nothing under the package's sources changes; the
swap lives only in the tracing process.

Spans stay in memory until the process writes them out.  Each span has an
id, its parent's id, the index of the command it belongs to (``trace``),
``module.function`` as name, start and end in seconds, and optional
counters read from the call's arguments and result.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time
import types
from typing import Callable

LAYERS = ("boolfn", "hamiltonians", "gibbs", "transport", "complexity", "meanfield",
          "verify", "cli")
ENTRY_LAYER = "cli"
# The tracing process imports mfgl once under this span; a CLI child pays
# that import on every command, so it is kept out of the layers' self time.
IMPORT_SPAN = "cli.import"


def _rows(result) -> list:
    """Audit rows in a verify result (a row, a list of rows, or (rows, slope))."""
    if isinstance(result, tuple):
        result = result[0]
    rows = result if isinstance(result, list) else [result]
    return [r for r in rows if hasattr(r, "check_id")]


def _solution_counts(args: dict, result) -> dict:
    return {"solutions": len(result), "iterations": sum(s.iterations for s in result),
            "converged": sum(bool(s.converged) for s in result)}


def _audit_counts(args: dict, result) -> dict:
    rows = _rows(result)
    failed = [r for r in rows if r.kind == "bound" and r.hypothesis_met and not r.passed]
    return {"rows": len(rows), "failed_rows": len(failed)}


# Counters recorded on a span, from the bound arguments and the result.
COUNTERS: dict[str, Callable[[dict, object], dict]] = {
    "boolfn.gradient_tables": lambda a, r: {"table_bytes": a["f"].n * (1 << a["f"].n) * 8},
    "complexity.gradient_cloud": lambda a, r: {"cloud_size": r.size, "cube_size": 1 << r.n},
    "complexity.gaussian_width_mc": lambda a, r: {
        "width_flops": 2 * a["samples"] * a["cloud"].size * a["cloud"].n},
    "meanfield.solve_multistart": _solution_counts,
    "meanfield.lambda_scan": _solution_counts,
    "transport.solve_w1": lambda a, r: {"states": 1 << a["n"], "iterations": r.iterations,
                                        "certified": bool(r.certified)},
    "cli.serialize_report": lambda a, r: {"report_bytes": len(r)},
}
for _name in ("audit_product_proximity", "audit_main_residuals", "audit_tanh_mean_swap",
              "audit_chain_rule_and_moments", "audit_large_deviations", "tightness_demo"):
    COUNTERS[f"verify.{_name}"] = _audit_counts


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[dict] = []
        self.trace = 0
        self._stack: list[int] = []

    def _open(self, name: str) -> dict:
        span = {"id": len(self.spans), "parent": self._stack[-1] if self._stack else None,
                "trace": self.trace, "name": name, "start": self.clock(), "end": None}
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def _close(self, span: dict) -> None:
        span["end"] = self.clock()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        record = self._open(name)
        try:
            yield record
        finally:
            self._close(record)

    def wrap(self, name: str, fn: Callable) -> Callable:
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counter:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span["counts"] = counter(bound.arguments, result)
            return result

        return traced


def instrument(tracer: Tracer, modules: dict[str, types.ModuleType]) -> None:
    """Route calls into each layer's public functions through ``tracer``.

    ``modules`` maps layer name -> imported module.  A module attribute that
    names another layer's public function is replaced by its wrapper; an
    attribute holding another layer's module (``from . import boolfn``) is
    replaced by a namespace of wrappers.
    """
    by_module = {m.__name__: layer for layer, m in modules.items()}
    wrappers: dict[int, Callable] = {}  # id of the original -> its one wrapper

    def wrapped(fn):
        if any(fn is w for w in wrappers.values()):
            return fn
        if id(fn) not in wrappers:
            wrappers[id(fn)] = tracer.wrap(f"{by_module[fn.__module__]}.{fn.__name__}", fn)
        return wrappers[id(fn)]

    def public_function(value) -> bool:
        return (isinstance(value, types.FunctionType) and value.__module__ in by_module
                and not value.__name__.startswith("_"))

    for layer, module in modules.items():
        for attr, value in list(vars(module).items()):
            if attr.startswith("_"):
                continue
            if public_function(value) and (value.__module__ != module.__name__
                                           or layer == ENTRY_LAYER
                                           or f"{layer}.{attr}" in KERNELS):
                setattr(module, attr, wrapped(value))
            elif isinstance(value, types.ModuleType) and value.__name__ in by_module:
                setattr(module, attr, types.SimpleNamespace(**{
                    k: wrapped(v) if public_function(v) and v.__module__ == value.__name__ else v
                    for k, v in vars(value).items()}))


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> its duration minus the part of it that child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered, reach = 0.0, s["start"]
        for start, end in sorted(children.get(s["id"], [])):
            start, end = max(start, reach), min(end, s["end"])
            if end > start:
                covered += end - start
                reach = end
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


# Per-layer time metric -> the functions whose self time it sums.
TIME_METRICS = {
    "boolfn.gradient_tables_s": ("boolfn.gradient_tables",),
    "boolfn.lipschitz_s": ("boolfn.lipschitz_l1", "boolfn.lipschitz_l2"),
    "boolfn.vertex_values_s": ("boolfn.vertex_values",),
    "boolfn.compose_s": ("boolfn.compose",),
    "complexity.cloud_s": ("complexity.gradient_cloud",),
    "complexity.width_s": ("complexity.gaussian_width_mc",),
    "meanfield.lambda_scan_s": ("meanfield.lambda_scan",),
    "meanfield.multistart_s": ("meanfield.solve_multistart",),
    "transport.w1_s": ("transport.solve_w1",),
    "gibbs.measure_s": ("gibbs.gibbs_measure", "gibbs.tilt", "gibbs.densify"),
    "gibbs.covariance_s": ("gibbs.tanh_covariance", "gibbs.product_approx"),
    "gibbs.field_s": ("gibbs.gradient_field",),
    "verify.audit_s": tuple(n for n in COUNTERS if n.startswith("verify.audit_")),
    "hamiltonians.build_s": ("hamiltonians.build_hamiltonian",),
    "hamiltonians.smoothed_cutoff_s": ("hamiltonians.smoothed_cutoff_weights",),
    "cli.import_s": (IMPORT_SPAN,),
    "cli.load_spec_s": ("cli.load_spec", "cli.spec_from_dict"),
    "cli.serialize_s": ("cli.serialize_report", "cli.parse_report", "cli.write_atomic"),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Every per-layer metric from one traced replay; absent work reads 0."""
    self_s = self_times(spans)
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def total(names, key=None, where=lambda s: True) -> float:
        return sum((s.get("counts", {}).get(key, 0) if key else self_s[s["id"]])
                   for n in names for s in by_name.get(n, []) if where(s))

    out = {name: total(fns) for name, fns in TIME_METRICS.items()}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(self_s[s["id"]] for s in spans
                                     if s["name"].split(".")[0] == layer
                                     and s["name"] != IMPORT_SPAN)
    w1 = ("transport.solve_w1",)
    starts = ("meanfield.solve_multistart", "meanfield.lambda_scan")
    audits = TIME_METRICS["verify.audit_s"] + ("verify.tightness_demo",)
    out.update({
        "boolfn.calls": sum(1 for s in spans if s["name"].startswith("boolfn.")),
        "boolfn.table_bytes": total(("boolfn.gradient_tables",), "table_bytes"),
        "complexity.cloud_size": total(("complexity.gradient_cloud",), "cloud_size"),
        "complexity.dedup_ratio": _ratio(total(("complexity.gradient_cloud",), "cloud_size"),
                                         total(("complexity.gradient_cloud",), "cube_size")),
        "complexity.width_flops": total(("complexity.gaussian_width_mc",), "width_flops"),
        "meanfield.start_iterations": total(starts, "iterations"),
        "meanfield.converged_ratio": _ratio(total(starts, "converged"),
                                            total(starts, "solutions")),
        "meanfield.solutions_kept": total(starts, "solutions"),
        "transport.w1_256_s": total(w1, where=lambda s: s.get("counts", {}).get("states") == 256),
        "transport.w1_1024_s": total(w1, where=lambda s: s.get("counts", {}).get("states") == 1024),
        "transport.solves": len(by_name.get(w1[0], [])),
        "transport.augmentations": total(w1, "iterations"),
        "transport.certified_ratio": _ratio(total(w1, "certified"), len(by_name.get(w1[0], []))),
        "verify.rows": total(audits, "rows"),
        "verify.failed_rows": total(audits, "failed_rows"),
        "cli.report_bytes": total(("cli.serialize_report",), "report_bytes"),
    })
    return out

# Functions traced on calls from inside their own module too.
KERNELS = frozenset(COUNTERS).union(*TIME_METRICS.values())
