"""Self-tests for the benchmark's own code: checks, span arithmetic, workloads.

Run with ``python3 -m pytest -q bench`` from the repository root.
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import spans
import workloads

CW8 = {"type": "curie_weiss", "beta": 2.0, "n": 8}


def cw_fixed_point(beta: float, n: int) -> float:
    """Positive m with m = tanh(2 beta (n-1)/n m): the constant fixed point of curie_weiss."""
    m = 1.0
    for _ in range(10_000):
        m = math.tanh(2.0 * beta * (n - 1) / n * m)
    return m


def fixed_point_report(point: list[float], lam: float = 1.0) -> dict:
    return {"solutions": [{"start_id": "plus09", "lambda": lam, "point": point,
                           "residual_l1": 0.0, "converged": True}],
            "audits": []}


def audit_report() -> dict:
    rows = [{"check_id": "w1_vs_trace_bound", "instance": {}, "measured": 0.1, "bound": 0.2,
             "ratio": 0.5, "pass": True, "kind": "bound", "hypothesis_met": True},
            {"check_id": "tilt_trace_condition", "instance": {}, "measured": 5.0, "bound": 1.0,
             "ratio": 5.0, "pass": False, "kind": "hypothesis", "hypothesis_met": True}]
    return {"audits": rows, "summary": {"rows": 2, "bound_rows": 1, "failures": 0, "errors": 0}}


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def test_true_fixed_point_passes_and_perturbed_one_fails():
    m = cw_fixed_point(2.0, 8)
    report = fixed_point_report([m] * 8)
    assert checks.check_fixed_points(report, CW8, 1e-10) == []
    tampered = copy.deepcopy(report)
    tampered["solutions"][0]["point"][3] += 1e-6
    assert checks.check_fixed_points(tampered, CW8, 1e-10)


def test_unconverged_rows_are_not_held_to_tol():
    report = fixed_point_report([0.3] * 8)
    report["solutions"][0]["converged"] = False
    assert checks.check_fixed_points(report, CW8, 1e-10) == []


def test_ld_scan_solution_outside_window_fails():
    spec = {"type": "curie_weiss", "beta": 1.5, "n": 10}
    n, terms = checks.spec_terms(spec)
    lam = 1.0
    # The all-zero point is a fixed point for every lambda and f(0) = 0.
    zero = fixed_point_report([0.0] * n, lam)
    assert float(checks.evaluate(terms, np.zeros(n))) == 0.0
    # Windows [(t - 6 delta) n, t n]: [0.4, 1] misses f = 0, [-0.1, 0.5] holds it.
    assert checks.check_ld_scan(zero, spec, t=0.1, delta=0.01, tol=1e-10)
    assert checks.check_ld_scan(zero, spec, t=0.05, delta=0.01, tol=1e-10) == []


def test_flipped_or_violated_audit_rows_fail():
    assert checks.check_audit(audit_report()) == []
    flipped = audit_report()
    flipped["audits"][0]["pass"] = False
    assert checks.check_audit(flipped)
    violated = audit_report()
    violated["audits"][0]["measured"] = 0.3
    assert checks.check_audit(violated)
    miscounted = audit_report()
    miscounted["summary"]["failures"] = 1
    assert checks.check_audit(miscounted)


def test_csv_row_count_must_match_the_audit():
    source = audit_report()
    header = ",".join(("check_id", "measured", "bound", "ratio", "pass", "kind",
                       "hypothesis_met", "instance"))
    good = f"{header}\na,1,2,0.5,true,bound,true,{{}}\nb,1,2,0.5,true,bound,true,{{}}\n"
    assert checks.check_csv(good.encode(), source) == []
    assert checks.check_csv(good.rsplit("b,", 1)[0].encode(), source)


def test_lipschitz_scan_matches_curie_weiss_closed_form_and_catches_tampering():
    beta, n = 1.5, 6
    spec = {"type": "curie_weiss", "beta": beta, "n": n}
    l1, l2 = checks.lipschitz_brute_force(*checks.spec_terms(spec))
    c = 2.0 * beta / n
    assert l1 == pytest.approx(c * (n - 1))
    # Flipping x_i moves every other gradient component by 2c: (n-1) 2c / 2.
    assert l2 == pytest.approx(c * (n - 1))
    report = {"params": {"l1": max(1.0, l1), "l2": max(1.0, l2)}, "solutions": []}
    assert checks.check_analyze(report, spec, 1e-10) == []
    report["params"]["l1"] *= 1.0 + 1e-6
    assert checks.check_analyze(report, spec, 1e-10)


def test_smoothed_cutoff_terms_reproduce_the_composed_vertex_values():
    spec = {"type": "smoothed_cutoff", "inner": {"type": "curie_weiss", "beta": 1.5, "n": 4},
            "t": 0.4, "delta": 0.05}
    n, terms = checks.spec_terms(spec)
    cube = checks.vertices(n)
    inner = checks.evaluate(checks.spec_terms(spec["inner"])[1], cube)
    want = checks._cutoff_shape(inner, n, 0.4, 0.05)
    np.testing.assert_allclose(checks.evaluate(terms, cube), want, atol=1e-12)


def test_gradient_is_the_flip_half_difference_at_vertices():
    n, terms = checks.spec_terms({"type": "triangle_count", "beta": 1.0, "num_vertices": 4})
    cube = checks.vertices(n)
    values = checks.evaluate(terms, cube)
    grads = checks.gradient(n, terms, cube)
    idx = np.arange(cube.shape[0])
    for i in range(n):
        flipped = values[idx ^ (1 << i)]
        np.testing.assert_allclose(grads[:, i], cube[:, i] * (values - flipped) / 2.0, atol=1e-12)


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------


def span(sid, parent, name, start, end, **counts):
    out = {"id": sid, "parent": parent, "trace": 0, "name": name, "start": start, "end": end}
    if counts:
        out["counts"] = counts
    return out


def test_self_time_is_duration_minus_covered_children():
    tree = [span(0, None, "cli.main", 0.0, 10.0),
            span(1, 0, "complexity.complexity_params", 1.0, 9.0),
            span(2, 1, "complexity.gradient_cloud", 1.0, 4.0),
            span(3, 2, "boolfn.gradient_tables", 1.5, 3.5, table_bytes=64),
            span(4, 1, "complexity.gaussian_width_mc", 4.0, 8.5, width_flops=10),
            # Overlapping children are counted once: [23, 25] and [24, 26] cover 3 s.
            span(5, None, "verify.audit_large_deviations", 20.0, 30.0, rows=3, failed_rows=0),
            span(6, 5, "boolfn.vertex_values", 23.0, 25.0),
            span(7, 5, "boolfn.compose", 24.0, 26.0)]
    self_s = spans.self_times(tree)
    assert self_s == pytest.approx({0: 2.0, 1: 0.5, 2: 1.0, 3: 2.0, 4: 4.5, 5: 7.0,
                                    6: 2.0, 7: 2.0})
    metrics = spans.layer_metrics(tree)
    assert metrics["complexity.cloud_s"] == pytest.approx(1.0)
    assert metrics["complexity.width_s"] == pytest.approx(4.5)
    assert metrics["complexity.self_s"] == pytest.approx(6.0)
    assert metrics["boolfn.gradient_tables_s"] == pytest.approx(2.0)
    assert metrics["boolfn.self_s"] == pytest.approx(6.0)
    assert metrics["boolfn.table_bytes"] == 64
    assert metrics["boolfn.calls"] == 3
    assert metrics["verify.rows"] == 3
    assert metrics["transport.certified_ratio"] == 0.0
    # Without overlaps, self times partition the root span.
    assert sum(self_s[k] for k in range(5)) == pytest.approx(10.0)


def fake_module(name: str, source: str, **names) -> types.ModuleType:
    module = types.ModuleType(name)
    vars(module).update(names)
    exec(source, vars(module))
    for value in vars(module).values():
        if isinstance(value, types.FunctionType) and value.__globals__ is vars(module):
            value.__module__ = name
    return module


def test_instrument_traces_cross_module_calls_and_named_kernels_only():
    lower = fake_module("pkg.boolfn", """
def helper(x):
    return x + 1

def compose(f):
    return helper(f) * 2
""")
    upper = fake_module("pkg.hamiltonians", """
def smoothed_cutoff_weights(f):
    return compose(f) + boolfn.helper(f) + boolfn.compose(f)

def entry(f):
    return smoothed_cutoff_weights(f) + inner(f)

def inner(f):
    return 0
""", compose=lower.compose, boolfn=lower)
    tracer = spans.Tracer(clock=iter(range(100)).__next__)
    spans.instrument(tracer, {"boolfn": lower, "hamiltonians": upper})
    assert upper.entry(1) == 10
    # entry and inner are reached from inside their module and are no kernels;
    # helper is traced only where another module calls it; a kernel reached
    # through the module object gets one span, not one per wrapper.
    names = [(s["name"], s["parent"]) for s in tracer.spans]
    assert names == [("hamiltonians.smoothed_cutoff_weights", None), ("boolfn.compose", 0),
                     ("boolfn.helper", 0), ("boolfn.compose", 0)]


def test_tracer_closes_spans_when_the_call_raises():
    tracer = spans.Tracer()

    def boom():
        raise RuntimeError("no")

    with pytest.raises(RuntimeError):
        tracer.wrap("cli.main", boom)()
    assert tracer.spans[0]["end"] is not None and tracer._stack == []


# ---------------------------------------------------------------------------
# Workloads and the runner
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_specs_follow_the_seed(workload):
    assert workloads.specs(workload, 3) == workloads.specs(workload, 3)
    plan = workloads.commands(workload, 3)
    assert plan[-1] in plan[:-1]
    assert all(c.option("--seed") == "3" for c in plan if c.kind != "report")
    for c in plan:
        if c.kind != "report" and c.option("--spec"):
            assert Path(c.option("--spec")).name in workloads.specs(workload, 3)


def test_random_specs_differ_between_seeds():
    assert workloads.specs("audit", 1)["ising8.json"] != workloads.specs("audit", 2)["ising8.json"]
    terms = workloads.specs("audit", 1)["sparse8.json"]["terms"]
    assert len({tuple(t["subset"]) for t in terms}) == len(terms) == 16
    assert max(len(t["subset"]) for t in terms) <= 3


def test_import_seconds_sums_top_level_imports():
    stderr = ("import time: self [us] | cumulative | imported package\n"
              "import time:       100 |        300 | site\n"
              "import time:       200 |        200 |   site.inner\n"
              "import time:      1000 |    1500000 | mfgl\n"
              "error: something\n")
    assert run.import_seconds(stderr) == pytest.approx(1.5003)


def test_bracketed_rescales_by_the_references_around_each_item(monkeypatch):
    clock = iter([0.0, 2.0, 10.0, 20.0])
    monkeypatch.setattr(run.time, "perf_counter", lambda: next(clock))
    measures = iter([0.2] * run.REFERENCE_MAX + [0.4, 0.6, 0.3, 0.3, 0.3])
    out = list(run.bracketed(lambda: next(measures), lambda item: item, ["short", "long"]))
    # REFERENCE_MAX references first; 2 s item: one reference after it;
    # 10 s item: references until they take 10% of 10 s.
    assert out[0] == ("short", pytest.approx((0.2 * run.REFERENCE_MAX + 0.4)
                                             / (run.REFERENCE_MAX + 1)))
    assert out[1] == ("long", pytest.approx((0.4 + 0.6 + 0.3 + 0.3) / 4))
    record = run.Record(["audit"], "audit", 0, wall_s=10.0, rss_mb=0.0, cpu_s=0.0,
                        reference_s=2 * run.REFERENCE_S)
    assert record.norm_wall_s == pytest.approx(5.0)


def test_runner_refuses_a_directory_without_the_sources(tmp_path):
    root = Path(__file__).resolve().parent.parent
    shutil.copy(root / "BENCHMARK.json", tmp_path)
    shutil.copytree(root / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "audit", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


def test_benchmark_json_lists_every_metric_the_runner_reports():
    root = Path(__file__).resolve().parent.parent
    bench = json.loads((root / "BENCHMARK.json").read_text())
    per_layer = {m["name"] for m in bench["per_layer"]}
    assert set(spans.layer_metrics([])) | {"trace.overhead_s", "trace.coverage",
                                          "trace.spans"} == per_layer
    assert {w["name"] for w in bench["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"] for m in bench["end_to_end"]} <= set(run.UNITS)
