"""Golden reports: the byte-exact output of fixed CLI commands.

Each entry of ``GOLDENS`` is one ``mfgl`` argv.  It runs through
``cli.main`` from a scratch directory holding the ``SPECS`` files under
``specs/``, with relative paths, so the ``spec_path`` and ``out_path`` a
report embeds do not depend on where the suite runs.  A change that moves
any report byte fails here.  A change that is meant to move report bytes
(a kernel that changes the last ulp, say) regenerates the whole set by
re-running the same argv list, and states the largest deviation in
CHANGES.md:

    PYTHONPATH=src python tests/test_goldens.py

Naming goldens writes only those, so adding one leaves the rest as they are:

    PYTHONPATH=src python tests/test_goldens.py fixed_points_cutoff6.json
"""

import json
import logging
import os
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

from mfgl import cli

from conftest import run_cli_process

GOLDEN_DIR = Path(__file__).parent / "goldens"

SPECS = {
    "curie_weiss.json": {"type": "curie_weiss", "beta": 2.0, "n": 6},
    "ising.json": {"type": "ising",
                   "coupling": [[0.0, 0.3, 0.0, -0.2], [0.3, 0.0, 0.5, 0.0],
                                [0.0, 0.5, 0.0, 0.1], [-0.2, 0.0, 0.1, 0.0]],
                   "field": [0.1, 0.0, -0.2, 0.05]},
    "triangle_count.json": {"type": "triangle_count", "beta": 1.0, "num_vertices": 4},
    "linear.json": {"type": "linear", "theta": [0.3, -0.2, 0.5]},
    "sparse_fourier.json": {"type": "sparse_fourier", "n": 5,
                            "terms": [{"subset": [0, 2], "coeff": 0.8},
                                      {"subset": [1], "coeff": -0.3},
                                      {"subset": [1, 3, 4], "coeff": 0.6},
                                      {"subset": [2, 4], "coeff": -0.4}]},
    "smoothed_cutoff.json": {"type": "smoothed_cutoff",
                             "inner": {"type": "curie_weiss", "beta": 1.5, "n": 4},
                             "t": 0.4, "delta": 0.05},
    "ld.json": {"type": "curie_weiss", "beta": 1.5, "n": 6},
    "cutoff6.json": {"type": "smoothed_cutoff",
                     "inner": {"type": "curie_weiss", "beta": 1.5, "n": 6},
                     "t": 0.4, "delta": 0.05},
    "cw8.json": {"type": "curie_weiss", "beta": 2.0, "n": 8},
}

# Golden file name -> argv (its ``--out`` is the file name).  ``report``
# re-serializes the golden named by its ``--spec``.
GOLDENS = {
    "analyze_curie_weiss.json": ["analyze", "--spec", "specs/curie_weiss.json",
                                 "--seed", "113", "--samples", "5000"],
    "analyze_ising.json": ["analyze", "--spec", "specs/ising.json",
                           "--seed", "2", "--samples", "5000"],
    "analyze_triangle_count.json": ["analyze", "--spec", "specs/triangle_count.json",
                                    "--seed", "5", "--samples", "5000"],
    "fixed_points_linear.json": ["fixed-points", "--spec", "specs/linear.json", "--seed", "1"],
    "fixed_points_sparse_fourier.json": ["fixed-points", "--spec", "specs/sparse_fourier.json",
                                         "--seed", "3"],
    "fixed_points_smoothed_cutoff.json": ["fixed-points", "--spec", "specs/smoothed_cutoff.json",
                                          "--seed", "4"],
    "ld_scan.json": ["ld-scan", "--spec", "specs/ld.json", "--t", "0.5", "--delta", "0.05",
                     "--lambda-grid", "0.44:0.5:2", "--seed", "2"],
    # 8 of the 17 starts cycle with exact periods 8, 32 and 128.
    "fixed_points_cutoff6.json": ["fixed-points", "--spec", "specs/cutoff6.json",
                                  "--seed", "501"],
    # At lambda = -5 and -2.32 the starts sit in period-2 cycles; two
    # solutions are kept at lambda = 0.5.
    "ld_scan_cycles.json": ["ld-scan", "--spec", "specs/ld.json", "--t", "0.675",
                            "--delta", "0.05", "--lambda-grid", "0.5:5:4", "--seed", "2"],
    "audit_all.json": ["audit", "--suite", "all", "--seed", "0"],
    "audit_all.csv": ["report", "--spec", "audit_all.json", "--format", "csv"],
    # The --spec branches of the proximity, main and ld suites.
    "audit_spec.json": ["audit", "--suite", "all", "--spec", "specs/cw8.json",
                        "--t", "0.675", "--delta", "0.05", "--seed", "0"],
}


# The provenance of every number a report holds, by key path ("*" is any list
# item; an entry for a block covers every number in it):
#   exact        computed without rounding
#   rounded      a float computation of an exact quantity
#   monte_carlo  a Monte-Carlo estimate, with the key beside it that holds its
#                standard error
#   certified    a proven bound
#   config       a value the run was given, or one its suite fixes
#   count        an integer count or index
# A standard error is the exact statistic of its draws, so it is ``rounded``.
# The structural threshold is a power of the Monte-Carlo D, whose standard error
# it names; so do the main suite's rows, whose bounds are evaluated at that D.
REPORT_KEY_KINDS = {
    "config": "config",
    "params.d": ("monte_carlo", "d_stderr"),
    "params.d_stderr": "rounded",
    "params.d_lower": "certified",
    "params.d_upper": "certified",
    "params.d_levels.pilot_draws": "count",
    "params.d_levels.winners": "count",
    "params.d_levels.level0_draws": "count",
    "params.d_levels.level0_stderr": "rounded",
    "params.d_levels.level1_draws": "count",
    "params.d_levels.level1_stderr": "rounded",
    "params.d_levels.level1_nonzero": "count",
    "params.l1": "rounded",
    "params.l2": "rounded",
    "params.structural_threshold": ("monte_carlo", "d_stderr"),
    "scalar_roots.*": "rounded",
    "solutions.*.lambda": "config",
    "solutions.*.point.*": "rounded",
    "solutions.*.residual_l1": "rounded",
    "solutions.*.iterations": "count",
    "solutions.*.period": "count",
    "cutoff.t": "config",
    "cutoff.delta": "config",
    "cutoff.delta_prime": "rounded",
    "cutoff.two_delta_upper_bound": "exact",
    "cutoff.window.*": "rounded",
    "cutoff.zero_band_states": "count",
    "cutoff.mid_band_states": "count",
    "cutoff.top_band_states": "count",
    "audits.*.measured": "rounded",
    "audits.*.bound": "certified",
    "audits.*.ratio": "rounded",
    "audits.*.instance.d": ("monte_carlo", "d_stderr"),
    "audits.*.instance.d_stderr": "rounded",
    "audits.*.instance.l1": "rounded",
    "audits.*.instance.l2": "rounded",
    "audits.*.instance.eps": "config",
    "audits.*.instance.t": "config",
    "audits.*.instance.delta": "config",
    "audits.*.instance.seed": "config",
    "audits.*.instance.trials": "config",
    "audits.*.instance.n": "config",
    "audits.*.instance.l_range.*": "config",
    "audits.*.instance.n_list.*": "config",
    "audits.*.instance.delta_prime": "rounded",
    "audits.*.instance.witness_gap": "rounded",
    "audits.*.instance.slope": "rounded",
    "audits.*.instance.theta_norm": "rounded",
    "audits.*.instance.trace": "rounded",
    "audits.*.instance.mass_error_bound": "certified",
    "audits.*.instance.mean_index": "count",
    "audits.*.instance.tilt_index": "count",
    "audits.*.instance.suite_instance": "count",
    "audits.*.instance.points": "count",
    "audits.*.instance.tail_size": "count",
    "summary.rows": "count",
    "summary.bound_rows": "count",
    "summary.failures": "count",
    "summary.errors": "count",
}
KINDS = ("exact", "rounded", "certified", "config", "count")  # and ("monte_carlo", se_key)


def is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def numeric_leaves(node, path=(), parent=None):
    """(key path, dict holding the number) for each number in a parsed report."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from numeric_leaves(value, path + (key,), node)
    elif isinstance(node, list):
        for value in node:
            yield from numeric_leaves(value, path + ("*",), parent)
    elif is_number(node):
        yield path, parent


def run_golden(name: str, cwd: Path, argv: list[str] | None = None) -> bytes:
    """Run the argv of golden ``name`` (or ``argv``) from ``cwd``, writing ``name``,
    and return its report bytes."""
    argv = GOLDENS[name] if argv is None else argv
    (cwd / "specs").mkdir(exist_ok=True)
    for file, spec in SPECS.items():
        (cwd / "specs" / file).write_text(json.dumps(spec))
    if argv[0] == "report":
        shutil.copyfile(GOLDEN_DIR / argv[2], cwd / argv[2])
    here = os.getcwd()
    os.chdir(cwd)
    try:
        assert cli.main(argv + ["--out", name]) == 0
    finally:
        os.chdir(here)
    return (cwd / name).read_bytes()


@pytest.mark.parametrize("name", list(GOLDENS))
def test_report_matches_golden(name, tmp_path):
    assert run_golden(name, tmp_path) == (GOLDEN_DIR / name).read_bytes()


@pytest.mark.parametrize("name", [n for n in GOLDENS if n.endswith(".json")])
def test_report_command_reproduces_golden_without_numpy(name):
    # ``report`` re-serializes a parsed report with the standard library alone.
    code, out, _ = run_cli_process("report", "--spec", str(GOLDEN_DIR / name),
                                   "--format", "json", block=("numpy",))
    assert code == 0
    assert out == (GOLDEN_DIR / name).read_bytes()


@pytest.mark.parametrize("spec, seed", [("curie_weiss.json", "113"), ("sparse_fourier.json", "3")])
def test_analyze_and_fixed_points_write_the_same_solutions(spec, seed, tmp_path):
    # one multi-start call serves both commands: at the same seed, tol and
    # damping their solutions blocks agree byte for byte
    blocks = []
    for command, extra in (("analyze", ["--samples", "5000"]), ("fixed-points", [])):
        report = run_golden(f"{command}.json", tmp_path,
                            [command, "--spec", f"specs/{spec}", "--seed", seed, *extra])
        start = report.index(b'\n  "solutions": ')
        blocks.append(report[start:report.index(b'\n  "', start + 1)])
    assert b'"converged": true' in blocks[0]
    assert blocks[0] == blocks[1]


def test_fixed_points_timings_time_the_battery(tmp_path):
    # --timings records the battery's stage; without it the bytes are the golden's
    name = "fixed_points_cutoff6.json"
    timings = json.loads(run_golden(name, tmp_path, [*GOLDENS[name], "--timings"]))["timings"]
    assert list(timings) == ["fixed_points"] and timings["fixed_points"] > 0
    assert run_golden(name, tmp_path) == (GOLDEN_DIR / name).read_bytes()


def test_every_reported_number_has_a_provenance():
    # exact, certified or with its standard error beside it, in every golden report
    for kind in REPORT_KEY_KINDS.values():
        assert kind in KINDS or (kind[0] == "monte_carlo" and len(kind) == 2), kind
    unnamed, missing_se, used = set(), set(), set()
    for name in (n for n in GOLDENS if n.endswith(".json")):
        report = json.loads((GOLDEN_DIR / name).read_bytes())
        for path, holder in numeric_leaves(report):
            entry = next((p for p in (".".join(path[:k]) for k in range(len(path), 0, -1))
                          if p in REPORT_KEY_KINDS), None)
            if entry is None:
                unnamed.add(f"{name}: {'.'.join(path)}")
                continue
            used.add(entry)
            kind = REPORT_KEY_KINDS[entry]
            if isinstance(kind, tuple) and not is_number(holder.get(kind[1])):
                missing_se.add(f"{name}: {'.'.join(path)} without {kind[1]}")
    assert not unnamed, f"numbers of no known provenance: {sorted(unnamed)}"
    assert not missing_se, f"Monte-Carlo numbers without a standard error: {sorted(missing_se)}"
    assert used == set(REPORT_KEY_KINDS), f"no golden holds {sorted(set(REPORT_KEY_KINDS) - used)}"


def test_reports_unchanged_with_debug_logging(tmp_path, caplog):
    caplog.set_level(logging.DEBUG, logger="mfgl")
    for name, line in (("ld_scan_cycles.json", "frozen in exact cycles"),
                       ("audit_all.json", "augmenting paths")):
        assert run_golden(name, tmp_path) == (GOLDEN_DIR / name).read_bytes()
        assert any(line in r.getMessage() for r in caplog.records)


if __name__ == "__main__":
    names = sys.argv[1:] or list(GOLDENS)
    unknown = sorted(set(names) - set(GOLDENS))
    if unknown:
        sys.exit(f"unknown golden(s): {', '.join(unknown)}")
    GOLDEN_DIR.mkdir(exist_ok=True)
    for golden in names:
        with tempfile.TemporaryDirectory() as scratch:
            (GOLDEN_DIR / golden).write_bytes(run_golden(golden, Path(scratch)))
        print(golden, file=sys.stderr)
