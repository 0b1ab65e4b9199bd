"""CLI: config resolution, spec wire format, serialization, commands, exit codes."""

import importlib
import json
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import mfgl
from mfgl import cli, complexity, meanfield, verify
from mfgl.boolfn import eval_extension
from mfgl.hamiltonians import (
    SPEC_TYPES,
    CurieWeissSpec,
    InvalidSpec,
    IsingSpec,
    LinearSpec,
    SmoothedCutoffSpec,
    SparseFourierSpec,
    TriangleCountSpec,
    build_hamiltonian,
    spec_from_dict,
)
from mfgl.verify import make_row

from conftest import run_cli_process, src_env

GOLDEN_DIR = Path(__file__).parent / "goldens"


# ---------------------------------------------------------------------------
# Config and environment
# ---------------------------------------------------------------------------


def test_config_defaults_and_flags():
    cfg = cli.build_config(["analyze", "--spec", "x.json", "--seed", "5"], env={})
    assert cfg.command == "analyze" and cfg.seed == 5
    assert cfg.samples == 100_000 and cfg.fmt == "json"


def test_env_overrides_and_flag_precedence():
    env = {"MFGL_SEED": "9", "MFGL_SAMPLES": "321", "MFGL_FORMAT": "csv"}
    cfg = cli.build_config(["audit", "--seed", "4"], env=env)
    assert cfg.seed == 4            # flag wins
    assert cfg.samples == 321       # env fills the gap
    assert cfg.fmt == "csv"


def test_config_validation_errors():
    with pytest.raises(cli.InputError):
        cli.build_config(["analyze", "--tol", "-1"], env={})
    with pytest.raises(cli.InputError):
        cli.build_config(["audit"], env={"MFGL_SEED": "not-a-number"})


# Per flag: a value other than its default, and a second value.
OPTION_VALUES = {
    "--spec": ("a.json", "b.json"), "--out": ("a.out", "b.out"), "--format": ("csv", "json"),
    "--seed": ("7", "8"), "--samples": ("321", "123"), "--tol": ("1e-6", "1e-7"),
    "--damping": ("0.25", "0.75"), "--epsilon": ("0.3", "0.1"), "--t": ("0.25", "0.5"),
    "--delta": ("0.1", "0.05"), "--max-n": ("12", "13"), "--transport-max-states": ("64", "128"),
    "--suite": ("ld", "main"), "--lambda-grid": ("0.5:2:3", "1:2:3"), "--timings": (),
}
# --t and --delta go together, and audit's ld suite takes them with a --spec
PARTNERS = {"--t": ["--delta", "0.05", "--spec", "s.json"],
            "--delta": ["--t", "0.5", "--spec", "s.json"]}
OPTIONS = fields(cli.RunConfig)[1:]


@pytest.mark.parametrize("command, option", [(c, f) for c in cli._COMMANDS for f in OPTIONS],
                         ids=lambda x: getattr(x, "name", x))
def test_each_option_reaches_exactly_the_commands_that_read_it(capsys, command, option):
    flag, name, default = option.metadata["flag"], option.name, option.default
    var = "MFGL_" + flag[2:].upper().replace("-", "_")
    values = OPTION_VALUES[flag]
    if command not in option.metadata["commands"]:
        # the variable is ignored, and the flag is a usage error
        assert getattr(cli.build_config([command], env={var: "1"}), name) == default
        assert cli.main([command, flag, *values[:1]]) == 1
        assert "unrecognized arguments" in capsys.readouterr().err
        return
    argv = [command, *PARTNERS.get(flag, [])]
    if not values:  # a switch, set by its flag alone
        assert getattr(cli.build_config([*argv, flag], env={}), name) is True
        assert getattr(cli.build_config(argv, env={var: "1"}), name) == default
        return
    value, other = values
    by_flag = getattr(cli.build_config([*argv, flag, value], env={}), name)
    assert by_flag != default
    assert getattr(cli.build_config(argv, env={var: value}), name) == by_flag
    assert getattr(cli.build_config([*argv, flag, value], env={var: other}), name) == by_flag


def test_lambda_grid_parsing():
    cfg = cli.build_config(["ld-scan", "--lambda-grid", "0.5:2:3"], env={})
    grid = cfg.parsed_lambda_grid()
    assert grid.size == 7 and 0.0 in grid
    cfg.lambda_grid = "oops"
    with pytest.raises(cli.InputError):
        cfg.parsed_lambda_grid()


# ---------------------------------------------------------------------------
# Spec wire format
# ---------------------------------------------------------------------------


# One example per registered type: a type added to the registry without an
# example here fails the round trip.
SPEC_EXAMPLES = {
    "linear": LinearSpec((0.1, -0.2)),
    "ising": IsingSpec(((0.0, 0.5), (0.5, 0.0)), (0.1, -0.1)),
    "curie_weiss": CurieWeissSpec(1.5, 6),
    "triangle_count": TriangleCountSpec(0.8, 5),
    "sparse_fourier": SparseFourierSpec(4, (((0, 2), 1.5), ((1,), -0.5))),
    "smoothed_cutoff": SmoothedCutoffSpec(CurieWeissSpec(1.2, 5), 0.4, 0.05),
}

MALFORMED_SPECS = [
    {"no_type": 1},
    {"type": "weird"},
    {"type": ["linear"]},
    {"type": "linear"},
    {"type": "ising", "coupling": [[0, 1], [2, 0]], "field": [0, 0]},
    {"type": "ising", "coupling": [[0, 1], [1]], "field": [0, 0]},
    {"type": "curie_weiss", "beta": 1.5, "n": 6.9},
    {"type": "curie_weiss", "beta": 1.5, "n": None},
    {"type": "triangle_count", "beta": 1.0, "num_vertices": 4.5},
    {"type": "sparse_fourier", "n": 3, "terms": [{"subset": [0, 1.7], "coeff": 1.0}]},
    {"type": "sparse_fourier", "n": 3, "terms": [[0, 1]]},
    {"type": "smoothed_cutoff", "inner": {"type": "curie_weiss", "beta": 1.5, "n": 4.5},
     "t": 0.4, "delta": 0.05},
    {"type": "curie_weiss", "beta": float("nan"), "n": 6},
    {"type": "curie_weiss", "beta": float("inf"), "n": 6},
    {"type": "triangle_count", "beta": float("inf"), "num_vertices": 4},
    {"type": "sparse_fourier", "n": 3, "terms": [{"subset": [0], "coeff": float("nan")}]},
    {"type": "linear", "theta": []},
    {"type": "sparse_fourier", "n": 0, "terms": []},
    {"type": "sparse_fourier", "n": -3, "terms": []},
]


def test_spec_round_trip_all_types():
    for kind, cls in SPEC_TYPES.items():
        spec = SPEC_EXAMPLES[kind]
        assert type(spec) is cls and spec.to_dict()["type"] == kind
        assert spec_from_dict(spec.to_dict()) == spec


def test_spec_from_dict_rejects_malformed(tmp_path, capsys):
    for k, data in enumerate(MALFORMED_SPECS):
        with pytest.raises(InvalidSpec):
            spec_from_dict(data)
        spec = _write_spec(tmp_path, data, f"bad{k}.json")
        assert cli.main(["fixed-points", "--spec", spec]) == 1, data
        assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("data", [
    {"type": "curie_weiss", "beta": 1.0, "n": 70},
    {"type": "sparse_fourier", "n": 70, "terms": [{"subset": [65], "coeff": 1.0}]},
    {"type": "triangle_count", "beta": 1.0, "num_vertices": 12},
])
def test_a_dimension_above_the_masks_is_one_error_line(tmp_path, capsys, data):
    spec = _write_spec(tmp_path, data)
    assert cli.main(["fixed-points", "--spec", spec]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "exceeds 63" in err


@pytest.mark.parametrize("data, message", [
    ({"type": "sparse_fourier", "n": 4, "terms": [{"subset": "01", "coeff": 1}]},
     "subset must be a list of indices, got '01'"),
    ({"type": "sparse_fourier", "n": 4, "terms": [{"subset": [0, "1"], "coeff": 1}]},
     "expected a number, got '1'"),
    ({"type": "sparse_fourier", "n": 4, "terms": [{"subset": [0], "coeff": "1"}]},
     "expected a number, got '1'"),
    ({"type": "curie_weiss", "beta": 1.5, "n": "6"}, "expected a number, got '6'"),
    ({"type": "curie_weiss", "beta": True, "n": 6}, "expected a number, got True"),
    ({"type": "curie_weiss", "beta": 10**400, "n": 6}, "expected a number in the float range"),
    ({"type": "triangle_count", "beta": 1.0, "num_vertices": False},
     "expected a number, got False"),
    ({"type": "linear", "theta": [0.5, True]}, "expected a number, got True"),
    ({"type": "ising", "coupling": [[0, "1"], ["1", 0]], "field": [0, 0]},
     "expected a number, got '1'"),
    ({"type": "ising", "coupling": [[0, 1], [1, 0]], "field": ["0", 0]},
     "expected a number, got '0'"),
    ({"type": "ising", "coupling": [[0, float("nan")], [1, 0]], "field": [0, 0]},
     "non-finite entries"),
    ({"type": "smoothed_cutoff", "inner": {"type": "curie_weiss", "beta": 1.5, "n": 4},
      "t": "0.5", "delta": 0.05}, "expected a number, got '0.5'"),
])
def test_a_spec_value_of_the_wrong_json_type_is_one_error_line(tmp_path, capsys, data, message):
    spec = _write_spec(tmp_path, data)
    out = tmp_path / "fp.json"
    assert cli.main(["fixed-points", "--spec", spec, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith(f"{message}\n")
    assert not out.exists()


def test_spec_schema_docs_match_registry():
    # the README's spec block parses and the --help text lists the same types
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split('dispatched on `"type"`:\n\n```json\n', 1)[1].split("```", 1)[0].strip()
    kinds = []
    while block:
        data, end = json.JSONDecoder().raw_decode(block)
        kinds.append(spec_from_dict(data).type)
        block = block[end:].strip()
    assert kinds == list(SPEC_TYPES)
    assert re.findall(r'^ +\{"type": "(\w+)"', cli.__doc__, re.M) == list(SPEC_TYPES)


def test_suite_docs_match_the_suite_table():
    # the README's usage paragraph and the --help text list the suites --suite takes
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    listed = re.search(r"`audit` \(suites: (.*?)\)", readme, re.S).group(1)
    assert tuple(re.findall(r"`(\w+)`", listed)) == cli.SUITES
    line = re.search(r"^audit +named audit suites \((.*)\)$", cli.__doc__, re.M).group(1)
    assert tuple(line.split(", ")) == cli.SUITES


def test_flag_docs_match_the_option_table(capsys):
    # the README's per-command list, the module docstring's and each --help
    # list the flags that the command reads, in the table's order
    table = {c: [f.metadata["flag"] for f in cli._options(c)] for c in cli._COMMANDS}
    assert sum(map(len, table.values())) == 42
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    listed = readme.split("Flags: ", 1)[1].split("\n\n", 2)[1]
    assert {c: re.findall(r"`(--[a-z-]+)`", flags)
            for c, flags in re.findall(r"^- `([a-z-]+)`: (.*?)(?=^- |\Z)", listed,
                                       re.M | re.S)} == table
    doc = cli.__doc__.split("and no other:\n", 1)[1].split("\nEvery flag", 1)[0]
    documented: dict = {}
    for word in doc.split():
        if word.startswith("--"):
            documented[command].append(word)
        else:
            command = word
            documented[command] = []
    assert documented == table
    for command, flags in table.items():
        assert cli.main([command, "--help"]) == 0
        usage = capsys.readouterr().out.split("\n\n", 1)[0]
        assert re.findall(r"\[(--[a-z-]+)", usage) == flags


def test_cli_import_leaves_scipy_out():
    # The front and the package import no numpy (nor scipy, nor any layer).
    golden = str(GOLDEN_DIR / "audit_all.json")
    cases = [(("--import", "mfgl"), 0, b""),
             (("--import", "mfgl.cli"), 0, b""),
             (("report", "--spec", golden, "--format", "csv"),
              0, (GOLDEN_DIR / "audit_all.csv").read_bytes()),
             (("report", "--spec", golden, "--format", "json"),
              0, (GOLDEN_DIR / "audit_all.json").read_bytes()),
             (("--version",), 0, f"mfgl {cli.__version__}\n".encode()),
             (("--help",), 0, None),  # its line breaks follow the terminal width
             (("report", "--format", "xml"), 1, b"")]
    for args, code, stdout in cases:
        got, out, loaded = run_cli_process(*args)
        assert (got, loaded <= {"mfgl", "mfgl.cli"}) == (code, True), (args, loaded)
        assert out == stdout or (stdout is None and out.startswith(b"usage: mfgl")), args


def test_package_exports_resolve_to_their_defining_modules():
    import mfgl

    star: dict = {}
    exec("from mfgl import *", star)
    names = [n for n in mfgl.__all__ if n != "__version__"]
    assert len(set(names)) == len(names) and star["__version__"] == mfgl.__version__
    for name in names:
        obj = getattr(mfgl, name)
        assert obj.__module__.startswith("mfgl."), name
        assert getattr(importlib.import_module(obj.__module__), name) is obj, name
        assert star[name] is obj, name
    assert not hasattr(mfgl, "no_such_name")


@pytest.mark.parametrize("argv, layers", [
    (["fixed-points", "--spec", "specs/cw.json"], {"boolfn", "hamiltonians", "meanfield"}),
    (["analyze", "--spec", "specs/cw.json", "--samples", "500"],
     {"boolfn", "hamiltonians", "meanfield", "complexity"}),
    (["ld-scan", "--spec", "specs/cw.json", "--t", "0.5", "--delta", "0.05",
      "--lambda-grid", "0.5:1:2"],
     {"boolfn", "hamiltonians", "meanfield", "verify", "gibbs", "transport"}),
    (["audit", "--suite", "proximity", "--spec", "specs/cw.json"],
     {"boolfn", "hamiltonians", "verify", "gibbs", "transport"}),
])
def test_each_command_loads_only_its_layers(tmp_path, argv, layers):
    (tmp_path / "specs").mkdir()
    _write_spec(tmp_path / "specs", {"type": "curie_weiss", "beta": 2.0, "n": 6}, "cw.json")
    code, _, loaded = run_cli_process(*argv, "--out", "r.json", cwd=tmp_path)
    assert code == 0
    assert {m.split(".")[1] for m in loaded if m.startswith("mfgl.")} == layers


@pytest.mark.parametrize("argv", [
    ["analyze", "--spec", "specs/cw.json", "--samples", "500"],
    ["fixed-points", "--spec", "specs/cw.json"],
    ["ld-scan", "--spec", "specs/cw.json", "--t", "0.5", "--delta", "0.05",
     "--lambda-grid", "0.5:1:2"],
    ["audit", "--suite", "all"],
], ids=lambda argv: argv[0])
def test_commands_run_without_scipy(tmp_path, argv):
    # scipy is a test dependency only: no command imports it; nor does any
    # command load numpy.ma, which costs each process 9-21 ms to import
    (tmp_path / "specs").mkdir()
    _write_spec(tmp_path / "specs", {"type": "curie_weiss", "beta": 2.0, "n": 6}, "cw.json")
    code, _, loaded = run_cli_process(*argv, "--out", "r.json", cwd=tmp_path, block=("scipy",))
    assert code == 0
    assert not {m for m in loaded if m.split(".")[0] == "scipy"}
    assert "numpy.ma" not in loaded


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def test_serialize_empty_report_valid():
    report = {"config": {}, "params": None, "solutions": [], "audits": [], "timings": {}}
    data = cli.serialize_report(report, "json")
    assert cli.parse_report(data) == report
    csv_data = cli.serialize_report(report, "csv").decode()
    assert csv_data.splitlines()[0].startswith("check_id")
    assert len(csv_data.splitlines()) == 1


def test_json_round_trip_with_floats_and_none():
    rows = [make_row("a", {"x": 1}, 1.0 / 3.0, 2.0),
            make_row("b", {}, 1.0, 0.0)]  # flagged ratio -> null
    report = {"config": {"seed": 0}, "params": None,
              "solutions": [], "audits": [r.as_dict() for r in rows], "timings": {}}
    data = cli.serialize_report(report, "json")
    assert cli.parse_report(data) == report
    assert b"0.33333333333333331" in data  # 17 significant digits


def test_csv_row_count_matches_json():
    rows = [make_row(f"r{k}", {"k": k}, float(k), 10.0) for k in range(7)]
    report = {"config": {}, "params": None, "solutions": [],
              "audits": [r.as_dict() for r in rows], "timings": {}}
    json_rows = cli.parse_report(cli.serialize_report(report, "json"))["audits"]
    csv_lines = cli.serialize_report(report, "csv").decode().splitlines()
    assert len(csv_lines) - 1 == len(json_rows) == 7


def test_audit_row_keys_are_the_csv_columns():
    # verify's row schema and the numpy-free cli's columns agree; the CSV puts the
    # nested instance last and keeps every other key in the row's order
    keys = list(make_row("r", {}, 1.0, 2.0).as_dict())
    assert [k for k in keys if k != "instance"] + ["instance"] == list(cli.CSV_COLUMNS)


def test_emit_json_takes_numpy_numbers_and_arrays():
    plain = {"i": 3, "x": 0.5, "nan": None, "v": [1.0, None], "m": [[0, 1]], "e": []}
    arrays = {"i": np.int64(3), "x": np.float32(0.5), "nan": np.float64("nan"),
              "v": np.array([1.0, np.inf]), "m": np.arange(2).reshape(1, 2), "e": np.zeros(0)}
    assert cli.serialize_report(arrays, "json") == cli.serialize_report(plain, "json")
    for unknown in (object(), 1j, np.bool_(True), np.complex128(1.0), {1, 2}):
        with pytest.raises(TypeError, match="cannot serialize"):
            cli.serialize_report({"x": unknown}, "json")


def test_atomic_write(tmp_path):
    target = tmp_path / "sub" / "out.json"
    cli.write_atomic(str(target), b"{}\n")
    assert target.read_bytes() == b"{}\n"
    leftovers = [p for p in target.parent.iterdir() if p.suffix == ".tmp"]
    assert not leftovers


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _write_spec(tmp_path, payload, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_analyze_curie_weiss(tmp_path):
    spec = _write_spec(tmp_path, {"type": "curie_weiss", "beta": 2.0, "n": 6})
    out = tmp_path / "report.json"
    code = cli.main(["analyze", "--spec", spec, "--out", str(out),
                     "--seed", "3", "--samples", "2000"])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["params"]["l1"] >= 1.0
    # the positive scalar root is the spec's own constant fixed point
    root = report["scalar_roots"][2]
    constant = [s["point"][0] for s in report["solutions"]
                if s["converged"] and np.ptp(s["point"]) == 0 and s["point"][0] > 0]
    assert constant and abs(constant[0] - root) <= 1e-8
    assert not any("structural_set" in s for s in report["solutions"])
    p = report["params"]
    assert p["structural_threshold"] == 5000.0 * p["l1"] * p["l2"]**0.75 * p["d"]**0.25 * 6**0.75
    assert report["config"]["hamiltonian"]["type"] == "curie_weiss"


def test_analyze_reports_width_levels(tmp_path):
    # x0 x1 x2 / 2 has four gradients, each at two vertices: the winners are
    # their first vertices and the origin, and the level-1 correction is exactly zero
    spec = _write_spec(tmp_path, {"type": "sparse_fourier", "n": 3,
                                  "terms": [{"subset": [0, 1, 2], "coeff": 0.5}]})
    out = tmp_path / "report.json"
    assert cli.main(["analyze", "--spec", spec, "--out", str(out), "--samples", "10000"]) == 0
    params = json.loads(out.read_text())["params"]
    assert list(params)[:3] == ["d", "d_stderr", "d_levels"]
    assert params["d_levels"] == {
        "pilot_draws": 1024, "winners": 5, "level0_draws": 10000,
        "level0_stderr": params["d_stderr"], "level1_draws": 512, "level1_stderr": 0.0,
        "level1_nonzero": 0}
    rows = 0.5 * np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]])
    plain = complexity.width_samples(complexity.GradientCloud(rows), 10_000, seed=1)
    plain_se = plain.std(ddof=1) / np.sqrt(plain.size)
    assert params["d"] == pytest.approx(plain.mean(), abs=4 * np.hypot(params["d_stderr"], plain_se))


def test_analyze_takes_the_plain_width_on_a_linear_spec(tmp_path):
    # degree <= 2: no pilot and no level 1, whatever the draws; A = K, all 8 rows
    spec = _write_spec(tmp_path, {"type": "linear", "theta": [0.5, 0.25, -0.75]})
    out = tmp_path / "report.json"
    assert cli.main(["analyze", "--spec", spec, "--out", str(out), "--samples", "10000"]) == 0
    params = json.loads(out.read_text())["params"]
    assert params["d_levels"] == {
        "pilot_draws": 0, "winners": 9, "level0_draws": 10000,
        "level0_stderr": params["d_stderr"], "level1_draws": 0, "level1_stderr": 0.0,
        "level1_nonzero": 0}
    assert params["d"] == pytest.approx(np.linalg.norm([0.5, 0.25, -0.75]) / np.sqrt(2 * np.pi),
                                        abs=4 * params["d_stderr"])


def _random_ising(rng, n):
    upper = np.triu(rng.normal(0.0, 1.0 / np.sqrt(n), (n, n)), 1)
    return {"type": "ising", "coupling": (upper + upper.T).tolist(),
            "field": rng.normal(0.0, 0.1, n).tolist()}


@pytest.mark.parametrize("spec", [
    *(_random_ising(np.random.default_rng(seed), n) for seed, n in ((0, 3), (1, 12), (2, 40))),
    {"type": "curie_weiss", "beta": 1.5, "n": 18}, {"type": "curie_weiss", "beta": 0.75, "n": 63}])
def test_analyze_closed_form_lipschitz_bounds_hold_exactly(tmp_path, spec):
    # L2 = max_i sum_j |A_ij| is exact, so the closed form is the reported value bit
    # for bit; the closed-form L1 adds max |mu| to it and can only be larger
    out = tmp_path / "report.json"
    assert cli.main(["analyze", "--spec", _write_spec(tmp_path, spec), "--out", str(out),
                     "--samples", "200"]) == 0
    report = json.loads(out.read_text())
    params, bounds = report["params"], report["closed_form_bounds"]
    assert params["l2"] == bounds["l2"]
    assert params["l1"] <= bounds["l1"]
    assert params["d_levels"]["pilot_draws"] == 0


def test_analyze_ising_reports_closed_form_bounds(tmp_path):
    a = [[0.0, 0.3, 0.0], [0.3, 0.0, -0.2], [0.0, -0.2, 0.0]]
    spec = _write_spec(tmp_path, {"type": "ising", "coupling": a, "field": [0.1, 0.0, -0.1]})
    out = tmp_path / "ising.json"
    code = cli.main(["analyze", "--spec", spec, "--out", str(out),
                     "--seed", "2", "--samples", "5000"])
    assert code == 0
    report = json.loads(out.read_text())
    bounds = report["closed_form_bounds"]
    # the Monte-Carlo width sits below the closed form (allowing 3 sigma)
    assert report["params"]["d"] <= bounds["d"] + 3 * report["params"]["d_stderr"]
    assert report["params"]["l1"] <= bounds["l1"] + 1e-12
    assert report["params"]["l2"] <= bounds["l2"] + 1e-12


@pytest.mark.parametrize("payload", [
    {"type": "linear", "theta": [0.3, -0.2, 0.5]},
    {"type": "sparse_fourier", "n": 3,
     "terms": [{"subset": [0, 1], "coeff": 0.4}, {"subset": [2], "coeff": -0.1}]},
], ids=["linear", "sparse_fourier"])
def test_analyze_reports_closed_form_bounds_for_every_pairwise_expansion(tmp_path, payload):
    spec = _write_spec(tmp_path, payload)
    out = tmp_path / "report.json"
    assert cli.main(["analyze", "--spec", spec, "--out", str(out), "--samples", "2000"]) == 0
    bounds = json.loads(out.read_text())["closed_form_bounds"]
    if payload["type"] == "linear":
        # A = 0, so D <= sqrt(n) max |mu|, and L1, L2 sit at their unit floors
        assert bounds["d"] == np.sqrt(3) * 0.5
        assert (bounds["l1"], bounds["l2"]) == (1.0, 1.0)


def test_fixed_points_command(tmp_path):
    spec = _write_spec(tmp_path, {"type": "curie_weiss", "beta": 0.5, "n": 5})
    out = tmp_path / "fp.json"
    assert cli.main(["fixed-points", "--spec", spec, "--out", str(out), "--seed", "1"]) == 0
    report = json.loads(out.read_text())
    best = report["solutions"][0]
    assert best["converged"] and abs(sum(best["point"])) < 1e-6


def test_ld_scan_with_witness(tmp_path):
    spec = _write_spec(tmp_path, {"type": "curie_weiss", "beta": 1.5, "n": 8})
    out = tmp_path / "ld.json"
    code = cli.main(["ld-scan", "--spec", spec, "--out", str(out), "--t", "1.05",
                     "--delta", "0.05", "--lambda-grid", "0.2:2:6", "--seed", "2"])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["cutoff"]["delta_prime"] == pytest.approx((np.log(4) + 1) / 2 * 0.05)
    assert report["cutoff"]["delta_prime_within_two_delta"] is True
    ids = [r["check_id"] for r in report["audits"]]
    assert "cutoff_tail_mass" in ids and "cutoff_total_variation" in ids
    # the scan keeps exactly the solutions whose f lies in the window it reports
    f = build_hamiltonian(CurieWeissSpec(1.5, 8))
    lo, hi = report["cutoff"]["window"]
    assert report["solutions"]
    for sol in report["solutions"]:
        assert lo <= eval_extension(f, np.array(sol["point"])) <= hi


def test_ld_scan_witness_missing_exits_one(tmp_path, capsys):
    spec = _write_spec(tmp_path, {"type": "linear", "theta": [0.1, 0.2, -0.3]})
    out = tmp_path / "ld.json"
    code = cli.main(["ld-scan", "--spec", spec, "--out", str(out), "--t", "5.0",
                     "--delta", "0.05"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: audit row witness_missing ")
    report = json.loads(out.read_text())
    assert report["audits"][0]["check_id"] == "witness_missing"


def test_audit_writes_the_witness_missing_error_row(tmp_path):
    # no vertex of curie_weiss(1.5, 8) reaches f >= t n = 12 (max f = 10.5)
    spec = _write_spec(tmp_path, {"type": "curie_weiss", "beta": 1.5, "n": 8}, "cw8.json")
    out = tmp_path / "audit.json"
    assert cli.main(["audit", "--suite", "ld", "--spec", spec, "--out", str(out),
                     "--t", "1.5", "--delta", "0.05"]) == 1
    text = out.read_text()
    report = json.loads(text)
    [row] = report["audits"]
    assert list(row) == ["check_id", "instance", "measured", "bound", "ratio", "pass", "kind",
                         "hypothesis_met"]
    assert row["check_id"] == "witness_missing"
    assert list(row["instance"].items()) == [("spec", spec), ("t", 1.5), ("delta", 0.05),
                                             ("witness_gap", -1.5)]
    assert row["measured"] == -1.5 and '"bound": 0,' in text and row["ratio"] is None
    assert row["pass"] is False and row["kind"] == "error" and row["hypothesis_met"] is False
    assert report["summary"]["errors"] == 1


def test_a_missing_witness_is_one_error_line_in_audit_and_ld_scan(tmp_path, capsys):
    spec = _write_spec(tmp_path, {"type": "curie_weiss", "beta": 1.5, "n": 8}, "cw8.json")
    level = ["--spec", spec, "--out", str(tmp_path / "r.json"), "--t", "1.5", "--delta", "0.05"]
    lines = []
    for command in (["audit", "--suite", "ld"], ["ld-scan"]):
        assert cli.main(command + level) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ") and "witness_missing" in err
        lines.append(err)
    assert lines[0] == lines[1]


def test_ld_scan_requires_t_and_delta(tmp_path):
    spec = _write_spec(tmp_path, {"type": "curie_weiss", "beta": 1.5, "n": 6})
    assert cli.main(["ld-scan", "--spec", spec]) == 1


def test_ld_scan_keeps_the_requested_tol(tmp_path):
    spec = _write_spec(tmp_path, {"type": "curie_weiss", "beta": 1.5, "n": 10})
    out = tmp_path / "ld.json"
    assert cli.main(["ld-scan", "--spec", spec, "--out", str(out), "--t", "0.675",
                     "--delta", "0.05", "--tol", "1e-13", "--lambda-grid", "0.44:0.5:2"]) == 0
    report = json.loads(out.read_text())
    assert report["config"]["tol"] == 1e-13
    converged = [s for s in report["solutions"] if s["converged"]]
    assert len(converged) == 2
    assert all(s["residual_l1"] <= report["config"]["tol"] for s in converged)


def _count_transforms(monkeypatch) -> list[int]:
    """Sizes of the Walsh-Hadamard transforms run from now on, in call order."""
    import mfgl.boolfn as boolfn

    sizes = []
    transform = boolfn.walsh_hadamard

    def counted(values):
        sizes.append(np.size(values))
        return transform(values)

    monkeypatch.setattr(boolfn, "walsh_hadamard", counted)
    return sizes


def test_ld_scan_builds_its_cutoff_once(tmp_path, monkeypatch):
    sizes = _count_transforms(monkeypatch)
    spec = _write_spec(tmp_path, {"type": "curie_weiss", "beta": 1.5, "n": 10})
    assert cli.main(["ld-scan", "--spec", spec, "--out", str(tmp_path / "ld.json"),
                     "--t", "0.675", "--delta", "0.05", "--lambda-grid", "0.44:0.5:2"]) == 0
    assert sizes == [1 << 10]


@pytest.mark.parametrize("suite, transforms", [
    ("appendix", 6),    # per instance: f and the inverse inside compose
    ("proximity", 4),   # one per default instance
    ("main", 1),        # complexity_params and the audit share one table
    ("ld", 1),
    ("all", 12),
])
def test_audit_suites_transform_each_expansion_once(tmp_path, monkeypatch, suite, transforms):
    calls = _count_transforms(monkeypatch)
    assert cli.main(["audit", "--suite", suite, "--out", str(tmp_path / "audit.json")]) == 0
    assert len(calls) == transforms


def test_audit_all_tabulates_the_spec_once(tmp_path, monkeypatch):
    spec = _write_spec(tmp_path, {"type": "curie_weiss", "beta": 2.0, "n": 8})
    calls = _count_transforms(monkeypatch)
    assert cli.main(["audit", "--suite", "all", "--spec", spec, "--t", "0.675", "--delta", "0.05",
                     "--out", str(tmp_path / "audit.json")]) == 0
    # the appendix's 6, then one table of the spec for proximity, main and ld together
    assert calls[6:] == [1 << 8]


def _assert_refused(capsys, out):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("argv", [["ld-scan", "--t", "0.5", "--delta", "0.1"], ["analyze"],
                                  ["audit", "--suite", "proximity"]])
def test_an_overflowing_vertex_table_is_one_error_line(tmp_path, capsys, argv):
    # finite coefficients whose table is [-inf, 0, 0, inf, ...]
    spec = _write_spec(tmp_path, {"type": "sparse_fourier", "n": 3,
                                  "terms": [{"subset": [0], "coeff": 1e308},
                                            {"subset": [1], "coeff": 1e308}]})
    out = tmp_path / "out.json"
    assert cli.main([*argv, "--spec", spec, "--out", str(out)]) == 1
    _assert_refused(capsys, out)


@pytest.mark.parametrize("spec", [
    # degree 2, no vertex table: the width's standard error and the closed-form D overflow
    {"type": "sparse_fourier", "n": 3, "terms": [{"subset": [0, 1], "coeff": 1e154},
                                                 {"subset": [1, 2], "coeff": 1e154}]},
    # degree 3, the vertex-table path: the width's standard error overflows
    {"type": "sparse_fourier", "n": 4, "terms": [{"subset": [0, 1, 2], "coeff": 1e154},
                                                 {"subset": [1, 2, 3], "coeff": 1e154}]}])
def test_an_overflowing_width_is_one_error_line(tmp_path, capsys, spec):
    out = tmp_path / "out.json"
    assert cli.main(["analyze", "--spec", _write_spec(tmp_path, spec), "--out", str(out)]) == 1
    _assert_refused(capsys, out)


def test_ld_scan_far_below_the_level_runs_with_no_warning(tmp_path):
    # f reaches -2e154, so u = (f/n - t)/delta is about -7e154 and squaring it would
    # overflow; the cutoff is finite there, and any warning fails the test
    spec = _write_spec(tmp_path, {"type": "sparse_fourier", "n": 3,
                                  "terms": [{"subset": [0, 1], "coeff": 1e154},
                                            {"subset": [1, 2], "coeff": 1e154}]})
    out = tmp_path / "ld.json"
    assert cli.main(["ld-scan", "--spec", spec, "--t", "0.5", "--delta", "0.1",
                     "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["audits"]
    tail = next(r for r in rows if r["check_id"] == "cutoff_tail_mass")
    assert tail["pass"] and 0.0 <= tail["measured"] < 1e-11


def test_analyze_at_n63_reports_the_winner_count_as_null(tmp_path):
    # the plain path's |K| + 1 = 2^63 + 1 does not fit an int64
    spec = _write_spec(tmp_path, {"type": "curie_weiss", "beta": 1.5, "n": 63})
    out = tmp_path / "cw63.json"
    assert cli.main(["analyze", "--spec", spec, "--out", str(out), "--samples", "2000"]) == 0
    levels = json.loads(out.read_text())["params"]["d_levels"]
    assert levels["winners"] is None and levels["pilot_draws"] == 0


@pytest.mark.parametrize("flag", [["--t", "nan", "--delta", "0.05"],
                                  ["--t", "0.675", "--delta", "nan"],
                                  ["--t", "inf", "--delta", "0.05"]])
def test_ld_scan_refuses_a_non_finite_level(tmp_path, capsys, flag):
    spec = _write_spec(tmp_path, {"type": "curie_weiss", "beta": 1.5, "n": 6})
    out = tmp_path / "ld.json"
    assert cli.main(["ld-scan", "--spec", spec, "--out", str(out), *flag]) == 1
    _assert_refused(capsys, out)


@pytest.mark.parametrize("level", [{"t": float("nan"), "delta": 0.05},
                                   {"t": 0.4, "delta": float("nan")}])
def test_smoothed_cutoff_spec_refuses_a_non_finite_level(tmp_path, capsys, level):
    spec = _write_spec(tmp_path, {"type": "smoothed_cutoff",
                                  "inner": {"type": "curie_weiss", "beta": 1.5, "n": 4},
                                  **level})
    out = tmp_path / "fp.json"
    assert cli.main(["fixed-points", "--spec", spec, "--out", str(out)]) == 1
    _assert_refused(capsys, out)


@pytest.mark.parametrize("suite", ["ld", "all"])
def test_audit_refuses_ld_flags_without_a_spec(tmp_path, capsys, suite):
    out = tmp_path / "audit.json"
    assert cli.main(["audit", "--suite", suite, "--out", str(out),
                     "--t", "0.5", "--delta", "0.1"]) == 1
    assert capsys.readouterr().err == "error: --t and --delta need --spec for the ld suite\n"
    assert not out.exists()


@pytest.mark.parametrize("spec, epsilon", [
    ({"type": "curie_weiss", "beta": 1.5, "n": 16}, "0.063"),   # rejection stalls
    ({"type": "curie_weiss", "beta": 1.5, "n": 6}, "nan"),
])
def test_audit_refuses_an_unsampleable_epsilon(tmp_path, capsys, spec, epsilon):
    path = _write_spec(tmp_path, spec)
    out = tmp_path / "audit.json"
    assert cli.main(["audit", "--suite", "proximity", "--spec", path, "--out", str(out),
                     "--epsilon", epsilon]) == 1
    _assert_refused(capsys, out)


def test_audit_ld_labels_only_the_instance_it_audits(tmp_path):
    spec = _write_spec(tmp_path, {"type": "curie_weiss", "beta": 1.5, "n": 8}, "cw8.json")
    out = tmp_path / "audit.json"
    # without --t and --delta the suite audits its default curie_weiss(1.5, 10)
    assert cli.main(["audit", "--suite", "ld", "--spec", spec, "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["audits"]
    assert [r["instance"]["spec"] for r in rows] == [None] * 3
    assert rows[0]["instance"]["tail_size"] > 1 << 8
    assert cli.main(["audit", "--suite", "ld", "--spec", spec, "--out", str(out),
                     "--t", "0.5", "--delta", "0.05"]) == 0
    rows = json.loads(out.read_text())["audits"]
    assert [r["instance"]["spec"] for r in rows] == [spec] * 3
    assert rows[0]["instance"]["tail_size"] <= 1 << 8


@pytest.mark.parametrize("flag", [["--t", "0.5"], ["--delta", "0.05"]])
def test_ld_flags_only_in_pairs(tmp_path, capsys, flag):
    spec = _write_spec(tmp_path, {"type": "curie_weiss", "beta": 1.5, "n": 8}, "cw8.json")
    out = tmp_path / "audit.json"
    assert cli.main(["audit", "--suite", "ld", "--spec", spec, "--out", str(out), *flag]) == 1
    assert capsys.readouterr().err == "error: --t and --delta must be given together\n"
    assert not out.exists()


def test_audit_appendix_suite_passes(tmp_path):
    out = tmp_path / "audit.json"
    code = cli.main(["audit", "--suite", "appendix", "--out", str(out), "--seed", "4"])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["summary"]["failures"] == 0
    assert report["summary"]["rows"] == len(report["audits"])


def test_default_transport_cap_covers_1024_states(tmp_path):
    # every solve is certified, or w1_result raises and the command fails
    out = tmp_path / "audit.json"
    spec = _write_spec(tmp_path, {"type": "curie_weiss", "beta": 1.5, "n": 10})
    assert cli.main(["audit", "--suite", "proximity", "--spec", spec, "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["audits"]
    assert [r["check_id"] for r in rows] == ["w1_vs_trace_bound"] * 5
    assert all(r["pass"] and r["instance"]["mass_error_bound"] < 4e-11 for r in rows)
    spec = _write_spec(tmp_path, {"type": "curie_weiss", "beta": 1.5, "n": 11}, "cw11.json")
    assert cli.main(["audit", "--suite", "proximity", "--spec", spec]) == 1


def test_a_raised_transport_cap_covers_2048_states(tmp_path):
    # every solve is certified, or w1_result raises and the command fails
    out = tmp_path / "audit.json"
    spec = _write_spec(tmp_path, {"type": "curie_weiss", "beta": 1.5, "n": 11})
    assert cli.main(["audit", "--suite", "proximity", "--spec", spec, "--out", str(out),
                     "--transport-max-states", "2048"]) == 0
    rows = json.loads(out.read_text())["audits"]
    assert [r["check_id"] for r in rows] == ["w1_vs_trace_bound"] * 5
    assert all(r["pass"] for r in rows)


@pytest.mark.parametrize("suite", ["main", "proximity"])
def test_audit_product_law_obeys_the_raised_cap(tmp_path, monkeypatch, suite):
    # with the library's default cap at 6, --max-n 8 admits n = 8 for the product law too
    monkeypatch.setattr(mfgl, "DEFAULT_ENUM_CAP", 6)
    spec = _write_spec(tmp_path, {"type": "curie_weiss", "beta": 2.0, "n": 8})
    out = tmp_path / "audit.json"
    assert cli.main(["audit", "--suite", suite, "--spec", spec, "--max-n", "8",
                     "--out", str(out)]) == 0


def test_audit_failure_exits_two(tmp_path, monkeypatch):
    # The CLI calls the audits through the verify module, so a patch there
    # reaches it.
    bad = make_row("forced_failure", {}, 2.0, 1.0)
    monkeypatch.setattr(verify, "audit_tanh_mean_swap", lambda *a, **k: [bad])
    out = tmp_path / "audit.json"
    code = cli.main(["audit", "--suite", "appendix", "--out", str(out), "--seed", "4"])
    assert code == 2
    report = json.loads(out.read_text())
    assert report["summary"]["failures"] >= 1


def test_report_command_csv_projection(tmp_path):
    out = tmp_path / "audit.json"
    assert cli.main(["audit", "--suite", "tightness", "--out", str(out), "--seed", "0"]) == 0
    csv_out = tmp_path / "audit.csv"
    assert cli.main(["report", "--spec", str(out), "--format", "csv",
                     "--out", str(csv_out)]) == 0
    lines = csv_out.read_text().splitlines()
    report = json.loads(out.read_text())
    assert len(lines) - 1 == len(report["audits"])


@pytest.mark.parametrize("report", [{"audits": 5}, {"audits": [{"check_id": "x"}]}])
def test_report_refuses_malformed_audit_rows(tmp_path, capsys, report):
    spec = _write_spec(tmp_path, report, name="report.json")
    out = tmp_path / "audit.csv"
    assert cli.main(["report", "--spec", spec, "--format", "csv", "--out", str(out)]) == 1
    _assert_refused(capsys, out)


@pytest.mark.parametrize("argv", [
    ["analyze", "--spec", "dir"],
    ["report", "--spec", "dir"],
    ["audit", "--suite", "tightness", "--out", "dir"],
], ids=["analyze-spec", "report-spec", "out"])
def test_a_directory_path_is_one_error_line(tmp_path, argv):
    (tmp_path / "dir").mkdir()
    done = subprocess.run([sys.executable, "-m", "mfgl.cli", *argv], cwd=tmp_path,
                          env=src_env(), capture_output=True, timeout=120)
    err = done.stderr.decode()
    assert "Traceback" not in err, err
    assert done.returncode == 1 and err.startswith("error: ") and err.count("\n") == 1
    assert not list(tmp_path.rglob("*.tmp"))


def test_missing_spec_is_input_error():
    assert cli.main(["analyze"]) == 1
    assert cli.main(["analyze", "--spec", "/nonexistent/path.json"]) == 1


def test_bad_usage_exits_one():
    assert cli.main(["not-a-command"]) == 1


@pytest.mark.parametrize("argv", [["analyze", "--spec", "s.json", "--suite", "all"],
                                  ["report", "--spec", "r.json", "extra"]])
def test_unrecognized_arguments_show_the_command_usage(capsys, argv):
    # the usage line lists the flags the command does take
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"usage: mfgl {argv[0]} [-h] [--spec SPEC_PATH]")
    assert err.endswith(f"mfgl {argv[0]}: error: unrecognized arguments: "
                        f"{' '.join(argv[3:])}\n")


@pytest.mark.parametrize("tol", ["nan", "-1e-10", "0"])
def test_non_positive_tol_exits_one(tmp_path, capsys, tol):
    spec = _write_spec(tmp_path, {"type": "curie_weiss", "beta": 2.0, "n": 4})
    out = tmp_path / "fp.json"
    assert cli.main(["fixed-points", "--spec", spec, f"--tol={tol}", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: tol must be positive\n"
    assert not out.exists()


@pytest.mark.parametrize("tol", ["inf", "1e400"])
def test_non_finite_tol_exits_one(tmp_path, capsys, tol):
    spec = _write_spec(tmp_path, {"type": "curie_weiss", "beta": 2.0, "n": 8})
    out = tmp_path / "fp.json"
    assert cli.main(["fixed-points", "--spec", spec, f"--tol={tol}", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: tol must be finite\n"
    assert not out.exists()


@pytest.mark.parametrize("grid", ["1e-2:inf:4", "-inf:1:4", "1e-2:1e400:4", "nan:1:4"])
def test_ld_scan_refuses_non_finite_lambda_grid_ends(tmp_path, capsys, monkeypatch, grid):
    def no_scan(*args, **kwargs):
        raise AssertionError("lambda_scan ran")

    monkeypatch.setattr(meanfield, "lambda_scan", no_scan)
    spec = _write_spec(tmp_path, {"type": "curie_weiss", "beta": 1.5, "n": 6})
    out = tmp_path / "ld.json"
    argv = ["ld-scan", "--spec", spec, "--t", "0.675", "--delta", "0.05", "--out", str(out)]
    assert cli.main([*argv, f"--lambda-grid={grid}"]) == 1
    assert capsys.readouterr().err == "error: lambda grid needs finite LO and HI\n"
    assert not out.exists()
    with pytest.raises(AssertionError, match="lambda_scan ran"):  # the patch reaches the CLI
        cli.main([*argv, "--lambda-grid=1e-2:1:4"])


def test_timings_off_by_default(tmp_path):
    spec = _write_spec(tmp_path, {"type": "curie_weiss", "beta": 1.5, "n": 6})
    out = tmp_path / "r.json"
    for argv, stages in [
            (["analyze", "--samples", "500"], ["complexity", "fixed_points"]),
            (["ld-scan", "--t", "0.675", "--delta", "0.05", "--lambda-grid", "0.5:1:2"],
             ["lambda_scan"]),
            (["audit", "--suite", "all", "--samples", "500"],
             ["appendix", "proximity", "main", "ld", "tightness"])]:
        for timings, want in (([], []), (["--timings"], stages)):
            assert cli.main([*argv, "--spec", spec, "--out", str(out), *timings]) == 0
            assert list(json.loads(out.read_text())["timings"]) == want, argv
