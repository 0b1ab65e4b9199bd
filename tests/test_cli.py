"""CLI: config resolution, spec wire format, serialization, commands, exit codes."""

import gc
import importlib
import json
import math
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import mfgl
from mfgl import boolfn, cli, complexity, meanfield, verify
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
# Config
# ---------------------------------------------------------------------------


def test_config_defaults_and_flags():
    cfg = cli.build_config(["analyze", "--spec", "x.json", "--seed", "5"])
    assert cfg.command == "analyze" and cfg.seed == 5
    assert cfg.samples == 100_000 and cfg.fmt == "json"


def test_environment_variables_reach_no_config_and_no_report(tmp_path, monkeypatch):
    # flags are the one way in: variables named like the flags change nothing
    spec = _write_spec(tmp_path, {"type": "curie_weiss", "beta": 1.5, "n": 8})
    runs = {"analyze": ["analyze", "--spec", spec],
            "report": ["report", "--spec", str(GOLDEN_DIR / "audit_all.json")]}

    def configs_and_bytes():
        configs, reports = [], []
        for name, argv in runs.items():
            configs.append(cli.build_config(argv))
            out = tmp_path / f"{name}.out"
            assert cli.main([*argv, "--out", str(out)]) == 0
            reports.append(out.read_bytes())
        return configs, reports

    unset = configs_and_bytes()
    for var, value in {"MFGL_SEED": "9", "MFGL_SAMPLES": "321", "MFGL_FORMAT": "csv"}.items():
        monkeypatch.setenv(var, value)
    assert configs_and_bytes() == unset


def test_config_validation_errors():
    with pytest.raises(cli.InputError):
        cli.build_config(["analyze", "--tol", "-1"])
    with pytest.raises(cli.InputError):  # only report writes CSV, also through the API
        cli.run(cli.RunConfig(command="fixed-points", fmt="csv"))


LEVEL = ["--spec", "cw6.json", "--t", "0.5", "--delta", "0.1"]


@pytest.mark.parametrize("suite, extra, flag", [
    # --t and --delta reach only the ld suite, run alone or in all
    *(pytest.param(suite, LEVEL, flag, id=suite) for suite, flag in (
        ("appendix", "--spec"), ("proximity", "--t"), ("main", "--t"), ("tightness", "--spec"))),
    # nor does any other suite input reach a suite that does not declare it; a
    # spec that no suite reads is never opened
    pytest.param("tightness", ["--spec", "bad.json"], "--spec", id="tightness-spec"),
    pytest.param("appendix", ["--spec", "cw6.json"], "--spec", id="appendix-spec"),
    pytest.param("tightness", ["--samples", "7", "--epsilon", "0.3"], "--samples",
                 id="tightness-samples-epsilon"),
    pytest.param("ld", ["--transport-max-states", "64"], "--transport-max-states",
                 id="ld-transport-max-states"),
])
def test_a_level_for_a_suite_that_never_reads_it_is_one_error_line(tmp_path, capsys, suite,
                                                                   extra, flag):
    _write_spec(tmp_path, {"type": "curie_weiss", "beta": 1.5, "n": 6}, "cw6.json")
    (tmp_path / "bad.json").write_text("{not json")
    out = tmp_path / "audit.json"
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in extra]
    assert cli.main(["audit", "--suite", suite, *argv, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: --suite {suite} reads no {flag}\n"
    assert not out.exists()


@pytest.mark.parametrize("suite, extra", [
    ("proximity", ["--spec", "s.json", "--epsilon", "0.3", "--transport-max-states", "64"]),
    ("main", ["--spec", "s.json", "--samples", "7", "--epsilon", "0.3"]),
    ("ld", ["--spec", "s.json", "--t", "0.5", "--delta", "0.1"]),
    ("all", ["--spec", "s.json", "--samples", "7", "--epsilon", "0.3", "--t", "0.5",
             "--delta", "0.1", "--transport-max-states", "64"]),
    # --seed, --max-n and --timings reach every suite, and so does a suite input at its default
    ("tightness", ["--seed", "3", "--max-n", "12", "--timings", "--samples", "100000"]),
])
def test_a_suite_takes_the_inputs_it_declares(suite, extra):
    config = cli.build_config(["audit", "--suite", suite, *extra])
    assert config.suite == suite


# Per flag: a value other than its default, and a second value.
OPTION_VALUES = {
    "--spec": ("a.json", "b.json"), "--out": ("a.out", "b.out"), "--format": ("csv", "json"),
    "--seed": ("7", "8"), "--samples": ("321", "123"), "--tol": ("1e-6", "1e-7"),
    "--damping": ("0.25", "0.75"), "--epsilon": ("0.3", "0.1"), "--t": ("0.25", "0.5"),
    "--delta": ("0.1", "0.05"), "--max-n": ("12", "13"), "--transport-max-states": ("64", "128"),
    "--suite": ("ld", "main"), "--lambda-grid": ("0.5:2:3", "1:2:3"), "--timings": (),
}
# --t and --delta go together, and audit's ld suite takes them with a --spec;
# ld-scan runs with both
PARTNERS = {"--t": ["--delta", "0.05", "--spec", "s.json"],
            "--delta": ["--t", "0.5", "--spec", "s.json"]}
REQUIRED = {"ld-scan": ["--t", "0.5", "--delta", "0.05"]}
OPTIONS = fields(cli.RunConfig)[1:]


@pytest.mark.parametrize("command, option", [(c, f) for c in cli._COMMANDS for f in OPTIONS],
                         ids=lambda x: getattr(x, "name", x))
def test_each_option_reaches_exactly_the_commands_that_read_it(capsys, command, option):
    flag, name, default = option.metadata["flag"], option.name, option.default
    values = OPTION_VALUES[flag]
    if command not in option.metadata["commands"]:  # the flag is a usage error
        assert cli.main([command, flag, *values[:1]]) == 1
        assert "unrecognized arguments" in capsys.readouterr().err
        return
    argv = [command, *PARTNERS.get(flag, REQUIRED.get(command, []))]
    if not values:  # a switch
        assert getattr(cli.build_config([*argv, flag]), name) is True
        return
    value, other = values
    by_flag = getattr(cli.build_config([*argv, flag, value]), name)
    assert by_flag != default
    assert getattr(cli.build_config([*argv, flag, other]), name) != by_flag


def test_lambda_grid_parsing():
    cfg = cli.build_config(["ld-scan", "--t", "0.5", "--delta", "0.1", "--lambda-grid", "0.5:2:3"])
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


def _key_cases():
    """Per spec example, its ``to_dict()`` with an unknown key added and with each key
    dropped in turn; then an unknown key inside ``inner`` and inside a term."""
    for kind, spec in SPEC_EXAMPLES.items():
        data = spec.to_dict()
        yield f"{kind}+extra", {**data, "extra": 1}
        for key in data:
            yield f"{kind}-{key}", {k: v for k, v in data.items() if k != key}
    cutoff = SPEC_EXAMPLES["smoothed_cutoff"].to_dict()
    yield "inner+n", {**cutoff, "inner": {**cutoff["inner"], "num_vertices": 5}}
    yield "inner-beta", {**cutoff, "inner": {"type": "curie_weiss", "n": 5}}
    sparse = SPEC_EXAMPLES["sparse_fourier"].to_dict()
    yield "term+weight", {**sparse, "terms": [{"subset": [0], "coeff": 1.0, "weight": 2.0}]}
    yield "term-coeff", {**sparse, "terms": [{"subset": [0]}]}


KEY_CASES = dict(_key_cases())


@pytest.mark.parametrize("case", KEY_CASES)
def test_a_missing_or_unknown_spec_key_is_one_error_line(tmp_path, capsys, case):
    data = KEY_CASES[case]
    with pytest.raises(InvalidSpec):
        spec_from_dict(data)
    spec = _write_spec(tmp_path, data)
    out = tmp_path / "fp.json"
    assert cli.main(["fixed-points", "--spec", spec, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not out.exists()


def test_a_typo_key_names_the_expected_and_the_given_keys():
    with pytest.raises(InvalidSpec) as exc:
        spec_from_dict({"type": "smoothed_cutoff", "inner": {"type": "curie_weiss",
                        "beta": 1.5, "n": 4}, "t": 0.4, "detla": 9})
    assert str(exc.value) == ("a 'smoothed_cutoff' spec takes exactly the keys "
                              "['type', 'inner', 't', 'delta'], got "
                              "['type', 'inner', 't', 'detla']")


def test_every_spec_the_project_writes_has_exactly_its_keys(monkeypatch):
    # the goldens' specs, the README's spec block and the benchmark's spec files
    from test_goldens import SPECS

    root = Path(__file__).parents[1]
    monkeypatch.syspath_prepend(str(root / "bench"))
    workloads = importlib.import_module("workloads")
    readme = (root / "README.md").read_text()
    block = readme.split('dispatched on `"type"`:\n\n```json\n', 1)[1].split("```", 1)[0]
    decoder, rest, found = json.JSONDecoder(), block.strip(), list(SPECS.values())
    while rest:
        data, end = decoder.raw_decode(rest)
        found.append(data)
        rest = rest[end:].strip()
    for name in ("analyze", "ld-scan", "audit"):
        found += workloads.specs(name, 7).values()
    assert len(found) == len(SPECS) + 6 + 10
    for data in found:
        assert spec_from_dict(data).to_dict().keys() == data.keys(), data


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
     "expected a finite number, got nan"),
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
    assert sum(map(len, table.values())) == 39
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
     {"boolfn", "hamiltonians", "meanfield", "verify", "gibbs"}),
    (["audit", "--suite", "proximity", "--spec", "specs/cw.json"],
     {"boolfn", "hamiltonians", "verify", "gibbs", "transport"}),
])
def test_each_command_loads_only_its_layers(tmp_path, argv, layers):
    (tmp_path / "specs").mkdir()
    _write_spec(tmp_path / "specs", {"type": "curie_weiss", "beta": 2.0, "n": 6}, "cw.json")
    # ld-scan takes no W1, so it never compiles ``transport``; and no command loads
    # ``logging``, which nothing but a caller that configures it would need
    code, _, loaded = run_cli_process(*argv, "--out", "r.json", cwd=tmp_path)
    assert code == 0
    assert {m.split(".")[1] for m in loaded if m.startswith("mfgl.")} == layers
    assert "logging" not in loaded


# Imports the three layers that log, configures ``logging`` only then, and
# calls each layer's logging function once.
_LATE_LOGGING = """
import sys
import numpy as np
from mfgl import complexity, meanfield, transport
from mfgl.hamiltonians import CurieWeissSpec, build_hamiltonian
assert "logging" not in sys.modules
import logging
logging.basicConfig(level=logging.DEBUG, stream=sys.stdout, format="%(name)s: %(message)s")
complexity.gaussian_width_mc(complexity.GradientCloud(np.eye(3)), samples=100, seed=0)
meanfield.solve_multistart(build_hamiltonian(CurieWeissSpec(1.5, 4)), seed=0)
transport.solve_w1(np.eye(8)[0], np.eye(8)[7], 3)
"""


def test_debug_lines_appear_when_logging_is_configured_after_import():
    done = subprocess.run([sys.executable, "-c", _LATE_LOGGING], env=src_env(),
                          capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr.decode()
    lines = done.stdout.decode().splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "mfgl.complexity", "mfgl.meanfield", "mfgl.transport"], lines


def test_the_parser_adds_only_the_invoked_commands_flags():
    # the top-level help lists the names alone, so it reads the same whichever
    # command's flags were added; each --help and usage error is that command's
    top = cli._build_parser([])[0].format_help()
    for command in cli._COMMANDS:
        parser, commands = cli._build_parser(["--seed", "1", command, "report"])
        assert parser.format_help() == top
        assert [c for c, p in commands.items() if "--spec" in p.format_usage()] == [command]


@pytest.mark.parametrize("argv", [
    ["analyze", "--spec", "specs/cw.json", "--samples", "500"],
    ["fixed-points", "--spec", "specs/cw.json"],
    ["ld-scan", "--spec", "specs/cw.json", "--t", "0.5", "--delta", "0.05",
     "--lambda-grid", "0.5:1:2"],
    ["audit", "--suite", "all"],
], ids=lambda argv: argv[0])
def test_commands_run_without_scipy(tmp_path, argv):
    # scipy is a test dependency only: no command imports it; nor does any
    # command load numpy.ma, which costs each process 9-21 ms to import, or logging
    (tmp_path / "specs").mkdir()
    _write_spec(tmp_path / "specs", {"type": "curie_weiss", "beta": 2.0, "n": 6}, "cw.json")
    code, _, loaded = run_cli_process(*argv, "--out", "r.json", cwd=tmp_path, block=("scipy",))
    assert code == 0
    assert not {m for m in loaded if m.split(".")[0] == "scipy"}
    assert not {"numpy.ma", "logging"} & loaded


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


def test_emit_json_takes_json_types_only():
    # every layer hands reports Python's JSON types; a numpy value is a defect, not coerced
    plain = {"i": 3, "x": 0.5, "nan": None, "inf": float("inf"), "v": [1.0, None], "e": []}
    assert json.loads(cli.serialize_report(plain, "json")) == {**plain, "inf": None}
    for value, name in [(np.float32(1), "float32"), (np.int64(1), "int64"),
                        (np.zeros(2), "ndarray"), (np.bool_(True), "bool"), (object(), "object"),
                        (1j, "complex"), ({1, 2}, "set")]:
        with pytest.raises(TypeError, match=f"cannot serialize {name}"):
            cli.serialize_report({"x": value}, "json")


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
    # A = 0, so m = 0 and D = E[X^-] = E max(<theta, G>, 0) is sampled whole, within
    # its certified ends [0, ||theta||_2 / sqrt(2 pi)], the upper one exact
    theta = [0.5, 0.25, -0.75]
    spec = _write_spec(tmp_path, {"type": "linear", "theta": theta})
    out = tmp_path / "report.json"
    assert cli.main(["analyze", "--spec", spec, "--out", str(out), "--samples", "10000"]) == 0
    params = json.loads(out.read_text())["params"]
    assert list(params) == ["d", "d_stderr", "d_lower", "d_upper", "l1", "l2",
                            "structural_threshold"]
    exact = np.linalg.norm(theta) / np.sqrt(2 * np.pi)
    assert params["d_lower"] == 0.0 and params["d_upper"] == pytest.approx(exact, rel=1e-15)
    assert params["d"] <= params["d_upper"]
    assert params["d"] == pytest.approx(exact, abs=4 * params["d_stderr"])


def _random_ising(rng, n):
    upper = np.triu(rng.normal(0.0, 1.0 / np.sqrt(n), (n, n)), 1)
    return {"type": "ising", "coupling": (upper + upper.T).tolist(),
            "field": rng.normal(0.0, 0.1, n).tolist()}


def _closed_form(spec: dict) -> tuple[float, float, float]:
    """(m, L1, L2) of a degree <= 2 spec, read off its pairwise form."""
    a, mu = boolfn.pairwise_form(build_hamiltonian(spec_from_dict(spec)))
    row = np.abs(a).sum(axis=1)
    return (np.sqrt(2 / np.pi) * np.linalg.norm(a, axis=1).sum(),
            max(1.0, float((row + np.abs(mu)).max())), max(1.0, float(row.max())))


@pytest.mark.parametrize("spec", [
    *(_random_ising(np.random.default_rng(seed), n) for seed, n in ((0, 3), (1, 12), (2, 40))),
    {"type": "curie_weiss", "beta": 1.5, "n": 18}, {"type": "curie_weiss", "beta": 0.75, "n": 63}])
def test_analyze_closed_form_lipschitz_bounds_hold_exactly(tmp_path, spec):
    # L1 = max_i(sum_j |A_ij| + |mu_i|) and L2 = max_i sum_j |A_ij| are exact, so the
    # closed forms are the reported values bit for bit; the width lies in its certified ends
    out = tmp_path / "report.json"
    assert cli.main(["analyze", "--spec", _write_spec(tmp_path, spec), "--out", str(out),
                     "--samples", "200"]) == 0
    params = json.loads(out.read_text())["params"]
    m, l1, l2 = _closed_form(spec)
    assert (params["l1"], params["l2"]) == (l1, l2)
    assert params["d_lower"] == pytest.approx(m, rel=1e-12)
    assert params["d_lower"] <= params["d"] <= params["d_upper"]
    assert "d_levels" not in params


def test_analyze_ising_reports_closed_form_bounds(tmp_path):
    a = [[0.0, 0.3, 0.0], [0.3, 0.0, -0.2], [0.0, -0.2, 0.0]]
    mu = [0.1, 0.0, -0.1]
    spec = {"type": "ising", "coupling": a, "field": mu}
    out = tmp_path / "ising.json"
    code = cli.main(["analyze", "--spec", _write_spec(tmp_path, spec), "--out", str(out),
                     "--seed", "2", "--samples", "5000"])
    assert code == 0
    report = json.loads(out.read_text())
    params = report["params"]
    # m <= D <= m + tau, tau = min(||mu|| / sqrt(2 pi), R sqrt(pi/2) erfc(m / (sqrt 2 R)))
    m = np.sqrt(2 / np.pi) * np.linalg.norm(a, axis=1).sum()
    r = np.linalg.norm(np.abs(a).sum(axis=1) + np.abs(mu))
    tau = min(np.linalg.norm(mu) / np.sqrt(2 * np.pi),
              r * np.sqrt(np.pi / 2) * math.erfc(m / (np.sqrt(2) * r)))
    assert params["d_lower"] == pytest.approx(m, rel=1e-12)
    assert params["d_upper"] == pytest.approx(m + tau, rel=1e-12)
    assert params["d_lower"] <= params["d"] <= params["d_upper"]
    assert (params["l1"], params["l2"]) == _closed_form(spec)[1:]
    assert "closed_form_bounds" not in report


@pytest.mark.parametrize("payload", [
    {"type": "linear", "theta": [0.3, -0.2, 0.5]},
    {"type": "sparse_fourier", "n": 3,
     "terms": [{"subset": [0, 1], "coeff": 0.4}, {"subset": [2], "coeff": -0.1}]},
], ids=["linear", "sparse_fourier"])
def test_analyze_reports_closed_form_bounds_for_every_pairwise_expansion(tmp_path, payload):
    spec = _write_spec(tmp_path, payload)
    out = tmp_path / "report.json"
    assert cli.main(["analyze", "--spec", spec, "--out", str(out), "--samples", "2000"]) == 0
    params = json.loads(out.read_text())["params"]
    assert params["d_lower"] <= params["d"] <= params["d_upper"]
    if payload["type"] == "linear":
        # A = 0, so the exact width is the upper end, and L1, L2 sit at their unit floors
        assert params["d_lower"] == 0.0
        assert params["d_upper"] == pytest.approx(np.linalg.norm([0.3, -0.2, 0.5])
                                                  / np.sqrt(2 * np.pi), rel=1e-15)
        assert (params["l1"], params["l2"]) == (1.0, 1.0)


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
                                  ["audit", "--suite", "proximity"],
                                  ["audit", "--suite", "main"],
                                  ["audit", "--suite", "ld", "--t", "0.5", "--delta", "0.1"]])
def test_an_overflowing_vertex_table_is_one_error_line(tmp_path, capsys, argv):
    # Every command that builds a table refuses one with |F| > max float / 2, and any
    # numpy warning fails the test.  Finite coefficients whose table is
    # [-inf, 0, 0, inf, ...], and a finite table of +-(1e308 - 1e300) whose flip
    # differences would overflow:
    for terms in ([{"subset": [0], "coeff": 1e308}, {"subset": [1], "coeff": 1e308}],
                  [{"subset": [0], "coeff": 1e308}, {"subset": [0, 1, 2], "coeff": 1e300}]):
        spec = _write_spec(tmp_path, {"type": "sparse_fourier", "n": 3, "terms": terms})
        out = tmp_path / "out.json"
        assert cli.main([*argv, "--spec", spec, "--out", str(out)]) == 1
        _assert_refused(capsys, out)


def test_fixed_points_builds_no_table_of_a_near_max_spec(tmp_path):
    spec = _write_spec(tmp_path, {"type": "sparse_fourier", "n": 3,
                                  "terms": [{"subset": [0], "coeff": 1e308},
                                            {"subset": [0, 1, 2], "coeff": 1e300}]})
    assert cli.main(["fixed-points", "--spec", spec, "--out", str(tmp_path / "fp.json")]) == 0


@pytest.mark.parametrize("spec", [
    # degree 2, no vertex table: D, L1 and L2 are finite in closed form, but the
    # structural threshold 5000 L1 L2^(3/4) D^(1/4) n^(3/4) overflows
    {"type": "sparse_fourier", "n": 3, "terms": [{"subset": [0, 1], "coeff": 1e154},
                                                 {"subset": [1, 2], "coeff": 1e154}]},
    # degree 3, the vertex-table path: the width's standard error overflows
    {"type": "sparse_fourier", "n": 4, "terms": [{"subset": [0, 1, 2], "coeff": 1e154},
                                                 {"subset": [1, 2, 3], "coeff": 1e154}]}])
def test_an_overflowing_width_is_one_error_line(tmp_path, capsys, spec):
    out = tmp_path / "out.json"
    assert cli.main(["analyze", "--spec", _write_spec(tmp_path, spec), "--out", str(out)]) == 1
    _assert_refused(capsys, out)


def test_an_overflowing_structural_threshold_is_one_error_line(tmp_path, capsys):
    # D, L1 and L2 are finite, near 1e152; 5000 L1 L2^(3/4) D^(1/4) n^(3/4) is not
    spec = _write_spec(tmp_path, {"type": "sparse_fourier", "n": 4,
                                  "terms": [{"subset": [0, 1, 2], "coeff": 1e152},
                                            {"subset": [1, 2, 3], "coeff": 1e152}]})
    out = tmp_path / "out.json"
    assert cli.main(["analyze", "--spec", spec, "--samples", "2000", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: the structural threshold overflows") and err.count("\n") == 1
    assert not out.exists()


def test_the_main_suite_takes_every_requested_draw(tmp_path):
    # the goldens' sparse_fourier spec has degree 3, so D is sampled over its vertex
    # table; more draws than 20,000 give a smaller standard error
    spec = _write_spec(tmp_path, {"type": "sparse_fourier", "n": 5,
                                  "terms": [{"subset": [0, 2], "coeff": 0.8},
                                            {"subset": [1], "coeff": -0.3},
                                            {"subset": [1, 3, 4], "coeff": 0.6},
                                            {"subset": [2, 4], "coeff": -0.4}]})
    stderr = []
    for samples in ("20000", "50000"):
        out = tmp_path / f"main{samples}.json"
        assert cli.main(["audit", "--suite", "main", "--spec", spec, "--samples", samples,
                         "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["config"]["samples"] == int(samples)
        stderr.append({row["instance"]["d_stderr"] for row in report["audits"]})
    assert len(stderr[0]) == len(stderr[1]) == 1 and stderr[1] != stderr[0]


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


def test_analyze_at_n63_takes_the_width_in_closed_form(tmp_path):
    # mu = 0: D = sqrt(2/pi) 2 beta sqrt(n - 1) exactly, with no draw and no levels
    spec = _write_spec(tmp_path, {"type": "curie_weiss", "beta": 1.5, "n": 63})
    out = tmp_path / "cw63.json"
    assert cli.main(["analyze", "--spec", spec, "--out", str(out), "--samples", "2000"]) == 0
    report = json.loads(out.read_text())
    params = report["params"]
    assert params["d"] == params["d_lower"] == params["d_upper"] == pytest.approx(
        np.sqrt(2 / np.pi) * 3.0 * np.sqrt(62), rel=1e-12)
    assert params["d_stderr"] == 0.0 and "d_levels" not in params
    assert "closed_form_bounds" not in report


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


# A well-formed audit row; each case below breaks row 1 of a two-row report.
_ROW = {"check_id": "a", "instance": {}, "measured": 1, "bound": 2.0, "ratio": 0.5,
        "pass": True, "kind": "bound", "hypothesis_met": True}
_NUMPY_FREE_CLI = ("import runpy, sys; sys.modules['numpy'] = None; "
                   "runpy.run_module('mfgl.cli', run_name='__main__')")


@pytest.mark.parametrize("bad, message", [
    ({"pass": "false", "hypothesis_met": "no"}, "'pass' must be a boolean, not \"false\""),
    ({"measured": "abc"}, "'measured' must be a number or null, not \"abc\""),
    ({"ratio": True}, "'ratio' must be a number or null, not true"),
    ({"kind": None}, "'kind' must be a string, not null"),
    ({"instance": []}, "'instance' must be an object, not []"),
], ids=["strings-for-booleans", "string-for-number", "boolean-for-number", "null-kind",
        "list-instance"])
def test_report_checks_each_row_before_it_projects_it(tmp_path, bad, message):
    spec = _write_spec(tmp_path, {"audits": [_ROW, {**_ROW, **bad}]}, name="report.json")
    done = subprocess.run([sys.executable, "-c", _NUMPY_FREE_CLI, "report", "--spec", spec,
                           "--format", "csv", "--out", "r.csv"],
                          cwd=tmp_path, env=src_env(), capture_output=True, timeout=120)
    assert (done.returncode, done.stderr.decode()) == (1, f"error: audit row 1: {message}\n")
    assert not (tmp_path / "r.csv").exists()


def test_main_suite_names_an_empty_eps_range(tmp_path, capsys):
    # 4n/D <= 1 leaves no admissible tilt scale, and the message says so
    spec = _write_spec(tmp_path, {"type": "smoothed_cutoff",
                                  "inner": {"type": "linear", "theta": [0.5, 0.5]},
                                  "t": 0.1, "delta": 0.05})
    out = tmp_path / "audit.json"
    assert cli.main(["audit", "--suite", "main", "--spec", spec, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: no eps is admissible: 4n/D <= 1 for n = 2, D = \S+\n", err)
    assert float(err.split("D = ")[-1]) >= 4 * 2
    assert not out.exists()


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


@pytest.mark.parametrize("flags, message", [
    ([], "ld-scan requires --t and --delta"),
    (["--t", "0.5", "--delta", "0.1", "--lambda-grid", "0.5:2"],
     "bad lambda grid '0.5:2', want LO:HI:COUNT")], ids=["no-level", "bad-grid"])
def test_ld_scan_refuses_bad_config_before_reading_the_spec(capsys, monkeypatch, flags, message):
    def unread(path):
        raise AssertionError("the spec was read")

    monkeypatch.setattr(cli, "load_spec", unread)
    assert cli.main(["ld-scan", "--spec", "cw.json", *flags]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


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
            (["fixed-points"], ["fixed_points"]),
            (["ld-scan", "--t", "0.675", "--delta", "0.05", "--lambda-grid", "0.5:1:2"],
             ["lambda_scan"]),
            (["audit", "--suite", "all", "--samples", "500"],
             ["appendix", "proximity", "main", "ld", "tightness"])]:
        for timings, want in (([], []), (["--timings"], stages)):
            assert cli.main([*argv, "--spec", spec, "--out", str(out), *timings]) == 0
            assert list(json.loads(out.read_text())["timings"]) == want, argv


# ---------------------------------------------------------------------------
# Process entry: console_main runs one command with the collector off
# ---------------------------------------------------------------------------


def test_main_leaves_the_collector_as_it_found_it(tmp_path):
    # tests and library callers run main many times in one process: a freeze there
    # would pin each command's objects for good
    spec = _write_spec(tmp_path, {"type": "curie_weiss", "beta": 1.5, "n": 6})
    argv = ["fixed-points", "--spec", spec, "--out", str(tmp_path / "r.json")]
    frozen = gc.get_freeze_count()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            assert cli.main(argv) == 0
            assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen)
    finally:
        gc.enable()


def _cyclic_garbage(argv) -> int:
    """What ``gc.collect()`` finds after ``cli.main(argv)`` runs with the collector off."""
    gc.collect()
    gc.disable()
    try:
        assert cli.main(argv) == 0
    finally:
        found = gc.collect()
        gc.enable()
    return found


@pytest.mark.parametrize("spec, argv, small, large", [
    ({"type": "curie_weiss", "beta": 1.5, "n": 10},
     ["ld-scan", "--t", "0.675", "--delta", "0.05", "--lambda-grid"], "1e-2:1e2:8", "1e-2:1e2:256"),
    ({"type": "curie_weiss", "beta": 1.5, "n": 8}, ["analyze", "--samples"], "200", "20000"),
], ids=["ld-scan", "analyze"])
def test_a_commands_cyclic_garbage_does_not_grow_with_its_work(tmp_path, spec, argv, small,
                                                               large):
    # what reference counting leaves to the collector is a fixed set (the parser), so a
    # process that runs one command with the collector off holds no more memory for it
    tail = ["--spec", _write_spec(tmp_path, spec), "--out", str(tmp_path / "r.json")]
    for value in (small, large):  # imports and first-use caches settle
        _cyclic_garbage([*argv, value, *tail])
    assert _cyclic_garbage([*argv, small, *tail]) == _cyclic_garbage([*argv, large, *tail])


def test_the_console_entry_writes_the_golden_bytes(tmp_path):
    # python -m mfgl.cli runs console_main: with the collector off and a freeze at exit it
    # still writes the report, flushes stdout and reports an error in one line
    def console(*argv):
        return subprocess.run([sys.executable, "-m", "mfgl.cli", *argv], cwd=tmp_path,
                              env=src_env(), capture_output=True, timeout=120)

    golden = GOLDEN_DIR / "audit_all.json"
    done = console("audit", "--suite", "all", "--seed", "0", "--out", "audit_all.json")
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "audit_all.json").read_bytes() == golden.read_bytes()
    done = console("report", "--spec", str(golden), "--format", "csv")
    assert (done.returncode, done.stdout) == (0, (GOLDEN_DIR / "audit_all.csv").read_bytes())
    done = console("analyze", "--spec", "missing.json")
    err = done.stderr.decode()
    assert done.returncode == 1 and err.startswith("error: ") and err.count("\n") == 1, err
