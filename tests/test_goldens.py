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
}


def run_golden(name: str, cwd: Path) -> bytes:
    """Run the argv of golden ``name`` from ``cwd`` and return its report bytes."""
    argv = GOLDENS[name]
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
