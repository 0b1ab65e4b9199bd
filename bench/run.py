"""Benchmark of the mfgl command-line tool.

Usage, from the root of an mfgl checkout (mfgl need not be installed):

    python3 bench/run.py --workload analyze|ld-scan|audit --seed N --seconds S --trace 0|1
    python3 -m pytest -q bench        # the benchmark's own self-tests

One closed loop: a single client runs one ``python -m mfgl.cli`` child at a
time with ``PYTHONPATH=src`` and every ``MFGL_*`` variable cleared, and
waits for it before the next.  ``--seed`` draws the random spec files and
is passed to the CLI as ``--seed``; the workloads are described in
``workloads.py``.  Every output is checked (``checks.py``).

``--trace 0`` first imports ``mfgl.cli`` in fresh interpreters (set-up),
then repeats the workload's pass while the next pass is expected to end
within ``--seconds`` (at least one pass), and reports the end-to-end
metrics: medians over passes, peak RSS as the largest child's own
``ru_maxrss`` from ``os.wait4``.

A shared host's speed drifts by about +-20% over minutes, more than a run
can average away.  So every timed child is bracketed by reference children,
fresh ``python -c "import numpy"`` runs that depend on Python and numpy but
never on mfgl, and its wall time is rescaled to the speed at which the
reference takes ``REFERENCE_S``: ``wall * REFERENCE_S / mean(references just
before and just after it)``.  ``norm_wall_s``, ``setup_s`` and the per-kind
``*_s`` are rescaled this way; the raw ``wall_s`` and ``setup_wall_s`` and
the measured ``reference_s`` are printed and kept in the results file.

``--trace 1`` runs one untraced pass, each child under ``-X importtime`` so
its import time is known, and then replays the pass in one process with
spans around calls into each module (``replay.py``, ``spans.py``).  It
reports per-layer self times and counters, the tracing overhead (traced
wall minus untraced wall, both without import) and the share of the
untraced time less import that the layers' self times cover.

Human-readable lines come first; the last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  A results file with the
environment, every command's measurements and the spans goes to
``.bench/results/``.  Exit status 2 means the checkout has no mfgl sources
or mfgl cannot be imported.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import spans as spanlib
import workloads

BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = ".bench"
SETUP_REPEATS = 3
REFERENCE_ARGV = ["-c", "import numpy"]
# Median wall time of the reference child on the 2-vCPU Intel Xeon VM
# (Python 3.11.7, numpy 2.4.6) the benchmark was tuned on.
REFERENCE_S = 0.2
REFERENCE_SHARE = 0.1
REFERENCE_MAX = 5
# Whole-run budget: a run that overruns kills its child and reports the
# command as failed, so the process still exits well inside 180 s.
BUDGET_S = 165
KINDS = ("analyze", "fixed-points", "ld-scan", "audit", "report")
UNITS = {"norm_wall_s": "s", "wall_s": "s", "setup_s": "s", "setup_wall_s": "s",
         "reference_s": "s", "peak_rss_mb": "MB",
         **{f"{k.replace('-', '_')}_s": "s" for k in KINDS}}


@dataclass
class Child:
    """The running child, so the budget alarm can stop it."""

    pid: int | None = None
    expired: bool = False

    def on_alarm(self, *_):
        self.expired = True
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)


@dataclass
class Record:
    argv: list[str]
    kind: str
    exit_code: int | None
    wall_s: float
    rss_mb: float
    cpu_s: float
    import_s: float | None = None
    problems: list[str] = field(default_factory=list)
    # Mean wall time of the reference children just before and just after it.
    reference_s: float = REFERENCE_S

    @property
    def norm_wall_s(self) -> float:
        return self.wall_s * REFERENCE_S / self.reference_s


def bracketed(measure, run_one, items):
    """``run_one(item)`` for each item, between reference measurements.

    ``measure()`` runs ``REFERENCE_MAX`` times before the first item, and
    after each item until the measurements take ``REFERENCE_SHARE`` of the
    item's wall time (1 to ``REFERENCE_MAX`` of them), so that a long item
    gets a less noisy reference.  Yields ``(result, reference)``, the
    reference being the mean of the measurements just before and just
    after that item.
    """
    before = [measure() for _ in range(REFERENCE_MAX)]
    for item in items:
        start = time.perf_counter()
        result = run_one(item)
        took = time.perf_counter() - start
        after = [measure()]
        while sum(after) < REFERENCE_SHARE * took and len(after) < REFERENCE_MAX:
            after.append(measure())
        yield result, statistics.mean(before + after)
        before = after


def child_env(root: Path) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("MFGL_")}
    env["PYTHONPATH"] = str(root / "src")
    return env


def run_child(child: Child, argv: list[str], cwd: Path, env: dict,
              stderr_path: Path) -> tuple[int | None, float, float, float]:
    """(exit code or None if killed, wall s, the child's own peak RSS MB, CPU s)."""
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        child.pid = proc.pid
        _, status, usage = os.wait4(proc.pid, 0)
        child.pid = None
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    code = None if os.WIFSIGNALED(status) else proc.returncode
    return code, wall, usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime


def import_seconds(stderr: str) -> float:
    """Total import time in ``python -X importtime`` output: its top-level entries."""
    total_us = 0
    for line in stderr.splitlines():
        parts = line.split("|")
        if (line.startswith("import time:") and len(parts) == 3
                and parts[1].strip().isdigit() and not parts[2].startswith("  ")):
            total_us += int(parts[1])
    return total_us / 1e6


def run_command(child: Child, cmd: workloads.Command, cwd: Path, env: dict,
                specs: dict[str, dict], seen: dict[tuple, bytes],
                import_times: bool = False) -> Record:
    """Run one CLI command and check its output.

    With ``import_times`` the child runs under ``-X importtime`` so that its
    own import time can be subtracted from its wall time.
    """
    argv = [sys.executable, *(["-X", "importtime"] if import_times else []),
            "-m", "mfgl.cli", *cmd.argv]
    code, wall, rss, cpu = run_child(child, argv, cwd, env, cwd / "stderr.txt")
    record = Record(list(cmd.argv), cmd.kind, code, wall, rss, cpu)
    if import_times:
        record.import_s = import_seconds((cwd / "stderr.txt").read_text(errors="replace"))
    if code != 0:
        tail = (cwd / "stderr.txt").read_text(errors="replace").strip().splitlines()[-1:]
        record.problems.append(f"exit code {code}: {' '.join(tail)}")
        return record
    data = (cwd / cmd.option("--out")).read_bytes()
    record.problems += check_command(cmd, data, cwd, specs)
    if seen.setdefault(cmd.argv, data) != data:
        record.problems.append("report differs from an earlier run of the same command")
    return record


def check_command(cmd: workloads.Command, data: bytes, cwd: Path,
                  specs: dict[str, dict]) -> list[str]:
    spec_path = cmd.option("--spec")
    try:
        source = json.loads((cwd / spec_path).read_bytes()) if cmd.kind == "report" else None
        spec = specs.get(Path(spec_path).name) if spec_path else None
        return checks.check_output(cmd.kind, cmd.options(), data, spec, source)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return [f"malformed output: {exc!r}"]


def median_over_passes(passes: list[list[Record]], kind: str | None = None,
                       raw: bool = False) -> float | None:
    sums = [sum(r.wall_s if raw else r.norm_wall_s for r in p if kind in (None, r.kind))
            for p in passes if kind is None or any(r.kind == kind for r in p)]
    return statistics.median(sums) if sums else None


def end_to_end(passes: list[list[Record]], setup: list[tuple[float, float]]) -> dict[str, float]:
    """``setup`` holds (wall, reference) per fresh import."""
    records = [r for p in passes for r in p]
    out = {"norm_wall_s": median_over_passes(passes),
           "setup_s": statistics.median(w * REFERENCE_S / ref for w, ref in setup),
           "peak_rss_mb": max(r.rss_mb for r in records),
           "wall_s": median_over_passes(passes, raw=True),
           "setup_wall_s": statistics.median(w for w, _ in setup),
           "reference_s": statistics.median(r.reference_s for r in records)}
    for kind in KINDS:
        value = median_over_passes(passes, kind)
        if value is not None:
            out[f"{kind.replace('-', '_')}_s"] = value
    return out


def replay(child: Child, plan: list[workloads.Command], workload: str, seed: int,
           work: Path, env: dict, spans_path: Path) -> tuple[list[dict], list[Record]]:
    """Run the traced replay; returns its spans and one record per replayed command."""
    replay_dir = work / "replay"
    workloads.write_specs(workload, seed, replay_dir / "specs")
    (work / "plan.json").write_text(json.dumps([list(c.argv) for c in plan]))
    code, *_ = run_child(
        child, [sys.executable, str(BENCH_DIR / "replay.py"), str(work / "plan.json"),
                str(spans_path)], replay_dir, env, work / "replay-stderr.txt")
    traced = json.loads(spans_path.read_text()) if code == 0 else {"spans": [], "exit_codes": []}
    codes = traced["exit_codes"]
    walls = {s["trace"]: s["end"] - s["start"] for s in traced["spans"] if s["name"] == "cli.main"}
    records = []
    for k, cmd in enumerate(plan):
        rec = Record(list(cmd.argv), cmd.kind, codes[k] if k < len(codes) else None,
                     walls.get(k, 0.0), 0.0, 0.0)
        out = cmd.option("--out")
        if rec.exit_code != 0:
            rec.problems.append(f"replay exit code {rec.exit_code}")
        elif _read(replay_dir / out) != _read(work / "cli" / out):
            rec.problems.append("replay output differs from the untraced run")
        records.append(rec)
    return traced["spans"], records


def _read(path: Path) -> bytes | None:
    return path.read_bytes() if path.is_file() else None


def trace_metrics(spans: list[dict], untraced: list[Record]) -> dict:
    """Per-layer metrics plus the tracing overhead and the layers' coverage.

    ``untraced`` ran under ``-X importtime``; its wall time less import is
    what the replay's spans should account for.
    """
    out = spanlib.layer_metrics(spans)
    work_s = sum(r.wall_s - (r.import_s or 0.0) for r in untraced)
    traced_s = sum(s["end"] - s["start"] for s in spans if s["parent"] is None
                   and s["name"] != spanlib.IMPORT_SPAN)
    layer_s = sum(out[f"{layer}.self_s"] for layer in spanlib.LAYERS)
    out.update({"trace.overhead_s": traced_s - work_s,
                "trace.coverage": layer_s / work_s if work_s > 0 else 0.0,
                "trace.spans": len(spans)})
    return out


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def _blas_threads() -> int | str | None:
    """OpenBLAS threads a child gets: the environment's setting, else the library's."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        if os.environ.get(var):
            return f"{var}={os.environ[var]}"
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(root: Path) -> dict:
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    commit = None
    if (root / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True)
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy_version, "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(), "blas_threads": _blas_threads(),
            "platform": platform.platform(), "git_commit": commit,
            "source_sha256": digest.hexdigest()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    benchmark = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    if not (root / "src" / "mfgl" / "cli.py").is_file():
        print("error: run from the root of an mfgl checkout (no src/mfgl/cli.py here)",
              file=sys.stderr)
        return 2
    child = Child()
    signal.signal(signal.SIGALRM, child.on_alarm)
    signal.setitimer(signal.ITIMER_REAL, BUDGET_S)

    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = root / WORK_DIR / name
    results = root / WORK_DIR / "results"
    shutil.rmtree(work, ignore_errors=True)
    results.mkdir(parents=True, exist_ok=True)
    specs = workloads.write_specs(args.workload, args.seed, work / "cli" / "specs")
    plan = workloads.commands(args.workload, args.seed)
    env = child_env(root)

    passes: list[list[Record]] = []
    seen: dict[tuple, bytes] = {}

    def reference() -> float:
        return run_child(child, [sys.executable, *REFERENCE_ARGV], root, env,
                         work / "reference-stderr.txt")[1]

    def import_cli(_) -> tuple[int | None, float, float, float]:
        return run_child(child, [sys.executable, "-c", "import mfgl.cli"], root, env,
                         work / "setup-stderr.txt")

    def run_one(cmd: workloads.Command) -> Record:
        return run_command(child, cmd, work / "cli", env, specs, seen,
                           import_times=bool(args.trace))

    setup = []
    for (code, wall, _, _), ref in bracketed(reference, import_cli, range(SETUP_REPEATS)):
        if code != 0:
            print("error: `import mfgl.cli` failed:\n"
                  + (work / "setup-stderr.txt").read_text(errors="replace"), file=sys.stderr)
            return 2
        setup.append((wall, ref))

    start = time.perf_counter()
    while not child.expired:
        began = time.perf_counter()
        passes.append([])
        for record, ref in bracketed(reference, run_one, plan):
            record.reference_s = ref
            passes[-1].append(record)
            if child.expired:
                break
        elapsed, last = time.perf_counter() - start, time.perf_counter() - began
        if args.trace or elapsed + last > args.seconds:
            break
    records = [r for p in passes for r in p]

    if args.trace:
        spans_path = results / f"{name}-spans.json"
        spans, replayed = ([], []) if child.expired else replay(
            child, plan, args.workload, args.seed, work, env, spans_path)
        records += replayed
        metrics = trace_metrics(spans, passes[0])
        reported = benchmark["per_layer"]
    else:
        metrics = end_to_end(passes, setup)
        reported = benchmark["end_to_end"]
    signal.setitimer(signal.ITIMER_REAL, 0)
    failed = sum(bool(r.problems) for r in records)
    if child.expired:
        print(f"budget of {BUDGET_S} s exhausted; the running command was stopped",
              file=sys.stderr)

    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}  "
          f"commands {len(records)}  trace {args.trace}")
    for r in records:
        print(f"  {r.wall_s:8.3f} s  {r.norm_wall_s:8.3f} s norm  {r.rss_mb:7.1f} MB  "
              f"exit {r.exit_code}  {' '.join(r.argv)}"
              + "".join(f"\n      FAIL {p}" for p in r.problems))
    units = {m["name"]: m["unit"] for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    for key, value in metrics.items():
        print(f"  {key:32s} {value:14.6g} {units.get(key, UNITS.get(key, ''))}")
    print(f"  {'error_rate':32s} {failed / len(records):14.6g} ratio ({failed}/{len(records)})")

    summary = {"correct": failed == 0 and not child.expired, "attempted": len(records),
               "failed": failed,
               "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                           for m in reported}}
    (results / f"{name}.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(root),
        "setup": [{"wall_s": w, "reference_s": ref} for w, ref in setup],
        "passes": [[vars(r) for r in p] for p in passes],
        "replay": [vars(r) for r in records[sum(map(len, passes)):]],
        "metrics": metrics, "summary": summary}, indent=1))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
