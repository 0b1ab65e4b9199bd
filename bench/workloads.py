"""The three workloads: seeded spec files and the CLI commands of one pass.

Every command runs in its own ``python -m mfgl.cli`` child from a directory
that holds ``specs/``; paths in the argv are relative to it, so the same
argv replays byte-identically from another directory.  The CLI sees only
these files and ``--seed``.  Each pass ends by re-running its cheapest
command, so a pass alone shows whether reports repeat byte for byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = ("analyze", "ld-scan", "audit")


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]

    @property
    def kind(self) -> str:
        return self.argv[0]

    def option(self, flag: str) -> str | None:
        return self.argv[self.argv.index(flag) + 1] if flag in self.argv else None

    def options(self) -> dict[str, str]:
        """Flag name (without dashes) -> value; every flag here takes a value."""
        return {self.argv[k].lstrip("-"): self.argv[k + 1] for k in range(1, len(self.argv), 2)}


def random_ising(rng: np.random.Generator, n: int) -> dict:
    """Symmetric N(0, 1/n) couplings with zero diagonal and an N(0, 0.1^2) field."""
    upper = np.triu(rng.normal(0.0, 1.0 / np.sqrt(n), (n, n)), 1)
    return {"type": "ising", "coupling": (upper + upper.T).tolist(),
            "field": rng.normal(0.0, 0.1, n).tolist()}


def random_sparse_fourier(rng: np.random.Generator, n: int, degree: int = 3) -> dict:
    """2n terms on distinct random subsets of size 1..degree, N(0, 0.5^2) coefficients."""
    subsets: set[tuple[int, ...]] = set()
    while len(subsets) < 2 * n:
        size = int(rng.integers(1, degree + 1))
        subsets.add(tuple(sorted(rng.choice(n, size=size, replace=False).tolist())))
    return {"type": "sparse_fourier", "n": n,
            "terms": [{"subset": list(s), "coeff": float(rng.normal(0.0, 0.5))}
                      for s in sorted(subsets)]}


def specs(workload: str, seed: int) -> dict[str, dict]:
    """Spec file name -> spec object; the random ones are drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    cw = lambda beta, n: {"type": "curie_weiss", "beta": beta, "n": n}
    if workload == "analyze":
        return {"cw18.json": cw(1.5, 18),
                "triangle6.json": {"type": "triangle_count", "beta": 1.0, "num_vertices": 6},
                "ising12.json": random_ising(rng, 12)}
    if workload == "ld-scan":
        return {"cw10.json": cw(1.5, 10),
                "cutoff6.json": {"type": "smoothed_cutoff", "inner": cw(1.5, 6),
                                 "t": 0.4, "delta": 0.05},
                "cw8.json": cw(2.0, 8)}
    if workload == "audit":
        return {"cw8.json": cw(2.0, 8), "ising8.json": random_ising(rng, 8),
                "sparse8.json": random_sparse_fourier(rng, 8), "cw10.json": cw(1.5, 10)}
    raise ValueError(f"unknown workload {workload!r}")


def commands(workload: str, seed: int) -> list[Command]:
    """The commands of one pass, in order."""
    s = str(seed)

    def cmd(*argv: str) -> Command:
        return Command(tuple(argv))

    if workload == "analyze":
        out = [cmd("analyze", "--spec", "specs/cw18.json", "--samples", "200", "--seed", s,
                   "--out", "analyze-cw18.json"),
               cmd("analyze", "--spec", "specs/triangle6.json", "--seed", s,
                   "--out", "analyze-triangle6.json"),
               cmd("analyze", "--spec", "specs/ising12.json", "--seed", s,
                   "--out", "analyze-ising12.json")]
    elif workload == "ld-scan":
        out = [cmd("ld-scan", "--spec", "specs/cw10.json", "--t", "0.675", "--delta", "0.05",
                   "--seed", s, "--out", "ld-scan-cw10.json"),
               cmd("fixed-points", "--spec", "specs/cutoff6.json", "--seed", s,
                   "--out", "fixed-points-cutoff6.json"),
               cmd("fixed-points", "--spec", "specs/cw8.json", "--seed", s,
                   "--out", "fixed-points-cw8.json")]
    elif workload == "audit":
        audits = [cmd("audit", "--suite", "proximity", "--spec", f"specs/{name}.json",
                      "--seed", s, "--out", f"audit-{name}.json")
                  for name in ("cw8", "ising8", "sparse8")]
        audits.append(cmd("audit", "--suite", "proximity", "--spec", "specs/cw10.json",
                          "--transport-max-states", "1024", "--seed", s,
                          "--out", "audit-cw10.json"))
        audits.append(cmd("audit", "--suite", "all", "--seed", s, "--out", "audit-all.json"))
        reports = [cmd("report", "--spec", a.option("--out"), "--format", "csv",
                       "--out", a.option("--out").replace(".json", ".csv").replace("audit-", "report-"))
                   for a in audits]
        out = audits + reports
    else:
        raise ValueError(f"unknown workload {workload!r}")
    cheapest = {"analyze": 2, "ld-scan": 2, "audit": 4}[workload]
    return out + [out[cheapest]]


def write_specs(workload: str, seed: int, directory: Path) -> dict[str, dict]:
    directory.mkdir(parents=True, exist_ok=True)
    out = specs(workload, seed)
    for name, spec in out.items():
        (directory / name).write_text(json.dumps(spec))
    return out
