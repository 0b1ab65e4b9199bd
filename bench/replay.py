"""Traced replay: run a pass's CLI commands in this one process, with spans.

Usage: python replay.py PLAN SPANS

PLAN is a JSON list of mfgl argv lists, run in order through ``mfgl.cli.main``
from the current directory, which must hold the same ``specs/`` as the
untraced run, so the reports come out byte for byte the same.  SPANS
receives ``{"spans": [...], "exit_codes": [...]}`` when every command is
done.  mfgl must be importable (``PYTHONPATH=src``).
"""

from __future__ import annotations

import importlib
import json
import sys
import traceback
from pathlib import Path

from spans import IMPORT_SPAN, LAYERS, Tracer, instrument


def main(plan_path: str, spans_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text())
    tracer = Tracer()
    with tracer.span(IMPORT_SPAN):
        cli = importlib.import_module("mfgl.cli")
    instrument(tracer, {layer: importlib.import_module(f"mfgl.{layer}") for layer in LAYERS})
    codes = []
    for k, argv in enumerate(plan):
        tracer.trace = k
        try:
            codes.append(cli.main(argv))
        except Exception:  # one crashed command must not lose the other spans
            traceback.print_exc()
            codes.append(None)
    Path(spans_path).write_text(json.dumps({"spans": tracer.spans, "exit_codes": codes}))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
