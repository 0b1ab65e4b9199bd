"""The README's library example runs as written."""

import re
import subprocess
import sys
from pathlib import Path

from conftest import src_env

ROOT = Path(__file__).parents[1]


def test_readme_library_example_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(),
                        re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    done = subprocess.run([sys.executable, "-c", blocks[0]], env=src_env(), capture_output=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr.decode()
