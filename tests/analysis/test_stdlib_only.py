"""The lint path must never import numpy (or the simulator).

CI runs ``repro-lint`` as a fast job with the scientific stack
deliberately unavailable; this test pins the guarantee by importing
the whole analysis front end in a fresh interpreter and asserting the
forbidden modules never loaded.
"""

import subprocess
import sys

_PROBE = """
import sys
from repro.analysis.linter import lint_paths

result = lint_paths(["src/repro/analysis"])
assert result.files_checked > 5, result.files_checked
assert result.effects is not None

from repro.analysis import baseline, sarif
from repro.analysis.cli import build_parser
build_parser()

forbidden = sorted(
    m for m in sys.modules
    if m == "numpy" or m.startswith("numpy.")
    or m in ("repro.gpu", "repro.paging", "repro.host", "repro.core"))
assert not forbidden, f"lint path imported: {forbidden}"
print("ok")
"""


def test_lint_path_is_stdlib_only():
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE],
        capture_output=True, text=True,
        env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin",
             "PYTHONDONTWRITEBYTECODE": "1"})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
