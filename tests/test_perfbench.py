"""The benchmark harness's self-check passes against the source tree.

It runs every workload at a tiny scale, untraced and traced, so a change
that stops routing cache lookups through ``VectorCache.get``, breaks the
warm pass or makes the traced and untraced reports differ fails here.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selfcheck_passes():
    result = subprocess.run(
        [sys.executable, "perfbench/selfcheck.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stdout[-3000:] + result.stderr[-3000:]
    assert result.stdout.rstrip().endswith("self-check passed")
