"""The runtime dependencies pyproject.toml declares are the ones riskrank imports."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later

ROOT = Path(__file__).resolve().parents[1]


def test_declared_dependencies_are_the_imported_third_party_modules():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    declared = {re.match(r"[\w.-]+", spec).group().lower() for spec in project["dependencies"]}
    imported = set()
    for path in (ROOT / "src" / "riskrank").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert imported - set(sys.stdlib_module_names) == declared == {"numpy"}


def test_importing_riskrank_loads_no_http_library():
    code = (
        "import sys, riskrank, riskrank.cli, riskrank.remote; "
        "print(sorted({'requests', 'urllib3'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, check=True, timeout=60,
    ).stdout
    assert out == "[]\n"
