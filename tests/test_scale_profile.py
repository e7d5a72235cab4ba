"""``scripts/scale_profile.py`` runs at its smallest scale.

Speed claims cite this script, and it fails when a step's digest differs
between repeats, so two repeats at 500 pairs check that every step still
runs and gives one result. It takes a few seconds.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

STEPS = {
    "synth_dataset", "dense", "lexical", "hybrid", "train_adapter", "compare_adapter_hybrid",
    "build_lexical_index", "lexical_search", "embed_items", "dense_search_many_hash",
    "rrf_fuse", "evaluate_run", "build_dense_index_adapter", "dense_search_many_adapter",
    "cli_eval_hybrid_adapter",
}


def test_scale_profile_smoke(tmp_path):
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "scale_profile.py"),
         "--pairs", "500", "--repeats", "2"],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stderr[-3000:]
    runs = json.loads(result.stdout)["runs"]
    assert sorted(run["mode"] for run in runs) == sorted(STEPS)
    for run in runs:
        assert run["pairs"] == 500
        [digest] = [value for key, value in run.items() if key.endswith("_sha256")]
        assert re.fullmatch("[0-9a-f]{64}", digest), run
        assert type(run["fsum_calls"]) is int and run["fsum_calls"] >= 0, run
        assert len(run["times_s"]) == 2, run
