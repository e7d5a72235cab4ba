"""Pin the SHA-256 of each workload's report for seeds 0-20.

    python3 perfbench/pin_digests.py

Run from the repository root. It makes one cold pass per workload and seed
with the current code and writes the report digests into digests.json, which
run.py checks every report against. Re-pin only when a change is meant to
change the reports.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

import run

SEEDS = range(0, 21)


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    run.limit_blas_threads()
    work_root = root / ".perfbench_work" / f"pin-{os.getpid()}"
    os.environ["RISKRANK_CACHE_DIR"] = str(work_root / "default-cache")
    pins: dict[str, dict[str, str]] = {}
    try:
        for name in run.WORKLOADS:
            for seed in SEEDS:
                wl = run.make_workload(name, root, seed)
                try:
                    run.set_up(wl, work_root, f"{name}-{seed}")
                    (op,) = [op for op in wl.run_pass("cold") if op.kind.endswith("_eval")]
                finally:
                    wl.teardown()
                if op.error is not None:
                    print(f"{name} seed {seed}: {op.error}", file=sys.stderr)
                    return 1
                pins.setdefault(name, {})[str(seed)] = op.digest
                print(name, seed, op.digest, flush=True)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
    (run.HERE / "digests.json").write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
