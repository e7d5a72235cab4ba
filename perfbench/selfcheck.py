"""Self-check of the benchmark harness at a tiny scale, from the repository root.

    python3 perfbench/selfcheck.py

Runs every workload on a tiny corpus, untraced and traced, and fails unless
every operation succeeds, the traced run's report digests equal the
untraced ones, self times are non-negative and sum to no more than the traced
total, the warm pass sends no HTTP request and hits the cache on every read,
and ``index.dense_rows_scored`` equals queries x items on eval_hybrid. It also
checks that BENCHMARK.json names exactly the metrics run.py prints.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import run


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    run.limit_blas_threads()
    problems = []
    spec = json.loads(run.SPEC.read_text(encoding="utf-8"))
    for section, units in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in spec[section]}
        if listed != units:
            problems.append(f"BENCHMARK.json {section} differs from run.py")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(run.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.py")
    for name in run.WORKLOADS:
        for trace in (False, True):
            result = run.run(name, seed=7, seconds=0.5, trace=trace, root=root, tiny=True)
            label = f"{name} trace={int(trace)}"
            problems += [f"{label}: {e}" for e in result["_errors"]]
            metrics = {k: v["value"] for k, v in result["metrics"].items()}
            print(label, json.dumps(result["_info"]), json.dumps(metrics))
            if trace and name == "cli_remote_train_eval":
                if metrics["remote.http_requests"] < 1 or metrics["cache.put_calls"] < 1:
                    problems.append(f"{label}: cold pass made no request or cache write")
    for line in problems:
        print("SELF-CHECK FAILED:", line)
    print("self-check", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
