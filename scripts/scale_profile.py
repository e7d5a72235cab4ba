"""Time ``run_eval`` in dense, lexical and hybrid mode at fixed synthetic scales.

Usage, from the repository root:

    PYTHONPATH=src python scripts/scale_profile.py [--repeats 3] [--pairs 500,5000,50000]

Each scale is ``synth_dataset(pairs // 100, 100, 50, seed=7)`` split 0.95
with seed 7, embedded by ``HashEmbedder(dim=256)`` and evaluated over the
all_contexts pool with k_list (5, 10, 100). One timed ``run_eval`` call
embeds, indexes, retrieves and scores. The script prints one JSON object:
the machine, the settings, and per scale and mode the median and minimum
wall time over the repeats, the SHA-256 of the report's JSON bytes (equal
in every repeat, or the script fails), and the process's peak RSS so far.
Scales run in increasing order, so a scale's peak RSS is its own.

BLAS is held to one thread, as in ``perfbench/``. The script is not part
of the test suite: the largest default scale takes minutes and about
600 MB of memory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import numpy as np  # noqa: E402  (after the BLAS thread limit)

from riskrank.benchmark import EvalConfig, run_eval  # noqa: E402
from riskrank.corpus import split_pairs, synth_dataset  # noqa: E402
from riskrank.embedding import HashEmbedder  # noqa: E402

SEED = 7
DIM = 256
PAIRS_PER_CLUSTER = 100
VOCAB_PER_CLUSTER = 50
SPLIT_RATIO = 0.95
K_LIST = (5, 10, 100)
MODES = ("dense", "lexical", "hybrid")


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(
                line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")
            )
    except (OSError, StopIteration):
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
    }


def profile_scale(pairs_count: int, repeats: int) -> list[dict]:
    _, pairs = synth_dataset(
        pairs_count // PAIRS_PER_CLUSTER, PAIRS_PER_CLUSTER, VOCAB_PER_CLUSTER, SEED
    )
    split = split_pairs(pairs, ratio=SPLIT_RATIO, seed=SEED)
    embedder = HashEmbedder(dim=DIM)
    entries = []
    for mode in MODES:
        config = EvalConfig(retrieval_mode=mode, k_list=K_LIST, seed=SEED)
        times, digests = [], set()
        for _ in range(repeats):
            start = time.perf_counter()
            report = run_eval(pairs, split, embedder, config)
            times.append(time.perf_counter() - start)
            digests.add(hashlib.sha256(report.to_json_bytes()).hexdigest())
        if len(digests) != 1:
            raise SystemExit(f"{pairs_count} pairs, {mode}: reports differ between repeats")
        entries.append({
            "pairs": len(pairs),
            "mode": mode,
            "queries": report.query_count,
            "median_s": round(statistics.median(times), 4),
            "min_s": round(min(times), 4),
            "times_s": [round(t, 4) for t in times],
            "report_sha256": digests.pop(),
            "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        })
        print(json.dumps(entries[-1]), file=sys.stderr, flush=True)
    return entries


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--pairs", default="500,5000,50000", help="comma-separated pair counts")
    args = parser.parse_args(argv)
    scales = sorted(int(p) for p in args.pairs.split(","))
    settings = {
        "seed": SEED, "dim": DIM, "pairs_per_cluster": PAIRS_PER_CLUSTER,
        "vocab_per_cluster": VOCAB_PER_CLUSTER, "split": SPLIT_RATIO,
        "k_list": list(K_LIST), "pool": "all_contexts", "repeats": args.repeats,
    }
    runs = [entry for scale in scales for entry in profile_scale(scale, args.repeats)]
    print(json.dumps({"machine": machine(), "settings": settings, "runs": runs}, indent=2))


if __name__ == "__main__":
    main()
