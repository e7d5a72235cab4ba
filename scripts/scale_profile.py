"""Time ``run_eval``, ``train_adapter``, ``compare_adapter`` and ``riskrank eval`` at fixed scales.

Usage, from the repository root:

    PYTHONPATH=src python scripts/scale_profile.py [--repeats 3] [--pairs 500,5000,50000]

Each scale is ``synth_dataset(pairs // 100, 100, 50, seed=7)`` split 0.95
with seed 7, embedded by ``HashEmbedder(dim=256)`` and evaluated over the
all_contexts pool with k_list (5, 10, 100). At each scale the script times:

- ``run_eval`` in dense, lexical and hybrid mode (one call embeds, indexes,
  retrieves and scores);
- ``train_adapter`` on the training split, 2 epochs, seed 7;
- ``compare_adapter`` in hybrid mode, base against that adapter: the
  paper's base-versus-finetuned comparison;
- the finetuned side's dense layers alone: ``build_dense_index`` over the
  adapted item rows and ``dense_search_many`` of the adapted queries at
  depth 100 (adapter outputs are fully dense rows, unlike hash vectors);
- ``riskrank eval`` in hybrid mode through ``cli.main``, with the pairs
  and that adapter saved to a temporary directory: the same comparison
  from the files, including reading the pairs and the adapter and writing
  the report files.

It prints one JSON object: the machine, the settings, and per scale and
step the median and minimum wall time over the repeats, a SHA-256 of the
result (equal in every repeat, or the script fails) and the process's peak
RSS so far. The digest is of the report's JSON bytes for ``run_eval``, of
the base then the finetuned report's JSON bytes for ``compare_adapter``,
of the ``report.json`` file that ``riskrank eval`` writes, of the
trained float64 weight (and bias) bytes for ``train_adapter``, of the
stored float32 rows for ``build_dense_index`` and of every query id, hit
id and score (as ``float.hex``) for ``dense_search_many``.
Scales run in increasing order, so a scale's peak RSS is its own.

BLAS is held to one thread, as in ``perfbench/``. The script is not part
of the test suite: the largest default scale takes minutes and about
650 MB of memory.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import numpy as np  # noqa: E402  (after the BLAS thread limit)

from riskrank import cli  # noqa: E402
from riskrank.benchmark import EvalConfig, compare_adapter, run_eval  # noqa: E402
from riskrank.corpus import build_eval_set, save_qa_pairs, split_pairs, synth_dataset  # noqa: E402
from riskrank.embedding import HashEmbedder  # noqa: E402
from riskrank.finetune import (  # noqa: E402
    TrainingConfig, apply_adapter, save_adapter, train_adapter,
)
from riskrank.index import build_dense_index, dense_search_many  # noqa: E402

SEED = 7
DIM = 256
PAIRS_PER_CLUSTER = 100
VOCAB_PER_CLUSTER = 50
SPLIT_RATIO = 0.95
K_LIST = (5, 10, 100)
MODES = ("dense", "lexical", "hybrid")
EPOCHS = 2


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


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def timed(label: str, repeats: int, call, digest, digest_key="report_sha256") -> tuple:
    """Run ``call`` ``repeats`` times; its result, timings and its one digest."""
    times, digests = [], set()
    for _ in range(repeats):
        start = time.perf_counter()
        result = call()
        times.append(time.perf_counter() - start)
        digests.add(digest(result))
    if len(digests) != 1:
        raise SystemExit(f"{label}: results differ between repeats")
    return result, {
        "median_s": round(statistics.median(times), 4),
        "min_s": round(min(times), 4),
        "times_s": [round(t, 4) for t in times],
        digest_key: digests.pop(),
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }


def profile_scale(pairs_count: int, repeats: int) -> list[dict]:
    _, pairs = synth_dataset(
        pairs_count // PAIRS_PER_CLUSTER, PAIRS_PER_CLUSTER, VOCAB_PER_CLUSTER, SEED
    )
    split = split_pairs(pairs, ratio=SPLIT_RATIO, seed=SEED)
    embedder = HashEmbedder(dim=DIM)
    entries = []

    def record(entry: dict) -> None:
        entries.append(entry)
        print(json.dumps(entry), file=sys.stderr, flush=True)

    def eval_config(mode: str) -> EvalConfig:
        return EvalConfig(retrieval_mode=mode, k_list=K_LIST, seed=SEED)

    for mode in MODES:
        report, stats = timed(
            f"{pairs_count} pairs, {mode}", repeats,
            lambda: run_eval(pairs, split, embedder, eval_config(mode)),
            lambda report: sha256(report.to_json_bytes()),
        )
        record({"pairs": len(pairs), "mode": mode, "queries": report.query_count, **stats})

    training = TrainingConfig(epochs=EPOCHS, seed=SEED)
    (adapter, _), stats = timed(
        f"{pairs_count} pairs, train_adapter", repeats,
        lambda: train_adapter(split.train, embedder, training),
        lambda trained: sha256(
            trained[0].weight.tobytes()
            + (b"" if trained[0].bias is None else trained[0].bias.tobytes())
        ),
        digest_key="adapter_sha256",
    )
    record({"pairs": len(pairs), "mode": "train_adapter", "epochs": EPOCHS,
            "train_pairs": len(split.train), **stats})

    comparison, stats = timed(
        f"{pairs_count} pairs, compare_adapter", repeats,
        lambda: compare_adapter(pairs, split, embedder, eval_config("hybrid"), adapter),
        lambda c: sha256(c.base.to_json_bytes() + c.finetuned.to_json_bytes()),
    )
    record({"pairs": len(pairs), "mode": "compare_adapter_hybrid",
            "queries": comparison.base.query_count, **stats})

    eval_set = build_eval_set(pairs, split.test)
    query_ids = list(eval_set.queries)
    items = apply_adapter(adapter, embedder.embed(eval_set.item_texts))
    queries = apply_adapter(adapter, embedder.embed(list(eval_set.queries.values())))
    index, stats = timed(
        f"{pairs_count} pairs, adapter build_dense_index", repeats,
        lambda: build_dense_index(eval_set.item_ids, items),
        lambda index: sha256(index.matrix.tobytes()),
        digest_key="index_sha256",
    )
    record({"pairs": len(pairs), "mode": "build_dense_index_adapter",
            "items": index.count, **stats})
    _, stats = timed(
        f"{pairs_count} pairs, adapter dense_search_many", repeats,
        lambda: dense_search_many(index, queries, 100, query_ids),
        lambda run: sha256(json.dumps(
            [[r.query_id, [[i, s.hex()] for i, s in r.hits]] for r in run]
        ).encode()),
        digest_key="run_sha256",
    )
    record({"pairs": len(pairs), "mode": "dense_search_many_adapter",
            "queries": len(query_ids), **stats})
    del items, queries, index

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        save_qa_pairs(pairs, work / "pairs.jsonl")
        save_adapter(work / "adapter", adapter, training)
        config = {
            "pairs_path": str(work / "pairs.jsonl"),
            "adapter_dir": str(work / "adapter"),
            "split": {"ratio": SPLIT_RATIO, "seed": SEED},
            "embedder": {"kind": "hash", "dim": DIM},
            "eval": {"retrieval_mode": "hybrid", "k_list": list(K_LIST), "seed": SEED},
        }
        (work / "eval.json").write_text(json.dumps(config), encoding="utf-8")

        def cli_eval() -> bytes:
            """One ``riskrank eval`` into a new output directory; its report.json bytes."""
            out = Path(tempfile.mkdtemp(dir=work))
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["eval", "-c", str(work / "eval.json"), "-o", str(out)])
            if code != 0:
                raise SystemExit(f"riskrank eval exited {code}")
            (report,) = out.glob("*/report.json")
            return report.read_bytes()

        _, stats = timed(f"{pairs_count} pairs, riskrank eval", repeats, cli_eval, sha256)
    record({"pairs": len(pairs), "mode": "cli_eval_hybrid_adapter",
            "queries": comparison.base.query_count, **stats})
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
        "k_list": list(K_LIST), "pool": "all_contexts", "epochs": EPOCHS,
        "repeats": args.repeats,
    }
    runs = [entry for scale in scales for entry in profile_scale(scale, args.repeats)]
    print(json.dumps({"machine": machine(), "settings": settings, "runs": runs}, indent=2))


if __name__ == "__main__":
    main()
