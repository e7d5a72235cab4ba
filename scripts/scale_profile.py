"""Time ``synth_dataset``, ``run_eval``, training, comparison and ``riskrank eval`` at fixed scales.

Usage, from the repository root:

    PYTHONPATH=src python scripts/scale_profile.py [--repeats 3] [--pairs 500,5000,50000]

Each scale is ``synth_dataset(pairs // 100, 100, 50, seed=7)`` split 0.95
with seed 7, embedded by ``HashEmbedder(dim=256)`` and evaluated over the
all_contexts pool with k_list (5, 10, 100). At each scale the script times:

- ``synth_dataset`` itself, making that scale's corpus;
- ``run_eval`` in dense, lexical and hybrid mode (one call embeds, indexes,
  retrieves and scores);
- ``train_adapter`` on the training split, 2 epochs, seed 7;
- ``compare_adapter`` in hybrid mode, base against that adapter: the
  paper's base-versus-finetuned comparison;
- ``HashEmbedder.embed`` alone, over the items;
- the BM25 layers alone: ``build_lexical_index`` over the items and one
  ``lexical_search_many`` call for every test question at depth 100;
- hash-mode ``dense_search_many`` alone: the test questions' hash vectors
  over the items' at depth 100 (hash vectors are sparse rows);
- ``rrf_fuse`` alone: the test questions' hash-mode dense run fused with
  their lexical run in one call at depth 100, as hybrid ``run_eval`` fuses
  them;
- ``evaluate_run`` alone: that fused run scored against the test qrels;
- the finetuned side's dense layers alone: ``build_dense_index`` over the
  adapted item rows and ``dense_search_many`` of the adapted queries at
  depth 100 (adapter outputs are fully dense rows, unlike hash vectors);
- ``riskrank eval`` in hybrid mode through ``cli.main``, with the pairs
  and that adapter saved to a temporary directory: the same comparison
  from the files, including reading the pairs and the adapter and writing
  the report files.

It prints one JSON object: the machine, the settings, and per scale and
step the median and minimum wall time over the repeats, a SHA-256 of the
result (equal in every repeat, or the script fails), the step's peak RSS
and its ``fsum_calls``: the ``math.fsum`` calls of one more repeat, run
untimed after the others with ``math.fsum`` wrapped (exact sums that
``riskrank.embedding`` cannot certify, RRF bins of three or more terms and
the metrics' sums). The digest is of the ``save_qa_pairs`` bytes of the
pairs for ``synth_dataset``, of the report's JSON bytes for
``run_eval``, of the base then the finetuned report's JSON bytes for
``compare_adapter``, of the report's JSON bytes for ``evaluate_run``,
of the ``report.json`` file that ``riskrank eval`` writes, of the
trained float64 weight (and bias) bytes for ``train_adapter``, of the
``postings.jsonl`` file that ``save_index`` writes for
``build_lexical_index``, of the stored float32 rows for
``build_dense_index``, of the float32 rows for ``HashEmbedder.embed``,
and of every query id, hit id and score (as ``float.hex``) for
``lexical_search_many``, ``dense_search_many`` and ``rrf_fuse``.

Each step, with all its repeats, runs in a child process forked for it,
and its ``peak_rss_mb`` is that child's ``ru_maxrss`` as ``os.wait4``
returns it. The child starts with the pages of the parent, which holds
only the data set, the embedder, the trained adapter and the saved files,
so a step's peak is that resident set plus what the step itself
allocates, never what an earlier step allocated. A child builds what its
step needs (the evaluation set, an index to search) before the timing
starts. The script starts no threads, so forking it is safe.

BLAS is held to one thread, as in ``perfbench/``. The test suite runs
it only at 500 pairs (``tests/test_scale_profile.py``): the largest
default scale takes minutes and about 650 MB of memory.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import pickle
import platform
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path
from unittest import mock

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
from riskrank.index import (  # noqa: E402
    build_dense_index, build_lexical_index, dense_search_many, lexical_search_many, rrf_fuse,
    save_index,
)
from riskrank.metrics import evaluate_run  # noqa: E402

SEED = 7
DIM = 256
PAIRS_PER_CLUSTER = 100
VOCAB_PER_CLUSTER = 50
SPLIT_RATIO = 0.95
K_LIST = (5, 10, 100)
DEPTH = 100
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
    """Run ``call`` ``repeats`` times; its result, timings and its one digest,
    and the ``math.fsum`` calls of one more, untimed, repeat."""
    times, digests = [], set()
    for _ in range(repeats):
        start = time.perf_counter()
        result = call()
        times.append(time.perf_counter() - start)
        digests.add(digest(result))
    # The library looks ``math.fsum`` up at call time, so wrapping it counts its calls.
    with mock.patch.object(math, "fsum", wraps=math.fsum) as fsum:
        digests.add(digest(call()))
    if len(digests) != 1:
        raise SystemExit(f"{label}: results differ between repeats")
    return result, {
        "median_s": round(statistics.median(times), 4),
        "min_s": round(min(times), 4),
        "times_s": [round(t, 4) for t in times],
        digest_key: digests.pop(),
        "fsum_calls": fsum.call_count,
    }


def in_child(label: str, step) -> tuple:
    """``step()`` run in a forked child: its ``(entry, value)`` result, with
    the child's peak RSS added to ``entry`` as ``peak_rss_mb``."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_end)
            with os.fdopen(write_end, "wb") as pipe:
                pipe.write(pickle.dumps(step()))
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(write_end)
    with os.fdopen(read_end, "rb") as pipe:
        payload = pipe.read()
    _, status, usage = os.wait4(pid, 0)
    if status != 0:
        raise SystemExit(f"{label}: the child running it failed (wait status {status})")
    entry, value = pickle.loads(payload)
    return {**entry, "peak_rss_mb": round(usage.ru_maxrss / 1024, 1)}, value


def ranking_digest(run) -> str:
    return sha256(json.dumps(
        [[r.query_id, [[i, s.hex()] for i, s in r.hits]] for r in run]
    ).encode())


def profile_scale(pairs_count: int, repeats: int) -> list[dict]:
    _, pairs = synth_dataset(
        pairs_count // PAIRS_PER_CLUSTER, PAIRS_PER_CLUSTER, VOCAB_PER_CLUSTER, SEED
    )
    split = split_pairs(pairs, ratio=SPLIT_RATIO, seed=SEED)
    embedder = HashEmbedder(dim=DIM)
    training = TrainingConfig(epochs=EPOCHS, seed=SEED)
    entries = []

    def run(label: str, step):
        """Run ``step`` in its own child, record its entry and return its value."""
        entry, value = in_child(f"{pairs_count} pairs, {label}", step)
        entry = {"pairs": len(pairs), **entry}
        entries.append(entry)
        print(json.dumps(entry), file=sys.stderr, flush=True)
        return value

    def synth():
        def saved_pairs(dataset) -> str:
            with tempfile.TemporaryDirectory() as tmp:
                save_qa_pairs(dataset[1], Path(tmp) / "pairs.jsonl")
                return sha256((Path(tmp) / "pairs.jsonl").read_bytes())

        _, stats = timed(
            f"{pairs_count} pairs, synth_dataset", repeats,
            lambda: synth_dataset(
                pairs_count // PAIRS_PER_CLUSTER, PAIRS_PER_CLUSTER, VOCAB_PER_CLUSTER, SEED
            ),
            saved_pairs,
            digest_key="pairs_sha256",
        )
        return {"mode": "synth_dataset", **stats}, None

    def eval_config(mode: str) -> EvalConfig:
        return EvalConfig(retrieval_mode=mode, k_list=K_LIST, seed=SEED)

    def eval_set():
        """The evaluation set, its query ids and its query texts."""
        items = build_eval_set(pairs, split.test)
        return items, list(items.queries), list(items.queries.values())

    def eval_mode(mode: str):
        report, stats = timed(
            f"{pairs_count} pairs, {mode}", repeats,
            lambda: run_eval(pairs, split, embedder, eval_config(mode)),
            lambda report: sha256(report.to_json_bytes()),
        )
        return {"mode": mode, "queries": report.query_count, **stats}, None

    def train():
        (adapter, _), stats = timed(
            f"{pairs_count} pairs, train_adapter", repeats,
            lambda: train_adapter(split.train, embedder, training),
            lambda trained: sha256(
                trained[0].weight.tobytes()
                + (b"" if trained[0].bias is None else trained[0].bias.tobytes())
            ),
            digest_key="adapter_sha256",
        )
        return {"mode": "train_adapter", "epochs": EPOCHS,
                "train_pairs": len(split.train), **stats}, adapter

    def compare():
        comparison, stats = timed(
            f"{pairs_count} pairs, compare_adapter", repeats,
            lambda: compare_adapter(pairs, split, embedder, eval_config("hybrid"), adapter),
            lambda c: sha256(c.base.to_json_bytes() + c.finetuned.to_json_bytes()),
        )
        return {"mode": "compare_adapter_hybrid",
                "queries": comparison.base.query_count, **stats}, None

    def saved_postings(index) -> str:
        with tempfile.TemporaryDirectory() as tmp:
            save_index(tmp, lexical=index)
            return sha256((Path(tmp) / "postings.jsonl").read_bytes())

    def lexical_build():
        items, _, _ = eval_set()
        index, stats = timed(
            f"{pairs_count} pairs, build_lexical_index", repeats,
            lambda: build_lexical_index(items.item_ids, items.item_texts),
            saved_postings,
            digest_key="postings_sha256",
        )
        return {"mode": "build_lexical_index", "items": index.count, **stats}, None

    def lexical_searches():
        items, query_ids, query_texts = eval_set()
        index = build_lexical_index(items.item_ids, items.item_texts)
        _, stats = timed(
            f"{pairs_count} pairs, lexical_search_many", repeats,
            lambda: lexical_search_many(index, query_texts, DEPTH, query_ids),
            ranking_digest,
            digest_key="run_sha256",
        )
        return {"mode": "lexical_search", "queries": len(query_ids), **stats}, None

    def embed_items():
        items, _, _ = eval_set()
        rows, stats = timed(
            f"{pairs_count} pairs, HashEmbedder.embed", repeats,
            lambda: embedder.embed(items.item_texts),
            lambda rows: sha256(rows.tobytes()),
            digest_key="rows_sha256",
        )
        return {"mode": "embed_items", "items": len(rows), **stats}, None

    def hash_searches():
        items, query_ids, query_texts = eval_set()
        index = build_dense_index(items.item_ids, embedder.embed(items.item_texts))
        queries = embedder.embed(query_texts)
        _, stats = timed(
            f"{pairs_count} pairs, hash dense_search_many", repeats,
            lambda: dense_search_many(index, queries, DEPTH, query_ids),
            ranking_digest,
            digest_key="run_sha256",
        )
        return {"mode": "dense_search_many_hash", "queries": len(query_ids), **stats}, None

    def hybrid_runs():
        """The evaluation set and the test questions' hash-mode dense run and lexical run."""
        items, query_ids, query_texts = eval_set()
        dense_run = dense_search_many(
            build_dense_index(items.item_ids, embedder.embed(items.item_texts)),
            embedder.embed(query_texts), DEPTH, query_ids,
        )
        lexical_run = lexical_search_many(
            build_lexical_index(items.item_ids, items.item_texts), query_texts, DEPTH, query_ids
        )
        return items, dense_run, lexical_run

    def fusions():
        _, dense_run, lexical_run = hybrid_runs()
        _, stats = timed(
            f"{pairs_count} pairs, rrf_fuse", repeats,
            lambda: rrf_fuse([dense_run, lexical_run], depth=DEPTH, k=DEPTH),
            ranking_digest,
            digest_key="run_sha256",
        )
        return {"mode": "rrf_fuse", "queries": len(dense_run), **stats}, None

    def evaluations():
        items, dense_run, lexical_run = hybrid_runs()
        fused = rrf_fuse([dense_run, lexical_run], depth=DEPTH, k=DEPTH)
        report, stats = timed(
            f"{pairs_count} pairs, evaluate_run", repeats,
            lambda: evaluate_run(fused, items.qrels, K_LIST),
            lambda report: sha256(report.to_json_bytes()),
        )
        return {"mode": "evaluate_run", "queries": report.query_count, **stats}, None

    def adapted():
        items, query_ids, query_texts = eval_set()
        return (
            items, query_ids,
            apply_adapter(adapter, embedder.embed(items.item_texts)),
            apply_adapter(adapter, embedder.embed(query_texts)),
        )

    def dense_build():
        items, _, rows, _ = adapted()
        index, stats = timed(
            f"{pairs_count} pairs, adapter build_dense_index", repeats,
            lambda: build_dense_index(items.item_ids, rows),
            lambda index: sha256(index.matrix.tobytes()),
            digest_key="index_sha256",
        )
        return {"mode": "build_dense_index_adapter", "items": index.count, **stats}, None

    def dense_searches():
        items, query_ids, rows, queries = adapted()
        index = build_dense_index(items.item_ids, rows)
        _, stats = timed(
            f"{pairs_count} pairs, adapter dense_search_many", repeats,
            lambda: dense_search_many(index, queries, DEPTH, query_ids),
            ranking_digest,
            digest_key="run_sha256",
        )
        return {"mode": "dense_search_many_adapter", "queries": len(query_ids), **stats}, None

    run("synth_dataset", synth)
    for mode in MODES:
        run(mode, lambda: eval_mode(mode))
    adapter = run("train_adapter", train)
    run("compare_adapter", compare)
    run("HashEmbedder.embed", embed_items)
    run("build_lexical_index", lexical_build)
    run("lexical_search_many", lexical_searches)
    run("hash dense_search_many", hash_searches)
    run("rrf_fuse", fusions)
    run("evaluate_run", evaluations)
    run("adapter build_dense_index", dense_build)
    run("adapter dense_search_many", dense_searches)

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

        def eval_files():
            _, stats = timed(f"{pairs_count} pairs, riskrank eval", repeats, cli_eval, sha256)
            queries = len(eval_set()[1])
            return {"mode": "cli_eval_hybrid_adapter", "queries": queries, **stats}, None

        run("riskrank eval", eval_files)
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
