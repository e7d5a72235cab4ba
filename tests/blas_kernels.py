"""Digests of small workloads under a named OpenBLAS kernel, in a child process.

numpy's OpenBLAS picks a kernel for the CPU when it loads; a build with
``DYNAMIC_ARCH`` takes the ``OPENBLAS_CORETYPE`` variable instead, read
once per process. The kernels sum in different orders, so a float64
matmul, and so adapter training, can have different bits under each.
``digests_under`` sets the variable in a child's environment only and runs
this file there; run by hand, ``python tests/blas_kernels.py eval`` prints
the digests of the ``eval`` workload under the default kernel, as JSON.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import numpy as np

import riskrank
from riskrank.benchmark import RETRIEVAL_MODES, EvalConfig, compare_adapter, run_eval
from riskrank.cli import main
from riskrank.corpus import build_eval_set, save_qa_pairs, split_pairs, synth_dataset
from riskrank.embedding import HashEmbedder
from riskrank.finetune import AdapterParams, TrainingConfig, train_adapter
from riskrank.index import (
    build_dense_index, build_lexical_index, dense_search_many, lexical_search_many, rrf_fuse,
)

# The default kernel, and two that every x86-64 CPU runs. A kernel the CPU
# lacks, such as SkylakeX without AVX-512, would kill the child with SIGILL.
KERNELS = ("", "Prescott", "Nehalem")


def why_no_kernel_switch() -> str | None:
    """Why ``OPENBLAS_CORETYPE`` cannot pick the kernel here, or None."""
    if platform.machine().lower() not in ("x86_64", "amd64"):
        return f"the kernel switch is tested on x86-64 only, this is {platform.machine()}"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:  # numpy < 1.25 cannot report its BLAS as data
        return "this numpy does not report its BLAS build"
    if "openblas" not in str(blas.get("name", "")).lower():
        return f"numpy's BLAS is {blas.get('name')!r}, not OpenBLAS"
    if "DYNAMIC_ARCH" not in str(blas.get("openblas configuration", "")):
        return "numpy's OpenBLAS is built without DYNAMIC_ARCH, so it has one kernel"
    return None


def digests_under(kernel: str, workload: str) -> dict[str, str]:
    """The digests of ``workload`` run in a child process under ``kernel``
    ("" for the default)."""
    env = dict(os.environ, PYTHONPATH=str(Path(riskrank.__file__).resolve().parents[1]))
    env.pop("OPENBLAS_CORETYPE", None)
    if kernel:
        env["OPENBLAS_CORETYPE"] = kernel
    done = subprocess.run(
        [sys.executable, __file__, workload], env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert done.returncode == 0, f"{workload} under {kernel or 'the default'}: {done.stderr}"
    return json.loads(done.stdout)


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run_digest(run) -> str:
    """The query ids, hit ids and scores (as ``float.hex``) of a run."""
    rankings = [[r.query_id, [[i, score.hex()] for i, score in r.hits]] for r in run]
    return _digest(json.dumps(rankings).encode())


def _base_side(pairs, split) -> dict[str, str]:
    """The base embedder's dense index rows, its dense, lexical and hybrid runs,
    and the ``report.json`` of a hybrid ``riskrank eval``. A finetuned side
    is left out: adapted rows come from a float64 BLAS product, so their
    scores are deterministic per kernel only."""
    embedder = HashEmbedder(dim=64, seed=0)
    eval_set = build_eval_set(pairs, split.test)
    query_ids, texts = list(eval_set.queries), list(eval_set.queries.values())
    dense = build_dense_index(eval_set.item_ids, embedder.embed(list(eval_set.item_texts)))
    dense_run = dense_search_many(dense, embedder.embed(texts), 100, query_ids)
    lexical = build_lexical_index(eval_set.item_ids, eval_set.item_texts)
    lexical_run = lexical_search_many(lexical, texts, 100, query_ids)
    digests = {
        "index_rows": _digest(dense.matrix.tobytes()),
        "dense_run": _run_digest(dense_run),
        "lexical_run": _run_digest(lexical_run),
        "hybrid_run": _run_digest(rrf_fuse([dense_run, lexical_run], k=100)),
    }
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        save_qa_pairs(pairs, work / "pairs.jsonl")
        config = {
            "pairs_path": str(work / "pairs.jsonl"), "split": {"ratio": 0.8, "seed": 7},
            "embedder": {"kind": "hash", "dim": 64, "seed": 0},
            "eval": {"retrieval_mode": "hybrid"},
        }
        (work / "cfg.json").write_text(json.dumps(config))
        with redirect_stdout(StringIO()):
            code = main(["eval", "-c", str(work / "cfg.json"), "-o", str(work / "runs")])
        assert code == 0, f"riskrank eval exited {code}"
        [run_dir] = (work / "runs").iterdir()
        digests["cli_eval_report"] = _digest((run_dir / "report.json").read_bytes())
    return digests


def _eval() -> dict[str, str]:
    """A raw float64 matmul, ``run_eval`` in every mode, ``compare_adapter``
    (hybrid) with a fixed adapter, and the base side's runs, index rows and
    CLI report, on a corpus of 300 pairs."""
    rng = np.random.default_rng(0)
    product = rng.normal(size=(64, 256)) @ rng.normal(size=(256, 300))
    digests = {"matmul": _digest(product.tobytes())}
    pairs = synth_dataset(5, 60, 50, seed=7)[1]
    split = split_pairs(pairs, 0.8, 7)
    embedder = HashEmbedder(dim=64, seed=0)
    for mode in RETRIEVAL_MODES:
        report = run_eval(pairs, split, embedder, EvalConfig(retrieval_mode=mode))
        digests[mode] = _digest(report.to_json_bytes())
    adapter = AdapterParams(weight=np.eye(64) + 0.1 * rng.normal(size=(64, 64)))
    comparison = compare_adapter(
        pairs, split, embedder, EvalConfig(retrieval_mode="hybrid"), adapter
    )
    digests["base"] = _digest(comparison.base.to_json_bytes())
    digests["finetuned"] = _digest(comparison.finetuned.to_json_bytes())
    digests.update(_base_side(pairs, split))
    return digests


def _trained(pairs, config: TrainingConfig) -> dict[str, str]:
    """The float64 weight, bias if any, and every batch's (loss, accuracy)."""
    adapter, report = train_adapter(pairs, HashEmbedder(dim=64, seed=0), config)
    stats = json.dumps([[b.loss, b.in_batch_accuracy] for b in report.batches])
    digests = {"weight": _digest(adapter.weight.tobytes())}
    if adapter.bias is not None:
        digests["bias"] = _digest(adapter.bias.tobytes())
    digests["batches"] = _digest(stats.encode())
    return digests


def _training() -> dict[str, str]:
    """Two small training runs: the default path, and a bias trained on
    batches in the pairs' own order (keys prefixed ``bias_unshuffled.``)."""
    pairs = split_pairs(synth_dataset(4, 30, 50, seed=7)[1], 0.95, 7).train
    digests = _trained(pairs, TrainingConfig(batch_size=8, epochs=2, seed=7))
    unshuffled = TrainingConfig(
        batch_size=8, epochs=2, seed=7, use_bias=True, shuffle_each_epoch=False
    )
    for key, value in _trained(pairs, unshuffled).items():
        digests[f"bias_unshuffled.{key}"] = value
    return digests


if __name__ == "__main__":
    print(json.dumps({"eval": _eval, "training": _training}[sys.argv[1]]()))
