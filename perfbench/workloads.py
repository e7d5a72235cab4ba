"""The benchmark's workloads: set-up, timed operations and output checks.

Every workload makes its inputs from the workload seed and calls the public
entry points a user calls: ``riskrank.benchmark.run_eval`` and
``riskrank.cli.main``. Calls go through the module attribute at call time, so
a traced run sees the wrapped callables. Load is a closed loop from one
client in one process.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import select
import shutil
import subprocess
import sys
import time
import urllib.request
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent

K_LIST = (5, 10, 100)
DIM = 256
SPLIT_RATIO = 0.95
API_KEY_ENV = "RISKRANK_BENCH_API_KEY"
WARM_PER_COLD = 15


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class Op:
    """One timed call: its kind, wall time, report digest and error."""

    kind: str
    seconds: float
    digest: str | None = None
    error: str | None = None


def _timed(kind: str, fn) -> tuple[Op, object]:
    gc.collect()  # start every timed call from a collected heap
    start = time.perf_counter()
    try:
        result = fn()
    except Exception as exc:  # noqa: BLE001  (a failed operation is counted, not fatal)
        return Op(kind, time.perf_counter() - start, error=f"{type(exc).__name__}: {exc}"), None
    return Op(kind, time.perf_counter() - start), result


def _corpus(work: Path, scale: tuple[int, int, int], seed: int):
    """Generate the pair corpus, write it to pairs.jsonl, read it back and split it."""
    from riskrank import corpus

    _, pairs = corpus.synth_dataset(
        n_clusters=scale[0], pairs_per_cluster=scale[1], vocab_per_cluster=scale[2], seed=seed
    )
    path = work / "pairs.jsonl"
    corpus.save_qa_pairs(pairs, path)
    pairs = corpus.load_qa_pairs(path)
    return path, pairs, corpus.split_pairs(pairs, ratio=SPLIT_RATIO, seed=seed)


def postings_len_sum(items: list[str], queries: list[str]) -> int:
    """Posting entries the query terms reach: sum over queries of the
    document frequency of each distinct query term in ``items``."""
    from riskrank.embedding import tokenize

    df: dict[str, int] = {}
    for text in items:
        for term in set(tokenize(text)):
            df[term] = df.get(term, 0) + 1
    return sum(df.get(t, 0) for q in queries for t in set(tokenize(q)))


class EvalWorkload:
    """One ``run_eval`` call per pass, in ``mode`` over the all_contexts pool.

    ``run_eval`` keeps no cache between calls, so every pass is cold.
    """

    round_kinds = ("cold",)
    server_stats: dict[str, float] = {}

    def __init__(self, root: Path, seed: int, scale, mode: str):
        self.root, self.seed, self.scale, self.mode = root, seed, scale, mode

    def setup(self, work: Path) -> None:
        from riskrank.benchmark import EvalConfig
        from riskrank.embedding import HashEmbedder

        _, self.pairs, self.split = _corpus(work, self.scale, self.seed)
        self.queries = len(self.split.test)
        self.items = len(self.pairs)
        self.embedder = HashEmbedder(dim=DIM)
        self.config = EvalConfig(
            retrieval_mode=self.mode, candidate_pool="all_contexts", k_list=K_LIST, seed=self.seed
        )

    def teardown(self) -> None:
        pass

    @staticmethod
    def pass_kind(i: int) -> str:
        return "cold"

    def run_pass(self, kind: str) -> list[Op]:
        from riskrank import benchmark

        op, report = _timed(
            f"{kind}_eval",
            lambda: benchmark.run_eval(self.pairs, self.split, self.embedder, self.config),
        )
        if report is not None:
            op.digest = sha256(report.to_json_bytes())
            if report.query_count != self.queries:
                op.error = f"report has {report.query_count} queries, expected {self.queries}"
        return [op]

    def postings_len_sum(self) -> int:
        return postings_len_sum([p.context for p in self.pairs], [p.question for p in self.split.test])


class FakeServer:
    """The fake embeddings server child process (see fake_server.py)."""

    def __init__(self, root: Path):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "fake_server.py"), "--src", str(root / "src"), "--dim", str(DIM)],
            stdout=subprocess.PIPE,
            cwd=root,
        )
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], 60)
            line = self.proc.stdout.readline().decode() if ready else ""
            if not line.startswith("port "):
                raise RuntimeError(f"fake embeddings server did not start: {line!r}")
            self.url = f"http://127.0.0.1:{int(line.split()[1])}"
        except BaseException:
            self.close()
            raise

    def stats(self) -> dict:
        with urllib.request.urlopen(self.url + "/stats", timeout=30) as resp:
            return json.loads(resp.read())

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


class CliWorkload:
    """``riskrank train`` then ``riskrank eval`` per pass, through a remote embedder.

    A cold pass starts from a new, empty vector cache; a warm pass reuses the
    cache the last cold pass filled, so it must send no HTTP request.
    """

    round_kinds = ("cold", "warm")
    mode = None

    def __init__(self, root: Path, seed: int, scale):
        self.root, self.seed, self.scale = root, seed, scale
        self.server: FakeServer | None = None
        self.caches = 0
        self.server_stats: dict[str, float] = {}

    def setup(self, work: Path) -> None:
        self.work = work
        self.pairs_path, _, split = _corpus(work, self.scale, self.seed)
        self.queries = self.items = len(split.test)
        os.environ[API_KEY_ENV] = "perfbench"
        self.server = FakeServer(self.root)
        self.server_stats = self.server.stats()

    def teardown(self) -> None:
        if self.server is not None:
            self.server.close()
            self.server = None

    @staticmethod
    def pass_kind(i: int) -> str:
        """The first pass and every sixteenth after it are cold, the rest warm,
        so a run has several cold passes spread over it."""
        return "cold" if i % (1 + WARM_PER_COLD) == 0 else "warm"

    def _new_cache(self) -> None:
        """Write a train+eval config whose cache directory does not exist yet."""
        self.caches += 1
        tag = f"{self.caches:03d}"
        cfg = {
            "pairs_path": str(self.pairs_path),
            "cache_dir": str(self.work / f"cache-{tag}"),
            "adapter_dir": str(self.work / f"adapter-{tag}"),
            "jobs": 1,
            "seed": self.seed,
            "split": {"ratio": SPLIT_RATIO, "seed": self.seed},
            "training": {"seed": self.seed},
            "embedder": {
                "kind": "remote",
                "provider_id": "perfbench",
                "model_id": f"hash-d{DIM}",
                "base_url": self.server.url,
                "api_key_env": API_KEY_ENV,
                "dim": DIM,
                "max_batch": 16,
            },
            "eval": {
                "retrieval_mode": "dense",
                "candidate_pool": "test_contexts",
                "k_list": list(K_LIST),
                "seed": self.seed,
            },
        }
        self.config = self.work / f"config-{tag}.json"
        self.config.write_text(json.dumps(cfg, indent=2), encoding="utf-8")
        self.adapter_dir = cfg["adapter_dir"]
        self.eval_out = self.work / f"eval-{tag}"

    def _cli(self, kind: str, argv: list[str]) -> Op:
        from riskrank import cli

        with contextlib.redirect_stdout(io.StringIO()):
            op, code = _timed(kind, lambda: cli.main(argv))
        if op.error is None and code != 0:
            op.error = f"riskrank {argv[0]} exited {code}"
        return op

    def run_pass(self, kind: str) -> list[Op]:
        if kind == "cold":
            self._new_cache()
        shutil.rmtree(self.eval_out, ignore_errors=True)
        before = self.server_stats
        train = self._cli(f"{kind}_train", ["train", "-c", str(self.config), "-o", self.adapter_dir])
        ev = self._cli(f"{kind}_eval", ["eval", "-c", str(self.config), "-o", str(self.eval_out)])
        self.server_stats = self.server.stats()
        reports = sorted(self.eval_out.glob("*/report.json"))
        if ev.error is None:
            if len(reports) == 1:
                ev.digest = sha256(reports[0].read_bytes())
            else:
                ev.error = f"expected one report.json, found {len(reports)}"
        requests = self.server_stats["requests"] - before["requests"]
        if kind == "warm" and requests:
            ev.error = ev.error or f"warm pass sent {requests} HTTP requests"
        return [train, ev]

    def postings_len_sum(self) -> int:
        return 0
