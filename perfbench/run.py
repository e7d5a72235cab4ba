"""riskrank benchmark: one command per workload, run from the repository root.

    python3 perfbench/run.py --workload eval_hybrid --seed 7 --seconds 40 --trace 0

With ``--trace 0`` it sets the workload up several times before and after
its passes (the median is ``setup_s``). After one untimed warm-up round, it
makes cold and warm passes until ``--seconds`` have gone by and each kind of
pass has been made ``MIN_SAMPLES`` times, checks every report against its
pinned SHA-256 and prints the end-to-end metrics, pass times scaled to a
reference speed (see REF_S). With ``--trace 1`` it makes a traced round of
set-up plus passes between two untraced ones, and prints the per-layer
metrics of the traced round and the tracing overhead. The last line of
standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. See README.md.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = HERE.parent / "BENCHMARK.json"

# Corpus scale (clusters, pairs per cluster, vocabulary per cluster) and
# retrieval mode of each workload; why each exists is stated in SPEC.
WORKLOADS = {
    "eval_hybrid": {
        "scale": (30, 100, 50),
        "tiny": (5, 20, 50),
        "mode": "hybrid",
    },
    "cli_remote_train_eval": {
        "scale": (10, 100, 50),
        "tiny": (2, 20, 50),
        "mode": None,
    },
}

# Set-ups timed before the passes and again after them, so that setup_s,
# the median of both groups, samples the host at both ends of the run.
SETUP_REPEATS = 5
# Every median a timed run reports rests on at least this many samples, so a
# run goes on past --seconds until each kind of pass has been made this often.
MIN_SAMPLES = 3

# The cores of a shared host change speed: for ten seconds to over a minute
# at a time, the same code runs up to ~1.9x slower, and no in-process
# measure sees why. So every timed pass is preceded by REF_LOOPS runs of
# fixed work (reference_loop), one more set follows the last pass, and each
# pass time is scaled by REF_S / (mean reference time just before and just
# after the pass): it is the time the pass would take at the speed at which
# the reference takes REF_S. setup_s, which is mostly process start-up and
# file I/O, is not scaled. Raw times are in info.
REF_S = 0.04
REF_LOOPS = 2

# One BLAS thread: the client is one process on one core, and the other core
# stays for the fake server. With two BLAS threads, a warm train pass on a
# 2-core machine ran about 8x slower whenever another process kept one core
# busy, which made the timings depend on whatever else was running.
BLAS_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def limit_blas_threads() -> None:
    """Set one BLAS thread; call before numpy is first imported."""
    for name in BLAS_THREAD_ENV:
        os.environ[name] = "1"

END_TO_END = {
    "setup_s": "s",
    "eval_s": "s",
    "queries_per_s": "1/s",
    "cold_s": "s",
    "warm_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "index.dense_search_s": "s",
    "index.dense_calls": "count",
    "index.dense_rows_scored": "count",
    "index.dense_build_s": "s",
    "index.lexical_search_s": "s",
    "index.lexical_build_s": "s",
    "index.bm25_score_calls": "count",
    "index.postings_len_sum": "count",
    "index.rrf_s": "s",
    "index.rerank_s": "s",
    "embedding.embed_s": "s",
    "embedding.texts": "count",
    "remote.embed_calls": "count",
    "remote.http_requests": "count",
    "remote.texts_sent": "count",
    "remote.texts_per_request": "texts/request",
    "remote.embed_s": "s",
    "remote.server_busy_s": "s",
    "cache.get_calls": "count",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.hit_ratio": "hits/get",
    "cache.get_s": "s",
    "cache.put_calls": "count",
    "cache.put_s": "s",
    "finetune.train_s": "s",
    "finetune.self_s": "s",
    "finetune.base_embed_calls": "count",
    "finetune.epoch_s": "s",
    "finetune.adapt_calls": "count",
    "finetune.adapt_s": "s",
    "metrics.evaluate_s": "s",
    "benchmark.run_eval_self_s": "s",
    "benchmark.emit_s": "s",
    "cli.self_s": "s",
    "corpus.synth_s": "s",
    "corpus.split_s": "s",
    "corpus.load_s": "s",
    "failed_frac": "failed/attempted",
    "attempted_ops": "count",
    "trace.total_s": "s",
    "trace.untraced_total_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


def environment(workload: str, seed: int) -> dict:
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "why": workload_why(workload),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


def _blas_threads() -> int | str:
    """Thread count of the loaded OpenBLAS, asked through its C API."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            paths = {line.split()[-1] for line in handle if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return "unknown"
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return "unknown"


def workload_why(workload: str) -> str:
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    return next(w["why"] for w in spec["workloads"] if w["name"] == workload)


def pinned_digest(workload: str, seed: int) -> str | None:
    pins = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
    return pins.get(workload, {}).get(str(seed))


def make_workload(name: str, root: Path, seed: int, tiny: bool = False):
    from workloads import CliWorkload, EvalWorkload

    spec = WORKLOADS[name]
    scale = spec["tiny" if tiny else "scale"]
    if spec["mode"] is None:
        return CliWorkload(root, seed, scale)
    return EvalWorkload(root, seed, scale, spec["mode"])


def set_up(wl, work_root: Path, label: str) -> float:
    work = work_root / label
    work.mkdir(parents=True)
    start = time.perf_counter()
    wl.setup(work)
    return time.perf_counter() - start


def _check_digests(ops, expected: str | None) -> None:
    """Fail each eval op whose report digest differs from the pinned one,
    or, with no pin, from the first report of the run."""
    for op in ops:
        if op.kind.endswith("_eval") and op.error is None:
            expected = expected or op.digest
            if op.digest != expected:
                op.error = f"report digest {op.digest} != expected {expected}"


def _median(values):
    return statistics.median(values) if values else 0.0


@functools.cache
def _reference_rows():
    import numpy as np

    rng = np.random.default_rng(0)
    return rng.standard_normal((1000, 256)).astype(np.float32), rng.standard_normal(256)


def reference_loop() -> float:
    """Wall time of fixed work of the two kinds the host's slow spells slow
    down unequally: a pure-Python loop of integer, float and dict work, and
    a memory-bound pass that widens a 1000 x 256 float32 matrix, scales it,
    lists its rows and sums each with math.fsum."""
    matrix, weights = _reference_rows()
    start = time.perf_counter()
    total, table = 0, {}
    for i in range(60_000):
        total += i * i % 7
        table[i % 5003] = table.get(i % 5003, 0.0) + i * 0.5
    for row in (matrix.astype(weights.dtype) * weights).tolist():
        math.fsum(row)
    return time.perf_counter() - start


def timed_run(wl, work_root: Path, seconds: float, expected: str | None):
    setups = []

    def time_set_ups() -> None:
        for _ in range(SETUP_REPEATS):
            wl.teardown()
            setups.append(set_up(wl, work_root, f"setup-{len(setups)}"))

    time_set_ups()
    warm_up = [op for kind in wl.round_kinds for op in wl.run_pass(kind)]
    start = time.perf_counter()
    passes, refs = [], []
    while time.perf_counter() - start < seconds or any(
        sum(k == kind for k, _ in passes) < MIN_SAMPLES for kind in wl.round_kinds
    ):
        kind = wl.pass_kind(len(passes))
        refs.append([reference_loop() for _ in range(REF_LOOPS)])
        passes.append((kind, wl.run_pass(kind)))
    refs.append([reference_loop() for _ in range(REF_LOOPS)])
    time_set_ups()
    ops = warm_up + [op for _, pass_ops in passes for op in pass_ops]
    _check_digests(ops, expected)

    # Each pass is scaled by the reference times taken just before and just after it.
    scales = [REF_S / statistics.fmean(before + after) for before, after in zip(refs, refs[1:])]
    raw = {"cold": [], "warm": [], "eval": []}
    scaled = {"cold": [], "warm": [], "eval": []}
    steady = "warm" if "warm" in wl.round_kinds else "cold"
    for scale, (kind, pass_ops) in zip(scales, passes):
        times = [(kind, sum(op.seconds for op in pass_ops))]
        if kind == steady:
            times += [("eval", op.seconds) for op in pass_ops if op.kind.endswith("_eval")]
        for key, seconds in times:
            raw[key].append(seconds)
            scaled[key].append(seconds * scale)
    eval_s = _median(scaled["eval"])
    metrics = {
        "setup_s": _median(setups),
        "eval_s": eval_s,
        "queries_per_s": wl.queries / eval_s,
        "cold_s": _median(scaled["cold"]),
        "warm_s": _median(scaled[steady]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = {"setup_s": setups, "raw_s": raw, "reference_s": refs, "scales": scales}
    return ops, metrics, [], info


def trace_run(wl, work_root: Path, expected: str | None):
    from tracer import Tracer, layer_metrics

    def one_round(label: str):
        start = time.perf_counter()
        set_up(wl, work_root, label)
        before = dict(wl.server_stats)
        ops, checks = [], []
        for kind in wl.round_kinds:
            hits, misses = tracer.counters["cache.hits"], tracer.counters["cache.misses"]
            requests = wl.server_stats.get("requests", 0)
            ops += wl.run_pass(kind)
            checks.append((
                kind,
                tracer.counters["cache.hits"] - hits,
                tracer.counters["cache.misses"] - misses,
                wl.server_stats.get("requests", 0) - requests,
            ))
        total = time.perf_counter() - start
        server = {k: wl.server_stats.get(k, 0) - before.get(k, 0) for k in ("requests", "texts", "busy_s")}
        wl.teardown()
        return ops, checks, total, server

    # Untraced rounds before and after the traced one, so that drift over
    # the run does not read as tracing overhead.
    tracer = Tracer()
    before_ops, _, before_total, _ = one_round("untraced-1")
    tracer.install()
    try:
        traced_ops, checks, traced_total, server = one_round("traced")
    finally:
        tracer.uninstall()
    after_ops, _, after_total, _ = one_round("untraced-2")
    untraced_total = (before_total + after_total) / 2
    ops = before_ops + traced_ops + after_ops
    _check_digests(ops, expected)

    metrics = layer_metrics(tracer)
    metrics["index.postings_len_sum"] = wl.postings_len_sum()
    metrics["remote.http_requests"] = server["requests"]
    metrics["remote.texts_sent"] = server["texts"]
    metrics["remote.texts_per_request"] = server["texts"] / server["requests"] if server["requests"] else 0.0
    metrics["remote.server_busy_s"] = server["busy_s"]
    metrics["trace.total_s"] = traced_total
    metrics["trace.untraced_total_s"] = untraced_total
    metrics["trace.overhead_s"] = traced_total - untraced_total

    problems = []
    if metrics.pop("trace.min_self_s") < -1e-9:
        problems.append("a traced span has negative self time")
    if metrics.pop("trace.self_sum_s") > traced_total + 1e-9:
        problems.append("traced self times sum to more than the traced total")
    for kind, hits, misses, requests in checks:
        if kind == "warm" and (requests or misses or not hits):
            problems.append(f"warm pass: {requests} HTTP requests, {hits} cache hits, {misses} misses")
    if wl.mode is not None:
        want = len(wl.round_kinds) * wl.queries * wl.items
        if metrics["index.dense_rows_scored"] != want:
            problems.append(f"index.dense_rows_scored {metrics['index.dense_rows_scored']} != {want}")
    info = {"round": list(wl.round_kinds), "pass_checks": checks}
    return ops, metrics, problems, info


def run(name: str, seed: int, seconds: float, trace: bool, root: Path, tiny: bool = False) -> dict:
    """Run one workload; returns the result object the command prints last."""
    work_root = root / ".perfbench_work" / f"{name}-{os.getpid()}"
    shutil.rmtree(work_root, ignore_errors=True)
    os.environ["RISKRANK_CACHE_DIR"] = str(work_root / "default-cache")
    expected = None if tiny else pinned_digest(name, seed)
    wl = make_workload(name, root, seed, tiny)
    try:
        if trace:
            ops, values, problems, info = trace_run(wl, work_root, expected)
        else:
            ops, values, problems, info = timed_run(wl, work_root, seconds, expected)
    finally:
        wl.teardown()
        shutil.rmtree(work_root, ignore_errors=True)
    info.update(queries=wl.queries, items=wl.items)
    failed = [op for op in ops if op.error is not None]
    if trace:
        values["failed_frac"] = len(failed) / len(ops)
        values["attempted_ops"] = len(ops)
    units = PER_LAYER if trace else END_TO_END
    return {
        "correct": not failed and not problems,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {key: {"value": values[key], "unit": unit} for key, unit in units.items()},
        "_errors": [f"{op.kind}: {op.error}" for op in failed] + problems,
        "_info": info,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "riskrank" / "__init__.py").is_file():
        print(f"perfbench: no riskrank sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    limit_blas_threads()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    env = environment(args.workload, args.seed)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), root)
    errors, info = result.pop("_errors"), result.pop("_info")
    print("env " + json.dumps(env, sort_keys=True))
    print("info " + json.dumps(info))
    for line in errors:
        print(f"FAILED {line}")
    for key, metric in result["metrics"].items():
        print(f"{key:28s} {metric['value']!r:>24} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
