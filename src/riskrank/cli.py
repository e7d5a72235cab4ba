"""Command-line entry point: one binary, eight subcommands.

    riskrank synth | ingest | chunk | embed | index | train | eval | bench

Each run resolves its configuration from defaults, then the JSON config
file (``-c``), then flag overrides (flags win), prints the resolved config
digest, and exits 0 on success, 1 on usage errors, or 2 on runtime errors
(single-line ``riskrank: error: ...`` on stderr; pass ``--verbose`` for a
traceback).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import sys
import traceback
from pathlib import Path
from typing import Any

from . import __version__
from .benchmark import (
    EvalConfig,
    compare_adapter,
    compare_systems,
    emit_report,
    make_run_dir,
    run_eval,
)
from .cache import VectorCache, cached_embed
from .corpus import (
    _jsonl_records,
    _require_str,
    build_eval_set,
    chunk_document,
    load_documents,
    load_qa_pairs,
    save_documents,
    save_qa_pairs,
    split_pairs,
    synth_dataset,
)
from .embedding import HashEmbedder
from .finetune import TrainingConfig, load_adapter, save_adapter, train_adapter
from .index import build_dense_index, build_lexical_index, save_index
from .remote import ProviderConfig, RemoteEmbedder

logger = logging.getLogger(__name__)


class UsageError(Exception):
    """Bad invocation: wrong flags, missing operands, malformed config."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("-c", "--config", metavar="PATH", help="JSON config file")
    sub.add_argument("-o", "--out", metavar="DIR", help="output directory or file")
    sub.add_argument("--seed", type=int, help="override every seed in the config")
    sub.add_argument("--jobs", type=int, help="parallelism bound for embedding batches")
    sub.add_argument("--verbose", action="store_true", help="debug logging and tracebacks")


def build_parser() -> _Parser:
    parser = _Parser(prog="riskrank", description=__doc__)
    parser.add_argument("--version", action="version", version=f"riskrank {__version__}")
    subs = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = subs.add_parser("synth", help="generate a clustered synthetic QA corpus")
    _add_common(p)
    p.add_argument("--clusters", type=int, default=5)
    p.add_argument("--pairs", type=int, default=100, help="pairs per cluster")
    p.add_argument("--vocab", type=int, default=50, help="words per cluster vocabulary")
    p.set_defaults(handler=cmd_synth)

    p = subs.add_parser("ingest", help="normalize QA pair files and text documents")
    _add_common(p)
    p.add_argument("--pairs", metavar="PATH", help="QA pairs file (jsonl or csv)")
    p.add_argument("--format", choices=("jsonl", "csv"), help="force the pairs format")
    p.add_argument("--docs", metavar="DIR", help="directory of plain-text documents")
    p.set_defaults(handler=cmd_ingest)

    p = subs.add_parser("chunk", help="split documents into overlapping token windows")
    _add_common(p)
    p.add_argument("--docs", metavar="PATH", help="documents.jsonl or a directory of .txt")
    p.add_argument("--window", type=int, default=256)
    p.add_argument("--stride", type=int, default=192)
    p.set_defaults(handler=cmd_chunk)

    p = subs.add_parser("embed", help="embed texts into the vector cache")
    _add_common(p)
    p.add_argument("--input", metavar="PATH", help="JSONL file holding the texts")
    p.add_argument("--text-field", default="context", help="JSON field to embed")
    p.set_defaults(handler=cmd_embed)

    p = subs.add_parser("index", help="build and persist a retrieval index")
    _add_common(p)
    p.add_argument("--input", metavar="PATH", help="pairs.jsonl whose contexts are indexed")
    p.add_argument("--mode", choices=("dense", "lexical", "hybrid"))
    p.set_defaults(handler=cmd_index)

    p = subs.add_parser("train", help="train a linear adapter on the train split")
    _add_common(p)
    p.set_defaults(handler=cmd_train)

    p = subs.add_parser("eval", help="retrieve and score the test split")
    _add_common(p)
    p.add_argument("--mode", choices=("dense", "lexical", "hybrid"))
    p.add_argument("--k", metavar="LIST", help="comma-separated metric cutoffs")
    p.set_defaults(handler=cmd_eval)

    p = subs.add_parser("bench", help="compare systems and emit the benchmark table")
    _add_common(p)
    p.add_argument("--mode", choices=("dense", "lexical", "hybrid"))
    p.add_argument("--k", metavar="LIST", help="comma-separated metric cutoffs")
    p.set_defaults(handler=cmd_bench)

    return parser


# ---------------------------------------------------------------------------
# Config resolution: defaults < file < flags, then print the digest.
# ---------------------------------------------------------------------------


def _resolve_config(args: argparse.Namespace, defaults: dict[str, Any]) -> dict[str, Any]:
    cfg = json.loads(json.dumps(defaults))  # deep copy
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise UsageError(f"config file not found: {path}")
        try:
            loaded = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise UsageError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise UsageError(f"config file {path} must hold a JSON object")
        _deep_merge(cfg, loaded)
    _apply_flag_overrides(cfg, args)
    digest = hashlib.sha256(
        json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode("utf-8")
    ).hexdigest()[:16]
    print(f"config digest: {digest}")
    logger.debug("resolved config: %s", cfg)
    return cfg


def _deep_merge(base: dict, extra: dict) -> None:
    for key, value in extra.items():
        if isinstance(value, dict) and isinstance(base.get(key), dict):
            _deep_merge(base[key], value)
        else:
            base[key] = value


def _apply_flag_overrides(cfg: dict[str, Any], args: argparse.Namespace) -> None:
    if getattr(args, "out", None):
        cfg["out_dir"] = args.out
    if getattr(args, "jobs", None) is not None:
        cfg["jobs"] = args.jobs
    if getattr(args, "mode", None):
        cfg.setdefault("eval", {})["retrieval_mode"] = args.mode
        cfg["mode"] = args.mode
    if getattr(args, "k", None):
        try:
            k_list = [int(part) for part in args.k.split(",") if part]
        except ValueError as exc:
            raise UsageError(f"--k expects comma-separated integers: {args.k!r}") from exc
        cfg.setdefault("eval", {})["k_list"] = k_list
    if getattr(args, "seed", None) is not None:
        cfg["seed"] = args.seed
        for section in ("split", "training", "eval"):
            if isinstance(cfg.get(section), dict):
                cfg[section]["seed"] = args.seed


def _require(cfg: dict, key: str, what: str) -> Any:
    value = cfg.get(key)
    if value in (None, ""):
        raise UsageError(f"{what} requires {key!r} (config key or flag)")
    return value


def _build_embedder(cfg: dict[str, Any]) -> HashEmbedder | RemoteEmbedder:
    spec = cfg.get("embedder") or {"kind": "hash"}
    kind = spec.get("kind", "hash")
    if kind == "hash":
        return HashEmbedder(
            dim=int(spec.get("dim", 256)), seed=int(spec.get("seed", 0))
        )
    if kind == "remote":
        provider = ProviderConfig(
            provider_id=spec["provider_id"],
            model_id=spec["model_id"],
            base_url=spec["base_url"],
            api_key_env=spec["api_key_env"],
            dim=int(spec["dim"]),
            max_batch=int(spec.get("max_batch", 16)),
            timeout_ms=int(spec.get("timeout_ms", 30_000)),
        )
        cache = VectorCache(cfg.get("cache_dir"))
        return RemoteEmbedder(provider, cache, jobs=int(cfg.get("jobs", 1)))
    raise UsageError(f"unknown embedder kind {kind!r} (expected hash or remote)")


def _load_pairs_and_split(cfg: dict[str, Any], what: str):
    pairs_path = _require(cfg, "pairs_path", what)
    pairs = load_qa_pairs(pairs_path, cfg.get("pairs_format"))
    split_cfg = cfg.get("split", {})
    split = split_pairs(
        pairs,
        ratio=float(split_cfg.get("ratio", 0.95)),
        seed=int(split_cfg.get("seed", cfg.get("seed", 0))),
    )
    return pairs, split


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def cmd_synth(args: argparse.Namespace) -> int:
    cfg = _resolve_config(
        args,
        {
            "clusters": args.clusters,
            "pairs_per_cluster": args.pairs,
            "vocab_per_cluster": args.vocab,
            "seed": 7,
        },
    )
    out_dir = Path(_require(cfg, "out_dir", "synth"))
    out_dir.mkdir(parents=True, exist_ok=True)
    documents, pairs = synth_dataset(
        n_clusters=int(cfg["clusters"]),
        pairs_per_cluster=int(cfg["pairs_per_cluster"]),
        vocab_per_cluster=int(cfg["vocab_per_cluster"]),
        seed=int(cfg["seed"]),
    )
    save_qa_pairs(pairs, out_dir / "pairs.jsonl")
    save_documents(documents, out_dir / "documents.jsonl")
    print(f"wrote {len(pairs)} pairs and {len(documents)} documents to {out_dir}")
    return 0


def cmd_ingest(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args, {"pairs_path": args.pairs, "docs_dir": args.docs})
    if not cfg.get("pairs_path") and not cfg.get("docs_dir"):
        raise UsageError("ingest requires --pairs and/or --docs")
    out_dir = Path(_require(cfg, "out_dir", "ingest"))
    out_dir.mkdir(parents=True, exist_ok=True)
    if cfg.get("pairs_path"):
        pairs = load_qa_pairs(cfg["pairs_path"], args.format or cfg.get("pairs_format"))
        save_qa_pairs(pairs, out_dir / "pairs.jsonl")
        print(f"ingested {len(pairs)} pairs -> {out_dir / 'pairs.jsonl'}")
    if cfg.get("docs_dir"):
        documents = load_documents(cfg["docs_dir"])
        save_documents(documents, out_dir / "documents.jsonl")
        print(f"ingested {len(documents)} documents -> {out_dir / 'documents.jsonl'}")
    return 0


def cmd_chunk(args: argparse.Namespace) -> int:
    cfg = _resolve_config(
        args, {"docs": args.docs, "window": args.window, "stride": args.stride}
    )
    docs_path = _require(cfg, "docs", "chunk")
    out = Path(_require(cfg, "out_dir", "chunk"))
    if out.suffix != ".jsonl":
        out.mkdir(parents=True, exist_ok=True)
        out = out / "chunks.jsonl"
    documents = load_documents(docs_path)
    total = 0
    with out.open("w", encoding="utf-8") as handle:
        for doc in documents:
            for chunk in chunk_document(doc, int(cfg["window"]), int(cfg["stride"])):
                handle.write(
                    json.dumps(
                        {
                            "chunk_id": chunk.chunk_id,
                            "doc_id": chunk.doc_id,
                            "ordinal": chunk.ordinal,
                            "start_char": chunk.span[0],
                            "end_char": chunk.span[1],
                            "text": chunk.text,
                        },
                        ensure_ascii=False,
                    )
                    + "\n"
                )
                total += 1
    print(f"wrote {total} chunks from {len(documents)} documents -> {out}")
    return 0


def cmd_embed(args: argparse.Namespace) -> int:
    cfg = _resolve_config(
        args, {"input": args.input, "text_field": args.text_field}
    )
    input_path = Path(_require(cfg, "input", "embed"))
    field = cfg["text_field"]
    texts = [
        _require_str(record, field, input_path, line_no)
        for line_no, record in _jsonl_records(input_path)
    ]
    if not texts:
        print("nothing to embed")
        return 0
    embedder = _build_embedder(cfg)
    cache = VectorCache(cfg.get("cache_dir"))
    _, hits = cached_embed(cache, embedder, texts, embedder.fetch)
    print(
        f"embedded {len(texts)} texts ({hits} cache hits, {len(texts) - hits} new) "
        f"-> {cache.root}"
    )
    return 0


def cmd_index(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args, {"input": args.input, "mode": args.mode or "dense"})
    input_path = _require(cfg, "input", "index")
    mode = cfg["mode"]
    out_dir = Path(_require(cfg, "out_dir", "index"))
    items = build_eval_set(load_qa_pairs(input_path, cfg.get("pairs_format")), ())
    dense = None
    lexical = None
    if mode in ("dense", "hybrid"):
        embedder = _build_embedder(cfg)
        dense = build_dense_index(items.item_ids, embedder.embed(list(items.item_texts)))
    if mode in ("lexical", "hybrid"):
        lexical = build_lexical_index(items.item_ids, items.item_texts)
    save_index(out_dir, dense, lexical)
    print(f"indexed {len(items.item_ids)} items (mode={mode}) -> {out_dir}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args, {"training": {}})
    pairs, split = _load_pairs_and_split(cfg, "train")
    embedder = _build_embedder(cfg)
    training = TrainingConfig(**{**cfg.get("training", {})})
    adapter, report = train_adapter(split.train, embedder, training)
    out_dir = Path(_require(cfg, "out_dir", "train"))
    save_adapter(out_dir, adapter, training)
    report.write_jsonl(out_dir / "training_log.jsonl")
    for epoch, (loss, acc) in enumerate(
        zip(report.epoch_mean_loss, report.epoch_accuracy), start=1
    ):
        print(f"epoch {epoch}: mean loss {loss:.6f}, in-batch accuracy {acc:.4f}")
    print(
        f"trained adapter on {len(split.train)} pairs "
        f"({len(split.test)} held out) -> {out_dir}"
    )
    return 0


def _eval_config_from(cfg: dict[str, Any], system: str) -> EvalConfig:
    section = dict(cfg.get("eval", {}))
    section.setdefault("seed", cfg.get("seed", 0))
    if "k_list" in section:
        section["k_list"] = tuple(section["k_list"])
    return EvalConfig(system=system, **section)


def _emit_run(report, out_dir: Path, stem: str, config: EvalConfig, what: str) -> None:
    """Write ``<stem>.json``, ``<stem>.md`` and ``plotdata.csv`` into a new run
    directory under ``out_dir``, then print the markdown and the directory."""
    run_dir = make_run_dir(out_dir, config.fingerprint())
    emit_report(report, "json", run_dir / f"{stem}.json", config=config)
    markdown = emit_report(report, "markdown", run_dir / f"{stem}.md")
    emit_report(report, "csv", run_dir / "plotdata.csv")
    print(markdown.read_text(encoding="utf-8"), end="")
    print(f"{what} artifacts -> {run_dir}")


def cmd_eval(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args, {"eval": {}})
    pairs, split = _load_pairs_and_split(cfg, "eval")
    embedder = _build_embedder(cfg)
    adapter = None
    if cfg.get("adapter_dir"):
        adapter, _ = load_adapter(cfg["adapter_dir"])
    label = cfg.get("system") or f"{embedder.provider_id}/{embedder.model_id}"
    config = _eval_config_from(cfg, label)
    out_dir = Path(_require(cfg, "out_dir", "eval"))

    if adapter is None:
        report = run_eval(pairs, split, embedder, config)
    else:
        report = compare_adapter(pairs, split, embedder, config, adapter)
    _emit_run(report, out_dir, "report", config, "eval")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args, {"eval": {}})
    systems = cfg.get("systems")
    if not systems:
        raise UsageError("bench requires a 'systems' list in the config file")
    reference = _require(cfg, "reference", "bench")
    pairs, split = _load_pairs_and_split(cfg, "bench")
    reports = {}
    dims = {}
    shared_config = _eval_config_from(cfg, "bench")
    for system in systems:
        name = system.get("name")
        if not name:
            raise UsageError("every system in 'systems' needs a 'name'")
        sys_cfg = {**cfg, **system}
        embedder = _build_embedder(sys_cfg)
        adapter = None
        if system.get("adapter_dir"):
            adapter, _ = load_adapter(system["adapter_dir"])
        config = _eval_config_from(cfg, name)
        reports[name] = run_eval(pairs, split, embedder, config, adapter=adapter)
        dims[name] = int(system.get("dim", embedder.dim))
    table = compare_systems(reports, reference, dims)
    out_dir = Path(_require(cfg, "out_dir", "bench"))
    _emit_run(table, out_dir, "table", shared_config, "benchmark")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"riskrank: usage error: {exc}", file=sys.stderr)
        print("run 'riskrank --help' for usage", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help / --version exit through argparse
        return int(exc.code or 0)
    if getattr(args, "command", None) is None:
        parser.print_help()
        return 1
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.handler(args)
    except UsageError as exc:
        print(f"riskrank: usage error: {exc}", file=sys.stderr)
        print(f"run 'riskrank {args.command} --help' for usage", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001  (CLI boundary)
        first_line = str(exc).splitlines()[0] if str(exc) else type(exc).__name__
        print(f"riskrank: error: {type(exc).__name__}: {first_line}", file=sys.stderr)
        if args.verbose:
            traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
