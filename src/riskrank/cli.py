"""Command-line entry point: one binary, eight subcommands.

    riskrank synth | ingest | chunk | embed | index | train | eval | bench

Each run resolves its configuration once, from the subcommand's defaults,
then the JSON config file (-c), then the flags given (flags > file >
defaults), and prints the resolved config digest. Every flag but -c and
--verbose sets the config key of its own name, except -o (out_dir), --k
(eval.k_list), --text-field (text_field), synth's --pairs and --vocab
(pairs_per_cluster, vocab_per_cluster) and ingest's --pairs, --format and
--docs (pairs_path, pairs_format, docs_dir). A flag not given sets nothing.
The --mode of eval and bench also sets eval.retrieval_mode (that of index
sets only mode), and --seed the seed of each of split, training and eval
that is present; a top-level seed is their default. Each section goes as it
is to its typed config (SplitConfig, TrainingConfig, EvalConfig,
HashEmbedder or ProviderConfig), which owns its defaults and checks and
refuses unknown keys. Exit codes: 0 on success, 1 on usage errors
(a refused config value among them), 2 on runtime errors (one "riskrank:
error: ..." line; --verbose adds a traceback).
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
import traceback
from pathlib import Path
from typing import Any, Callable, Sequence

from . import __version__
from .benchmark import (
    RETRIEVAL_MODES,
    EvalConfig,
    compare_adapter,
    compare_systems,
    emit_report,
    make_run_dir,
    run_eval,
)
from .cache import (
    NONEMPTY_STRING, VectorCache, cached_embed, json_digest, read_json, read_jsonl, write_jsonl,
)
from .corpus import (
    SplitConfig,
    build_eval_set,
    check_chunking,
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


class _ConfigFlag(argparse.Action):
    """A flag whose ``dest`` is the config key it sets (``eval.k_list`` is the key
    ``k_list`` of the section ``eval``), and ``also`` more keys it sets to the same
    value. It has no default: a flag that is not given stays out of
    ``namespace.flags``, so it never masks the config file."""

    def __init__(
        self, option_strings: list[str], dest: str, also: Sequence[str] = (), **kwargs: Any
    ) -> None:
        super().__init__(option_strings, dest, default=argparse.SUPPRESS, **kwargs)
        self.keys = (dest, *also)

    def __call__(self, parser, namespace, values, option_string=None) -> None:
        namespace.flags = {**namespace.flags, **dict.fromkeys(self.keys, values)}


def _k_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expects comma-separated integers: {text!r}") from None


def _command(
    subs, name: str, handler: Callable[[dict[str, Any]], int], help: str,
    defaults: dict[str, Any], required: Sequence[str],
) -> argparse.ArgumentParser:
    """Subcommand ``name`` with the flags every subcommand has. ``defaults`` is its
    config before the file and the flags; each key of ``required`` must end up set."""
    sub = subs.add_parser(name, help=help)
    sub.add_argument("-c", "--config", metavar="PATH", help="JSON config file")
    sub.add_argument("-o", "--out", dest="out_dir", action=_ConfigFlag, metavar="DIR",
                     help="output directory or file")
    sub.add_argument("--seed", action=_ConfigFlag, type=int,
                     help="override every seed in the config")
    sub.add_argument("--jobs", action=_ConfigFlag, type=int,
                     help="parallelism bound for embedding batches")
    sub.add_argument("--verbose", action="store_true", help="debug logging and tracebacks")
    sub.set_defaults(handler=handler, defaults=defaults, required=required, flags={})
    return sub


def build_parser() -> _Parser:
    parser = _Parser(prog="riskrank", description=__doc__)
    parser.add_argument("--version", action="version", version=f"riskrank {__version__}")
    subs = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = _command(subs, "synth", cmd_synth, "generate a clustered synthetic QA corpus",
                 {"clusters": 5, "pairs_per_cluster": 100, "vocab_per_cluster": 50, "seed": 7},
                 required=("out_dir",))
    p.add_argument("--clusters", action=_ConfigFlag, type=int)
    p.add_argument("--pairs", dest="pairs_per_cluster", action=_ConfigFlag, type=int,
                   metavar="PAIRS", help="pairs per cluster")
    p.add_argument("--vocab", dest="vocab_per_cluster", action=_ConfigFlag, type=int,
                   metavar="VOCAB", help="words per cluster vocabulary")

    p = _command(subs, "ingest", cmd_ingest, "normalize QA pair files and text documents",
                 {"pairs_path": None, "docs_dir": None}, required=("out_dir",))
    p.add_argument("--pairs", dest="pairs_path", action=_ConfigFlag, metavar="PATH",
                   help="QA pairs file (jsonl or csv)")
    p.add_argument("--format", dest="pairs_format", action=_ConfigFlag,
                   choices=("jsonl", "csv"), help="force the pairs format")
    p.add_argument("--docs", dest="docs_dir", action=_ConfigFlag, metavar="DIR",
                   help="directory of plain-text documents")

    p = _command(subs, "chunk", cmd_chunk, "split documents into overlapping token windows",
                 {"docs": None, "window": 256, "stride": 192}, required=("docs", "out_dir"))
    p.add_argument("--docs", action=_ConfigFlag, metavar="PATH",
                   help="documents.jsonl or a directory of .txt")
    p.add_argument("--window", action=_ConfigFlag, type=int)
    p.add_argument("--stride", action=_ConfigFlag, type=int)

    p = _command(subs, "embed", cmd_embed, "embed texts into the vector cache",
                 {"input": None, "text_field": "context"}, required=("input",))
    p.add_argument("--input", action=_ConfigFlag, metavar="PATH",
                   help="JSONL file holding the texts")
    p.add_argument("--text-field", action=_ConfigFlag, help="JSON field to embed")

    p = _command(subs, "index", cmd_index, "build and persist a retrieval index",
                 {"input": None, "mode": "dense"}, required=("input", "out_dir"))
    p.add_argument("--input", action=_ConfigFlag, metavar="PATH",
                   help="pairs.jsonl whose contexts are indexed")
    p.add_argument("--mode", action=_ConfigFlag, choices=RETRIEVAL_MODES)

    _command(subs, "train", cmd_train, "train a linear adapter on the train split",
             {"training": {}}, required=("pairs_path", "out_dir"))

    for name, handler, help in (
        ("eval", cmd_eval, "retrieve and score the test split"),
        ("bench", cmd_bench, "compare systems and emit the benchmark table"),
    ):
        p = _command(subs, name, handler, help, {"eval": {}}, required=("pairs_path", "out_dir"))
        p.add_argument("--mode", action=_ConfigFlag, also=("eval.retrieval_mode",),
                       choices=RETRIEVAL_MODES)
        p.add_argument("--k", dest="eval.k_list", action=_ConfigFlag, type=_k_list,
                       metavar="LIST", help="comma-separated metric cutoffs")

    return parser


# ---------------------------------------------------------------------------
# Config resolution: defaults < file < flags, then print the digest.
# ---------------------------------------------------------------------------

# The sections whose typed config has a seed; a top-level "seed" is their
# default. The hash embedder's "seed" names the model and is not one of them.
SEEDED_SECTIONS = ("split", "training", "eval")


def _resolve_config(args: argparse.Namespace) -> dict[str, Any]:
    """The subcommand's defaults, then the ``-c`` file, then the flags given. A
    key of ``args.required`` that is missing or empty is a usage error, raised
    before the command does any work."""
    cfg = json.loads(json.dumps(args.defaults))  # deep copy
    if args.config:
        try:
            _deep_merge(cfg, read_json(args.config, {}))
        except FileNotFoundError as exc:
            raise UsageError(f"config file not found: {args.config}") from exc
        except OSError as exc:  # a directory, say
            raise UsageError(f"config file {args.config}: {exc.strerror or exc}") from exc
        except ValueError as exc:
            raise UsageError(f"config file {exc}") from exc
    _apply_flags(cfg, args.flags)
    for key in args.required:
        if cfg.get(key) in (None, ""):
            raise UsageError(f"{args.command} requires {key!r} (config key or flag)")
    print(f"config digest: {json_digest(cfg)}")
    logger.debug("resolved config: %s", cfg)
    return cfg


def _deep_merge(base: dict, extra: dict) -> None:
    for key, value in extra.items():
        if isinstance(value, dict) and isinstance(base.get(key), dict):
            _deep_merge(base[key], value)
        else:
            base[key] = value


def _apply_flags(cfg: dict[str, Any], flags: dict[str, Any]) -> None:
    """Set the config keys of each flag given. ``--seed`` also sets the seed of
    each of ``SEEDED_SECTIONS`` present once the other flags are set."""
    for key, value in flags.items():
        section, _, leaf = key.rpartition(".")
        (_object(cfg, section, create=True) if section else cfg)[leaf] = value
    if "seed" in flags:
        for section in SEEDED_SECTIONS:
            if section in cfg:
                _object(cfg, section)["seed"] = flags["seed"]


def _object(cfg: dict[str, Any], name: str, create: bool = False) -> dict[str, Any]:
    """``cfg[name]`` if it is an object, ``{}`` if absent (stored when ``create``)."""
    section = cfg.setdefault(name, {}) if create else cfg.get(name, {})
    if type(section) is not dict:
        raise UsageError(f"config section {name!r}: expected an object, got {section!r}")
    return section


def _section(cfg: dict[str, Any], name: str, build: Callable[..., Any], source: str = "",
             **extra: Any) -> Any:
    """``build(**cfg[name], **extra)``: the one place a config section becomes a
    typed value. A top-level ``seed`` is the default of ``SEEDED_SECTIONS``. A key
    of ``extra`` that the section sets too (the command takes it from ``source``),
    and what ``build`` refuses (TypeError, ValueError), are usage errors."""
    values = _object(cfg, name)
    clash = values.keys() & extra.keys()
    if clash:
        raise UsageError(f"config section {name!r} cannot set {min(clash)!r}: "
                         f"the command takes it from {source}")
    if name in SEEDED_SECTIONS and "seed" in cfg:
        values = {"seed": cfg["seed"], **values}
    try:
        return build(**values, **extra)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"config section {name!r}: {exc}") from exc


def _build_embedder(cfg: dict[str, Any]) -> HashEmbedder | RemoteEmbedder:
    """The embedder the ``embedder`` section describes; its ``kind`` is hash
    (the default) or remote, and the rest of it goes to that kind's config."""

    def build(kind: str = "hash", **spec: Any) -> HashEmbedder | RemoteEmbedder:
        if kind == "hash":
            return HashEmbedder(**spec)
        if kind == "remote":
            jobs = {"jobs": cfg["jobs"]} if "jobs" in cfg else {}
            return RemoteEmbedder(ProviderConfig(**spec), VectorCache(cfg.get("cache_dir")), **jobs)
        raise ValueError(f"unknown embedder kind {kind!r} (expected hash or remote)")

    return _section(cfg, "embedder", build)


def _pairs_format(cfg: dict[str, Any]) -> str | None:
    """The config's ``pairs_format``, None to infer it from the file suffix; a
    format that is given and is not jsonl or csv is a usage error."""
    pairs_format = cfg.get("pairs_format")
    if pairs_format is not None and pairs_format not in ("jsonl", "csv"):
        raise UsageError(f"pairs_format must be jsonl or csv, got {pairs_format!r}")
    return pairs_format


def _load_pairs_and_split(cfg: dict[str, Any]):
    split = _section(cfg, "split", SplitConfig)
    pairs = load_qa_pairs(cfg["pairs_path"], _pairs_format(cfg))
    return pairs, split_pairs(pairs, ratio=split.ratio, seed=split.seed)


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def cmd_synth(cfg: dict[str, Any]) -> int:
    out_dir = Path(cfg["out_dir"])
    try:
        documents, pairs = synth_dataset(
            n_clusters=cfg["clusters"],
            pairs_per_cluster=cfg["pairs_per_cluster"],
            vocab_per_cluster=cfg["vocab_per_cluster"],
            seed=cfg["seed"],
        )
    except ValueError as exc:
        raise UsageError(f"synth: {exc}") from exc
    save_qa_pairs(pairs, out_dir / "pairs.jsonl")
    save_documents(documents, out_dir / "documents.jsonl")
    print(f"wrote {len(pairs)} pairs and {len(documents)} documents to {out_dir}")
    return 0


def cmd_ingest(cfg: dict[str, Any]) -> int:
    if not cfg.get("pairs_path") and not cfg.get("docs_dir"):
        raise UsageError("ingest requires --pairs and/or --docs")
    pairs_format = _pairs_format(cfg)
    pairs = load_qa_pairs(cfg["pairs_path"], pairs_format) if cfg.get("pairs_path") else None
    documents = load_documents(cfg["docs_dir"]) if cfg.get("docs_dir") else None
    out_dir = Path(cfg["out_dir"])
    if pairs is not None:
        save_qa_pairs(pairs, out_dir / "pairs.jsonl")
        print(f"ingested {len(pairs)} pairs -> {out_dir / 'pairs.jsonl'}")
    if documents is not None:
        save_documents(documents, out_dir / "documents.jsonl")
        print(f"ingested {len(documents)} documents -> {out_dir / 'documents.jsonl'}")
    return 0


def cmd_chunk(cfg: dict[str, Any]) -> int:
    out = Path(cfg["out_dir"])
    try:
        check_chunking(cfg["window"], cfg["stride"])
    except ValueError as exc:
        raise UsageError(f"chunk: {exc}") from exc
    if out.suffix != ".jsonl":
        out = out / "chunks.jsonl"
    documents = load_documents(cfg["docs"])
    total = write_jsonl(out, (
        {"chunk_id": chunk.chunk_id, "doc_id": chunk.doc_id, "ordinal": chunk.ordinal,
         "start_char": chunk.span[0], "end_char": chunk.span[1], "text": chunk.text}
        for doc in documents
        for chunk in chunk_document(doc, cfg["window"], cfg["stride"])
    ))
    print(f"wrote {total} chunks from {len(documents)} documents -> {out}")
    return 0


def cmd_embed(cfg: dict[str, Any]) -> int:
    field = cfg["text_field"]
    texts = [record[field] for _, record in read_jsonl(cfg["input"], {field: NONEMPTY_STRING})]
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


def cmd_index(cfg: dict[str, Any]) -> int:
    mode = cfg["mode"]
    if mode not in RETRIEVAL_MODES:
        raise UsageError(f"index: mode must be one of {RETRIEVAL_MODES}, got {mode!r}")
    out_dir = Path(cfg["out_dir"])
    items = build_eval_set(load_qa_pairs(cfg["input"], _pairs_format(cfg)), ())
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


def cmd_train(cfg: dict[str, Any]) -> int:
    embedder = _build_embedder(cfg)
    training = _section(cfg, "training", TrainingConfig)
    pairs, split = _load_pairs_and_split(cfg)
    adapter, report = train_adapter(split.train, embedder, training)
    out_dir = Path(cfg["out_dir"])
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


def _emit_run(report, out_dir: Path, stem: str, config: EvalConfig, what: str) -> None:
    """Write ``<stem>.json``, ``<stem>.md`` and ``plotdata.csv`` into a new run
    directory under ``out_dir``, then print the markdown and the directory."""
    run_dir = make_run_dir(out_dir, config.fingerprint())
    emit_report(report, "json", run_dir / f"{stem}.json", config=config)
    markdown = emit_report(report, "markdown", run_dir / f"{stem}.md")
    emit_report(report, "csv", run_dir / "plotdata.csv")
    print(markdown.read_text(encoding="utf-8"), end="")
    print(f"{what} artifacts -> {run_dir}")


def cmd_eval(cfg: dict[str, Any]) -> int:
    embedder = _build_embedder(cfg)
    label = cfg.get("system") or f"{embedder.provider_id}/{embedder.model_id}"
    config = _section(cfg, "eval", EvalConfig, "the top-level 'system'", system=label)
    pairs, split = _load_pairs_and_split(cfg)
    if cfg.get("adapter_dir"):
        adapter, _ = load_adapter(cfg["adapter_dir"])
        report = compare_adapter(pairs, split, embedder, config, adapter)
    else:
        report = run_eval(pairs, split, embedder, config)
    _emit_run(report, Path(cfg["out_dir"]), "report", config, "eval")
    return 0


def cmd_bench(cfg: dict[str, Any]) -> int:
    systems = cfg.get("systems")
    if not systems or type(systems) is not list or any(type(s) is not dict for s in systems):
        raise UsageError(f"config section 'systems': bench requires a nonempty list "
                         f"of objects, got {systems!r}")
    shared_config = _section(cfg, "eval", EvalConfig, "each system's 'name'", system="bench")
    runs = {}  # name -> (embedder, config, adapter), every entry checked before any run
    dims = {}
    for system in systems:
        name = system.get("name")
        if type(name) is not str or not name:
            raise UsageError(f"every system in 'systems' needs a 'name' (a nonempty string), "
                             f"got {name!r}")
        if name in runs:
            raise UsageError(f"config section 'systems': system {name!r} appears twice")
        embedder = _build_embedder({**cfg, **system})
        adapter = None
        if system.get("adapter_dir"):
            adapter, _ = load_adapter(system["adapter_dir"])
        dims[name] = embedder.dim if adapter is None else adapter.d_out
        if "dim" in system and (type(system["dim"]) is not int or system["dim"] != dims[name]):
            raise UsageError(f"config section 'systems': system {name!r}: dim must be "
                             f"its embedding size {dims[name]}, got {system['dim']!r}")
        runs[name] = (embedder, _section(cfg, "eval", EvalConfig, system=name), adapter)
    reference = cfg.get("reference")
    if type(reference) is not str or reference not in runs:
        raise UsageError(f"bench requires 'reference' naming one of the systems "
                         f"{list(runs)}, got {reference!r}")
    pairs, split = _load_pairs_and_split(cfg)
    reports = {
        name: run_eval(pairs, split, embedder, config, adapter=adapter)
        for name, (embedder, config, adapter) in runs.items()
    }
    table = compare_systems(reports, reference, dims)
    _emit_run(table, Path(cfg["out_dir"]), "table", shared_config, "benchmark")
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
        return args.handler(_resolve_config(args))
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
