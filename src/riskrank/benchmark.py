"""End-to-end evaluation: embed, index, retrieve, score, and emit tables.

``run_eval`` turns a pair dataset plus an embedder (and optional adapter)
into a MetricReport, and ``compare_adapter`` into a base-versus-finetuned
MetricComparison; both rank and score the ``EvalSet`` that
``build_eval_set`` makes. ``compare_systems`` builds the provider-comparison
table (hit rate, improvement in percentage points, embedding size); and
``emit_report`` renders reports and tables as JSON (full precision, with
the evaluation-config fingerprint), markdown (numbers rounded half-even to
the displayed precision), or CSV (long format, plot-ready). All three
formats come from one private renderer, ``_render``, the only place that
dispatches on the report type.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import asdict, astuple, dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Mapping, Sequence

from .cache import INTEGER, POSITIVE_INTEGER, check_values, json_digest, json_text, write_file
from .corpus import DatasetSplit, EvalSet, QAPair, build_eval_set
from .embedding import Embedder, checked_embed
from .finetune import AdapterParams, apply_adapter
from .index import (
    DEFAULT_RRF_DEPTH, DEFAULT_RRF_K,
    build_dense_index,
    build_lexical_index,
    dense_search_many,
    lexical_search_many,
    rrf_fuse,
)
from .metrics import DISPLAY_DECIMALS, MetricReport, evaluate_run

__all__ = [
    "EvalConfig",
    "BenchmarkRow",
    "BenchmarkTable",
    "MetricComparison",
    "Embedder",
    "run_eval",
    "compare_adapter",
    "compare_systems",
    "emit_report",
    "make_run_dir",
]

logger = logging.getLogger(__name__)

RETRIEVAL_MODES = ("dense", "lexical", "hybrid")
CANDIDATE_POOLS = ("all_contexts", "test_contexts")
TABLE1_METRICS = ("MRR@10", "MAP@100", "NDCG@10")

@dataclass(frozen=True)
class EvalConfig:
    """Everything that determines an evaluation, fingerprinted into reports."""

    retrieval_mode: str = "dense"
    candidate_pool: str = "all_contexts"
    k_list: tuple[int, ...] = (5, 10, 100)
    # Always None: riskrank does not re-rank. The field stays because
    # report.json echoes the config and pinned reports hold "rerank": null.
    rerank: None = None
    system: str = ""
    seed: int = 0
    k_rrf: int = DEFAULT_RRF_K
    rrf_depth: int = DEFAULT_RRF_DEPTH

    def __post_init__(self) -> None:
        check_values(self, _EVAL_CHECKS)
        object.__setattr__(self, "k_list", tuple(self.k_list))

    def to_dict(self) -> dict:
        return asdict(self)

    def fingerprint(self) -> str:
        return json_digest(self.to_dict())


_EVAL_CHECKS = {
    "retrieval_mode": (lambda v: v in RETRIEVAL_MODES, f"one of {RETRIEVAL_MODES}"),
    "candidate_pool": (lambda v: v in CANDIDATE_POOLS, f"one of {CANDIDATE_POOLS}"),
    "k_list": (lambda v: type(v) in (list, tuple) and len(v) > 0
               and all(type(k) is int and k >= 1 for k in v), "a nonempty list of integers >= 1"),
    "rerank": (lambda v: v is None, "None (riskrank does not re-rank)"),
    "system": (lambda v: type(v) is str, "a string"),
    "seed": INTEGER,
    "k_rrf": POSITIVE_INTEGER,
    "rrf_depth": POSITIVE_INTEGER,
}


def run_eval(
    pairs: Sequence[QAPair],
    split: DatasetSplit,
    embedder: Embedder,
    config: EvalConfig,
    adapter: AdapterParams | None = None,
) -> MetricReport:
    """Retrieve every test question against the context pool and score it.

    The pool is either every pair's context or only the test contexts, and
    ``build_eval_set`` turns each distinct context into one item. Retrieval
    depth is ``max(k_list, 100)`` so MAP@100 is always defined. An adapter
    whose recorded training pairs intersect the test pairs is rejected; a
    context shared by a train pair and a test pair is not leakage, because
    the adapter never saw the test question and the ``all_contexts`` pool
    holds every train context anyway.
    """
    eval_set = _eval_set(pairs, split, config, adapter)
    return _evaluate(eval_set, embedder, config, [adapter])[0]


def compare_adapter(
    pairs: Sequence[QAPair],
    split: DatasetSplit,
    embedder: Embedder,
    config: EvalConfig,
    adapter: AdapterParams,
) -> MetricComparison:
    """``run_eval`` without and with ``adapter``, embedding every text once:
    the adapter maps the base run's matrices, and BM25 runs once for both."""
    eval_set = _eval_set(pairs, split, config, adapter)
    base, finetuned = _evaluate(eval_set, embedder, config, [None, adapter])
    return MetricComparison(base=base, finetuned=finetuned)


def _eval_set(
    pairs: Sequence[QAPair],
    split: DatasetSplit,
    config: EvalConfig,
    adapter: AdapterParams | None,
) -> EvalSet:
    """Check the split and the adapter, then build the eval set."""
    if not split.test:
        raise ValueError("split.test must be nonempty")
    if adapter is not None and adapter.train_pair_ids is not None:
        leaked = sorted({p.pair_id for p in split.test} & set(adapter.train_pair_ids))
        if leaked:
            raise ValueError(
                f"adapter was trained on {len(leaked)} test pair(s): {leaked[:5]}"
            )
    pool = pairs if config.candidate_pool == "all_contexts" else split.test
    return build_eval_set(pool, split.test)


def _evaluate(
    eval_set: EvalSet,
    embedder: Embedder,
    config: EvalConfig,
    adapters: Sequence[AdapterParams | None],
) -> list[MetricReport]:
    """Rank and score ``eval_set`` once per adapter (None = base), embedding
    the items and queries once and running BM25 once for all of them."""
    depth = max(max(config.k_list), 100)
    query_ids = list(eval_set.queries)
    query_texts = list(eval_set.queries.values())
    logger.info(
        "run_eval: mode=%s pool=%s items=%d queries=%d fingerprint=%s",
        config.retrieval_mode, config.candidate_pool, len(eval_set.item_ids),
        len(query_ids), config.fingerprint(),
    )
    need_dense = config.retrieval_mode in ("dense", "hybrid")

    if need_dense:
        item_matrix = checked_embed(embedder, eval_set.item_texts, "contexts")
        query_matrix = checked_embed(embedder, query_texts, "questions")
    lexical_run = None
    if config.retrieval_mode in ("lexical", "hybrid"):
        lexical_index = build_lexical_index(eval_set.item_ids, eval_set.item_texts)
        lexical_run = lexical_search_many(lexical_index, query_texts, depth, query_ids)

    reports = []
    for adapter in adapters:
        run = lexical_run
        if need_dense:
            items, queries = item_matrix, query_matrix
            if adapter is not None:
                items = apply_adapter(adapter, items)
                queries = apply_adapter(adapter, queries)
            index = build_dense_index(eval_set.item_ids, items)
            # Freed once used: an adapter's float64 output held through the
            # search, or a side's index held through the next side's build,
            # set the peak memory of compare_adapter.
            del items
            run = dense_search_many(index, queries, depth, query_ids)
            del index
        if config.retrieval_mode == "hybrid":
            run = rrf_fuse([run, lexical_run], k_rrf=config.k_rrf, depth=config.rrf_depth, k=depth)
        reports.append(evaluate_run(run, eval_set.qrels, config.k_list))
    return reports


@dataclass(frozen=True)
class BenchmarkRow:
    name: str
    hit_rate_at_5: float
    improvement_points: float  # reference minus this row, in percentage points
    embedding_dim: int
    is_reference: bool


@dataclass(frozen=True)
class BenchmarkTable:
    """Provider-comparison table, sorted ascending by hit rate."""

    rows: tuple[BenchmarkRow, ...]
    reference: str


def compare_systems(
    reports: Mapping[str, MetricReport],
    reference: str,
    dims: Mapping[str, int],
) -> BenchmarkTable:
    """Build the comparison table from named reports.

    Improvements are computed from unrounded hit rates; rounding happens
    only at display time.
    """
    if not reports:
        raise ValueError("no reports to compare")
    if reference not in reports:
        raise ValueError(f"reference system {reference!r} not among reports")
    hit_rates = {}
    for name, report in reports.items():
        if "HR@5" not in report.aggregate:
            raise ValueError(f"report {name!r} is missing HR@5")
        if name not in dims:
            raise ValueError(f"no embedding dim given for system {name!r}")
        dim = dims[name]
        if type(dim) is not int or dim < 1:
            raise ValueError(f"system {name!r}: dim must be an integer >= 1, got {dim!r}")
        hit_rates[name] = report.aggregate["HR@5"]
    ref_rate = hit_rates[reference]
    rows = tuple(
        BenchmarkRow(
            name=name,
            hit_rate_at_5=hit_rates[name],
            improvement_points=(ref_rate - hit_rates[name]) * 100.0,
            embedding_dim=dims[name],
            is_reference=(name == reference),
        )
        for name in sorted(hit_rates, key=lambda n: (hit_rates[n], n))
    )
    return BenchmarkTable(rows=rows, reference=reference)


@dataclass(frozen=True)
class MetricComparison:
    """Base-versus-finetuned metric table, one row per name in ``TABLE1_METRICS``."""

    base: MetricReport
    finetuned: MetricReport

    def __post_init__(self) -> None:
        for name in TABLE1_METRICS:
            for label, report in (("base", self.base), ("finetuned", self.finetuned)):
                if name not in report.aggregate:
                    raise ValueError(f"{label} report is missing {name}")


def _fmt(value: float) -> str:
    return f"{value:.{DISPLAY_DECIMALS}f}"


def _render(obj) -> tuple[dict, list[list[str]], list[list]]:
    """The one dispatch on report type: JSON payload, markdown rows, CSV rows.

    Both row lists start with their header. Markdown cells are display
    strings; CSV cells are the raw values, written with ``str``. A metric
    table has one row per metric and one column per report, and its markdown
    header is its CSV header capitalized.
    """
    if isinstance(obj, BenchmarkTable):
        if not obj.rows:
            raise ValueError("refusing to emit an empty benchmark table")
        payload = {
            "kind": "benchmark_table",
            "reference": obj.reference,
            "rows": [asdict(row) for row in obj.rows],
        }
        markdown_rows = [["System", "HR@5", "Improvement", "Embedding Size"]]
        csv_rows = [["system", "hr_at_5", "improvement_points", "embedding_dim", "is_reference"]]
        for row in obj.rows:
            name = f"{row.name} (reference)" if row.is_reference else row.name
            improvement = f"{row.improvement_points:.1f}"
            markdown_rows.append(
                [name, _fmt(row.hit_rate_at_5), improvement, str(row.embedding_dim)]
            )
            csv_rows.append(list(astuple(row)))
        return payload, markdown_rows, csv_rows

    if isinstance(obj, MetricComparison):
        payload = {
            "kind": "metric_comparison",
            "metrics": list(TABLE1_METRICS),
            "base": obj.base.to_dict(),
            "finetuned": obj.finetuned.to_dict(),
        }
        columns = {"base": obj.base, "finetuned": obj.finetuned}
        names = TABLE1_METRICS
    elif isinstance(obj, MetricReport):
        if not obj.aggregate:
            raise ValueError("refusing to emit a metric report with no metrics")
        payload = {"kind": "metric_report", **obj.to_dict()}
        columns = {"value": obj}
        names = sorted(obj.aggregate)
    else:
        raise TypeError(f"cannot render {type(obj).__name__} as a report")
    csv_rows = [["metric", *columns]]
    markdown_rows = [[title.capitalize() for title in csv_rows[0]]]
    for name in names:
        values = [report.aggregate[name] for report in columns.values()]
        csv_rows.append([name, *values])
        markdown_rows.append([name, *map(_fmt, values)])
    return payload, markdown_rows, csv_rows


def emit_report(
    obj: MetricReport | MetricComparison | BenchmarkTable,
    format: str,
    path: Path | str,
    *,
    config: EvalConfig | None = None,
    fingerprint: str | None = None,
) -> Path:
    """Render a report object to disk; returns the written path.

    JSON output embeds the evaluation config (retrieval mode, pool, cutoffs)
    and its fingerprint when ``config`` is given. Refuses to write an empty
    table or a report with no metrics, so a failed upstream step can never
    leave a plausible-looking empty file.
    """
    path = Path(path)
    payload, markdown_rows, csv_rows = _render(obj)
    if format == "json":
        if config is not None:
            payload["config"] = config.to_dict()
            payload["config_fingerprint"] = config.fingerprint()
        elif fingerprint is not None:
            payload["config_fingerprint"] = fingerprint
        text = json_text(payload)
    elif format == "markdown":
        header, *rows = markdown_rows
        lines = [header, ["---"] * len(header), *rows]
        text = "".join(f"| {' | '.join(cells)} |\n" for cells in lines)
    elif format == "csv":
        text = "".join(",".join(map(str, cells)) + "\n" for cells in csv_rows)
    else:
        raise ValueError(f"unknown report format {format!r}")
    write_file(path, text)
    return path


def make_run_dir(base: Path | str, fingerprint: str, now: datetime | None = None) -> Path:
    """Create a new directory ``<base>/<UTC timestamp>-<fingerprint prefix>`` and return it.

    The name is never reused: when it is taken (a run of the same config in
    the same second), ``-2``, ``-3`` and so on are appended. A missing ``base`` is made.
    """
    stamp = (now or datetime.now(timezone.utc)).strftime("%Y%m%dT%H%M%S")
    name = f"{stamp}-{fingerprint[:8]}"
    for n in itertools.count(1):
        run_dir = Path(base) / (name if n == 1 else f"{name}-{n}")
        try:
            run_dir.mkdir(parents=True)
        except FileExistsError:
            continue
        return run_dir
