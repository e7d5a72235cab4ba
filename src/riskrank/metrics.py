"""Ranking metrics over binary relevance: MRR@k, MAP@k, NDCG@k, HR@k.

All metrics are rank-based (invariant under monotone score transforms) and
live in [0, 1]. A query with an empty ranked list scores 0 on everything;
a query absent from the qrels is an error. Aggregates are arithmetic means
over the queries present in the run.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

from .index import RankedList

__all__ = [
    "MetricSlice",
    "MetricReport",
    "mrr_at_k",
    "map_at_k",
    "ndcg_at_k",
    "hit_rate_at_k",
    "evaluate_run",
    "load_qrels",
    "save_qrels",
]

Qrels = Mapping[str, set[str]]

DISPLAY_DECIMALS = 4


@dataclass(frozen=True)
class MetricSlice:
    """One metric at one cutoff: per-query values plus their mean."""

    name: str
    k: int
    per_query: dict[str, float]
    aggregate: float


@dataclass
class MetricReport:
    """Per-query and aggregate values for a set of metrics."""

    per_query: dict[str, dict[str, float]]
    aggregate: dict[str, float]
    k_list: tuple[int, ...]
    query_count: int
    metrics: tuple[str, ...] = field(default_factory=tuple)

    def to_dict(self) -> dict:
        """JSON-ready payload: full precision plus a rounded display column."""
        return {
            "query_count": self.query_count,
            "k_list": list(self.k_list),
            "metrics": list(self.metrics),
            "aggregate": {name: self.aggregate[name] for name in sorted(self.aggregate)},
            "aggregate_display": {
                name: f"{self.aggregate[name]:.{DISPLAY_DECIMALS}f}"
                for name in sorted(self.aggregate)
            },
            "per_query": {
                qid: {m: self.per_query[qid][m] for m in sorted(self.per_query[qid])}
                for qid in sorted(self.per_query)
            },
        }

    def to_json_bytes(self) -> bytes:
        return (
            json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"
        ).encode("utf-8")


def _relevant_for(ranking: RankedList, qrels: Qrels) -> set[str]:
    if ranking.query_id not in qrels:
        raise ValueError(f"query {ranking.query_id!r} missing from qrels")
    return qrels[ranking.query_id]


def _slice(name: str, k: int, per_query: dict[str, float]) -> MetricSlice:
    aggregate = math.fsum(per_query.values()) / len(per_query) if per_query else 0.0
    return MetricSlice(name=name, k=k, per_query=per_query, aggregate=aggregate)


def mrr_at_k(run: Sequence[RankedList], qrels: Qrels, k: int) -> MetricSlice:
    """Reciprocal rank of the first relevant hit within the top k, else 0."""
    per_query = {}
    for ranking in run:
        relevant = _relevant_for(ranking, qrels)
        value = 0.0
        for hit in ranking.hits[:k]:
            if hit.item_id in relevant:
                value = 1.0 / hit.rank
                break
        per_query[ranking.query_id] = value
    return _slice(f"MRR@{k}", k, per_query)


def map_at_k(run: Sequence[RankedList], qrels: Qrels, k: int) -> MetricSlice:
    """Average precision truncated at k, normalized by min(|relevant|, k)."""
    per_query = {}
    for ranking in run:
        relevant = _relevant_for(ranking, qrels)
        found = 0
        precision_sum = 0.0
        for hit in ranking.hits[:k]:
            if hit.item_id in relevant:
                found += 1
                precision_sum += found / hit.rank
        denom = min(len(relevant), k)
        per_query[ranking.query_id] = precision_sum / denom if denom else 0.0
    return _slice(f"MAP@{k}", k, per_query)


def ndcg_at_k(run: Sequence[RankedList], qrels: Qrels, k: int) -> MetricSlice:
    """Binary-gain NDCG with the 1/log2(rank+1) discount."""
    per_query = {}
    for ranking in run:
        relevant = _relevant_for(ranking, qrels)
        dcg = math.fsum(
            1.0 / math.log2(hit.rank + 1)
            for hit in ranking.hits[:k]
            if hit.item_id in relevant
        )
        ideal = math.fsum(
            1.0 / math.log2(rank + 1)
            for rank in range(1, min(len(relevant), k) + 1)
        )
        per_query[ranking.query_id] = dcg / ideal if ideal else 0.0
    return _slice(f"NDCG@{k}", k, per_query)


def hit_rate_at_k(run: Sequence[RankedList], qrels: Qrels, k: int) -> MetricSlice:
    """1 if any relevant item appears in the top k, else 0."""
    per_query = {}
    for ranking in run:
        relevant = _relevant_for(ranking, qrels)
        hit = any(h.item_id in relevant for h in ranking.hits[:k])
        per_query[ranking.query_id] = 1.0 if hit else 0.0
    return _slice(f"HR@{k}", k, per_query)


_METRIC_FAMILIES = (
    ("MRR", mrr_at_k),
    ("MAP", map_at_k),
    ("NDCG", ndcg_at_k),
    ("HR", hit_rate_at_k),
)


def evaluate_run(
    run: Sequence[RankedList],
    qrels: Qrels,
    k_list: Sequence[int] = (5, 10, 100),
) -> MetricReport:
    """Compute all four metric families at every cutoff in ``k_list``."""
    if not k_list:
        raise ValueError("k_list must be nonempty")
    slices = []
    for k in k_list:
        if k < 1:
            raise ValueError(f"metric cutoff must be >= 1, got {k}")
        for _, fn in _METRIC_FAMILIES:
            slices.append(fn(run, qrels, k))
    per_query: dict[str, dict[str, float]] = {
        ranking.query_id: {} for ranking in run
    }
    aggregate: dict[str, float] = {}
    for s in slices:
        aggregate[s.name] = s.aggregate
        for qid, value in s.per_query.items():
            per_query[qid][s.name] = value
    return MetricReport(
        per_query=per_query,
        aggregate=aggregate,
        k_list=tuple(k_list),
        query_count=len(run),
        metrics=tuple(s.name for s in slices),
    )


def load_qrels(path: Path | str) -> dict[str, set[str]]:
    """Read qrels JSONL: ``{"query_id": ..., "relevant": [ids]}`` per line."""
    qrels: dict[str, set[str]] = {}
    with Path(path).open("r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            record = json.loads(line)
            qid = record["query_id"]
            relevant = set(record["relevant"])
            if not relevant:
                raise ValueError(f"{path}: line {line_no}: query {qid!r} has no relevant ids")
            if qid in qrels:
                raise ValueError(f"{path}: line {line_no}: duplicate query id {qid!r}")
            qrels[qid] = relevant
    return qrels


def save_qrels(qrels: Qrels, path: Path | str) -> None:
    with Path(path).open("w", encoding="utf-8") as handle:
        for qid in sorted(qrels):
            if not qrels[qid]:
                raise ValueError(f"query {qid!r} has no relevant ids")
            record = {"query_id": qid, "relevant": sorted(qrels[qid])}
            handle.write(json.dumps(record) + "\n")
