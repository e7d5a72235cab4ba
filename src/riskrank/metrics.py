"""Ranking metrics over binary relevance: MRR@k, MAP@k, NDCG@k, HR@k.

A hit's rank is its 1-based position in the list. All metrics are
rank-based (invariant under monotone score transforms) and live in [0, 1].
A query with an empty ranked list scores 0 on everything; a query absent
from the qrels, or ranked twice in a run, is an error. Aggregates are
arithmetic means over the queries present in the run.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from .index import RankedList

__all__ = [
    "MetricSlice",
    "MetricReport",
    "mrr_at_k",
    "map_at_k",
    "ndcg_at_k",
    "hit_rate_at_k",
    "evaluate_run",
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


def _metric(
    name: str,
    k: int,
    run: Sequence[RankedList],
    qrels: Qrels,
    value: Callable[[tuple[tuple[str, float], ...], set[str]], float],
) -> MetricSlice:
    """``value(top-k hits, relevant ids)`` for each query, and their mean."""
    per_query = {}
    for ranking in run:
        if ranking.query_id not in qrels:
            raise ValueError(f"query {ranking.query_id!r} missing from qrels")
        if ranking.query_id in per_query:
            raise ValueError(f"query {ranking.query_id!r} is ranked twice in the run")
        per_query[ranking.query_id] = value(ranking.hits[:k], qrels[ranking.query_id])
    aggregate = math.fsum(per_query.values()) / len(per_query) if per_query else 0.0
    return MetricSlice(name=f"{name}@{k}", k=k, per_query=per_query, aggregate=aggregate)


def mrr_at_k(run: Sequence[RankedList], qrels: Qrels, k: int) -> MetricSlice:
    """Reciprocal rank of the first relevant hit within the top k, else 0."""

    def reciprocal_rank(hits, relevant):
        return next((1.0 / rank for rank, (i, _) in enumerate(hits, 1) if i in relevant), 0.0)

    return _metric("MRR", k, run, qrels, reciprocal_rank)


def map_at_k(run: Sequence[RankedList], qrels: Qrels, k: int) -> MetricSlice:
    """Average precision truncated at k, normalized by min(|relevant|, k)."""

    def average_precision(hits, relevant):
        found = 0
        precision_sum = 0.0
        for rank, (item_id, _) in enumerate(hits, 1):
            if item_id in relevant:
                found += 1
                precision_sum += found / rank
        denom = min(len(relevant), k)
        return precision_sum / denom if denom else 0.0

    return _metric("MAP", k, run, qrels, average_precision)


def ndcg_at_k(run: Sequence[RankedList], qrels: Qrels, k: int) -> MetricSlice:
    """Binary-gain NDCG with the 1/log2(rank+1) discount."""

    def ndcg(hits, relevant):
        dcg = math.fsum(
            1.0 / math.log2(rank + 1) for rank, (i, _) in enumerate(hits, 1) if i in relevant
        )
        ideal = math.fsum(
            1.0 / math.log2(rank + 1) for rank in range(1, min(len(relevant), k) + 1)
        )
        return dcg / ideal if ideal else 0.0

    return _metric("NDCG", k, run, qrels, ndcg)


def hit_rate_at_k(run: Sequence[RankedList], qrels: Qrels, k: int) -> MetricSlice:
    """1 if any relevant item appears in the top k, else 0."""

    def hit(hits, relevant):
        return 1.0 if any(item_id in relevant for item_id, _ in hits) else 0.0

    return _metric("HR", k, run, qrels, hit)


_METRIC_FAMILIES = (mrr_at_k, map_at_k, ndcg_at_k, hit_rate_at_k)


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
        for fn in _METRIC_FAMILIES:
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
