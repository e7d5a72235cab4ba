"""Ranking metrics over binary relevance: MRR@k, MAP@k, NDCG@k, HR@k.

A hit's rank is its 1-based position in the list. All metrics are
rank-based (invariant under monotone score transforms) and live in [0, 1],
since a ``Run`` refuses a ranking that repeats an item and ``item_ids``
that repeat an id.
A query with an empty ranked list scores 0 on everything; a query absent
from the qrels, or ranked twice in a run, is an error. Aggregates are
arithmetic means over the queries present in the run.

Scoring reads the run's arrays: the relevant items of every query become
(query, item number) keys, and one ``np.isin`` over the pairs within the
largest cutoff finds the ranks of the relevant hits of every query at once.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .cache import json_text
from .corpus import Qrels
from .index import Run

__all__ = ["MetricReport", "evaluate_run"]

DISPLAY_DECIMALS = 4


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
        return json_text(self.to_dict()).encode("utf-8")


def _query_values(ranks: list[int], n_relevant: int, k_list: Sequence[int]) -> dict[str, float]:
    """Every family at every cutoff from the ascending ranks of the relevant hits.

    MAP adds ``found / rank`` in rank order and NDCG sums with ``math.fsum``,
    as a scan of the top-k hits would.
    """
    values = {}
    for k in k_list:
        top = ranks[:bisect_right(ranks, k)]
        precision_sum = 0.0
        for found, rank in enumerate(top, 1):
            precision_sum += found / rank
        ideal_count = min(n_relevant, k)
        dcg = math.fsum(1.0 / math.log2(rank + 1) for rank in top)
        ideal = math.fsum(1.0 / math.log2(rank + 1) for rank in range(1, ideal_count + 1))
        values[f"MRR@{k}"] = 1.0 / top[0] if top else 0.0
        values[f"MAP@{k}"] = precision_sum / ideal_count if ideal_count else 0.0
        values[f"NDCG@{k}"] = dcg / ideal if ideal else 0.0
        values[f"HR@{k}"] = 1.0 if top else 0.0
    return values


def evaluate_run(
    run: Run,
    qrels: Qrels,
    k_list: Sequence[int] = (5, 10, 100),
) -> MetricReport:
    """Compute all four metric families at every cutoff in ``k_list``.

    At cutoff k: MRR is the reciprocal rank of the first relevant hit in
    the top k, else 0; MAP is average precision over the top k divided by
    min(|relevant|, k); NDCG has binary gains and the 1/log2(rank+1)
    discount; HR is 1 if a relevant item is in the top k, else 0.

    ``run`` must be a ``Run`` (``Run.from_rankings`` makes one of
    RankedLists), else TypeError. The ranks of each query's relevant hits,
    to the largest cutoff, are found for all queries at once; every family
    and cutoff is computed from those. An empty ``k_list``, a cutoff that is
    not an integer >= 1, and a query missing from ``qrels`` or ranked twice
    raise ValueError.
    """
    if not k_list:
        raise ValueError("k_list must be nonempty")
    for k in k_list:
        if type(k) is not int or k < 1:
            raise ValueError(f"metric cutoff must be >= 1 and an integer, got {k!r}")
    if not isinstance(run, Run):
        raise TypeError("evaluate_run takes a run; Run.from_rankings makes a run of RankedLists")
    n = len(run.item_ids)
    number = dict(zip(run.item_ids, range(n)))
    relevant_count: dict[str, int] = {}
    relevant_keys = []
    for q, query_id in enumerate(run.query_ids):
        if query_id not in qrels:
            raise ValueError(f"query {query_id!r} missing from qrels")
        if query_id in relevant_count:
            raise ValueError(f"query {query_id!r} is ranked twice in the run")
        relevant = qrels[query_id]
        relevant_count[query_id] = len(relevant)
        relevant_keys.extend(q * n + number[i] for i in relevant if i in number)
    ranking_of, position = run.positions()
    within = position < max(k_list)
    ranking_of, position = ranking_of[within], position[within]
    found = np.isin(ranking_of * n + run.items[within], relevant_keys)
    # The pairs run in ranking order and, within one, in rank order.
    ranks = (position[found] + 1).tolist()
    ends = np.cumsum(np.bincount(ranking_of[found], minlength=len(run))).tolist()
    per_query = {
        query_id: _query_values(ranks[lo:hi], relevant_count[query_id], k_list)
        for query_id, lo, hi in zip(run.query_ids, [0, *ends], ends)
    }
    names = tuple(_query_values([], 0, k_list))
    aggregate = {
        name: math.fsum(values[name] for values in per_query.values()) / len(per_query)
        if per_query else 0.0
        for name in names
    }
    return MetricReport(
        per_query=per_query,
        aggregate=aggregate,
        k_list=tuple(k_list),
        query_count=len(run),
        metrics=names,
    )
