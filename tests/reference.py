"""Independent naive reference implementations used as test oracles.

Everything here deliberately avoids the library's code paths: metrics use
O(k^2) loops over plain id lists, dense scoring normalizes and ranks with
its own mechanics, and fusion is a plain dict fold. Where the library
defines scores as exactly-rounded float64 arithmetic, the references
reproduce that arithmetic from its definition (IEEE products, exact sum),
including a Fraction-based exact-rounding cross-check.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


# ---------------------------------------------------------------------------
# Ranking metrics over a plain list of retrieved ids
# ---------------------------------------------------------------------------


def naive_mrr(retrieved: list[str], relevant: set[str], k: int) -> float:
    for position, item in enumerate(retrieved[:k], start=1):
        if item in relevant:
            return 1.0 / position
    return 0.0


def naive_ap(retrieved: list[str], relevant: set[str], k: int) -> float:
    total = 0.0
    for position, item in enumerate(retrieved[:k], start=1):
        if item in relevant:
            hits_so_far = len([x for x in retrieved[:position] if x in relevant])
            total += hits_so_far / position
    denom = min(len(relevant), k)
    return total / denom if denom > 0 else 0.0


def naive_ndcg(retrieved: list[str], relevant: set[str], k: int) -> float:
    dcg = 0.0
    for position, item in enumerate(retrieved[:k], start=1):
        if item in relevant:
            dcg += 1.0 / math.log2(position + 1)
    ideal = 0.0
    for position in range(1, min(len(relevant), k) + 1):
        ideal += 1.0 / math.log2(position + 1)
    return dcg / ideal if ideal > 0 else 0.0


def naive_hit_rate(retrieved: list[str], relevant: set[str], k: int) -> float:
    return 1.0 if any(item in relevant for item in retrieved[:k]) else 0.0


# ---------------------------------------------------------------------------
# Brute-force dense retrieval
# ---------------------------------------------------------------------------


def fraction_dot(u, v) -> float:
    """Exactly rounded dot product via exact rational arithmetic.

    Each product is an IEEE float64 multiply (one rounding); the sum of the
    rounded products is carried out exactly in Fraction space and rounded
    once at the end. This is the ground-truth definition of the library's
    score arithmetic.
    """
    products = np.asarray(u, dtype=np.float64) * np.asarray(v, dtype=np.float64)
    return float(sum(Fraction(p) for p in products.tolist()))


def reference_unit_rows(vectors) -> np.ndarray:
    """Normalize raw vectors exactly as the index contract states.

    Norm = sqrt of the exact sum of IEEE-squared components (float64), then
    divide in float64 and round the rows to float32 for storage.
    """
    rows = []
    for vec in vectors:
        v64 = np.asarray(vec, dtype=np.float64)
        squares = (v64 * v64).tolist()
        norm = math.sqrt(math.fsum(squares))
        rows.append((v64 / norm if norm != 0.0 else v64).astype(np.float32))
    return np.stack(rows) if rows else np.zeros((0, 0), dtype=np.float32)


def brute_force_dense(
    ids: list[str], vectors, query, k: int
) -> list[tuple[str, float]]:
    """Full-scan cosine ranking with the ascending-id tie rule.

    Scores every item (no shortcuts), sorts ascending by id and then runs a
    stable descending sort on the score, which realizes the same total order
    as sorting on (-score, id) without sharing that code.
    """
    q64 = np.asarray(query, dtype=np.float64)
    qnorm = math.sqrt(math.fsum((q64 * q64).tolist()))
    qn = q64 / qnorm if qnorm != 0.0 else q64
    unit_rows = reference_unit_rows(vectors)
    scored = []
    for item_id, row in zip(ids, unit_rows):
        products = (row.astype(np.float64) * qn).tolist()
        scored.append((item_id, math.fsum(products)))
    scored.sort(key=lambda pair: pair[0])
    scored.sort(key=lambda pair: pair[1], reverse=True)  # stable: ids break ties
    return scored[:k]


def brute_force_rrf(
    rankings: list[list[str]], k_rrf: int, depth: int
) -> dict[str, float]:
    """Fused scores over the union of items, straight from the definition:
    each item's float terms 1 / (k_rrf + position), summed exactly and
    rounded once."""
    terms: dict[str, list[float]] = {}
    for ranking in rankings:
        for position, item in enumerate(ranking, start=1):
            if position > depth:
                continue
            terms.setdefault(item, []).append(1.0 / (k_rrf + position))
    return {item: math.fsum(values) for item, values in terms.items()}


def bm25_by_hand(
    tf: int, df: int, n_docs: int, doc_len: int, avgdl: float, k1: float, b: float
) -> float:
    """Direct transcription of the Okapi formula for single-term checks."""
    if tf == 0:
        return 0.0
    idf = math.log(1 + (n_docs - df + 0.5) / (df + 0.5))
    return idf * (tf * (k1 + 1)) / (tf + k1 * (1 - b + b * doc_len / avgdl))
