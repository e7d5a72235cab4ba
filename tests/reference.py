"""Independent naive reference implementations used as test oracles.

Everything here deliberately avoids the library's code paths: metrics use
O(k^2) loops over plain id lists, dense scoring normalizes and ranks with
its own mechanics, fusion is a plain dict fold, and ``check_ranking`` walks
the hits pair by pair. ``reference_rankings`` and ``reference_rrf_fuse``
keep the list path that searches and fusion ranked through before they
returned runs: Python tuples sorted in two stable passes, and a dict of
sums per fused item. Where the library defines scores as exactly-rounded
float64 arithmetic, the references reproduce that arithmetic from its
definition (IEEE products, exact sum), including a Fraction-based
exact-rounding cross-check. ``bm25_score`` scores one item at a time with
``bm25_term_weight``, the Okapi formula on Python numbers in the library's
order of operations, so it gives the library's bits; it is checked against
``bm25_by_hand``, a direct transcription of the formula.
"""

from __future__ import annotations

import hashlib
import math
import re
from fractions import Fraction
from operator import itemgetter
from typing import Sequence

import numpy as np

from riskrank.index import LexicalIndex


def check_ranking(hits) -> None:
    """Assert that ``(item_id, score)`` hits hold distinct ids, no NaN score
    and scores that never increase."""
    seen = set()
    previous = math.inf
    for item_id, score in hits:
        assert item_id not in seen, f"item id {item_id!r} repeats"
        seen.add(item_id)
        assert score == score, f"NaN score for {item_id!r}"
        assert score <= previous, f"score rises from {previous} to {score} at {item_id!r}"
        previous = score


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
# Hashed embeddings, one token at a time
# ---------------------------------------------------------------------------


def reference_tokenize(text: str) -> list[str]:
    """The runs of letters and digits (``[^\\W_]``, Unicode) in ``text.lower()``."""
    return re.findall(r"[^\W_]+", text.lower())


def reference_hash_embed(tokens: list[str], dim: int, seed: int) -> np.ndarray:
    """Feature hashing token by token, straight from the definition.

    Each token occurrence is hashed with blake2b keyed by the seed's low 64
    bits: the first 8 digest bytes (little endian) mod ``dim`` pick the
    coordinate, the low bit of the 9th picks the sign. Signed counts add up
    in float64; the vector is divided by sqrt of the exact sum of squares
    and rounded to float32. No tokens gives the all-zero vector.
    """
    key = (seed & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little")
    counts = np.zeros(dim, dtype=np.float64)
    for token in tokens:
        digest = hashlib.blake2b(token.encode("utf-8"), digest_size=9, key=key).digest()
        counts[int.from_bytes(digest[:8], "little") % dim] += 1 if digest[8] & 1 else -1
    norm = math.sqrt(math.fsum((counts * counts).tolist()))
    return (counts / norm if norm != 0.0 else counts).astype(np.float32)


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


def exact_norm(v) -> float:
    """Euclidean norm computed as ``sqrt`` of the exactly rounded sum of squares.

    Only the nonzero components are squared and summed. The square of a
    zero is +0, never -0, and adding +0 to a sum of non-negative terms
    changes neither its value nor its sign, so the result is bit for bit
    ``sqrt(fsum(v*v))`` over every component.
    """
    v64 = np.asarray(v, dtype=np.float64)
    nonzero = v64[v64 != 0.0]
    return math.sqrt(math.fsum((nonzero * nonzero).tolist()))


def reference_unit_rows(vectors) -> np.ndarray:
    """Normalize raw vectors exactly as the index contract states.

    Norm = sqrt of the exact sum of IEEE-squared components (float64), then
    divide in float64 and round the rows to float32 for storage. A nonzero
    row whose largest square falls below the normal range is first scaled
    up by a power of two, which changes no significand, so that its
    largest entry lies in [0.5, 1).
    """
    rows = []
    for vec in vectors:
        v64 = np.asarray(vec, dtype=np.float64)
        peak = float(np.max(np.abs(v64), initial=0.0))
        if 0.0 < peak < 2.0**-511:
            v64 = np.ldexp(v64, -math.frexp(peak)[1])
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


def reference_rankings(
    query_ids: Sequence[str], bounds: Sequence[int], ids: Sequence[str],
    scores: Sequence[float], k: int | None,
) -> list[tuple[str, tuple[tuple[str, float], ...]]]:
    """For each i, the pairs ``bounds[i]:bounds[i + 1]`` of ``ids`` and float
    ``scores``, ranked by ``(-score, id)`` and cut at ``k``, as
    ``(query_ids[i], hits)``."""
    results = []
    for query_id, lo, hi in zip(query_ids, bounds, bounds[1:]):
        items = list(zip(ids[lo:hi], scores[lo:hi]))
        # Two stable passes give the (-score, id) order: a reverse sort keeps
        # equal scores (0.0 and -0.0 among them) in the order of the first pass.
        items.sort(key=itemgetter(0))
        items.sort(key=itemgetter(1), reverse=True)
        results.append((query_id, tuple(items[:k])))
    return results


def reference_rrf_fuse(
    rankings: Sequence[Sequence[tuple[str, float]]], k_rrf: int, depth: int, k: int | None
) -> tuple[tuple[str, float], ...]:
    """The hits of one query's rankings fused by reciprocal rank through a
    dict: with one or two rankings, each item's weights are added with
    plain ``+``, the first ranking's weight first; with more, each item's
    weights are summed by ``math.fsum``. Ranked by ``reference_rankings``."""
    longest = max(map(len, rankings))
    weights = [1.0 / (k_rrf + rank) for rank in range(1, min(depth, longest) + 1)]
    if len(rankings) <= 2:
        first, *rest = rankings
        scores = dict(zip(map(itemgetter(0), first), weights))
        for ranking in rest:
            for item_id, weight in zip(map(itemgetter(0), ranking), weights):
                scores[item_id] = scores.get(item_id, 0.0) + weight
    else:
        terms: dict[str, list[float]] = {}
        for ranking in rankings:
            for item_id, weight in zip(map(itemgetter(0), ranking), weights):
                terms.setdefault(item_id, []).append(weight)
        scores = {item_id: math.fsum(t) for item_id, t in terms.items()}
    ids, values = list(scores), list(scores.values())
    return reference_rankings(["q"], [0, len(ids)], ids, values, k)[0][1]


def bm25_by_hand(
    tf: int, df: int, n_docs: int, doc_len: int, avgdl: float, k1: float, b: float
) -> float:
    """Direct transcription of the Okapi formula for single-term checks."""
    if tf == 0:
        return 0.0
    idf = math.log(1 + (n_docs - df + 0.5) / (df + 0.5))
    return idf * (tf * (k1 + 1)) / (tf + k1 * (1 - b + b * doc_len / avgdl))


def bm25_term_weight(
    tf: int, df: int, doc_len: int, avgdl: float, n_items: int, k1: float, b: float
) -> float:
    """One term's Okapi BM25 contribution with +1-smoothed idf,
    ``ln(1 + (N - df + 0.5) / (df + 0.5))``; a term with tf == 0 contributes
    exactly 0. Every length counts as 0 when ``avgdl`` is not above 0."""
    if tf == 0:
        return 0.0
    idf = math.log(1.0 + (n_items - df + 0.5) / (df + 0.5))
    length_norm = 1.0 - b + b * (doc_len / avgdl if avgdl > 0 else 0.0 * doc_len)
    return idf * tf * (k1 + 1.0) / (tf + k1 * length_norm)


def bm25_score(index: LexicalIndex, query_terms: Sequence[str], item_id: str) -> float:
    """BM25 score of one item for a bag of query terms.

    Repeated query terms are deduplicated (each distinct term contributes
    once, with the document-side term frequency inside the formula). Each
    term's postings are read as plain Python lists and walked one posting
    at a time for the item's number.
    """
    if item_id not in index.item_ids:
        raise ValueError(f"unknown item id {item_id!r}")
    item = index.item_ids.index(item_id)
    score = 0.0
    for term in sorted(set(query_terms)):
        if term not in index.terms:
            continue
        row = index.terms[term]
        start, stop = int(index.starts[row]), int(index.starts[row + 1])
        tf = 0
        for doc, posting_tf in zip(index.docs[start:stop].tolist(), index.tf[start:stop].tolist()):
            if doc == item:
                tf = posting_tf
                break
        if tf == 0:
            continue
        score += bm25_term_weight(
            tf, stop - start, int(index.doc_len[item]), index.avgdl,
            index.count, index.k1, index.b,
        )
    return score
