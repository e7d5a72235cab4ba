"""Exact dense top-k search, Okapi BM25, reciprocal-rank fusion, re-ranking.

All rankings are deterministic total orders: scores sort descending and
ties break by ascending item id. Dense scores are exactly-rounded float64
dot products of unit vectors (see ``riskrank.embedding``), so a full-scan
re-implementation of the same arithmetic reproduces them bit-for-bit.
Dense search gets there by filter-then-verify: one float64 matmul per
block of queries gives approximate scores, a rigorous forward-error bound
keeps every row that could reach the top k (the whole band of ties at the
k-th score included), and only those rows are scored exactly. BM25 search
accumulates scores term at a time over the postings, adding each item's
term weights in the same order as ``bm25_score``.

Persistence writes a directory with ``meta.json`` (counts, dimension, BM25
parameters, item ids), ``vectors.bin`` (the item rows as one RKV1 file,
through the codec in ``riskrank.cache``), and ``postings.jsonl`` (one term
per line).
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .cache import read_rkv1, write_rkv1
from .embedding import exact_norm, tokenize

__all__ = [
    "RankedHit",
    "RankedList",
    "DenseIndex",
    "LexicalIndex",
    "ranked_list_from_scores",
    "validate_ranked_list",
    "build_dense_index",
    "dense_search",
    "dense_search_many",
    "build_lexical_index",
    "bm25_term_weight",
    "bm25_score",
    "lexical_search",
    "rrf_fuse",
    "rerank",
    "save_index",
    "load_index",
]

DEFAULT_K1 = 1.2
DEFAULT_B = 0.75
DEFAULT_RRF_K = 60
DEFAULT_RRF_DEPTH = 100

# Queries per dense-search block: a block's approximate scores, queries
# times index rows, stay near this many float64 values.
_BLOCK_ITEMS = 50_000


@dataclass(frozen=True)
class RankedHit:
    item_id: str
    score: float
    rank: int  # 1-based


@dataclass(frozen=True)
class RankedList:
    """Ordered retrieval hits for one query."""

    query_id: str
    hits: tuple[RankedHit, ...]

    @property
    def item_ids(self) -> list[str]:
        return [h.item_id for h in self.hits]


def _require_unique(ids: Sequence[str], message: str) -> None:
    """Raise ValueError ``"<message>: <sorted repeated ids>"`` if an id repeats."""
    counts = Counter(ids)
    if len(counts) != len(ids):
        raise ValueError(f"{message}: {sorted(i for i, n in counts.items() if n > 1)}")


def ranked_list_from_scores(
    query_id: str,
    scored: Iterable[tuple[str, float]],
    k: int | None = None,
) -> RankedList:
    """Rank (item_id, score) pairs descending, ties by ascending item id."""
    items = list(scored)
    _require_unique([item_id for item_id, _ in items], "duplicate item ids in ranking")
    items.sort(key=lambda pair: (-pair[1], pair[0]))
    if k is not None:
        items = items[:k]
    hits = tuple(
        RankedHit(item_id=item_id, score=float(score), rank=rank)
        for rank, (item_id, score) in enumerate(items, start=1)
    )
    return RankedList(query_id=query_id, hits=hits)


def validate_ranked_list(ranking: RankedList) -> None:
    """Raise ValueError unless ranks are 1..n, scores non-increasing, ids distinct."""
    ids = ranking.item_ids
    if len(set(ids)) != len(ids):
        raise ValueError(f"ranking for {ranking.query_id!r} repeats item ids")
    for position, hit in enumerate(ranking.hits, start=1):
        if hit.rank != position:
            raise ValueError(
                f"ranking for {ranking.query_id!r}: rank {hit.rank} at position {position}"
            )
    scores = [h.score for h in ranking.hits]
    for a, b in zip(scores, scores[1:]):
        if b > a:
            raise ValueError(
                f"ranking for {ranking.query_id!r}: scores increase ({a} -> {b})"
            )


@dataclass(frozen=True)
class DenseIndex:
    """Item ids plus an (n, dim) float32 matrix of L2-normalized rows."""

    item_ids: tuple[str, ...]
    matrix: np.ndarray
    dim: int

    def __post_init__(self) -> None:
        if self.matrix.shape != (len(self.item_ids), self.dim):
            raise ValueError(
                f"matrix has shape {self.matrix.shape}, but item_ids and dim "
                f"give ({len(self.item_ids)}, {self.dim})"
            )

    @property
    def count(self) -> int:
        return len(self.item_ids)


def build_dense_index(
    ids: Sequence[str],
    vectors: Sequence[np.ndarray] | np.ndarray,
    dim: int | None = None,
) -> DenseIndex:
    """Normalize and stack vectors into a searchable index.

    ``dim`` is only needed for an empty index. Duplicate ids, dimension
    mismatches and vectors holding NaN or Inf raise ValueError. All-zero
    vectors are kept as zero rows and score 0 against every query.
    """
    rows = [np.asarray(v, dtype=np.float64) for v in vectors]
    if len(ids) != len(rows):
        raise ValueError(f"got {len(ids)} ids but {len(rows)} vectors")
    _require_unique(ids, "duplicate item ids")
    if rows:
        dims = {row.shape for row in rows}
        if len(dims) != 1 or rows[0].ndim != 1:
            raise ValueError(f"vectors must share one 1-D shape, got {sorted(dims)}")
        dim = rows[0].shape[0]
    elif dim is None:
        dim = 0
    matrix = np.zeros((len(rows), dim), dtype=np.float32)
    for i, (item_id, row) in enumerate(zip(ids, rows)):
        if not np.isfinite(row).all():
            raise ValueError(f"vector for item {item_id!r} has non-finite values")
        norm = exact_norm(row)
        matrix[i] = (row / norm if norm != 0.0 else row).astype(np.float32)
    return DenseIndex(item_ids=tuple(ids), matrix=matrix, dim=dim)


def dense_search(
    index: DenseIndex,
    query_vec: np.ndarray,
    k: int,
    query_id: str = "",
) -> RankedList:
    """Exact top-k by cosine over the whole index.

    The query is normalized in float64 (a zero query scores 0 everywhere);
    each item's score is the exactly-rounded dot product with its stored
    row. Fewer than k items means all items are returned. A query holding
    NaN or Inf raises ValueError naming ``query_id``.

    Only rows that can reach the top k are scored exactly: an approximate
    score from BLAS plus a rigorous bound on its error rules the others
    out, so hits, scores and order are those of a full exact scan.
    """
    q = np.asarray(query_vec, dtype=np.float64)
    if index.count and q.shape != (index.dim,):
        raise ValueError(f"query has shape {q.shape}, index dim is {index.dim}")
    return _dense_topk(index, q.reshape(1, -1), k, [query_id])[0]


def dense_search_many(
    index: DenseIndex,
    queries: Sequence[np.ndarray] | np.ndarray,
    k: int,
    query_ids: Sequence[str],
) -> list[RankedList]:
    """``dense_search`` for each row of ``queries``, with ids ``query_ids``."""
    q = np.asarray(queries, dtype=np.float64)
    if len(q) != len(query_ids):
        raise ValueError(f"got {len(q)} queries but {len(query_ids)} query ids")
    if index.count and len(q) and q.shape[1:] != (index.dim,):
        raise ValueError(f"queries have shape {q.shape}, index dim is {index.dim}")
    return _dense_topk(index, q, k, query_ids)


# Filter-then-verify.  For an index row x (float32, widened exactly) and a
# query q as normalized (float64), s is the exactly rounded sum of the
# float64 products x_j*q_j and a is the same dot product from BLAS.  With
# u = 2^-53, gamma_m = m*u/(1 - m*u) and A = sum|x_j*q_j|: in any summation
# order, with or without FMA, a is within gamma_d*A of the real dot product
# (Higham, "Accuracy and Stability of Numerical Algorithms", ch. 3) and s
# within u(2+u)*A of it (one rounding per product, one for the sum);
# products that underflow add at most (2d+1)*2^-1074 in all.  A <= L*|q|_inf
# with L the largest row 1-norm, so for every row
#   |a - s| <= e = gamma_{d+2}*L*|q|_inf + (2d+1)*2^-1074.
# The computed E = max(16(d+2)u*L*|q|_inf, 2^-1000) is at least
# max(15*gamma_{d+2}*L*|q|_inf, 2^-1000) for d < 2^40, after the roundings
# of L (a sum of non-negative terms, low by at most a factor 1 - gamma_d)
# and of E itself.  Let t be the k-th largest a.  As |t| < 2L*|q|_inf +
# 2^-1000, the rounding of t - 2E, at most u*(|t| + 2E), still leaves
# fl(t - 2E) <= t - 2e.  Each of the k rows with a >= t has s >= t - e; a
# row with a < fl(t - 2E) has s < t - e, so it loses to all k of them, ties
# included, and cannot reach the top k.  Ranking the kept rows by exact
# score thus gives the full scan's hits, scores and order bit for bit.  The
# bound needs finite inputs, hence the checks.
def _dense_topk(
    index: DenseIndex,
    queries: np.ndarray,
    k: int,
    query_ids: Sequence[str],
) -> list[RankedList]:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    for query_id, q in zip(query_ids, queries):
        if not np.isfinite(q).all():
            raise ValueError(f"query {query_id!r} has non-finite values")
    n = index.count
    if n == 0:
        return [RankedList(query_id=query_id, hits=()) for query_id in query_ids]
    rows = index.matrix.astype(np.float64)
    row_l1 = np.abs(rows).sum(axis=1)
    if not np.isfinite(row_l1).all():
        bad = int(np.flatnonzero(~np.isfinite(row_l1))[0])
        raise ValueError(f"index row of item {index.item_ids[bad]!r} has non-finite values")
    norms = np.array([exact_norm(q) for q in queries])
    unit = queries / np.where(norms != 0.0, norms, 1.0)[:, None]
    error_scale = (rows.shape[1] + 2) * 2.0**-49 * float(row_l1.max())
    kth = max(n - k, 0)
    block = max(1, _BLOCK_ITEMS // n)
    results = []
    for start in range(0, len(unit), block):
        chunk = unit[start:start + block]
        approx = chunk @ rows.T
        threshold = np.partition(approx, kth, axis=1)[:, kth]
        error = np.maximum(
            error_scale * np.abs(chunk).max(axis=1, initial=0.0), 2.0**-1000
        )
        keep = approx >= (threshold - 2.0 * error)[:, None]
        for query_id, q, mask in zip(query_ids[start:start + block], chunk, keep):
            kept = np.flatnonzero(mask)
            scores = [math.fsum(row) for row in (rows[kept] * q).tolist()]
            results.append(ranked_list_from_scores(
                query_id, zip([index.item_ids[i] for i in kept.tolist()], scores), k=k
            ))
    return results


@dataclass(frozen=True)
class LexicalIndex:
    """Inverted index with the statistics BM25 needs."""

    item_ids: tuple[str, ...]
    postings: dict[str, tuple[tuple[str, int], ...]]  # term -> ((item_id, tf), ...)
    doc_len: dict[str, int]
    avgdl: float
    k1: float = DEFAULT_K1
    b: float = DEFAULT_B

    @property
    def count(self) -> int:
        return len(self.item_ids)


def build_lexical_index(
    ids: Sequence[str],
    texts: Sequence[str],
    k1: float = DEFAULT_K1,
    b: float = DEFAULT_B,
) -> LexicalIndex:
    if len(ids) != len(texts):
        raise ValueError(f"got {len(ids)} ids but {len(texts)} texts")
    _require_unique(ids, "duplicate item ids")
    postings: dict[str, list[tuple[str, int]]] = {}
    doc_len: dict[str, int] = {}
    for item_id, text in zip(ids, texts):
        tokens = tokenize(text)
        doc_len[item_id] = len(tokens)
        for term, tf in sorted(Counter(tokens).items()):
            postings.setdefault(term, []).append((item_id, tf))
    avgdl = math.fsum(doc_len.values()) / len(doc_len) if doc_len else 0.0
    return LexicalIndex(
        item_ids=tuple(ids),
        postings={term: tuple(entries) for term, entries in postings.items()},
        doc_len=doc_len,
        avgdl=avgdl,
        k1=k1,
        b=b,
    )


def bm25_term_weight(
    tf: int, df: int, doc_len: int, avgdl: float, n_items: int, k1: float, b: float
) -> float:
    """One term's Okapi BM25 contribution with +1-smoothed idf.

    ``idf = ln(1 + (N - df + 0.5) / (df + 0.5))``; a term with tf == 0
    contributes exactly 0.
    """
    if tf == 0:
        return 0.0
    idf = math.log(1.0 + (n_items - df + 0.5) / (df + 0.5))
    length_norm = 1.0 - b + b * (doc_len / avgdl if avgdl > 0 else 0.0)
    return idf * tf * (k1 + 1.0) / (tf + k1 * length_norm)


def bm25_score(index: LexicalIndex, query_terms: Sequence[str], item_id: str) -> float:
    """BM25 score of one item for a bag of query terms.

    Repeated query terms are deduplicated (each distinct term contributes
    once, with the document-side term frequency inside the formula).
    """
    if item_id not in index.doc_len:
        raise ValueError(f"unknown item id {item_id!r}")
    score = 0.0
    for term in sorted(set(query_terms)):
        entries = index.postings.get(term, ())
        tf = 0
        for posting_id, posting_tf in entries:
            if posting_id == item_id:
                tf = posting_tf
                break
        if tf == 0:
            continue
        score += bm25_term_weight(
            tf, len(entries), index.doc_len[item_id], index.avgdl,
            index.count, index.k1, index.b,
        )
    return score


def lexical_search(
    index: LexicalIndex,
    query_text: str,
    k: int,
    query_id: str = "",
) -> RankedList:
    """Top-k items by BM25 for the tokenized query; zero scorers are dropped.

    One pass over the query terms' postings, terms in sorted order: each
    item's sum starts at 0.0 and adds the same weights in the same order as
    ``bm25_score``, so the scores are equal bit for bit.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    scores: dict[str, float] = {}
    for term in sorted(set(tokenize(query_text))):
        entries = index.postings.get(term, ())
        for item_id, tf in entries:
            if item_id not in index.doc_len:
                raise ValueError(f"unknown item id {item_id!r}")
            scores[item_id] = scores.get(item_id, 0.0) + bm25_term_weight(
                tf, len(entries), index.doc_len[item_id], index.avgdl,
                index.count, index.k1, index.b,
            )
    return ranked_list_from_scores(
        query_id, [(i, s) for i, s in scores.items() if s > 0.0], k=k
    )


def rrf_fuse(
    lists: Sequence[RankedList],
    k_rrf: int = DEFAULT_RRF_K,
    depth: int = DEFAULT_RRF_DEPTH,
) -> RankedList:
    """Reciprocal-rank fusion: item score = sum of 1 / (k_rrf + rank).

    Only occurrences within ``depth`` of the top of each input list count.
    Each sum is exactly rounded (``math.fsum``), so the order of the input
    lists never changes a score. Input lists must share a query id.
    """
    if not lists:
        raise ValueError("need at least one ranked list to fuse")
    if k_rrf < 1:
        raise ValueError(f"k_rrf must be >= 1, got {k_rrf}")
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    query_ids = {rl.query_id for rl in lists}
    if len(query_ids) != 1:
        raise ValueError(f"cannot fuse lists with differing query ids: {sorted(query_ids)}")
    terms: dict[str, list[float]] = {}
    for ranking in lists:
        for hit in ranking.hits:
            if hit.rank <= depth:
                terms.setdefault(hit.item_id, []).append(1.0 / (k_rrf + hit.rank))
    return ranked_list_from_scores(
        lists[0].query_id, [(i, math.fsum(t)) for i, t in terms.items()]
    )


RerankHook = Callable[[str, RankedList], RankedList]


def rerank(
    hook: RerankHook | None,
    query_text: str,
    candidates: RankedList,
) -> RankedList:
    """Apply a re-ranking hook; None is the identity.

    The hook must return a (possibly rescored) permutation of the candidate
    item set; anything else raises ValueError.
    """
    if hook is None:
        return candidates
    result = hook(query_text, candidates)
    if result.query_id != candidates.query_id:
        raise ValueError(
            f"rerank hook changed query id {candidates.query_id!r} -> {result.query_id!r}"
        )
    if set(result.item_ids) != set(candidates.item_ids):
        raise ValueError(
            "rerank hook must permute the candidate set: "
            f"got {sorted(set(result.item_ids) ^ set(candidates.item_ids))} changed"
        )
    validate_ranked_list(result)
    return result


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


def save_index(
    path: Path | str,
    dense: DenseIndex | None = None,
    lexical: LexicalIndex | None = None,
) -> None:
    """Persist dense and/or lexical indexes into a directory."""
    if dense is None and lexical is None:
        raise ValueError("nothing to save: both indexes are None")
    if dense is not None and lexical is not None and dense.item_ids != lexical.item_ids:
        raise ValueError("dense and lexical indexes list different items")
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    ids = dense.item_ids if dense is not None else lexical.item_ids  # type: ignore[union-attr]
    meta: dict = {
        "count": len(ids),
        "item_ids": list(ids),
        "has_dense": dense is not None,
        "has_lexical": lexical is not None,
    }
    if dense is not None:
        meta["dim"] = dense.dim
        write_rkv1(path / "vectors.bin", dense.matrix)
    if lexical is not None:
        meta["k1"] = lexical.k1
        meta["b"] = lexical.b
        meta["avgdl"] = lexical.avgdl
        meta["doc_len"] = lexical.doc_len
        with (path / "postings.jsonl").open("w", encoding="utf-8") as handle:
            for term in sorted(lexical.postings):
                entries = [[item_id, tf] for item_id, tf in lexical.postings[term]]
                handle.write(json.dumps({"term": term, "postings": entries}) + "\n")
    (path / "meta.json").write_text(
        json.dumps(meta, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def load_index(path: Path | str) -> tuple[DenseIndex | None, LexicalIndex | None]:
    """Load whatever ``save_index`` wrote; validates sizes and ids against meta.json."""
    path = Path(path)
    meta = json.loads((path / "meta.json").read_text(encoding="utf-8"))
    ids = tuple(meta["item_ids"])
    if len(ids) != meta["count"] or len(set(ids)) != len(ids):
        raise ValueError(
            f"{path / 'meta.json'}: item_ids holds {len(set(ids))} distinct ids "
            f"in {len(ids)} entries, but count is {meta['count']}"
        )
    dense = None
    lexical = None
    if meta.get("has_dense"):
        matrix = read_rkv1(path / "vectors.bin", rows=meta["count"])
        if matrix.shape[1] != meta["dim"]:
            raise ValueError(
                f"{path / 'vectors.bin'}: dim {matrix.shape[1]}, expected {meta['dim']}"
            )
        dense = DenseIndex(item_ids=ids, matrix=matrix, dim=meta["dim"])
    if meta.get("has_lexical"):
        known = set(ids)
        if set(meta["doc_len"]) != known:
            raise ValueError(f"{path / 'meta.json'}: doc_len keys differ from item_ids")
        postings: dict[str, tuple[tuple[str, int], ...]] = {}
        with (path / "postings.jsonl").open("r", encoding="utf-8") as handle:
            for line_no, line in enumerate(handle, start=1):
                record = json.loads(line)
                entries = tuple((item_id, int(tf)) for item_id, tf in record["postings"])
                unknown = sorted({item_id for item_id, _ in entries} - known)
                if unknown:
                    raise ValueError(
                        f"{path / 'postings.jsonl'}: line {line_no}: postings of "
                        f"{record['term']!r} name ids not in item_ids: {unknown[:5]}"
                    )
                postings[record["term"]] = entries
        lexical = LexicalIndex(
            item_ids=ids,
            postings=postings,
            doc_len={k: int(v) for k, v in meta["doc_len"].items()},
            avgdl=float(meta["avgdl"]),
            k1=float(meta["k1"]),
            b=float(meta["b"]),
        )
    return dense, lexical
