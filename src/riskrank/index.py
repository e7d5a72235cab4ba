"""Exact dense top-k search, Okapi BM25 and reciprocal-rank fusion.

A ranking (``RankedList``) is a tuple of ``(item_id, score)`` pairs, best
first; the rank of ``hits[i]`` is ``i + 1``. A ranking refuses repeated
ids, NaN scores and rising scores when it is made. A ``Run`` holds the
rankings of many queries as arrays: for each query, a slice of int32 item
numbers into the index's ids and of float64 scores. It checks its scores
in one vectorized pass when it is made, and builds a query's
``RankedList`` only when asked for it. Both searches and ``rrf_fuse``
return runs. Every ranking this module returns is a deterministic total
order: scores sort descending and ties break by ascending item id.
Dense scores are exactly-rounded float64 dot products of unit vectors
(see ``riskrank.embedding``), so a full-scan re-implementation of the same
arithmetic reproduces them bit-for-bit. Dense search gets there by
filter-then-verify: one float64 matmul per block of queries gives
approximate scores, a rigorous forward-error bound keeps every row that
could reach the top k (the whole band of ties at the k-th score
included), and only those rows are scored exactly, by one
``_exact_dots`` call per block of queries (see ``riskrank.embedding``):
certified vectorized sums of the kept rows' products, at the queries'
nonzero coordinates when at most half of them are nonzero.

The BM25 index holds its postings as compressed sparse rows: each term
owns one slice of two int32 arrays, item numbers and term frequencies, and
each item its BM25 length normalization, computed once when the index is
made. One ``np.unique`` over (term, item) keys builds the postings. A
search runs a block of queries at once: the postings of each query's sorted
distinct terms are gathered for the whole block, weighed by one vector
expression, and added by ``_keyed_sum`` over the (query, item) keys, in
input order, so each item adds its term weights in the order of those
terms. The fusion adds its reciprocal ranks through the same keyed sum.
Both searches and the fusion hand their (query, item, score) arrays to one
tail, ``_top_k``, which orders them by one ``np.lexsort`` and cuts each
query at k. Searching and fusing runs makes no Python loop over hits.

Persistence writes a directory with ``meta.json`` (counts, dimension, BM25
parameters, item ids, token counts), ``vectors.bin`` (the item rows as one
RKV1 file), and ``postings.jsonl`` (one term per line, sorted by term,
each ``[item_id, tf]`` pair in index order), each written atomically
through ``riskrank.cache``; the arrays are a memory layout only and never
reach the files. Loading checks every ``meta.json`` field the index needs
and every postings line, and names the file, the line and the field when a
check fails. It keeps each term's postings in the order of its line, so
saving a loaded index writes the same bytes.
"""

from __future__ import annotations

import math
import operator
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .cache import (
    BOOLEAN, NONEMPTY_STRING, POSITIVE_INTEGER, check_fields, check_values, json_text,
    read_json, read_jsonl, read_rkv1, write_file, write_jsonl, write_rkv1,
)
from . import embedding
from .embedding import tokenize, unit_rows

__all__ = [
    "RankedList",
    "Run",
    "DenseIndex",
    "LexicalIndex",
    "ranked_list_from_scores",
    "build_dense_index",
    "dense_search_many",
    "build_lexical_index",
    "lexical_search_many",
    "rrf_fuse",
    "save_index",
    "load_index",
]

DEFAULT_K1 = 1.2
DEFAULT_B = 0.75
DEFAULT_RRF_K = 60
DEFAULT_RRF_DEPTH = 100

# Queries per search block, dense and BM25 alike: a dense block's scores,
# queries times n index rows, stay near _BLOCK_ITEMS float64 values, but no
# block holds fewer than _MIN_BLOCK_QUERIES queries, so that on a large
# index each pass over the rows or the postings serves many queries, not one.
_BLOCK_ITEMS = 50_000
_MIN_BLOCK_QUERIES = 64


def _block_queries(n: int) -> int:
    return max(_MIN_BLOCK_QUERIES, _BLOCK_ITEMS // max(n, 1))


@dataclass(frozen=True)
class RankedList:
    """Retrieval hits for one query: ``(item_id, score)`` pairs, best first.
    A repeated id, a NaN score or a rising score raises ValueError naming the query."""

    query_id: str
    hits: tuple[tuple[str, float], ...]

    def __post_init__(self) -> None:
        if not self.hits:
            return
        ids, scores = zip(*self.hits)
        _require_unique(ids, f"ranking for {self.query_id!r} repeats item ids")
        # A NaN fails every comparison, so past the first score the order
        # check catches it too.
        if math.isnan(scores[0]) or not all(map(operator.ge, scores, scores[1:])):
            _require_no_nan(self.query_id, scores)
            a, b = next((a, b) for a, b in zip(scores, scores[1:]) if b > a)
            raise ValueError(f"ranking for {self.query_id!r}: scores increase ({a} -> {b})")

    @property
    def item_ids(self) -> list[str]:
        return [item_id for item_id, _ in self.hits]


def _require_unique(ids: Sequence[str], message: str) -> None:
    """Raise ValueError ``"<message>: <sorted repeated ids>"`` if an id repeats."""
    if len(set(ids)) != len(ids):
        counts = Counter(ids)
        raise ValueError(f"{message}: {sorted(i for i, n in counts.items() if n > 1)}")


def _require_counts(**values: object) -> None:
    """Raise ValueError ``"<name> must be an integer >= 1, got <value>"`` for
    the first value that is not one."""
    check_values(values, dict.fromkeys(values, POSITIVE_INTEGER))


def _require_no_nan(query_id: str, scores: Iterable[float]) -> None:
    """Raise ValueError naming ``query_id`` if a score is NaN."""
    if any(map(math.isnan, scores)):
        raise ValueError(f"ranking for {query_id!r} holds a NaN score")


class Run(Sequence[RankedList]):
    """The rankings of many queries, as arrays.

    Ranking ``i`` is ranked under ``query_ids[i]`` and holds the pairs
    ``bounds[i]:bounds[i + 1]`` of ``items``, int32 positions in
    ``item_ids``, and ``scores``, float64, best first. ``item_ids`` is kept
    as given (an index's ids are shared, not copied). ``run[i]`` builds
    ranking ``i`` as a ``RankedList``, which checks its ids, and iterating
    a run builds each ranking in turn. Sizes that disagree, bounds that do
    not rise from 0 to the number of pairs, an item number outside
    ``item_ids``, a NaN score or a score that rises within a ranking raise
    ValueError. A run compares and hashes by identity.
    """

    def __init__(
        self,
        query_ids: Sequence[str],
        item_ids: Sequence[str],
        bounds: np.ndarray,
        items: np.ndarray,
        scores: np.ndarray,
    ) -> None:
        self.query_ids = tuple(query_ids)
        self.item_ids = item_ids
        self.bounds = np.asarray(bounds, dtype=np.int64)
        self.items = np.asarray(items, dtype=np.int32)
        self.scores = np.asarray(scores, dtype=np.float64)
        pairs = len(self.items)
        counts = np.diff(self.bounds)
        if (len(self.bounds) != len(self.query_ids) + 1 or len(self.scores) != pairs
                or self.bounds[0] != 0 or self.bounds[-1] != pairs or (counts < 0).any()):
            raise ValueError(
                f"bounds of {len(self.query_ids)} rankings must rise from 0 to {pairs}, "
                f"the number of items, and there are {len(self.scores)} scores"
            )
        if pairs and not 0 <= int(self.items.min()) <= int(self.items.max()) < len(item_ids):
            raise ValueError(f"item numbers must lie in [0, {len(item_ids)})")
        ranking_of = np.repeat(np.arange(len(self.query_ids)), counts)
        scores = self.scores
        bad = np.isnan(scores)
        bad[1:] |= (scores[1:] > scores[:-1]) & (ranking_of[1:] == ranking_of[:-1])
        if bad.any():
            t = int(np.flatnonzero(bad)[0])
            query_id = self.query_ids[ranking_of[t]]
            if np.isnan(scores[t]):
                raise ValueError(f"ranking for {query_id!r} holds a NaN score")
            raise ValueError(
                f"ranking for {query_id!r}: scores increase "
                f"({float(scores[t - 1])} -> {float(scores[t])})"
            )

    def __len__(self) -> int:
        return len(self.query_ids)

    def __getitem__(self, i: int | slice) -> RankedList | list[RankedList]:
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        i = range(len(self))[i]  # IndexError past either end
        lo, hi = self.bounds[i:i + 2].tolist()
        ids = map(self.item_ids.__getitem__, self.items[lo:hi].tolist())
        return RankedList(self.query_ids[i], tuple(zip(ids, self.scores[lo:hi].tolist())))


def ranked_list_from_scores(
    query_id: str,
    scored: Iterable[tuple[str, float]],
    k: int | None = None,
) -> RankedList:
    """Rank (item_id, score) pairs descending, ties by ascending item id.

    Scores become Python floats before they are compared. A repeated id or
    a NaN score anywhere in ``scored`` raises ValueError, even one that the
    cut at ``k`` would drop, and so does a ``k`` that is not an integer >= 1.
    """
    if k is not None:
        _require_counts(k=k)
    items = [(item_id, float(score)) for item_id, score in scored]
    ids = [item_id for item_id, _ in items]
    scores = [score for _, score in items]
    _require_unique(ids, "duplicate item ids in ranking")
    _require_no_nan(query_id, scores)
    which = np.zeros(len(ids), dtype=np.int64)
    top = _top_k(which, np.arange(len(ids)), np.array(scores), _id_rank(ids), 1, k)
    return _run([query_id], ids, [top])[0]


def _id_rank(item_ids: Sequence[str]) -> np.ndarray:
    """Each id's rank in Python string order. (A numpy string array would
    not do: it drops trailing NULs, so ``"b\\x00"`` would read as ``"b"``.)"""
    rank = np.empty(len(item_ids), dtype=np.int64)
    rank[sorted(range(len(item_ids)), key=item_ids.__getitem__)] = np.arange(len(item_ids))
    return rank


# The one ranking tail.  ``np.lexsort`` sorts stably by its last key first:
# by query, then by -score, then by id rank.  It compares floats by value,
# so 0.0 and -0.0 tie and their ids decide, as in the (-score, id) order.
def _top_k(
    which: np.ndarray,
    items: np.ndarray,
    scores: np.ndarray,
    id_rank: np.ndarray,
    queries: int,
    k: int | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pairs ``(which[t], items[t], scores[t])`` of queries ``0 ..
    queries - 1``, each query's pairs ordered by ``(-score, id)`` and cut at
    ``k`` (none when k is None): their items, their scores and how many
    each query keeps."""
    order = np.lexsort((id_rank[items], -scores, which))
    which = which[order]
    counts = np.bincount(which, minlength=queries)
    k = len(which) if k is None else min(k, len(which))
    keep = np.arange(len(which)) - (np.add.accumulate(counts) - counts)[which] < k
    return items[order][keep], scores[order][keep], np.minimum(counts, k)


def _run(query_ids: Sequence[str], item_ids: Sequence[str], parts: list[tuple]) -> Run:
    """One run from the ``_top_k`` results of consecutive blocks of queries."""
    empty = (np.zeros(0, dtype=np.int32), np.zeros(0), np.zeros(0, dtype=np.int64))
    items, scores, counts = (np.concatenate(arrays) for arrays in zip(empty, *parts))
    return Run(query_ids, item_ids, np.append(0, np.add.accumulate(counts)), items, scores)


# One keyed sum, for a BM25 block and for the fusion.  A stable argsort
# puts equal keys together in input order, and ``np.bincount(slot,
# weights)`` adds weights[t] into bin slot[t] one t after the other (a
# plain sequential float64 loop over bins that start at 0.0), so each key
# adds its weights in input order, the same additions in the same order as
# one accumulator per key.
def _keyed_sum(
    keys: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The distinct ``keys`` ascending and each one's ``weights`` added in
    input order; then the weights grouped by key and where each key's group
    starts among them, with one more start at the end."""
    order = np.argsort(keys, kind="stable")
    keys, weights = keys[order], weights[order]
    first = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    slot = np.add.accumulate(first, dtype=np.intp) - 1
    starts = np.append(np.flatnonzero(first), len(keys))
    return keys[first], np.bincount(slot, weights), weights, starts


@dataclass(frozen=True, eq=False)
class DenseIndex:
    """Item ids plus an (n, dim) float32 matrix of L2-normalized rows.

    Indexes compare and hash by identity: their arrays have no one truth value.
    """

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
    """Normalize vectors with ``unit_rows`` and store them as float32 rows.

    ``dim`` is only needed for an empty index. Duplicate ids, dimension
    mismatches and vectors holding NaN or Inf raise ValueError. All-zero
    vectors are kept as zero rows and score 0 against every query.
    """
    if len(ids) != len(vectors):
        raise ValueError(f"got {len(ids)} ids but {len(vectors)} vectors")
    _require_unique(ids, "duplicate item ids")
    if not len(vectors):
        dim = dim or 0
        return DenseIndex(item_ids=(), matrix=np.zeros((0, dim), dtype=np.float32), dim=dim)
    shapes = {np.shape(v) for v in vectors}
    if len(shapes) != 1 or len(next(iter(shapes))) != 1:
        raise ValueError(f"vectors must share one 1-D shape, got {sorted(shapes)}")
    matrix = unit_rows(vectors, ids, "vector for item").astype(np.float32)
    return DenseIndex(item_ids=tuple(ids), matrix=matrix, dim=matrix.shape[1])


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
#
# The exact score of a kept row is fsum of its d products; each block gets
# its kept pairs' scores from one ``_exact_dots`` call (see the comments
# above it and ``_exact_row_sums`` in ``riskrank.embedding``).
def dense_search_many(
    index: DenseIndex,
    queries: Sequence[np.ndarray] | np.ndarray,
    k: int,
    query_ids: Sequence[str],
) -> Run:
    """Exact top-k by cosine over the whole index, one ranking per query row.

    Row i of ``queries`` is ranked under ``query_ids[i]``. Each query is
    normalized with ``unit_rows`` (a zero query scores 0 everywhere); each
    item's score is the exactly-rounded dot product with its stored row.
    Fewer than k items means all items are returned. A query holding NaN
    or Inf raises ValueError naming its id.

    Only rows that can reach the top k are scored exactly: an approximate
    score from BLAS plus a rigorous bound on its error rules the others
    out, so hits, scores and order are those of a full exact scan.
    """
    queries = np.asarray(queries, dtype=np.float64)
    if len(queries) != len(query_ids):
        raise ValueError(f"got {len(queries)} queries but {len(query_ids)} query ids")
    if len(queries) and (queries.ndim != 2 or index.count and queries.shape[1] != index.dim):
        raise ValueError(f"queries have shape {queries.shape}, index dim is {index.dim}")
    _require_counts(k=k)
    if len(queries):
        unit = unit_rows(queries, query_ids, "query")
    n = index.count
    if not len(queries) or n == 0:
        return Run(query_ids, index.item_ids, np.zeros(len(query_ids) + 1), [], [])
    rows = index.matrix.astype(np.float64)
    # From the float32 rows: a float64 |rows| temporary would set peak memory.
    row_l1 = np.abs(index.matrix).sum(axis=1, dtype=np.float64)
    if not np.isfinite(row_l1).all():
        bad = int(np.flatnonzero(~np.isfinite(row_l1))[0])
        raise ValueError(f"index row of item {index.item_ids[bad]!r} has non-finite values")
    error_scale = (rows.shape[1] + 2) * 2.0**-49 * float(row_l1.max())
    kth = max(n - k, 0)
    block = _block_queries(n)
    id_rank = _id_rank(index.item_ids)
    parts = []
    for start in range(0, len(unit), block):
        chunk = unit[start:start + block]
        approx = chunk @ rows.T
        threshold = np.partition(approx, kth, axis=1)[:, kth]
        error = np.maximum(
            error_scale * np.abs(chunk).max(axis=1, initial=0.0), 2.0**-1000
        )
        keep = approx >= (threshold - 2.0 * error)[:, None]
        # Each query's pairs name distinct rows, and an exact sum of finite
        # products is never NaN.
        which, kept = np.divmod(np.flatnonzero(keep), n)
        scores = embedding._exact_dots(rows, chunk, kept, which)
        parts.append(_top_k(which, kept, scores, id_rank, len(chunk), k))
        # Freed before the next block's matmul: held across it, the pairs
        # often left the C heap fragmented, some 4 MB more peak RSS in a
        # hybrid run_eval over 3 000 items.
        del which, kept, scores
    return _run(query_ids, index.item_ids, parts)


@dataclass(frozen=True, eq=False)
class LexicalIndex:
    """An inverted index as compressed sparse rows, with what BM25 needs.

    ``terms`` numbers the terms, and the postings of the term numbered ``r``
    are the slice ``starts[r]:starts[r + 1]`` of two parallel int32 arrays:
    ``docs`` holds the item numbers (positions in ``item_ids``) that contain
    the term and ``tf`` how often each contains it. ``build_lexical_index``
    and ``load_index`` give each term its own slice, naming each item at
    most once; an index built by hand must keep to that too. ``doc_len``
    is each item's token count, and ``length_norm``, derived from it, each
    item's float64 ``1 - b + b * doc_len / avgdl``, with every length taken
    as 0 when ``avgdl`` is not above 0.

    A ``k1`` that is not a finite number >= 0, a ``b`` outside [0, 1], an
    ``avgdl`` so small that a length norm is not finite, arrays whose sizes
    disagree, ``starts`` that do not rise from 0 to
    ``len(docs)``, or an item number outside ``item_ids`` raise ValueError
    naming what is wrong. Like ``DenseIndex``, it compares and hashes by
    identity.
    """

    item_ids: tuple[str, ...]
    terms: dict[str, int]
    starts: np.ndarray
    docs: np.ndarray
    tf: np.ndarray
    doc_len: np.ndarray
    avgdl: float
    k1: float = DEFAULT_K1
    b: float = DEFAULT_B
    length_norm: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        check_values(self, _BM25_FIELDS)
        n = len(self.item_ids)
        if len(self.doc_len) != n or len(self.tf) != len(self.docs):
            raise ValueError(
                f"{n} items with {len(self.doc_len)} lengths, "
                f"and {len(self.docs)} postings with {len(self.tf)} tf values"
            )
        starts = self.starts
        if (len(starts) != len(self.terms) + 1 or starts[0] != 0
                or starts[-1] != len(self.docs) or (starts[1:] < starts[:-1]).any()):
            raise ValueError(
                f"starts of {len(self.terms)} terms must rise from 0 to {len(self.docs)}"
            )
        if len(self.docs) and not 0 <= int(self.docs.min()) <= int(self.docs.max()) < n:
            bad = int(self.docs[(self.docs < 0) | (self.docs >= n)][0])
            raise ValueError(f"postings name item number {bad}, but the index holds {n} items")
        doc_len = self.doc_len.astype(np.float64)
        # A positive avgdl can be so small that a length over it overflows.
        with np.errstate(over="ignore", invalid="ignore"):
            ratio = doc_len / self.avgdl if self.avgdl > 0 else 0.0 * doc_len
            length_norm = 1.0 - self.b + self.b * ratio
        if not np.isfinite(length_norm).all():
            bad = int(np.flatnonzero(~np.isfinite(length_norm))[0])
            raise ValueError(
                f"avgdl {self.avgdl!r} is too small: item {self.item_ids[bad]!r} of "
                f"{int(self.doc_len[bad])} tokens gets a length norm of {length_norm[bad]}"
            )
        object.__setattr__(self, "length_norm", length_norm)

    @property
    def count(self) -> int:
        return len(self.item_ids)


# BM25 parameters, for ``LexicalIndex`` and the ``meta.json`` of a saved index.
_FINITE = (lambda v: type(v) in (int, float) and 0 <= v < math.inf, "a finite number >= 0")
_BM25_FIELDS = {
    "k1": _FINITE, "b": (lambda v: type(v) in (int, float) and 0 <= v <= 1, "a number in [0, 1]"),
    "avgdl": _FINITE,
}


def build_lexical_index(
    ids: Sequence[str],
    texts: Sequence[str],
    k1: float = DEFAULT_K1,
    b: float = DEFAULT_B,
) -> LexicalIndex:
    """BM25 index of ``tokenize(texts[i])`` under ``ids[i]``.

    Each text's tokens become term numbers as it is read, so only one
    text's token strings are alive at a time. Terms are then renumbered in
    sorted order, and one ``np.unique`` over ``term * n + item`` for every
    token yields each (term, item) pair once, in that order, with its count
    as the tf: each term's postings list its items in the order of ``ids``.
    """
    if len(ids) != len(texts):
        raise ValueError(f"got {len(ids)} ids but {len(texts)} texts")
    _require_unique(ids, "duplicate item ids")
    n = len(ids)
    seen: defaultdict[str, int] = defaultdict()
    seen.default_factory = seen.__len__  # a new term takes the next number
    first_use = array("q")  # each token's term, numbered in order of first use
    lengths = array("q")
    for text in texts:
        tokens = tokenize(text)
        lengths.append(len(tokens))
        first_use.extend(map(seen.__getitem__, tokens))
    vocabulary = sorted(seen)
    rank = np.empty(len(vocabulary), dtype=np.int64)
    rank[[seen[term] for term in vocabulary]] = np.arange(len(vocabulary))
    doc_len = np.asarray(lengths).astype(np.int32)
    keys, tf = np.unique(
        rank[np.asarray(first_use)] * n + np.repeat(np.arange(n, dtype=np.int64), doc_len),
        return_counts=True,
    )
    return LexicalIndex(
        item_ids=tuple(ids),
        terms=dict(zip(vocabulary, range(len(vocabulary)))),
        starts=np.searchsorted(keys, np.arange(len(vocabulary) + 1, dtype=np.int64) * n),
        docs=(keys % n).astype(np.int32),
        tf=tf.astype(np.int32),
        doc_len=doc_len,
        avgdl=float(doc_len.sum()) / n if n else 0.0,
        k1=k1,
        b=b,
    )


# BM25 for a block of queries.  Each query's sorted distinct known terms
# pick their postings slices, gathered for the whole block in query order
# and, within a query, in term order; one vector expression weighs them all
# (idf by math.log: np.log need not round the same way).  ``_keyed_sum``
# adds them by (query, item) key in that order, so each item of each query
# adds its term weights in sorted-term order, the same additions in the
# same order as one accumulator per query that adds one term's weights at a
# time.  A term names an item at most once in its postings, so each weight
# is added once.
def lexical_search_many(
    index: LexicalIndex,
    query_texts: Sequence[str],
    k: int,
    query_ids: Sequence[str],
) -> Run:
    """Top-k items by BM25 for each tokenized query text; zero scorers are dropped.

    ``query_texts[i]`` is ranked under ``query_ids[i]``; lengths that
    differ raise ValueError. Each item's score is the sum of one Okapi BM25
    weight, ``idf * tf * (k1 + 1) / (tf + k1 * length_norm)`` with
    ``idf = ln(1 + (N - df + 0.5) / (df + 0.5))``, for each sorted distinct
    query term it holds, added in that order.
    """
    _require_counts(k=k)
    if len(query_texts) != len(query_ids):
        raise ValueError(f"got {len(query_texts)} query texts but {len(query_ids)} query ids")
    n = index.count
    block = _block_queries(n)
    id_rank = _id_rank(index.item_ids)
    parts = []
    for start in range(0, len(query_texts), block):
        texts = query_texts[start:start + block]
        rows = [
            [index.terms[term] for term in sorted(set(tokenize(text))) if term in index.terms]
            for text in texts
        ]
        term_rows = np.array([r for query_rows in rows for r in query_rows], dtype=np.int64)
        first = index.starts[term_rows]
        df = index.starts[term_rows + 1] - first
        idf = np.array([math.log(1.0 + (n - d + 0.5) / (d + 0.5)) for d in df.tolist()])
        # Where each slice starts among the block's postings.  Through
        # ndarray.cumsum, these tiny sums kept the memory of a whole search's
        # rankings from going back to the system once they were freed (some
        # 16 MB over 2 500 queries of 50 000 items); np.add.accumulate did not.
        offsets = np.add.accumulate(df) - df
        postings = np.arange(df.sum()) + np.repeat(first - offsets, df)
        docs = index.docs[postings]
        tf = index.tf[postings]
        weights = np.repeat(idf, df) * tf * (index.k1 + 1.0) / (
            tf + index.k1 * index.length_norm[docs]
        )
        query_of = np.repeat(np.repeat(np.arange(len(texts)), list(map(len, rows))), df)
        keys, scores, _, _ = _keyed_sum(query_of * n + docs, weights)
        # The keys are distinct pairs, and ``> 0.0`` drops a NaN sum.
        hits = scores > 0.0
        which, items = np.divmod(keys[hits], n)
        parts.append(_top_k(which, items, scores[hits], id_rank, len(texts), k))
    return _run(query_ids, index.item_ids, parts)


def rrf_fuse(
    lists: Sequence[Run] | Sequence[RankedList],
    k_rrf: int = DEFAULT_RRF_K,
    depth: int = DEFAULT_RRF_DEPTH,
    k: int | None = None,
) -> Run | RankedList:
    """Reciprocal-rank fusion: item score = sum of 1 / (k_rrf + rank).

    ``lists`` are either runs over the same item ids and query ids, fused
    query by query into one run, or rankings that share a query id, fused
    into one ``RankedList``. Only occurrences within ``depth`` of the top
    of each input ranking count, and only the top ``k`` fused items are
    returned (all when k is None). Each sum is exactly rounded, so the
    order of the inputs never changes a score. A ranking names an item at
    most once, so with one or two inputs an item has at most two terms,
    and adding them from 0.0 rounds once; an item with three or more terms
    is summed by ``math.fsum``, as a running sum may differ
    (``(1/2 + 1/3) + 1/6`` is 0.9999999999999999). ``k_rrf``, ``depth``
    and ``k`` (when given) must be integers >= 1.
    """
    if not lists:
        raise ValueError("need at least one ranked list to fuse")
    _require_counts(k_rrf=k_rrf, depth=depth)
    if k is not None:
        _require_counts(k=k)
    if all(isinstance(ranking, RankedList) for ranking in lists):
        return rrf_fuse(_one_query_runs(lists), k_rrf, depth, k)[0]
    if not all(isinstance(run, Run) for run in lists):
        raise TypeError("rrf_fuse takes runs or RankedLists, not a mix of them")
    first = lists[0]
    if any(run.query_ids != first.query_ids for run in lists):
        raise ValueError("cannot fuse runs with differing query ids")
    if any(run.item_ids != first.item_ids for run in lists):
        raise ValueError("cannot fuse runs over differing item ids")
    n, queries = len(first.item_ids), len(first)
    longest = max(int(np.diff(run.bounds).max(initial=0)) for run in lists)
    weights = np.array([1.0 / (k_rrf + rank) for rank in range(1, min(depth, longest) + 1)])
    keys, terms = [], []
    for run in lists:
        counts = np.diff(run.bounds)
        position = np.arange(len(run.items)) - np.repeat(run.bounds[:-1], counts)
        top = position < depth
        keys.append((np.repeat(np.arange(queries), counts) * n + run.items)[top])
        terms.append(weights[position[top]])
    keys, sums, terms, starts = _keyed_sum(np.concatenate(keys), np.concatenate(terms))
    for i in np.flatnonzero(np.diff(starts) >= 3).tolist():
        sums[i] = math.fsum(terms[starts[i]:starts[i + 1]].tolist())
    # The keys are distinct pairs, and sums of finite weights are never NaN.
    which, items = np.divmod(keys, n)
    top_k = _top_k(which, items, sums, _id_rank(first.item_ids), queries, k)
    return _run(first.query_ids, first.item_ids, [top_k])


def _one_query_runs(lists: Sequence[RankedList]) -> list[Run]:
    """Rankings that share a query id as one-query runs over the union of their ids."""
    query_ids = {ranking.query_id for ranking in lists}
    if len(query_ids) != 1:
        raise ValueError(f"cannot fuse lists with differing query ids: {sorted(query_ids)}")
    item_ids = sorted({item_id for ranking in lists for item_id, _ in ranking.hits})
    number = {item_id: i for i, item_id in enumerate(item_ids)}
    return [
        Run([ranking.query_id], item_ids, [0, len(ranking.hits)],
            [number[item_id] for item_id, _ in ranking.hits],
            [score for _, score in ranking.hits])
        for ranking in lists
    ]


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
        meta.update(
            k1=lexical.k1, b=lexical.b, avgdl=lexical.avgdl,
            doc_len=dict(zip(ids, lexical.doc_len.tolist())),
        )
        pairs = [[ids[d], tf] for d, tf in zip(lexical.docs.tolist(), lexical.tf.tolist())]
        starts = lexical.starts.tolist()
        write_jsonl(path / "postings.jsonl", (
            {"term": term, "postings": pairs[starts[r]:starts[r + 1]]}
            for term, r in sorted(lexical.terms.items())
        ))
    write_file(path / "meta.json", json_text(meta))


# Field tables (see ``riskrank.cache``): meta.json always, meta.json with a
# dense or a lexical part, and each postings.jsonl line.
_COUNT = (lambda v: type(v) is int and v >= 0, "a non-negative integer")
_META_FIELDS = {
    "count": _COUNT, "has_dense": BOOLEAN, "has_lexical": BOOLEAN,
    "item_ids": (lambda v: type(v) is list and all(type(i) is str for i in v), "a list of strings"),
}
_DENSE_META_FIELDS = {"dim": _COUNT}
_INT32_END = 2**31
_LEXICAL_META_FIELDS = {
    **_BM25_FIELDS,
    "doc_len": (lambda v: type(v) is dict and all(
        type(n) is int and 0 <= n < _INT32_END for n in v.values()
    ), "an object of integer lengths in [0, 2**31)"),
}
_POSTINGS_FIELDS = {
    "term": NONEMPTY_STRING,
    "postings": (lambda v: type(v) is list and all(
        type(e) is list and len(e) == 2 and type(e[0]) is str and type(e[1]) is int for e in v
    ), "a list of [item_id, tf] pairs"),
}


def load_index(path: Path | str) -> tuple[DenseIndex | None, LexicalIndex | None]:
    """Load whatever ``save_index`` wrote; validates sizes and ids against meta.json."""
    path = Path(path)
    meta_path = path / "meta.json"
    meta = read_json(meta_path, _META_FIELDS)
    ids = tuple(meta["item_ids"])
    if len(ids) != meta["count"] or len(set(ids)) != len(ids):
        raise ValueError(
            f"{meta_path}: item_ids holds {len(set(ids))} distinct ids "
            f"in {len(ids)} entries, but count is {meta['count']}"
        )
    dense = None
    lexical = None
    if meta["has_dense"]:
        check_fields(meta, _DENSE_META_FIELDS, meta_path)
        matrix = read_rkv1(path / "vectors.bin", meta["count"], meta["dim"])
        dense = DenseIndex(item_ids=ids, matrix=matrix, dim=meta["dim"])
    if meta["has_lexical"]:
        check_fields(meta, _LEXICAL_META_FIELDS, meta_path)
        number = {item_id: i for i, item_id in enumerate(ids)}
        if meta["doc_len"].keys() != number.keys():
            raise ValueError(f"{meta_path}: doc_len keys differ from item_ids")
        terms: dict[str, int] = {}
        starts = [0]
        docs: list[int] = []
        tfs: list[int] = []
        postings_path = path / "postings.jsonl"
        for line_no, record in read_jsonl(postings_path, _POSTINGS_FIELDS):
            term = record["term"]
            if term in terms:
                raise ValueError(
                    f"{postings_path}: line {line_no}: term {term!r} is listed "
                    f"on an earlier line too"
                )
            entries = tuple(map(tuple, record["postings"]))
            unknown = sorted({item_id for item_id, _ in entries} - number.keys())
            if unknown:
                raise ValueError(
                    f"{postings_path}: line {line_no}: postings of "
                    f"{term!r} name ids not in item_ids: {unknown[:5]}"
                )
            _require_unique(
                [item_id for item_id, _ in entries],
                f"{postings_path}: line {line_no}: postings of {term!r} repeat ids",
            )
            out_of_range = [entry for entry in entries if not 1 <= entry[1] < _INT32_END]
            if out_of_range:
                raise ValueError(
                    f"{postings_path}: line {line_no}: postings of {term!r} hold "
                    f"a tf outside [1, 2**31): {out_of_range[:5]}"
                )
            terms[term] = len(terms)
            docs.extend(number[item_id] for item_id, _ in entries)
            tfs.extend(tf for _, tf in entries)
            starts.append(len(docs))
        try:
            lexical = LexicalIndex(
                item_ids=ids,
                terms=terms,
                starts=np.array(starts, dtype=np.int64),
                docs=np.array(docs, dtype=np.int32),
                tf=np.array(tfs, dtype=np.int32),
                doc_len=np.array([meta["doc_len"][item_id] for item_id in ids], dtype=np.int32),
                avgdl=float(meta["avgdl"]),
                k1=float(meta["k1"]),
                b=float(meta["b"]),
            )
        except ValueError as error:
            raise ValueError(f"{meta_path}: {error}") from None
    return dense, lexical
