"""Question-context datasets: loading, chunking, splitting, and synthesis.

File formats:
  - QA JSONL: one object per line with ``question`` and ``context`` (required)
    plus optional ``pair_id`` and ``doc_id``; UTF-8.
  - QA CSV: header row with at least ``question,context``; optional
    ``pair_id`` and ``doc_id`` columns.
  - Documents: plain-text files, one document per file, id = file stem; or
    documents JSONL, one object per line with ``doc_id``, ``title``,
    ``body`` and ``source_meta``.

JSONL goes through ``riskrank.cache``: writes are atomic, and a malformed
record raises ValueError naming the file, the line and the field.

Records without an explicit ``pair_id`` get the zero-padded 0-based record
index (``"000042"``), so ids are stable across reloads of the same file.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import asdict, dataclass, field
from itertools import product
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .cache import (
    INTEGER, NONEMPTY_STRING, POSITIVE_INTEGER, check_fields, check_values, read_jsonl, write_jsonl,
)

__all__ = [
    "Document",
    "Chunk",
    "QAPair",
    "DatasetSplit",
    "SplitConfig",
    "EvalSet",
    "Qrels",
    "load_qa_pairs",
    "save_qa_pairs",
    "load_documents",
    "save_documents",
    "chunk_document",
    "check_chunking",
    "split_pairs",
    "build_eval_set",
    "synth_dataset",
]

# Relevance judgments: query id -> ids of relevant items (binary gain).
Qrels = dict[str, set[str]]

DEFAULT_CHUNK_WINDOW = 256
DEFAULT_CHUNK_STRIDE = 192


@dataclass(frozen=True)
class Document:
    """A source document; ``body`` is the full retrievable text."""

    doc_id: str
    title: str
    body: str
    source_meta: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.doc_id:
            raise ValueError("doc_id must be nonempty")
        if not self.body:
            raise ValueError(f"document {self.doc_id}: body must be nonempty")


@dataclass(frozen=True)
class Chunk:
    """A token window of a document; ``text == body[span[0]:span[1]]``."""

    chunk_id: str
    doc_id: str
    text: str
    span: tuple[int, int]
    ordinal: int


@dataclass(frozen=True)
class QAPair:
    """One question bound to its known-relevant context passage."""

    pair_id: str
    question: str
    context: str
    doc_id: str | None = None

    def __post_init__(self) -> None:
        if not self.question:
            raise ValueError(f"pair {self.pair_id}: question must be nonempty")
        if not self.context:
            raise ValueError(f"pair {self.pair_id}: context must be nonempty")


@dataclass(frozen=True)
class DatasetSplit:
    """Disjoint train/test partition of a pair sequence."""

    train: tuple[QAPair, ...]
    test: tuple[QAPair, ...]
    ratio: float
    seed: int


# Field tables (see ``riskrank.cache``): QA records and documents JSONL records.
_OPTIONAL_STRING = (lambda v: v is None or type(v) is str, "a string")
_PAIR_FIELDS = {"pair_id": _OPTIONAL_STRING, "question": NONEMPTY_STRING,
                "context": NONEMPTY_STRING, "doc_id": _OPTIONAL_STRING}
_DOCUMENT_FIELDS = {"doc_id": NONEMPTY_STRING, "title": _OPTIONAL_STRING, "body": NONEMPTY_STRING,
                    "source_meta": (lambda v: v is None or type(v) is dict, "an object")}


def load_qa_pairs(path: Path | str, format: str | None = None) -> list[QAPair]:
    """Load question-context pairs from a JSONL or CSV file.

    ``format`` is inferred from the suffix when omitted. Input order is
    preserved. Malformed records raise ValueError naming the line number and
    field; duplicate pair ids raise ValueError.
    """
    path = Path(path)
    if format is None:
        format = path.suffix.lstrip(".").lower()
    if format not in ("jsonl", "csv"):
        raise ValueError(f"unsupported format {format!r} (expected jsonl or csv)")

    pairs: list[QAPair] = []
    seen: dict[str, int] = {}

    def add(record: dict, line_no: int) -> None:
        pair_id = record.get("pair_id") or f"{len(pairs):06d}"
        if pair_id in seen:
            raise ValueError(
                f"{path}: line {line_no}: duplicate pair_id {pair_id!r} "
                f"(first seen on line {seen[pair_id]})"
            )
        seen[pair_id] = line_no
        pairs.append(QAPair(pair_id=pair_id, question=record["question"],
                            context=record["context"], doc_id=record.get("doc_id") or None))

    if format == "jsonl":
        for line_no, record in read_jsonl(path, _PAIR_FIELDS):
            add(record, line_no)
    else:
        with path.open("r", encoding="utf-8", newline="") as handle:
            reader = csv.DictReader(handle)
            if reader.fieldnames is None:
                return []
            missing = {"question", "context"} - set(reader.fieldnames)
            if missing:
                raise ValueError(
                    f"{path}: line 1: missing required column(s) {sorted(missing)}"
                )
            for record in reader:
                add(check_fields(record, _PAIR_FIELDS, path, reader.line_num), reader.line_num)
    return pairs


def save_qa_pairs(pairs: Iterable[QAPair], path: Path | str) -> None:
    """Write pairs as QA JSONL; ``load_qa_pairs`` round-trips the sequence."""
    write_jsonl(path, (
        {"pair_id": p.pair_id, "question": p.question, "context": p.context}
        | ({} if p.doc_id is None else {"doc_id": p.doc_id})
        for p in pairs
    ))


def _document(record: dict) -> Document:
    doc_id, title = record["doc_id"], record.get("title")
    title = doc_id if title is None else title
    return Document(doc_id, title, record["body"], record.get("source_meta") or {})


def load_documents(source: Path | str) -> list[Document]:
    """Load documents from plain-text files or from one documents JSONL file.

    ``source`` may be a directory (its ``.txt`` files, non-recursively,
    sorted by name; doc_id = file stem), one text file, or a ``.jsonl``
    file as written by ``save_documents`` (``title`` defaults to the doc_id
    and ``source_meta`` to empty).
    """
    root = Path(source)
    if root.suffix == ".jsonl":
        return [_document(record) for _, record in read_jsonl(root, _DOCUMENT_FIELDS)]
    paths = sorted(root.glob("*.txt")) if root.is_dir() else [root]
    return [
        Document(p.stem, p.stem, p.read_text(encoding="utf-8"), {"source_path": str(p)})
        for p in paths
    ]


def save_documents(documents: Iterable[Document], path: Path | str) -> None:
    """Write documents as JSONL, one object per line, readable by ``load_documents``."""
    write_jsonl(path, map(asdict, documents))


def check_chunking(window: int, stride: int) -> None:
    """ValueError unless ``window`` and ``stride`` are integers with 1 <= stride <= window."""
    check_values({"window": window, "stride": stride},
                 dict.fromkeys(("window", "stride"), POSITIVE_INTEGER))
    if stride > window:
        raise ValueError(f"stride must be at most window ({window}), got {stride}")


def chunk_document(
    doc: Document,
    window: int = DEFAULT_CHUNK_WINDOW,
    stride: int = DEFAULT_CHUNK_STRIDE,
) -> list[Chunk]:
    """Slide a ``window``-token window over the body, advancing by ``stride``.

    Tokens are whitespace-delimited; spans map back to character offsets in
    the original body, and the final partial window is emitted if nonempty.
    """
    check_chunking(window, stride)
    token_spans = [(m.start(), m.end()) for m in re.finditer(r"\S+", doc.body)]
    if not token_spans:
        raise ValueError(f"document {doc.doc_id}: body has no tokens")
    chunks = []
    for ordinal, start_tok in enumerate(range(0, len(token_spans), stride)):
        spans = token_spans[start_tok : start_tok + window]
        start_char, end_char = spans[0][0], spans[-1][1]
        chunks.append(
            Chunk(
                chunk_id=f"{doc.doc_id}::c{ordinal:04d}",
                doc_id=doc.doc_id,
                text=doc.body[start_char:end_char],
                span=(start_char, end_char),
                ordinal=ordinal,
            )
        )
    return chunks


@dataclass(frozen=True)
class SplitConfig:
    """How ``split_pairs`` splits: the train fraction and the shuffle seed."""

    ratio: float = 0.95
    seed: int = 0

    def __post_init__(self) -> None:
        check_values(self, {
            "ratio": (lambda v: type(v) in (int, float) and 0 < v < 1, "a number in (0, 1)"),
            "seed": INTEGER,
        })


def split_pairs(pairs: Sequence[QAPair], ratio: float, seed: int) -> DatasetSplit:
    """Deterministic shuffled split: first ``floor(ratio * N)`` pairs train.

    The shuffle is a NumPy PCG64 permutation seeded with ``seed``, so the
    same inputs always produce the same member sets and order.
    """
    SplitConfig(ratio, seed)  # checks both
    if len(pairs) < 2:
        raise ValueError(f"need at least 2 pairs to split, got {len(pairs)}")
    order = np.random.default_rng(seed).permutation(len(pairs))
    shuffled = [pairs[i] for i in order]
    n_train = math.floor(ratio * len(pairs))
    return DatasetSplit(
        train=tuple(shuffled[:n_train]),
        test=tuple(shuffled[n_train:]),
        ratio=ratio,
        seed=seed,
    )


@dataclass(frozen=True)
class EvalSet:
    """Retrievable items, the queries run against them (id -> text, in query
    order), and the qrels (query id -> ids of its relevant items)."""

    item_ids: tuple[str, ...]
    item_texts: tuple[str, ...]
    queries: dict[str, str]
    qrels: Qrels


def build_eval_set(pool: Sequence[QAPair], test: Sequence[QAPair]) -> EvalSet:
    """One item per distinct context of ``pool``, one query per test question.

    Items keep pool order; an item's id is the pair id of the first pool pair
    holding its context, so without repeated contexts items are the pairs.
    A question's qrels name the item holding its context, so questions that
    share a passage all count it as their hit. Raises ValueError on a test
    context absent from the pool and on a repeated test pair id.
    """
    item_of: dict[str, str] = {}  # context -> item id
    for pair in pool:
        item_of.setdefault(pair.context, pair.pair_id)
    missing = sorted(p.pair_id for p in test if p.context not in item_of)
    if missing:
        raise ValueError(f"candidate pool is missing test contexts: {missing[:5]}")
    queries: dict[str, str] = {}
    qrels: Qrels = {}
    for pair in test:
        if pair.pair_id in qrels:
            raise ValueError(f"duplicate query id {pair.pair_id!r} in test set")
        queries[pair.pair_id] = pair.question
        qrels[pair.pair_id] = {item_of[pair.context]}
    return EvalSet(tuple(item_of.values()), tuple(item_of), queries, qrels)


# Synthetic generator shape. Each cluster's vocabulary is split three ways:
# a few "question marker" words that only questions use, a few "context
# marker" words that only contexts use, and a content pool both sides quote.
# Bag-of-words overlap alone cannot relate the two marker sets, but a linear
# map over hashed features can learn the per-cluster alignment; the quoted
# content tokens then pick the exact context within the cluster. Tuned so
# that base retrieval is mediocre (cross-cluster noise dominates) and an
# adapter trained on the pair structure recovers a large margin.
_CTX_CONTENT_TOKENS = 10
_CTX_MARKER_TOKENS = 6
_CTX_NOISE_TOKENS = 4
_Q_QUOTED_TOKENS = 3
_Q_MARKER_TOKENS = 5
_Q_NOISE_TOKENS = 3

# Pairs drawn by one ``Generator.integers`` call, at most 49 int64 draws each.
_SYNTH_BLOCK_PAIRS = 1024

# Every random draw of the generator is numpy's bounded draw of an integer
# in [0, h): for 1 < h <= 2^32 it turns 32-bit words of the bit generator
# into the integer by Lemire's multiply-and-reject method (Lemire, "Fast
# random integer generation in an interval", ACM TOMACS 2019), and for h = 1
# it returns 0 and takes no word.  ``rng.integers(h)`` is one such draw, and
# ``rng.integers(highs)`` with an array of highs makes one per high, in
# order, so it returns what scalar calls would, one after another.  Each
# pair is drawn as if token by token:
#   context: rng.choice(P, S, replace=False) over the cluster's P content
#     words, S = min(10, P); 6 context markers; 4 noise words, each a
#     cluster from rng.integers(n_clusters - 1), moved past the pair's own
#     as c + (c >= own), then a content word of that cluster;
#   question: rng.choice(S, Q, replace=False) over the context's S picks,
#     Q = min(3, S); 5 question markers; 3 noise words as above, drawn from
#     question markers.
# With one cluster a noise word comes from the pair's own cluster and no
# cluster is drawn.  ``rng.choice`` without p and with its default shuffle
# samples by one of two methods; numpy 2.4 takes its tail shuffle only when
# pop > 10 000 and size > pop // 50, which needs pop < 550 as size <= 10
# here, so it always takes Floyd's sampling (Bentley & Floyd, CACM 1987):
# step t = 0 .. size - 1 draws j in [0, pop - size + t] and picks j, or
# pop - size + t if j is already picked; a Fisher-Yates shuffle of the
# picks then draws k in [0, i] and swaps picks k and i, for i = size - 1
# down to 1.  So every draw is a bounded draw, and the ranges are the same
# for every pair: every cluster's word groups have one size, and no range
# depends on a value drawn.  One call with that list of highs, tiled over a
# block of pairs, makes the block's draws, and Floyd's steps and the swaps
# run as at most 10 array steps each over the whole block.  Any numpy
# release that draws differently changes the pinned corpus digests in the
# tests, and ``tests/reference.py`` keeps the pair-by-pair generator.


def _choice_highs(pop: int, size: int) -> list[int]:
    """The highs of the draws of ``rng.choice(pop, size, replace=False)``:
    Floyd's steps, then the shuffle's."""
    return [pop - size + t + 1 for t in range(size)] + list(range(size, 1, -1))


def _choice(draws: np.ndarray, pop: int, size: int) -> np.ndarray:
    """Each row's ``rng.choice(pop, size, replace=False)`` from that row's
    draws, made with the highs ``_choice_highs(pop, size)``."""
    picks = np.empty((len(draws), size), dtype=np.int64)
    for t in range(size):
        j = draws[:, t]
        taken = (picks[:, :t] == j[:, None]).any(axis=1)
        picks[:, t] = np.where(taken, pop - size + t, j)
    rows = np.arange(len(draws))
    for k, i in zip(draws[:, size:].T, range(size - 1, 0, -1)):
        picked = picks[rows, k]
        picks[rows, k] = picks[:, i]
        picks[:, i] = picked
    return picks


def synth_dataset(
    n_clusters: int,
    pairs_per_cluster: int,
    vocab_per_cluster: int,
    seed: int,
) -> tuple[list[Document], list[QAPair]]:
    """Generate a clustered synthetic QA corpus, deterministic under ``seed``.

    Returns one document per cluster (the concatenation of its contexts) and
    ``n_clusters * pairs_per_cluster`` pairs; each pair's ``doc_id`` names its
    cluster document. Questions and contexts sample mostly from their own
    cluster's vocabulary with a small amount of cross-cluster noise. The
    draws are those of scalar ``rng.integers`` and ``rng.choice`` calls, pair
    by pair, on one PCG64 stream, made in blocks of pairs by one
    ``Generator.integers`` call each (see the comment above).
    """
    values = {"n_clusters": n_clusters, "pairs_per_cluster": pairs_per_cluster,
              "vocab_per_cluster": vocab_per_cluster, "seed": seed}
    check_values(values, {**dict.fromkeys(values, POSITIVE_INTEGER), "seed": INTEGER})
    rng = np.random.default_rng(seed)
    # Word c * vocab_per_cluster + i is the ith word of cluster c.
    words = np.array(
        [f"c{c:02d}w{i:03d}" for c in range(n_clusters) for i in range(vocab_per_cluster)],
        dtype=object,
    )
    # Each group of a cluster's words as (its first word, its size).
    n_qmark = max(1, round(0.08 * vocab_per_cluster))
    n_cmark = max(1, round(0.12 * vocab_per_cluster))
    if vocab_per_cluster - n_qmark - n_cmark >= 1:
        question_markers, context_markers = (0, n_qmark), (n_qmark, n_cmark)
        content = (n_qmark + n_cmark, vocab_per_cluster - n_qmark - n_cmark)
    else:
        # vocabulary too small to partition; all groups share it
        question_markers = context_markers = content = (0, vocab_per_cluster)
    n_picks = min(_CTX_CONTENT_TOKENS, content[1])
    n_quoted = min(_Q_QUOTED_TOKENS, n_picks)
    cluster_draw = [n_clusters - 1] if n_clusters > 1 else []
    segments = [
        _choice_highs(content[1], n_picks),
        [context_markers[1]] * _CTX_MARKER_TOKENS,
        (cluster_draw + [content[1]]) * _CTX_NOISE_TOKENS,
        _choice_highs(n_picks, n_quoted),
        [question_markers[1]] * _Q_MARKER_TOKENS,
        (cluster_draw + [question_markers[1]]) * _Q_NOISE_TOKENS,
    ]
    highs = np.array([high for segment in segments for high in segment])
    cuts = np.add.accumulate([len(segment) for segment in segments])[:-1]

    def cross_noise(draws: np.ndarray, own: np.ndarray, group: tuple[int, int]) -> np.ndarray:
        if n_clusters == 1:
            cluster, word = own, draws
        else:
            cluster, word = draws[:, 0::2], draws[:, 1::2]
            cluster = cluster + (cluster >= own)
        return cluster * vocab_per_cluster + group[0] + word

    n_pairs = n_clusters * pairs_per_cluster
    contexts: list[str] = []
    questions: list[str] = []
    for start in range(0, n_pairs, _SYNTH_BLOCK_PAIRS):
        rows = min(_SYNTH_BLOCK_PAIRS, n_pairs - start)
        draws = rng.integers(np.tile(highs, rows)).reshape(rows, len(highs))
        content_draws, cmark_draws, cnoise_draws, quote_draws, qmark_draws, qnoise_draws = (
            np.split(draws, cuts, axis=1)
        )
        own = (np.arange(start, start + rows) // pairs_per_cluster)[:, None]
        first = own * vocab_per_cluster
        picks = first + content[0] + _choice(content_draws, content[1], n_picks)
        context_tokens = np.hstack([
            picks,
            first + context_markers[0] + cmark_draws,
            cross_noise(cnoise_draws, own, content),
        ])
        question_tokens = np.hstack([
            np.take_along_axis(picks, _choice(quote_draws, n_picks, n_quoted), axis=1),
            first + question_markers[0] + qmark_draws,
            cross_noise(qnoise_draws, own, question_markers),
        ])
        contexts += map(" ".join, words[context_tokens].tolist())
        questions += map(" ".join, words[question_tokens].tolist())

    pairs = [
        QAPair(
            pair_id=f"c{c:02d}-p{i:04d}",
            question=question,
            context=context,
            doc_id=f"cluster-{c:02d}",
        )
        for (c, i), question, context in zip(
            product(range(n_clusters), range(pairs_per_cluster)), questions, contexts
        )
    ]
    documents = [
        Document(
            doc_id=f"cluster-{c:02d}",
            title=f"Synthetic cluster {c}",
            body=" ".join(contexts[c * pairs_per_cluster:(c + 1) * pairs_per_cluster]),
            source_meta={"generator": "synth", "cluster": str(c)},
        )
        for c in range(n_clusters)
    ]
    return documents, pairs
