"""Question-context datasets: loading, chunking, splitting, and synthesis.

File formats:
  - QA JSONL: one object per line with ``question`` and ``context`` (required)
    plus optional ``pair_id`` and ``doc_id``; UTF-8.
  - QA CSV: header row with at least ``question,context``; optional
    ``pair_id`` and ``doc_id`` columns.
  - Documents: plain-text files, one document per file, id = file stem; or
    documents JSONL, one object per line with ``doc_id``, ``title``,
    ``body`` and ``source_meta``.

Records without an explicit ``pair_id`` get the zero-padded 0-based record
index (``"000042"``), so ids are stable across reloads of the same file.
"""

from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "Document",
    "Chunk",
    "QAPair",
    "DatasetSplit",
    "EvalSet",
    "Qrels",
    "load_qa_pairs",
    "save_qa_pairs",
    "load_documents",
    "save_documents",
    "chunk_document",
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


def _require_str(record: dict, key: str, path: Path, line_no: int) -> str:
    value = record.get(key)
    if not isinstance(value, str) or not value:
        raise ValueError(
            f"{path}: line {line_no}: missing or empty field {key!r}"
        )
    return value


def _optional_str(record: dict, key: str, path: Path, line_no: int) -> str | None:
    value = record.get(key)
    if value is None or value == "":
        return None
    if not isinstance(value, str):
        raise ValueError(f"{path}: line {line_no}: field {key!r} must be a string")
    return value


def _jsonl_records(path: Path) -> Iterator[tuple[int, dict]]:
    """``(line_no, record)`` for each nonblank line; bad lines raise ValueError."""
    with path.open("r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}: line {line_no}: invalid JSON: {exc}") from exc
            if not isinstance(record, dict):
                raise ValueError(f"{path}: line {line_no}: record must be an object")
            yield line_no, record


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
        pair_id = _optional_str(record, "pair_id", path, line_no)
        question = _require_str(record, "question", path, line_no)
        context = _require_str(record, "context", path, line_no)
        doc_id = _optional_str(record, "doc_id", path, line_no)
        if pair_id is None:
            pair_id = f"{len(pairs):06d}"
        if pair_id in seen:
            raise ValueError(
                f"{path}: line {line_no}: duplicate pair_id {pair_id!r} "
                f"(first seen on line {seen[pair_id]})"
            )
        seen[pair_id] = line_no
        pairs.append(QAPair(pair_id=pair_id, question=question,
                            context=context, doc_id=doc_id))

    if format == "jsonl":
        for line_no, record in _jsonl_records(path):
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
                add(record, reader.line_num)
    return pairs


def save_qa_pairs(pairs: Iterable[QAPair], path: Path | str) -> None:
    """Write pairs as QA JSONL; ``load_qa_pairs`` round-trips the sequence."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as handle:
        for pair in pairs:
            record: dict[str, str] = {
                "pair_id": pair.pair_id,
                "question": pair.question,
                "context": pair.context,
            }
            if pair.doc_id is not None:
                record["doc_id"] = pair.doc_id
            handle.write(json.dumps(record, ensure_ascii=False) + "\n")


def _document(record: dict, path: Path, line_no: int) -> Document:
    doc_id = _require_str(record, "doc_id", path, line_no)
    title = record.get("title", doc_id)
    if not isinstance(title, str):
        raise ValueError(f"{path}: line {line_no}: field 'title' must be a string")
    meta = record.get("source_meta", {})
    if not isinstance(meta, dict):
        raise ValueError(f"{path}: line {line_no}: field 'source_meta' must be an object")
    return Document(doc_id, title, _require_str(record, "body", path, line_no), meta)


def load_documents(source: Path | str | Sequence[Path | str]) -> list[Document]:
    """Load documents from plain-text files or from one documents JSONL file.

    ``source`` may be a directory (its ``.txt`` files, non-recursively,
    sorted by name; doc_id = file stem), a ``.jsonl`` file as written by
    ``save_documents`` (``title`` defaults to the doc_id and ``source_meta``
    to empty), or an explicit sequence of text file paths.
    """
    if isinstance(source, (str, Path)):
        root = Path(source)
        if root.suffix == ".jsonl":
            return [_document(record, root, line_no) for line_no, record in _jsonl_records(root)]
        if root.is_dir():
            paths = sorted(root.glob("*.txt"))
        else:
            paths = [root]
    else:
        paths = [Path(p) for p in source]
    docs = []
    for p in paths:
        body = p.read_text(encoding="utf-8")
        docs.append(
            Document(
                doc_id=p.stem,
                title=p.stem,
                body=body,
                source_meta={"source_path": str(p)},
            )
        )
    return docs


def save_documents(documents: Iterable[Document], path: Path | str) -> None:
    """Write documents as JSONL, one object per line, readable by ``load_documents``."""
    with Path(path).open("w", encoding="utf-8") as handle:
        for doc in documents:
            handle.write(json.dumps(asdict(doc), ensure_ascii=False) + "\n")


def chunk_document(
    doc: Document,
    window: int = DEFAULT_CHUNK_WINDOW,
    stride: int = DEFAULT_CHUNK_STRIDE,
) -> list[Chunk]:
    """Slide a ``window``-token window over the body, advancing by ``stride``.

    Tokens are whitespace-delimited; spans map back to character offsets in
    the original body, and the final partial window is emitted if nonempty.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if not 1 <= stride <= window:
        raise ValueError(f"stride must be in [1, window], got {stride}")
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


def split_pairs(pairs: Sequence[QAPair], ratio: float, seed: int) -> DatasetSplit:
    """Deterministic shuffled split: first ``floor(ratio * N)`` pairs train.

    The shuffle is a NumPy PCG64 permutation seeded with ``seed``, so the
    same inputs always produce the same member sets and order.
    """
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"ratio must be in (0, 1), got {ratio}")
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
_Q_MARKER_WORDS = 4
_CTX_MARKER_WORDS = 6


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
    cluster's vocabulary with a small amount of cross-cluster noise.
    """
    if n_clusters < 1 or pairs_per_cluster < 1 or vocab_per_cluster < 1:
        raise ValueError("all synth_dataset counts must be >= 1")
    rng = np.random.default_rng(seed)
    vocab = [
        [f"c{c:02d}w{i:03d}" for i in range(vocab_per_cluster)]
        for c in range(n_clusters)
    ]
    n_qmark = max(1, round(0.08 * vocab_per_cluster))
    n_cmark = max(1, round(0.12 * vocab_per_cluster))
    if vocab_per_cluster - n_qmark - n_cmark >= 1:
        question_markers = [v[:n_qmark] for v in vocab]
        context_markers = [v[n_qmark : n_qmark + n_cmark] for v in vocab]
        content = [v[n_qmark + n_cmark :] for v in vocab]
    else:
        # vocabulary too small to partition; all groups share it
        question_markers = context_markers = content = vocab

    def pick(words: list[str], count: int) -> list[str]:
        return [words[int(rng.integers(len(words)))] for _ in range(count)]

    def pick_distinct(words: list[str], count: int) -> list[str]:
        idx = rng.choice(len(words), size=min(count, len(words)), replace=False)
        return [words[int(i)] for i in idx]

    def cross_noise(groups: list[list[str]], own: int, count: int) -> list[str]:
        words = []
        for _ in range(count):
            if n_clusters == 1:
                c = own
            else:
                c = int(rng.integers(n_clusters - 1))
                if c >= own:
                    c += 1
            words.append(groups[c][int(rng.integers(len(groups[c])))])
        return words

    pairs: list[QAPair] = []
    cluster_texts: list[list[str]] = [[] for _ in range(n_clusters)]
    for c in range(n_clusters):
        for i in range(pairs_per_cluster):
            own_content = pick_distinct(content[c], _CTX_CONTENT_TOKENS)
            context_tokens = (
                own_content
                + pick(context_markers[c], _CTX_MARKER_TOKENS)
                + cross_noise(content, c, _CTX_NOISE_TOKENS)
            )
            quoted = pick_distinct(own_content, _Q_QUOTED_TOKENS)
            question_tokens = (
                quoted
                + pick(question_markers[c], _Q_MARKER_TOKENS)
                + cross_noise(question_markers, c, _Q_NOISE_TOKENS)
            )
            context = " ".join(context_tokens)
            question = " ".join(question_tokens)
            pairs.append(
                QAPair(
                    pair_id=f"c{c:02d}-p{i:04d}",
                    question=question,
                    context=context,
                    doc_id=f"cluster-{c:02d}",
                )
            )
            cluster_texts[c].append(context)

    documents = [
        Document(
            doc_id=f"cluster-{c:02d}",
            title=f"Synthetic cluster {c}",
            body=" ".join(cluster_texts[c]),
            source_meta={"generator": "synth", "cluster": str(c)},
        )
        for c in range(n_clusters)
    ]
    return documents, pairs
