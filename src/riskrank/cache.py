"""Content-addressed disk cache for embedding vectors.

One file per record at ``<root>/<provider>/<model>/<sha256-of-text>.vec``.
File layout: magic bytes ``RKV1``, then the dimension as unsigned 32-bit
little-endian, then ``dim`` IEEE-754 float32 little-endian values. Writes
are atomic (temp file + rename), so concurrent writers of the same key are
idempotent and readers never observe partial files.

``cached_embed`` is the one cache-first loop: look each text up, fetch all
misses with one call, store what was fetched.
"""

from __future__ import annotations

import hashlib
import os
import re
import struct
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

__all__ = [
    "CACHE_MAGIC",
    "EmbeddingRecord",
    "CorruptCacheError",
    "VectorCache",
    "cached_embed",
    "text_digest",
    "default_cache_dir",
]

CACHE_MAGIC = b"RKV1"
CACHE_DIR_ENV = "RISKRANK_CACHE_DIR"

_SAFE_COMPONENT = re.compile(r"[^A-Za-z0-9._-]")


class CorruptCacheError(RuntimeError):
    """A cache file failed validation (bad magic, dim, or length)."""


def text_digest(text: str) -> str:
    """Hex SHA-256 of the UTF-8 bytes of ``text``."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def default_cache_dir() -> Path:
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "riskrank"


@dataclass(frozen=True)
class EmbeddingRecord:
    """A cached vector keyed by (provider, model, content digest)."""

    text_digest: str
    provider_id: str
    model_id: str
    vector: np.ndarray  # 1-D float32


def _sanitize(component: str) -> str:
    return _SAFE_COMPONENT.sub("_", component)


class VectorCache:
    """Filesystem-backed vector store with bit-exact round-trips."""

    def __init__(self, root: Path | str | None = None):
        self.root = Path(root) if root is not None else default_cache_dir()

    def path_for(self, digest: str, provider_id: str, model_id: str) -> Path:
        return (
            self.root
            / _sanitize(provider_id)
            / _sanitize(model_id)
            / f"{digest}.vec"
        )

    def put(self, record: EmbeddingRecord) -> Path:
        """Write a record atomically; returns the cache file path."""
        vec = np.asarray(record.vector, dtype=np.float32).ravel()
        if not np.all(np.isfinite(vec)):
            raise ValueError("refusing to cache vector with non-finite components")
        path = self.path_for(record.text_digest, record.provider_id, record.model_id)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = CACHE_MAGIC + struct.pack("<I", vec.shape[0]) + vec.tobytes()
        tmp = path.with_suffix(f".tmp-{uuid.uuid4().hex}")
        tmp.write_bytes(payload)
        os.replace(tmp, path)
        return path

    def get(self, digest: str, provider_id: str, model_id: str) -> EmbeddingRecord | None:
        """Read a record back, or None if absent. Raises CorruptCacheError on damage."""
        path = self.path_for(digest, provider_id, model_id)
        try:
            raw = path.read_bytes()
        except FileNotFoundError:
            return None
        if len(raw) < 8 or raw[:4] != CACHE_MAGIC:
            raise CorruptCacheError(f"bad magic in cache file {path}")
        (dim,) = struct.unpack("<I", raw[4:8])
        expected = 8 + 4 * dim
        if len(raw) != expected:
            raise CorruptCacheError(
                f"cache file {path} has {len(raw)} bytes, expected {expected} for dim {dim}"
            )
        vector = np.frombuffer(raw[8:], dtype="<f4").copy()
        return EmbeddingRecord(
            text_digest=digest,
            provider_id=provider_id,
            model_id=model_id,
            vector=vector,
        )


def cached_embed(
    cache: VectorCache,
    key: Any,
    texts: list[str],
    fetch: Callable[[list[str]], Sequence[np.ndarray]],
) -> tuple[np.ndarray, int]:
    """Cache-first embedding: returns the ``(n, dim)`` float32 matrix and the hit count.

    ``key`` is any object with ``provider_id``, ``model_id`` and ``dim``, such
    as an embedder or a ProviderConfig. Every text is looked up under it;
    ``fetch`` is called once, with all the misses in input order, and must
    return one vector per miss. Fetched vectors are stored as they are, so
    the cache holds what ``fetch`` makes. A cached vector of another
    dimension raises CorruptCacheError.
    """
    digests = [text_digest(t) for t in texts]
    out = np.zeros((len(texts), key.dim), dtype=np.float32)
    misses: list[int] = []
    for i, digest in enumerate(digests):
        record = cache.get(digest, key.provider_id, key.model_id)
        if record is None:
            misses.append(i)
        elif record.vector.shape[0] != key.dim:
            raise CorruptCacheError(
                f"cache file {cache.path_for(digest, key.provider_id, key.model_id)} "
                f"holds dim {record.vector.shape[0]}, expected dim {key.dim}"
            )
        else:
            out[i] = record.vector
    if misses:
        vectors = fetch([texts[i] for i in misses])
        for i, vec in zip(misses, vectors):
            cache.put(EmbeddingRecord(digests[i], key.provider_id, key.model_id, vec))
            out[i] = vec
    return out, len(texts) - len(misses)
