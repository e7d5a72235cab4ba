"""Content-addressed disk cache for embedding vectors, and the RKV1 codec.

RKV1 is the one vector file layout in riskrank: magic bytes ``RKV1``, then
the dimension as unsigned 32-bit little-endian, then row-major IEEE-754
float32 little-endian values. A cache file holds one row; an index's
``vectors.bin`` holds one row per item. ``write_rkv1`` writes atomically
(temp file + rename), so concurrent writers of the same file are idempotent
and readers never observe partial files; ``read_rkv1`` checks the magic and
the length and names the file when either is wrong.

The cache keeps one file per text at
``<root>/<provider>/<model>/<sha256-of-text>.vec``. ``cached_embed`` is the
one cache-first loop: look each distinct text up, fetch all misses with one
call, store what was fetched.
"""

from __future__ import annotations

import hashlib
import os
import re
import struct
import uuid
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

__all__ = [
    "CACHE_MAGIC",
    "CorruptCacheError",
    "VectorCache",
    "cached_embed",
    "read_rkv1",
    "write_rkv1",
    "text_digest",
    "default_cache_dir",
]

CACHE_MAGIC = b"RKV1"
CACHE_DIR_ENV = "RISKRANK_CACHE_DIR"

_SAFE_COMPONENT = re.compile(r"[^A-Za-z0-9._-]")


class CorruptCacheError(ValueError):
    """An RKV1 file failed validation (bad magic, dim, or length)."""


def text_digest(text: str) -> str:
    """Hex SHA-256 of the UTF-8 bytes of ``text``."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def default_cache_dir() -> Path:
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "riskrank"


def write_rkv1(path: Path | str, vectors: np.ndarray) -> None:
    """Atomically write a vector or an ``(n, dim)`` matrix as one RKV1 file."""
    values = np.asarray(vectors, dtype="<f4")
    if not np.all(np.isfinite(values)):
        raise ValueError(f"refusing to write non-finite vector components to {path}")
    payload = CACHE_MAGIC + struct.pack("<I", values.shape[-1]) + values.tobytes()
    tmp = f"{path}.tmp-{uuid.uuid4().hex}"
    with open(tmp, "wb") as handle:
        handle.write(payload)
    os.replace(tmp, path)


def read_rkv1(path: Path | str, rows: int = 1) -> np.ndarray:
    """Read an RKV1 file of ``rows`` vectors as a ``(rows, dim)`` float32 matrix.

    A missing file raises FileNotFoundError; a damaged one raises
    CorruptCacheError naming the file.
    """
    with open(path, "rb") as handle:
        raw = handle.read()
    if len(raw) < 8 or raw[:4] != CACHE_MAGIC:
        raise CorruptCacheError(f"bad magic in RKV1 file {path}")
    (dim,) = struct.unpack("<I", raw[4:8])
    expected = 8 + 4 * rows * dim
    if len(raw) != expected:
        raise CorruptCacheError(
            f"RKV1 file {path} has {len(raw)} bytes, expected {expected} "
            f"for {rows} x {dim}"
        )
    return np.frombuffer(raw, dtype="<f4", offset=8).reshape(rows, dim).copy()


class VectorCache:
    """Filesystem-backed vector store with bit-exact round-trips."""

    def __init__(self, root: Path | str | None = None):
        self.root = Path(root) if root is not None else default_cache_dir()
        self._dirs: dict[tuple[str, str], str] = {}

    def path_for(self, digest: str, provider_id: str, model_id: str) -> str:
        """Cache file path; each (provider, model) directory is built once."""
        directory = self._dirs.get((provider_id, model_id))
        if directory is None:
            directory = os.path.join(
                self.root,
                _SAFE_COMPONENT.sub("_", provider_id),
                _SAFE_COMPONENT.sub("_", model_id),
            )
            self._dirs[provider_id, model_id] = directory
        return f"{directory}{os.sep}{digest}.vec"

    def put(
        self, digest: str, provider_id: str, model_id: str, vector: np.ndarray
    ) -> Path:
        """Write one vector atomically; returns the cache file path.

        The directory is made only when the first write into it finds it missing.
        """
        path = self.path_for(digest, provider_id, model_id)
        vector = np.ravel(vector)
        try:
            write_rkv1(path, vector)
        except FileNotFoundError:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            write_rkv1(path, vector)
        return Path(path)

    def get(self, digest: str, provider_id: str, model_id: str) -> np.ndarray | None:
        """The cached float32 vector, or None if absent. Raises CorruptCacheError on damage."""
        try:
            return read_rkv1(self.path_for(digest, provider_id, model_id))[0]
        except FileNotFoundError:
            return None


def cached_embed(
    cache: VectorCache,
    key: Any,
    texts: list[str],
    fetch: Callable[[list[str]], Sequence[np.ndarray]],
) -> tuple[np.ndarray, int]:
    """Cache-first embedding: returns the ``(n, dim)`` float32 matrix and the hit count.

    ``key`` is any object with ``provider_id``, ``model_id`` and ``dim``, such
    as an embedder or a ProviderConfig. Each distinct text is looked up under
    it once; ``fetch`` is called once, with each distinct miss in order of
    first occurrence, and must return one vector per text it is given.
    Fetched vectors are stored as they are, so the cache holds what ``fetch``
    makes. Rows keep input order; the hit count is the number of rows served
    from the cache. A cached vector of another dimension raises
    CorruptCacheError.
    """
    rows: dict[str, list[int]] = {}
    for i, text in enumerate(texts):
        rows.setdefault(text_digest(text), []).append(i)
    out = np.zeros((len(texts), key.dim), dtype=np.float32)
    misses: list[str] = []
    hits = 0
    for digest, positions in rows.items():
        vector = cache.get(digest, key.provider_id, key.model_id)
        if vector is None:
            misses.append(digest)
        elif vector.shape[0] != key.dim:
            raise CorruptCacheError(
                f"cache file {cache.path_for(digest, key.provider_id, key.model_id)} "
                f"holds dim {vector.shape[0]}, expected dim {key.dim}"
            )
        else:
            out[positions] = vector
            hits += len(positions)
    if misses:
        vectors = fetch([texts[rows[digest][0]] for digest in misses])
        for digest, vector in zip(misses, vectors):
            cache.put(digest, key.provider_id, key.model_id, vector)
            out[rows[digest]] = vector
    return out, hits
