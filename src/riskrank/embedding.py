"""Tokenization, deterministic hashed embeddings, and vector math.

Vectors are 1-D float32 numpy arrays. All norms and dot products are
computed in float64 with exactly-rounded summation (``math.fsum`` over
IEEE-rounded products), so similarity scores are reproducible bit-for-bit
across platforms, BLAS builds, and re-implementations of the same
arithmetic.

The hashed embedder is a fast, fully deterministic stand-in for a frozen
sentence encoder: each token is hashed to a coordinate and a sign, signed
counts are accumulated, and the result is L2-normalized.
"""

from __future__ import annotations

import hashlib
import math
import re
from typing import Protocol

import numpy as np

__all__ = [
    "tokenize",
    "hash_embed",
    "l2_normalize",
    "cosine",
    "exact_dot",
    "exact_norm",
    "Embedder",
    "HashEmbedder",
]

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
_U64 = 0xFFFFFFFFFFFFFFFF


def tokenize(text: str) -> list[str]:
    """Lowercase ``text`` and split on runs of non-alphanumeric characters.

    Empty tokens are dropped: ``"VaR-99.5%"`` -> ``["var", "99", "5"]``.
    """
    return _TOKEN_RE.findall(text.lower())


def exact_dot(u: np.ndarray, v: np.ndarray) -> float:
    """Exactly rounded float64 dot product of two equal-length vectors.

    Each product is rounded once (IEEE float64 multiply); the sum of the
    rounded products is exact (``math.fsum``). The result is therefore a
    pure function of the input bits, independent of vectorization or BLAS.
    """
    u64 = np.asarray(u, dtype=np.float64)
    v64 = np.asarray(v, dtype=np.float64)
    if u64.shape != v64.shape:
        raise ValueError(f"dimension mismatch: {u64.shape} vs {v64.shape}")
    return math.fsum((u64 * v64).tolist())


def exact_norm(v: np.ndarray) -> float:
    """Euclidean norm computed as ``sqrt`` of the exactly rounded sum of squares."""
    v64 = np.asarray(v, dtype=np.float64)
    return math.sqrt(math.fsum((v64 * v64).tolist()))


def l2_normalize(v: np.ndarray) -> np.ndarray:
    """Scale ``v`` to unit L2 norm; an all-zero vector is returned unchanged.

    Raises ValueError if any component is non-finite. The division is done
    in float64 and the result is stored as float32.
    """
    v64 = np.asarray(v, dtype=np.float64)
    if not np.all(np.isfinite(v64)):
        raise ValueError("cannot normalize vector with non-finite components")
    norm = exact_norm(v64)
    if norm == 0.0:
        return v64.astype(np.float32)
    return (v64 / norm).astype(np.float32)


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine similarity in [-1, 1]; defined as 0.0 if either vector is zero.

    Raises ValueError on dimension mismatch.
    """
    u64 = np.asarray(u, dtype=np.float64)
    v64 = np.asarray(v, dtype=np.float64)
    if u64.shape != v64.shape:
        raise ValueError(f"dimension mismatch: {u64.shape} vs {v64.shape}")
    nu = exact_norm(u64)
    nv = exact_norm(v64)
    if nu == 0.0 or nv == 0.0:
        return 0.0
    c = exact_dot(u64, v64) / (nu * nv)
    return max(-1.0, min(1.0, c))


def _token_slot(token: str, seed: int) -> tuple[int, int]:
    """Stable (bucket, sign) for a token under a seed, via keyed blake2b."""
    key = (seed & _U64).to_bytes(8, "little")
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=9, key=key).digest()
    bucket = int.from_bytes(digest[:8], "little")
    sign = 1 if digest[8] & 1 else -1
    return bucket, sign


def hash_embed(tokens: list[str], dim: int, seed: int = 0) -> np.ndarray:
    """Signed-count feature hashing of a token list into a unit float32 vector.

    Each token lands in a seeded hash bucket in ``[0, dim)`` with a hash-derived
    sign; counts accumulate and the result is L2-normalized. An empty token
    list yields the all-zero vector. Deterministic under (tokens, dim, seed).
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    counts = np.zeros(dim, dtype=np.float64)
    for token in tokens:
        bucket, sign = _token_slot(token, seed)
        counts[bucket % dim] += sign
    return l2_normalize(counts)


class Embedder(Protocol):
    """What riskrank embeds text through: one batch call, one row per text."""

    dim: int

    def embed(self, texts: list[str]) -> np.ndarray:
        """Embed ``texts`` into an ``(len(texts), dim)`` float32 matrix."""


class HashEmbedder:
    """Deterministic local text embedder: ``tokenize`` then ``hash_embed``.

    Carries ``provider_id``/``model_id`` so its vectors can share the same
    content-addressed cache as remote providers.
    """

    provider_id = "local"

    def __init__(self, dim: int = 256, seed: int = 0):
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        self.dim = dim
        self.seed = seed
        self.model_id = f"hash-d{dim}-s{seed}"

    def __call__(self, text: str) -> np.ndarray:
        return hash_embed(tokenize(text), self.dim, self.seed)

    def embed(self, texts: list[str]) -> np.ndarray:
        """Embed a batch of texts into an ``(n, dim)`` float32 matrix."""
        out = np.zeros((len(texts), self.dim), dtype=np.float32)
        for i, text in enumerate(texts):
            out[i] = self(text)
        return out

    # The vector cache keeps hash vectors as embedded: fetching is embedding.
    fetch = embed

    def __repr__(self) -> str:
        return f"HashEmbedder(dim={self.dim}, seed={self.seed})"
