"""HTTP client for remote embedding APIs, with cache-first batching.

Wire format: ``POST {base_url}/embeddings`` with JSON body
``{"model": <model_id>, "input": [<texts>]}`` and header
``Authorization: Bearer <key>``; the response is
``{"data": [{"index": i, "embedding": [floats]}, ...]}``.

``RemoteEmbedder.embed`` goes through ``cache.cached_embed``: texts already
in the vector cache are served locally, and all misses go to one
``RemoteEmbedder.fetch`` that sends them in batches of at most ``max_batch``
texts per request. Batches may be issued concurrently; ordering is restored
by position, never by arrival. The cache keeps the raw provider vectors;
L2 normalization is applied on the way out. The API key is read only when
some text misses the cache.
"""

from __future__ import annotations

import logging
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np
import requests

from .cache import VectorCache, cached_embed
from .embedding import l2_normalize

__all__ = ["ProviderConfig", "RemoteEmbedError", "RemoteEmbedder"]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ProviderConfig:
    """Connection and contract details for one embedding API."""

    provider_id: str
    model_id: str
    base_url: str
    api_key_env: str
    dim: int
    max_batch: int = 16
    timeout_ms: int = 30_000

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")


class RemoteEmbedError(RuntimeError):
    """Embedding API failure. ``retryable`` distinguishes transient HTTP/auth
    failures from contract violations (wrong dimension, partial response)."""

    def __init__(self, message: str, *, retryable: bool):
        super().__init__(message)
        self.retryable = retryable


def _api_key(config: ProviderConfig) -> str:
    key = os.environ.get(config.api_key_env, "")
    if not key:
        raise ValueError(
            f"provider {config.provider_id}: environment variable "
            f"{config.api_key_env} is not set"
        )
    return key


def _fetch_batch(config: ProviderConfig, key: str, batch: list[str]) -> list[np.ndarray]:
    url = config.base_url.rstrip("/") + "/embeddings"
    try:
        resp = requests.post(
            url,
            json={"model": config.model_id, "input": batch},
            headers={"Authorization": f"Bearer {key}"},
            timeout=config.timeout_ms / 1000.0,
        )
    except requests.RequestException as exc:
        raise RemoteEmbedError(
            f"provider {config.provider_id} ({config.model_id}): request failed: {exc}",
            retryable=True,
        ) from exc
    if resp.status_code != 200:
        raise RemoteEmbedError(
            f"provider {config.provider_id} ({config.model_id}): "
            f"HTTP {resp.status_code} from {url}",
            retryable=True,
        )
    try:
        data = resp.json()["data"]
        by_index = {int(entry["index"]): entry["embedding"] for entry in data}
    except (KeyError, TypeError, ValueError) as exc:
        raise RemoteEmbedError(
            f"provider {config.provider_id}: malformed response body: {exc}",
            retryable=False,
        ) from exc
    if sorted(by_index) != list(range(len(batch))):
        raise RemoteEmbedError(
            f"provider {config.provider_id}: partial response: got indices "
            f"{sorted(by_index)} for a batch of {len(batch)}",
            retryable=False,
        )
    vectors = []
    for i in range(len(batch)):
        vec = np.asarray(by_index[i], dtype=np.float32)
        if vec.ndim != 1 or vec.shape[0] != config.dim:
            raise RemoteEmbedError(
                f"provider {config.provider_id}: expected dim {config.dim}, "
                f"got {vec.shape}",
                retryable=False,
            )
        if not np.all(np.isfinite(vec)):
            raise RemoteEmbedError(
                f"provider {config.provider_id} ({config.model_id}): "
                f"non-finite vector for input {i} of a batch of {len(batch)}",
                retryable=False,
            )
        vectors.append(vec)
    return vectors


class RemoteEmbedder:
    """Cache-first batch embedder over one embedding API."""

    def __init__(
        self, config: ProviderConfig, cache: VectorCache | None = None, *, jobs: int = 1
    ):
        self.config = config
        self.cache = cache if cache is not None else VectorCache()
        self.jobs = jobs

    @property
    def dim(self) -> int:
        return self.config.dim

    @property
    def provider_id(self) -> str:
        return self.config.provider_id

    @property
    def model_id(self) -> str:
        return self.config.model_id

    def embed(self, texts: list[str]) -> np.ndarray:
        """Embed ``texts`` into an ``(n, dim)`` matrix of L2-normalized rows.

        Cached digests never touch the network; the cache keeps the raw
        provider vectors, and each row is normalized on the way out.
        """
        if not texts:
            raise ValueError("texts must be nonempty")
        matrix, _ = cached_embed(self.cache, self.config, texts, self.fetch)
        return np.stack([l2_normalize(row) for row in matrix])

    def fetch(self, texts: list[str]) -> list[np.ndarray]:
        """Raw provider vectors for ``texts``, in order, bypassing the cache."""
        config = self.config
        key = _api_key(config)
        batches = [
            texts[start : start + config.max_batch]
            for start in range(0, len(texts), config.max_batch)
        ]
        logger.info(
            "fetching %d texts in %d batches from %s",
            len(texts), len(batches), config.provider_id,
        )
        run = partial(_fetch_batch, config, key)
        if self.jobs > 1 and len(batches) > 1:
            with ThreadPoolExecutor(max_workers=self.jobs) as pool:
                results = list(pool.map(run, batches))
        else:
            results = [run(batch) for batch in batches]
        return [vec for vectors in results for vec in vectors]
