"""HTTP client for remote embedding APIs, with cache-first batching.

Wire format: ``POST {base_url}/embeddings`` with JSON body
``{"model": <model_id>, "input": [<texts>]}`` and header
``Authorization: Bearer <key>``; the response is
``{"data": [{"index": i, "embedding": [floats]}, ...]}``.

Requests go through the standard library's ``urllib.request``: proxies come
from ``http_proxy`` / ``https_proxy`` / ``no_proxy``, HTTPS verifies against
the system CA store (or ``SSL_CERT_FILE``), ``~/.netrc`` is not read, and a
redirect is not followed: it fails as ``HTTP <status>`` like any answer
other than 200, so the key and the texts go only to ``base_url``.

``RemoteEmbedder.embed`` goes through ``cache.cached_embed``: texts already
in the vector cache are served locally, and all misses go to one
``RemoteEmbedder.fetch`` that sends them in batches of at most ``max_batch``
texts per request. Every batch goes through one thread pool of ``jobs``
workers and comes back as one checked ``(len(batch), dim)`` float32 matrix;
``fetch`` joins them by position, never by arrival, into one matrix, which
``cached_embed`` stores as it is. The cache keeps the raw provider vectors;
``embedding.unit_rows`` normalizes them on the way out, as it does index
rows and queries. The API key is read only when some text misses the cache.
"""

from __future__ import annotations

import http.client
import json
import logging
import os
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .cache import NONEMPTY_STRING, POSITIVE_INTEGER, VectorCache, cached_embed, check_values
from .embedding import unit_rows

__all__ = ["ProviderConfig", "RemoteEmbedError", "RemoteEmbedder"]

logger = logging.getLogger(__name__)


class _NoRedirect(urllib.request.HTTPRedirectHandler):
    """Refuse every redirect: urllib would resend a POST's headers, the key
    among them, as a GET to the new location."""

    def redirect_request(self, req, fp, code, msg, headers, newurl):
        return None


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
        names = ("provider_id", "model_id", "base_url", "api_key_env")
        check_values(self, dict.fromkeys(names, NONEMPTY_STRING))
        check_values(self, dict.fromkeys(("dim", "max_batch", "timeout_ms"), POSITIVE_INTEGER))


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


def _fetch_batch(
    opener: urllib.request.OpenerDirector, config: ProviderConfig, key: str, batch: list[str]
) -> np.ndarray:
    """The provider's ``(len(batch), dim)`` float32 matrix for ``batch``, checked."""
    url = config.base_url.rstrip("/") + "/embeddings"
    request = urllib.request.Request(
        url,
        data=json.dumps({"model": config.model_id, "input": batch}).encode(),
        headers={"Authorization": f"Bearer {key}", "Content-Type": "application/json"},
        method="POST",
    )
    try:
        # The read sits inside the try: a timeout can strike there too.
        with opener.open(request, timeout=config.timeout_ms / 1000) as resp:
            status, body = resp.status, resp.read()
    except urllib.error.HTTPError as exc:
        exc.close()
        status, body = exc.code, b""
    except (OSError, http.client.HTTPException) as exc:
        raise RemoteEmbedError(
            f"provider {config.provider_id} ({config.model_id}): request failed: {exc}",
            retryable=True,
        ) from exc
    if status != 200:
        raise RemoteEmbedError(
            f"provider {config.provider_id} ({config.model_id}): "
            f"HTTP {status} from {url}",
            retryable=True,
        )
    try:
        data = json.loads(body)["data"]  # invalid JSON or UTF-8 raises ValueError
        indices = [entry["index"] for entry in data]
        # Each index an int (not a bool), each of the batch's exactly once.
        if any(type(i) is not int for i in indices) or sorted(indices) != list(range(len(batch))):
            raise RemoteEmbedError(
                f"provider {config.provider_id}: bad response indices: got "
                f"{indices} for a batch of {len(batch)}",
                retryable=False,
            )
        by_index = {entry["index"]: entry["embedding"] for entry in data}
        # A ragged or non-numeric list of embeddings raises ValueError or TypeError.
        matrix = np.asarray([by_index[i] for i in range(len(batch))], dtype=np.float32)
    except (KeyError, TypeError, ValueError) as exc:
        raise RemoteEmbedError(
            f"provider {config.provider_id}: malformed response body: {exc}",
            retryable=False,
        ) from exc
    if matrix.shape != (len(batch), config.dim):
        raise RemoteEmbedError(
            f"provider {config.provider_id}: expected dim {config.dim}, "
            f"got {matrix.shape[1:]}",
            retryable=False,
        )
    finite = np.isfinite(matrix).all(axis=1)
    if not finite.all():
        raise RemoteEmbedError(
            f"provider {config.provider_id} ({config.model_id}): non-finite vector "
            f"for input {int(np.argmin(finite))} of a batch of {len(batch)}",
            retryable=False,
        )
    return matrix


class RemoteEmbedder:
    """Cache-first batch embedder over one embedding API.

    ``jobs`` bounds the requests in flight to the provider at once.
    """

    def __init__(
        self, config: ProviderConfig, cache: VectorCache | None = None, *, jobs: int = 1
    ):
        self.config = config
        self.dim, self.provider_id, self.model_id = config.dim, config.provider_id, config.model_id
        self.cache = cache if cache is not None else VectorCache()
        self.jobs = jobs
        check_values(self, {"jobs": POSITIVE_INTEGER})

    def embed(self, texts: list[str]) -> np.ndarray:
        """Embed ``texts`` into an ``(n, dim)`` matrix of L2-normalized rows.

        Cached digests never touch the network; the cache keeps the raw
        provider vectors, and ``unit_rows`` normalizes them on the way out.
        """
        matrix, _ = cached_embed(self.cache, self.config, texts, self.fetch)
        return unit_rows(matrix, texts, "text").astype(np.float32)

    def fetch(self, texts: list[str]) -> np.ndarray:
        """The raw ``(n, dim)`` float32 provider matrix for ``texts``, bypassing the cache.

        Every batch goes through one pool of ``jobs`` threads; the batch
        matrices are joined in input order. No texts, no request.
        """
        config = self.config
        if not texts:
            return np.empty((0, config.dim), dtype=np.float32)
        key = _api_key(config)
        batches = [
            texts[start : start + config.max_batch]
            for start in range(0, len(texts), config.max_batch)
        ]
        logger.info(
            "fetching %d texts in %d batches from %s",
            len(texts), len(batches), config.provider_id,
        )
        # Built per fetch, so the proxy settings are read when texts are sent.
        opener = urllib.request.build_opener(_NoRedirect)
        with ThreadPoolExecutor(max_workers=self.jobs) as pool:
            fetch_batch = partial(_fetch_batch, opener, config, key)
            return np.concatenate(list(pool.map(fetch_batch, batches)))
