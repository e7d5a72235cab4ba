"""Remote embedding client against a live local HTTP server."""

import json
import math
import re

import numpy as np
import pytest

from riskrank.cache import CorruptCacheError, VectorCache, cached_embed, text_digest
from riskrank.corpus import QAPair
from riskrank.finetune import TrainingConfig, train_adapter
from riskrank.remote import ProviderConfig, RemoteEmbedder, RemoteEmbedError

from conftest import SLOW_S, server_vector
from reference import reference_unit_rows


def make_config(server, model="ok-8", dim=8, max_batch=10, timeout_ms=5000) -> ProviderConfig:
    return ProviderConfig(
        provider_id="testprov",
        model_id=model,
        base_url=server.base_url,
        api_key_env="RISKRANK_TEST_API_KEY",
        dim=dim,
        max_batch=max_batch,
        timeout_ms=timeout_ms,
    )


def embed_remote(config, texts, cache, jobs=1) -> np.ndarray:
    return RemoteEmbedder(config, cache, jobs=jobs).embed(texts)


def unit_vector(text: str, dim: int = 8) -> np.ndarray:
    """What ``RemoteEmbedder.embed`` returns for ``text``: the server vector, normalized."""
    return reference_unit_rows([np.asarray(server_vector(text, dim), dtype=np.float32)])[0]


@pytest.fixture(autouse=True)
def api_key(monkeypatch, embedding_server):
    monkeypatch.setenv("RISKRANK_TEST_API_KEY", "sekret")
    embedding_server.reset()


def test_cold_cache_batching(embedding_server, tmp_path):
    config = make_config(embedding_server, max_batch=10)
    cache = VectorCache(tmp_path)
    texts = [f"text number {i}" for i in range(25)]
    matrix = embed_remote(config, texts, cache)
    assert matrix.shape == (25, 8)
    requests = embedding_server.requests
    assert len(requests) == 3  # ceil(25 / 10)
    assert all(r["path"] == "/embeddings" for r in requests)
    assert all(r["auth"] == "Bearer sekret" for r in requests)
    for i, text in enumerate(texts):
        assert np.array_equal(matrix[i], unit_vector(text))


def test_warm_cache_makes_no_requests(embedding_server, tmp_path):
    config = make_config(embedding_server)
    cache = VectorCache(tmp_path)
    texts = ["alpha", "beta", "gamma"]
    first = embed_remote(config, texts, cache)
    embedding_server.reset()
    second = embed_remote(config, texts, cache)
    assert embedding_server.requests == []
    assert np.array_equal(first, second)


def test_warm_cache_needs_no_api_key(embedding_server, tmp_path, monkeypatch):
    config = make_config(embedding_server)
    cache = VectorCache(tmp_path)
    first = embed_remote(config, ["alpha", "beta"], cache)
    embedding_server.reset()
    monkeypatch.delenv("RISKRANK_TEST_API_KEY")
    second = embed_remote(config, ["beta", "alpha"], cache)
    assert embedding_server.requests == []
    assert np.array_equal(second, first[::-1])


def test_cached_vector_of_wrong_dim_is_corruption(embedding_server, tmp_path):
    config = make_config(embedding_server, dim=8)
    cache = VectorCache(tmp_path)
    path = cache.put([text_digest("alpha")], "testprov", "ok-8", np.ones((1, 4), np.float32))
    with pytest.raises(CorruptCacheError) as excinfo:
        embed_remote(config, ["alpha"], cache)
    message = str(excinfo.value)
    assert str(path) in message
    assert "dim 4" in message and "dim 8" in message
    assert embedding_server.requests == []


def test_partial_cache_only_fetches_misses(embedding_server, tmp_path):
    config = make_config(embedding_server, max_batch=50)
    cache = VectorCache(tmp_path)
    embed_remote(config, ["alpha", "beta"], cache)
    embedding_server.reset()
    embed_remote(config, ["alpha", "gamma", "beta"], cache)
    requests = embedding_server.requests
    assert len(requests) == 1
    assert requests[0]["inputs"] == ["gamma"]


def test_order_restored_with_parallel_batches(embedding_server, tmp_path):
    config = make_config(embedding_server, max_batch=2)
    cache = VectorCache(tmp_path)
    texts = [f"item {i}" for i in range(11)]
    matrix = embed_remote(config, texts, cache, jobs=4)
    for i, text in enumerate(texts):
        assert np.array_equal(matrix[i], unit_vector(text))


def test_embed_normalizes_and_cache_keeps_raw(embedding_server, tmp_path):
    config = make_config(embedding_server)
    cache = VectorCache(tmp_path)
    embedder = RemoteEmbedder(config, cache)
    matrix = embedder.embed(["alpha"])
    raw = np.asarray(server_vector("alpha", 8), dtype=np.float32)
    assert np.array_equal(matrix[0], reference_unit_rows([raw])[0])
    assert np.array_equal(cache.get(text_digest("alpha"), "testprov", "ok-8"), raw)
    assert np.array_equal(embedder.fetch(["alpha"])[0], raw)


def test_repeated_texts_are_fetched_and_stored_once(embedding_server, tmp_path):
    config = make_config(embedding_server, max_batch=50)
    cache = VectorCache(tmp_path)
    texts = ["ctx a", "ctx a", "ctx b", "ctx a"]
    matrix = embed_remote(config, texts, cache)
    assert [r["inputs"] for r in embedding_server.requests] == [["ctx a", "ctx b"]]
    [segment] = tmp_path.rglob("*.vec")
    keys = [text_digest("ctx a"), text_digest("ctx b")]
    assert segment.with_suffix(".keys").read_text().split() == keys
    for i, text in enumerate(texts):
        assert np.array_equal(matrix[i], unit_vector(text))

    def no_fetch(misses):
        raise AssertionError(f"unexpected fetch of {misses}")

    raw, hits = cached_embed(cache, config, texts + ["ctx b"], no_fetch)
    assert hits == 5  # rows served from the cache, repeats included
    assert np.array_equal(raw[3], np.asarray(server_vector("ctx a", 8), dtype=np.float32))


def test_dim_mismatch_is_hard_error(embedding_server, tmp_path):
    config = make_config(embedding_server, model="wrong-dim", dim=8)
    with pytest.raises(RemoteEmbedError) as excinfo:
        embed_remote(config, ["alpha"], VectorCache(tmp_path))
    assert not excinfo.value.retryable


def test_ragged_response_is_hard_error(embedding_server, tmp_path):
    config = make_config(embedding_server, model="ragged")
    with pytest.raises(RemoteEmbedError) as excinfo:
        embed_remote(config, ["alpha", "beta"], VectorCache(tmp_path))
    assert not excinfo.value.retryable
    assert "testprov" in str(excinfo.value)
    assert not list(tmp_path.rglob("*.vec"))


def fetch_answered_with(data, texts, tmp_path, server):
    """The ``RemoteEmbedError`` that fetching ``texts`` raises when every
    request is answered with HTTP 200 and ``{"data": data}``, or with
    ``data`` itself when it is bytes."""
    server.answer_with(data if type(data) is bytes else json.dumps({"data": data}).encode())
    config = make_config(server, model="canned")
    with pytest.raises(RemoteEmbedError) as excinfo:
        RemoteEmbedder(config, VectorCache(tmp_path)).fetch(texts)
    assert not excinfo.value.retryable
    assert "testprov" in str(excinfo.value)
    return excinfo.value


@pytest.mark.parametrize("embedding", ["not a vector", ["x"] * 8, [None, {}] * 4])
def test_non_numeric_embedding_is_hard_error(embedding_server, tmp_path, embedding):
    data = [{"index": 0, "embedding": embedding}]
    fetch_answered_with(data, ["alpha"], tmp_path, embedding_server)


@pytest.mark.parametrize("body", [b"not json", b'{"data": "\xff"}', b'["data"]'])
def test_malformed_body_is_hard_error(embedding_server, tmp_path, body):
    error = fetch_answered_with(body, ["alpha"], tmp_path, embedding_server)
    assert "malformed response body" in str(error)


def test_partial_response_is_hard_error(embedding_server, tmp_path):
    config = make_config(embedding_server, model="partial")
    with pytest.raises(RemoteEmbedError) as excinfo:
        embed_remote(config, ["alpha", "beta"], VectorCache(tmp_path))
    assert not excinfo.value.retryable


def test_repeated_index_is_hard_error(embedding_server, tmp_path):
    """Indices 0, 0, 1 for a batch of two: the second vector given for
    index 0 must not replace the first."""
    config = make_config(embedding_server, model="dup-index")
    with pytest.raises(RemoteEmbedError) as excinfo:
        embed_remote(config, ["alpha", "beta"], VectorCache(tmp_path))
    assert not excinfo.value.retryable
    assert "got [0, 0, 1] for a batch of 2" in str(excinfo.value)
    assert not list(tmp_path.rglob("*.vec"))


@pytest.mark.parametrize("indices", [[0, "1"], [0.9, 1], [0, 1.0], [False, True]])
def test_non_integer_indices_are_hard_error(embedding_server, tmp_path, indices):
    data = [{"index": i, "embedding": [1.0] * 8} for i in indices]
    error = fetch_answered_with(data, ["alpha", "beta"], tmp_path, embedding_server)
    assert f"got {indices!r} for a batch of 2" in str(error)


def test_non_finite_vector_is_hard_error(embedding_server, tmp_path):
    config = make_config(embedding_server, model="nan")
    cache = VectorCache(tmp_path)
    with pytest.raises(RemoteEmbedError) as excinfo:
        embed_remote(config, ["alpha", "beta"], cache)
    assert not excinfo.value.retryable
    assert "testprov" in str(excinfo.value)
    assert not list(tmp_path.rglob("*.vec"))


def test_http_failure_is_retryable(embedding_server, tmp_path):
    config = make_config(embedding_server, model="boom")
    with pytest.raises(RemoteEmbedError) as excinfo:
        embed_remote(config, ["alpha"], VectorCache(tmp_path))
    assert excinfo.value.retryable
    assert "testprov" in str(excinfo.value)


@pytest.mark.parametrize("status", [201, 302, 307])
def test_status_other_than_200_is_retryable(embedding_server, tmp_path, status):
    """A 2xx other than 200 is an error too, and a redirect is not followed:
    the one request sent is the POST to ``base_url``."""
    config = make_config(embedding_server, model=f"status-{status}")
    with pytest.raises(RemoteEmbedError) as excinfo:
        embed_remote(config, ["alpha"], VectorCache(tmp_path))
    assert excinfo.value.retryable
    assert f"HTTP {status} from {embedding_server.base_url}/embeddings" in str(excinfo.value)
    assert len(embedding_server.requests) == 1


def test_timeout_is_retryable(embedding_server, tmp_path):
    config = make_config(embedding_server, model="slow", timeout_ms=200)
    assert config.timeout_ms / 1000 < SLOW_S
    with pytest.raises(RemoteEmbedError) as excinfo:
        RemoteEmbedder(config, VectorCache(tmp_path)).fetch(["alpha"])
    assert excinfo.value.retryable
    assert "testprov" in str(excinfo.value)
    assert "timed out" in str(excinfo.value)


@pytest.mark.parametrize("jobs", [1, 4])
def test_failing_fetch_stops_sending(embedding_server, tmp_path, jobs):
    config = make_config(embedding_server, model="boom", max_batch=1)
    embedder = RemoteEmbedder(config, VectorCache(tmp_path), jobs=jobs)
    with pytest.raises(RemoteEmbedError):
        embedder.fetch([f"text {i}" for i in range(200)])
    assert 1 <= len(embedding_server.requests) <= 2 * jobs + 2


def test_parallel_and_serial_fetches_are_byte_identical(embedding_server, tmp_path):
    config = make_config(embedding_server, max_batch=3)
    texts = [f"item {i}" for i in range(23)]
    serial = RemoteEmbedder(config, VectorCache(tmp_path), jobs=1).fetch(texts)
    parallel = RemoteEmbedder(config, VectorCache(tmp_path), jobs=4).fetch(texts)
    assert serial.shape == (23, 8) and serial.dtype == np.float32
    assert parallel.tobytes() == serial.tobytes()
    assert serial.tolist() == [server_vector(text, 8) for text in texts]


def test_connection_failure_is_retryable(tmp_path):
    config = ProviderConfig(
        provider_id="nowhere",
        model_id="ok-8",
        base_url="http://127.0.0.1:1",  # nothing listens here
        api_key_env="RISKRANK_TEST_API_KEY",
        dim=8,
        timeout_ms=500,
    )
    with pytest.raises(RemoteEmbedError) as excinfo:
        embed_remote(config, ["alpha"], VectorCache(tmp_path))
    assert excinfo.value.retryable


def test_missing_api_key(embedding_server, tmp_path, monkeypatch):
    monkeypatch.delenv("RISKRANK_TEST_API_KEY")
    config = make_config(embedding_server)
    with pytest.raises(ValueError) as excinfo:
        embed_remote(config, ["alpha"], VectorCache(tmp_path))
    assert "RISKRANK_TEST_API_KEY" in str(excinfo.value)


def test_empty_texts_give_an_empty_matrix_and_no_request(embedding_server, tmp_path, monkeypatch):
    monkeypatch.delenv("RISKRANK_TEST_API_KEY")
    embedder = RemoteEmbedder(make_config(embedding_server), VectorCache(tmp_path))
    for matrix in (embedder.fetch([]), embedder.embed([])):
        assert matrix.shape == (0, 8) and matrix.dtype == np.float32
    assert embedding_server.requests == []


def test_config_validation():
    with pytest.raises(ValueError):
        ProviderConfig("p", "m", "http://x", "KEY", dim=0)
    with pytest.raises(ValueError):
        ProviderConfig("p", "m", "http://x", "KEY", dim=8, max_batch=0)


@pytest.mark.parametrize("field", ["provider_id", "model_id", "base_url", "api_key_env"])
@pytest.mark.parametrize("value", [5, "", None, b"p"], ids=repr)
def test_config_names_are_nonempty_strings(field, value):
    names = {"provider_id": "p", "model_id": "m", "base_url": "http://x", "api_key_env": "KEY"}
    message = f"{field} must be a nonempty string, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ProviderConfig(**{**names, field: value}, dim=8)


def test_embedder_wrapper(embedding_server, tmp_path):
    embedder = RemoteEmbedder(make_config(embedding_server), VectorCache(tmp_path))
    assert (embedder.dim, embedder.provider_id, embedder.model_id) == (8, "testprov", "ok-8")
    matrix = embedder.embed(["alpha", "beta"])
    assert matrix.shape == (2, 8)
    assert np.array_equal(matrix[0], unit_vector("alpha"))
    assert np.array_equal(matrix[1], unit_vector("beta"))


@pytest.mark.parametrize("n_pairs,max_batch", [(10, 4), (9, 3)])
def test_train_adapter_batches_requests(embedding_server, tmp_path, n_pairs, max_batch):
    pairs = [QAPair(f"p{i}", f"question {i}", f"context {i}") for i in range(n_pairs)]
    embedder = RemoteEmbedder(
        make_config(embedding_server, max_batch=max_batch), VectorCache(tmp_path)
    )
    config = TrainingConfig(batch_size=3, epochs=2, learning_rate=0.05, scale=4.0, seed=1)
    cold, _ = train_adapter(pairs, embedder, config)
    assert len(embedding_server.requests) == 2 * math.ceil(n_pairs / max_batch)
    embedding_server.reset()
    warm, _ = train_adapter(pairs, embedder, config)
    assert embedding_server.requests == []
    assert warm.weight.tobytes() == cold.weight.tobytes()
