"""Remote embedding client against a live local HTTP server."""

import math

import numpy as np
import pytest

from riskrank.cache import CorruptCacheError, VectorCache, cached_embed, text_digest
from riskrank.corpus import QAPair
from riskrank.embedding import l2_normalize
from riskrank.finetune import TrainingConfig, train_adapter
from riskrank.remote import ProviderConfig, RemoteEmbedder, RemoteEmbedError

from conftest import server_vector


def make_config(server, model="ok-8", dim=8, max_batch=10) -> ProviderConfig:
    return ProviderConfig(
        provider_id="testprov",
        model_id=model,
        base_url=server.base_url,
        api_key_env="RISKRANK_TEST_API_KEY",
        dim=dim,
        max_batch=max_batch,
        timeout_ms=5000,
    )


def embed_remote(config, texts, cache, jobs=1) -> np.ndarray:
    return RemoteEmbedder(config, cache, jobs=jobs).embed(texts)


def unit_vector(text: str, dim: int = 8) -> np.ndarray:
    """What ``RemoteEmbedder.embed`` returns for ``text``: the server vector, normalized."""
    return l2_normalize(np.asarray(server_vector(text, dim), dtype=np.float32))


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
    path = cache.put(text_digest("alpha"), "testprov", "ok-8", np.ones(4, dtype=np.float32))
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
    assert np.array_equal(matrix[0], l2_normalize(raw))
    assert np.array_equal(cache.get(text_digest("alpha"), "testprov", "ok-8"), raw)
    assert np.array_equal(embedder.fetch(["alpha"])[0], raw)


def test_repeated_texts_are_fetched_and_stored_once(embedding_server, tmp_path):
    config = make_config(embedding_server, max_batch=50)
    cache = VectorCache(tmp_path)
    texts = ["ctx a", "ctx a", "ctx b", "ctx a"]
    matrix = embed_remote(config, texts, cache)
    assert [r["inputs"] for r in embedding_server.requests] == [["ctx a", "ctx b"]]
    assert len(list(tmp_path.rglob("*.vec"))) == 2
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


def test_partial_response_is_hard_error(embedding_server, tmp_path):
    config = make_config(embedding_server, model="partial")
    with pytest.raises(RemoteEmbedError) as excinfo:
        embed_remote(config, ["alpha", "beta"], VectorCache(tmp_path))
    assert not excinfo.value.retryable


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


def test_empty_texts_rejected(embedding_server, tmp_path):
    config = make_config(embedding_server)
    with pytest.raises(ValueError):
        embed_remote(config, [], VectorCache(tmp_path))


def test_config_validation():
    with pytest.raises(ValueError):
        ProviderConfig("p", "m", "http://x", "KEY", dim=0)
    with pytest.raises(ValueError):
        ProviderConfig("p", "m", "http://x", "KEY", dim=8, max_batch=0)


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
