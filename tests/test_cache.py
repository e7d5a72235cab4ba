"""Vector cache and the RKV1 codec: bit-exact round-trips, corruption, concurrency."""

import shutil
import struct
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from riskrank.cache import (
    CACHE_MAGIC,
    CorruptCacheError,
    VectorCache,
    default_cache_dir,
    text_digest,
)
from riskrank.index import DenseIndex, load_index, save_index


def put(cache: VectorCache, text: str, vector):
    """Cache ``vector`` for ``text`` under ("prov", "model-1"); returns the file path."""
    return cache.put(text_digest(text), "prov", "model-1", np.asarray(vector, dtype=np.float32))


def test_put_then_get_is_bitwise(tmp_path):
    cache = VectorCache(tmp_path)
    vector = np.array([0.1, -2.5, 3.25, 0.0], dtype=np.float32)
    put(cache, "credit exposure", vector)
    loaded = cache.get(text_digest("credit exposure"), "prov", "model-1")
    assert loaded is not None
    assert loaded.dtype == np.float32
    assert loaded.tobytes() == vector.tobytes()


def test_get_on_empty_cache_returns_none(tmp_path):
    cache = VectorCache(tmp_path)
    assert cache.get(text_digest("anything"), "prov", "model-1") is None


def test_round_trip_many_random_vectors(tmp_path):
    cache = VectorCache(tmp_path)
    rng = np.random.default_rng(31)
    for i in range(1000):
        vec = rng.normal(size=int(rng.integers(1, 24))).astype(np.float32)
        put(cache, f"text-{i}", vec)
        loaded = cache.get(text_digest(f"text-{i}"), "prov", "model-1")
        assert loaded.tobytes() == vec.tobytes()


def test_truncated_file_is_corruption_error(tmp_path):
    cache = VectorCache(tmp_path)
    path = put(cache, "doc", [1.0, 2.0, 3.0])
    raw = path.read_bytes()
    path.write_bytes(raw[:-2])
    with pytest.raises(CorruptCacheError) as excinfo:
        cache.get(text_digest("doc"), "prov", "model-1")
    assert str(path) in str(excinfo.value)


def test_bad_magic_is_corruption_error(tmp_path):
    cache = VectorCache(tmp_path)
    path = put(cache, "doc", [1.0])
    payload = path.read_bytes()
    assert payload[:4] == CACHE_MAGIC
    path.write_bytes(b"XXXX" + payload[4:])
    with pytest.raises(CorruptCacheError):
        cache.get(text_digest("doc"), "prov", "model-1")


# The two writers of RKV1 files: each writes ``vector`` and returns the file
# path and a reader that loads the vector back through the public API.
def _cache_writer(tmp_path, vector):
    cache = VectorCache(tmp_path)
    path = cache.put(text_digest("doc"), "prov", "model-1", vector)
    return path, lambda: cache.get(text_digest("doc"), "prov", "model-1")


def _index_writer(tmp_path, vector):
    save_index(tmp_path / "idx", DenseIndex(("a",), vector.reshape(1, -1), vector.shape[0]))
    return tmp_path / "idx" / "vectors.bin", lambda: load_index(tmp_path / "idx")[0].matrix[0]


@pytest.mark.parametrize("writer", [_cache_writer, _index_writer], ids=["cache", "index"])
def test_rkv1_format(tmp_path, writer):
    vector = np.array([1.0, -2.5, 0.1, 3.25], dtype=np.float32)
    path, read = writer(tmp_path, vector)
    payload = path.read_bytes()
    assert payload == b"RKV1" + struct.pack("<I", 4) + struct.pack("<4f", *vector.tolist())
    assert read().tobytes() == vector.tobytes()
    damaged = {
        "truncated": payload[:-1],
        "trailing byte": payload + b"\0",
        "bad magic": b"RKV2" + payload[4:],
    }
    for what, raw in damaged.items():
        path.write_bytes(raw)
        with pytest.raises(CorruptCacheError) as excinfo:
            read()
        assert isinstance(excinfo.value, ValueError), what
        assert str(path) in str(excinfo.value), what


def test_nonfinite_vector_rejected(tmp_path):
    cache = VectorCache(tmp_path)
    with pytest.raises(ValueError):
        put(cache, "doc", [1.0, np.nan])
    assert not list(tmp_path.rglob("*.vec"))


def test_keys_separate_providers_and_models(tmp_path):
    cache = VectorCache(tmp_path)
    digest = text_digest("same text")
    cache.put(digest, "prov-a", "m", np.ones(2, dtype=np.float32))
    assert cache.get(digest, "prov-b", "m") is None
    assert cache.get(digest, "prov-a", "other") is None
    assert cache.get(digest, "prov-a", "m") is not None


def test_pathological_model_ids_are_sanitized(tmp_path):
    cache = VectorCache(tmp_path)
    digest = text_digest("t")
    path = cache.put(digest, "org/provider", "family/model:v2", np.ones(3, dtype=np.float32))
    assert path.is_file()
    assert path.parent == tmp_path / "org_provider" / "family_model_v2"
    assert cache.get(digest, "org/provider", "family/model:v2") is not None


def test_put_remakes_a_removed_directory(tmp_path):
    cache = VectorCache(tmp_path / "cache")
    first = put(cache, "one", [1.0, 2.0])
    shutil.rmtree(tmp_path / "cache")
    second = put(cache, "two", [3.0, 4.0])
    assert second.parent == first.parent and second.is_file()
    assert cache.get(text_digest("two"), "prov", "model-1").tolist() == [3.0, 4.0]


def test_concurrent_same_key_writes_are_idempotent(tmp_path):
    cache = VectorCache(tmp_path)
    vec = np.arange(16, dtype=np.float32)
    with ThreadPoolExecutor(max_workers=8) as pool:
        list(pool.map(lambda _: put(cache, "hot key", vec), range(64)))
    loaded = cache.get(text_digest("hot key"), "prov", "model-1")
    assert loaded.tobytes() == vec.tobytes()
    assert [p.name for p in tmp_path.rglob("*") if p.is_file()] == [
        f"{text_digest('hot key')}.vec"
    ]


def test_default_cache_dir_honors_env(monkeypatch, tmp_path):
    monkeypatch.setenv("RISKRANK_CACHE_DIR", str(tmp_path / "custom"))
    assert default_cache_dir() == tmp_path / "custom"
