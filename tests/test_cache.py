"""The file layer (JSON, JSONL, atomic writes), the vector cache's segments and
the RKV1 codec: bit-exact round-trips, corruption, concurrency."""

import hashlib
import os
import re
import shutil
import struct
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from riskrank import cache as cache_module
from riskrank.cache import (
    CACHE_MAGIC,
    CorruptCacheError,
    NONEMPTY_STRING,
    VectorCache,
    cached_embed,
    default_cache_dir,
    json_text,
    read_json,
    read_jsonl,
    read_rkv1,
    text_digest,
    write_file,
    write_jsonl,
    write_rkv1,
)
from riskrank.finetune import AdapterParams, TrainingConfig, load_adapter, save_adapter
from riskrank.index import DenseIndex, load_index, save_index


def put(cache: VectorCache, texts: list[str], matrix):
    """Cache one segment, a row of ``matrix`` per text, under ("prov", "model-1"); returns its .vec path."""
    digests = [text_digest(text) for text in texts]
    return cache.put(digests, "prov", "model-1", np.asarray(matrix, dtype=np.float32))


def get(cache: VectorCache, text: str):
    return cache.get(text_digest(text), "prov", "model-1")


def segment_files(root) -> list[str]:
    return sorted(p.name for p in root.rglob("*") if p.is_file())


def test_put_then_get_is_bitwise(tmp_path):
    cache = VectorCache(tmp_path)
    matrix = np.array([[0.1, -2.5, 3.25, 0.0], [7.0, 1e-30, -0.0, 2.0]], dtype=np.float32)
    put(cache, ["credit exposure", "market risk"], matrix)
    for reader in (cache, VectorCache(tmp_path)):
        for text, row in zip(["credit exposure", "market risk"], matrix):
            loaded = get(reader, text)
            assert loaded is not None
            assert loaded.dtype == np.float32
            assert loaded.tobytes() == row.tobytes()


def test_get_on_empty_cache_returns_none(tmp_path):
    cache = VectorCache(tmp_path)
    assert cache.get(text_digest("anything"), "prov", "model-1") is None


def test_round_trip_many_random_vectors(tmp_path):
    cache = VectorCache(tmp_path)
    rng = np.random.default_rng(31)
    stored = {}
    for s in range(100):
        rows, dim = int(rng.integers(1, 20)), int(rng.integers(1, 24))
        texts = [f"text-{s}-{i}" for i in range(rows)]
        matrix = rng.normal(size=(rows, dim)).astype(np.float32)
        put(cache, texts, matrix)
        stored.update(zip(texts, matrix))
    for reader in (cache, VectorCache(tmp_path)):
        for text, vector in stored.items():
            assert get(reader, text).tobytes() == vector.tobytes()


def test_truncated_file_is_corruption_error(tmp_path):
    cache = VectorCache(tmp_path)
    path = put(cache, ["doc", "other"], [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    raw = path.read_bytes()
    path.write_bytes(raw[:-2])
    with pytest.raises(CorruptCacheError) as excinfo:
        get(cache, "doc")
    assert str(path) in str(excinfo.value)


def test_bad_magic_is_corruption_error(tmp_path):
    cache = VectorCache(tmp_path)
    path = put(cache, ["doc"], [[1.0]])
    payload = path.read_bytes()
    assert payload[:4] == CACHE_MAGIC
    path.write_bytes(b"XXXX" + payload[4:])
    with pytest.raises(CorruptCacheError) as excinfo:
        get(cache, "doc")
    assert str(path) in str(excinfo.value)


# The writers of RKV1 files: each writes ``vector`` and returns the file
# path and a reader that loads the vector back through the public API.
def _cache_writer(tmp_path, vector):
    cache = VectorCache(tmp_path)
    path = put(cache, ["doc"], vector.reshape(1, -1))
    return path, lambda: get(cache, "doc")


def _index_writer(tmp_path, vector):
    save_index(tmp_path / "idx", DenseIndex(("a",), vector.reshape(1, -1)))
    return tmp_path / "idx" / "vectors.bin", lambda: load_index(tmp_path / "idx")[0].matrix[0]


def _adapter_writer(tmp_path, vector):
    save_adapter(tmp_path / "ad", AdapterParams(weight=vector.reshape(1, -1)), TrainingConfig())
    return (
        tmp_path / "ad" / "adapter.bin",
        lambda: load_adapter(tmp_path / "ad")[0].weight[0].astype(np.float32),
    )


@pytest.mark.parametrize(
    "writer", [_cache_writer, _index_writer, _adapter_writer], ids=["cache", "index", "adapter"]
)
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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "writer", [_cache_writer, _index_writer, _adapter_writer], ids=["cache", "index", "adapter"]
)
def test_non_finite_value_on_disk_is_corruption(tmp_path, writer, bad):
    vector = np.array([1.0, -2.5, 0.1, 3.25], dtype=np.float32)
    path, read = writer(tmp_path, vector)
    payload = path.read_bytes()
    path.write_bytes(payload[:12] + struct.pack("<f", bad) + payload[16:])
    with pytest.raises(CorruptCacheError, match="non-finite") as excinfo:
        read()
    assert str(path) in str(excinfo.value)


def test_nonfinite_vector_rejected(tmp_path):
    cache = VectorCache(tmp_path)
    with pytest.raises(ValueError, match="non-finite"):
        put(cache, ["doc", "other"], [[1.0, 2.0], [1.0, np.nan]])
    assert segment_files(tmp_path) == []
    assert get(cache, "doc") is None


@pytest.mark.parametrize(
    "digests, rows",
    [([], 0), (["not-a-digest"], 1), ([text_digest("a").upper()], 1), ([text_digest("a")], 2)],
    ids=["no-digest", "not-hex", "upper-case", "rows-disagree"],
)
def test_put_refuses_malformed_segments(tmp_path, digests, rows):
    with pytest.raises(ValueError, match="put needs"):
        VectorCache(tmp_path).put(digests, "prov", "model-1", np.ones((rows, 2), np.float32))
    assert segment_files(tmp_path) == []


def test_keys_separate_providers_and_models(tmp_path):
    cache = VectorCache(tmp_path)
    digest = text_digest("same text")
    cache.put([digest], "prov-a", "m", np.ones((1, 2), dtype=np.float32))
    assert cache.get(digest, "prov-b", "m") is None
    assert cache.get(digest, "prov-a", "other") is None
    assert cache.get(digest, "prov-a", "m") is not None


def test_pathological_model_ids_are_sanitized(tmp_path):
    cache = VectorCache(tmp_path)
    digest = text_digest("t")
    path = cache.put([digest], "org/provider", "family/model:v2", np.ones((1, 3), np.float32))
    assert path.is_file() and path.with_suffix(".keys").is_file()
    assert path.parent == tmp_path / "org_provider" / "family_model_v2"
    assert cache.get(digest, "org/provider", "family/model:v2") is not None


def test_put_remakes_a_removed_directory(tmp_path):
    cache = VectorCache(tmp_path / "cache")
    first = put(cache, ["one"], [[1.0, 2.0]])
    shutil.rmtree(tmp_path / "cache")
    second = put(cache, ["two"], [[3.0, 4.0]])
    assert second.parent == first.parent and second.is_file()
    assert get(cache, "two").tolist() == [3.0, 4.0]
    assert get(cache, "one") is None


def test_concurrent_same_key_writes_are_idempotent(tmp_path):
    cache = VectorCache(tmp_path)
    matrix = np.arange(48, dtype=np.float32).reshape(3, 16)
    texts = ["hot key", "warm key", "cold key"]
    with ThreadPoolExecutor(max_workers=8) as pool:
        list(pool.map(lambda _: put(cache, texts, matrix), range(64)))
    for text, row in zip(texts, matrix):
        assert get(VectorCache(tmp_path), text).tobytes() == row.tobytes()
    keys = "".join(f"{text_digest(text)}\n" for text in texts).encode()
    segment = hashlib.sha256(keys).hexdigest()
    assert segment_files(tmp_path) == [f"{segment}.keys", f"{segment}.vec"]
    assert (tmp_path / "prov" / "model-1" / f"{segment}.keys").read_bytes() == keys


class Key:
    provider_id, model_id, dim = "prov", "model-1", 4


def fetch_rows(texts: list[str]) -> np.ndarray:
    """A stand-in provider: a distinct float32 row per text, the same on every call."""
    return np.array([[len(t), sum(map(ord, t)), i % 7, -1.5] for i, t in enumerate(texts)],
                    dtype=np.float32)


def no_fetch(texts):
    raise AssertionError(f"unexpected fetch of {len(texts)} texts")


def test_a_fetch_writes_one_segment_and_a_warm_call_reads_it_once(tmp_path, monkeypatch):
    texts = [f"passage {i}" for i in range(1000)]
    listings = []
    listdir = os.listdir
    monkeypatch.setattr(os, "listdir", lambda path: listings.append(path) or listdir(path))
    cold, hits = cached_embed(VectorCache(tmp_path), Key, texts, fetch_rows)
    assert hits == 0 and len(listings) == 1  # one listing for 1 000 misses
    files = segment_files(tmp_path)
    segment = files[0].removesuffix(".keys")
    assert files == [f"{segment}.keys", f"{segment}.vec"]
    loads = []
    monkeypatch.setattr(cache_module, "read_rkv1", lambda *a: loads.append(a) or read_rkv1(*a))
    warm, hits = cached_embed(VectorCache(tmp_path), Key, texts[::-1], no_fetch)
    assert hits == 1000 and len(loads) == 1
    assert warm.tobytes() == cold[::-1].tobytes()
    assert segment_files(tmp_path) == files


def test_a_segment_written_by_another_cache_object_is_a_hit(tmp_path):
    reader, writer = VectorCache(tmp_path), VectorCache(tmp_path)
    assert get(reader, "late") is None
    put(writer, ["late"], [[2.0, 3.0]])
    assert get(reader, "late").tolist() == [2.0, 3.0]


def test_vec_without_keys_and_per_text_files_are_misses(tmp_path):
    put(VectorCache(tmp_path), ["cut short"], fetch_rows(["cut short"]))
    next(tmp_path.rglob("*.keys")).unlink()
    write_rkv1(tmp_path / "prov" / "model-1" / f"{text_digest('old layout')}.vec", np.ones(4))
    fetched = []
    texts = ["cut short", "old layout"]
    matrix, hits = cached_embed(
        VectorCache(tmp_path), Key, texts, lambda misses: fetched.append(misses) or fetch_rows(misses)
    )
    assert hits == 0 and fetched == [texts]
    assert matrix.tobytes() == fetch_rows(texts).tobytes()
    assert cached_embed(VectorCache(tmp_path), Key, texts, no_fetch)[1] == 2


def _not_hex(keys: bytes) -> bytes:
    return keys[:10] + b"g" + keys[11:]


def _short_line(keys: bytes) -> bytes:
    return keys[:63] + keys[64:]


def _other_digest(keys: bytes) -> bytes:
    return text_digest("another text").encode() + keys[64:]


@pytest.mark.parametrize(
    "damage, problem",
    [
        (_not_hex, "not one 64-hex digest per line"),
        (_short_line, "not one 64-hex digest per line"),
        (lambda keys: keys[:-1], "not one 64-hex digest per line"),
        (lambda keys: b"", "not one 64-hex digest per line"),
        (_other_digest, "does not hash to its name"),
    ],
    ids=["not-hex", "short-line", "no-final-newline", "empty", "edited-digest"],
)
def test_damaged_keys_file_is_corruption(tmp_path, damage, problem):
    path = put(VectorCache(tmp_path), ["a", "b"], fetch_rows(["a", "b"])).with_suffix(".keys")
    path.write_bytes(damage(path.read_bytes()))
    with pytest.raises(CorruptCacheError, match=problem) as excinfo:
        get(VectorCache(tmp_path), "a")
    assert str(path) in str(excinfo.value)


def test_keys_that_disagree_with_the_segment_length_are_corruption(tmp_path):
    path = put(VectorCache(tmp_path), ["a", "b", "c"], fetch_rows(["a", "b", "c"]))
    write_rkv1(path, fetch_rows(["a", "b"]))
    with pytest.raises(CorruptCacheError, match="expected .* for 3 x 4") as excinfo:
        get(VectorCache(tmp_path), "b")
    assert str(path) in str(excinfo.value)


def test_segment_holding_nan_is_corruption(tmp_path):
    path = put(VectorCache(tmp_path), ["a", "b"], fetch_rows(["a", "b"]))
    payload = path.read_bytes()
    path.write_bytes(payload[:-4] + struct.pack("<f", np.nan))
    with pytest.raises(CorruptCacheError, match="non-finite") as excinfo:
        cached_embed(VectorCache(tmp_path), Key, ["a"], no_fetch)
    assert str(path) in str(excinfo.value)


@pytest.mark.parametrize(
    "target, data, error",
    [
        ("pairs.jsonl", '{"question": "\ud800"}\n', ValueError),
    ],
    ids=["lone-surrogate"],
)
def test_failed_write_names_the_target_and_leaves_no_temp_file(tmp_path, target, data, error):
    path = tmp_path / target
    with pytest.raises(error, match=re.escape(str(path))):
        write_file(path, data)
    assert list(tmp_path.rglob("*")) == []


def test_write_file_makes_missing_directories(tmp_path, monkeypatch):
    """A missing directory of the target is made, nested ones too; a str
    that cannot be written as UTF-8 makes none."""
    write_file(tmp_path / "new" / "sub" / "out.jsonl", "{}\n")
    assert (tmp_path / "new" / "sub" / "out.jsonl").read_text() == "{}\n"
    monkeypatch.chdir(tmp_path)
    write_file("bare.json", b"{}\n")  # no directory part: the working directory
    with pytest.raises(ValueError, match="cannot write as UTF-8"):
        write_file(tmp_path / "other" / "sub" / "out.jsonl", "\ud800")
    assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")) == [
        "bare.json", "new", "new/sub", "new/sub/out.jsonl",
    ]


def test_write_failing_after_the_open_removes_the_temp_file(tmp_path, monkeypatch):
    def refuse(src, dst):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="No space left"):
        write_file(tmp_path / "out.json", "{}\n")
    assert list(tmp_path.iterdir()) == []


def test_default_cache_dir_honors_env(monkeypatch, tmp_path):
    monkeypatch.setenv("RISKRANK_CACHE_DIR", str(tmp_path / "custom"))
    assert default_cache_dir() == tmp_path / "custom"


def test_jsonl_is_utf8_one_object_per_line(tmp_path):
    path = tmp_path / "records.jsonl"
    records = [{"text": "über", "n": 1}, {"text": "日本", "n": 2}]
    assert write_jsonl(path, records) == 2
    assert path.read_bytes() == (
        '{"text": "über", "n": 1}\n{"text": "日本", "n": 2}\n'.encode("utf-8")
    )
    path.write_text(path.read_text(encoding="utf-8") + "\n", encoding="utf-8")
    assert list(read_jsonl(path, {"text": NONEMPTY_STRING})) == [(1, records[0]), (2, records[1])]


@pytest.mark.parametrize(
    "raw, problem",
    [
        (b'{"text": "ok"}\n{"text": ""}\n', "line 2: field 'text' must be a nonempty string"),
        (b'{"text": "ok"}\n\n{"other": 1}\n', "line 3: missing field 'text'"),
        (b'{"text": "ok"}\n[1]\n', "line 2: record must be an object"),
        (b'{"text": "ok"}\n{"text"\n', "line 2: invalid JSON"),
        (b'{"text": "ok"}\n{"text": "\xff"}\n', "line 2: invalid UTF-8"),
    ],
    ids=["empty-string", "missing-field", "not-an-object", "invalid-json", "invalid-utf8"],
)
def test_read_jsonl_names_file_line_and_field(tmp_path, raw, problem):
    path = tmp_path / "records.jsonl"
    path.write_bytes(raw)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {re.escape(problem)}"):
        list(read_jsonl(path, {"text": NONEMPTY_STRING}))


@pytest.mark.parametrize(
    "raw, problem",
    [
        (b'{"a": ', "invalid JSON"),
        (b'{"a": "\xff"}', "invalid JSON"),
        (b"[]", "expected a JSON object"),
    ],
    ids=["invalid-json", "invalid-utf8", "not-an-object"],
)
def test_read_json_names_the_file(tmp_path, raw, problem):
    path = tmp_path / "meta.json"
    path.write_bytes(raw)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {problem}"):
        read_json(path, {})


def test_json_text_layout():
    assert json_text({"b": [1, 2], "a": "é"}) == (
        '{\n  "a": "\\u00e9",\n  "b": [\n    1,\n    2\n  ]\n}\n'
    )
