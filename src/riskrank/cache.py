"""riskrank's file layouts (JSON, JSONL, RKV1) and the disk cache for vectors.

Every file riskrank writes goes through ``write_file``: it makes a missing
directory and renames a temp file over the target, so readers never see a
partial file and a failed write leaves the old one and no temp file. JSON
is ``json_text``; JSONL is one compact UTF-8 object per line. ``read_json``
and ``read_jsonl`` check each object against a field table, naming the
file, the line (JSONL) and the field on error; ``check_values`` checks a
typed config's fields against one.

RKV1 is the one vector file layout in riskrank: magic bytes ``RKV1``, then
the dimension as unsigned 32-bit little-endian, then row-major IEEE-754
float32 little-endian values. A cache segment holds one row per text; an
index's ``vectors.bin`` holds one row per item; an adapter's ``adapter.bin``
holds its weight, one row per output dimension. ``read_rkv1`` checks the
magic, the length and that every value is finite (``write_rkv1`` refuses NaN
and Inf, so one on disk means damage), and names the file when a check fails.

The vector cache keeps one segment per fetch in
``<root>/<provider>/<model>/``: ``<segment>.vec``, one RKV1 file of n rows,
and ``<segment>.keys``, the n text digests (SHA-256 of the UTF-8 text, 64
lowercase hex digits and a newline each) in row order. ``<segment>`` is the
SHA-256 of the ``.keys`` bytes, so writers of the same misses write the same
files. ``.vec`` is written first, so a segment exists once its ``.keys``
does, and a ``.vec`` alone (a write cut short) is never read. ``cached_embed``
is the one cache-first loop: look each distinct text up, fetch all misses
with one call, store what was fetched as one segment.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import re
import struct
import uuid
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

__all__ = [
    "CACHE_MAGIC",
    "BOOLEAN",
    "CorruptCacheError",
    "INTEGER",
    "NONEMPTY_STRING",
    "POSITIVE_INTEGER",
    "VectorCache",
    "cached_embed",
    "check_fields",
    "check_values",
    "json_digest",
    "json_text",
    "read_json",
    "read_jsonl",
    "read_rkv1",
    "write_file",
    "write_jsonl",
    "write_rkv1",
    "text_digest",
    "default_cache_dir",
]

CACHE_MAGIC = b"RKV1"
CACHE_DIR_ENV = "RISKRANK_CACHE_DIR"

_SAFE_COMPONENT = re.compile(r"[^A-Za-z0-9._-]")
# A segment's keys: one or more SHA-256 hex digests, a newline after each.
_KEYS = re.compile(rb"(?:[0-9a-f]{64}\n)+")


class CorruptCacheError(ValueError):
    """An RKV1 file (bad magic, dim, length, or a non-finite value) or a
    cache segment's ``.keys`` file failed validation."""


def text_digest(text: str) -> str:
    """Hex SHA-256 of the UTF-8 bytes of ``text``."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def default_cache_dir() -> Path:
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "riskrank"


def write_file(path: Path | str, data: bytes | str) -> None:
    """Atomically replace ``path`` with ``data`` (a str is written as UTF-8).

    The file's directory is made when missing. A str that is not valid Unicode
    raises ValueError naming ``path`` and makes nothing; a failed write leaves no temp file.
    """
    if isinstance(data, str):
        try:
            data = data.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise ValueError(f"{path}: cannot write as UTF-8: {exc}") from None
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = f"{path}.tmp-{uuid.uuid4().hex}"
    try:
        with open(tmp, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def json_text(obj: Any) -> str:
    """The JSON file layout: two-space indent, sorted keys, ASCII, a final newline."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def json_digest(obj: Any) -> str:
    """The first 16 hex digits of the SHA-256 of ``obj`` as key-sorted compact JSON."""
    canonical = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def write_jsonl(path: Path | str, records: Iterable[dict]) -> int:
    """Write one JSON object per line, all encoded before the write; returns the count."""
    lines = [json.dumps(record, ensure_ascii=False) + "\n" for record in records]
    write_file(path, "".join(lines))
    return len(lines)


# A field table maps a field name to (check, what the check asks for); the
# check sees the field's value, or None when the object lacks the field.
Fields = Mapping[str, tuple[Callable[[Any], bool], str]]

NONEMPTY_STRING = (lambda v: type(v) is str and v != "", "a nonempty string")
INTEGER = (lambda v: type(v) is int, "an integer")
POSITIVE_INTEGER = (lambda v: type(v) is int and v >= 1, "an integer >= 1")
BOOLEAN = (lambda v: type(v) is bool, "true or false")


def is_finite_number(v: Any) -> bool:
    """True for an int or float, not a bool, that converts to a finite float."""
    try:
        return type(v) in (int, float) and math.isfinite(v)
    except OverflowError:  # an int too large for a float
        return False


def check_values(obj: Any, fields: Fields) -> None:
    """ValueError ``"<name> must be <want>, got <value>"`` for the first failing
    attribute of ``obj``, or entry when ``obj`` is a dict."""
    for name, (ok, want) in fields.items():
        value = obj[name] if type(obj) is dict else getattr(obj, name)
        if not ok(value):
            raise ValueError(f"{name} must be {want}, got {value!r}")


def check_fields(
    record: dict, fields: Fields, path: Path | str, line_no: int | None = None
) -> dict:
    """``record`` if every field passes its check, else ValueError naming the field."""
    for name, (ok, want) in fields.items():
        value = record.get(name)
        if not ok(value):
            where = path if line_no is None else f"{path}: line {line_no}"
            if name not in record:
                raise ValueError(f"{where}: missing field {name!r}")
            raise ValueError(f"{where}: field {name!r} must be {want}, got {value!r}")
    return record


def read_json(path: Path | str, fields: Fields) -> dict:
    """A JSON object file, checked against ``fields``; errors name the file."""
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # invalid JSON or invalid UTF-8
        raise ValueError(f"{path}: invalid JSON: {exc}") from exc
    if type(obj) is not dict:
        raise ValueError(f"{path}: expected a JSON object")
    return check_fields(obj, fields, path)


def read_jsonl(path: Path | str, fields: Fields) -> Iterator[tuple[int, dict]]:
    """``(line_no, record)`` for each nonblank line, checked against ``fields``."""
    with open(path, "rb") as handle:
        for line_no, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line.decode("utf-8"))
            except ValueError as exc:  # invalid UTF-8 or invalid JSON
                what = "UTF-8" if isinstance(exc, UnicodeDecodeError) else "JSON"
                raise ValueError(f"{path}: line {line_no}: invalid {what}: {exc}") from exc
            if type(record) is not dict:
                raise ValueError(f"{path}: line {line_no}: record must be an object")
            yield line_no, check_fields(record, fields, path, line_no)


def write_rkv1(path: Path | str, vectors: np.ndarray) -> None:
    """Atomically write a vector or an ``(n, dim)`` matrix as one RKV1 file."""
    values = np.asarray(vectors, dtype="<f4")
    if not np.all(np.isfinite(values)):
        raise ValueError(f"refusing to write non-finite vector components to {path}")
    write_file(path, CACHE_MAGIC + struct.pack("<I", values.shape[-1]) + values.tobytes())


def read_rkv1(path: Path | str, rows: int = 1, dim: int | None = None) -> np.ndarray:
    """Read an RKV1 file of ``rows`` vectors as a ``(rows, dim)`` float32 matrix.

    A missing file raises FileNotFoundError; a damaged one, or (with ``dim``)
    one of another dimension, raises CorruptCacheError naming the file.
    """
    with open(path, "rb") as handle:
        raw = handle.read()
    if len(raw) < 8 or raw[:4] != CACHE_MAGIC:
        raise CorruptCacheError(f"bad magic in RKV1 file {path}")
    (found,) = struct.unpack("<I", raw[4:8])
    if dim is not None and found != dim:
        raise CorruptCacheError(f"RKV1 file {path} holds dim {found}, expected dim {dim}")
    expected = 8 + 4 * rows * found
    if len(raw) != expected:
        raise CorruptCacheError(
            f"RKV1 file {path} has {len(raw)} bytes, expected {expected} "
            f"for {rows} x {found}"
        )
    values = np.frombuffer(raw, dtype="<f4", offset=8).reshape(rows, found)
    if not np.isfinite(values).all():
        raise CorruptCacheError(f"RKV1 file {path} holds non-finite values")
    return values.copy()


class VectorCache:
    """Filesystem-backed vector store with bit-exact round-trips.

    ``get`` finds a digest's segment and row through an index of the
    ``.keys`` files read so far; the index lives as long as the cache object,
    the vectors only as long as one ``cached_embed`` lookup.
    """

    def __init__(self, root: Path | str | None = None):
        self.root = Path(root) if root is not None else default_cache_dir()
        self._dirs: dict[tuple[str, str], str] = {}
        # (directory, digest) -> (segment path less its suffix, row, rows)
        self._rows: dict[tuple[str, str], tuple[str, int, int]] = {}
        # the segments whose keys are in ``_rows``
        self._indexed: set[str] = set()
        # While ``cached_embed`` looks texts up: each segment loaded, with its
        # matrix, and each directory listed (a directory of an older cache
        # can hold thousands of per-text files, so each is listed once).
        self._held: dict[str, np.ndarray] | None = None
        self._listed: set[str] | None = None

    def _directory(self, provider_id: str, model_id: str) -> str:
        """The (provider, model) directory; each is built once per cache object."""
        directory = self._dirs.get((provider_id, model_id))
        if directory is None:
            directory = os.path.join(
                self.root,
                _SAFE_COMPONENT.sub("_", provider_id),
                _SAFE_COMPONENT.sub("_", model_id),
            )
            self._dirs[provider_id, model_id] = directory
        return directory

    def _index(self, directory: str, segment: str, digests: Sequence[str]) -> None:
        for row, digest in enumerate(digests):
            self._rows[directory, digest] = (segment, row, len(digests))
        self._indexed.add(segment)

    def _scan(self, directory: str) -> None:
        """Index each ``.keys`` file in ``directory`` not indexed yet."""
        if self._listed is not None:
            self._listed.add(directory)
        try:
            names = os.listdir(directory)
        except FileNotFoundError:
            return
        for name in names:
            if not name.endswith(".keys"):
                continue
            segment = os.path.join(directory, name[: -len(".keys")])
            if segment not in self._indexed:
                try:
                    digests = _read_keys(segment)
                except FileNotFoundError:  # removed since the listing
                    continue
                self._index(directory, segment, digests)

    def put(
        self, digests: Sequence[str], provider_id: str, model_id: str, matrix: np.ndarray
    ) -> Path:
        """Write ``matrix``, one row per digest, as one segment; returns its ``.vec`` path."""
        keys = "".join(f"{digest}\n" for digest in digests).encode("utf-8")
        if not _KEYS.fullmatch(keys):
            raise ValueError("put needs one or more 64-hex text digests")
        values = np.asarray(matrix, dtype=np.float32)
        if values.ndim != 2 or len(values) != len(digests):
            raise ValueError(
                f"put needs one row per digest: {len(digests)} digests, "
                f"matrix of shape {values.shape}"
            )
        directory = self._directory(provider_id, model_id)
        segment = os.path.join(directory, hashlib.sha256(keys).hexdigest())
        write_rkv1(segment + ".vec", values)
        write_file(segment + ".keys", keys)
        self._index(directory, segment, digests)
        return Path(segment + ".vec")

    def get(
        self, digest: str, provider_id: str, model_id: str, dim: int | None = None
    ) -> np.ndarray | None:
        """The cached float32 vector, or None if absent.

        A digest not in the index lists the directory again (once per
        ``cached_embed`` lookup), so a segment another process wrote is found.
        ``read_rkv1`` checks each segment it loads against the row count of
        its keys and against ``dim``.
        """
        directory = self._directory(provider_id, model_id)
        found = self._rows.get((directory, digest))
        if found is None:
            if self._listed is None or directory not in self._listed:
                self._scan(directory)
            found = self._rows.get((directory, digest))
            if found is None:
                return None
        segment, row, rows = found
        held = self._held
        matrix = None if held is None else held.get(segment)
        if matrix is None:
            try:
                matrix = read_rkv1(segment + ".vec", rows, dim)
            except FileNotFoundError:  # the segment was removed after it was indexed
                return None
            if held is not None:
                held[segment] = matrix
        return matrix[row].copy()

    @contextlib.contextmanager
    def _holding(self) -> Iterator[None]:
        """Within the block, ``get`` reads each segment and lists each directory once."""
        self._held, self._listed = {}, set()
        try:
            yield
        finally:
            self._held = self._listed = None


def _read_keys(segment: str) -> list[str]:
    """The digests of a segment's ``.keys`` file; CorruptCacheError names a damaged one."""
    path = segment + ".keys"
    with open(path, "rb") as handle:
        raw = handle.read()
    if not _KEYS.fullmatch(raw):
        raise CorruptCacheError(f"keys file {path} is not one 64-hex digest per line")
    if hashlib.sha256(raw).hexdigest() != os.path.basename(segment):
        raise CorruptCacheError(f"keys file {path} does not hash to its name")
    return raw.decode("ascii").split()


def cached_embed(
    cache: VectorCache,
    key: Any,
    texts: list[str],
    fetch: Callable[[list[str]], np.ndarray],
) -> tuple[np.ndarray, int]:
    """Cache-first embedding: returns the ``(n, dim)`` float32 matrix and the hit count.

    ``key`` is any object with ``provider_id``, ``model_id`` and ``dim``, such
    as an embedder or a ProviderConfig. Each distinct text is looked up under
    it once; ``fetch`` is called once, with each distinct miss in order of
    first occurrence, and must return a matrix of one row per text it is given.
    The fetched vectors are stored as they are, as one segment, so the cache
    holds what ``fetch`` makes. Rows keep input order; the hit count is the
    number of rows served from the cache. A cached vector of another
    dimension raises CorruptCacheError.
    """
    rows: dict[str, list[int]] = {}
    for i, text in enumerate(texts):
        rows.setdefault(text_digest(text), []).append(i)
    out = np.zeros((len(texts), key.dim), dtype=np.float32)
    misses: list[str] = []
    hits = 0
    with cache._holding():
        for digest, positions in rows.items():
            vector = cache.get(digest, key.provider_id, key.model_id, key.dim)
            if vector is None:
                misses.append(digest)
            else:
                out[positions] = vector
                hits += len(positions)
    if misses:
        fetched = np.asarray(fetch([texts[rows[digest][0]] for digest in misses]), np.float32)
        if fetched.shape != (len(misses), key.dim):
            raise ValueError(
                f"fetch returned shape {fetched.shape} for {len(misses)} texts of dim {key.dim}"
            )
        cache.put(misses, key.provider_id, key.model_id, fetched)
        for digest, vector in zip(misses, fetched):
            out[rows[digest]] = vector
    return out, hits
