import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest


# How long the ``slow`` model waits before it hangs up: past a 200 ms client
# timeout, and short, since a handler thread sleeps it out.
SLOW_S = 0.5


def server_vector(text: str, dim: int) -> list[float]:
    """Deterministic fake embedding both the server and tests can compute."""
    base = sum(text.encode("utf-8")) % 997
    return [float(base + j) for j in range(dim)]


class _EmbeddingHandler(BaseHTTPRequestHandler):
    """Minimal embeddings endpoint; the model id selects the behavior.

    ``ok-<dim>`` answers correctly, ``wrong-dim`` answers with 4-dim vectors,
    ``ragged`` makes the last vector 4-dim among 8-dim ones, ``partial`` drops
    the last entry, ``dup-index`` adds an entry that gives index 0 the last
    text's vector, ``nan`` puts a NaN in the last vector, ``canned``
    answers with the body ``server.canned``, ``boom`` returns HTTP 500,
    ``status-<code>`` returns that status with no body and a ``Location``
    of the same path, and ``slow`` hangs up after ``SLOW_S`` without an
    answer.
    """

    def do_POST(self):  # noqa: N802  (http.server API)
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length))
        with self.server.lock:
            self.server.requests.append(
                {
                    "path": self.path,
                    "auth": self.headers.get("Authorization"),
                    "model": body.get("model"),
                    "inputs": list(body.get("input", [])),
                }
            )
        model = body.get("model", "")
        texts = body.get("input", [])
        if model == "boom":
            self.send_response(500)
            self.end_headers()
            return
        if model.startswith("status-"):
            self.send_response(int(model.split("-")[1]))
            self.send_header("Location", self.path)
            self.end_headers()
            return
        if model == "slow":
            time.sleep(SLOW_S)
            return
        if model == "wrong-dim":
            dim = 4
        elif model.startswith("ok-"):
            dim = int(model.split("-")[1])
        else:
            dim = 8
        data = [
            {"index": i, "embedding": server_vector(text, dim)}
            for i, text in enumerate(texts)
        ]
        if model == "ragged" and data:
            data[-1]["embedding"] = data[-1]["embedding"][:4]
        if model == "partial" and data:
            data = data[:-1]
        if model == "dup-index" and data:
            data.insert(1, {"index": 0, "embedding": data[-1]["embedding"]})
        if model == "nan" and data:
            data[-1]["embedding"][0] = float("nan")
        payload = json.dumps({"data": data}).encode("utf-8")
        if model == "canned":
            payload = self.server.canned
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):  # keep pytest output clean
        pass


class EmbeddingServer:
    def __init__(self):
        self.httpd = ThreadingHTTPServer(("127.0.0.1", 0), _EmbeddingHandler)
        self.httpd.lock = threading.Lock()
        self.httpd.requests = []
        self.httpd.canned = None
        self.thread = threading.Thread(target=self.httpd.serve_forever, daemon=True)
        self.thread.start()

    @property
    def base_url(self) -> str:
        host, port = self.httpd.server_address
        return f"http://{host}:{port}"

    @property
    def requests(self) -> list[dict]:
        with self.httpd.lock:
            return list(self.httpd.requests)

    def reset(self) -> None:
        with self.httpd.lock:
            self.httpd.requests.clear()
        self.httpd.canned = None

    def answer_with(self, body: bytes) -> None:
        """Make the ``canned`` model answer HTTP 200 with ``body``."""
        self.httpd.canned = body

    def close(self) -> None:
        self.httpd.shutdown()
        self.httpd.server_close()


@pytest.fixture(scope="session")
def embedding_server():
    server = EmbeddingServer()
    yield server
    server.close()


@pytest.fixture(autouse=True)
def _isolated_cache_env(monkeypatch, tmp_path):
    """Keep every test's default cache away from the real home directory."""
    monkeypatch.setenv("RISKRANK_CACHE_DIR", str(tmp_path / "cache-env"))


@pytest.fixture
def rng():
    return np.random.default_rng(20240801)
