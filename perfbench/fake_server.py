"""Fake embeddings endpoint for the cli_remote_train_eval workload.

Run as a child process of ``run.py``:

    python3 fake_server.py --src <repo>/src --dim 256

It binds to a free port on 127.0.0.1, prints ``port <n>`` on its first line
of standard output and then serves requests one at a time.

``POST /embeddings`` speaks the wire format of ``riskrank.remote`` and answers
every text with its ``HashEmbedder(dim)`` vector, so the remote path returns
the same vectors as the local embedder. ``GET /stats`` returns the request
and text counts of the embeddings endpoint and the time spent serving it
(``busy_s``: from the parsed request line to the last byte written).

The server exits on SIGTERM, and on its own when its parent process dies.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer


class _Handler(BaseHTTPRequestHandler):
    def do_POST(self):  # noqa: N802  (http.server API)
        start = time.perf_counter()
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length))
        texts = body.get("input", [])
        embed = self.server.embedder
        data = [
            {"index": i, "embedding": [float(x) for x in embed(text)]}
            for i, text in enumerate(texts)
        ]
        payload = json.dumps({"data": data}).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)
        self.server.stats["requests"] += 1
        self.server.stats["texts"] += len(texts)
        self.server.stats["busy_s"] += time.perf_counter() - start

    def do_GET(self):  # noqa: N802
        if self.path != "/stats":
            self.send_error(404)
            return
        payload = json.dumps(self.server.stats).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


def _exit_with_parent(parent_pid: int) -> None:
    while os.getppid() == parent_pid:
        time.sleep(0.5)
    os._exit(0)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--src", required=True, help="directory holding the riskrank package")
    parser.add_argument("--dim", type=int, default=256)
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    from riskrank.embedding import HashEmbedder

    httpd = HTTPServer(("127.0.0.1", 0), _Handler)
    httpd.embedder = HashEmbedder(dim=args.dim)
    httpd.stats = {"requests": 0, "texts": 0, "busy_s": 0.0}
    threading.Thread(target=_exit_with_parent, args=(os.getppid(),), daemon=True).start()
    print(f"port {httpd.server_address[1]}", flush=True)
    httpd.serve_forever()


if __name__ == "__main__":
    main()
