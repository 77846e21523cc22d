"""Latency-injecting localhost backend for the steer-http workload.

Runs as one separate process::

    python3 bench/stub_server.py --dim 64 --table chat.json --latency-ms 20 --max-connections 2

and prints ``PORT <n>`` once it listens on 127.0.0.1. Every POST sleeps
the fixed latency and is counted by path and status:

* ``POST /v1/embeddings`` answers with ``pdial.embedding.hashed_embed``;
* ``POST /v1/chat/completions`` answers from the exact prompt table and
  replies 404 for an unknown prompt.

``GET /stats`` returns the counts, ``GET /reset`` clears them; neither is
counted. At most ``--max-connections`` connections are served at once;
further connections wait in the listen backlog.

:class:`StubProcess` starts, queries and stops the server from the
benchmark.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import threading
import time
import urllib.request
from collections import Counter
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

EMBED_PATH = "/v1/embeddings"
CHAT_PATH = "/v1/chat/completions"
READY_TIMEOUT_S = 30.0


class _Server(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, embed, dim: int, table: dict, latency_s: float, max_connections: int):
        super().__init__(("127.0.0.1", 0), _Handler)
        self.embed = embed
        self.dim = dim
        self.table = table
        self.latency_s = latency_s
        self.lock = threading.Lock()
        self.counts: Counter = Counter()
        self.open_connections = 0
        self.max_open_connections = 0
        self._slots = threading.BoundedSemaphore(max_connections)

    def process_request(self, request, client_address):
        self._slots.acquire()
        with self.lock:
            self.open_connections += 1
            self.max_open_connections = max(self.max_open_connections, self.open_connections)
        super().process_request(request, client_address)

    def process_request_thread(self, request, client_address):
        try:
            super().process_request_thread(request, client_address)
        finally:
            with self.lock:
                self.open_connections -= 1
            self._slots.release()


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    timeout = 10.0  # idle keep-alive connections give their slot back

    def _reply(self, status: int, payload: dict) -> None:
        data = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def do_GET(self):  # noqa: N802 (http.server API)
        server = self.server
        with server.lock:
            if self.path == "/stats":
                payload = {
                    "counts": {f"{k[0]} {k[1]}": v for k, v in sorted(server.counts.items())},
                    "max_open_connections": server.max_open_connections,
                }
            elif self.path == "/reset":
                server.counts.clear()
                payload = {}
            else:
                payload = None
        if payload is None:
            self._reply(404, {"error": f"unknown path {self.path}"})
        else:
            self._reply(200, payload)

    def do_POST(self):  # noqa: N802 (http.server API)
        server = self.server
        length = int(self.headers.get("Content-Length", 0))
        raw = self.rfile.read(length)
        time.sleep(server.latency_s)
        status, payload = self._answer(raw)
        with server.lock:
            server.counts[(self.path, status)] += 1
        self._reply(status, payload)

    def _answer(self, raw: bytes) -> tuple[int, dict]:
        try:
            body = json.loads(raw)
        except ValueError:
            return 400, {"error": "body is not JSON"}
        if self.path == EMBED_PATH:
            data = [
                {"index": i, "embedding": self.server.embed(text, self.server.dim).tolist()}
                for i, text in enumerate(body.get("input", []))
            ]
            return 200, {"data": data}
        if self.path == CHAT_PATH:
            prompt = body["messages"][-1]["content"]
            if prompt not in self.server.table:
                return 404, {"error": "prompt not in table"}
            message = {"role": "assistant", "content": self.server.table[prompt]}
            return 200, {"choices": [{"message": message}]}
        return 404, {"error": f"unknown path {self.path}"}

    def log_message(self, *args):
        pass


def serve(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dim", type=int, required=True)
    parser.add_argument("--table", required=True, help="prompt -> response JSON")
    parser.add_argument("--latency-ms", type=float, default=20.0)
    parser.add_argument("--max-connections", type=int, required=True)
    args = parser.parse_args(argv)
    src = Path(__file__).resolve().parents[1] / "src"
    sys.path.insert(0, str(src))
    from pdial.embedding import hashed_embed

    table = json.loads(Path(args.table).read_text(encoding="utf-8"))
    server = _Server(hashed_embed, args.dim, table, args.latency_ms / 1000.0, args.max_connections)
    print(f"PORT {server.server_address[1]}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()


class StubProcess:
    """The stub server in a child process, with its URLs and counters."""

    def __init__(self, dim: int, table: Path, latency_ms: float, max_connections: int, cwd: Path):
        self._proc = subprocess.Popen(
            [
                sys.executable, str(Path(__file__).resolve()),
                "--dim", str(dim), "--table", str(table),
                "--latency-ms", str(latency_ms), "--max-connections", str(max_connections),
            ],
            cwd=cwd,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            line = self._read_ready_line()
        except BaseException:
            self.close()
            raise
        self.base_url = f"http://127.0.0.1:{int(line.split()[1])}"
        self.embed_url = self.base_url + EMBED_PATH
        self.chat_url = self.base_url + CHAT_PATH

    def _read_ready_line(self) -> str:
        result: list[str] = []
        reader = threading.Thread(target=lambda: result.append(self._proc.stdout.readline()), daemon=True)
        reader.start()
        reader.join(READY_TIMEOUT_S)
        if not result or not result[0].startswith("PORT "):
            raise RuntimeError(f"stub server did not start (exit code {self._proc.poll()})")
        return result[0]

    def _get(self, path: str) -> dict:
        with urllib.request.urlopen(self.base_url + path, timeout=10) as resp:
            return json.loads(resp.read())

    def stats(self) -> dict:
        """``{"counts": {"<path> <status>": n}, "max_open_connections": k}``."""
        return self._get("/stats")

    def reset(self) -> None:
        self._get("/reset")

    def close(self) -> None:
        if self._proc.poll() is None:
            self._proc.terminate()
            try:
                self._proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()
        if self._proc.stdout:
            self._proc.stdout.close()

    def __enter__(self) -> "StubProcess":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def request_counts(stats: dict) -> dict:
    """Chat and embedding POSTs and non-200 replies in one stats snapshot."""
    out = {"llm_requests": 0, "embed_requests": 0, "non_200": 0}
    for key, n in stats["counts"].items():
        path, status = key.rsplit(" ", 1)
        if path == CHAT_PATH:
            out["llm_requests"] += n
        elif path == EMBED_PATH:
            out["embed_requests"] += n
        if status != "200":
            out["non_200"] += n
    return out


if __name__ == "__main__":
    serve()
