import json
import socket
from types import SimpleNamespace
import socketserver
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from pdial import _http
from pdial.embedding import EmbeddingBackendConfig, embed_batch
from pdial.metric import TrainConfig, train
from pdial.persistence import load_dataset, load_matrix

FIXTURES = Path(__file__).parent / "fixtures"

# The acceptance recipe: contrastive, margin 1.0, 50 epochs, lr 0.05, seed 7,
# hashed backend at dimension 64.
FIXTURE_BACKEND = EmbeddingBackendConfig(kind="hashed", dimension=64)
FIXTURE_TRAIN_CFG = TrainConfig(
    loss_kind="contrastive",
    margin_m=1.0,
    learning_rate=0.05,
    epochs=50,
    seed=7,
)


@pytest.fixture(scope="session")
def fixture_train_docs():
    return load_dataset(FIXTURES / "train.jsonl")


@pytest.fixture(scope="session")
def fixture_test_docs():
    return load_dataset(FIXTURES / "test.jsonl")


@pytest.fixture(scope="session")
def fixture_matrix():
    return load_matrix(FIXTURES / "matrix.json")


@pytest.fixture(scope="session")
def fixture_train_embeddings(fixture_train_docs):
    """Base embeddings of the training fixture, in dataset order."""
    return embed_batch([d.text for d in fixture_train_docs], FIXTURE_BACKEND)


@pytest.fixture(scope="session")
def fixture_model(fixture_train_docs, fixture_matrix, fixture_train_embeddings):
    model, log = train(
        fixture_train_docs, fixture_matrix, fixture_train_embeddings,
        FIXTURE_TRAIN_CFG,
    )
    return model


@pytest.fixture(autouse=True)
def _default_fan_out():
    yield
    _http.set_fan_out(_http.DEFAULT_FAN_OUT)


class _StubHandler(BaseHTTPRequestHandler):
    def do_POST(self):  # noqa: N802 (http.server API)
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length)) if length else {}
        record = {
            "path": self.path,
            "body": body,
            "headers": {k.lower(): v for k, v in self.headers.items()},
        }
        with self.server.lock:
            self.server.requests.append(record)
            status, payload = self.server.handler_fn(record)
        data = json.dumps(payload).encode() if not isinstance(payload, bytes) else payload
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    do_GET = do_POST  # noqa: N815 (recorded too: a followed redirect is a GET)

    def log_message(self, *args):
        pass


@pytest.fixture
def stub_server():
    """Local HTTP server whose behavior each test installs via
    ``server.handler_fn(record) -> (status, payload)``."""
    server = ThreadingHTTPServer(("127.0.0.1", 0), _StubHandler)
    server.requests = []
    server.lock = threading.Lock()
    server.handler_fn = lambda record: (404, {"error": "no handler installed"})
    server.url = f"http://127.0.0.1:{server.server_address[1]}"
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


class _RawHandler(socketserver.StreamRequestHandler):
    def handle(self):
        length = 0
        while (line := self.rfile.readline()) not in (b"\r\n", b""):
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        self.rfile.read(length)
        with self.server.lock:
            self.server.connections += 1
        self.wfile.write(self.server.reply)


@pytest.fixture
def raw_server():
    """Local TCP server that reads each request whole, answers with the
    bytes in ``server.reply`` and closes the connection; it need not
    speak HTTP. ``server.connections`` counts the requests read."""
    server = socketserver.ThreadingTCPServer(("127.0.0.1", 0), _RawHandler)
    server.daemon_threads = True
    server.connections = 0
    server.lock = threading.Lock()
    server.reply = b""
    server.url = f"http://127.0.0.1:{server.server_address[1]}"
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


@pytest.fixture
def closed_port_url():
    """URL of a localhost port that nothing listens on."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    return f"http://127.0.0.1:{port}"


@pytest.fixture
def no_sleep(monkeypatch):
    """Skip the retry backoff of ``_http.post_json``; yields the list of
    the waits it asked for, in seconds."""
    waits = []
    monkeypatch.setattr(_http, "time", SimpleNamespace(sleep=waits.append))
    yield waits
