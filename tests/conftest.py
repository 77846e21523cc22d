import json
import socket
from types import SimpleNamespace
import socketserver
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import numpy as np
import pytest

from pdial import _http
from pdial.embedding import EmbeddingBackendConfig, embed_batch
from pdial.metric import TrainConfig, _contrastive, _cosine, train
from pdial.persistence import load_dataset, load_matrix

FIXTURES = Path(__file__).parent / "fixtures"


def read_artifact(path):
    """The header object and the float64 payload of a model or PCA file."""
    line, _, payload = Path(path).read_bytes().partition(b"\n")
    return json.loads(line), np.frombuffer(payload, dtype="<f8").copy()


def write_artifact(path, header, values=()):
    """A model or PCA file holding ``header`` and the float64 ``values``
    (flattened in order), as pdial writes one, but with no check."""
    line = json.dumps(header, separators=(",", ":"))
    payload = b"".join(np.asarray(v, dtype="<f8").tobytes() for v in values)
    Path(path).write_bytes(line.encode() + b"\n" + payload)

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


def loss_gradient(model, ea_base, eb_base, y, cfg):
    """Loss and analytic dL/dW for one pair, through both branches: the
    full-matrix oracle that the trainer's dual step and the finite
    differences are checked against.

    With u = W a and v = W b:

    * contrastive, y=1:  L = |u-v|^2,        dL/dW = 2 (u-v) (a-b)^T
    * contrastive, y=0:  L = max(0, m-d)^2,  dL/dW = -2 (m-d)/d (u-v)(a-b)^T
      for 0 < d < m, zero otherwise (d = |u-v|; at d = 0 the hinge is not
      differentiable and the zero subgradient is used)
    * cosine: L = (c - y)^2 with c = cos(u, v); dL/du = 2 (c-y)
      (v/(|u||v|) - c u/|u|^2) and symmetrically for v.

    Every case is dL/dW = (dL/du) a^T + (dL/dv) b^T, from the package's
    one copy of each formula, ``metric._contrastive`` and
    ``metric._cosine``. Raises PairSkip when cosine loss meets a
    zero-norm projection.
    """
    a = np.asarray(ea_base, dtype=np.float64)
    b = np.asarray(eb_base, dtype=np.float64)
    u, v = model.W @ a, model.W @ b
    if cfg.loss_kind == "contrastive":
        diff = u - v
        loss, scale = _contrastive(float(diff @ diff), y, cfg)
        dldu = scale * diff
        dldv = -dldu
    else:
        loss, dldu, dldv = _cosine(u, v, y)
    return loss, np.outer(dldu, a) + np.outer(dldv, b)


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
