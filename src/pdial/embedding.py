"""Base-embedding backends.

Texts of any length are mapped to fixed-dimension float vectors, either
by a remote embeddings endpoint (OpenAI-style wire shape) or by a
deterministic offline feature hasher used for tests and desk runs. The
vectors produced here are the frozen inputs to the trainable projection
head in :mod:`pdial.metric`.
"""

from __future__ import annotations

from dataclasses import dataclass
import re

import numpy as np

from . import _http
from .errors import (
    ConfigurationError,
    InputValidationError,
    ProtocolError,
    is_integer,
    require_field_types,
    require_numbers,
    require_text,
    require_texts,
)

DEFAULT_DIMENSION = 768

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF

# ASCII alphanumeric runs only, so token boundaries are identical on every
# platform and Python version.
_TOKEN_RE = re.compile(r"[0-9a-z]+")


@dataclass(frozen=True)
class EmbeddingBackendConfig:
    """Which embedding backend to use and how to reach it."""

    kind: str = "hashed"  # "http" or "hashed"
    endpoint_url: str = ""
    model_name: str = ""
    dimension: int = DEFAULT_DIMENSION
    batch_size: int = 32
    timeout: float = 30.0

    def __post_init__(self) -> None:
        require_field_types(self)
        if self.kind not in ("http", "hashed"):
            raise ConfigurationError(
                f"unknown embedding backend kind {self.kind!r}"
            )
        if self.dimension < 2:
            raise ConfigurationError(
                f"embedding dimension must be >= 2, got {self.dimension}"
            )
        if self.batch_size < 1:
            raise ConfigurationError(
                f"batch size must be >= 1, got {self.batch_size}"
            )
        _http.check_timeout(self.timeout)
        if self.kind == "http":
            _http.check_endpoint_url(self.endpoint_url, "embedding")


def fnv1a64(data: bytes) -> int:
    """FNV-1a 64-bit hash."""
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK64
    return h


def hashed_embed(text: str, dimension: int) -> np.ndarray:
    """Deterministic bag-of-words feature hash of ``text``.

    Lowercase, split into ASCII-alphanumeric token runs, add 1.0 at
    ``fnv1a64(token) % dimension`` per token, then L2-normalize. Bit-exact
    across platforms; raises if the text contains no tokens.
    """
    require_text(text, InputValidationError, "text")
    if dimension < 2:
        raise InputValidationError(f"dimension must be >= 2, got {dimension}")
    tokens = _TOKEN_RE.findall(text.lower())
    if not tokens:
        raise InputValidationError(
            f"text has no alphanumeric tokens: {text!r}"
        )
    vec = np.zeros(dimension, dtype=np.float64)
    for token in tokens:
        vec[fnv1a64(token.encode("utf-8")) % dimension] += 1.0
    return vec / np.sqrt(np.dot(vec, vec))


def _validate_texts(texts: list[str]) -> None:
    require_texts(texts, InputValidationError, "texts")
    if not texts:
        raise InputValidationError("embed_batch needs at least one text")
    for i, text in enumerate(texts):
        if not text.strip():
            raise InputValidationError(f"text {i} is empty after trimming")


def _http_embed_chunk(
    chunk: list[str], cfg: EmbeddingBackendConfig
) -> list[np.ndarray]:
    body = {"model": cfg.model_name, "input": chunk}
    payload = _http.post_json(cfg.endpoint_url, body, cfg.timeout)
    rows: dict[int, object] = {}
    try:
        for item in payload["data"]:
            index = item["index"]
            # JSON true must not pass as index 1
            if not is_integer(index) or not 0 <= index < len(chunk) or index in rows:
                raise ProtocolError(
                    f"embeddings response has a bad or repeated index "
                    f"{index!r} for {len(chunk)} inputs"
                )
            rows[index] = item["embedding"]
    except (KeyError, TypeError) as exc:
        raise ProtocolError(
            f"embeddings response has unexpected shape: {exc!r}"
        ) from exc
    if len(rows) != len(chunk):
        raise ProtocolError(
            "embeddings response is missing entries for some inputs"
        )
    out = []
    for i in range(len(chunk)):
        what = f"embedding at index {i}"
        vec = require_numbers(rows[i], ProtocolError, what)
        if vec.ndim != 1:
            raise ProtocolError(f"{what} must be a flat list of JSON numbers")
        if vec.shape[0] != cfg.dimension:
            raise ConfigurationError(
                f"server returned dimension {vec.shape}, "
                f"configured dimension is {cfg.dimension}"
            )
        if not np.all(np.isfinite(vec)):
            raise ProtocolError("server returned non-finite embedding values")
        out.append(vec)
    return out


def embed_batch(
    texts: list[str], cfg: EmbeddingBackendConfig
) -> list[np.ndarray]:
    """Embed ``texts``, one vector per input, order-preserving.

    The http backend chunks requests to ``cfg.batch_size`` and sends the
    chunks as one batch, on at most ``--fan-out`` threads; results are
    reassembled in input order. Any failed chunk fails the whole call, and
    no new chunk is sent after the first failure.
    """
    _validate_texts(texts)
    if cfg.kind == "hashed":
        return [hashed_embed(t, cfg.dimension) for t in texts]

    chunks = [
        texts[i : i + cfg.batch_size]
        for i in range(0, len(texts), cfg.batch_size)
    ]
    results = _http.fan_out_map(
        lambda chunk: _http_embed_chunk(chunk, cfg), chunks
    )
    return [vec for chunk_result in results for vec in chunk_result]
