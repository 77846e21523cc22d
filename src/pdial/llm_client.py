"""Text-generation backends for the prompt optimizer.

Two kinds: an HTTP chat-completions client (OpenAI-style wire shape) and
a deterministic mock driven by a prompt-to-response table, so searches
can run offline and byte-reproducibly.
"""

from __future__ import annotations

from dataclasses import dataclass
import time
from typing import Callable, Mapping

from . import _http
from .errors import ConfigurationError, InputValidationError, ProtocolError


@dataclass(frozen=True)
class LlmBackendConfig:
    kind: str = "mock"  # "http" or "mock"
    endpoint_url: str = ""
    model_name: str = ""
    temperature: float = 0.0
    samples_n: int = 1
    mock_table: Mapping[str, str] | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("http", "mock"):
            raise ConfigurationError(f"unknown llm backend kind {self.kind!r}")
        if self.temperature < 0:
            raise ConfigurationError(
                f"temperature must be >= 0, got {self.temperature}"
            )
        if self.samples_n < 1:
            raise ConfigurationError(
                f"samples_n must be >= 1, got {self.samples_n}"
            )
        if self.kind == "http" and not self.endpoint_url:
            raise ConfigurationError("http llm backend needs endpoint_url")


def _mock_complete(prompt: str, table: Mapping[str, str]) -> str:
    """Exact-match lookup with a closed-world fallback.

    When the full prompt is not a table key, echo the longest key found
    as a substring of the prompt (ties: earliest occurrence, then
    lexicographically smallest key). With no key present at all, echo the
    prompt itself. Pure function of (prompt, table).
    """
    if prompt in table:
        return table[prompt]
    best: tuple[int, int, str] | None = None
    for key in table:
        pos = prompt.find(key)
        if pos < 0 or not key:
            continue
        rank = (-len(key), pos, key)
        if best is None or rank < best:
            best = rank
    if best is not None:
        return best[2]
    return prompt


def _http_complete(
    prompt: str, cfg: LlmBackendConfig, sleep: Callable[[float], None]
) -> str:
    body = {
        "model": cfg.model_name,
        "messages": [{"role": "user", "content": prompt}],
        "temperature": cfg.temperature,
    }
    payload = _http.post_json(cfg.endpoint_url, body, timeout=60.0, sleep=sleep)
    try:
        content = payload["choices"][0]["message"]["content"]
    except (KeyError, IndexError, TypeError) as exc:
        raise ProtocolError(
            f"chat completion response has unexpected shape: {exc!r}"
        ) from exc
    if not isinstance(content, str):
        raise ProtocolError(
            f"chat completion content is not a string: {type(content).__name__}"
        )
    return content


def complete(
    prompt: str,
    cfg: LlmBackendConfig,
    sleep: Callable[[float], None] = time.sleep,
) -> list[str]:
    """Generate ``cfg.samples_n`` completions for ``prompt``.

    The http backend issues one request per sample (retried individually,
    so a successful sample is never re-requested). The mock backend is
    deterministic, so its samples are identical.
    """
    if not prompt.strip():
        raise InputValidationError("prompt must be non-empty")
    if cfg.kind == "mock":
        return [_mock_complete(prompt, cfg.mock_table or {})] * cfg.samples_n
    return [_http_complete(prompt, cfg, sleep) for _ in range(cfg.samples_n)]
