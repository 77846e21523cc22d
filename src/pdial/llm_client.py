"""Text-generation backends for the prompt optimizer.

Two kinds: an HTTP chat-completions client (OpenAI-style wire shape) and
a deterministic mock driven by a prompt-to-response table, so searches
can run offline and byte-reproducibly.
"""

from __future__ import annotations

from dataclasses import dataclass
import math
from typing import Mapping, overload

from . import _http
from .errors import (
    ConfigurationError,
    InputValidationError,
    ProtocolError,
    require_utf8,
)


@dataclass(frozen=True)
class LlmBackendConfig:
    kind: str = "mock"  # "http" or "mock"
    endpoint_url: str = ""
    model_name: str = ""
    temperature: float = 0.0
    samples_n: int = 1
    mock_table: Mapping[str, str] | None = None
    timeout: float = 60.0  # seconds per http request

    def __post_init__(self) -> None:
        if self.kind not in ("http", "mock"):
            raise ConfigurationError(f"unknown llm backend kind {self.kind!r}")
        if not 0 <= self.temperature < math.inf:
            # a request body carries no infinity: JSON has no such number
            raise ConfigurationError(
                f"temperature must be finite and >= 0, got {self.temperature}"
            )
        if self.samples_n < 1:
            raise ConfigurationError(
                f"samples_n must be >= 1, got {self.samples_n}"
            )
        _http.check_timeout(self.timeout)
        if self.kind == "http":
            _http.check_endpoint_url(self.endpoint_url, "llm")


def _mock_complete(prompt: str, table: Mapping[str, str]) -> str:
    """Exact-match lookup with a closed-world fallback.

    When the full prompt is not a table key, echo the longest key found
    as a substring of the prompt (ties: earliest occurrence, then
    lexicographically smallest key). With no key present at all, echo the
    prompt itself. Pure function of (prompt, table).
    """
    if prompt in table:
        return table[prompt]
    found = [key for key in table if key and key in prompt]
    if not found:
        return prompt
    return min(found, key=lambda key: (-len(key), prompt.find(key), key))


def _http_complete(prompt: str, cfg: LlmBackendConfig) -> str:
    body = {
        "model": cfg.model_name,
        "messages": [{"role": "user", "content": prompt}],
        "temperature": cfg.temperature,
    }
    payload = _http.post_json(cfg.endpoint_url, body, timeout=cfg.timeout)
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
    return require_utf8(content, ProtocolError, "chat completion content")


@overload
def complete(prompts: str, cfg: LlmBackendConfig) -> list[str]: ...


@overload
def complete(prompts: list[str], cfg: LlmBackendConfig) -> list[list[str]]: ...


def complete(
    prompts: str | list[str], cfg: LlmBackendConfig
) -> list[str] | list[list[str]]:
    """Generate ``cfg.samples_n`` completions for each of ``prompts``.

    Every prompt is checked before any request is made. The http backend
    sends one request per (prompt, sample), as one batch on at most
    ``--fan-out`` threads; each is retried on its own, so a successful
    sample is never re-requested, and the first failure fails the call.
    The mock backend is deterministic, so its samples are identical.

    A bare ``str`` is one prompt and gives its list of samples, the form
    this function had before it took a list.
    """
    if isinstance(prompts, str):
        return complete([prompts], cfg)[0]
    for i, prompt in enumerate(prompts):
        if not prompt.strip():
            raise InputValidationError(f"prompt {i} must be non-empty")
    n = cfg.samples_n
    if cfg.kind == "mock":
        table = cfg.mock_table or {}
        return [[_mock_complete(prompt, table)] * n for prompt in prompts]
    outputs = _http.fan_out_map(
        lambda prompt: _http_complete(prompt, cfg),
        [prompt for prompt in prompts for _ in range(n)],
    )
    return [outputs[i : i + n] for i in range(0, len(outputs), n)]
