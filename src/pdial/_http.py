"""Shared HTTP plumbing for the embedding and LLM backends.

Both clients POST JSON, authenticate with a bearer token from the
``PD_API_KEY`` environment variable when it is set, retry transport
failures with exponential backoff, and send each batch of requests
through :func:`fan_out_map`, on a pool of at most ``--fan-out``
threads. A command sends one batch at a time, so the fan-out limits its
requests in flight; a library caller that runs batches from several of
its own threads gets the limit per batch.

Requests go through the standard library (``urllib.request``), one
connection per request. It is imported by the first :func:`post_json`
call, so a command that never reaches a remote backend does not load
it. HTTPS uses the system trust store, and proxies come from the
``*_proxy`` environment variables. Redirects are not followed: a 3xx
answer fails like any other non-200 status, so neither the body nor the
bearer token goes to the host a ``Location`` header names.
``concurrent.futures`` is likewise imported by the first
:func:`fan_out_map` call with more than one item.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Any, Callable, Sequence, TypeVar
from urllib.parse import urlsplit

from .errors import BackendError, ConfigurationError, ProtocolError

API_KEY_ENV = "PD_API_KEY"
DEFAULT_FAN_OUT = 4
MAX_ATTEMPTS = 3
BACKOFF_START_S = 1.0
RETRIED_4XX = (408, 429)  # request timeout, too many requests

T = TypeVar("T")
R = TypeVar("R")

_fan_out = DEFAULT_FAN_OUT


def set_fan_out(limit: int) -> None:
    """Set the number of threads each :func:`fan_out_map` batch runs on
    at most."""
    global _fan_out
    if limit < 1:
        raise ConfigurationError(f"fan-out limit must be >= 1, got {limit}")
    _fan_out = limit


def fan_out_map(fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
    """Apply ``fn`` to every item, on a pool of at most the fan-out
    threads, and return the results in input order.

    A single item runs inline. Once a job has failed no new job starts;
    the jobs already running finish, and the error of the earliest
    failing item in input order is raised.
    """
    if len(items) <= 1:
        return [fn(item) for item in items]
    from concurrent.futures import ThreadPoolExecutor

    failed = threading.Event()

    def job(item: T) -> R | None:
        if failed.is_set():
            return None
        try:
            return fn(item)
        except BaseException:
            failed.set()
            raise

    # map yields in input order and, when a result raises, cancels the
    # jobs not yet started; leaving the block joins the running ones
    with ThreadPoolExecutor(max_workers=min(_fan_out, len(items))) as pool:
        return list(pool.map(job, items))


def _printable_ascii(text: str) -> bool:
    """Whether ``text`` is printable ASCII without spaces; http.client
    sends neither non-ASCII characters nor line breaks."""
    return all("!" <= c <= "~" for c in text)


def check_endpoint_url(url: str, what: str) -> None:
    """Raise ConfigurationError unless ``url`` is an http(s) URL with a
    host, written in printable ASCII; ``what`` names the backend in the
    message."""
    if not _printable_ascii(url):
        raise ConfigurationError(
            f"{what} endpoint URL {url!r} must be printable ASCII without "
            f"spaces; percent-encode other characters"
        )
    try:
        parts = urlsplit(url)
        parts.port  # parsed lazily; raises ValueError when not a number
    except ValueError as exc:
        raise ConfigurationError(f"{what} endpoint URL {url!r}: {exc}") from exc
    if parts.scheme not in ("http", "https") or not parts.hostname:
        raise ConfigurationError(
            f"{what} endpoint URL {url!r} needs an http:// or https:// "
            f"scheme and a host"
        )


def check_timeout(timeout: float) -> None:
    """Raise ConfigurationError unless ``timeout`` is a number of seconds
    a socket accepts: above 0 and at most ``threading.TIMEOUT_MAX``."""
    if not 0 < timeout <= threading.TIMEOUT_MAX:
        raise ConfigurationError(
            f"timeout must be > 0 and at most {threading.TIMEOUT_MAX:.0f} s, "
            f"got {timeout}"
        )


def auth_headers() -> dict[str, str]:
    """The request headers, with the bearer token from ``PD_API_KEY`` when
    it is set. A key that is not printable ASCII without spaces is a
    ConfigurationError, whose message does not echo the key."""
    headers = {"Content-Type": "application/json"}
    key = os.environ.get(API_KEY_ENV)
    if key:
        if not _printable_ascii(key):
            raise ConfigurationError(
                f"{API_KEY_ENV} must be printable ASCII without spaces"
            )
        headers["Authorization"] = f"Bearer {key}"
    return headers


_opener = None


def _open(request: Any, *, timeout: float) -> Any:
    """Send ``request`` and return the response, whatever its status: the
    opener has no redirect handler and no error processor, so a 3xx is
    not followed and no status is raised as an ``HTTPError``."""
    global _opener
    import urllib.request

    if _opener is None:
        opener = urllib.request.OpenerDirector()
        for name in ("ProxyHandler", "UnknownHandler", "HTTPHandler", "HTTPSHandler"):
            if hasattr(urllib.request, name):  # no HTTPSHandler without ssl
                opener.add_handler(getattr(urllib.request, name)())
        _opener = opener
    return _opener.open(request, timeout=timeout)


def post_json(
    url: str,
    body: dict[str, Any],
    timeout: float,
) -> dict[str, Any]:
    """POST ``body`` as JSON and return the decoded JSON response.

    Transport errors and the transient statuses (5xx, 408, 429) are
    retried up to ``MAX_ATTEMPTS`` times with exponential backoff starting
    at ``BACKOFF_START_S``; the final failure is raised as BackendError
    with the status detail. Any other non-200 status, a redirect included,
    is raised at once.
    """
    import http.client
    import urllib.request

    data = json.dumps(body, allow_nan=False).encode()
    last_detail = ""
    for attempt in range(MAX_ATTEMPTS):
        if attempt > 0:
            time.sleep(BACKOFF_START_S * 2 ** (attempt - 1))
        request = urllib.request.Request(
            url, data=data, headers=auth_headers(), method="POST"
        )
        try:
            with _open(request, timeout=timeout) as resp:
                status, raw = resp.status, resp.read()
        except (OSError, http.client.HTTPException) as exc:
            last_detail = f"transport error: {exc}"
            continue
        if status == 200:
            try:
                return json.loads(raw)
            except (ValueError, RecursionError) as exc:
                # A 200 with an unparseable or too deeply nested body is
                # not a transport glitch.
                raise ProtocolError(
                    f"POST {url}: response is not valid JSON: {exc}"
                ) from exc
        last_detail = f"HTTP {status}: {raw.decode('utf-8', 'replace')[:200]}"
        if status < 500 and status not in RETRIED_4XX:
            raise BackendError(f"POST {url} failed, not retried ({last_detail})")
    raise BackendError(
        f"POST {url} failed after {MAX_ATTEMPTS} attempts ({last_detail})"
    )
