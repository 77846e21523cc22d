"""Shared HTTP plumbing for the embedding and LLM backends.

Both clients POST JSON, authenticate with a bearer token from the
``PD_API_KEY`` environment variable when it is set, retry transport
failures with exponential backoff, and share one fan-out limit so the
total number of in-flight requests stays bounded no matter which client
issues them. Both issue their concurrent requests through
:func:`fan_out_map`.

Requests go through the standard library (``urllib.request``), one
connection per request. It is imported by the first :func:`post_json`
call, so a command that never reaches a remote backend does not load
it. HTTPS uses the system trust store, and proxies come from the
``*_proxy`` environment variables. Redirects are not followed: a 3xx
answer fails like any other non-200 status, so neither the body nor the
bearer token goes to the host a ``Location`` header names.
"""

from __future__ import annotations

from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
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

_fan_out_lock = threading.Lock()
_fan_out_limit = DEFAULT_FAN_OUT
_fan_out_sem = threading.BoundedSemaphore(DEFAULT_FAN_OUT)


def set_fan_out(limit: int) -> None:
    """Set the shared cap on concurrent in-flight requests."""
    global _fan_out_limit, _fan_out_sem
    if limit < 1:
        raise ConfigurationError(f"fan-out limit must be >= 1, got {limit}")
    with _fan_out_lock:
        _fan_out_limit = limit
        _fan_out_sem = threading.BoundedSemaphore(limit)


def get_fan_out() -> int:
    with _fan_out_lock:
        return _fan_out_limit


def fan_out_map(fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
    """Apply ``fn`` to every item, on at most ``get_fan_out()`` threads,
    and return the results in input order.

    A single item runs inline. Once a job has failed no new job starts;
    the jobs already running finish, and the error of the earliest
    failing item in input order is raised.
    """
    if len(items) <= 1:
        return [fn(item) for item in items]
    failed = threading.Event()

    def job(item: T) -> R | None:
        if failed.is_set():
            return None
        try:
            return fn(item)
        except BaseException:
            failed.set()
            raise

    pool = ThreadPoolExecutor(max_workers=min(get_fan_out(), len(items)))
    try:
        futures = [pool.submit(job, item) for item in items]
        wait(futures, return_when=FIRST_EXCEPTION)
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
    for future in futures:
        if not future.cancelled() and future.exception() is not None:
            raise future.exception()
    return [future.result() for future in futures]


def check_endpoint_url(url: str, what: str) -> None:
    """Raise ConfigurationError unless ``url`` is an http(s) URL with a
    host, written in printable ASCII; ``what`` names the backend in the
    message."""
    if not all("!" <= c <= "~" for c in url):
        # http.client sends neither spaces nor non-ASCII characters
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


def auth_headers() -> dict[str, str]:
    headers = {"Content-Type": "application/json"}
    key = os.environ.get(API_KEY_ENV)
    if key:
        headers["Authorization"] = f"Bearer {key}"
    return headers


_opener = None


def _open(request: Any, *, timeout: float) -> Any:
    """Send ``request`` and return the response. Redirects are refused:
    a 3xx answer is raised as an ``HTTPError``, like a 4xx."""
    global _opener
    import urllib.request

    if _opener is None:
        class NoRedirect(urllib.request.HTTPRedirectHandler):
            def redirect_request(self, *args: Any, **kwargs: Any) -> None:
                return None

        _opener = urllib.request.build_opener(NoRedirect)
    return _opener.open(request, timeout=timeout)


def post_json(
    url: str,
    body: dict[str, Any],
    timeout: float,
    sleep: Callable[[float], None] = time.sleep,
) -> dict[str, Any]:
    """POST ``body`` as JSON and return the decoded JSON response.

    Transport errors and the transient statuses (5xx, 408, 429) are
    retried up to ``MAX_ATTEMPTS`` times with exponential backoff starting
    at ``BACKOFF_START_S``; the final failure is raised as BackendError
    with the status detail. Any other non-200 status, a redirect included,
    is raised at once.
    ``sleep`` is injectable so tests can skip the wait.
    """
    import http.client
    import urllib.error
    import urllib.request

    data = json.dumps(body, allow_nan=False).encode()
    with _fan_out_lock:
        sem = _fan_out_sem
    last_detail = ""
    for attempt in range(MAX_ATTEMPTS):
        if attempt > 0:
            sleep(BACKOFF_START_S * 2 ** (attempt - 1))
        request = urllib.request.Request(
            url, data=data, headers=auth_headers(), method="POST"
        )
        try:
            with sem:
                try:
                    with _open(request, timeout=timeout) as resp:
                        status, raw = resp.status, resp.read()
                except urllib.error.HTTPError as exc:
                    # the opener raises every status outside 2xx; the
                    # error is the response
                    with exc:
                        status, raw = exc.code, exc.read()
        except (OSError, http.client.HTTPException) as exc:
            last_detail = f"transport error: {exc}"
            continue
        if status == 200:
            try:
                return json.loads(raw)
            except ValueError as exc:
                # A 200 with an unparseable body is not a transport glitch.
                raise ProtocolError(
                    f"POST {url}: response is not valid JSON: {exc}"
                ) from exc
        last_detail = f"HTTP {status}: {raw.decode('utf-8', 'replace')[:200]}"
        if status < 500 and status not in RETRIED_4XX:
            raise BackendError(f"POST {url} failed, not retried ({last_detail})")
    raise BackendError(
        f"POST {url} failed after {MAX_ATTEMPTS} attempts ({last_detail})"
    )
