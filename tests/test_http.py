import threading
import time

import pytest

from pdial import _http
from pdial.errors import BackendError, ProtocolError


class TestFanOutMap:
    def test_results_in_input_order(self):
        _http.set_fan_out(3)
        # later items finish first
        out = _http.fan_out_map(
            lambda i: time.sleep(0.002 * (8 - i)) or i * i, list(range(8))
        )
        assert out == [i * i for i in range(8)]

    def test_empty_and_single_item_run_inline(self):
        assert _http.fan_out_map(lambda i: i, []) == []
        assert _http.fan_out_map(
            lambda _: threading.current_thread(), ["only"]
        ) == [threading.main_thread()]

    def test_at_most_fan_out_jobs_at_once(self):
        _http.set_fan_out(2)
        lock = threading.Lock()
        state = {"now": 0, "max": 0}

        def job(_):
            with lock:
                state["now"] += 1
                state["max"] = max(state["max"], state["now"])
            time.sleep(0.01)
            with lock:
                state["now"] -= 1

        _http.fan_out_map(job, list(range(10)))
        assert state["max"] == 2

    def test_no_job_starts_after_a_failure(self):
        _http.set_fan_out(2)
        started = []

        def job(i):
            started.append(i)
            if i == 1:
                raise ValueError("item 1")
            time.sleep(0.02)

        with pytest.raises(ValueError, match="item 1"):
            _http.fan_out_map(job, list(range(20)))
        assert sorted(started) == [0, 1]

    def test_error_of_earliest_failing_item_is_raised(self):
        # item 1 fails first, while item 0 is still running and fails later
        _http.set_fan_out(2)

        def job(i):
            if i == 0:
                time.sleep(0.05)
            raise ValueError(f"item {i}")

        with pytest.raises(ValueError, match="item 0"):
            _http.fan_out_map(job, [0, 1, 2])

    @pytest.mark.parametrize("failing", [0, 1])
    def test_running_jobs_finish_before_the_error_arrives(self, failing):
        _http.set_fan_out(2)
        started = threading.Event()
        done = []

        def job(i):
            if i == failing:
                started.wait(5)
                raise ValueError(f"item {i}")
            started.set()
            time.sleep(0.05)
            done.append(i)

        with pytest.raises(ValueError, match=f"item {failing}"):
            _http.fan_out_map(job, [0, 1])
        assert done == [1 - failing]

    def test_no_thread_outlives_the_call(self):
        _http.set_fan_out(3)
        before = threading.active_count()

        def job(i):
            time.sleep(0.01)
            if i == 4:
                raise ValueError("item 4")

        assert _http.fan_out_map(job, [0, 1, 2]) == [None] * 3
        assert threading.active_count() == before
        with pytest.raises(ValueError, match="item 4"):
            _http.fan_out_map(job, list(range(8)))
        assert threading.active_count() == before


# Replies that fail below HTTP: no status line, a non-HTTP status line,
# and a body cut short of its Content-Length.
BROKEN_REPLIES = {
    "no-reply": b"",
    "bad-status-line": b"SPAM 200 OK\r\n\r\n",
    "truncated-body": (
        b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
        b"Content-Length: 100\r\n\r\n{\"data\": ["
    ),
}


class TestPostJson:
    BODY = {"model": "", "input": ["hello"]}

    def test_refused_connection_is_retried_then_raised(
        self, closed_port_url, no_sleep
    ):
        with pytest.raises(
            BackendError, match=r"after 3 attempts \(transport error: .*refused"
        ):
            _http.post_json(closed_port_url, self.BODY, 5.0)
        assert no_sleep == [1.0, 2.0]  # three attempts

    @pytest.mark.parametrize("reply", BROKEN_REPLIES.values(), ids=BROKEN_REPLIES)
    def test_broken_reply_is_retried_then_raised(self, raw_server, reply, no_sleep):
        raw_server.reply = reply
        with pytest.raises(
            BackendError, match=r"after 3 attempts \(transport error: "
        ):
            _http.post_json(raw_server.url, self.BODY, 5.0)
        assert raw_server.connections == _http.MAX_ATTEMPTS
        assert no_sleep == [1.0, 2.0]

    def test_timeout_is_a_transport_error(self, raw_server, no_sleep):
        # a reply that never comes: the server holds each connection open
        release = threading.Event()

        class Stalling(raw_server.RequestHandlerClass):
            def handle(self):
                super().handle()
                release.wait(5)

        raw_server.RequestHandlerClass = Stalling
        try:
            with pytest.raises(
                BackendError, match=r"after 3 attempts \(transport error: .*timed out"
            ):
                _http.post_json(raw_server.url, self.BODY, 0.05)
        finally:
            release.set()

    def test_body_is_json_without_nan(self, stub_server):
        stub_server.handler_fn = lambda record: (200, {"ok": True})
        assert _http.post_json(stub_server.url, {"x": [1.5, "é"]}, 5.0) == {"ok": True}
        record = stub_server.requests[0]
        assert record["body"] == {"x": [1.5, "é"]}
        assert record["headers"]["content-type"] == "application/json"
        with pytest.raises(ValueError):
            _http.post_json(stub_server.url, {"x": float("nan")}, 5.0)
        assert len(stub_server.requests) == 1

    def test_success_status_other_than_200_is_not_retried(self, stub_server):
        stub_server.handler_fn = lambda record: (201, {"created": True})
        with pytest.raises(BackendError, match="not retried \\(HTTP 201: "):
            _http.post_json(stub_server.url, self.BODY, 5.0)
        assert len(stub_server.requests) == 1

    def test_error_detail_is_the_start_of_the_error_body(self, stub_server):
        stub_server.handler_fn = lambda record: (404, b"x" * 300)
        with pytest.raises(BackendError) as err:
            _http.post_json(stub_server.url, self.BODY, 5.0)
        assert str(err.value).endswith(f"(HTTP 404: {'x' * 200})")

    @pytest.mark.parametrize("status", [301, 302, 303, 307, 308])
    def test_redirect_is_not_followed(
        self, raw_server, stub_server, monkeypatch, status
    ):
        # the token and the body stay with the configured endpoint
        monkeypatch.setenv(_http.API_KEY_ENV, "secret")
        stub_server.handler_fn = lambda record: (200, {"ok": True})
        raw_server.reply = (
            f"HTTP/1.1 {status} Moved\r\nLocation: {stub_server.url}/v1\r\n"
            f"Content-Length: 5\r\nConnection: close\r\n\r\nmoved"
        ).encode()
        with pytest.raises(
            BackendError, match=f"not retried \\(HTTP {status}: moved\\)"
        ):
            _http.post_json(raw_server.url, self.BODY, 5.0)
        assert raw_server.connections == 1
        assert stub_server.requests == []

    def test_unparseable_200_is_a_protocol_error(self, stub_server):
        stub_server.handler_fn = lambda record: (200, b"not json")
        with pytest.raises(ProtocolError, match="not valid JSON"):
            _http.post_json(stub_server.url, self.BODY, 5.0)
        assert len(stub_server.requests) == 1

    def test_too_deeply_nested_200_is_a_protocol_error(self, stub_server):
        stub_server.handler_fn = lambda record: (200, b"[" * 200_000 + b"]" * 200_000)
        with pytest.raises(ProtocolError, match="not valid JSON: maximum recursion"):
            _http.post_json(stub_server.url, self.BODY, 5.0)
        assert len(stub_server.requests) == 1

    def test_http_works_without_ssl(self, stub_server, monkeypatch, no_sleep):
        # without ssl, http.client has no HTTPSConnection and urllib.request
        # no HTTPSHandler; an https URL then fails as an unknown URL type,
        # retried like any transport error
        import http.client
        import urllib.request

        monkeypatch.delattr(http.client, "HTTPSConnection")
        monkeypatch.delattr(urllib.request, "HTTPSHandler")
        monkeypatch.setattr(_http, "_opener", None)
        stub_server.handler_fn = lambda record: (200, {"ok": True})
        assert _http.post_json(stub_server.url, self.BODY, 5.0) == {"ok": True}
        with pytest.raises(
            BackendError, match="after 3 attempts .*unknown url type: https"
        ):
            _http.post_json("https://127.0.0.1:9/", self.BODY, 5.0)
