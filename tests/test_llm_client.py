import pytest

from pdial import _http
from pdial.errors import (
    BackendError,
    ConfigurationError,
    InputValidationError,
    ProtocolError,
)
from pdial.llm_client import LlmBackendConfig, complete


class TestMockBackend:
    def test_exact_table_hit(self):
        cfg = LlmBackendConfig(kind="mock", mock_table={"p": "out"})
        assert complete(["p"], cfg)[0] == ["out"]

    def test_samples_are_identical(self):
        cfg = LlmBackendConfig(kind="mock", samples_n=3, mock_table={"p": "out"})
        assert complete(["p"], cfg)[0] == ["out", "out", "out"]

    def test_fallback_echoes_longest_key_substring(self):
        table = {"of Madrid": "x", "fan of Madrid": "y", "be": "z"}
        cfg = LlmBackendConfig(kind="mock", mock_table=table)
        # no exact hit; longest key inside the prompt is echoed back
        got = complete(["as a fan of Madrid be passionate"], cfg)[0]
        assert got == ["fan of Madrid"]

    def test_fallback_tie_prefers_earliest_occurrence(self):
        table = {"bb": "1", "cc": "2"}
        cfg = LlmBackendConfig(kind="mock", mock_table=table)
        assert complete(["xx cc bb"], cfg)[0] == ["cc"]

    def test_fallback_without_any_key_echoes_prompt(self):
        cfg = LlmBackendConfig(kind="mock", mock_table={"zzz": "canned"})
        assert complete(["nothing matches here"], cfg)[0] == ["nothing matches here"]

    def test_pure_function_of_prompt_and_table(self):
        table = {"a b": "r1", "b": "r2"}
        cfg = LlmBackendConfig(kind="mock", mock_table=table)
        runs = [complete(["c a b"], cfg)[0] for _ in range(5)]
        assert all(r == runs[0] for r in runs)

    def test_empty_prompt_rejected(self):
        cfg = LlmBackendConfig(kind="mock", mock_table={})
        with pytest.raises(InputValidationError):
            complete(["  "], cfg)

    def test_one_sample_list_per_prompt_in_order(self):
        cfg = LlmBackendConfig(
            kind="mock", samples_n=2, mock_table={"a": "x", "b": "y"}
        )
        assert complete(["b", "a", "b"], cfg) == [["y", "y"], ["x", "x"], ["y", "y"]]
        assert complete([], cfg) == []

    def test_bare_string_is_one_prompt(self):
        cfg = LlmBackendConfig(kind="mock", samples_n=2, mock_table={"p": "out"})
        assert complete("p", cfg) == complete(["p"], cfg)[0] == ["out", "out"]


@pytest.mark.usefixtures("no_sleep")
class TestHttpBackend:
    def _cfg(self, server, **kwargs):
        return LlmBackendConfig(
            kind="http",
            endpoint_url=f"{server.url}/v1/chat/completions",
            model_name="test-chat",
            **kwargs,
        )

    @staticmethod
    def _ok(content):
        return 200, {"choices": [{"message": {"role": "assistant", "content": content}}]}

    def test_round_trip_extracts_content(self, stub_server):
        stub_server.handler_fn = lambda record: self._ok("canned response body")
        cfg = self._cfg(stub_server)
        assert complete(["say hi"], cfg)[0] == ["canned response body"]
        body = stub_server.requests[0]["body"]
        assert body["model"] == "test-chat"
        assert body["messages"] == [{"role": "user", "content": "say hi"}]
        assert body["temperature"] == 0.0

    def test_temperature_passed_through(self, stub_server):
        stub_server.handler_fn = lambda record: self._ok("x")
        cfg = self._cfg(stub_server, temperature=0.7)
        complete(["p"], cfg)
        assert stub_server.requests[0]["body"]["temperature"] == 0.7

    def test_one_request_per_sample(self, stub_server):
        stub_server.handler_fn = lambda record: self._ok("x")
        cfg = self._cfg(stub_server, samples_n=3)
        assert complete(["p"], cfg)[0] == ["x", "x", "x"]
        assert len(stub_server.requests) == 3

    def test_retry_does_not_duplicate_successful_sample(self, stub_server):
        # first attempt of the first sample fails; both samples succeed once
        stub_server.handler_fn = lambda record: (
            (500, {}) if len(stub_server.requests) == 1 else self._ok("ok")
        )
        cfg = self._cfg(stub_server, samples_n=2)
        assert complete(["p"], cfg)[0] == ["ok", "ok"]
        assert len(stub_server.requests) == 3  # 1 failed + 2 successful

    def test_transport_exhaustion_is_backend_error(self, stub_server):
        stub_server.handler_fn = lambda record: (502, {"error": "down"})
        cfg = self._cfg(stub_server)
        with pytest.raises(BackendError, match="after 3 attempts"):
            complete(["p"], cfg)
        assert len(stub_server.requests) == 3

    def test_malformed_payload_is_protocol_error(self, stub_server):
        stub_server.handler_fn = lambda record: (200, {"choices": []})
        cfg = self._cfg(stub_server)
        with pytest.raises(ProtocolError):
            complete(["p"], cfg)

    def test_non_string_content_is_protocol_error(self, stub_server):
        stub_server.handler_fn = lambda record: (
            200,
            {"choices": [{"message": {"content": 42}}]},
        )
        cfg = self._cfg(stub_server)
        with pytest.raises(ProtocolError):
            complete(["p"], cfg)

    def test_samples_of_many_prompts_fan_out_in_order(self, stub_server):
        stub_server.handler_fn = lambda record: self._ok(
            record["body"]["messages"][0]["content"].upper()
        )
        cfg = self._cfg(stub_server, samples_n=2)
        got = complete(["a", "b", "c"], cfg)
        assert got == [["A", "A"], ["B", "B"], ["C", "C"]]
        assert len(stub_server.requests) == 6

    def test_every_prompt_checked_before_any_request(self, stub_server):
        stub_server.handler_fn = lambda record: self._ok("x")
        with pytest.raises(InputValidationError, match="prompt 2"):
            complete(["a", "b", " "], self._cfg(stub_server))
        assert stub_server.requests == []

    def test_lone_surrogate_content_is_protocol_error(self, stub_server):
        # JSON "\ud800" decodes to a lone surrogate, which UTF-8 cannot hold
        stub_server.handler_fn = lambda record: self._ok("fine\ud800")
        with pytest.raises(ProtocolError, match="not valid Unicode"):
            complete(["p"], self._cfg(stub_server))

    def test_timeout_reaches_post_json(self, monkeypatch):
        seen = []

        def fake_post_json(url, body, timeout):
            seen.append(timeout)
            return {"choices": [{"message": {"content": "x"}}]}

        monkeypatch.setattr(_http, "post_json", fake_post_json)
        cfg = LlmBackendConfig(
            kind="http", endpoint_url="http://unused", samples_n=2, timeout=7.5
        )
        complete(["p"], cfg)
        assert seen == [7.5, 7.5]
        complete(["p"], LlmBackendConfig(kind="http", endpoint_url="http://unused"))
        assert seen[-1] == 60.0

    def test_bearer_auth(self, stub_server, monkeypatch):
        monkeypatch.setenv("PD_API_KEY", "sk-llm")
        stub_server.handler_fn = lambda record: self._ok("x")
        complete(["p"], self._cfg(stub_server))
        assert stub_server.requests[0]["headers"]["authorization"] == "Bearer sk-llm"


class TestConfigValidation:
    def test_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            LlmBackendConfig(kind="telepathy")

    @pytest.mark.parametrize("name,value,message", [
        ("samples_n", 2.0, "samples_n must be int, got 2.0"),
        ("samples_n", True, "samples_n must be int, got True"),
        ("temperature", "0.5", "temperature must be float, got '0.5'"),
        ("temperature", False, "temperature must be float, got False"),
        ("timeout", None, "timeout must be float, got None"),
        ("kind", 1, "kind must be str, got 1"),
        ("model_name", None, "model_name must be str, got None"),
    ])
    def test_values_of_the_wrong_json_type_rejected(self, name, value, message):
        # a ConfigurationError, which the CLI reports with exit code 2
        with pytest.raises(ConfigurationError) as err:
            LlmBackendConfig(**{name: value})
        assert str(err.value) == message

    def test_the_mock_table_is_a_read_only_copy(self):
        table = {"ping": "pong"}
        cfg = LlmBackendConfig(mock_table=table)
        table["ping"] = 5
        assert complete(["ping"], cfg) == [["pong"]]
        with pytest.raises(TypeError):
            cfg.mock_table["ping"] = 5

    def test_an_int_is_a_float_and_the_mock_table_is_not_checked(self):
        table = {"p": "out"}
        cfg = LlmBackendConfig(temperature=1, timeout=5, mock_table=table)
        assert (cfg.temperature, cfg.timeout, cfg.mock_table) == (1, 5, table)

    def test_negative_temperature(self):
        with pytest.raises(ConfigurationError):
            LlmBackendConfig(temperature=-0.1)

    def test_nan_temperature(self):
        with pytest.raises(ConfigurationError, match="temperature"):
            LlmBackendConfig(temperature=float("nan"))

    def test_infinite_temperature(self):
        # JSON has no infinity, so no request body could carry it
        with pytest.raises(ConfigurationError, match="temperature must be finite"):
            LlmBackendConfig(temperature=float("inf"))

    def test_zero_samples(self):
        with pytest.raises(ConfigurationError):
            LlmBackendConfig(samples_n=0)

    @pytest.mark.parametrize(
        "timeout", [0.0, -1.0, float("nan"), float("inf"), 1e300]
    )
    def test_non_positive_timeout(self, timeout):
        with pytest.raises(ConfigurationError, match="timeout"):
            LlmBackendConfig(timeout=timeout)

    def test_http_needs_url(self):
        with pytest.raises(ConfigurationError):
            LlmBackendConfig(kind="http")

    @pytest.mark.parametrize("url", [
        "localhost:1234/v1/chat/completions", "ftp://host/v1", "http:///v1",
        "http://host/v1/ch\u00e2t", "http://host/v1 /chat",
    ])
    def test_http_url_needs_scheme_and_host(self, url):
        with pytest.raises(ConfigurationError, match="llm endpoint URL"):
            LlmBackendConfig(kind="http", endpoint_url=url)
