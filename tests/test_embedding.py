import json
import time

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pdial.embedding import (
    EmbeddingBackendConfig,
    embed_batch,
    fnv1a64,
    hashed_embed,
)
from pdial.errors import (
    BackendError,
    ConfigurationError,
    InputValidationError,
    ProtocolError,
)


# Independent re-implementation used as the oracle for index positions.
def _fnv_oracle(data: bytes) -> int:
    h = 0xCBF29CE484222325
    for byte in data:
        h ^= byte
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


class TestFnv1a64:
    def test_published_vectors(self):
        # Reference values from the FNV specification test suite.
        assert fnv1a64(b"") == 0xCBF29CE484222325
        assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C
        assert fnv1a64(b"foobar") == 0x85944171F73967E8

    def test_matches_independent_implementation(self):
        for token in ["madrid", "barca", "neutral", "x", "42"]:
            assert fnv1a64(token.encode()) == _fnv_oracle(token.encode())


class TestHashedEmbed:
    def test_single_token_is_one_hot(self):
        idx = _fnv_oracle(b"aaa") % 4
        vec = hashed_embed("aaa aaa", 4)
        expected = np.zeros(4)
        expected[idx] = 1.0
        np.testing.assert_array_equal(vec, expected)

    def test_collision_collapses_to_one_hot(self):
        # "a" and "c" collide mod 2 (both hashes are even or both odd is
        # not guaranteed; search for a colliding pair instead).
        base = _fnv_oracle(b"a") % 2
        partner = next(
            t for t in ("b", "c", "d", "e", "f")
            if _fnv_oracle(t.encode()) % 2 == base
        )
        vec = hashed_embed(f"a {partner}", 2)
        assert sorted(vec.tolist()) == [0.0, 1.0]

    def test_two_token_weights_golden(self):
        # Pinned from an independent script: "barca" -> index 6 mod 8,
        # "madrid" -> index 0 mod 8, weights (2, 1)/sqrt(5).
        vec = hashed_embed("barca barca madrid", 8)
        expected = np.zeros(8)
        expected[6] = 0.8944271909999159
        expected[0] = 0.4472135954999579
        np.testing.assert_array_equal(vec, expected)

    def test_three_token_golden_vector(self):
        # Pinned from an independent script: indices 13 ("real"),
        # 8 ("madrid"), 15 ("won") mod 16, each 1/sqrt(3).
        vec = hashed_embed("real madrid won", 16)
        expected = np.zeros(16)
        expected[[8, 13, 15]] = 0.5773502691896258
        np.testing.assert_array_equal(vec, expected)

    def test_case_and_punctuation_invariance(self):
        a = hashed_embed("Real, Madrid!! WON.", 32)
        b = hashed_embed("real madrid won", 32)
        np.testing.assert_array_equal(a, b)

    def test_no_tokens_rejected(self):
        with pytest.raises(InputValidationError):
            hashed_embed("!!! ...", 8)

    def test_dimension_too_small_rejected(self):
        with pytest.raises(InputValidationError):
            hashed_embed("ok", 1)

    @given(st.text(min_size=1, max_size=60))
    def test_unit_norm_and_determinism(self, text):
        try:
            vec = hashed_embed(text, 16)
        except InputValidationError:
            return  # token-free input
        assert abs(np.linalg.norm(vec) - 1.0) < 1e-12
        np.testing.assert_array_equal(vec, hashed_embed(text, 16))


class TestEmbedBatchHashed:
    def test_bare_string_rejected(self):
        with pytest.raises(InputValidationError, match="^texts must be a list, got str$"):
            embed_batch("hello", EmbeddingBackendConfig(dimension=8))

    CFG = EmbeddingBackendConfig(kind="hashed", dimension=8)

    def test_order_preserving_and_deterministic(self):
        texts = ["a b", "b c", "c d", "a b"]
        out = embed_batch(texts, self.CFG)
        assert len(out) == 4
        np.testing.assert_array_equal(out[0], out[3])
        flipped = embed_batch(list(reversed(texts)), self.CFG)
        for vec, rvec in zip(out, reversed(flipped)):
            np.testing.assert_array_equal(vec, rvec)

    def test_identical_texts_identical_vectors(self):
        out = embed_batch(["same text", "same text"], self.CFG)
        np.testing.assert_array_equal(out[0], out[1])

    def test_unit_vectors_of_configured_dimension(self):
        out = embed_batch(["a", "b"], self.CFG)
        for vec in out:
            assert vec.shape == (8,)
            assert abs(np.linalg.norm(vec) - 1.0) < 1e-12

    def test_empty_list_rejected(self):
        with pytest.raises(InputValidationError):
            embed_batch([], self.CFG)

    def test_whitespace_text_rejected(self):
        with pytest.raises(InputValidationError):
            embed_batch(["fine", "   "], self.CFG)


@pytest.mark.usefixtures("no_sleep")
class TestEmbedBatchHttp:
    def _cfg(self, server, **kwargs):
        return EmbeddingBackendConfig(
            kind="http",
            endpoint_url=f"{server.url}/v1/embeddings",
            model_name="test-embed",
            **kwargs,
        )

    @staticmethod
    def _ok_handler(dimension):
        def handler(record):
            inputs = record["body"]["input"]
            data = [
                {"index": i, "embedding": [float(len(t))] * dimension}
                for i, t in enumerate(inputs)
            ]
            # shuffled response order; client must realign by index
            return 200, {"data": list(reversed(data))}

        return handler

    def test_round_trip_and_index_alignment(self, stub_server):
        cfg = self._cfg(stub_server, dimension=4)
        stub_server.handler_fn = self._ok_handler(4)
        out = embed_batch(["xy", "abcde"], cfg)
        np.testing.assert_array_equal(out[0], [2.0] * 4)
        np.testing.assert_array_equal(out[1], [5.0] * 4)
        body = stub_server.requests[0]["body"]
        assert body["model"] == "test-embed"
        assert body["input"] == ["xy", "abcde"]

    def test_batching_chunks_requests(self, stub_server):
        cfg = self._cfg(stub_server, dimension=3, batch_size=2)
        stub_server.handler_fn = self._ok_handler(3)
        texts = ["a", "bb", "ccc", "dddd", "eeeee"]
        out = embed_batch(texts, cfg)
        assert [int(v[0]) for v in out] == [1, 2, 3, 4, 5]
        assert len(stub_server.requests) == 3
        sizes = sorted(len(r["body"]["input"]) for r in stub_server.requests)
        assert sizes == [1, 2, 2]

    def test_bearer_token_from_env(self, stub_server, monkeypatch):
        monkeypatch.setenv("PD_API_KEY", "sk-test-123")
        cfg = self._cfg(stub_server, dimension=2)
        stub_server.handler_fn = self._ok_handler(2)
        embed_batch(["hello"], cfg)
        auth = stub_server.requests[0]["headers"].get("authorization")
        assert auth == "Bearer sk-test-123"

    def test_no_auth_header_without_env(self, stub_server, monkeypatch):
        monkeypatch.delenv("PD_API_KEY", raising=False)
        cfg = self._cfg(stub_server, dimension=2)
        stub_server.handler_fn = self._ok_handler(2)
        embed_batch(["hello"], cfg)
        assert "authorization" not in stub_server.requests[0]["headers"]

    def test_dimension_mismatch_is_fatal_config_error(self, stub_server):
        cfg = self._cfg(stub_server, dimension=16)
        stub_server.handler_fn = self._ok_handler(4)  # wrong size
        with pytest.raises(ConfigurationError):
            embed_batch(["hello"], cfg)

    @pytest.mark.parametrize("embedding, message", [
        (["0.25", "1e0"], "must hold only JSON numbers"),
        ([True, False], "must hold only JSON numbers"),
        ([0.25, True], "must hold only JSON numbers"),
        ({"a": 1}, "must hold only JSON numbers"),
        (None, "must hold only JSON numbers"),
        ("0.5", "must hold only JSON numbers"),
        ([[0.5], [1.0]], "must be a flat list of JSON numbers"),
        (0.5, "must be a flat list of JSON numbers"),
        ([[0.5], [1.0, 2.0]], "sequence"),
        ([0.5, 10**400], "holds an integer beyond the float64 range"),
        ([True, 2**64], "must hold only JSON numbers"),
        (["0.5", 2**64], "must hold only JSON numbers"),
    ], ids=["strings", "booleans", "true-among-numbers", "object", "null",
            "string", "nested", "scalar", "ragged", "400-digit-integer",
            "true-beside-2**64", "string-beside-2**64"])
    def test_entry_that_is_not_a_flat_list_of_numbers(
        self, stub_server, embedding, message
    ):
        cfg = self._cfg(stub_server, dimension=2)
        stub_server.handler_fn = lambda record: (
            200, {"data": [{"index": 0, "embedding": embedding}]}
        )
        with pytest.raises(ProtocolError, match=f"embedding at index 0.*{message}"):
            embed_batch(["hello"], cfg)
        assert len(stub_server.requests) == 1

    def test_integers_beyond_64_bits_are_json_numbers(self, stub_server):
        cfg = self._cfg(stub_server, dimension=3)
        stub_server.handler_fn = lambda record: (
            200, {"data": [{"index": 0, "embedding": [2**64, -(2**70), 0.5]}]}
        )
        out = embed_batch(["hello"], cfg)
        assert out[0].tolist() == [2.0**64, -(2.0**70), 0.5]

    def test_http_failure_retries_then_raises(self, stub_server):
        cfg = self._cfg(stub_server, dimension=2)
        stub_server.handler_fn = lambda record: (500, {"error": "boom"})
        with pytest.raises(BackendError, match="HTTP 500"):
            embed_batch(["hello"], cfg)
        assert len(stub_server.requests) == 3  # three attempts

    def test_recovers_after_transient_failure(self, stub_server):
        cfg = self._cfg(stub_server, dimension=2)
        ok = self._ok_handler(2)
        stub_server.handler_fn = lambda record: (
            (503, {}) if len(stub_server.requests) == 1 else ok(record)
        )
        out = embed_batch(["hey"], cfg)
        assert out[0].shape == (2,)
        assert len(stub_server.requests) == 2

    def test_missing_index_is_protocol_error(self, stub_server):
        cfg = self._cfg(stub_server, dimension=2)
        stub_server.handler_fn = lambda record: (200, {"data": []})
        with pytest.raises(ProtocolError):
            embed_batch(["hello"], cfg)

    @staticmethod
    def _indices_handler(indices):
        def handler(record):
            return 200, {
                "data": [{"index": i, "embedding": [1.0, 2.0]} for i in indices]
            }

        return handler

    @pytest.mark.parametrize(
        "indices, match",
        [
            ([-1, 0], "index -1 for 2 inputs"),
            ([0, 2], "index 2 for 2 inputs"),
            ([0, 0, 1], "repeated index 0 for 2 inputs"),
            ([0, True], "index True for 2 inputs"),
        ],
        ids=["negative", "n", "duplicate", "json-true"],
    )
    def test_bad_index_is_protocol_error(self, stub_server, indices, match):
        cfg = self._cfg(stub_server, dimension=2)
        stub_server.handler_fn = self._indices_handler(indices)
        with pytest.raises(ProtocolError, match=match):
            embed_batch(["first", "second"], cfg)

    @pytest.mark.parametrize("status", [400, 401, 403, 404, 422])
    def test_client_error_is_not_retried(self, stub_server, status):
        cfg = self._cfg(stub_server, dimension=2)
        stub_server.handler_fn = lambda record: (status, {"error": "no"})
        with pytest.raises(BackendError, match=f"HTTP {status}"):
            embed_batch(["hello"], cfg)
        assert len(stub_server.requests) == 1

    @pytest.mark.parametrize("status", [408, 429])
    def test_transient_client_error_is_retried(self, stub_server, status):
        cfg = self._cfg(stub_server, dimension=2)
        stub_server.handler_fn = lambda record: (status, {"error": "later"})
        with pytest.raises(BackendError, match=f"HTTP {status}"):
            embed_batch(["hello"], cfg)
        assert len(stub_server.requests) == 3

    def test_concurrent_chunks_reassembled_in_input_order(self, stub_server):
        import time as time_mod

        cfg = self._cfg(stub_server, dimension=2, batch_size=1)
        ok = self._ok_handler(2)

        def slow_first(record):
            # earlier inputs answer slower; order must not depend on
            # completion order
            if record["body"]["input"][0] == "aaa":
                time_mod.sleep(0.05)
            return ok(record)

        stub_server.handler_fn = slow_first
        out = embed_batch(["aaa", "bb", "c"], cfg)
        assert [int(v[0]) for v in out] == [3, 2, 1]
        assert len(stub_server.requests) == 3

    def test_failed_chunk_stops_new_chunks(self, stub_server, monkeypatch):
        from pdial import _http

        fan_out = 2
        _http.set_fan_out(fan_out)
        cfg = self._cfg(stub_server, dimension=2, batch_size=1)
        texts = [f"text {i}" for i in range(20)]
        rejected = texts[2]
        ok = self._ok_handler(2)
        stub_server.handler_fn = lambda record: (
            (401, {"error": "denied"})
            if record["body"]["input"] == [rejected] else ok(record)
        )
        real_open = _http._open

        def slow_ok(request, **kwargs):
            if json.loads(request.data)["input"] != [rejected]:
                time.sleep(0.03)  # the rejection arrives before any later reply
            return real_open(request, **kwargs)

        monkeypatch.setattr(_http, "_open", slow_ok)
        with pytest.raises(BackendError, match="HTTP 401"):
            embed_batch(texts, cfg)
        assert 3 <= len(stub_server.requests) <= 3 + fan_out


class TestConfigValidation:
    def test_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            EmbeddingBackendConfig(kind="quantum")

    @pytest.mark.parametrize("name,value,message", [
        ("dimension", 64.0, "dimension must be int, got 64.0"),
        ("dimension", True, "dimension must be int, got True"),
        ("batch_size", "8", "batch_size must be int, got '8'"),
        ("timeout", "30", "timeout must be float, got '30'"),
        ("timeout", None, "timeout must be float, got None"),
        ("kind", None, "kind must be str, got None"),
        ("endpoint_url", b"http://h", "endpoint_url must be str, got b'http://h'"),
        ("model_name", 0, "model_name must be str, got 0"),
    ])
    def test_values_of_the_wrong_json_type_rejected(self, name, value, message):
        # a ConfigurationError, which the CLI reports with exit code 2
        with pytest.raises(ConfigurationError) as err:
            EmbeddingBackendConfig(**{name: value})
        assert str(err.value) == message

    def test_bad_dimension(self):
        with pytest.raises(ConfigurationError):
            EmbeddingBackendConfig(dimension=1)

    def test_bad_batch_size(self):
        with pytest.raises(ConfigurationError):
            EmbeddingBackendConfig(batch_size=0)

    def test_http_needs_url(self):
        with pytest.raises(ConfigurationError):
            EmbeddingBackendConfig(kind="http")

    @pytest.mark.parametrize("url", [
        "localhost:1234/v1/embeddings",  # parses as scheme "localhost"
        "127.0.0.1:1234/v1/embeddings",
        "ftp://host/v1/embeddings",
        "https:///v1/embeddings",
        "http://host:port/v1/embeddings",
        "http://[::1/v1/embeddings",
        "http://host/v1/\u00e9mbeddings",  # http.client sends ASCII only
        "http://host/v1/my embeddings",
        "http://host/v1/embeddings\n",
    ])
    def test_http_url_needs_scheme_and_host(self, url):
        with pytest.raises(ConfigurationError, match="embedding endpoint URL"):
            EmbeddingBackendConfig(kind="http", endpoint_url=url)

    @pytest.mark.parametrize("url", [
        "http://127.0.0.1:8080/v1/embeddings", "https://[::1]/v1/embeddings",
        "HTTPS://Example.com/v1/embeddings",
    ])
    def test_http_and_https_urls_pass(self, url):
        EmbeddingBackendConfig(kind="http", endpoint_url=url)

    def test_url_of_hashed_backend_is_not_checked(self):
        EmbeddingBackendConfig(kind="hashed", endpoint_url="unused")

    @pytest.mark.parametrize(
        "timeout", [0.0, -1.0, float("nan"), float("inf"), 1e300]
    )
    def test_non_positive_timeout(self, timeout):
        with pytest.raises(ConfigurationError, match="timeout must be > 0"):
            EmbeddingBackendConfig(timeout=timeout)
