import gc
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from pdial import _http
from pdial.cli import main

from conftest import FIXTURES


def _base_args(tmp_path):
    return {
        "train": str(FIXTURES / "train.jsonl"),
        "test": str(FIXTURES / "test.jsonl"),
        "matrix": str(FIXTURES / "matrix.json"),
        "prompts": str(FIXTURES / "prompts.json"),
        "mock_table": str(FIXTURES / "mock_table.json"),
        "model": str(tmp_path / "model.json"),
        "pca": str(tmp_path / "pca.json"),
    }


def _train_argv(paths, seed=7):
    return [
        "train",
        "--data", paths["train"],
        "--matrix", paths["matrix"],
        "--loss", "contrastive",
        "--margin", "1.0",
        "--lr", "0.05",
        "--epochs", "50",
        "--seed", str(seed),
        "--out", paths["model"],
        "--pca-out", paths["pca"],
        "--dim", "64",
    ]


@pytest.fixture
def trained(tmp_path):
    paths = _base_args(tmp_path)
    assert main(_train_argv(paths)) == 0
    return paths


class TestTrainCommand:
    def test_happy_path_writes_files(self, tmp_path):
        paths = _base_args(tmp_path)
        assert main(_train_argv(paths)) == 0
        assert (tmp_path / "model.json").exists()
        assert (tmp_path / "model.log.json").exists()
        assert (tmp_path / "pca.json").exists()
        model = json.loads((tmp_path / "model.json").read_text())
        assert model["format"] == "pdial-proj-v2"
        assert model["d_in"] == model["d_out"] == 64
        log = json.loads((tmp_path / "model.log.json").read_text())
        assert len(log["epoch_mean_loss"]) == 50

    def test_missing_matrix_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            main(["train", "--data", "x.jsonl", "--out", "m.json"])
        assert err.value.code == 2
        assert "usage" in capsys.readouterr().err

    def test_same_seed_byte_identical_models(self, tmp_path):
        p1 = _base_args(tmp_path)
        p1["model"] = str(tmp_path / "m1.json")
        p1["pca"] = str(tmp_path / "p1.json")
        p2 = _base_args(tmp_path)
        p2["model"] = str(tmp_path / "m2.json")
        p2["pca"] = str(tmp_path / "p2.json")
        assert main(_train_argv(p1)) == 0
        assert main(_train_argv(p2)) == 0
        assert (tmp_path / "m1.json").read_bytes() == (tmp_path / "m2.json").read_bytes()
        assert (tmp_path / "p1.json").read_bytes() == (tmp_path / "p2.json").read_bytes()

    def test_nonexistent_data_is_config_error(self, tmp_path, capsys):
        paths = _base_args(tmp_path)
        paths["train"] = str(tmp_path / "missing.jsonl")
        assert main(_train_argv(paths)) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("exists", [False, True], ids=["missing", "existing"])
    def test_pca_data_without_pca_out_is_config_error(
        self, tmp_path, capsys, exists
    ):
        paths = _base_args(tmp_path)
        argv = _train_argv(paths)
        del argv[argv.index("--pca-out"):argv.index("--pca-out") + 2]
        extra = FIXTURES / "test.jsonl" if exists else tmp_path / "missing.jsonl"
        assert main(argv + ["--pca-data", str(extra)]) == 2
        assert "--pca-data needs --pca-out" in capsys.readouterr().err
        assert not (tmp_path / "model.json").exists()

    @pytest.mark.parametrize("d_out", ["0", "-1"])
    def test_d_out_below_one_exits_2(self, tmp_path, capsys, d_out):
        paths = _base_args(tmp_path)
        assert main(_train_argv(paths) + ["--d-out", d_out]) == 2
        assert "d_out must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "model.json").exists()

    def test_non_utf8_dataset_exits_2(self, tmp_path, capsys):
        paths = _base_args(tmp_path)
        data = tmp_path / "latin1.jsonl"
        data.write_bytes(
            '{"id": "x", "text": "café", "cluster": "a"}\n'.encode("latin-1")
        )
        paths["train"] = str(data)
        assert main(_train_argv(paths)) == 2
        assert "error: cannot read" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--lr", "--margin"])
    def test_nan_rate_or_margin_exits_2(self, tmp_path, capsys, flag):
        paths = _base_args(tmp_path)
        argv = _train_argv(paths)
        argv[argv.index(flag) + 1] = "nan"
        assert main(argv) == 2
        assert "must be > 0, got nan" in capsys.readouterr().err
        assert not (tmp_path / "model.json").exists()

    def test_divergent_lr_is_numeric_error(self, tmp_path, capsys):
        paths = _base_args(tmp_path)
        argv = _train_argv(paths)
        argv[argv.index("--lr") + 1] = "1e200"
        assert main(argv) == 3
        assert "non-finite" in capsys.readouterr().err


class TestEvalCommand:
    def test_happy_path_and_cell_format(self, trained, tmp_path, capsys):
        out_json = str(tmp_path / "report.json")
        out_text = str(tmp_path / "report.txt")
        code = main([
            "eval",
            "--model", trained["model"],
            "--train", trained["train"],
            "--test", trained["test"],
            "--out-json", out_json,
            "--out-text", out_text,
            "--dim", "64",
        ])
        assert code == 0
        text = (tmp_path / "report.txt").read_text()
        # cells rendered as "0.61 (0.14)"-style mean (std)
        assert re.search(r"-?\d\.\d\d \(\d\.\d\d\)", text)
        report = json.loads((tmp_path / "report.json").read_text())
        assert set(report["clusters"]) == {"pro-madrid", "neutral", "pro-barca"}
        assert capsys.readouterr().out.count("Test:") == 3

    def test_unknown_test_cluster_fails(self, trained, tmp_path):
        rogue = tmp_path / "rogue.jsonl"
        rogue.write_text('{"id": "x", "text": "words", "cluster": "unknown"}\n')
        code = main([
            "eval",
            "--model", trained["model"],
            "--train", trained["train"],
            "--test", str(rogue),
            "--out-json", str(tmp_path / "r.json"),
            "--out-text", str(tmp_path / "r.txt"),
            "--dim", "64",
        ])
        assert code == 2

    @pytest.mark.parametrize(
        "flag,value", [("--fan-out", "0"), ("--timeout", "0"), ("--timeout", "-1")]
    )
    def test_bad_backend_limit_exits_2(self, trained, tmp_path, capsys, flag, value):
        code = main([
            "eval",
            "--model", trained["model"],
            "--train", trained["train"],
            "--test", trained["test"],
            "--out-json", str(tmp_path / "r.json"),
            "--out-text", str(tmp_path / "r.txt"),
            "--dim", "64",
            flag, value,
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()


class TestOptimizeCommand:
    def _argv(self, trained, tmp_path, mode="brute", extra=()):
        return [
            "optimize",
            "--model", trained["model"],
            "--pca", trained["pca"],
            "--prompts", trained["prompts"],
            "--mode", mode,
            "--llm", "mock",
            "--mock-table", trained["mock_table"],
            "--out-trace", str(tmp_path / "trace.jsonl"),
            "--dim", "64",
            *extra,
        ]

    def test_brute_with_cluster_target(self, trained, tmp_path, capsys):
        code = main(self._argv(
            trained, tmp_path,
            extra=["--target-cluster", "pro-barca", "--data", trained["train"]],
        ))
        assert code == 0
        out = capsys.readouterr().out
        assert "best prompt:" in out
        assert "barcelona supporter" in out
        lines = (tmp_path / "trace.jsonl").read_text().splitlines()
        assert len(lines) == 10  # 9 evaluations + summary
        summary = json.loads(lines[-1])
        assert summary["mode"] == "brute"
        assert summary["evaluations"] == 9

    def test_gcd_with_xy_target(self, trained, tmp_path):
        code = main(self._argv(
            trained, tmp_path, mode="gcd",
            extra=["--target-x", "0.0", "--target-y", "0.0"],
        ))
        assert code == 0
        lines = (tmp_path / "trace.jsonl").read_text().splitlines()
        assert json.loads(lines[-1])["mode"] == "gcd"

    def test_zero_slot_spec_single_evaluation(self, trained, tmp_path):
        spec_path = tmp_path / "tiny.json"
        spec_path.write_text(json.dumps({
            "base_phrases": ["write a short opinion about spanish football as a neutral observer"],
        }))
        argv = self._argv(
            trained, tmp_path,
            extra=["--target-x", "0.0", "--target-y", "0.0"],
        )
        argv[argv.index("--prompts") + 1] = str(spec_path)
        assert main(argv) == 0
        lines = (tmp_path / "trace.jsonl").read_text().splitlines()
        assert len(lines) == 2  # one evaluation + summary

    def test_missing_target_is_config_error(self, trained, tmp_path, capsys):
        assert main(self._argv(trained, tmp_path)) == 2
        assert "target" in capsys.readouterr().err

    def test_bad_mode_is_usage_error(self, trained, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(self._argv(trained, tmp_path, mode="annealing",
                            extra=["--target-x", "0", "--target-y", "0"]))
        assert err.value.code == 2

    def test_lone_surrogate_in_mock_table_exits_2(self, trained, tmp_path, capsys):
        table = json.loads(Path(trained["mock_table"]).read_text())
        bad = tmp_path / "bad_table.json"
        # json.dumps writes each lone surrogate as the escape \ud800
        bad.write_text(json.dumps({k: v + "\ud800" for k, v in table.items()}))
        argv = self._argv(trained, tmp_path, extra=["--target-x", "0", "--target-y", "0"])
        argv[argv.index("--mock-table") + 1] = str(bad)
        assert main(argv) == 2
        assert "bad_table.json: mock table value is not valid Unicode" in (
            capsys.readouterr().err
        )
        assert not (tmp_path / "trace.jsonl").exists()

    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_non_positive_llm_timeout_exits_2(self, trained, tmp_path, capsys, value):
        argv = self._argv(
            trained, tmp_path,
            extra=["--target-x", "0", "--target-y", "0", "--llm-timeout", value],
        )
        assert main(argv) == 2
        assert "timeout" in capsys.readouterr().err

    def test_nan_temperature_exits_2(self, trained, tmp_path, capsys):
        argv = self._argv(
            trained, tmp_path,
            extra=["--target-x", "0", "--target-y", "0", "--temperature", "nan"],
        )
        assert main(argv) == 2
        assert "temperature must be finite and >= 0, got nan" in capsys.readouterr().err
        assert not (tmp_path / "trace.jsonl").exists()

    def test_budget_guard_exits_2_before_network(self, trained, tmp_path, capsys):
        big = tmp_path / "big.json"
        big.write_text(json.dumps({
            "base_phrases": ["q"],
            "slots": [[f"c{i}{j}" for j in range(7)] for i in range(5)],
        }))
        argv = self._argv(
            trained, tmp_path,
            extra=["--target-x", "0", "--target-y", "0"],
        )
        argv[argv.index("--prompts") + 1] = str(big)
        # llm http with a dead endpoint: the guard must fire first
        argv[argv.index("--llm") + 1] = "http"
        argv += ["--llm-url", "http://127.0.0.1:1/unreachable"]
        assert main(argv) == 2
        assert "budget" in capsys.readouterr().err


class TestPlotCommand:
    def test_plot_dataset_and_trace(self, trained, tmp_path):
        assert main([
            "optimize",
            "--model", trained["model"],
            "--pca", trained["pca"],
            "--prompts", trained["prompts"],
            "--mode", "brute",
            "--llm", "mock",
            "--mock-table", trained["mock_table"],
            "--target-cluster", "pro-madrid",
            "--data", trained["train"],
            "--out-trace", str(tmp_path / "trace.jsonl"),
            "--dim", "64",
        ]) == 0
        out_svg = tmp_path / "plot.svg"
        code = main([
            "plot",
            "--pca", trained["pca"],
            "--model", trained["model"],
            "--data", trained["train"],
            "--trace", str(tmp_path / "trace.jsonl"),
            "--out", str(out_svg),
            "--dim", "64",
        ])
        assert code == 0
        svg = out_svg.read_text()
        assert svg.startswith("<svg")
        # 3 clusters + at least the used base phrases in the legend
        assert svg.count("<rect") >= 4
        assert "<polygon" in svg  # target star from the trace summary

    def test_identical_inputs_identical_bytes(self, trained, tmp_path):
        for name in ("a.svg", "b.svg"):
            assert main([
                "plot",
                "--pca", trained["pca"],
                "--model", trained["model"],
                "--data", trained["train"],
                "--out", str(tmp_path / name),
                "--dim", "64",
            ]) == 0
        assert (tmp_path / "a.svg").read_bytes() == (tmp_path / "b.svg").read_bytes()

    def test_failed_write_keeps_previous_svg(self, trained, tmp_path, monkeypatch):
        import pdial.cli as cli_mod

        out_svg = tmp_path / "plot.svg"
        out_svg.write_text("<svg>previous</svg>")
        before = sorted(tmp_path.iterdir())
        # A lone surrogate cannot be encoded as UTF-8: the write fails midway.
        monkeypatch.setattr(cli_mod, "render_scatter_svg", lambda *a, **k: "<svg>\ud800")
        with pytest.raises(UnicodeEncodeError):
            main([
                "plot",
                "--pca", trained["pca"],
                "--model", trained["model"],
                "--data", trained["train"],
                "--out", str(out_svg),
                "--dim", "64",
            ])
        assert out_svg.read_text() == "<svg>previous</svg>"
        assert sorted(tmp_path.iterdir()) == before  # no temporary file left

    def test_no_point_source_is_config_error(self, trained, tmp_path, capsys):
        code = main([
            "plot",
            "--pca", trained["pca"],
            "--out", str(tmp_path / "x.svg"),
            "--dim", "64",
        ])
        assert code == 2
        assert "nothing to plot" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--target-x", "--target-y"])
    def test_lone_target_flag_is_config_error(self, trained, tmp_path, capsys, flag):
        code = main([
            "plot",
            "--pca", trained["pca"],
            "--model", trained["model"],
            "--data", trained["train"],
            flag, "0.5",
            "--out", str(tmp_path / "x.svg"),
            "--dim", "64",
        ])
        assert code == 2
        assert "both --target-x and --target-y" in capsys.readouterr().err
        assert not (tmp_path / "x.svg").exists()

    def test_empty_dataset_is_config_error(self, trained, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        code = main([
            "plot",
            "--pca", trained["pca"],
            "--model", trained["model"],
            "--data", str(empty),
            "--out", str(tmp_path / "x.svg"),
            "--dim", "64",
        ])
        assert code == 2


class TestRequestCounts:
    """Each command embeds its inputs once, whatever their number."""

    @pytest.fixture
    def backend(self, stub_server, trained):
        from pdial.embedding import hashed_embed

        table = json.loads(Path(trained["mock_table"]).read_text())

        def handler(record):
            body = record["body"]
            if record["path"] == "/v1/embeddings":
                return 200, {"data": [
                    {"index": i, "embedding": hashed_embed(t, 64).tolist()}
                    for i, t in enumerate(body["input"])
                ]}
            prompt = body["messages"][0]["content"]
            return 200, {"choices": [
                {"message": {"content": table.get(prompt, prompt)}}
            ]}

        stub_server.handler_fn = handler
        return stub_server

    @staticmethod
    def _posts(server, path):
        return sum(r["path"] == path for r in server.requests)

    def _embed_flags(self, server):
        return ["--embedding", "http",
                "--embedding-url", f"{server.url}/v1/embeddings"]

    def test_train_with_pca_data_embeds_once(self, backend, trained, tmp_path):
        paths = dict(trained, model=str(tmp_path / "http_model.json"),
                     pca=str(tmp_path / "http_pca.json"))
        argv = _train_argv(paths) + ["--pca-data", paths["test"]]
        assert main(argv + self._embed_flags(backend)) == 0
        assert len(backend.requests) == 1
        texts = [Path(paths[k]).read_text().splitlines() for k in ("train", "test")]
        assert len(backend.requests[0]["body"]["input"]) == sum(map(len, texts))
        # the same bytes as the offline run of the same embeddings
        offline = dict(trained, model=str(tmp_path / "hashed_model.json"),
                       pca=str(tmp_path / "hashed_pca.json"))
        assert main(_train_argv(offline) + ["--pca-data", paths["test"]]) == 0
        for http_path, hashed_path in ((paths["model"], offline["model"]),
                                       (paths["pca"], offline["pca"])):
            assert Path(http_path).read_bytes() == Path(hashed_path).read_bytes()

    def test_eval_embeds_once(self, backend, trained, tmp_path):
        assert main([
            "eval",
            "--model", trained["model"],
            "--train", trained["train"],
            "--test", trained["test"],
            "--out-json", str(tmp_path / "r.json"),
            "--out-text", str(tmp_path / "r.txt"),
            "--dim", "64",
            *self._embed_flags(backend),
        ]) == 0
        assert len(backend.requests) == 1

    def test_optimize_embeds_once_per_batch_chunk(self, backend, trained, tmp_path):
        trace = tmp_path / "trace.jsonl"
        assert main([
            "optimize",
            "--model", trained["model"],
            "--pca", trained["pca"],
            "--prompts", trained["prompts"],
            "--mode", "brute",
            "--llm", "http",
            "--llm-url", f"{backend.url}/v1/chat/completions",
            "--samples-n", "2",
            "--target-cluster", "pro-barca",
            "--data", trained["train"],
            "--out-trace", str(trace),
            "--dim", "64",
            *self._embed_flags(backend),
        ]) == 0
        evaluations = json.loads(trace.read_text().splitlines()[-1])["evaluations"]
        assert evaluations == 9
        # the centroid, then the 18 outputs of the one brute batch in one
        # chunk of at most 32 texts
        assert self._posts(backend, "/v1/embeddings") == 1 + 1
        assert self._posts(backend, "/v1/chat/completions") == 2 * evaluations

    def _optimize_argv(self, server, trained, tmp_path, *extra):
        return [
            "optimize",
            "--model", trained["model"],
            "--pca", trained["pca"],
            "--mode", "brute",
            "--llm", "http",
            "--llm-url", f"{server.url}/v1/chat/completions",
            "--target-x", "0", "--target-y", "0",
            "--out-trace", str(tmp_path / "trace.jsonl"),
            "--dim", "64",
            *self._embed_flags(server),
            *extra,
        ]

    def test_llm_timeout_reaches_chat_requests(
        self, backend, trained, tmp_path, monkeypatch
    ):
        real_open = _http._open
        timeouts = {}

        def recording(request, **kwargs):
            timeouts.setdefault(
                request.full_url.rsplit("/", 1)[-1], set()
            ).add(kwargs["timeout"])
            return real_open(request, **kwargs)

        monkeypatch.setattr(_http, "_open", recording)
        argv = self._optimize_argv(
            backend, trained, tmp_path, "--prompts", trained["prompts"],
            "--llm-timeout", "7.5",
        )
        assert main(argv) == 0
        assert timeouts == {"completions": {7.5}, "embeddings": {30.0}}

    def test_brute_fails_fast_on_a_rejected_prompt(
        self, backend, trained, tmp_path, monkeypatch, capsys
    ):
        spec = tmp_path / "wide.json"
        spec.write_text(json.dumps({
            "base_phrases": ["write about football"],
            "slots": [[f"name player {i}" for i in range(60)]],
        }))
        rejected = "write about football name player 2"  # third in the grid
        answer = backend.handler_fn

        def handler(record):
            messages = record["body"].get("messages")
            if messages and messages[0]["content"] == rejected:
                return 401, {"error": "denied"}
            return answer(record)

        backend.handler_fn = handler
        real_open = _http._open

        def slow_ok(request, **kwargs):
            messages = json.loads(request.data).get("messages")
            if messages and messages[0]["content"] != rejected:
                time.sleep(0.03)  # the rejection arrives before any later reply
            return real_open(request, **kwargs)

        monkeypatch.setattr(_http, "_open", slow_ok)
        fan_out = 2
        argv = self._optimize_argv(
            backend, trained, tmp_path, "--prompts", str(spec),
            "--fan-out", str(fan_out),
        )
        assert main(argv) == 3
        assert "HTTP 401" in capsys.readouterr().err
        chat_posts = self._posts(backend, "/v1/chat/completions")
        assert 3 <= chat_posts <= 3 + fan_out
        assert not (tmp_path / "trace.jsonl").exists()

    def test_unauthorized_exits_3_after_one_request(
        self, stub_server, trained, tmp_path, capsys
    ):
        stub_server.handler_fn = lambda record: (401, {"error": "bad key"})
        assert main([
            "eval",
            "--model", trained["model"],
            "--train", trained["train"],
            "--test", trained["test"],
            "--out-json", str(tmp_path / "r.json"),
            "--out-text", str(tmp_path / "r.txt"),
            "--dim", "64",
            *self._embed_flags(stub_server),
        ]) == 3
        assert "HTTP 401" in capsys.readouterr().err
        assert len(stub_server.requests) == 1

    @staticmethod
    def _pca_of_width(trained, tmp_path, width):
        pca = json.loads(Path(trained["pca"]).read_text())
        pca["mean"] = [0.0] * width
        pca["components"] = [
            [float(i == j) for j in range(width)] for i in range(2)
        ]
        path = tmp_path / f"pca{width}.json"
        path.write_text(json.dumps(pca))
        return str(path)

    @pytest.mark.parametrize("case", [
        "eval-dim", "optimize-dim", "optimize-centroid-dim", "plot-dim",
        "optimize-brute-pca", "optimize-gcd-pca",
    ])
    def test_width_mismatch_exits_2_before_any_request(
        self, backend, trained, tmp_path, capsys, case
    ):
        """A --dim other than the model's d_in, or a PCA of another width
        than its d_out, is refused before the first backend request."""
        command, _, what = case.rpartition("-")
        llm = ["--llm", "http", "--llm-url", f"{backend.url}/v1/chat/completions"]
        opt = ["--model", trained["model"], "--prompts", trained["prompts"],
               "--out-trace", str(tmp_path / "trace.jsonl"), *llm,
               *self._embed_flags(backend)]
        xy = ["--target-x", "0", "--target-y", "0"]
        narrow_pca = self._pca_of_width(trained, tmp_path, 32)
        argv = {
            "eval": _eval_argv(trained, tmp_path, *self._embed_flags(backend)),
            "optimize": ["optimize", "--pca", trained["pca"], *opt, *xy],
            "optimize-centroid": [
                "optimize", "--pca", trained["pca"], *opt,
                "--target-cluster", "pro-barca", "--data", trained["train"],
            ],
            "plot": [
                "plot", "--pca", trained["pca"], "--model", trained["model"],
                "--data", trained["train"], "--out", str(tmp_path / "p.svg"),
                *self._embed_flags(backend),
            ],
            "optimize-brute": [
                "optimize", "--pca", narrow_pca,
                "--mode", "brute", *opt, *xy, "--dim", "64",
            ],
            "optimize-gcd": [
                "optimize", "--pca", narrow_pca,
                "--mode", "gcd", *opt, *xy, "--dim", "64",
            ],
        }[command]
        if what == "dim":
            argv += ["--dim", "32"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert ("d_in=64" if what == "dim" else "d_out=64") in err
        assert backend.requests == []
        assert not (tmp_path / "trace.jsonl").exists()


def _eval_argv(trained, tmp_path, *extra):
    return [
        "eval",
        "--model", trained["model"],
        "--train", trained["train"],
        "--test", trained["test"],
        "--out-json", str(tmp_path / "r.json"),
        "--out-text", str(tmp_path / "r.txt"),
        "--dim", "64",
        *extra,
    ]


class TestBackendFailures:
    @pytest.mark.parametrize("url", [
        "localhost:1234/v1/embeddings", "ftp://127.0.0.1/v1/embeddings",
        "http://127.0.0.1/v1/\u00e9mbeddings", "http://127.0.0.1/v1/my embeddings",
    ])
    def test_embedding_url_without_http_scheme_exits_2(
        self, trained, tmp_path, capsys, url
    ):
        argv = _eval_argv(
            trained, tmp_path, "--embedding", "http", "--embedding-url", url
        )
        assert main(argv) == 2
        assert f"embedding endpoint URL {url!r}" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_llm_url_without_http_scheme_exits_2(self, trained, tmp_path, capsys):
        url = "localhost:1234/v1/chat/completions"
        assert main([
            "optimize",
            "--model", trained["model"],
            "--pca", trained["pca"],
            "--prompts", trained["prompts"],
            "--llm", "http",
            "--llm-url", url,
            "--target-x", "0", "--target-y", "0",
            "--out-trace", str(tmp_path / "trace.jsonl"),
            "--dim", "64",
        ]) == 2
        assert f"llm endpoint URL {url!r}" in capsys.readouterr().err
        assert not (tmp_path / "trace.jsonl").exists()

    def test_rejected_pca_file_is_named(self, trained, tmp_path, capsys):
        pca = json.loads(Path(trained["pca"]).read_text())
        d = len(pca["mean"])
        pca["components"] = [
            [float(i == j) for j in range(d)] for i in range(3)
        ]
        pca["explained_variance"] = [3.0, 2.0, 1.0]
        bad = tmp_path / "three_axes.json"
        bad.write_text(json.dumps(pca))
        assert main([
            "optimize",
            "--model", trained["model"],
            "--pca", str(bad),
            "--prompts", trained["prompts"],
            "--mock-table", trained["mock_table"],
            "--target-x", "0", "--target-y", "0",
            "--out-trace", str(tmp_path / "trace.jsonl"),
            "--dim", "64",
        ]) == 2
        err = capsys.readouterr().err
        assert str(bad) in err
        assert "3 components, expected 2" in err

    @pytest.mark.parametrize("server", ["closed-port", "bad-status-line"])
    def test_failure_below_http_exits_3(
        self, trained, tmp_path, capsys, monkeypatch, closed_port_url,
        raw_server, server,
    ):
        monkeypatch.setattr(_http, "BACKOFF_START_S", 0.0)
        raw_server.reply = b"SPAM 200 OK\r\n\r\n"
        url = closed_port_url if server == "closed-port" else raw_server.url
        argv = _eval_argv(
            trained, tmp_path,
            "--embedding", "http", "--embedding-url", f"{url}/v1/embeddings",
        )
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert "after 3 attempts (transport error: " in err
        assert "Traceback" not in err
        if server == "bad-status-line":
            assert raw_server.connections == _http.MAX_ATTEMPTS
        assert not (tmp_path / "r.json").exists()


# Runs each argv list given as JSON in sys.argv[1] through pdial.cli.main,
# then prints which transport modules the process has loaded.
_RUN_COMMANDS = """
import json
import sys

from pdial.cli import main

for argv in json.loads(sys.argv[1]):
    if main(argv) != 0:
        sys.exit(f"failed: {argv}")
loaded = ["requests", "urllib.request", "http.client"]
print(json.dumps([name for name in loaded if sys.modules.get(name)]))
"""


def _run_fresh(commands, prelude=""):
    """Run ``commands`` in a fresh interpreter; return the transport modules
    it loaded."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.pop("PD_API_KEY", None)
    done = subprocess.run(
        [sys.executable, "-c", prelude + _RUN_COMMANDS, json.dumps(commands)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


class TestColdStart:
    def test_offline_commands_load_no_transport(self, tmp_path):
        paths = _base_args(tmp_path)
        commands = [
            _train_argv(paths),
            _eval_argv(paths, tmp_path),
            [
                "optimize",
                "--model", paths["model"],
                "--pca", paths["pca"],
                "--prompts", paths["prompts"],
                "--llm", "mock",
                "--mock-table", paths["mock_table"],
                "--target-cluster", "pro-barca",
                "--data", paths["train"],
                "--out-trace", str(tmp_path / "trace.jsonl"),
                "--dim", "64",
            ],
        ]
        assert _run_fresh(commands) == []
        assert (tmp_path / "r.json").exists()
        assert (tmp_path / "trace.jsonl").exists()

    def test_http_backend_runs_without_requests(
        self, trained, tmp_path, stub_server
    ):
        from pdial.embedding import hashed_embed

        stub_server.handler_fn = lambda record: (200, {"data": [
            {"index": i, "embedding": hashed_embed(text, 64).tolist()}
            for i, text in enumerate(record["body"]["input"])
        ]})
        command = _eval_argv(
            trained, tmp_path,
            "--embedding", "http",
            "--embedding-url", f"{stub_server.url}/v1/embeddings",
        )
        # a None entry in sys.modules makes importing requests fail
        prelude = "import sys\nsys.modules['requests'] = None\n"
        loaded = _run_fresh([command], prelude)
        assert loaded == ["urllib.request", "http.client"]
        assert len(stub_server.requests) == 1
        assert (tmp_path / "r.json").exists()


class TestRepeatedCommands:
    def test_a_command_leaves_no_parser_garbage(self, tmp_path, capsys):
        # garbage freed by a later collection, in the middle of the next
        # command, made the peak RSS of a many-command process unsteady
        argv = [
            "train", "--data", "d", "--matrix", "m", "--out", "o",
            "--pca-data", str(tmp_path / "p.jsonl"),
        ]
        assert main(argv) == 2
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            assert main(argv) == 2
            gc.collect()
            kinds = {type(obj).__name__ for obj in gc.garbage}
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert not kinds & {"ArgumentParser", "HelpFormatter", "_StoreAction"}
