import gc
import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from pdial import _http
from pdial.cli import main
from pdial.errors import (
    BackendError,
    ConfigurationError,
    FormatError,
    InputValidationError,
    NumericError,
    PdialError,
    ProtocolError,
)

from pdial.pca import PcaModel, PerspectivePoint

from conftest import FIXTURES, read_artifact, write_artifact


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
        header, _ = read_artifact(tmp_path / "model.json")
        assert header["format"] == "pdial-proj-v3"
        assert header["d_in"] == header["d_out"] == 64
        log = json.loads((tmp_path / "model.log.json").read_text())
        assert len(log["epoch_mean_loss"]) == 50

    def test_seed_beyond_64_bits_exits_2(self, tmp_path, capsys):
        paths = _base_args(tmp_path)
        assert main(_train_argv(paths, seed=2**64 + 7)) == 2
        assert capsys.readouterr().err == (
            "error: seed must be a signed 64-bit integer, "
            "got 18446744073709551623\n"
        )
        assert not (tmp_path / "model.json").exists()

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
        for value in ("nan", "inf"):
            argv = _train_argv(paths)
            argv[argv.index(flag) + 1] = value
            assert main(argv) == 2
            assert f"must be > 0, got {value}" in capsys.readouterr().err
            assert not (tmp_path / "model.json").exists()

    def test_blank_text_names_file_and_line(self, tmp_path, capsys):
        data = tmp_path / "ws.jsonl"
        data.write_text(
            '{"id": "a", "text": "left", "cluster": "left"}\n'
            '{"id": "b", "text": "   ", "cluster": "right"}\n'
        )
        paths = _base_args(tmp_path)
        paths["train"] = str(data)
        assert main(_train_argv(paths)) == 2
        assert f"error: {data}:2: document 'b' has empty text" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize("case,message", [
        ("d-out-1", "point dimension must be >= 2, got 1"),
        ("two-documents", "PCA needs at least 3 points, got 2"),
    ], ids=["d-out-1", "two-documents"])
    def test_pca_that_cannot_be_fit_writes_nothing(
        self, tmp_path, capsys, case, message
    ):
        out = tmp_path / "out"
        out.mkdir()
        paths = _base_args(out)
        argv = _train_argv(paths)
        if case == "d-out-1":
            argv += ["--d-out", "1"]
        else:
            data = tmp_path / "two.jsonl"
            data.write_text(
                '{"id": "a", "text": "hala madrid", "cluster": "pro-madrid"}\n'
                '{"id": "b", "text": "visca barca", "cluster": "pro-barca"}\n'
            )
            argv[argv.index("--data") + 1] = str(data)
        assert main(argv) == 2
        assert f"error: {message}\n" == capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_divergent_lr_is_numeric_error(self, tmp_path, capsys):
        paths = _base_args(tmp_path)
        argv = _train_argv(paths)
        argv[argv.index("--lr") + 1] = "1e200"
        assert main(argv) == 3
        assert "non-finite" in capsys.readouterr().err


    def test_loss_summing_past_float64_exits_3_and_writes_nothing(
        self, tmp_path, capsys
    ):
        """Each pair's loss (~5e307) is finite but the epoch's sum is
        not: no training log with an Infinity in it, and no model."""
        paths = _base_args(tmp_path)
        argv = _train_argv(paths)
        for flag, value in (("--lr", "1e-300"), ("--margin", "1e154"), ("--epochs", "1")):
            argv[argv.index(flag) + 1] = value
        assert main(argv) == 3
        assert "the loss of epoch 0 sums beyond the float64 range" in (
            capsys.readouterr().err
        )
        assert not any(tmp_path.glob("model*")) and not any(tmp_path.glob("pca*"))


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
        out = capsys.readouterr().out
        assert out == text
        assert out.count("Test:") == 3

    def test_inf_projection_exits_3(self, trained, tmp_path, capsys):
        """Every base vector's projection overflows: a numeric error, and
        no report."""
        import numpy as np

        from pdial.metric import ProjectionModel
        from pdial.persistence import load_model, save_model

        _, cfg = load_model(trained["model"])
        huge = str(tmp_path / "huge.json")
        save_model(huge, ProjectionModel.from_weights(np.full((64, 64), 1e308)), cfg)
        argv = _eval_argv(trained, tmp_path)
        argv[argv.index("--model") + 1] = huge
        assert main(argv) == 3
        assert "has a non-finite projected vector" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()
        assert not (tmp_path / "r.txt").exists()

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
        "flag,value",
        [("--fan-out", "0"), ("--timeout", "0"), ("--timeout", "-1"),
         ("--timeout", "inf")],
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


@pytest.mark.parametrize("error,code", [
    (ConfigurationError, 2),
    (FormatError, 2),
    (InputValidationError, 2),
    (NumericError, 3),
    (ProtocolError, 3),
    (BackendError, 3),
    (PdialError, 3),
], ids=lambda v: getattr(v, "__name__", str(v)))
def test_each_error_class_exits_with_its_code(
    trained, tmp_path, capsys, monkeypatch, error, code
):
    import pdial.evaluation as evaluation_mod

    def fail(*args):
        raise error("injected")

    monkeypatch.setattr(evaluation_mod, "cluster_similarity_report", fail)
    assert main(_eval_argv(trained, tmp_path)) == code
    assert capsys.readouterr().err == "error: injected\n"


class TestOptimizeCommand:
    def _argv(self, trained, tmp_path, mode="brute", extra=()):
        return _optimize_argv(trained, tmp_path, "--mode", mode, *extra)

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

    @pytest.mark.parametrize("value", ["0", "-5", "inf"])
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
        i = argv.index("--mock-table")
        del argv[i:i + 2]
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
        import pdial.plotting as plotting_mod

        out_svg = tmp_path / "plot.svg"
        out_svg.write_text("<svg>previous</svg>")
        before = sorted(tmp_path.iterdir())
        # A lone surrogate cannot be encoded as UTF-8: the write fails midway.
        monkeypatch.setattr(
            plotting_mod, "render_scatter_svg", lambda *a, **k: "<svg>\ud800"
        )
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

    _EVALUATION = json.dumps({
        "index": 0, "assignment": {"base_index": 0, "choices": []},
        "prompt": "p", "outputs": ["o"], "point": [0.5, 0.5], "loss": 0.5,
        "best_so_far": 0.5,
    })

    @pytest.mark.parametrize("lines,message", [
        (["[1, 2]"], ":1: expected a JSON object"),
        (
            [_EVALUATION, '{"summary": true, "target": "ab"}'],
            ":2: malformed trace summary: target expected [x, y]",
        ),
        (
            [_EVALUATION, '{"summary": true, "target": [1]}'],
            ":2: malformed trace summary: target expected [x, y]",
        ),
        ([], ": trace file has no summary line"),
        ([_EVALUATION], ": trace file has no summary line"),
        (
            [_EVALUATION, json.dumps({
                "summary": True, "mode": "gcd", "target": [1.0, 1.0],
                "evaluations": 1, "best_index": 0, "best_prompt": "p",
                "best_loss": 99.0,
            })],
            ":2: 'best_loss' is 99.0, the evaluations give 0.5",
        ),
    ], ids=["list-line", "string-target", "one-number-target", "empty",
            "no-summary", "edited-best-loss"])
    def test_malformed_trace_exits_2(
        self, trained, tmp_path, capsys, lines, message
    ):
        trace = tmp_path / "trace.jsonl"
        trace.write_text("\n".join(lines) + "\n")
        code = main([
            "plot",
            "--pca", trained["pca"],
            "--trace", str(trace),
            "--out", str(tmp_path / "x.svg"),
            "--dim", "64",
        ])
        assert code == 2
        assert f"{trace}{message}" in capsys.readouterr().err
        assert not (tmp_path / "x.svg").exists()

    def test_path_is_the_strict_improvements(self, trained, tmp_path, monkeypatch):
        import pdial.plotting as plotting_mod

        losses = [0.5, 0.7, 0.5, 0.2, 0.2, 0.3, 0.1]
        lines = [
            json.dumps({
                "index": i, "assignment": {"base_index": i % 2, "choices": []},
                "prompt": f"p{i}", "outputs": ["o"], "point": [float(i), -1.0],
                "loss": loss, "best_so_far": min(losses[: i + 1]),
            })
            for i, loss in enumerate(losses)
        ]
        lines.append(json.dumps({
            "summary": True, "mode": "brute", "target": [0.25, -0.5],
            "evaluations": 7, "best_index": 6, "best_prompt": "p6", "best_loss": 0.1,
        }))
        trace = tmp_path / "trace.jsonl"
        trace.write_text("\n".join(lines) + "\n")
        drawn = {}
        monkeypatch.setattr(
            plotting_mod, "render_scatter_svg",
            lambda groups, **kwargs: drawn.update(kwargs) or "<svg/>",
        )
        assert main([
            "plot", "--pca", trained["pca"], "--trace", str(trace),
            "--out", str(tmp_path / "x.svg"), "--dim", "64",
        ]) == 0
        assert drawn["path_points"] == [
            PerspectivePoint(float(i), -1.0) for i in (0, 3, 6)
        ]
        assert drawn["target"] == PerspectivePoint(0.25, -0.5)

    def test_target_flags_override_the_trace_target(
        self, trained, tmp_path, monkeypatch
    ):
        import pdial.plotting as plotting_mod

        trace = tmp_path / "trace.jsonl"
        trace.write_text(self._EVALUATION + "\n" + json.dumps({
            "summary": True, "mode": "gcd", "target": [1.0, 1.0],
            "evaluations": 1, "best_index": 0, "best_prompt": "p",
            "best_loss": 0.5,
        }) + "\n")
        drawn = {}
        monkeypatch.setattr(
            plotting_mod, "render_scatter_svg",
            lambda groups, **kwargs: drawn.update(kwargs) or "<svg/>",
        )
        assert main([
            "plot", "--pca", trained["pca"], "--trace", str(trace),
            "--target-x", "-2", "--target-y", "3",
            "--out", str(tmp_path / "x.svg"), "--dim", "64",
        ]) == 0
        assert drawn["target"] == PerspectivePoint(-2.0, 3.0)

    def test_empty_dataset_is_config_error(self, trained, tmp_path, capsys):
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
        assert capsys.readouterr().err == (
            f"error: {empty}: dataset file holds no documents\n"
        )
        assert not (tmp_path / "x.svg").exists()

    def test_target_beyond_the_drawable_extent_exits_2(
        self, trained, tmp_path, capsys
    ):
        """A star at 1.75e308 pads the x extent past the float range,
        where the star would be drawn at cx="nan"."""
        trace = tmp_path / "trace.jsonl"
        assert main(_optimize_argv(
            trained, tmp_path, "--mode", "gcd", "--target-x", "0.5", "--target-y", "0.5"
        )) == 0
        capsys.readouterr()
        code = main([
            "plot", "--pca", trained["pca"], "--trace", str(trace),
            "--target-x", "1.75e308", "--target-y", "0",
            "--out", str(tmp_path / "x.svg"), "--dim", "64",
        ])
        assert code == 2
        assert "no finite, non-zero span" in capsys.readouterr().err
        assert not (tmp_path / "x.svg").exists()


@pytest.mark.parametrize("extra,message", [
    (
        ["optimize", "--target-cluster", "pro-barca", "--data", "{train}",
         "--target-x", "0.5", "--target-y", "0.5"],
        "give either --target-cluster or --target-x and --target-y, not both",
    ),
    (
        ["optimize", "--target-x", "0.5", "--target-y", "0.5",
         "--data", "{tmp}/missing.jsonl"],
        "--data is read only with --target-cluster",
    ),
    (
        ["plot", "--model", "{tmp}/missing.json", "--trace", "{tmp}/t.jsonl"],
        "--model is read only with --data",
    ),
    (
        ["optimize", "--mode", "brute", "--max-sweeps", "3",
         "--target-x", "0.5", "--target-y", "0.5"],
        "--max-sweeps is read only with --mode gcd",
    ),
    (
        ["optimize", "--llm", "http", "--llm-url", "http://127.0.0.1:1/x",
         "--mock-table", "{tmp}/missing.json",
         "--target-x", "0.5", "--target-y", "0.5"],
        "--mock-table is read only with --llm mock",
    ),
    (
        ["plot", "--data", "{train}"],
        "--data needs --model to project documents",
    ),
], ids=["cluster-and-xy", "data-without-cluster", "model-without-data",
        "brute-with-max-sweeps", "http-with-mock-table", "data-without-model"])
def test_an_ignored_flag_exits_2_before_anything_runs(
    tmp_path, capsys, extra, message
):
    """The model and PCA files do not exist: the flags are checked first."""
    command, *flags = (
        a.format(tmp=tmp_path, train=FIXTURES / "train.jsonl") for a in extra
    )
    argv = [command, *flags, "--pca", str(tmp_path / "pca.json"), "--dim", "64"]
    if command == "optimize":
        argv += [
            "--model", str(tmp_path / "model.json"),
            "--prompts", str(FIXTURES / "prompts.json"),
            "--out-trace", str(tmp_path / "out"),
        ]
    else:
        argv += ["--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert f"error: {message}\n" == capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


_TRAIN = ["train", "--data", "{train}", "--matrix", "{matrix}", "--dim", "64"]
_SAME_FILE = {
    "model-and-pca": [*_TRAIN, "--out", "{tmp}/m.json", "--pca-out", "{tmp}/m.json"],
    "model-and-log": [*_TRAIN, "--out", "{tmp}/a.json", "--log-out", "{tmp}/a.json"],
    "derived-log-and-pca": [
        *_TRAIN, "--out", "{tmp}/a.json", "--pca-out", "{tmp}/sub/../a.log.json",
    ],
    "model-over-data": [
        "train", "--data", "{tmp}/t.jsonl", "--matrix", "{matrix}",
        "--out", "{tmp}/t.jsonl", "--dim", "64",
    ],
    "report-json-and-text": [
        "eval", "--model", "{tmp}/model.json", "--train", "{train}",
        "--test", "{train}", "--out-json", "{tmp}/r", "--out-text", "{tmp}/r",
        "--dim", "64",
    ],
    "trace-over-model-by-symlink": [
        "optimize", "--model", "{tmp}/model.json", "--pca", "{tmp}/pca.json",
        "--prompts", "{prompts}", "--target-x", "0", "--target-y", "0",
        "--out-trace", "{tmp}/link", "--dim", "64",
    ],
    "svg-over-pca": [
        "plot", "--pca", "{tmp}/pca.json", "--model", "{tmp}/model.json",
        "--data", "{train}", "--out", "{tmp}/./pca.json", "--dim", "64",
    ],
}


@pytest.mark.parametrize("argv", list(_SAME_FILE.values()), ids=list(_SAME_FILE))
def test_an_output_on_another_path_exits_2_and_touches_nothing(
    trained, tmp_path, capsys, argv
):
    """Two outputs, or an output and an input, that resolve to one file:
    the run would write one over the other."""
    shutil.copy(FIXTURES / "train.jsonl", tmp_path / "t.jsonl")
    (tmp_path / "sub").mkdir()
    (tmp_path / "link").symlink_to(tmp_path / "model.json")
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    names = dict(
        tmp=tmp_path, train=FIXTURES / "train.jsonl",
        matrix=FIXTURES / "matrix.json", prompts=FIXTURES / "prompts.json",
    )
    assert main([a.format(**names) for a in argv]) == 2
    assert re.fullmatch(
        r"error: output \S+ and (input|output) \S+ are the same file\n",
        capsys.readouterr().err,
    )
    assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before


@pytest.mark.parametrize("command,role", [
    ("train", "--data"), ("train", "--pca-data"), ("eval", "--train"),
    ("eval", "--test"), ("optimize", "--data"),
])
def test_an_empty_dataset_file_exits_2_naming_it(
    trained, tmp_path, capsys, command, role
):
    """The loader names the file, whichever command reads it, before
    any other check can fail on the empty list."""
    empty = tmp_path / "empty.jsonl"
    empty.write_text("\n")
    argv = {
        "train": _train_argv({
            **trained, "model": str(tmp_path / "new.json"),
            "pca": str(tmp_path / "new-pca.json"),
        }),
        "eval": _eval_argv(trained, tmp_path),
        "optimize": _optimize_argv(
            trained, tmp_path, "--target-cluster", "pro-barca",
            "--data", trained["train"],
        ),
    }[command]
    if role == "--pca-data":
        argv += [role, str(empty)]
    else:
        argv[argv.index(role) + 1] = str(empty)
    before = sorted(tmp_path.iterdir())
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: {empty}: dataset file holds no documents\n"
    )
    assert sorted(tmp_path.iterdir()) == before


_MINIMAL_ARGV = {
    "train": ["--data", "d", "--matrix", "m", "--out", "o"],
    "eval": ["--model", "m", "--train", "a", "--test", "b", "--out-json", "j",
             "--out-text", "t"],
    "optimize": ["--model", "m", "--pca", "p", "--prompts", "s", "--out-trace", "t"],
    "plot": ["--pca", "p", "--out", "o"],
}


@pytest.mark.parametrize("command", list(_MINIMAL_ARGV))
def test_each_flag_default_is_its_owners(command, capsys):
    """The llm flags keep literal defaults (``train`` may not load the llm
    client to read them); the rest are read from their owners. Either
    way each equals the default of the config field it fills."""
    from pdial.cli import _embedding_cfg, _llm_cfg, build_parser
    from pdial.embedding import EmbeddingBackendConfig
    from pdial.llm_client import LlmBackendConfig
    from pdial.metric import TrainConfig

    args = build_parser().parse_args([command, *_MINIMAL_ARGV[command]])
    assert args.fan_out == _http.DEFAULT_FAN_OUT
    assert _embedding_cfg(args) == EmbeddingBackendConfig()
    if command == "train":
        assert TrainConfig(
            loss_kind=args.loss, margin_m=args.margin, learning_rate=args.lr,
            epochs=args.epochs, seed=args.seed,
            binarize_threshold=args.binarize_threshold,
        ) == TrainConfig()
    if command == "optimize":
        cfg = LlmBackendConfig()
        assert _llm_cfg(args) == cfg
        with pytest.raises(SystemExit):
            main([command, "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert f"seconds per http llm request (default: {cfg.timeout:g})" in help_text
        assert f"llm backend kind (default: {cfg.kind}, offline)" in help_text


def test_max_sweeps_help_states_the_optimizer_default(capsys):
    from pdial.optimizer import DEFAULT_MAX_SWEEPS

    with pytest.raises(SystemExit) as done:
        main(["optimize", "--help"])
    assert done.value.code == 0
    help_text = " ".join(capsys.readouterr().out.split())
    assert f"GCD sweep limit (default: {DEFAULT_MAX_SWEEPS})" in help_text


def test_no_command_builds_the_dense_W(tmp_path, monkeypatch):
    """Every command applies the model through ``project``."""
    from pdial.metric import ProjectionModel

    def no_dense_W(self):
        raise AssertionError("a command read ProjectionModel.W")

    monkeypatch.setattr(ProjectionModel, "W", property(no_dense_W))
    paths = _base_args(tmp_path)
    assert main(_train_argv(paths)) == 0
    assert main(_eval_argv(paths, tmp_path)) == 0
    for mode in ("gcd", "brute"):
        assert main([
            "optimize",
            "--model", paths["model"],
            "--pca", paths["pca"],
            "--prompts", paths["prompts"],
            "--mode", mode,
            "--llm", "mock",
            "--mock-table", paths["mock_table"],
            "--target-cluster", "pro-barca",
            "--data", paths["train"],
            "--out-trace", str(tmp_path / f"{mode}.jsonl"),
            "--dim", "64",
        ]) == 0
    assert main([
        "plot",
        "--pca", paths["pca"],
        "--model", paths["model"],
        "--data", paths["train"],
        "--trace", str(tmp_path / "gcd.jsonl"),
        "--out", str(tmp_path / "plot.svg"),
        "--dim", "64",
    ]) == 0
    assert (tmp_path / "plot.svg").exists()


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
        # the cluster's 5 documents and the 18 outputs of the one brute
        # batch in one chunk of at most 32 texts
        assert self._posts(backend, "/v1/embeddings") == 1
        assert self._posts(backend, "/v1/chat/completions") == 2 * evaluations

    def _cluster_argv(self, server, trained, tmp_path, cluster, mode="gcd"):
        return [
            "optimize",
            "--model", trained["model"],
            "--pca", trained["pca"],
            "--prompts", trained["prompts"],
            "--mode", mode,
            "--llm", "http",
            "--llm-url", f"{server.url}/v1/chat/completions",
            "--samples-n", "2",
            "--target-cluster", cluster,
            "--data", trained["train"],
            "--out-trace", str(tmp_path / "trace.jsonl"),
            "--dim", "64",
            *self._embed_flags(server),
        ]

    # the first batch: GCD's 3 base phrases, or brute force's whole grid
    @pytest.mark.parametrize("mode,first_batch", [("gcd", 3), ("brute", 9)])
    def test_cluster_documents_lead_the_first_embedding_request(
        self, backend, trained, tmp_path, mode, first_batch
    ):
        from pdial.persistence import load_dataset, load_trace

        argv = self._cluster_argv(backend, trained, tmp_path, "pro-barca", mode)
        assert main(argv) == 0
        paths = [r["path"] for r in backend.requests]
        first = paths.index("/v1/embeddings")
        assert paths[:first] == ["/v1/chat/completions"] * (first_batch * 2)
        docs = [d.text for d in load_dataset(trained["train"])
                if d.cluster == "pro-barca"]
        batch = load_trace(tmp_path / "trace.jsonl").evaluations[:first_batch]
        outputs = [t for ev in batch for t in ev.outputs]
        assert backend.requests[first]["body"]["input"] == list(
            dict.fromkeys(docs + outputs)
        )
        assert len(docs) == 5

    def test_cluster_without_documents_exits_2_before_any_request(
        self, backend, trained, tmp_path, capsys
    ):
        argv = self._cluster_argv(backend, trained, tmp_path, "pro-atletico")
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == (
            "error: cluster 'pro-atletico' has no documents in the dataset\n"
        )
        assert backend.requests == []
        assert not (tmp_path / "trace.jsonl").exists()

    def test_failing_embeddings_exit_3_without_a_trace(
        self, backend, trained, tmp_path, capsys
    ):
        answer = backend.handler_fn

        def handler(record):
            if record["path"] == "/v1/embeddings":
                return 400, {"error": "no embeddings today"}
            return answer(record)

        backend.handler_fn = handler
        argv = self._cluster_argv(backend, trained, tmp_path, "pro-barca")
        assert main(argv) == 3
        assert "HTTP 400" in capsys.readouterr().err
        assert self._posts(backend, "/v1/embeddings") == 1
        # found out after the first batch's chat requests
        assert self._posts(backend, "/v1/chat/completions") == 3 * 2
        assert not (tmp_path / "trace.jsonl").exists()

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
        from pdial.persistence import load_pca, save_pca

        pca = load_pca(trained["pca"])
        path = tmp_path / f"pca{width}.json"
        save_pca(path, PcaModel(np.zeros(width), np.eye(2, width),
                                pca.explained_variance))
        return str(path)

    def test_non_finite_pca_exits_2_before_any_request(
        self, backend, trained, tmp_path, capsys
    ):
        header, values = read_artifact(trained["pca"])
        values[0] = float("nan")  # the first entry of the mean
        path = tmp_path / "nan_pca.json"
        write_artifact(path, header, [values])
        assert main([
            "optimize", "--pca", str(path), "--model", trained["model"],
            "--prompts", trained["prompts"],
            "--out-trace", str(tmp_path / "trace.jsonl"),
            "--llm", "http", "--llm-url", f"{backend.url}/v1/chat/completions",
            *self._embed_flags(backend), "--target-x", "0", "--target-y", "0",
        ]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: mean contains non-finite values\n"
        )
        assert backend.requests == []
        assert not (tmp_path / "trace.jsonl").exists()

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


def _optimize_argv(trained, tmp_path, *extra):
    return [
        "optimize",
        "--model", trained["model"],
        "--pca", trained["pca"],
        "--prompts", trained["prompts"],
        "--llm", "mock",
        "--mock-table", trained["mock_table"],
        "--out-trace", str(tmp_path / "trace.jsonl"),
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
        header, values = read_artifact(trained["pca"])
        header["explained_variance"] = [3.0, 2.0, 1.0]
        bad = tmp_path / "three_axes.json"
        write_artifact(bad, header, [values])
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
        assert "explained_variance length must match component count" in err

    @pytest.mark.parametrize(
        "key", ["bad\nkey", "bad\u20ackey", "bad\u00e9key", "bad key", "bad\x7fkey"],
        ids=["newline", "non-latin-1", "latin-1", "space", "control"],
    )
    def test_unusable_api_key_exits_2_before_any_request(
        self, stub_server, tmp_path, capsys, monkeypatch, key
    ):
        monkeypatch.setenv(_http.API_KEY_ENV, key)
        paths = _base_args(tmp_path)
        argv = [
            *_train_argv(paths), "--embedding", "http",
            "--embedding-url", f"{stub_server.url}/v1/embeddings",
        ]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == "error: PD_API_KEY must be printable ASCII without spaces\n"
        assert "bad" not in err
        assert stub_server.requests == []
        assert not (tmp_path / "model.json").exists()

    @pytest.mark.parametrize(
        "embedding", [{"a": 1}, ["0.5"] * 64, [True] * 64],
        ids=["object", "strings", "booleans"],
    )
    def test_embedding_of_non_numbers_exits_3(
        self, stub_server, trained, tmp_path, capsys, embedding
    ):
        stub_server.handler_fn = lambda record: (200, {"data": [
            {"index": i, "embedding": embedding}
            for i in range(len(record["body"]["input"]))
        ]})
        argv = _eval_argv(
            trained, tmp_path, "--embedding", "http",
            "--embedding-url", f"{stub_server.url}/v1/embeddings",
        )
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert "must hold only JSON numbers" in err
        assert "Traceback" not in err
        assert not (tmp_path / "r.json").exists()

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

imported, commands, watched = json.loads(sys.argv[1])
__import__(imported)
if commands:
    from pdial.cli import main
for argv in commands:
    if main(argv) != 0:
        sys.exit(f"failed: {argv}")
print(json.dumps([name for name in watched if sys.modules.get(name)]))
"""
SRC = Path(__file__).resolve().parents[1] / "src"
TRANSPORT = ["requests", "urllib.request", "http.client"]


def _run_fresh(commands, prelude="", watched=TRANSPORT, imported="pdial.cli"):
    """Import ``imported``, then run ``commands``, in a fresh interpreter;
    return the modules of ``watched`` that it loaded."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    env.pop("PD_API_KEY", None)
    done = subprocess.run(
        [
            sys.executable, "-c", prelude + _RUN_COMMANDS,
            json.dumps([imported, commands, watched]),
        ],
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

    def test_import_pdial_loads_no_numpy_and_no_submodule(self):
        submodules = [
            f"pdial.{path.stem}" for path in sorted((SRC / "pdial").glob("*.py"))
            if path.stem not in ("__init__", "errors")
        ]
        assert "pdial.optimizer" in submodules
        watched = ["numpy", *submodules]
        assert _run_fresh([], watched=watched, imported="pdial") == []

    def test_import_cli_loads_no_command_module(self):
        watched = [
            "pdial.persistence", "pdial.embedding", "pdial._http",
            "pdial.optimizer", "pdial.evaluation", "pdial.llm_client",
            "pdial.plotting", "concurrent.futures", "logging",
        ]
        assert _run_fresh([], watched=watched) == []

    def test_offline_train_loads_no_search_report_or_plot(self, tmp_path):
        paths = _base_args(tmp_path)
        watched = [
            "pdial.optimizer", "pdial.evaluation", "pdial.llm_client",
            "pdial.plotting", "concurrent.futures",
        ]
        command = [*_train_argv(paths), "--embedding", "hashed"]
        assert _run_fresh([command], watched=watched) == []
        assert (tmp_path / "pca.json").exists()

    def test_eval_loads_no_search_or_plot(self, trained, tmp_path):
        watched = ["pdial.optimizer", "pdial.llm_client", "pdial.plotting"]
        command = _eval_argv(trained, tmp_path)
        assert _run_fresh([command], watched=watched) == []
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
