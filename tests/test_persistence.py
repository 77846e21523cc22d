import base64
import dataclasses
from dataclasses import asdict
import json
import os
import re
import stat

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from pdial.cli import main
from pdial.embedding import hashed_embed
from pdial.errors import FormatError
from pdial.metric import ProjectionModel, TrainConfig, train
from pdial.optimizer import Evaluation, PromptAssignment, SearchTrace
from pdial.pca import PerspectivePoint
from pdial import persistence

from conftest import FIXTURES


class TestModelRoundTrip:
    def test_identity_round_trip(self, tmp_path):
        path = tmp_path / "model.json"
        model = ProjectionModel.from_weights(np.eye(4))
        cfg = TrainConfig(loss_kind="cosine", epochs=5, seed=1)
        persistence.save_model(path, model, cfg)
        loaded, loaded_cfg = persistence.load_model(path)
        np.testing.assert_array_equal(loaded.W, model.W)
        assert loaded_cfg == cfg

    def test_random_768x768_bit_exact(self, tmp_path):
        path = tmp_path / "big.json"
        rng = np.random.default_rng(0)
        W = rng.normal(size=(768, 768))
        model = ProjectionModel.from_weights(W)
        persistence.save_model(path, model, TrainConfig())
        loaded, _ = persistence.load_model(path)
        assert np.max(np.abs(loaded.W - W)) == 0.0

    def test_wrong_version_tag_names_both(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"format": "pdial-proj-v0"}))
        with pytest.raises(FormatError) as err:
            persistence.load_model(path)
        assert "pdial-proj-v0" in str(err.value)
        assert "pdial-proj-v2" in str(err.value)

    def test_malformed_json_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"format": "pdial-proj-v2", \n  "d_in": }')
        with pytest.raises(FormatError, match=r"line 2 column"):
            persistence.load_model(path)

    def test_save_is_deterministic(self, tmp_path):
        model = ProjectionModel.from_weights(
            np.random.default_rng(1).normal(size=(3, 3))
        )
        cfg = TrainConfig()
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        persistence.save_model(p1, model, cfg)
        persistence.save_model(p2, model, cfg)
        assert p1.read_bytes() == p2.read_bytes()


def _v1_save(path, model, cfg):
    """The pdial-proj-v1 writer the factored format replaced: every entry
    of W as a JSON float."""
    data = {
        "format": "pdial-proj-v1",
        "d_in": model.d_in,
        "d_out": model.d_out,
        "w_row_major": model.W.flatten().tolist(),
        "train_config": asdict(cfg),
    }
    path.write_text(json.dumps(data, indent=2) + "\n")


def _v1_load(path):
    data = json.loads(path.read_text())
    w = np.asarray(data["w_row_major"], dtype=np.float64)
    return w.reshape(data["d_out"], data["d_in"])


FIXTURE_RECIPE = TrainConfig(
    loss_kind="contrastive", margin_m=1.0, learning_rate=0.05, epochs=5, seed=7
)


def _train_fixture(dim, d_out=None):
    docs = persistence.load_dataset(FIXTURES / "train.jsonl")
    matrix = persistence.load_matrix(FIXTURES / "matrix.json")
    embeddings = [hashed_embed(d.text, dim) for d in docs]
    model, _ = train(docs, matrix, embeddings, FIXTURE_RECIPE, d_out=d_out)
    return model


class TestFactoredModel:
    @pytest.fixture(
        scope="class",
        params=[(64, None), (768, None), (64, 8)],
        ids=["d64", "d768", "d64-dout8"],
    )
    def model(self, request):
        return _train_fixture(*request.param)

    def test_load_rebuilds_trained_W_bit_for_bit(self, tmp_path, model):
        path = tmp_path / "model.json"
        persistence.save_model(path, model, FIXTURE_RECIPE)
        loaded, cfg = persistence.load_model(path)
        assert loaded.W.tobytes() == model.W.tobytes()
        assert cfg == FIXTURE_RECIPE

    def test_save_load_save_is_byte_identical(self, tmp_path, model):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        persistence.save_model(p1, model, FIXTURE_RECIPE)
        persistence.save_model(p2, persistence.load_model(p1)[0], FIXTURE_RECIPE)
        assert p1.read_bytes() == p2.read_bytes()

    def test_v1_oracle_reads_the_same_W(self, tmp_path, model):
        v1, v2 = tmp_path / "v1.json", tmp_path / "v2.json"
        _v1_save(v1, model, FIXTURE_RECIPE)
        persistence.save_model(v2, model, FIXTURE_RECIPE)
        assert _v1_load(v1).tobytes() == persistence.load_model(v2)[0].W.tobytes()

    def test_stores_the_span_factors(self, tmp_path, model):
        path = tmp_path / "model.json"
        persistence.save_model(path, model, FIXTURE_RECIPE)
        data = json.loads(path.read_text())
        assert data["n"] == 15
        if model.d_out == model.d_in:
            assert data["base"] is None
        else:
            base = np.frombuffer(base64.b64decode(data["base"]), dtype="<f8")
            initial = ProjectionModel.initial(model.d_in, model.d_out, 7).W
            assert base.tobytes() == initial.tobytes()

    def test_fixture_model_at_768_is_under_half_a_megabyte(self, tmp_path):
        path = tmp_path / "model.json"
        persistence.save_model(path, _train_fixture(768), FIXTURE_RECIPE)
        assert path.stat().st_size < 500_000

    def test_bare_W_with_negative_zeros_round_trips(self, tmp_path):
        W = np.random.default_rng(3).normal(size=(5, 7))
        W[0, 0] = W[4, 6] = -0.0
        path = tmp_path / "model.json"
        persistence.save_model(path, ProjectionModel.from_weights(W), TrainConfig())
        assert json.loads(path.read_text())["n"] == 0
        loaded, _ = persistence.load_model(path)
        assert loaded.W.tobytes() == W.tobytes()
        assert np.signbit(loaded.W[0, 0]) and np.signbit(loaded.W[4, 6])


class TestSavedModelIsTheModelInMemory:
    """save_model writes the model's own factors, so loading gives back
    the W in memory for every way a model is built."""

    @pytest.mark.parametrize("build", [
        lambda: _train_fixture(64),
        lambda: _train_fixture(64, d_out=8),
        lambda: ProjectionModel.from_weights(
            np.random.default_rng(4).normal(size=(5, 7))
        ),
        lambda: ProjectionModel.initial(16, 16, 3),
        lambda: ProjectionModel.initial(16, 4, 3),
    ], ids=["train-square", "train-d-out-8", "from-weights", "initial-square",
            "initial-gaussian"])
    def test_load_gives_the_W_in_memory(self, tmp_path, build):
        model = build()
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        persistence.save_model(p1, model, TrainConfig())
        loaded, _ = persistence.load_model(p1)
        assert loaded.W.tobytes() == model.W.tobytes()
        persistence.save_model(p2, loaded, TrainConfig())
        assert persistence.load_model(p2)[0].W.tobytes() == model.W.tobytes()

    def test_a_model_cannot_carry_a_W_beside_its_factors(self, tmp_path):
        """The two ways a saved file used to differ from the model in
        memory: a replaced W, and a W passed with another model's factors."""
        trained = _train_fixture(16)
        with pytest.raises(TypeError, match="'W'"):
            dataclasses.replace(trained, W=np.zeros_like(trained.W))
        with pytest.raises(TypeError):
            ProjectionModel(d_in=16, d_out=16, W=np.eye(16), factors=trained)
        with pytest.raises(TypeError):
            ProjectionModel(trained.coef, trained.basis, W=np.eye(16))
        identity = ProjectionModel.from_weights(np.eye(16))
        path = tmp_path / "model.json"
        persistence.save_model(path, identity, TrainConfig())
        assert persistence.load_model(path)[0].W.tobytes() == np.eye(16).tobytes()


def _encode(a):
    return base64.b64encode(np.asarray(a, dtype="<f8").tobytes()).decode("ascii")


def _decode(text):
    return np.frombuffer(base64.b64decode(text), dtype="<f8").copy()


def _with_non_finite(name, value):
    def mutate(data):
        a = _decode(data[name])
        a[3] = value
        data[name] = _encode(a)

    return mutate


def _drop_a_row(name, width):
    def mutate(data):
        data[name] = _encode(_decode(data[name])[width:])

    return mutate


# Each mutation of a valid d_in=64, d_out=8 model file, and a pattern its
# FormatError must match.
BAD_MODEL_FILES = {
    "v1-file": (None, r"'pdial-proj-v1'.*'pdial-proj-v2'"),
    "bad-base64": (
        lambda d: d.update(coef=d["coef"][:-4] + "#==="), "coef is not valid base64"
    ),
    "unpadded-base64": (
        lambda d: d.update(basis=d["basis"][:-1]), "basis is not valid base64"
    ),
    "short-by-one-float": (
        lambda d: d.update(basis=_encode(_decode(d["basis"])[:-1])),
        r"basis holds 7672 bytes, expected 15 x 64",
    ),
    "coef-one-row-short": (_drop_a_row("coef", 8), r"coef holds 896 bytes"),
    "n-off-by-one": (lambda d: d.update(n=16), r"coef holds 960 bytes, expected 16 x 8"),
    "null-base-not-square": (lambda d: d.update(base=None), "base is null"),
    "nan-in-base": (_with_non_finite("base", np.nan), "base contains non-finite"),
    "inf-in-coef": (_with_non_finite("coef", np.inf), "coef contains non-finite"),
    "nan-in-basis": (_with_non_finite("basis", np.nan), "basis contains non-finite"),
    "no-coef": (lambda d: d.pop("coef"), "no 'coef'"),
    "bad-train-config": (
        lambda d: d["train_config"].update(margin_m=-1.0), "margin must be > 0"
    ),
    "d-in-string": (
        lambda d: d.update(d_in="64"), "d_in must be a JSON integer >= 1, got '64'"
    ),
    "d-in-true": (
        lambda d: d.update(d_in=True), "d_in must be a JSON integer >= 1, got True"
    ),
    "d-out-float": (
        lambda d: d.update(d_out=8.0), r"d_out must be a JSON integer >= 1, got 8\.0"
    ),
    "d-out-zero": (
        lambda d: d.update(d_out=0), "d_out must be a JSON integer >= 1, got 0"
    ),
    "n-negative": (lambda d: d.update(n=-1), "n must be a JSON integer >= 0, got -1"),
    "overflowing-product": (
        lambda d: d.update(coef=_encode(np.full(15 * 8, 1e308)),
                           basis=_encode(np.full(15 * 64, 1e308))),
        "W contains non-finite entries",
    ),
}


@pytest.fixture(scope="module")
def small_model():
    return _train_fixture(64, d_out=8)


@pytest.fixture(params=sorted(BAD_MODEL_FILES))
def bad_model_file(request, tmp_path, small_model):
    mutate, pattern = BAD_MODEL_FILES[request.param]
    path = tmp_path / "model.json"
    if mutate is None:
        _v1_save(path, small_model, FIXTURE_RECIPE)
    else:
        persistence.save_model(path, small_model, FIXTURE_RECIPE)
        data = json.loads(path.read_text())
        mutate(data)
        path.write_text(json.dumps(data))
    return path, pattern


class TestBadModelFiles:
    def test_format_error_names_the_file(self, bad_model_file):
        path, pattern = bad_model_file
        with pytest.raises(FormatError, match=pattern) as err:
            persistence.load_model(path)
        assert str(path) in str(err.value)

    def test_eval_exits_2_without_traceback(self, bad_model_file, tmp_path, capsys):
        path, _ = bad_model_file
        code = main([
            "eval",
            "--model", str(path),
            "--train", str(FIXTURES / "train.jsonl"),
            "--test", str(FIXTURES / "test.jsonl"),
            "--out-json", str(tmp_path / "r.json"),
            "--out-text", str(tmp_path / "r.txt"),
            "--dim", "64",
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: {path}")
        assert "Traceback" not in err
        assert not (tmp_path / "r.json").exists()


class TestPcaRoundTrip:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(2)
        from pdial.pca import fit_pca

        model = fit_pca(list(rng.normal(size=(20, 6))))
        path = tmp_path / "pca.json"
        persistence.save_pca(path, model)
        loaded = persistence.load_pca(path)
        assert np.array_equal(loaded.mean, model.mean)
        assert np.array_equal(loaded.components, model.components)
        assert np.array_equal(loaded.explained_variance, model.explained_variance)

    def test_wrong_tag_rejected(self, tmp_path):
        path = tmp_path / "pca.json"
        path.write_text(json.dumps({"format": "pdial-proj-v1"}))
        with pytest.raises(FormatError):
            persistence.load_pca(path)

    def test_rejected_model_names_the_file(self, tmp_path):
        # well-formed JSON that PcaModel's own checks reject
        path = tmp_path / "pca.json"
        path.write_text(json.dumps({
            "format": persistence.PCA_FORMAT,
            "mean": [0.0] * 4,
            "components": np.eye(4)[:3].tolist(),
            "explained_variance": [3.0, 2.0, 1.0],
        }))
        with pytest.raises(
            FormatError, match=f"{re.escape(str(path))}: .*3 components"
        ):
            persistence.load_pca(path)


def _pca_data():
    return {
        "format": persistence.PCA_FORMAT,
        "mean": [0.0, 0.5, -0.25],
        "components": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
        "explained_variance": [2.0, 1.0],
    }


class TestNumbersInArrayFiles:
    """PCA and cluster-matrix arrays hold finite JSON numbers only."""

    @pytest.mark.parametrize("field,index,value,message", [
        ("mean", 1, float("nan"), "mean must be finite"),
        ("mean", 0, "0.35", "mean must hold only JSON numbers"),
        ("mean", 2, None, "mean must hold only JSON numbers"),
        ("components", 0, [1.0, float("inf"), 0.0], "components must be finite"),
        ("components", 1, ["0", "1", "0"], "components must hold only JSON numbers"),
        ("explained_variance", 0, float("inf"), "explained_variance must be finite"),
        ("explained_variance", 1, "1.0",
         "explained_variance must hold only JSON numbers"),
        ("mean", 1, False, "mean must hold only JSON numbers"),
        ("components", 1, [0.0, True, 0.0],
         "components must hold only JSON numbers"),
    ], ids=["nan-mean", "string-mean", "null-mean", "inf-component",
            "string-component", "inf-variance", "string-variance",
            "false-in-mean", "true-in-components"])
    def test_pca_entries(self, tmp_path, field, index, value, message):
        data = _pca_data()
        data[field][index] = value
        path = tmp_path / "pca.json"
        path.write_text(json.dumps(data))
        with pytest.raises(FormatError) as err:
            persistence.load_pca(path)
        assert str(err.value) == f"{path}: malformed PCA file: {message}"

    def test_valid_pca_file_loads(self, tmp_path):
        path = tmp_path / "pca.json"
        path.write_text(json.dumps(_pca_data()))
        assert persistence.load_pca(path).mean.tolist() == [0.0, 0.5, -0.25]

    @pytest.mark.parametrize("sim,message", [
        ([[1.0, float("nan")], [float("nan"), 1.0]],
         "similarity labels must be finite"),
        ([[1.0, "0.35"], ["0.35", 1.0]], "sim must hold only JSON numbers"),
        ([[1.0, None], [None, 1.0]], "sim must hold only JSON numbers"),
        ([[1.0, True], [True, 1.0]], "sim must hold only JSON numbers"),
    ], ids=["nan", "string", "null", "true-among-numbers"])
    def test_matrix_entries(self, tmp_path, sim, message):
        path = tmp_path / "matrix.json"
        path.write_text(json.dumps({"clusters": ["a", "b"], "sim": sim}))
        with pytest.raises(FormatError) as err:
            persistence.load_matrix(path)
        assert str(err.value) == f"{path}: malformed cluster matrix: {message}"


class TestDatasetLoader:
    def test_fixture_files(self):
        from conftest import FIXTURES

        docs = persistence.load_dataset(FIXTURES / "train.jsonl")
        assert len(docs) == 15
        by_cluster = {}
        for d in docs:
            by_cluster.setdefault(d.cluster, []).append(d)
        assert {len(v) for v in by_cluster.values()} == {5}
        assert len(by_cluster) == 3

    def test_empty_file_warns(self, tmp_path, caplog):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with caplog.at_level("WARNING"):
            docs = persistence.load_dataset(path)
        assert docs == []
        assert "empty" in caplog.text

    def test_duplicate_id_cites_both_lines(self, tmp_path):
        path = tmp_path / "dup.jsonl"
        path.write_text(
            '{"id": "a", "text": "one", "cluster": "c"}\n'
            '{"id": "a", "text": "two", "cluster": "c"}\n'
        )
        with pytest.raises(FormatError, match=r"lines 1 and 2"):
            persistence.load_dataset(path)

    def test_bad_line_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "a", "text": "t", "cluster": "c"}\nnot json\n')
        with pytest.raises(FormatError, match=r":2:"):
            persistence.load_dataset(path)

    def test_missing_field_reported(self, tmp_path):
        path = tmp_path / "short.jsonl"
        path.write_text('{"id": "a", "text": "t"}\n')
        with pytest.raises(FormatError, match="cluster"):
            persistence.load_dataset(path)

    @pytest.mark.parametrize("field", ["id", "text", "cluster"])
    def test_lone_surrogate_names_file_line_and_field(self, tmp_path, field):
        doc = {"id": "b", "text": "u", "cluster": "c"}
        doc[field] += "\ud800"  # written as the JSON escape \ud800
        path = tmp_path / "surrogate.jsonl"
        path.write_text(
            '{"id": "a", "text": "t", "cluster": "c"}\n' + json.dumps(doc) + "\n"
        )
        with pytest.raises(FormatError, match=rf"surrogate.jsonl:2: {field} is not valid"):
            persistence.load_dataset(path)

    @pytest.mark.parametrize("field", ["id", "text", "cluster"])
    def test_non_string_field_names_file_line_and_field(self, tmp_path, field):
        doc = {"id": "b", "text": "u", "cluster": "c"}
        doc[field] = ["real madrid"]
        path = tmp_path / "listed.jsonl"
        path.write_text(
            '{"id": "a", "text": "t", "cluster": "c"}\n' + json.dumps(doc) + "\n"
        )
        with pytest.raises(
            FormatError, match=rf"listed.jsonl:2: {field} must be a JSON string, got list"
        ):
            persistence.load_dataset(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "gaps.jsonl"
        path.write_text(
            '{"id": "a", "text": "t", "cluster": "c"}\n\n'
            '{"id": "b", "text": "u", "cluster": "c"}\n'
        )
        assert len(persistence.load_dataset(path)) == 2


class TestOtherLoaders:
    def test_matrix_loader(self):
        from conftest import FIXTURES

        matrix = persistence.load_matrix(FIXTURES / "matrix.json")
        assert matrix.clusters == ["pro-madrid", "neutral", "pro-barca"]
        assert matrix.label("pro-madrid", "neutral") == 0.35
        assert matrix.label("pro-madrid", "pro-barca") == 0.0

    def test_matrix_validation_propagates(self, tmp_path):
        path = tmp_path / "bad_matrix.json"
        path.write_text(
            json.dumps({"clusters": ["a", "b"], "sim": [[1.0, 0.2], [0.3, 1.0]]})
        )
        with pytest.raises(Exception):
            persistence.load_matrix(path)

    def test_prompt_spec_loader_defaults(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"base_phrases": ["hello"]}))
        spec = persistence.load_prompt_spec(path)
        assert spec.base_phrases == ("hello",)
        assert spec.slots == ()
        assert spec.joiner == " "

    @pytest.mark.parametrize("spec,message", [
        ({"base_phrases": "Tell me"}, "base_phrases must be a JSON list, got str"),
        ({"base_phrases": [3]}, "base_phrases must be a JSON string, got int"),
        ({"base_phrases": ["ok"], "slots": "ab"}, "slots must be a JSON list, got str"),
        ({"base_phrases": ["ok"], "slots": ["ab"]}, "slot 0 must be a JSON list, got str"),
        ({"base_phrases": ["ok"], "joiner": 0}, "joiner must be a JSON string, got int"),
    ], ids=["string-base-phrases", "number-phrase", "string-slots", "string-slot",
            "number-joiner"])
    def test_prompt_spec_wrong_json_type_rejected(self, tmp_path, spec, message):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        with pytest.raises(FormatError) as err:
            persistence.load_prompt_spec(path)
        assert str(err.value) == f"{path}: {message}"

    def test_matrix_string_clusters_rejected(self, tmp_path):
        path = tmp_path / "matrix.json"
        path.write_text(json.dumps({"clusters": "ab", "sim": [[1.0, 0.0], [0.0, 1.0]]}))
        with pytest.raises(FormatError) as err:
            persistence.load_matrix(path)
        assert str(err.value) == f"{path}: clusters must be a JSON list, got str"

    def test_prompt_spec_fixture(self):
        from conftest import FIXTURES

        spec = persistence.load_prompt_spec(FIXTURES / "prompts.json")
        assert len(spec.base_phrases) == 3
        assert len(spec.slots) == 1
        assert "" in spec.slots[0]

    def test_mock_table_loader(self):
        from conftest import FIXTURES

        table = persistence.load_mock_table(FIXTURES / "mock_table.json")
        assert len(table) == 9
        assert all(isinstance(v, str) for v in table.values())

    def test_mock_table_loaded_from_path(self, tmp_path):
        from pdial.llm_client import LlmBackendConfig, complete

        path = tmp_path / "table.json"
        path.write_text(json.dumps({"ping": "pong"}))
        table = persistence.load_mock_table(path)
        cfg = LlmBackendConfig(kind="mock", mock_table=table)
        assert complete(["ping"], cfg)[0] == ["pong"]

    @pytest.mark.parametrize("spec", [
        {"base_phrases": ["ok", "bad\udfff"]},
        {"base_phrases": ["ok"], "slots": [["", "bad\ud800"]]},
        {"base_phrases": ["ok"], "joiner": "\ud800"},
    ])
    def test_prompt_spec_lone_surrogate_rejected(self, tmp_path, spec):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        with pytest.raises(FormatError, match=r"spec.json: .* is not valid Unicode"):
            persistence.load_prompt_spec(path)

    @pytest.mark.parametrize("table", [{"ping": "pong\ud800"}, {"ping\ud800": "pong"}])
    def test_mock_table_lone_surrogate_rejected(self, tmp_path, table):
        path = tmp_path / "table.json"
        path.write_text(json.dumps(table))
        with pytest.raises(FormatError, match=r"table.json: mock table .* is not valid"):
            persistence.load_mock_table(path)

    def test_mock_table_non_string_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"ping": 3}))
        with pytest.raises(FormatError):
            persistence.load_mock_table(path)


_VALID_DOC = '{"id": "b", "text": "fine", "cluster": "x"}\n'


@pytest.mark.parametrize("loader,content,where,message", [
    (
        persistence.load_dataset,
        _VALID_DOC + '{"id": "a", "text": "", "cluster": "x"}\n',
        ":2: ", "document 'a' has empty text",
    ),
    (
        persistence.load_matrix,
        json.dumps({"clusters": ["a", "b"], "sim": [[1.0, 0.2], [0.3, 1.0]]}),
        ": malformed cluster matrix: ", "similarity matrix must be symmetric",
    ),
    (
        persistence.load_prompt_spec,
        json.dumps({"base_phrases": []}),
        ": malformed prompt spec: ", "prompt spec needs at least one base phrase",
    ),
    (
        persistence.load_trace,
        json.dumps({
            "assignment": {"base_index": 0, "choices": []}, "prompt": "p",
            "outputs": ["o"], "point": [float("nan"), 0.0], "loss": 1.0,
        }) + "\n",
        ":1: malformed trace line: ", "perspective point must be finite",
    ),
    (
        persistence.load_dataset,
        _VALID_DOC + '{"id": "a", "text": " \\t ", "cluster": "x"}\n',
        ":2: ", "document 'a' has empty text",
    ),
], ids=["dataset", "matrix", "prompt-spec", "trace", "dataset-blank-text"])
def test_rejected_object_names_the_file(tmp_path, loader, content, where, message):
    """An object's own check (an InputValidationError) comes out as a
    FormatError that names the file, and the line of a JSON Lines file."""
    path = tmp_path / "input.txt"
    path.write_text(content)
    with pytest.raises(FormatError) as err:
        loader(path)
    assert str(err.value).startswith(f"{path}{where}")
    assert message in str(err.value)


def _demo_trace(mode="brute", target=PerspectivePoint(0.0, 0.0)):
    trace = SearchTrace(mode, target)
    trace.record(
        Evaluation(
            assignment=PromptAssignment(0, (1,)),
            prompt="q a1",
            outputs=("first output",),
            point=PerspectivePoint(0.5, -0.25),
            loss=0.75,
        )
    )
    trace.record(
        Evaluation(
            assignment=PromptAssignment(1, (0,)),
            prompt="r a0",
            outputs=("second output",),
            point=PerspectivePoint(0.1, 0.0),
            loss=0.1,
        )
    )
    return trace


def _assert_round_trip(path, trace):
    """``load_trace`` gives back ``trace`` field by field, and saving what
    it gives writes the same bytes."""
    persistence.save_trace(path, trace)
    saved = path.read_bytes()
    loaded = persistence.load_trace(path)
    for name in ("mode", "target", "evaluations", "best", "improvements"):
        assert getattr(loaded, name) == getattr(trace, name), name
    persistence.save_trace(path, loaded)
    assert path.read_bytes() == saved


_text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=8)
_finite = st.floats(allow_nan=False, allow_infinity=False)
_point = st.builds(PerspectivePoint, _finite, _finite)
_evaluation = st.builds(
    Evaluation,
    assignment=st.builds(
        PromptAssignment,
        st.integers(0, 4),
        st.lists(st.integers(0, 4), max_size=3).map(tuple),
    ),
    prompt=_text,
    outputs=st.lists(_text, min_size=1, max_size=3).map(tuple),
    point=_point,
    # a few repeated values, so that ties are common
    loss=st.sampled_from([0.0, 0.25, 0.5]) | st.floats(0.0, 10.0),
)


@st.composite
def _traces(draw):
    trace = SearchTrace(draw(_text), draw(_point))
    for ev in draw(st.lists(_evaluation, min_size=1, max_size=8)):
        trace.record(ev)
    return trace


class TestTraceFiles:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        trace = _demo_trace()
        persistence.save_trace(path, trace)
        loaded = persistence.load_trace(path)
        assert loaded.evaluations == trace.evaluations
        assert loaded.best == trace.best == 1
        assert loaded.mode == "brute"
        assert loaded.best_evaluation.prompt == "r a0"
        assert loaded.target == PerspectivePoint(0.0, 0.0)
        summary = json.loads(path.read_text().splitlines()[-1])
        assert summary["best_prompt"] == "r a0"

    def test_jsonl_layout(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        persistence.save_trace(path, _demo_trace("gcd", PerspectivePoint(1.0, 2.0)))
        lines = path.read_text().splitlines()
        assert len(lines) == 3  # two evaluations + summary
        first = json.loads(lines[0])
        assert first["index"] == 0
        assert first["best_so_far"] == 0.75
        second = json.loads(lines[1])
        assert second["best_so_far"] == 0.1
        summary = json.loads(lines[2])
        assert summary["summary"] is True
        assert (summary["mode"], summary["target"]) == ("gcd", [1.0, 2.0])

    def test_infinite_loss_is_not_written(self, tmp_path):
        """``load_trace`` would reject ``Infinity``, so ``save_trace``
        fails before it touches the file."""
        path = tmp_path / "trace.jsonl"
        persistence.save_trace(path, _demo_trace())
        before = path.read_bytes()
        trace = SearchTrace("brute", PerspectivePoint(-1e308, 0.0))
        trace.record(
            Evaluation(
                assignment=PromptAssignment(0, ()),
                prompt="p",
                outputs=("o",),
                point=PerspectivePoint(1e308, 0.0),
                loss=float("inf"),
            )
        )
        with pytest.raises(ValueError, match="not JSON compliant"):
            persistence.save_trace(path, trace)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["trace.jsonl"]

    @pytest.mark.parametrize("field,value,message", [
        ("outputs", "abc", "outputs must be a JSON list, got str"),
        ("prompt", ["p"], "prompt must be a JSON string, got list"),
        ("point", [1.0, 2.0, 3.0], "expected [x, y] as two numbers"),
        ("assignment", {"base_index": "1", "choices": []},
         "base_index must be a JSON integer >= 0, got '1'"),
        ("assignment", {"base_index": 1.9, "choices": []},
         "base_index must be a JSON integer >= 0, got 1.9"),
        ("assignment", {"base_index": True, "choices": []},
         "base_index must be a JSON integer >= 0, got True"),
        ("assignment", {"base_index": -3, "choices": []},
         "base_index must be a JSON integer >= 0, got -3"),
        ("assignment", {"base_index": 0, "choices": ["x"]},
         "choice must be a JSON integer >= 0, got 'x'"),
        ("assignment", {"base_index": 0, "choices": [0, -1]},
         "choice must be a JSON integer >= 0, got -1"),
        ("loss", "0.25", "loss must be a finite JSON number, got '0.25'"),
        ("loss", True, "loss must be a finite JSON number, got True"),
        ("loss", float("nan"), "loss must be a finite JSON number, got nan"),
        ("loss", float("inf"), "loss must be a finite JSON number, got inf"),
    ], ids=["outputs", "prompt", "point", "string-base-index", "float-base-index",
            "true-base-index", "negative-base-index", "string-choice",
            "negative-choice", "string-loss", "true-loss", "nan-loss", "inf-loss"])
    def test_wrong_json_type_in_evaluation_line(self, tmp_path, field, value, message):
        line = {
            "assignment": {"base_index": 0, "choices": []}, "prompt": "p",
            "outputs": ["o"], "point": [0.0, 0.0], "loss": 1.0, field: value,
        }
        path = tmp_path / "trace.jsonl"
        path.write_text(json.dumps(line) + "\n")
        with pytest.raises(FormatError, match=re.escape(f"{path}:1: ") + ".*"
                           + re.escape(message)):
            persistence.load_trace(path)

    def test_huge_integer_is_a_format_error(self, tmp_path):
        big = "1" + "0" * 400
        path = tmp_path / "trace.jsonl"
        path.write_text(
            '{"assignment": {"base_index": 0, "choices": []}, "prompt": "p", '
            f'"outputs": ["o"], "point": [0.0, 0.0], "loss": {big}}}\n'
        )
        with pytest.raises(FormatError, match=re.escape(f"{path}:1: malformed")):
            persistence.load_trace(path)

    @pytest.mark.parametrize("content", [
        "",
        "\n\n",
        json.dumps({
            "assignment": {"base_index": 0, "choices": []}, "prompt": "p",
            "outputs": ["o"], "point": [0.0, 0.0], "loss": 1.0,
        }) + "\n",
    ], ids=["empty", "blank-lines", "evaluations-only"])
    def test_no_summary_line_is_a_format_error(self, tmp_path, content):
        path = tmp_path / "trace.jsonl"
        path.write_text(content)
        with pytest.raises(FormatError) as err:
            persistence.load_trace(path)
        assert str(err.value) == f"{path}: trace file has no summary line"

    @pytest.mark.parametrize("summary,message", [
        ({"summary": True, "target": [0.0, 0.0]},
         "malformed trace summary: mode must be a JSON string, got NoneType"),
        ({"summary": True, "mode": 3, "target": [0.0, 0.0]},
         "malformed trace summary: mode must be a JSON string, got int"),
        ({"summary": True, "mode": 3, "target": [0.0]},
         "malformed trace summary: target expected [x, y]"),
    ], ids=["no-mode", "number-mode", "bad-target-before-bad-mode"])
    def test_malformed_summary(self, tmp_path, summary, message):
        path = tmp_path / "trace.jsonl"
        path.write_text(json.dumps(summary) + "\n")
        with pytest.raises(FormatError) as err:
            persistence.load_trace(path)
        assert str(err.value).startswith(f"{path}:1: {message}")

    @pytest.mark.parametrize("line,edit,message", [
        (2, {"evaluations": 1, "best_loss": 99.0},
         "'evaluations' is 1, the evaluations give 2"),
        (2, {"best_loss": 99.0}, "'best_loss' is 99.0, the evaluations give 0.1"),
        (2, {"best_index": 0}, "'best_index' is 0, the evaluations give 1"),
        (2, {"best_index": True}, "'best_index' is true, the evaluations give 1"),
        (2, {"best_prompt": "q a1"},
         "'best_prompt' is \"q a1\", the evaluations give \"r a0\""),
        (2, {"summary": 1}, "'summary' is 1, the evaluations give true"),
        (1, {"index": 0}, "'index' is 0, the evaluations give 1"),
        (1, {"best_so_far": 0.75},
         "'best_so_far' is 0.75, the evaluations give 0.1"),
        (0, {"loss": 1}, "'loss' is 1, the evaluations give 1.0"),
        (0, {"note": "x"}, "unexpected field 'note'"),
    ], ids=["count-and-best-loss", "best-loss", "best-index", "true-best-index",
            "best-prompt", "summary-one", "index", "best-so-far", "integer-loss",
            "extra-field"])
    def test_derived_field_that_disagrees_is_a_format_error(
        self, tmp_path, line, edit, message
    ):
        """Each line must be the one ``save_trace`` writes for the trace
        that the evaluation lines and summary rebuild."""
        path = tmp_path / "trace.jsonl"
        persistence.save_trace(path, _demo_trace())
        objects = [json.loads(s) for s in path.read_text().splitlines()]
        objects[line].update(edit)
        path.write_text("".join(json.dumps(o) + "\n" for o in objects))
        with pytest.raises(FormatError) as err:
            persistence.load_trace(path)
        assert str(err.value) == f"{path}:{line + 1}: {message}"

    @pytest.mark.parametrize("field", [
        "index", "best_so_far", "evaluations", "best_index", "best_prompt",
        "best_loss",
    ])
    def test_missing_derived_field_is_a_format_error(self, tmp_path, field):
        path = tmp_path / "trace.jsonl"
        persistence.save_trace(path, _demo_trace())
        objects = [json.loads(s) for s in path.read_text().splitlines()]
        line = 0 if field in objects[0] else 2
        del objects[line][field]
        path.write_text("".join(json.dumps(o) + "\n" for o in objects))
        with pytest.raises(FormatError) as err:
            persistence.load_trace(path)
        assert str(err.value) == f"{path}:{line + 1}: missing field {field!r}"

    def test_key_order_and_spacing_are_free(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        persistence.save_trace(path, _demo_trace())
        objects = [json.loads(s) for s in path.read_text().splitlines()]
        path.write_text("".join(
            json.dumps(dict(reversed(o.items())), separators=(",", ":")) + "\n"
            for o in objects
        ))
        loaded = persistence.load_trace(path)
        assert loaded.evaluations == _demo_trace().evaluations

    @pytest.mark.parametrize("where", ["end", "middle"])
    def test_second_summary_is_a_format_error(self, tmp_path, where):
        path = tmp_path / "trace.jsonl"
        persistence.save_trace(path, _demo_trace())
        lines = path.read_text().splitlines()
        if where == "end":
            lines.append(lines[-1])
            lineno, message = 4, "a trace line after the summary"
        else:
            lines.insert(1, lines[-1])
            lineno, message = 2, "missing field 'index'"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError) as err:
            persistence.load_trace(path)
        assert str(err.value) == f"{path}:{lineno}: {message}"

    def test_summary_without_evaluations_is_a_format_error(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"summary": true, "mode": "gcd", "target": [0.0, 0.0]}\n')
        with pytest.raises(FormatError) as err:
            persistence.load_trace(path)
        assert str(err.value) == f"{path}: trace file has no evaluation lines"

    def test_bad_evaluation_line_is_reported_before_a_missing_summary(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"prompt": "p"}\n')
        with pytest.raises(
            FormatError, match=re.escape(f"{path}:1: malformed trace line")
        ):
            persistence.load_trace(path)

    @pytest.mark.parametrize("separator", ["\x85", "\u2028", "\u2029"])
    def test_line_separators_inside_strings(self, tmp_path, separator):
        trace = _demo_trace()
        trace.record(Evaluation(
            PromptAssignment(0, (0,)), f"a{separator}b", (f"c{separator}",),
            PerspectivePoint(0.0, 0.0), 0.05,
        ))
        _assert_round_trip(tmp_path / "trace.jsonl", trace)

    @settings(max_examples=60, deadline=None)
    @given(trace=_traces())
    def test_random_traces_round_trip(self, tmp_path_factory, trace):
        _assert_round_trip(tmp_path_factory.mktemp("trace") / "t.jsonl", trace)

    @pytest.mark.parametrize("dim", [64, 768])
    def test_fixture_recipe_traces_round_trip(self, tmp_path, dim):
        from conftest import FIXTURES
        from pdial.embedding import EmbeddingBackendConfig
        from pdial.llm_client import LlmBackendConfig
        from pdial.optimizer import (
            PerspectiveSpace, brute_force_search, cluster_centroid, gcd_search,
        )
        from pdial.pca import fit_pca

        docs = persistence.load_dataset(FIXTURES / "train.jsonl")
        model = _train_fixture(dim)
        pca = fit_pca([model.project(hashed_embed(d.text, dim)) for d in docs])
        space = PerspectiveSpace(
            model, pca, EmbeddingBackendConfig(kind="hashed", dimension=dim)
        )
        target = cluster_centroid(docs, "pro-barca", space)
        spec = persistence.load_prompt_spec(FIXTURES / "prompts.json")
        llm = LlmBackendConfig(
            kind="mock", samples_n=2,
            mock_table=persistence.load_mock_table(FIXTURES / "mock_table.json"),
        )
        for search in (gcd_search, brute_force_search):
            trace = search(spec, target, space, llm)
            _assert_round_trip(tmp_path / f"{trace.mode}.jsonl", trace)

    def test_training_log_round_shape(self, tmp_path):
        from pdial.metric import TrainingLog

        log = TrainingLog(
            pair_count=10, epoch_mean_loss=[0.5, 0.25], epoch_skipped_pairs=[0, 1]
        )
        path = tmp_path / "log.json"
        persistence.save_train_log(path, log)
        data = json.loads(path.read_text())
        assert data["format"] == "pdial-train-log-v1"
        assert data["epoch_mean_loss"] == [0.5, 0.25]
        assert data["epoch_skipped_pairs"] == [0, 1]
        assert data["pair_count"] == 10


class TestReportFiles:
    def test_report_json_shape(self, tmp_path, fixture_train_docs, fixture_test_docs, fixture_model):
        from conftest import FIXTURE_BACKEND
        from pdial.evaluation import cluster_similarity_report

        report = cluster_similarity_report(
            fixture_train_docs, fixture_test_docs, fixture_model, FIXTURE_BACKEND
        )
        path = tmp_path / "report.json"
        persistence.save_report(path, report)
        data = json.loads(path.read_text())
        assert data["clusters"] == list(report.clusters)
        assert np.asarray(data["pre"]["mean"]).shape == (3, 3)
        assert np.asarray(data["post"]["std"]).shape == (3, 3)
        assert data["std_kind"] == "population"


def _json_oracle(data):
    """The text every JSON artifact holds: json's own indented layout."""
    return json.dumps(data, indent=2, ensure_ascii=False) + "\n"


_SPECIAL_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, 0.1, 1e16, 1e-7]
_SPECIAL_STRINGS = [
    "", "plain text", 'a "quote"', "back\\slash", "new\nline", "\x1f", "\x00",
    "del \x7f", "caf\u00e9", "line\u2028separator", "tab\tand\rreturn", "\ud800",
]


def _json_values():
    """JSON values of every kind, nested, with the floats and strings
    whose text is easiest to get wrong."""
    floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
        _SPECIAL_FLOATS
    )
    strings = st.text() | st.sampled_from(_SPECIAL_STRINGS)
    leaves = (
        st.none() | st.booleans() | st.integers() | floats | strings
        | st.lists(floats, max_size=6)
    )
    return st.recursive(
        leaves,
        lambda children: st.lists(children, max_size=4)
        | st.dictionaries(strings, children, max_size=4),
        max_leaves=30,
    )


class TestJsonText:
    """``_write_json``'s text against ``json.dumps(indent=2)``, the oracle."""

    @settings(max_examples=200, deadline=None)
    @given(data=_json_values())
    def test_generated_values(self, data):
        assert persistence._json_text(data, "") + "\n" == _json_oracle(data)

    @pytest.mark.parametrize("data", [
        {},
        [],
        {"empty": {}, "list": [], "nested": [[], {}, [[]]]},
        {"floats": _SPECIAL_FLOATS, "rows": [_SPECIAL_FLOATS, [1.5], []]},
        {"mixed": [1, 1.0, True, None, "x", -0.0], "ints": [0, -1, 2**70]},
        {s: s for s in _SPECIAL_STRINGS},
        {"not a str key": {1: 2.0, None: [3.0], 2.5: "x", True: False}},
        ("a tuple", [1.0, 2.0]),
        "a bare string",
        -0.0,
    ], ids=repr)
    def test_edge_values(self, data):
        assert persistence._json_text(data, "") + "\n" == _json_oracle(data)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("where", [
        lambda x: x,
        lambda x: {"a": [0.5, x]},
        lambda x: {"a": {"b": [[1.0], [x, 2.0]]}},
        lambda x: [1, "s", x],
        lambda x: {"t": (x,)},
    ])
    def test_non_finite_float_is_refused_and_nothing_written(self, tmp_path, bad, where):
        path = tmp_path / "artifact.json"
        with pytest.raises(ValueError, match="not JSON compliant"):
            persistence._write_json(path, {"format": "x", "value": where(bad)})
        assert os.listdir(tmp_path) == []


class TestArtifactBytes:
    """The bytes each ``save_*`` writes are json's indented layout of the
    object that the file holds."""

    @staticmethod
    def _assert_layout(path):
        raw = path.read_bytes()
        assert raw.decode("utf-8") == _json_oracle(json.loads(raw))

    @pytest.mark.parametrize("d_out", [None, 8])
    def test_save_model(self, tmp_path, fixture_train_docs, fixture_matrix,
                        fixture_train_embeddings, d_out):
        from conftest import FIXTURE_TRAIN_CFG

        model, _ = train(fixture_train_docs, fixture_matrix,
                         fixture_train_embeddings, FIXTURE_TRAIN_CFG, d_out=d_out)
        path = tmp_path / "model.json"
        persistence.save_model(path, model, FIXTURE_TRAIN_CFG)
        self._assert_layout(path)

    def test_save_pca(self, tmp_path, fixture_model, fixture_train_embeddings):
        from pdial.pca import fit_pca

        pca = fit_pca([fixture_model.project(e) for e in fixture_train_embeddings])
        path = tmp_path / "pca.json"
        persistence.save_pca(path, pca)
        self._assert_layout(path)

    def test_save_train_log(self, tmp_path):
        from pdial.metric import TrainingLog

        log = TrainingLog(pair_count=3, epoch_mean_loss=[0.5, -0.0, 5e-324],
                          epoch_skipped_pairs=[0, 2, 1])
        path = tmp_path / "log.json"
        persistence.save_train_log(path, log)
        self._assert_layout(path)

    def test_save_report(self, tmp_path, fixture_train_docs, fixture_test_docs,
                         fixture_model):
        from conftest import FIXTURE_BACKEND
        from pdial.evaluation import cluster_similarity_report

        renamed = {"pro-madrid": 'pro "Madrid"', "neutral": "neutral\\\ncaf\u00e9"}
        train_docs, test_docs = (
            [dataclasses.replace(d, cluster=renamed.get(d.cluster, d.cluster))
             for d in docs]
            for docs in (fixture_train_docs, fixture_test_docs)
        )
        report = cluster_similarity_report(
            train_docs, test_docs, fixture_model, FIXTURE_BACKEND
        )
        path = tmp_path / "report.json"
        persistence.save_report(path, report)
        self._assert_layout(path)

    def test_train_command_artifacts(self, tmp_path):
        argv = [
            "train", "--data", str(FIXTURES / "train.jsonl"),
            "--matrix", str(FIXTURES / "matrix.json"),
            "--out", str(tmp_path / "model.json"),
            "--pca-out", str(tmp_path / "pca.json"), "--dim", "64",
        ]
        assert main(argv) == 0
        for name in ("model.json", "model.log.json", "pca.json"):
            self._assert_layout(tmp_path / name)


def _unencodable_writers():
    """Each artifact writer, given content with a lone surrogate, which
    only fails when the text is encoded, i.e. while the file is written."""
    from pdial.evaluation import SimilarityReport

    bad = "\ud800"
    trace = SearchTrace("brute", PerspectivePoint(0.0, 0.0))
    trace.record(
        Evaluation(
            assignment=PromptAssignment(0, ()),
            prompt="p",
            outputs=(f"output {bad}",),
            point=PerspectivePoint(0.0, 0.0),
            loss=0.0,
        )
    )
    report = SimilarityReport(
        clusters=(f"cluster {bad}",),
        pre_mean=np.ones((1, 1)),
        pre_std=np.zeros((1, 1)),
        post_mean=np.ones((1, 1)),
        post_std=np.zeros((1, 1)),
    )
    return {
        "save_trace": lambda path: persistence.save_trace(path, trace),
        "save_report": lambda path: persistence.save_report(path, report),
        "write_text_atomic": lambda path: persistence.write_text_atomic(path, bad),
    }


@pytest.mark.parametrize(
    "loader",
    [
        persistence.load_dataset,
        persistence.load_matrix,
        persistence.load_prompt_spec,
        persistence.load_mock_table,
        persistence.load_model,
        persistence.load_pca,
        persistence.load_trace,
    ],
    ids=lambda f: f.__name__,
)
def test_non_utf8_input_is_format_error(tmp_path, loader):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"text": "café"}\n'.encode("latin-1"))
    with pytest.raises(FormatError, match="latin1.json.*can't decode byte 0xe9"):
        loader(path)


class TestAtomicWrites:
    @pytest.mark.parametrize(
        "writer",
        ["save_report", "save_trace", "write_text_atomic"],
    )
    def test_failed_write_keeps_previous_file(self, tmp_path, writer):
        path = tmp_path / "artifact.out"
        path.write_bytes(b"previous artifact\n")
        with pytest.raises(UnicodeEncodeError):
            _unencodable_writers()[writer](path)
        assert path.read_bytes() == b"previous artifact\n"
        assert os.listdir(tmp_path) == ["artifact.out"]  # no temporary file

    def test_replaces_existing_file(self, tmp_path):
        path = tmp_path / "artifact.out"
        path.write_text("previous")
        persistence.write_text_atomic(path, "new \u00e9\n")
        assert path.read_bytes() == "new \u00e9\n".encode("utf-8")
        assert os.listdir(tmp_path) == ["artifact.out"]

    def test_new_file_mode_follows_umask(self, tmp_path):
        old = os.umask(0o022)
        try:
            persistence.write_text_atomic(tmp_path / "a.json", "{}")
        finally:
            os.umask(old)
        assert stat.S_IMODE((tmp_path / "a.json").stat().st_mode) == 0o644
