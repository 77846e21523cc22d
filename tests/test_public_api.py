from pathlib import Path
import re
import sys

import numpy as np
import pytest

import pdial


def test_version():
    assert pdial.__version__


def test_core_names_exported():
    for name in (
        "EmbeddingBackendConfig",
        "LlmBackendConfig",
        "TrainConfig",
        "ProjectionModel",
        "PcaModel",
        "PerspectivePoint",
        "PromptSpec",
        "SearchTrace",
        "hashed_embed",
        "embed_batch",
        "train",
        "fit_pca",
        "pca_transform",
        "cluster_similarity_report",
        "brute_force_search",
        "gcd_search",
        "PdialError",
    ):
        assert hasattr(pdial, name), name


def test_every_export_resolves_and_is_listed():
    """The package's names load on first access; each one resolves to the
    object of its defining module, and ``dir`` lists it."""
    assert pdial.__all__ == sorted([
        "BackendError", "ClusterSimilarityMatrix", "ConfigurationError",
        "EmbeddingBackendConfig", "FormatError", "InputValidationError",
        "LabeledDocument", "LlmBackendConfig", "NumericError", "PcaModel",
        "PdialError", "PerspectivePoint", "PerspectiveSpace", "ProjectionModel",
        "PromptAssignment", "PromptSpec", "ProtocolError", "SearchTrace",
        "SimilarityReport", "TrainConfig", "brute_force_search",
        "cluster_similarity_report", "complete", "embed_batch", "fit_pca",
        "gcd_search", "hashed_embed", "jacobi_eigh",
        "loss_to_target", "render_prompt", "train",
        "pca_transform",
    ])
    listed = dir(pdial)
    for name in pdial.__all__:
        value = getattr(pdial, name)
        assert getattr(sys.modules[value.__module__], name) is value, name
        assert name in listed, name
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        pdial.no_such_name


def test_perspective_space_is_the_one_text_to_point_path():
    assert pdial.PerspectiveSpace is pdial.optimizer.PerspectiveSpace
    names = ("perspective_points", "perspective_of_output", "_PlaneMap", "cluster_centroid")
    for name in names:
        assert not hasattr(pdial, name), name
        assert not hasattr(pdial.optimizer, name), name


@pytest.mark.parametrize("build", [
    lambda: pdial.ProjectionModel.from_weights(np.eye(2)),
    lambda: pdial.PcaModel(
        mean=np.zeros(2), components=np.eye(2),
        explained_variance=np.array([1.0, 1.0]),
    ),
    lambda: pdial.evaluation.SimilarityReport(
        ("a",), *(np.zeros((1, 1)) for _ in range(4))
    ),
], ids=["ProjectionModel", "PcaModel", "SimilarityReport"])
def test_array_holders_compare_by_identity(build):
    """Equal fields would make ``==`` compare arrays elementwise and raise;
    these types answer by identity instead."""
    a, b = build(), build()
    assert a == a
    assert (a == b) is False
    assert a != b


def test_metric_holds_each_training_formula_once():
    """``_contrastive`` and ``_cosine`` are the only copies of the loss
    formulas, and the trainer calls both. The full-matrix gradient oracle
    ``loss_gradient`` lives in tests/conftest.py: no package source names
    it, ``_pair_loss`` or ``_Evaluator``."""
    for name in ("cosine_similarity", "cosine_loss", "contrastive_loss"):
        assert not hasattr(pdial, name), name
        assert not hasattr(pdial.metric, name), name
    assert not hasattr(pdial.metric, "_pair_loss_grad")
    source = "\n".join(
        path.read_text(encoding="utf-8")
        for path in Path(pdial.__file__).parent.glob("*.py")
    )
    for name in ("_pair_loss", "loss_gradient", "_Evaluator"):
        assert name not in source, name
    with pytest.raises(AttributeError, match="no attribute 'loss_gradient'"):
        pdial.loss_gradient
    assert {"_contrastive", "_cosine"} <= set(pdial.metric.train.__code__.co_names)


def test_pair_arrays_are_the_one_statement_of_the_pairs():
    """``metric._pair_arrays`` alone states the training pairs and their
    labels: no pair object, pair list or label binarizer is left in the
    package."""
    source = "\n".join(
        path.read_text(encoding="utf-8")
        for path in Path(pdial.__file__).parent.glob("*.py")
    )
    for name in ("TrainingPair", "generate_pairs", "binarize_label"):
        assert name not in source, name
        assert not hasattr(pdial, name), name
    assert "_pair_arrays" in pdial.metric.train.__code__.co_names


def _points(texts):
    space = pdial.PerspectiveSpace(
        pdial.ProjectionModel.from_weights(np.eye(8)),
        pdial.PcaModel(
            mean=np.zeros(8), components=np.eye(8)[:2],
            explained_variance=np.array([1.0, 1.0]),
        ),
        pdial.EmbeddingBackendConfig(dimension=8),
    )
    return space.points(texts)


def _evaluation(**text):
    return pdial.optimizer.Evaluation(**{
        "assignment": pdial.PromptAssignment(0), "prompt": "p", "outputs": ("o",),
        "point": pdial.PerspectivePoint(0.0, 0.0), "loss": 0.0, **text,
    })


# Each entry point that takes text: a call with a value in place of one
# text, or of one list of texts, and what its message names. The mock
# table is a config field, so its errors are ConfigurationErrors.
_TEXT_ENTRY_POINTS = {
    "LabeledDocument-id": (lambda v: pdial.LabeledDocument(v, "t", "c"), "id"),
    "LabeledDocument-text": (lambda v: pdial.LabeledDocument("a", v, "c"), "text"),
    "LabeledDocument-cluster": (
        lambda v: pdial.LabeledDocument("a", "t", v), "cluster"
    ),
    "PromptSpec-joiner": (lambda v: pdial.PromptSpec(["a"], joiner=v), "joiner"),
    "hashed_embed": (lambda v: pdial.hashed_embed(v, 8), "text"),
    "mock-table-key": (
        lambda v: pdial.LlmBackendConfig(mock_table={v: "x"}), "mock table key"
    ),
    "mock-table-value": (
        lambda v: pdial.LlmBackendConfig(mock_table={"x": v}), "mock table value"
    ),
    "SearchTrace-mode": (
        lambda v: pdial.SearchTrace(v, pdial.PerspectivePoint(0.0, 0.0)), "mode"
    ),
    "Evaluation-prompt": (lambda v: _evaluation(prompt=v), "prompt"),
    "PointGroup-label": (lambda v: pdial.plotting.PointGroup(v, ()), "label"),
}
_TEXT_LIST_ENTRY_POINTS = {
    "ClusterSimilarityMatrix": (
        lambda v: pdial.ClusterSimilarityMatrix(v, np.eye(2)), "clusters"
    ),
    "PromptSpec-base_phrases": (lambda v: pdial.PromptSpec(v), "base_phrases"),
    "PromptSpec-slot": (lambda v: pdial.PromptSpec(["a"], slots=[v]), "slots[0]"),
    "SearchTrace-target": (lambda v: pdial.SearchTrace("gcd", v), "target"),
    "Evaluation-outputs": (lambda v: _evaluation(outputs=v), "outputs"),
    "SimilarityReport-clusters": (
        lambda v: pdial.evaluation.SimilarityReport(
            v, *(np.zeros((2, 2)) for _ in range(4))
        ),
        "clusters",
    ),
    "embed_batch": (
        lambda v: pdial.embed_batch(v, pdial.EmbeddingBackendConfig(dimension=8)),
        "texts",
    ),
    "PerspectiveSpace.points": (_points, "texts"),
    "complete": (lambda v: pdial.complete(v, pdial.LlmBackendConfig()), "prompts"),
}


def _text_cases():
    for name, (call, what) in _TEXT_ENTRY_POINTS.items():
        yield name, call, 5, f"{what} must be a string, got int", "number"
        yield (name, call, "barca\ud800", f"{what} is not valid Unicode",
               "lone-surrogate")
    for name, (call, what) in _TEXT_LIST_ENTRY_POINTS.items():
        yield name, call, ["barca", 5], f"{what}[1] must be a string, got int", "number"
        if name != "complete":  # there a bare str is one prompt
            yield name, call, "barca", f"{what} must be a list, got str", "bare-str"
        yield (name, call, ["barca", "madrid\ud800"], f"{what}[1] is not valid Unicode",
               "lone-surrogate")
    yield ("mock-table", lambda v: pdial.LlmBackendConfig(mock_table=v), "barca",
           "mock_table must map strings to strings", "bare-str")


@pytest.mark.parametrize("name, call, value, message", [
    pytest.param(name, call, value, message, id=f"{name}-{case}")
    for name, call, value, message, case in _text_cases()
])
def test_every_text_entry_point_refuses_what_is_not_text(name, call, value, message):
    """A non-``str`` where text belongs, a bare ``str`` where a list of
    texts belongs, and text that UTF-8 cannot hold each give the entry
    point's typed error, naming the value."""
    error = (
        pdial.ConfigurationError if name.startswith("mock-table")
        else pdial.InputValidationError
    )
    with pytest.raises(error) as err:
        call(value)
    assert type(err.value) is error
    assert str(err.value).startswith(message)


# Each holder field that takes numbers: how to build the holder with
# ``v`` in it, the name its message gives, and the rule: "finite" (one
# finite number, stored as a float) or "count" (an integer >= 0). An
# array field's NaN or infinity is "{name} must be finite".
_SCALAR_NUMBER_FIELDS = {
    "PerspectivePoint-x": (lambda v: pdial.PerspectivePoint(v, 0.0),
                           "perspective point x", "finite"),
    "PerspectivePoint-y": (lambda v: pdial.PerspectivePoint(0.0, v),
                           "perspective point y", "finite"),
    "Evaluation-loss": (lambda v: _evaluation(loss=v), "loss", "finite"),
    "PromptAssignment-base_index": (lambda v: pdial.PromptAssignment(v),
                                    "base_index", "count"),
    "PromptAssignment-choices": (lambda v: pdial.PromptAssignment(0, (0, v)),
                                 "choices[1]", "count"),
}


def _report(name):
    def build(v):
        mats = {"pre_mean": [[1.0]], "pre_std": [[0.0]],
                "post_mean": [[1.0]], "post_std": [[0.0]], name: [[v]]}
        return pdial.evaluation.SimilarityReport(("a",), **mats)
    return build


_ARRAY_NUMBER_FIELDS = {
    "ClusterSimilarityMatrix-sim": (
        lambda v: pdial.ClusterSimilarityMatrix(["a", "b"], [[1.0, v], [v, 1.0]]),
        "sim",
    ),
    "PcaModel-mean": (
        lambda v: pdial.PcaModel([0.0, v], np.eye(2), [1.0, 0.5]), "mean",
    ),
    "PcaModel-components": (
        lambda v: pdial.PcaModel(np.zeros(2), [[1.0, 0.0], [v, 1.0]], [1.0, 0.5]),
        "components",
    ),
    "PcaModel-explained_variance": (
        lambda v: pdial.PcaModel(np.zeros(2), np.eye(2), [1.0, v]),
        "explained_variance",
    ),
    "ProjectionModel-coef": (
        lambda v: pdial.ProjectionModel([[v, 0.0]], [[1.0, 0.0]]), "coef",
    ),
    "ProjectionModel-basis": (
        lambda v: pdial.ProjectionModel([[1.0, 0.0]], [[v, 0.0]]), "basis",
    ),
    "ProjectionModel-base": (
        lambda v: pdial.ProjectionModel(np.empty((0, 1)), np.empty((0, 2)), [[v, 0.0]]),
        "base",
    ),
    "ProjectionModel.from_weights": (
        lambda v: pdial.ProjectionModel.from_weights([[1.0, v]]), "W",
    ),
    **{
        f"SimilarityReport-{name}": (_report(name), name)
        for name in ("pre_mean", "pre_std", "post_mean", "post_std")
    },
}

_NOT_NUMBERS = {"true": True, "string": "1", "null": None}
_NOT_FINITE = {"nan": float("nan"), "inf": float("inf")}


def _number_cases():
    error = pdial.InputValidationError
    for name, (call, what, rule) in _SCALAR_NUMBER_FIELDS.items():
        values = {**_NOT_NUMBERS, **_NOT_FINITE}
        if rule == "finite":
            values["400-digit"] = 10**400
            kind = "a finite JSON number"
        else:
            values.update({"negative": -1, "float": 1.0})
            kind = "a JSON integer >= 0"
        for case, v in values.items():
            yield name, case, call, v, error, f"{what} must be {kind}, got {v!r}"
    for name, (call, what) in _ARRAY_NUMBER_FIELDS.items():
        for case, v in _NOT_NUMBERS.items():
            yield name, case, call, v, error, f"{what} must hold only JSON numbers"
        for case, v in _NOT_FINITE.items():
            yield name, case, call, v, error, f"{what} must be finite"
        yield (name, "400-digit", call, 10**400, error,
               f"{what} holds an integer beyond the float64 range")


@pytest.mark.parametrize("call, value, error, message", [
    pytest.param(call, value, error, message, id=f"{name}-{case}")
    for name, case, call, value, error, message in _number_cases()
])
def test_every_number_holder_refuses_what_is_not_a_number(call, value, error, message):
    """A bool, a string, a null, a NaN, an infinity or an integer beyond
    the float64 range, where a holder keeps a number, gives that holder's
    typed error when it is built, naming the field."""
    with pytest.raises(error) as err:
        call(value)
    assert type(err.value) is error
    assert str(err.value).startswith(message)


def test_number_holders_store_floats_and_keep_float64_arrays():
    """An integer coordinate or loss is stored as the float that a trace
    saves and loads, and a float64 array is kept as it is, not copied."""
    point = pdial.PerspectivePoint(1, -2)
    assert (type(point.x), type(point.y)) == (float, float)
    assert repr(point) == "PerspectivePoint(x=1.0, y=-2.0)"
    assert type(_evaluation(loss=3).loss) is float
    coef, basis = np.ones((1, 2)), np.zeros((1, 2))
    model = pdial.ProjectionModel(coef, basis)
    assert model.coef is coef and model.basis is basis
    ints = pdial.ProjectionModel([[1, 2]], [[3, 4]])
    assert ints.coef.dtype == np.float64 and ints.coef.tolist() == [[1.0, 2.0]]


def test_the_number_rule_lives_in_errors():
    """Only ``errors.py`` says what a JSON integer or number is; every
    other module asks its predicates or checks."""
    pattern = re.compile(
        r"type\([^)]*\) is (not )?int\b|\(int, float\)|isinstance\([^)]*, bool\)"
    )
    for path in Path(pdial.__file__).parent.glob("*.py"):
        if path.name != "errors.py":
            assert not pattern.search(path.read_text(encoding="utf-8")), path.name


_DOCS = [pdial.LabeledDocument(*doc) for doc in
         [("a", "left", "x"), ("b", "right", "y"), ("c", "more left", "x")]]
_MATRIX = pdial.ClusterSimilarityMatrix(["x", "y"], np.eye(2))
_PCA = pdial.PcaModel(np.zeros(2), np.eye(2), [1.0, 0.5])
_MEAN, _STD = [[1.0, 0.5], [0.5, 1.0]], [[0.0, 0.1], [0.1, 0.0]]


def _report_of(name):
    def build(v):
        mats = {"pre_mean": _MEAN, "pre_std": _STD,
                "post_mean": _MEAN, "post_std": _STD, name: v}
        return pdial.evaluation.SimilarityReport(("a", "b"), **mats)
    return build


# Each entry point that takes an array: a call with ``v`` in place of
# one array, the name its message gives, and a value it accepts there.
_ARRAY_ENTRY_POINTS = {
    "ClusterSimilarityMatrix-sim": (
        lambda v: pdial.ClusterSimilarityMatrix(["a", "b"], v), "sim", _MEAN
    ),
    "PcaModel-mean": (
        lambda v: pdial.PcaModel(v, np.eye(2), [1.0, 0.5]), "mean", [0.0, 0.0]
    ),
    "PcaModel-components": (
        lambda v: pdial.PcaModel(np.zeros(2), v, [1.0, 0.5]), "components",
        [[1.0, 0.0], [0.0, 1.0]],
    ),
    "PcaModel-explained_variance": (
        lambda v: pdial.PcaModel(np.zeros(2), np.eye(2), v), "explained_variance",
        [1.0, 0.5],
    ),
    "ProjectionModel-coef": (
        lambda v: pdial.ProjectionModel(v, np.eye(2)), "coef", [[1.0, 0.0], [0.0, 1.0]]
    ),
    "ProjectionModel-basis": (
        lambda v: pdial.ProjectionModel(np.eye(2), v), "basis", [[1.0, 0.0], [0.0, 1.0]]
    ),
    "ProjectionModel-base": (
        lambda v: pdial.ProjectionModel(np.empty((0, 2)), np.empty((0, 2)), v), "base",
        [[1.0, 0.0], [0.0, 1.0]],
    ),
    "ProjectionModel.from_weights": (
        pdial.ProjectionModel.from_weights, "W", [[1.0, 0.0], [0.0, 1.0]]
    ),
    **{
        f"SimilarityReport-{name}": (_report_of(name), name, good)
        for name, good in (("pre_mean", _MEAN), ("pre_std", _STD),
                           ("post_mean", _MEAN), ("post_std", _STD))
    },
    "fit_pca": (pdial.fit_pca, "points", [[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]]),
    "jacobi_eigh": (pdial.jacobi_eigh, "matrix", [[2.0, 1.0], [1.0, 2.0]]),
    "pca_transform": (lambda v: pdial.pca_transform(_PCA, v), "point", [1.0, 2.0]),
    "train": (
        lambda v: pdial.train(_DOCS, _MATRIX, v, pdial.TrainConfig(epochs=1)),
        "embeddings", [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
    ),
}


def _with_first(good, v):
    """``good`` with its first number replaced by ``v``."""
    if isinstance(good[0], list):
        return [_with_first(good[0], v), *good[1:]]
    return [v, *good[1:]]


def _array_cases():
    for name, (call, what, good) in _ARRAY_ENTRY_POINTS.items():
        for case, v in {"string": "1", "bool": True}.items():
            yield name, case, call, _with_first(good, v), (
                f"{what} must hold only JSON numbers")
        yield name, "ragged", call, [*good[:-1], [good[-1]]], (
            f"{what}: setting an array element with a sequence")
        for case, v in _NOT_FINITE.items():
            yield name, case, call, _with_first(good, v), f"{what} must be finite"
        wrong = [[entry] for entry in good]
        yield name, "wrong-shape", call, wrong, (
            f"{what} has shape {np.shape(wrong)}, expected ")


@pytest.mark.parametrize("call, value, message", [
    pytest.param(call, value, message, id=f"{name}-{case}")
    for name, case, call, value, message in _array_cases()
])
def test_every_array_entry_point_refuses_what_is_not_a_number(call, value, message):
    """A string, a bool, a ragged nested list, a NaN, an infinity or a
    wrong shape, where a holder or a function takes an array, gives an
    InputValidationError naming the array, from the one check in
    ``errors.require_array``."""
    with pytest.raises(pdial.InputValidationError) as err:
        call(value)
    assert type(err.value) is pdial.InputValidationError
    assert str(err.value).startswith(message)


@pytest.mark.parametrize("name", ["train", "fit_pca"])
def test_arrays_a_function_is_given_stay_writable(name):
    """A function is no holder: a float64 array it is given stays the
    caller's, writable."""
    call, _, good = _ARRAY_ENTRY_POINTS[name]
    value = np.array(good)
    call(value)
    assert value.flags.writeable
    value[0, 0] = 5.0
