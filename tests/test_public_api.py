from pathlib import Path
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
        "generate_pairs",
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
        "SimilarityReport", "TrainConfig", "TrainingPair", "brute_force_search",
        "cluster_similarity_report", "complete", "embed_batch", "fit_pca",
        "gcd_search", "generate_pairs", "hashed_embed", "jacobi_eigh",
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
