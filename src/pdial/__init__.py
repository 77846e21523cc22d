"""pdial: a perspective metric over text plus prompt-search steering of
LLM output toward a chosen point in that metric's 2-D space.

The exported names, and the submodules, load on first access (PEP 562),
so ``import pdial`` imports none of them and each command of
``pdial.cli`` loads only the modules it uses.
"""

__version__ = "0.1.0"

# exported name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys(
        ["EmbeddingBackendConfig", "embed_batch", "hashed_embed"], "embedding"
    ),
    **dict.fromkeys(
        [
            "BackendError",
            "ConfigurationError",
            "FormatError",
            "InputValidationError",
            "NumericError",
            "PdialError",
            "ProtocolError",
        ],
        "errors",
    ),
    **dict.fromkeys(["SimilarityReport", "cluster_similarity_report"], "evaluation"),
    **dict.fromkeys(["LlmBackendConfig", "complete"], "llm_client"),
    **dict.fromkeys(
        [
            "ClusterSimilarityMatrix",
            "LabeledDocument",
            "ProjectionModel",
            "TrainConfig",
            "TrainingPair",
            "generate_pairs",
            "train",
        ],
        "metric",
    ),
    **dict.fromkeys(
        [
            "PerspectiveSpace",
            "PromptAssignment",
            "PromptSpec",
            "SearchTrace",
            "brute_force_search",
            "gcd_search",
            "loss_to_target",
            "render_prompt",
        ],
        "optimizer",
    ),
    **dict.fromkeys(
        ["PcaModel", "PerspectivePoint", "fit_pca", "jacobi_eigh", "pca_transform"],
        "pca",
    ),
}
_SUBMODULES = frozenset({
    "_http", "cli", "embedding", "errors", "evaluation", "llm_client",
    "metric", "optimizer", "pca", "persistence", "plotting",
})

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> object:
    from importlib import import_module

    if name in _SUBMODULES:
        # importing a submodule binds it on the package
        return import_module(f"{__name__}.{name}")
    if name in _EXPORTS:
        return getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
