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


def test_perspective_space_is_the_one_text_to_point_path():
    assert pdial.PerspectiveSpace is pdial.optimizer.PerspectiveSpace
    for name in ("perspective_points", "perspective_of_output", "_PlaneMap"):
        assert not hasattr(pdial, name), name
        assert not hasattr(pdial.optimizer, name), name
