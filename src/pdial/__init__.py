"""pdial: a perspective metric over text plus prompt-search steering of
LLM output toward a chosen point in that metric's 2-D space."""

from .embedding import EmbeddingBackendConfig, embed_batch, hashed_embed
from .errors import (
    BackendError,
    ConfigurationError,
    FormatError,
    InputValidationError,
    NumericError,
    PdialError,
    ProtocolError,
)
from .evaluation import SimilarityReport, cluster_similarity_report
from .llm_client import LlmBackendConfig, complete
from .metric import (
    ClusterSimilarityMatrix,
    LabeledDocument,
    ProjectionModel,
    TrainConfig,
    TrainingPair,
    generate_pairs,
    loss_gradient,
    train,
)
from .optimizer import (
    PerspectiveSpace,
    PromptAssignment,
    PromptSpec,
    SearchTrace,
    brute_force_search,
    gcd_search,
    loss_to_target,
    render_prompt,
)
from .pca import PcaModel, PerspectivePoint, fit_pca, jacobi_eigh, pca_transform

__version__ = "0.1.0"
