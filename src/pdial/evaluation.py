"""Cluster-vs-cluster cosine similarity report.

For every (test cluster, train cluster) cell the report holds the mean
and population std of cosine similarity over all cross pairs, once for
the identity projection of the base embeddings ("pre") and once for the
trained projection ("post"). Rows are test clusters, columns train
clusters; the diagonal says how well test texts align with their own
cluster's training texts.

Each of "pre" and "post" is one matrix: the rows of the split's vectors
are normalised once, ``S = U_test @ U_train^T`` holds every cross-pair
cosine, and a cell's statistics are those of the ``S`` block whose rows
are the test cluster and whose columns are the train cluster.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embedding import EmbeddingBackendConfig, embed_batch
from .errors import InputValidationError
from .metric import LabeledDocument, ProjectionModel


@dataclass(frozen=True)
class SimilarityReport:
    clusters: tuple[str, ...]
    pre_mean: np.ndarray
    pre_std: np.ndarray
    post_mean: np.ndarray
    post_std: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.clusters)
        for name in ("pre_mean", "pre_std", "post_mean", "post_std"):
            mat = np.asarray(getattr(self, name), dtype=np.float64)
            if mat.shape != (n, n):
                raise InputValidationError(
                    f"{name} has shape {mat.shape}, expected ({n}, {n})"
                )
            object.__setattr__(self, name, mat)
        if np.any(np.abs(self.pre_mean) > 1.0 + 1e-12) or np.any(
            np.abs(self.post_mean) > 1.0 + 1e-12
        ):
            raise InputValidationError("mean similarities must lie in [-1, 1]")
        if np.any(self.pre_std < 0.0) or np.any(self.post_std < 0.0):
            raise InputValidationError("stds must be non-negative")


def cluster_similarity_report(
    train: list[LabeledDocument],
    test: list[LabeledDocument],
    model: ProjectionModel,
    backend_cfg: EmbeddingBackendConfig,
) -> SimilarityReport:
    """Compare every test document against every train document, grouped
    by cluster.

    Cluster order follows first appearance in the train split. Every
    train cluster must have test documents (and vice versa), otherwise
    some cells would be empty. A document whose base or projected vector
    is zero has no cosine similarity and is rejected.
    """
    if not train or not test:
        raise InputValidationError("both splits must be non-empty")
    clusters: list[str] = []
    for doc in train:
        if doc.cluster not in clusters:
            clusters.append(doc.cluster)
    test_clusters = {doc.cluster for doc in test}
    unknown = sorted(test_clusters - set(clusters))
    if unknown:
        raise InputValidationError(
            f"test clusters {unknown} do not appear in the train split"
        )
    missing = [c for c in clusters if c not in test_clusters]
    if missing:
        raise InputValidationError(
            f"train clusters {missing} have no test documents"
        )

    if backend_cfg.dimension != model.d_in:
        raise InputValidationError(
            f"embedding dimension {backend_cfg.dimension} does not match "
            f"the model's d_in={model.d_in}"
        )
    docs = train + test
    B = np.stack(embed_batch([d.text for d in docs], backend_cfg))
    train_of = [[k for k, d in enumerate(train) if d.cluster == c] for c in clusters]
    test_of = [[k for k, d in enumerate(test) if d.cluster == c] for c in clusters]
    cells = []
    for kind, X in (("base", B), ("projected", B @ model.W.T)):
        norms = np.linalg.norm(X, axis=1)
        zero = np.flatnonzero(norms == 0.0)
        if zero.size:
            raise InputValidationError(
                f"document {docs[zero[0]].id!r} has a zero {kind} vector, "
                "so its cosine similarity is undefined"
            )
        U = X / norms[:, None]
        S = U[len(train) :] @ U[: len(train)].T
        blocks = [[S[np.ix_(rows, cols)] for cols in train_of] for rows in test_of]
        cells.append(np.array([[b.mean() for b in row] for row in blocks]))
        # population std
        cells.append(np.array([[b.std() for b in row] for row in blocks]))
    pre_mean, pre_std, post_mean, post_std = cells
    return SimilarityReport(
        clusters=tuple(clusters),
        pre_mean=pre_mean,
        pre_std=pre_std,
        post_mean=post_mean,
        post_std=post_std,
    )


def render_report_text(report: SimilarityReport) -> str:
    """Human-readable table, one block per test cluster, cells formatted
    as "mean (std)" with 2 decimals."""
    width = max(12, max(len(c) for c in report.clusters) + 2)
    lines = []
    for i, test_cluster in enumerate(report.clusters):
        lines.append(f"Test: {test_cluster}")
        lines.append(
            f"  {'Train Set':<{width}}{'Pre-Train':<14}Post-Train"
        )
        for j, train_cluster in enumerate(report.clusters):
            pre = f"{report.pre_mean[i, j]:.2f} ({report.pre_std[i, j]:.2f})"
            post = f"{report.post_mean[i, j]:.2f} ({report.post_std[i, j]:.2f})"
            lines.append(f"  {train_cluster:<{width}}{pre:<14}{post}")
        lines.append("")
    lines.append("std: population")
    return "\n".join(lines) + "\n"
