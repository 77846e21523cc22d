"""Cluster-vs-cluster cosine similarity report.

For every (test cluster, train cluster) cell the report holds the mean
and population std of cosine similarity over all cross pairs, once for
the identity projection of the base embeddings ("pre") and once for the
trained projection ("post"). Rows are test clusters, columns train
clusters; the diagonal says how well test texts align with their own
cluster's training texts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embedding import EmbeddingBackendConfig, embed_batch
from .errors import InputValidationError
from .metric import LabeledDocument, ProjectionModel, cosine_similarity, project


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


def _group_by_cluster(
    docs: list[LabeledDocument], embeddings: list[np.ndarray]
) -> dict[str, list[np.ndarray]]:
    groups: dict[str, list[np.ndarray]] = {}
    for doc, emb in zip(docs, embeddings):
        groups.setdefault(doc.cluster, []).append(emb)
    return groups


def _cell_stats(
    test_vecs: list[np.ndarray], train_vecs: list[np.ndarray]
) -> tuple[float, float]:
    sims = np.array(
        [cosine_similarity(t, r) for t in test_vecs for r in train_vecs]
    )
    return float(np.mean(sims)), float(np.std(sims))  # population std


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
    some cells would be empty.
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

    base = embed_batch([d.text for d in train + test], backend_cfg)
    train_base, test_base = base[: len(train)], base[len(train) :]
    train_post = [project(model, e) for e in train_base]
    test_post = [project(model, e) for e in test_base]

    by_cluster = {
        "train_pre": _group_by_cluster(train, train_base),
        "test_pre": _group_by_cluster(test, test_base),
        "train_post": _group_by_cluster(train, train_post),
        "test_post": _group_by_cluster(test, test_post),
    }

    n = len(clusters)
    pre_mean = np.zeros((n, n))
    pre_std = np.zeros((n, n))
    post_mean = np.zeros((n, n))
    post_std = np.zeros((n, n))
    for i, test_cluster in enumerate(clusters):
        for j, train_cluster in enumerate(clusters):
            pre_mean[i, j], pre_std[i, j] = _cell_stats(
                by_cluster["test_pre"][test_cluster],
                by_cluster["train_pre"][train_cluster],
            )
            post_mean[i, j], post_std[i, j] = _cell_stats(
                by_cluster["test_post"][test_cluster],
                by_cluster["train_post"][train_cluster],
            )
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
