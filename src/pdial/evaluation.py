"""Cluster-vs-cluster cosine similarity report.

For every (test cluster, train cluster) cell the report holds the mean
and population std of cosine similarity over all cross pairs, once for
the identity projection of the base embeddings ("pre") and once for the
trained projection ("post"). Rows are test clusters, columns train
clusters; the diagonal says how well test texts align with their own
cluster's training texts.

Each of "pre" and "post" is one matrix: the rows of the split's vectors
are normalised once (each first scaled by a power of two, which is exact
and keeps its norm in range), ``S = U_test @ U_train^T`` holds every
cross-pair cosine, and a cell's statistics are those of the ``S`` block
whose rows are the test cluster and whose columns are the train cluster.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embedding import EmbeddingBackendConfig, embed_batch
from .errors import (
    InputValidationError,
    NumericError,
    read_only_float64,
    require_numbers,
    require_texts,
)
from .metric import LabeledDocument, ProjectionModel


@dataclass(frozen=True, eq=False)
class SimilarityReport:
    clusters: tuple[str, ...]
    pre_mean: np.ndarray
    pre_std: np.ndarray
    post_mean: np.ndarray
    post_std: np.ndarray

    def __post_init__(self) -> None:
        require_texts(self.clusters, InputValidationError, "clusters")
        object.__setattr__(self, "clusters", tuple(self.clusters))
        n = len(self.clusters)
        mats = {}
        for name in ("pre_mean", "pre_std", "post_mean", "post_std"):
            mat = require_numbers(getattr(self, name), InputValidationError, name)
            if mat.shape != (n, n):
                raise InputValidationError(
                    f"{name} has shape {mat.shape}, expected ({n}, {n})"
                )
            if not np.isfinite(mat).all():
                raise NumericError(f"{name} has non-finite cells")
            mats[name] = mat
        if np.any(np.abs(mats["pre_mean"]) > 1.0 + 1e-12) or np.any(
            np.abs(mats["post_mean"]) > 1.0 + 1e-12
        ):
            raise InputValidationError("mean similarities must lie in [-1, 1]")
        if np.any(mats["pre_std"] < 0.0) or np.any(mats["post_std"] < 0.0):
            raise InputValidationError("stds must be non-negative")
        for name, mat in mats.items():
            object.__setattr__(self, name, read_only_float64(mat))


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
    is zero has no cosine similarity and is rejected; one with a
    non-finite entry is a NumericError.
    """
    if not train or not test:
        raise InputValidationError("both splits must be non-empty")
    clusters = list(dict.fromkeys(doc.cluster for doc in train))
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

    model.check_input_width(backend_cfg.dimension)
    docs = train + test
    B = np.stack(embed_batch([d.text for d in docs], backend_cfg))
    train_of = [[k for k, d in enumerate(train) if d.cluster == c] for c in clusters]
    test_of = [[k for k, d in enumerate(test) if d.cluster == c] for c in clusters]
    cells = []
    # An overflow gives inf, or NaN where infinities of opposite sign
    # meet; either is reported below as a non-finite projected vector.
    with np.errstate(over="ignore", invalid="ignore"):
        projected = model.project(B)
    for kind, X in (("base", B), ("projected", projected)):
        peak = np.max(np.abs(X), axis=1)  # inf or NaN for a non-finite row
        bad = np.flatnonzero(~np.isfinite(peak))
        if bad.size:
            raise NumericError(
                f"document {docs[bad[0]].id!r} has a non-finite {kind} vector"
            )
        # Each row is scaled by the power of two that brings its largest
        # entry into [0.5, 1): exact, so the cosines keep every bit, and
        # the norm can neither overflow nor underflow.
        X = np.ldexp(X, -np.frexp(peak)[1][:, None])
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
