"""Siamese projection head, contrastive objectives, and training loop.

A single linear map ``W`` (no bias, no nonlinearity) projects frozen base
embeddings into the perspective space. ``W`` is shared between both
branches of every pair, so pair gradients accumulate contributions
through both sides. Two objectives are provided:

* cosine loss: squared error between the pair's cosine similarity and a
  continuous label in [0, 1];
* contrastive loss over Euclidean distance d with margin m:
  ``y*d^2 + (1-y)*max(0, m-d)^2`` for binary y.

Training is plain single-pair SGD under a fixed seed so that identical
inputs give bit-identical models. The trainer works in the span of the
N training embeddings (dual form, see ``train``), at O(d_out * N) per
step instead of O(d_out * d_in); ``loss_gradient`` gives the
full-matrix gradient of the same per-pair loss and is the oracle the
tests check the trainer against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, InputValidationError, NumericError


@dataclass(frozen=True)
class LabeledDocument:
    id: str
    text: str
    cluster: str

    def __post_init__(self) -> None:
        if not self.id:
            raise InputValidationError("document id must be non-empty")
        if not self.text:
            raise InputValidationError(f"document {self.id!r} has empty text")
        if not self.cluster:
            raise InputValidationError(
                f"document {self.id!r} has empty cluster label"
            )


class ClusterSimilarityMatrix:
    """Per-topic pair label scheme: same cluster 1.0, center-vs-pole 0.35,
    pole-vs-pole 0.0 in the canonical three-cluster setup."""

    def __init__(self, clusters: list[str], sim: np.ndarray) -> None:
        sim = np.asarray(sim, dtype=np.float64)
        n = len(clusters)
        if len(set(clusters)) != n:
            raise InputValidationError("cluster labels must be unique")
        if sim.shape != (n, n):
            raise InputValidationError(
                f"similarity matrix shape {sim.shape} does not match "
                f"{n} clusters"
            )
        if not np.allclose(sim, sim.T, rtol=0.0, atol=0.0):
            raise InputValidationError("similarity matrix must be symmetric")
        if not np.all(np.diag(sim) == 1.0):
            raise InputValidationError(
                "similarity matrix diagonal must be exactly 1.0"
            )
        if np.any(sim < 0.0) or np.any(sim > 1.0):
            raise InputValidationError(
                "similarity labels must lie in [0, 1]"
            )
        self.clusters = list(clusters)
        self.sim = sim
        self._index = {c: i for i, c in enumerate(clusters)}

    def label(self, cluster_a: str, cluster_b: str) -> float:
        try:
            return float(self.sim[self._index[cluster_a], self._index[cluster_b]])
        except KeyError as exc:
            raise ConfigurationError(
                f"cluster {exc.args[0]!r} is not in the similarity matrix "
                f"(known: {self.clusters})"
            ) from exc


@dataclass(frozen=True)
class TrainingPair:
    a: str
    b: str
    label_y: float


@dataclass(frozen=True)
class SpanFactors:
    """``W = base + coef^T basis``, the form ``train`` builds ``W`` in.

    ``basis`` holds the N base embeddings of the training documents
    (N x d_in) and ``coef`` one row of coefficients per document
    (N x d_out). ``base`` is the initial matrix (d_out x d_in), or None
    for the identity, which needs d_in == d_out.
    """

    base: np.ndarray | None
    coef: np.ndarray
    basis: np.ndarray

    def weights(self) -> np.ndarray:
        """``W`` by ``train``'s own expression, so a rebuilt matrix is
        bit-identical to the trained one; with no rows, ``base`` as it is
        (adding a zero product would turn -0.0 into 0.0).

        The sum is built in the product's buffer, so no d x d identity is
        held beside it. For the identity, ``P += 0.0`` turns -0.0 into 0.0
        as ``eye + P`` does, and the diagonal then gets its 1. An overflow
        gives non-finite entries without a warning; callers check for them.
        """
        if len(self.coef) == 0:
            if self.base is None:
                return np.eye(self.basis.shape[1])
            return self.base
        with np.errstate(over="ignore", invalid="ignore"):
            W = self.coef.T @ self.basis
            if self.base is None:
                W += 0.0
                W[np.diag_indices_from(W)] += 1.0
            else:
                W += self.base
        return W


@dataclass(frozen=True)
class ProjectionModel:
    """The shared-weight Siamese head: one d_out x d_in matrix.

    ``factors``, when set, are the span factors ``W`` was built from;
    ``persistence.save_model`` stores those instead of ``W``.
    """

    d_in: int
    d_out: int
    W: np.ndarray
    factors: SpanFactors | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        W = np.asarray(self.W, dtype=np.float64)
        if W.shape != (self.d_out, self.d_in):
            raise InputValidationError(
                f"W shape {W.shape} does not match "
                f"(d_out={self.d_out}, d_in={self.d_in})"
            )
        if not np.all(np.isfinite(W)):
            raise InputValidationError("W contains non-finite entries")
        object.__setattr__(self, "W", W)

    @classmethod
    def initial(cls, d_in: int, d_out: int, seed: int) -> "ProjectionModel":
        """Identity when square (the pre-train condition), else seeded
        Gaussian with scale 1/sqrt(d_in)."""
        if d_in == d_out:
            W = np.eye(d_in, dtype=np.float64)
        else:
            W = _rng(seed).normal(0.0, 1.0 / np.sqrt(d_in), size=(d_out, d_in))
        return cls(d_in=d_in, d_out=d_out, W=W)


@dataclass(frozen=True)
class TrainConfig:
    loss_kind: str = "contrastive"  # "cosine" or "contrastive"
    margin_m: float = 1.0
    learning_rate: float = 0.01
    epochs: int = 10
    seed: int = 0
    binarize_threshold: float = 0.5

    def __post_init__(self) -> None:
        if self.loss_kind not in ("cosine", "contrastive"):
            raise ConfigurationError(f"unknown loss kind {self.loss_kind!r}")
        if not self.margin_m > 0:
            raise ConfigurationError(f"margin must be > 0, got {self.margin_m}")
        if not self.learning_rate > 0:
            raise ConfigurationError(
                f"learning rate must be > 0, got {self.learning_rate}"
            )
        if self.epochs < 0:
            raise ConfigurationError(f"epochs must be >= 0, got {self.epochs}")
        if not 0.0 < self.binarize_threshold < 1.0:
            raise ConfigurationError(
                f"binarize threshold must be in (0, 1), "
                f"got {self.binarize_threshold}"
            )


@dataclass
class TrainingLog:
    """Per-epoch mean loss and count of pairs skipped per epoch."""

    pair_count: int = 0
    epoch_mean_loss: list[float] = field(default_factory=list)
    epoch_skipped_pairs: list[int] = field(default_factory=list)


class PairSkip(Exception):
    """Signal that a pair is undefined under the current loss (zero-norm
    projection under cosine loss) and should be skipped, not trained on."""


def _rng(*parts: int) -> np.random.Generator:
    # Seeds are signed 64-bit by contract; numpy wants non-negative words.
    return np.random.default_rng([p & 0xFFFFFFFFFFFFFFFF for p in parts])


def generate_pairs(
    dataset: list[LabeledDocument],
    matrix: ClusterSimilarityMatrix,
    seed: int,
) -> list[TrainingPair]:
    """All unordered document pairs (i < j) exactly once, labeled from the
    cluster matrix, in a seed-determined shuffled order."""
    if len(dataset) < 2:
        raise InputValidationError("need at least 2 documents to form pairs")
    pairs = []
    for i in range(len(dataset)):
        for j in range(i + 1, len(dataset)):
            a, b = dataset[i], dataset[j]
            pairs.append(
                TrainingPair(a=a.id, b=b.id, label_y=matrix.label(a.cluster, b.cluster))
            )
    order = _rng(seed).permutation(len(pairs))
    return [pairs[k] for k in order]


def cosine_similarity(u: np.ndarray, v: np.ndarray) -> float:
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise InputValidationError(
            f"vector shapes differ: {u.shape} vs {v.shape}"
        )
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise InputValidationError("cosine similarity undefined for zero vector")
    return float(np.dot(u, v) / (nu * nv))


def cosine_loss(ea: np.ndarray, eb: np.ndarray, y: float) -> float:
    """(cos(ea, eb) - y)^2 for a continuous label y in [0, 1]."""
    if not 0.0 <= y <= 1.0:
        raise InputValidationError(f"label must be in [0, 1], got {y}")
    return (cosine_similarity(ea, eb) - y) ** 2


def contrastive_loss(
    ea: np.ndarray, eb: np.ndarray, y_bin: int, m: float
) -> float:
    """y*d^2 + (1-y)*max(0, m-d)^2 over the pair distance d."""
    if m <= 0:
        raise InputValidationError(f"margin must be > 0, got {m}")
    if y_bin not in (0, 1):
        raise InputValidationError(f"binary label must be 0 or 1, got {y_bin}")
    ea = np.asarray(ea, dtype=np.float64)
    eb = np.asarray(eb, dtype=np.float64)
    if ea.shape != eb.shape:
        raise InputValidationError(
            f"vector shapes differ: {ea.shape} vs {eb.shape}"
        )
    d = float(np.linalg.norm(ea - eb))
    if y_bin == 1:
        return d * d
    return max(0.0, m - d) ** 2


def binarize_label(label_y: float, threshold: float) -> int:
    return 1 if label_y >= threshold else 0


def _pair_loss(
    u: np.ndarray, v: np.ndarray, y: float, cfg: TrainConfig
) -> tuple[float, np.ndarray, np.ndarray]:
    """Loss of one projected pair (u, v) and its gradients dL/du, dL/dv.

    The one loss core behind both the training step and the oracle
    ``loss_gradient``. Raises PairSkip when cosine loss meets a zero-norm
    projection.
    """
    if cfg.loss_kind == "contrastive":
        y_bin = binarize_label(y, cfg.binarize_threshold)
        m = cfg.margin_m
        diff = u - v
        d = float(np.linalg.norm(diff))
        if y_bin == 1:
            loss = d * d
            dldu = 2.0 * diff
        elif d >= m:
            loss = 0.0
            dldu = np.zeros_like(diff)
        elif d == 0.0:
            loss = m * m
            dldu = np.zeros_like(diff)
        else:
            loss = (m - d) ** 2
            dldu = (-2.0 * (m - d) / d) * diff
        return loss, dldu, -dldu

    # cosine loss
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        raise PairSkip("zero-norm projected embedding under cosine loss")
    c = float(np.dot(u, v) / (nu * nv))
    r = c - y
    loss = r * r
    dldu = 2.0 * r * (v / (nu * nv) - c * u / (nu * nu))
    dldv = 2.0 * r * (u / (nu * nv) - c * v / (nv * nv))
    return loss, dldu, dldv


def _pair_loss_grad(
    W: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    y: float,
    cfg: TrainConfig,
) -> tuple[float, np.ndarray]:
    # Core math on a raw weight matrix; callers validate shapes.
    loss, dldu, dldv = _pair_loss(W @ a, W @ b, y, cfg)
    return loss, np.outer(dldu, a) + np.outer(dldv, b)


def loss_gradient(
    model: ProjectionModel,
    ea_base: np.ndarray,
    eb_base: np.ndarray,
    y: float,
    cfg: TrainConfig,
) -> tuple[float, np.ndarray]:
    """Loss and analytic dL/dW for one pair, through both branches.

    With u = W a and v = W b:

    * contrastive, y=1:  L = |u-v|^2,        dL/dW = 2 (u-v) (a-b)^T
    * contrastive, y=0:  L = max(0, m-d)^2,  dL/dW = -2 (m-d)/d (u-v)(a-b)^T
      for 0 < d < m, zero otherwise (d = |u-v|; at d = 0 the hinge is not
      differentiable and the zero subgradient is used)
    * cosine: L = (c - y)^2 with c = cos(u, v); dL/du = 2 (c-y)
      (v/(|u||v|) - c u/|u|^2) and symmetrically for v.

    Every case is dL/dW = (dL/du) a^T + (dL/dv) b^T, built from the same
    per-pair loss core the trainer uses; this full-matrix form is the
    finite-difference-checked oracle of the trainer's step.

    Raises PairSkip when cosine loss meets a zero-norm projection.
    """
    a = np.asarray(ea_base, dtype=np.float64)
    b = np.asarray(eb_base, dtype=np.float64)
    if a.shape != (model.d_in,) or b.shape != (model.d_in,):
        raise InputValidationError(
            f"embedding shapes {a.shape}/{b.shape} do not match "
            f"d_in={model.d_in}"
        )
    return _pair_loss_grad(model.W, a, b, y, cfg)


def train(
    dataset: list[LabeledDocument],
    matrix: ClusterSimilarityMatrix,
    embeddings: list[np.ndarray],
    cfg: TrainConfig,
    d_out: int | None = None,
) -> tuple[ProjectionModel, TrainingLog]:
    """Train the projection head by single-pair SGD.

    ``embeddings`` holds the frozen base embedding of each document, in
    dataset order; d_in is their length, and ``d_out`` (default d_in)
    must be at least 1. Pairs are generated once from the cluster matrix
    and reshuffled per epoch with a seed derived from (cfg.seed, epoch).
    Returns the final model and a per-epoch training log.

    The SGD runs in dual form. Each step's gradient is
    ``outer(dL/du, a) + outer(dL/dv, b)`` with ``a``, ``b`` rows of the
    N x d_in embedding matrix ``E``, so ``W = W0 + G^T E`` for an
    N x d_out coefficient matrix ``G`` whose row n belongs to document n.
    With ``K = E E^T`` and ``P0 = E W0^T`` precomputed, a step computes
    ``u = P0[i] + K[i] @ G`` and updates rows i and j of ``G`` in
    O(d_out * N); ``W`` is built once at the end, and the model keeps
    ``W0`` (None for the identity), ``G`` and ``E`` as its ``factors``.
    """
    clusters_present = {doc.cluster for doc in dataset}
    if len(clusters_present) < 2:
        raise InputValidationError(
            "training needs at least 2 clusters with documents"
        )
    if len(embeddings) != len(dataset):
        raise InputValidationError(
            f"got {len(embeddings)} embeddings for {len(dataset)} documents"
        )
    rows = [np.asarray(e, dtype=np.float64) for e in embeddings]
    d_in = rows[0].size
    if d_in == 0 or any(r.shape != (d_in,) for r in rows):
        raise InputValidationError(
            "embeddings must be non-empty vectors of one common length"
        )
    index = {doc.id: n for n, doc in enumerate(dataset)}
    if len(index) != len(dataset):
        raise InputValidationError("dataset contains duplicate document ids")
    if d_out is None:
        d_out = d_in
    if d_out < 1:
        raise InputValidationError(f"d_out must be >= 1, got {d_out}")

    W0 = ProjectionModel.initial(d_in, d_out, cfg.seed).W
    E = np.stack(rows)
    K = E @ E.T
    P0 = E @ W0.T
    G = np.zeros((len(rows), W0.shape[0]))

    pairs = generate_pairs(dataset, matrix, cfg.seed)
    log = TrainingLog(pair_count=len(pairs))

    # An overflow shows as a non-finite loss or gradient, checked right
    # after each step; numpy need not warn about it as well.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            order = _rng(cfg.seed, epoch).permutation(len(pairs))
            total = 0.0
            evaluated = 0
            skipped = 0
            for step, k in enumerate(order):
                pair = pairs[k]
                i, j = index[pair.a], index[pair.b]
                try:
                    loss, dldu, dldv = _pair_loss(
                        P0[i] + K[i] @ G, P0[j] + K[j] @ G, pair.label_y, cfg
                    )
                except PairSkip:
                    skipped += 1
                    continue
                if not (
                    np.isfinite(loss)
                    and np.isfinite(dldu).all()
                    and np.isfinite(dldv).all()
                ):
                    raise NumericError(
                        f"non-finite loss/gradient at epoch {epoch} step {step} "
                        f"(pair {pair.a!r}, {pair.b!r})"
                    )
                G[i] -= cfg.learning_rate * dldu
                G[j] -= cfg.learning_rate * dldv
                total += loss
                evaluated += 1
            log.epoch_mean_loss.append(total / evaluated if evaluated else 0.0)
            log.epoch_skipped_pairs.append(skipped)

    factors = SpanFactors(base=None if d_in == d_out else W0, coef=G, basis=E)
    W = factors.weights()
    if not np.all(np.isfinite(W)):
        # The last step's update is not seen by any later loss check.
        raise NumericError(
            f"training produced non-finite weights "
            f"(learning rate {cfg.learning_rate})"
        )
    return ProjectionModel(d_in=d_in, d_out=d_out, W=W, factors=factors), log
