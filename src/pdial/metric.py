"""Siamese projection head, contrastive objectives, and training loop.

A single linear map ``W`` (no bias, no nonlinearity) projects frozen base
embeddings into the perspective space. ``W`` is shared between both
branches of every pair, so pair gradients accumulate contributions
through both sides. Two objectives are provided:

* cosine loss: squared error between the pair's cosine similarity and a
  continuous label in [0, 1];
* contrastive loss over Euclidean distance d with margin m:
  ``y*d^2 + (1-y)*max(0, m-d)^2`` for binary y.

Each formula has one copy, with its gradient: ``_cosine`` takes the
projected pair, and ``_contrastive`` only the pair's squared distance.
The trainer calls both.

Training is plain single-pair SGD under a fixed seed so that identical
inputs give bit-identical models. The trainer works in the span of the
N training embeddings (dual form, see ``train``), and its steps in an
orthonormal basis of the row space of the initial projections, so a
step costs O(N * min(N, d_out)) instead of O(d_out * d_in); a
contrastive step computes only the pair's difference u - v and applies
one gradient to both documents. At the sizes this runs at, a step is a
few small numpy calls, so their count sets its cost: the pairs are
arrays of dataset positions, the rows a step reads are gathered for a
chunk of steps at a time, and the 1-D products call ``ndarray.dot``.

The model is held as those span factors. ``ProjectionModel.project`` is
the one way the commands apply the head, in O(N * d) per text through
the factors; the dense d_out x d_in ``W`` is built only when read, and
only the tests and the bench's closing check read it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import functools
import itertools
import math

import numpy as np

from .errors import (
    ConfigurationError,
    InputValidationError,
    NumericError,
    is_integer,
    read_only_float64,
    require_array,
    require_field_types,
    require_text,
    require_texts,
)


@dataclass(frozen=True)
class LabeledDocument:
    id: str
    text: str
    cluster: str

    def __post_init__(self) -> None:
        for name in ("id", "text", "cluster"):
            require_text(getattr(self, name), InputValidationError, name)
        if not self.id:
            raise InputValidationError("document id must be non-empty")
        if not self.text.strip():
            raise InputValidationError(f"document {self.id!r} has empty text")
        if not self.cluster:
            raise InputValidationError(
                f"document {self.id!r} has empty cluster label"
            )


class ClusterSimilarityMatrix:
    """Per-topic pair label scheme: same cluster 1.0, center-vs-pole 0.35,
    pole-vs-pole 0.0 in the canonical three-cluster setup. The matrix
    keeps ``sim`` read-only (see ``read_only_float64``), so no later write
    can break these rules."""

    def __init__(self, clusters: list[str], sim: np.ndarray) -> None:
        require_texts(clusters, InputValidationError, "clusters")
        n = len(clusters)
        if len(set(clusters)) != n:
            raise InputValidationError("cluster labels must be unique")
        sim = require_array(sim, InputValidationError, "sim", (n, n))
        if not np.array_equal(sim, sim.T):
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
        self.sim = read_only_float64(sim)
        self._index = {c: i for i, c in enumerate(clusters)}

    def label(self, cluster_a: str, cluster_b: str) -> float:
        try:
            return float(self.sim[self._index[cluster_a], self._index[cluster_b]])
        except KeyError as exc:
            raise ConfigurationError(
                f"cluster {exc.args[0]!r} is not in the similarity matrix "
                f"(known: {self.clusters})"
            ) from exc


@dataclass(frozen=True, eq=False)
class ProjectionModel:
    """The shared-weight Siamese head ``W = base + coef^T basis``, held as
    the span factors ``train`` builds it from.

    ``basis`` holds the N base embeddings of the training documents
    (N x d_in) and ``coef`` one row of coefficients per document
    (N x d_out). ``base`` is the initial matrix (d_out x d_in), or None
    for the identity, which needs d_in == d_out. ``project`` applies the
    head through the factors; the dense ``W`` is built only when read,
    and cannot be passed in or replaced. The factors and ``W`` are
    read-only (see ``read_only_float64``), so ``W`` and ``project`` agree
    for the model's life.
    """

    coef: np.ndarray
    basis: np.ndarray
    base: np.ndarray | None = None

    def __post_init__(self) -> None:
        coef = require_array(self.coef, InputValidationError, "coef", (None, None))
        n, d_out = coef.shape
        basis = require_array(self.basis, InputValidationError, "basis", (n, None))
        d_in = basis.shape[1]
        if not (d_out and d_in):
            raise InputValidationError(
                f"coef {coef.shape} and basis {basis.shape} must have at least "
                f"one column"
            )
        base = self.base
        if base is not None:
            base = require_array(base, InputValidationError, "base", (d_out, d_in))
        elif d_in != d_out:
            raise InputValidationError(
                f"base is null (the identity) but d_in={d_in} != d_out={d_out}"
            )
        # |W_ij| <= |base_ij| + sum_n |coef_ni| |basis_nj|, so every entry
        # of W is finite when this bound is. The factors are finite; the
        # bound is infinite when their products overflow.
        with np.errstate(over="ignore"):
            bound = (1.0 if base is None else np.abs(base).max()) + (
                np.abs(coef).max(axis=1) @ np.abs(basis).max(axis=1)
            )
        if not np.isfinite(bound):
            raise InputValidationError("W contains non-finite entries")
        object.__setattr__(self, "coef", read_only_float64(coef))
        object.__setattr__(self, "basis", read_only_float64(basis))
        object.__setattr__(
            self, "base", None if base is None else read_only_float64(base)
        )

    @functools.cached_property
    def W(self) -> np.ndarray:
        """The dense d_out x d_in head, built on first read. No command
        reads it: the tests and the bench's closing check do.

        Training and loading give the same factors, so a loaded W is
        bit-identical to the trained one. With no rows W is ``base`` as it
        is (adding a zero product turns -0.0 into 0.0). The sum is built
        in the product's buffer, with no d x d identity beside it;
        ``P += 0.0`` turns -0.0 into 0.0 as ``eye + P`` does.
        """
        if len(self.coef) == 0:
            W = np.eye(self.d_in) if self.base is None else self.base
        else:
            W = self.coef.T @ self.basis
            if self.base is None:
                W += 0.0
                W[np.diag_indices_from(W)] += 1.0
            else:
                W += self.base
        W.flags.writeable = False
        return W

    def project(self, e: np.ndarray) -> np.ndarray:
        """``W e`` for a vector ``e``, or ``E W^T`` for the rows of ``E``,
        computed through the factors without the dense ``W``."""
        head = e if self.base is None else e @ self.base.T
        return head + (e @ self.basis.T) @ self.coef

    @property
    def d_in(self) -> int:
        return self.basis.shape[1]

    def check_input_width(self, dimension: int) -> None:
        """InputValidationError unless embeddings of ``dimension`` fit d_in."""
        if dimension != self.d_in:
            raise InputValidationError(
                f"embedding dimension {dimension} does not match "
                f"the model's d_in={self.d_in}"
            )

    @property
    def d_out(self) -> int:
        return self.coef.shape[1]

    @classmethod
    def from_weights(cls, W: np.ndarray) -> "ProjectionModel":
        """The model of a bare d_out x d_in matrix: ``base = W``, no rows."""
        W = require_array(W, InputValidationError, "W", (None, None))
        d_out, d_in = W.shape
        return cls(np.empty((0, d_out)), np.empty((0, d_in)), W)

    @classmethod
    def initial(cls, d_in: int, d_out: int, seed: int) -> "ProjectionModel":
        """The head before training: the identity (base None) when square,
        else a seeded Gaussian base with scale 1/sqrt(d_in)."""
        if d_in == d_out:
            return cls(np.empty((0, d_out)), np.empty((0, d_in)))
        return cls.from_weights(
            _rng(seed).normal(0.0, 1.0 / np.sqrt(d_in), size=(d_out, d_in))
        )


@dataclass(frozen=True)
class TrainConfig:
    loss_kind: str = "contrastive"  # "cosine" or "contrastive"
    margin_m: float = 1.0
    learning_rate: float = 0.01
    epochs: int = 10
    seed: int = 0
    binarize_threshold: float = 0.5

    def __post_init__(self) -> None:
        require_field_types(self)
        if self.loss_kind not in ("cosine", "contrastive"):
            raise ConfigurationError(f"unknown loss kind {self.loss_kind!r}")
        for name, value in (
            ("margin", self.margin_m), ("learning rate", self.learning_rate)
        ):
            if not 0 < value < math.inf:
                raise ConfigurationError(
                    f"{name} must be > 0, got {value} (finite values only)"
                )
        if self.epochs < 0:
            raise ConfigurationError(f"epochs must be >= 0, got {self.epochs}")
        if not -(2**63) <= self.seed < 2**63:
            # _rng reads a seed modulo 2**64: a wider one would repeat another
            raise ConfigurationError(
                f"seed must be a signed 64-bit integer, got {self.seed}"
            )
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


def _pair_arrays(
    dataset: list[LabeledDocument],
    matrix: ClusterSimilarityMatrix,
    seed: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The training pairs: every pair of dataset positions i < j once,
    in ``np.triu_indices`` order, permuted by ``_rng(seed)``. Returns the
    positions of each pair's documents and its label from the cluster
    matrix.

    The labels come from a table of the clusters present, C^2 calls of
    ``matrix.label`` instead of one per pair. The table's rows follow
    the clusters' first appearance, so an unknown cluster raises the
    ConfigurationError that names the first unknown one in the dataset.
    """
    names = {doc.cluster: None for doc in dataset}
    table = np.array([[matrix.label(a, b) for b in names] for a in names])
    position = {name: n for n, name in enumerate(names)}
    cluster = np.array([position[doc.cluster] for doc in dataset])
    ia, ib = np.triu_indices(len(dataset), 1)
    order = _rng(seed).permutation(len(ia))
    ia, ib = ia[order], ib[order]
    return ia, ib, table[cluster[ia], cluster[ib]]


# Steps per gather of the rows of P and K that they read (see train).
# A chunk holds 256 x (N + r) floats, twice that under cosine loss, small
# at any N; one gather per epoch would hold N^2/2 x (N + r), ~40 MB at
# N = 180.
_CHUNK = 256


def _contrastive(dd: float, similar: bool, margin: float) -> tuple[float, float]:
    """Contrastive loss of a pair from its squared distance ``dd = |u-v|^2``
    and its binarized label, and the scale ``s`` of its gradient:
    dL/du = s (u-v) = -dL/dv.

    The one copy of the contrastive formula, which the trainer's step
    calls. At d = 0 a dissimilar pair costs margin^2 and takes the zero
    subgradient.
    """
    d = math.sqrt(dd)
    if similar:
        return d * d, 2.0
    if d >= margin:
        return 0.0, 0.0
    if d == 0.0:
        return margin * margin, 0.0
    return (margin - d) ** 2, -2.0 * (margin - d) / d


def _cosine(
    u: np.ndarray, v: np.ndarray, y: float
) -> tuple[float, np.ndarray, np.ndarray]:
    """Cosine loss ``(cos(u, v) - y)^2`` of one projected pair and its
    gradients dL/du, dL/dv; the cosine counterpart of ``_contrastive``.

    Raises PairSkip when u or v has zero norm.
    """
    # sqrt(u . u) is how np.linalg.norm computes a vector's norm, bit for
    # bit, at a fraction of its call cost.
    nu = math.sqrt(u.dot(u))
    nv = math.sqrt(v.dot(v))
    if nu == 0.0 or nv == 0.0:
        raise PairSkip("zero-norm projected embedding under cosine loss")
    c = float(u.dot(v) / (nu * nv))
    r = c - y
    loss = r * r
    dldu = 2.0 * r * (v / (nu * nv) - c * u / (nu * nu))
    dldv = 2.0 * r * (u / (nu * nv) - c * v / (nv * nv))
    return loss, dldu, dldv


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
    must be an int of at least 1. The pairs are every pair of documents
    i < j once, in ``np.triu_indices`` order permuted by
    ``_rng(cfg.seed)``, held as arrays of dataset positions and labels
    (``_pair_arrays``), and reshuffled per epoch by
    ``_rng(cfg.seed, epoch)``. Under contrastive loss a pair is similar
    when its label is at least ``cfg.binarize_threshold``; the labels are
    binarized once, before the first step. Returns the final model and a
    per-epoch training log.

    The SGD runs in dual form. Each step's gradient is
    ``outer(dL/du, a) + outer(dL/dv, b)`` with ``a``, ``b`` rows of the
    N x d_in embedding matrix ``E``, so ``W = W0 + C^T E`` for an
    N x d_out coefficient matrix ``C`` whose row n belongs to document n.
    With ``K = E E^T`` and ``P0 = E W0^T`` precomputed, the projections
    of all documents are the rows of ``U = P0 + K C``.

    Every gradient is a combination of rows of ``U`` (``u - v`` under
    contrastive loss, ``u`` and ``v`` under cosine loss), so the rows of
    ``C`` stay in the row space of ``P0``. The steps therefore run in
    the orthonormal coordinates ``Q`` (d_out x r, r = min(N, d_out), from
    a QR of ``P0^T``): on ``P = P0 Q`` and ``G = C Q``, which are r wide,
    and ``C = G Q^T`` at the end. ``Q`` keeps distances, norms and dot
    products, so every loss and branch is the one of the d_out-wide
    steps, up to rounding. A step computes ``u = P[i] + K[i] @ G`` in
    O(N * r); under contrastive loss dL/dv = -dL/du, so it computes only
    ``diff = u - v = (P[i] - P[j]) + (K[i] - K[j]) @ G`` and applies one
    gradient ``g`` as ``G[i] -= g; G[j] += g``. The model is
    ``ProjectionModel(C, E, W0)``, with ``W0`` None for the identity.

    Only ``G`` changes between steps, so the rows of ``P`` and ``K`` that
    a step reads are gathered ahead, ``_CHUNK`` steps at a time, with one
    fancy index per array: ``P[a] - P[b]`` and ``K[a] - K[b]`` under
    contrastive loss, ``P[a]``, ``K[a]``, ``P[b]``, ``K[b]`` under cosine
    loss. The subtractions are elementwise, so their bits are those of
    each step's own, and ``diff = dK.dot(G); diff += dP`` is ``dP + dK @ G``
    (IEEE addition commutes). The per-step products on 1-D rows use
    ``ndarray.dot``, which gives the bits of ``@`` at half its call cost.
    So the model and log are bit for bit those of one step at a time.

    A NumericError is raised before the first step when ``K``, ``P0`` or
    ``Q`` is not finite, and at the first step whose loss or gradient is
    not.
    """
    clusters_present = {doc.cluster for doc in dataset}
    if len(clusters_present) < 2:
        raise InputValidationError(
            "training needs at least 2 clusters with documents"
        )
    # A copy of its own: the model keeps E read-only, and the caller's
    # array must stay writable.
    E = require_array(
        embeddings, InputValidationError, "embeddings", (len(dataset), None)
    ).copy()
    d_in = E.shape[1]
    if d_in == 0:
        raise InputValidationError("embeddings must be non-empty vectors")
    if len({doc.id for doc in dataset}) != len(dataset):
        raise InputValidationError("dataset contains duplicate document ids")
    if d_out is None:
        d_out = d_in
    if not is_integer(d_out):
        raise InputValidationError(f"d_out must be int, got {d_out!r}")
    if d_out < 1:
        raise InputValidationError(f"d_out must be >= 1, got {d_out}")

    initial = ProjectionModel.initial(d_in, d_out, cfg.seed)
    # Documents with equal embeddings share one row of K and of P, so that
    # a pair of them sits at distance exactly 0. A matrix product may
    # round equal rows apart, so the rows are shared after the last one.
    first: dict[bytes, int] = {}
    same = [first.setdefault(r.tobytes(), n) for n, r in enumerate(E)]
    ia, ib, labels = _pair_arrays(dataset, matrix, cfg.seed)
    log = TrainingLog(pair_count=len(ia))
    lr = cfg.learning_rate
    margin = cfg.margin_m
    contrastive = cfg.loss_kind == "contrastive"
    if contrastive:
        labels = labels >= cfg.binarize_threshold
    # An overflow shows as a non-finite product, checked before the first
    # step, or as a non-finite loss or gradient, checked right after each
    # step; numpy need not warn about it as well.
    with np.errstate(over="ignore", invalid="ignore"):
        K = (E @ E.T)[same]
        P0 = initial.project(E)
        finite = np.isfinite(K).all() and np.isfinite(P0).all()
        Q = np.linalg.qr(P0.T)[0] if finite else None
        if Q is None or not np.isfinite(Q).all():
            raise NumericError(
                "the embeddings' inner products or initial projections are "
                "beyond the float64 range"
            )
        P = (P0 @ Q)[same]
        G = np.zeros(P.shape)
        # One view per row of G, built once: a step updates its two rows
        # through a Python list instead of indexing the array.
        G_rows = list(G)
        for epoch in range(cfg.epochs):
            order = _rng(cfg.seed, epoch).permutation(len(ia))
            total = 0.0
            evaluated = 0
            skipped = 0
            for start in range(0, len(order), _CHUNK):
                k = order[start:start + _CHUNK]
                a, b = ia[k], ib[k]
                steps = zip(
                    itertools.count(start), a.tolist(), b.tolist(),
                    labels[k].tolist(),
                )
                if contrastive:
                    gathered = zip(P[a] - P[b], K[a] - K[b])
                else:
                    gathered = zip(P[a], K[a], P[b], K[b])
                for (step, i, j, y), rows_ij in zip(steps, gathered):
                    if contrastive:
                        dP, dK = rows_ij
                        diff = dK.dot(G)
                        diff += dP
                        dd = float(diff.dot(diff))
                        loss, scale = _contrastive(dd, y, margin)
                        # diff is finite when dd is; a margin near the
                        # float limit can still overflow the loss.
                        if not (math.isfinite(dd) and math.isfinite(loss)):
                            raise _diverged(dataset, epoch, step, i, j)
                        if scale:
                            diff *= lr * scale
                            G_rows[i] -= diff
                            G_rows[j] += diff
                    else:
                        Pa, Ka, Pb, Kb = rows_ij
                        try:
                            loss, dldu, dldv = _cosine(
                                Pa + Ka.dot(G), Pb + Kb.dot(G), y
                            )
                        except PairSkip:
                            skipped += 1
                            continue
                        if not (
                            np.isfinite(loss)
                            and np.isfinite(dldu).all()
                            and np.isfinite(dldv).all()
                        ):
                            raise _diverged(dataset, epoch, step, i, j)
                        G_rows[i] -= lr * dldu
                        G_rows[j] -= lr * dldv
                    total += loss
                    evaluated += 1
            # Finite losses can still sum past the float64 range, and no
            # training log may hold a non-finite number.
            if not math.isfinite(total):
                raise NumericError(
                    f"the loss of epoch {epoch} sums beyond the float64 range "
                    f"(margin {cfg.margin_m})"
                )
            log.epoch_mean_loss.append(total / evaluated if evaluated else 0.0)
            log.epoch_skipped_pairs.append(skipped)
        coef = G @ Q.T

    try:
        return ProjectionModel(coef, E, initial.base), log
    except InputValidationError as exc:
        # The last step's update is not seen by any later loss check.
        raise NumericError(
            f"training produced non-finite weights "
            f"(learning rate {cfg.learning_rate})"
        ) from exc


def _diverged(
    dataset: list[LabeledDocument], epoch: int, step: int, i: int, j: int
) -> NumericError:
    return NumericError(
        f"non-finite loss/gradient at epoch {epoch} step {step} "
        f"(pair {dataset[i].id!r}, {dataset[j].id!r})"
    )
