"""Prompt search: steer LLM output toward a target perspective point.

Prompts are a base phrase plus k swappable phrase slots. Two searches
over the assignment grid are provided: exhaustive brute force (guarded
by a combination budget) and greedy coordinate descent that sweeps one
coordinate at a time, adopting the per-coordinate argmin of the L2 loss
in the 2-D perspective space. Both record every evaluation in a trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import itertools
import math

from .embedding import EmbeddingBackendConfig, embed_batch
from .errors import ConfigurationError, InputValidationError
from .llm_client import LlmBackendConfig, complete
from .metric import LabeledDocument, ProjectionModel
from .pca import PcaModel, PerspectivePoint

BRUTE_FORCE_MAX_SLOTS = 8
BRUTE_FORCE_MAX_COMBINATIONS = 10_000
# Assignments brute force evaluates per batch; bounds the outputs held
# at once when the grid is at the combination budget.
BRUTE_FORCE_BATCH = 64
DEFAULT_MAX_SWEEPS = 10


@dataclass(frozen=True)
class PromptSpec:
    """Base phrases plus candidate lists for each phrase slot."""

    base_phrases: tuple[str, ...]
    slots: tuple[tuple[str, ...], ...] = ()
    joiner: str = " "

    def __post_init__(self) -> None:
        object.__setattr__(self, "base_phrases", tuple(self.base_phrases))
        object.__setattr__(
            self, "slots", tuple(tuple(s) for s in self.slots)
        )
        if not self.base_phrases:
            raise InputValidationError("prompt spec needs at least one base phrase")
        for i, candidates in enumerate(self.slots):
            if not candidates:
                raise InputValidationError(f"slot {i} has no candidates")

    def combination_count(self) -> int:
        return len(self.base_phrases) * math.prod(len(s) for s in self.slots)


@dataclass(frozen=True)
class PromptAssignment:
    base_index: int
    choices: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "choices", tuple(self.choices))


@dataclass(frozen=True)
class Evaluation:
    assignment: PromptAssignment
    prompt: str
    outputs: tuple[str, ...]
    point: PerspectivePoint
    loss: float


@dataclass
class SearchTrace:
    evaluations: list[Evaluation] = field(default_factory=list)
    best: int = -1

    def record(self, ev: Evaluation) -> int:
        self.evaluations.append(ev)
        idx = len(self.evaluations) - 1
        if self.best < 0 or ev.loss < self.evaluations[self.best].loss:
            self.best = idx
        return idx

    @property
    def best_evaluation(self) -> Evaluation:
        if self.best < 0:
            raise InputValidationError("trace has no evaluations")
        return self.evaluations[self.best]


def render_prompt(spec: PromptSpec, a: PromptAssignment) -> str:
    """Base phrase then each chosen non-empty candidate, joined by the
    spec joiner; empty candidates are elided."""
    if not 0 <= a.base_index < len(spec.base_phrases):
        raise InputValidationError(
            f"base index {a.base_index} out of range"
        )
    if len(a.choices) != len(spec.slots):
        raise InputValidationError(
            f"assignment has {len(a.choices)} choices for "
            f"{len(spec.slots)} slots"
        )
    parts = [spec.base_phrases[a.base_index]]
    for slot, choice in zip(spec.slots, a.choices):
        if not 0 <= choice < len(slot):
            raise InputValidationError(f"slot choice {choice} out of range")
        if slot[choice]:
            parts.append(slot[choice])
    return spec.joiner.join(parts)


class _PlaneMap:
    """The text-to-plane map: ``pca_transform(pca, proj.W @ e)`` composed
    into one 2 x d_in matrix ``M = C W`` and an offset ``c = C mean``,
    where ``C`` is the PCA's 2 x d_out components.

    The constructor checks that the embedding backend, the projection and
    the PCA fit together, so a mismatch fails before any backend request.
    ``M`` is applied one text at a time: a matrix product over the whole
    batch may round the same text differently at different rows, and the
    searches resolve exact ties between points.
    """

    def __init__(
        self,
        proj: ProjectionModel,
        pca: PcaModel,
        backend_cfg: EmbeddingBackendConfig,
    ) -> None:
        if backend_cfg.dimension != proj.d_in:
            raise InputValidationError(
                f"embedding dimension {backend_cfg.dimension} does not match "
                f"the model's d_in={proj.d_in}"
            )
        if pca.dim != proj.d_out:
            raise InputValidationError(
                f"PCA dimension {pca.dim} does not match "
                f"the model's d_out={proj.d_out}"
            )
        self.M = pca.components @ proj.W
        self.c = pca.components @ pca.mean
        self.backend_cfg = backend_cfg

    def points(self, texts: list[str]) -> list[PerspectivePoint]:
        points = []
        for e in embed_batch(texts, self.backend_cfg):
            x, y = self.M @ e - self.c
            points.append(PerspectivePoint(x=float(x), y=float(y)))
        return points


def perspective_points(
    texts: list[str],
    proj: ProjectionModel,
    pca: PcaModel,
    backend_cfg: EmbeddingBackendConfig,
) -> list[PerspectivePoint]:
    """Point of each of ``texts`` in the 2-D perspective space, from one
    embedding call: ``M e - c`` per embedding ``e``, with ``M = C W`` and
    ``c = C mean`` (see ``_PlaneMap``). Equal to
    ``pca_transform(pca, proj.W @ e)`` up to rounding.

    Raises InputValidationError, before embedding anything, when the
    backend's dimension is not the model's d_in or the PCA's is not its
    d_out."""
    if isinstance(texts, str):
        raise InputValidationError("expected a list of texts, got a str")
    return _PlaneMap(proj, pca, backend_cfg).points(texts)


def perspective_of_output(
    texts: list[str],
    proj: ProjectionModel,
    pca: PcaModel,
    backend_cfg: EmbeddingBackendConfig,
) -> PerspectivePoint:
    """Mean point of ``texts`` in the 2-D perspective space, from one
    embedding call."""
    return mean_point(perspective_points(texts, proj, pca, backend_cfg))


def loss_to_target(p: PerspectivePoint, target: PerspectivePoint) -> float:
    """L2 distance between two perspective points."""
    return math.hypot(p.x - target.x, p.y - target.y)


def mean_point(points: list[PerspectivePoint]) -> PerspectivePoint:
    return PerspectivePoint(
        x=sum(p.x for p in points) / len(points),
        y=sum(p.y for p in points) / len(points),
    )


def cluster_centroid(
    dataset: list[LabeledDocument],
    cluster: str,
    proj: ProjectionModel,
    pca: PcaModel,
    backend_cfg: EmbeddingBackendConfig,
) -> PerspectivePoint:
    """Mean perspective point of one cluster's documents; the named-cluster
    form of target specification."""
    docs = [doc for doc in dataset if doc.cluster == cluster]
    if not docs:
        raise ConfigurationError(
            f"cluster {cluster!r} has no documents in the dataset"
        )
    return perspective_of_output([doc.text for doc in docs], proj, pca, backend_cfg)


class _Evaluator:
    """Evaluates assignments, memoizing by rendered prompt."""

    def __init__(
        self,
        spec: PromptSpec,
        target: PerspectivePoint,
        proj: ProjectionModel,
        pca: PcaModel,
        llm_cfg: LlmBackendConfig,
        backend_cfg: EmbeddingBackendConfig,
        trace: SearchTrace,
        memoize: bool,
    ) -> None:
        self.spec = spec
        self.target = target
        self.plane = _PlaneMap(proj, pca, backend_cfg)
        self.llm_cfg = llm_cfg
        self.trace = trace
        self.memoize = memoize
        self._by_prompt: dict[str, int] = {}

    def losses(self, assignments: list[PromptAssignment]) -> list[float]:
        """Loss of each assignment, recording new evaluations in order.

        The prompts to evaluate go to the LLM in one ``complete`` call, and
        all their outputs to one embedding call. With ``memoize``, a prompt
        already in the trace or earlier in the batch is not evaluated again.
        """
        prompts = [render_prompt(self.spec, a) for a in assignments]
        todo = prompts
        if self.memoize:
            todo = [p for p in dict.fromkeys(prompts) if p not in self._by_prompt]
        samples: list[list[str]] = []
        points: list[PerspectivePoint] = []
        if todo:
            samples = complete(todo, self.llm_cfg)
            points = self.plane.points(
                [text for outputs in samples for text in outputs]
            )
        n = self.llm_cfg.samples_n
        fresh = itertools.count()
        losses = []
        for assignment, prompt in zip(assignments, prompts):
            if self.memoize and prompt in self._by_prompt:
                losses.append(self.trace.evaluations[self._by_prompt[prompt]].loss)
                continue
            j = next(fresh)
            point = mean_point(points[j * n : (j + 1) * n])
            loss = loss_to_target(point, self.target)
            idx = self.trace.record(
                Evaluation(
                    assignment=assignment,
                    prompt=prompt,
                    outputs=tuple(samples[j]),
                    point=point,
                    loss=loss,
                )
            )
            if self.memoize:
                self._by_prompt[prompt] = idx
            losses.append(loss)
        return losses


def brute_force_search(
    spec: PromptSpec,
    target: PerspectivePoint,
    proj: ProjectionModel,
    pca: PcaModel,
    llm_cfg: LlmBackendConfig,
    backend_cfg: EmbeddingBackendConfig,
) -> SearchTrace:
    """Evaluate every assignment once, in lexicographic order (base index
    major, then slot indices); ties keep the earliest evaluation.

    The grid is evaluated in batches of ``BRUTE_FORCE_BATCH`` assignments."""
    if len(spec.slots) > BRUTE_FORCE_MAX_SLOTS:
        raise ConfigurationError(
            f"brute force allows at most {BRUTE_FORCE_MAX_SLOTS} slots, "
            f"spec has {len(spec.slots)}"
        )
    combos = spec.combination_count()
    if combos > BRUTE_FORCE_MAX_COMBINATIONS:
        raise ConfigurationError(
            f"brute force budget exceeded: {combos} combinations "
            f"(limit {BRUTE_FORCE_MAX_COMBINATIONS})"
        )
    trace = SearchTrace()
    evaluator = _Evaluator(
        spec, target, proj, pca, llm_cfg, backend_cfg, trace, memoize=False
    )
    grid = (
        PromptAssignment(base_index, choices)
        for base_index in range(len(spec.base_phrases))
        for choices in itertools.product(*(range(len(s)) for s in spec.slots))
    )
    while batch := list(itertools.islice(grid, BRUTE_FORCE_BATCH)):
        evaluator.losses(batch)
    return trace


def gcd_search(
    spec: PromptSpec,
    target: PerspectivePoint,
    proj: ProjectionModel,
    pca: PcaModel,
    llm_cfg: LlmBackendConfig,
    backend_cfg: EmbeddingBackendConfig,
    max_sweeps: int = DEFAULT_MAX_SWEEPS,
) -> SearchTrace:
    """Greedy coordinate descent over (base, slot_0, ..., slot_k-1).

    Starts at the all-zero assignment; each sweep visits coordinates in
    order and adopts the candidate with minimal loss, holding the others
    fixed (ties go to the lowest candidate index). Stops after a sweep
    with no change or after ``max_sweeps``. The candidates of one
    coordinate are evaluated as one batch. Repeat visits to an already
    rendered prompt are served from the memo and add no trace entries.
    """
    if max_sweeps < 1:
        raise InputValidationError(f"max_sweeps must be >= 1, got {max_sweeps}")
    trace = SearchTrace()
    evaluator = _Evaluator(
        spec, target, proj, pca, llm_cfg, backend_cfg, trace, memoize=True
    )
    current = [0] * (1 + len(spec.slots))
    coordinate_sizes = [len(spec.base_phrases)] + [len(s) for s in spec.slots]

    for _ in range(max_sweeps):
        changed = False
        for coord, size in enumerate(coordinate_sizes):
            trials = []
            for candidate in range(size):
                trial = current.copy()
                trial[coord] = candidate
                trials.append(PromptAssignment(trial[0], tuple(trial[1:])))
            best_candidate = 0
            best_loss = math.inf
            for candidate, loss in enumerate(evaluator.losses(trials)):
                if loss < best_loss:
                    best_loss = loss
                    best_candidate = candidate
            if best_candidate != current[coord]:
                current[coord] = best_candidate
                changed = True
        if not changed:
            break
    return trace
