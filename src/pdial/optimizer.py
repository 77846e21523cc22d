"""The perspective space and the prompt search that steers LLM output
toward a target point in it.

:class:`PerspectiveSpace` maps a text to its 2-D point,
``pca_transform(pca, model.project(e))`` of its base embedding ``e``,
one text at a time. Prompts are a base phrase plus k swappable phrase
slots. Two searches over the assignment grid are provided: exhaustive
brute force (guarded by a combination budget) and greedy coordinate
descent that sweeps one coordinate at a time, adopting the
per-coordinate argmin of the L2 loss in the perspective space. Both
record every evaluation in a trace.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
import itertools
import math

from .embedding import EmbeddingBackendConfig, embed_batch
from .errors import ConfigurationError, InputValidationError, NumericError
from .llm_client import LlmBackendConfig, complete
from .metric import LabeledDocument, ProjectionModel
from .pca import PcaModel, PerspectivePoint, pca_transform

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
    """One search's whole record. Only ``record`` adds evaluations, and
    it lists in ``improvements`` each one whose loss is below all before
    it; ``best`` is the last of them, so ties keep the earliest.

    ``target`` is a point, or the texts whose mean point is the target;
    the search embeds those texts with its first batch and replaces them
    by that point, so a trace it returns always holds a point.
    """

    mode: str
    target: PerspectivePoint | tuple[str, ...]
    evaluations: list[Evaluation] = field(init=False, default_factory=list)
    improvements: list[int] = field(init=False, default_factory=list)

    def __post_init__(self) -> None:
        if isinstance(self.target, PerspectivePoint):
            return
        if isinstance(self.target, str):
            raise InputValidationError(
                "expected a point or a list of texts as target, got a str"
            )
        self.target = tuple(self.target)
        if not self.target:
            raise InputValidationError("target needs at least one text")

    def record(self, ev: Evaluation) -> None:
        if not self.improvements or ev.loss < self.best_evaluation.loss:
            self.improvements.append(len(self.evaluations))
        self.evaluations.append(ev)

    @property
    def best(self) -> int:
        return self.improvements[-1] if self.improvements else -1

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


class PerspectiveSpace:
    """The 2-D perspective space: the map from a text to its point,
    ``pca_transform(pca, proj.project(e))`` of its embedding ``e``.

    The constructor checks that the embedding backend, the projection and
    the PCA fit together, so a mismatch fails before any backend request.
    The map is applied one text at a time: a matrix product over the
    whole batch may round the same text differently at different rows,
    and the searches resolve exact ties between points.
    """

    def __init__(
        self,
        proj: ProjectionModel,
        pca: PcaModel,
        backend_cfg: EmbeddingBackendConfig,
    ) -> None:
        proj.check_input_width(backend_cfg.dimension)
        if pca.dim != proj.d_out:
            raise InputValidationError(
                f"PCA dimension {pca.dim} does not match "
                f"the model's d_out={proj.d_out}"
            )
        self.proj = proj
        self.pca = pca
        self.backend_cfg = backend_cfg

    def points(self, texts: list[str]) -> list[PerspectivePoint]:
        """Point of each of ``texts``, from one embedding call that sends
        each distinct text once; a bare ``str`` is an
        InputValidationError, as in ``embed_batch``. Each distinct text
        is mapped on its own, so repeats get the same point bits."""
        if isinstance(texts, str):
            raise InputValidationError("expected a list of texts, got a str")
        distinct = list(dict.fromkeys(texts))
        point_of = {
            text: pca_transform(self.pca, self.proj.project(e))
            for text, e in zip(distinct, embed_batch(distinct, self.backend_cfg))
        }
        return [point_of[text] for text in texts]


def loss_to_target(p: PerspectivePoint, target: PerspectivePoint) -> float:
    """L2 distance between two perspective points; NumericError when it
    is not a finite float, as between points near opposite ends of the
    float range."""
    loss = math.hypot(p.x - target.x, p.y - target.y)
    if not math.isfinite(loss):
        raise NumericError(f"loss from {p} to target {target} is {loss}")
    return loss


def mean_point(points: list[PerspectivePoint]) -> PerspectivePoint:
    return PerspectivePoint(
        x=sum(p.x for p in points) / len(points),
        y=sum(p.y for p in points) / len(points),
    )


def cluster_texts(dataset: list[LabeledDocument], cluster: str) -> list[str]:
    """Texts of one cluster's documents, in dataset order: the named-cluster
    form of target specification, which the searches take as ``target``."""
    texts = [doc.text for doc in dataset if doc.cluster == cluster]
    if not texts:
        raise ConfigurationError(
            f"cluster {cluster!r} has no documents in the dataset"
        )
    return texts


def cluster_centroid(
    dataset: list[LabeledDocument],
    cluster: str,
    space: PerspectiveSpace,
) -> PerspectivePoint:
    """Mean perspective point of one cluster's documents, from its own
    embedding call."""
    return mean_point(space.points(cluster_texts(dataset, cluster)))


def _losses(
    assignments: list[PromptAssignment],
    spec: PromptSpec,
    space: PerspectiveSpace,
    llm_cfg: LlmBackendConfig,
    trace: SearchTrace,
    memo: dict[str, float] | None,
) -> list[float]:
    """Loss of each assignment against ``trace.target``, recording new
    evaluations in order.

    The prompts to evaluate go to the LLM in one ``complete`` call, and
    all their outputs to one embedding call. While ``trace.target`` is
    still texts, they go first in that call, and the mean of their points
    becomes the target: a cluster target costs no request of its own, but
    a failing embeddings endpoint shows only after the first batch's chat
    requests. ``memo`` maps each prompt already evaluated to its loss: a
    prompt in it, or earlier in the batch, is not evaluated again. With
    ``memo`` None every assignment is evaluated.
    """
    prompts = [render_prompt(spec, a) for a in assignments]
    todo = prompts
    if memo is not None:
        todo = [p for p in dict.fromkeys(prompts) if p not in memo]
    target_texts = () if isinstance(trace.target, PerspectivePoint) else trace.target
    samples = complete(todo, llm_cfg) if todo else []
    texts = [*target_texts, *(text for outputs in samples for text in outputs)]
    points = space.points(texts) if texts else []
    if target_texts:
        trace.target = mean_point(points[: len(target_texts)])
        points = points[len(target_texts) :]
    n = llm_cfg.samples_n
    fresh = itertools.count()
    losses = []
    for assignment, prompt in zip(assignments, prompts):
        if memo is not None and prompt in memo:
            losses.append(memo[prompt])
            continue
        j = next(fresh)
        point = mean_point(points[j * n : (j + 1) * n])
        loss = loss_to_target(point, trace.target)
        trace.record(
            Evaluation(
                assignment=assignment,
                prompt=prompt,
                outputs=tuple(samples[j]),
                point=point,
                loss=loss,
            )
        )
        if memo is not None:
            memo[prompt] = loss
        losses.append(loss)
    return losses


def brute_force_search(
    spec: PromptSpec,
    target: PerspectivePoint | Sequence[str],
    space: PerspectiveSpace,
    llm_cfg: LlmBackendConfig,
) -> SearchTrace:
    """Evaluate every assignment once, in lexicographic order (base index
    major, then slot indices); ties keep the earliest evaluation.

    The grid is evaluated in batches of ``BRUTE_FORCE_BATCH`` assignments.
    ``target`` is a point, or texts whose mean point is the target (see
    ``SearchTrace``)."""
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
    trace = SearchTrace("brute", target)
    grid = (
        PromptAssignment(base_index, choices)
        for base_index in range(len(spec.base_phrases))
        for choices in itertools.product(*(range(len(s)) for s in spec.slots))
    )
    while batch := list(itertools.islice(grid, BRUTE_FORCE_BATCH)):
        _losses(batch, spec, space, llm_cfg, trace, None)
    return trace


def gcd_search(
    spec: PromptSpec,
    target: PerspectivePoint | Sequence[str],
    space: PerspectiveSpace,
    llm_cfg: LlmBackendConfig,
    max_sweeps: int = DEFAULT_MAX_SWEEPS,
) -> SearchTrace:
    """Greedy coordinate descent over (base, slot_0, ..., slot_k-1).

    Starts at the all-zero assignment; each sweep visits coordinates in
    order and adopts the candidate with minimal loss, holding the others
    fixed (ties go to the lowest candidate index). Stops after a sweep
    with no change or after ``max_sweeps``. The candidates of one
    coordinate are evaluated as one batch. Repeat visits to an already
    rendered prompt are served from the memo and add no trace entries.
    ``target`` is as in ``brute_force_search``.
    """
    if max_sweeps < 1:
        raise InputValidationError(f"max_sweeps must be >= 1, got {max_sweeps}")
    trace = SearchTrace("gcd", target)
    memo: dict[str, float] = {}
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
            losses = _losses(trials, spec, space, llm_cfg, trace, memo)
            best_candidate = losses.index(min(losses))
            if best_candidate != current[coord]:
                current[coord] = best_candidate
                changed = True
        if not changed:
            break
    return trace
