import itertools
import math
import threading
import time

import numpy as np
import pytest

import pdial.optimizer as optimizer_mod
from pdial.embedding import EmbeddingBackendConfig, embed_batch
from pdial.errors import ConfigurationError, InputValidationError, NumericError
from pdial.llm_client import LlmBackendConfig, complete
from pdial.metric import ProjectionModel, train
from pdial.optimizer import (
    Evaluation,
    PerspectiveSpace,
    PromptAssignment,
    PromptSpec,
    SearchTrace,
    brute_force_search,
    cluster_texts,
    gcd_search,
    loss_to_target,
    mean_point,
    render_prompt,
)
from pdial.pca import (
    PcaModel,
    PerspectivePoint,
    _apply_sign_convention,
    fit_pca,
    pca_transform,
)
from pdial.persistence import load_dataset, load_matrix, save_trace

from conftest import FIXTURE_BACKEND, FIXTURE_TRAIN_CFG, FIXTURES


# Independent FNV-1a for building controlled geometries (kept separate
# from the implementation under test on purpose).
def _fnv(data: bytes) -> int:
    h = 0xCBF29CE484222325
    for byte in data:
        h ^= byte
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def _distinct_tokens(count: int, dim: int) -> list[tuple[str, int]]:
    """Single tokens whose hash indices mod dim are pairwise distinct."""
    tokens, used = [], set()
    i = 0
    while len(tokens) < count:
        tok = f"sig{i}"
        idx = _fnv(tok.encode()) % dim
        if idx not in used:
            used.add(idx)
            tokens.append((tok, idx))
        i += 1
    return tokens


def _loss_table_world(spec: PromptSpec, losses: dict[tuple, float], dim: int = 64):
    """Build (space, llm_cfg, target) realizing an arbitrary loss table.

    Each assignment's mock output is a unique single token; that token's
    one-hot embedding is placed at x = wanted loss, y = 0, so the L2 loss
    against target (0, 0) equals the table value exactly.
    """
    combos = sorted(losses)
    tokens = _distinct_tokens(len(combos) + 2, dim)
    spare = [j for j in range(dim) if j not in {idx for _, idx in tokens}][:2]

    c0 = np.zeros(dim)
    c1 = np.zeros(dim)
    table = {}
    for (combo, (tok, idx)) in zip(combos, tokens):
        c0[idx] = losses[combo]
        prompt = render_prompt(
            spec, PromptAssignment(base_index=combo[0], choices=combo[1:])
        )
        table[prompt] = tok
    budget = 1.0 - float(np.sum(c0**2))
    assert budget > 0.0, "loss table too large for unit-norm axis placement"
    c0[spare[0]] = math.sqrt(budget)
    c1[spare[1]] = 1.0

    proj = ProjectionModel.from_weights(np.eye(dim))
    pca = PcaModel(
        mean=np.zeros(dim),
        components=np.vstack([c0, c1]),
        explained_variance=np.array([1.0, 0.5]),
    )
    llm = LlmBackendConfig(kind="mock", mock_table=table)
    backend = EmbeddingBackendConfig(kind="hashed", dimension=dim)
    return PerspectiveSpace(proj, pca, backend), llm, PerspectivePoint(0.0, 0.0)


class TestRenderPrompt:
    SPEC = PromptSpec(
        base_phrases=("as a fan", "as a critic"),
        slots=(("of Madrid", "of Barca"), ("be passionate", "")),
    )

    def test_base_only_with_zero_slots(self):
        spec = PromptSpec(base_phrases=("write about X",))
        assert render_prompt(spec, PromptAssignment(0)) == "write about X"

    def test_empty_candidate_elided(self):
        spec = PromptSpec(base_phrases=("b",), slots=(("p1", ""),))
        assert render_prompt(spec, PromptAssignment(0, (1,))) == "b"
        assert render_prompt(spec, PromptAssignment(0, (0,))) == "b p1"

    def test_joined_phrases(self):
        got = render_prompt(self.SPEC, PromptAssignment(0, (0, 0)))
        assert got == "as a fan of Madrid be passionate"

    def test_custom_joiner(self):
        spec = PromptSpec(base_phrases=("a",), slots=(("b",),), joiner=", ")
        assert render_prompt(spec, PromptAssignment(0, (0,))) == "a, b"

    def test_no_leading_or_trailing_joiner(self):
        got = render_prompt(self.SPEC, PromptAssignment(1, (1, 1)))
        assert got == "as a critic of Barca"
        assert not got.startswith(" ") and not got.endswith(" ")

    def test_out_of_range_indices(self):
        with pytest.raises(InputValidationError):
            render_prompt(self.SPEC, PromptAssignment(7, (0, 0)))
        with pytest.raises(InputValidationError):
            render_prompt(self.SPEC, PromptAssignment(0, (0, 9)))
        with pytest.raises(InputValidationError):
            render_prompt(self.SPEC, PromptAssignment(0, (0,)))

    def test_empty_slot_candidate_list_rejected(self):
        with pytest.raises(InputValidationError):
            PromptSpec(base_phrases=("b",), slots=((),))

    def test_empty_base_list_rejected(self):
        with pytest.raises(InputValidationError):
            PromptSpec(base_phrases=())

    # iterated, a bare str would be split into one-letter phrases
    @pytest.mark.parametrize("kwargs, message", [
        ({"base_phrases": "write about football"}, "base_phrases must be a list"),
        ({"base_phrases": ("b",), "slots": "ab"}, "slots must be a list"),
        ({"base_phrases": ("b",), "slots": (("x", "y"), "ab")},
         "slots[1] must be a list"),
    ], ids=["kwargs0-base phrases", "kwargs1-slots", "kwargs2-candidates for slot 1"])
    def test_bare_str_where_a_list_belongs_rejected(self, kwargs, message):
        with pytest.raises(InputValidationError) as err:
            PromptSpec(**kwargs)
        assert str(err.value) == f"{message}, got str"


class TestLossToTarget:
    def test_zero_at_target(self):
        p = PerspectivePoint(1.5, -2.0)
        assert loss_to_target(p, p) == 0.0

    def test_three_four_five(self):
        assert loss_to_target(
            PerspectivePoint(0.0, 0.0), PerspectivePoint(3.0, 4.0)
        ) == 5.0

    def test_matches_independent_hypotenuse(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a = PerspectivePoint(*rng.normal(size=2))
            b = PerspectivePoint(*rng.normal(size=2))
            want = math.sqrt((a.x - b.x) ** 2 + (a.y - b.y) ** 2)
            assert loss_to_target(a, b) == pytest.approx(want, abs=1e-12)

    def test_distance_beyond_the_float_range_is_a_numeric_error(self):
        # both points are finite, their distance 2e308 is not
        with pytest.raises(NumericError, match="is inf"):
            loss_to_target(PerspectivePoint(1e308, 0.0), PerspectivePoint(-1e308, 0.0))


class TestPerspectiveOfOutput:
    def test_projection_at_mean_lands_on_origin(self):
        e = np.zeros(8)
        e[_fnv(b"alpha") % 8] = 1.0
        proj = ProjectionModel.from_weights(np.eye(8))
        pca = PcaModel(
            mean=e, components=np.eye(8)[:2], explained_variance=np.array([1.0, 1.0])
        )
        space = PerspectiveSpace(proj, pca, EmbeddingBackendConfig(dimension=8))
        point = mean_point(space.points(["alpha"]))
        assert point.x == 0.0 and point.y == 0.0

    def test_pinned_composition(self):
        # "barca barca madrid" at dim 8 hashes to indices 6 and 0 with
        # weights (2, 1)/sqrt(5); axes pick out those coordinates.
        proj = ProjectionModel.from_weights(np.eye(8))
        pca = PcaModel(
            mean=np.zeros(8),
            components=np.eye(8)[[0, 6]],
            explained_variance=np.array([1.0, 1.0]),
        )
        space = PerspectiveSpace(proj, pca, EmbeddingBackendConfig(dimension=8))
        point = mean_point(space.points(["barca barca madrid"]))
        assert point.x == 0.4472135954999579
        assert point.y == 0.8944271909999159

    def test_token_multiset_invariance(self):
        proj = ProjectionModel.from_weights(np.eye(16))
        rng = np.random.default_rng(1)
        q, _ = np.linalg.qr(rng.normal(size=(16, 16)))
        pca = PcaModel(
            mean=np.zeros(16),
            components=_apply_sign_convention(q[:, :2].T),
            explained_variance=np.array([1.0, 1.0]),
        )
        space = PerspectiveSpace(proj, pca, EmbeddingBackendConfig(dimension=16))
        p1 = mean_point(space.points(["barca madrid won"]))
        p2 = mean_point(space.points(["won madrid barca"]))
        assert (p1.x, p1.y) == (p2.x, p2.y)

    def test_mean_of_texts_from_one_embedding_call(self, monkeypatch):
        proj = ProjectionModel.from_weights(np.eye(8))
        pca = PcaModel(
            mean=np.zeros(8),
            components=np.eye(8)[[0, 6]],
            explained_variance=np.array([1.0, 1.0]),
        )
        space = PerspectiveSpace(proj, pca, EmbeddingBackendConfig(dimension=8))
        texts = ["barca barca madrid", "madrid", "barca"]
        singles = [mean_point(space.points([t])) for t in texts]
        real_embed = optimizer_mod.embed_batch
        calls = []

        def counting(batch, backend_cfg, **kwargs):
            calls.append(list(batch))
            return real_embed(batch, backend_cfg, **kwargs)

        monkeypatch.setattr(optimizer_mod, "embed_batch", counting)
        got = mean_point(space.points(texts))
        assert calls == [texts]
        assert (got.x, got.y) == (mean_point(singles).x, mean_point(singles).y)

    def test_duplicate_texts_embed_once(self, monkeypatch):
        proj = ProjectionModel.from_weights(np.eye(8))
        pca = PcaModel(
            mean=np.zeros(8),
            components=np.eye(8)[[0, 6]],
            explained_variance=np.array([1.0, 1.0]),
        )
        space = PerspectiveSpace(proj, pca, EmbeddingBackendConfig(dimension=8))
        texts = ["madrid", "barca", "madrid", "barca barca madrid", "barca"]
        want = [space.points([t])[0] for t in texts]
        real_embed = optimizer_mod.embed_batch
        calls = []

        def counting(batch, backend_cfg, **kwargs):
            calls.append(list(batch))
            return real_embed(batch, backend_cfg, **kwargs)

        monkeypatch.setattr(optimizer_mod, "embed_batch", counting)
        got = space.points(texts)
        assert calls == [["madrid", "barca", "barca barca madrid"]]
        assert [(p.x, p.y) for p in got] == [(p.x, p.y) for p in want]

    def test_bare_string_rejected(self):
        proj = ProjectionModel.from_weights(np.eye(8))
        pca = PcaModel(
            mean=np.zeros(8),
            components=np.eye(8)[:2],
            explained_variance=np.array([1.0, 1.0]),
        )
        with pytest.raises(InputValidationError, match="^texts must be a list, got str$"):
            PerspectiveSpace(proj, pca, EmbeddingBackendConfig(dimension=8)).points("alpha")

    def test_blank_text_index_counts_in_the_callers_list(self):
        proj = ProjectionModel.from_weights(np.eye(8))
        pca = PcaModel(
            mean=np.zeros(8),
            components=np.eye(8)[:2],
            explained_variance=np.array([1.0, 1.0]),
        )
        space = PerspectiveSpace(proj, pca, EmbeddingBackendConfig(dimension=8))
        with pytest.raises(InputValidationError, match="^text 2 is empty"):
            space.points(["alpha", "alpha", "  "])


def _random_pca(rng, dim):
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    return PcaModel(
        mean=rng.normal(size=dim),
        components=_apply_sign_convention(q[:, :2].T),
        explained_variance=np.array([2.0, 1.0]),
    )


def _fixture_texts(n):
    """The fixture's train and test texts, repeated to ``n``."""
    texts = [
        d.text for split in ("train", "test")
        for d in load_dataset(FIXTURES / f"{split}.jsonl")
    ]
    return [texts[k % len(texts)] for k in range(n)]


@pytest.fixture(scope="module")
def fixture_world_768():
    """The fixture model trained at the CLI's default dim 768, with its PCA."""
    backend = EmbeddingBackendConfig(kind="hashed", dimension=768)
    docs = load_dataset(FIXTURES / "train.jsonl")
    embs = embed_batch([d.text for d in docs], backend)
    model, _ = train(docs, load_matrix(FIXTURES / "matrix.json"), embs, FIXTURE_TRAIN_CFG)
    return model, fit_pca([model.W @ e for e in embs]), backend


class TestPerspectivePoints:
    """``PerspectiveSpace.points`` maps each text on its own, through
    ``ProjectionModel.project``; the dense ``W`` is the oracle."""

    @staticmethod
    def _oracle(texts, proj, pca, backend):
        return [
            pca_transform(pca, proj.W @ e) for e in embed_batch(texts, backend)
        ]

    @pytest.mark.parametrize("d_in,d_out", [(16, 8), (8, 12), (64, 64)])
    def test_matches_per_vector_oracle(self, d_in, d_out):
        rng = np.random.default_rng(d_in * 100 + d_out)
        proj = ProjectionModel.from_weights(rng.normal(size=(d_out, d_in)))
        pca = _random_pca(rng, d_out)
        backend = EmbeddingBackendConfig(kind="hashed", dimension=d_in)
        texts = _fixture_texts(40)
        got = PerspectiveSpace(proj, pca, backend).points(texts)
        want = self._oracle(texts, proj, pca, backend)
        for g, w in zip(got, want, strict=True):
            assert g.x == pytest.approx(w.x, abs=1e-12)
            assert g.y == pytest.approx(w.y, abs=1e-12)

    def test_matches_per_vector_oracle_at_768(self, fixture_world_768):
        model, pca, backend = fixture_world_768
        texts = _fixture_texts(30)
        got = PerspectiveSpace(model, pca, backend).points(texts)
        want = self._oracle(texts, model, pca, backend)
        for g, w in zip(got, want, strict=True):
            assert g.x == pytest.approx(w.x, abs=1e-12)
            assert g.y == pytest.approx(w.y, abs=1e-12)

    def test_point_does_not_depend_on_its_row(self, fixture_world_768):
        """The searches resolve exact ties, so a text's point must be the
        same bits alone and at any row of a batch."""
        model, pca, backend = fixture_world_768
        texts = _fixture_texts(70)
        space = PerspectiveSpace(model, pca, backend)
        batch = space.points(texts)
        alone = {t: space.points([t])[0] for t in set(texts)}
        for text, point in zip(texts, batch):
            assert (point.x, point.y) == (alone[text].x, alone[text].y)

    @pytest.mark.parametrize("what", ["embedding", "pca"])
    def test_width_mismatch_embeds_nothing(self, monkeypatch, what):
        proj = ProjectionModel.from_weights(np.ones((8, 16)))
        pca = _random_pca(np.random.default_rng(0), 12 if what == "pca" else 8)
        backend = EmbeddingBackendConfig(dimension=32 if what == "embedding" else 16)
        calls = []
        monkeypatch.setattr(optimizer_mod, "embed_batch", lambda *a, **k: calls.append(a))
        match = "d_in=16" if what == "embedding" else "d_out=8"
        with pytest.raises(InputValidationError, match=match):
            PerspectiveSpace(proj, pca, backend).points(["alpha"])
        assert calls == []

    @pytest.mark.parametrize("search", [brute_force_search, gcd_search])
    def test_searches_check_widths_before_the_first_completion(
        self, monkeypatch, search
    ):
        spec = PromptSpec(base_phrases=("q0", "q1"), slots=(("a", "b"),))
        _, llm, target = _loss_table_world(
            spec, {(b, s): 0.1 for b in range(2) for s in range(2)}
        )
        proj = ProjectionModel.from_weights(np.eye(64))
        pca = _random_pca(np.random.default_rng(0), 64)
        calls = []
        monkeypatch.setattr(optimizer_mod, "complete", lambda *a, **k: calls.append(a))
        narrow = EmbeddingBackendConfig(dimension=proj.d_in // 2)
        with pytest.raises(InputValidationError, match="d_in="):
            search(spec, target, PerspectiveSpace(proj, pca, narrow), llm)
        assert calls == []


def _evaluation(loss, x=0.0):
    return Evaluation(
        PromptAssignment(0), f"p{x}", ("o",), PerspectivePoint(x, 0.0), loss
    )


class TestSearchTrace:
    def test_record_keeps_the_strict_improvements(self):
        trace = SearchTrace("gcd", PerspectivePoint(1.0, 2.0))
        assert trace.best == -1 and trace.improvements == []
        for i, loss in enumerate([0.5, 0.7, 0.5, 0.2, 0.2, 0.3, 0.1]):
            trace.record(_evaluation(loss, float(i)))
        assert trace.improvements == [0, 3, 6]
        assert trace.best == 6
        assert trace.best_evaluation.point == PerspectivePoint(6.0, 0.0)
        assert (trace.mode, trace.target) == ("gcd", PerspectivePoint(1.0, 2.0))

    def test_ties_keep_the_earliest_evaluation(self):
        trace = SearchTrace("brute", PerspectivePoint(0.0, 0.0))
        for i in range(3):
            trace.record(_evaluation(0.25, float(i)))
        assert trace.improvements == [0]
        assert trace.best == 0

    def test_empty_trace_has_no_best(self):
        trace = SearchTrace("gcd", PerspectivePoint(0.0, 0.0))
        with pytest.raises(InputValidationError, match="trace has no evaluations"):
            trace.best_evaluation

    @pytest.mark.parametrize("field", ["evaluations", "improvements", "best"])
    def test_best_cannot_be_passed_in(self, field):
        """Only ``record`` builds the evaluations and their best."""
        value = -1 if field == "best" else [_evaluation(0.5)]
        with pytest.raises(TypeError):
            SearchTrace("gcd", PerspectivePoint(0.0, 0.0), **{field: value})

    @pytest.mark.parametrize("target,message", [
        pytest.param("pro barca", "^target must be a list, got str$",
                     id="pro barca-got a str"),
        ([], "at least one text"),
    ])
    @pytest.mark.parametrize("search", [brute_force_search, gcd_search])
    def test_bad_text_target_fails_before_the_first_completion(
        self, monkeypatch, search, target, message
    ):
        spec = PromptSpec(base_phrases=("q0", "q1"))
        space, llm, _ = _loss_table_world(spec, {(0,): 0.3, (1,): 0.1})
        calls = []
        monkeypatch.setattr(optimizer_mod, "complete", lambda *a, **k: calls.append(a))
        with pytest.raises(InputValidationError, match=message):
            search(spec, target, space, llm)
        assert calls == []

    @pytest.mark.parametrize(
        "search", [brute_force_search, gcd_search], ids=["brute", "gcd"]
    )
    def test_overflowing_loss_stops_the_search(self, monkeypatch, search):
        spec = PromptSpec(base_phrases=("q0", "q1"))
        space, llm, _ = _loss_table_world(spec, {(0,): 0.3, (1,): 0.1})
        far = PerspectivePoint(1e308, 0.0)
        monkeypatch.setattr(space, "points", lambda texts: [far] * len(texts))
        with pytest.raises(NumericError, match="is inf"):
            search(spec, PerspectivePoint(-1e308, 0.0), space, llm)

    def test_searches_record_their_mode_and_target(self):
        spec = PromptSpec(base_phrases=("q0", "q1"))
        space, llm, target = _loss_table_world(spec, {(0,): 0.3, (1,): 0.1})
        for mode, search in (("brute", brute_force_search), ("gcd", gcd_search)):
            trace = search(spec, target, space, llm)
            assert (trace.mode, trace.target) == (mode, target)


class TestBruteForce:
    def test_single_combination(self):
        spec = PromptSpec(base_phrases=("only query",))
        space, llm, target = _loss_table_world(spec, {(0,): 0.25})
        trace = brute_force_search(spec, target, space, llm)
        assert len(trace.evaluations) == 1
        assert trace.best == 0
        assert trace.best_evaluation.loss == 0.25

    def test_lexicographic_evaluation_order(self):
        spec = PromptSpec(
            base_phrases=("q0", "q1"), slots=(("a0", "a1"), ("b0", "b1"))
        )
        losses = {
            (b, s1, s2): 0.1 + 0.01 * (4 * b + 2 * s1 + s2)
            for b in range(2) for s1 in range(2) for s2 in range(2)
        }
        space, llm, target = _loss_table_world(spec, losses)
        trace = brute_force_search(spec, target, space, llm)
        seen = [
            (ev.assignment.base_index, *ev.assignment.choices)
            for ev in trace.evaluations
        ]
        assert seen == sorted(losses)
        assert len(trace.evaluations) == spec.combination_count()

    def test_finds_hand_enumerated_argmin(self):
        spec = PromptSpec(
            base_phrases=("q0", "q1", "q2"), slots=(("a0", "a1"),)
        )
        losses = {
            (0, 0): 0.30, (0, 1): 0.22,
            (1, 0): 0.35, (1, 1): 0.05,
            (2, 0): 0.18, (2, 1): 0.40,
        }
        space, llm, target = _loss_table_world(spec, losses)
        trace = brute_force_search(spec, target, space, llm)
        oracle = min(losses, key=lambda k: (losses[k], k))
        best = trace.best_evaluation
        assert (best.assignment.base_index, *best.assignment.choices) == oracle
        for ev in trace.evaluations:
            key = (ev.assignment.base_index, *ev.assignment.choices)
            assert ev.loss == losses[key]

    def test_tie_broken_by_earliest_evaluation(self):
        spec = PromptSpec(base_phrases=("q0", "q1", "q2"))
        losses = {(0,): 0.4, (1,): 0.2, (2,): 0.2}
        space, llm, target = _loss_table_world(spec, losses)
        trace = brute_force_search(spec, target, space, llm)
        assert trace.best_evaluation.assignment.base_index == 1

    def test_combination_budget_guard_fires_before_llm(self, monkeypatch):
        calls = {"n": 0}

        def counting_complete(prompts, *args, **kwargs):
            calls["n"] += 1
            return [["x"] for _ in prompts]

        monkeypatch.setattr(optimizer_mod, "complete", counting_complete)
        spec = PromptSpec(
            base_phrases=("q",),
            slots=tuple(tuple(f"c{i}{j}" for j in range(7)) for i in range(5)),
        )
        assert spec.combination_count() == 7**5
        proj = ProjectionModel.from_weights(np.eye(4))
        pca = PcaModel(
            mean=np.zeros(4), components=np.eye(4)[:2],
            explained_variance=np.array([1.0, 1.0]),
        )
        with pytest.raises(ConfigurationError, match="budget"):
            brute_force_search(
                spec, PerspectivePoint(0, 0),
                PerspectiveSpace(proj, pca, EmbeddingBackendConfig(dimension=4)),
                LlmBackendConfig(kind="mock", mock_table={}),
            )
        assert calls["n"] == 0

    def test_slot_count_guard(self):
        spec = PromptSpec(
            base_phrases=("q",), slots=tuple((("a",),) * 9)
        )
        proj = ProjectionModel.from_weights(np.eye(4))
        pca = PcaModel(
            mean=np.zeros(4), components=np.eye(4)[:2],
            explained_variance=np.array([1.0, 1.0]),
        )
        with pytest.raises(ConfigurationError, match="slots"):
            brute_force_search(
                spec, PerspectivePoint(0, 0),
                PerspectiveSpace(proj, pca, EmbeddingBackendConfig(dimension=4)),
                LlmBackendConfig(kind="mock", mock_table={}),
            )


def _best_so_far(trace):
    out, best = [], math.inf
    for ev in trace.evaluations:
        best = min(best, ev.loss)
        out.append(best)
    return out


class TestGcdSearch:
    def test_trivial_spec_single_evaluation(self):
        spec = PromptSpec(base_phrases=("only",))
        space, llm, target = _loss_table_world(spec, {(0,): 0.2})
        trace = gcd_search(spec, target, space, llm)
        assert len(trace.evaluations) == 1

    def test_separable_reaches_global_optimum(self):
        spec = PromptSpec(
            base_phrases=("q0", "q1", "q2"),
            slots=(("a0", "a1", "a2"), ("b0", "b1", "b2")),
        )
        g0, g1, g2 = [0.05, 0.02, 0.03], [0.011, 0.007, 0.013], [0.004, 0.009, 0.001]
        losses = {
            (b, s1, s2): g0[b] + g1[s1] + g2[s2]
            for b in range(3) for s1 in range(3) for s2 in range(3)
        }
        space, llm, target = _loss_table_world(spec, losses)
        brute = brute_force_search(spec, target, space, llm)
        gcd = gcd_search(spec, target, space, llm)
        assert gcd.best_evaluation.assignment == brute.best_evaluation.assignment
        assert gcd.best_evaluation.loss == brute.best_evaluation.loss
        assert len(gcd.evaluations) <= len(brute.evaluations)

    def test_trap_terminates_at_coordinate_local_minimum(self):
        # (0,0) is a coordinate-wise local minimum; the global optimum
        # (1,1) is diagonal and unreachable by single-coordinate moves.
        spec = PromptSpec(
            base_phrases=("q",), slots=(("a0", "a1"), ("b0", "b1"))
        )
        losses = {
            (0, 0, 0): 0.30, (0, 1, 0): 0.60,
            (0, 0, 1): 0.50, (0, 1, 1): 0.10,
        }
        space, llm, target = _loss_table_world(spec, losses)
        gcd = gcd_search(spec, target, space, llm)
        brute = brute_force_search(spec, target, space, llm)
        assert gcd.best_evaluation.loss == 0.30
        assert brute.best_evaluation.loss == 0.10
        assert gcd.best_evaluation.loss >= brute.best_evaluation.loss
        deltas = np.diff(_best_so_far(gcd))
        assert np.all(deltas <= 0)

    def test_memoization_no_duplicate_prompts(self):
        spec = PromptSpec(
            base_phrases=("q0", "q1"), slots=(("a0", "a1"), ("b0", "b1"))
        )
        losses = {
            (b, s1, s2): 0.1 + 0.07 * b + 0.03 * s1 + 0.01 * s2
            for b in range(2) for s1 in range(2) for s2 in range(2)
        }
        space, llm, target = _loss_table_world(spec, losses)
        trace = gcd_search(spec, target, space, llm)
        prompts = [ev.prompt for ev in trace.evaluations]
        assert len(prompts) == len(set(prompts))
        assert len(trace.evaluations) <= spec.combination_count()

    def test_llm_called_once_per_unique_prompt(self, monkeypatch):
        spec = PromptSpec(
            base_phrases=("q0", "q1", "q2"),
            slots=(("a0", "a1", "a2"), ("b0", "b1", "b2")),
        )
        losses = {
            (b, s1, s2): 0.01 * (9 * b + 3 * s1 + s2 + 1)
            for b in range(3) for s1 in range(3) for s2 in range(3)
        }
        space, llm, target = _loss_table_world(spec, losses)
        real_complete = optimizer_mod.complete
        seen = []

        def counting(prompts, cfg, **kwargs):
            seen.extend(prompts)
            return real_complete(prompts, cfg, **kwargs)

        monkeypatch.setattr(optimizer_mod, "complete", counting)
        gcd_search(spec, target, space, llm)
        assert len(seen) == len(set(seen))

    def test_one_embedding_call_per_batch(self, monkeypatch):
        # one batch per coordinate: both bases (2 new prompts), then both
        # slot choices (1 new, 1 from the memo); the mock's 3 samples of a
        # prompt are alike, so each prompt's output is embedded once
        spec = PromptSpec(base_phrases=("q0", "q1"), slots=(("a0", "a1"),))
        losses = {(b, s): 0.1 + 0.05 * b + 0.02 * s for b in range(2) for s in range(2)}
        space, llm, target = _loss_table_world(spec, losses)
        llm = LlmBackendConfig(kind="mock", samples_n=3, mock_table=llm.mock_table)
        real_embed = optimizer_mod.embed_batch
        batches = []

        def counting(batch, backend_cfg, **kwargs):
            batches.append(list(batch))
            return real_embed(batch, backend_cfg, **kwargs)

        monkeypatch.setattr(optimizer_mod, "embed_batch", counting)
        trace = gcd_search(spec, target, space, llm)
        assert [len(b) for b in batches] == [2, 1]
        assert [t for b in batches for t in b] == [
            ev.outputs[0] for ev in trace.evaluations
        ]
        assert all(len(set(ev.outputs)) == 1 for ev in trace.evaluations)

    def test_deterministic_traces(self):
        spec = PromptSpec(
            base_phrases=("q0", "q1"), slots=(("a0", "a1"),)
        )
        losses = {(b, s): 0.1 + 0.05 * b + 0.02 * s for b in range(2) for s in range(2)}
        space, llm, target = _loss_table_world(spec, losses)
        t1 = gcd_search(spec, target, space, llm)
        t2 = gcd_search(spec, target, space, llm)
        assert t1.evaluations == t2.evaluations
        assert t1.best == t2.best

    def test_max_sweeps_validation(self):
        spec = PromptSpec(base_phrases=("q",))
        space, llm, target = _loss_table_world(spec, {(0,): 0.1})
        with pytest.raises(InputValidationError):
            gcd_search(spec, target, space, llm, max_sweeps=0)

    @pytest.mark.parametrize("max_sweeps", [1.5, True], ids=["float", "bool"])
    def test_max_sweeps_must_be_an_int(self, max_sweeps):
        """A float or a bool is no sweep count: ``True`` does not run one
        sweep."""
        spec = PromptSpec(base_phrases=("q",))
        space, llm, target = _loss_table_world(spec, {(0,): 0.1})
        with pytest.raises(InputValidationError) as err:
            gcd_search(spec, target, space, llm, max_sweeps=max_sweeps)
        assert str(err.value) == f"max_sweeps must be int, got {max_sweeps!r}"

    def test_best_so_far_monotone_on_both_searches(self):
        spec = PromptSpec(
            base_phrases=("q0", "q1", "q2"), slots=(("a0", "a1", "a2"),)
        )
        rng = np.random.default_rng(3)
        losses = {
            (b, s): round(float(rng.uniform(0.01, 0.3)), 3)
            for b in range(3) for s in range(3)
        }
        space, llm, target = _loss_table_world(spec, losses)
        for search in (brute_force_search, gcd_search):
            trace = search(spec, target, space, llm)
            assert np.all(np.diff(_best_so_far(trace)) <= 0)


class _SequentialEvaluator:
    """The one-assignment-at-a-time evaluator that the batched one replaced:
    ``samples_n`` completions and one embedding call per new prompt. Kept
    as the oracle of ``_losses``."""

    def __init__(self, spec, trace, space, llm_cfg, memoize):
        self.spec, self.trace = spec, trace
        self.space, self.llm_cfg = space, llm_cfg
        self.memoize = memoize
        self._loss_of = {}

    def loss_of(self, assignment):
        prompt = render_prompt(self.spec, assignment)
        if self.memoize and prompt in self._loss_of:
            return self._loss_of[prompt]
        outputs = optimizer_mod.complete([prompt], self.llm_cfg)[0]
        point = mean_point(self.space.points(outputs))
        loss = loss_to_target(point, self.trace.target)
        self.trace.record(
            Evaluation(assignment, prompt, tuple(outputs), point, loss)
        )
        if self.memoize:
            self._loss_of[prompt] = loss
        return loss


def _sequential_brute(spec, target, *world):
    evaluator = _SequentialEvaluator(
        spec, SearchTrace("brute", target), *world, memoize=False
    )
    for base_index in range(len(spec.base_phrases)):
        for choices in itertools.product(*(range(len(s)) for s in spec.slots)):
            evaluator.loss_of(PromptAssignment(base_index, choices))
    return evaluator.trace


def _sequential_gcd(spec, target, *world):
    evaluator = _SequentialEvaluator(
        spec, SearchTrace("gcd", target), *world, memoize=True
    )
    current = [0] * (1 + len(spec.slots))
    sizes = [len(spec.base_phrases)] + [len(s) for s in spec.slots]
    for _ in range(optimizer_mod.DEFAULT_MAX_SWEEPS):
        changed = False
        for coord, size in enumerate(sizes):
            best_candidate, best_loss = 0, math.inf
            for candidate in range(size):
                trial = current.copy()
                trial[coord] = candidate
                loss = evaluator.loss_of(PromptAssignment(trial[0], tuple(trial[1:])))
                if loss < best_loss:
                    best_loss, best_candidate = loss, candidate
            if best_candidate != current[coord]:
                current[coord] = best_candidate
                changed = True
        if not changed:
            break
    return evaluator.trace


_WORDS = ("madrid", "barca", "derby", "goal", "tiki", "taka", "press", "glory",
          "draw", "neutral", "stadium", "fans")


def _random_world(
    seed, samples_n, slot_sizes=None, duplicate=False, dim=16, backend=None
):
    """A seeded spec, mock table, perspective space and target; the space
    embeds with ``backend``, by default the hashed one at ``dim``.

    About half of the rendered prompts have a table entry; the rest fall
    back to the mock's substring or echo rule.
    """
    rng = np.random.default_rng(seed)

    def words(k):
        return " ".join(rng.choice(_WORDS, size=k))

    if slot_sizes is None:
        slot_sizes = [int(k) for k in rng.integers(1, 5, size=rng.integers(1, 4))]
    slots = [[words(1) if rng.random() < 0.8 else "" for _ in range(k)]
             for k in slot_sizes]
    if duplicate:
        slots[0].append(slots[0][-1])  # two candidates render alike
    spec = PromptSpec(
        base_phrases=tuple(f"write {words(2)}" for _ in range(rng.integers(1, 4))),
        slots=tuple(map(tuple, slots)),
    )
    grid = itertools.product(
        range(len(spec.base_phrases)), *(range(len(s)) for s in spec.slots)
    )
    table = {
        render_prompt(spec, PromptAssignment(c[0], c[1:])): words(int(rng.integers(3, 8)))
        for c in grid if rng.random() < 0.5
    }
    d_out = 8
    proj = ProjectionModel.from_weights(rng.normal(size=(d_out, dim)))
    q, _ = np.linalg.qr(rng.normal(size=(d_out, d_out)))
    pca = PcaModel(
        mean=rng.normal(size=d_out) * 0.1,
        components=_apply_sign_convention(q[:, :2].T),
        explained_variance=np.array([1.0, 0.5]),
    )
    target = PerspectivePoint(*rng.normal(size=2))
    llm = LlmBackendConfig(kind="mock", samples_n=samples_n, mock_table=table)
    backend = backend or EmbeddingBackendConfig(kind="hashed", dimension=dim)
    return spec, (target, PerspectiveSpace(proj, pca, backend), llm)


def _distinct_samples(prompts, cfg):
    """The mock backend, with the k-th word appended to the k-th sample of
    each prompt, so that samples differ and their order shows."""
    return [
        [f"{out} {_WORDS[k % len(_WORDS)]}" for k, out in enumerate(outputs)]
        for outputs in complete(prompts, cfg)
    ]


def _trace_bytes(path, trace):
    save_trace(path, trace)
    return path.read_bytes()


class TestBatchedEvaluation:
    """The batched searches against the sequential oracle."""

    @pytest.mark.parametrize("samples_n", [1, 3])
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_sequential_oracle(self, tmp_path, monkeypatch, seed, samples_n):
        monkeypatch.setattr(optimizer_mod, "complete", _distinct_samples)
        spec, world = _random_world(seed, samples_n, duplicate=seed % 3 == 0)
        for fast, slow in (
            (brute_force_search, _sequential_brute),
            (gcd_search, _sequential_gcd),
        ):
            got = fast(spec, *world)
            want = slow(spec, *world)
            assert got == want
            assert _trace_bytes(tmp_path / "got.jsonl", got) == (
                _trace_bytes(tmp_path / "want.jsonl", want)
            )

    def test_duplicate_candidates_in_one_batch_are_evaluated_once(
        self, monkeypatch
    ):
        spec, world = _random_world(0, 2, slot_sizes=[3], duplicate=True)
        # the last two candidates render alike and are both new in the
        # batch of slot 0, whose current choice is candidate 0
        assert spec.slots[0][0] != spec.slots[0][2] == spec.slots[0][3]
        want = _sequential_gcd(spec, *world)
        real_complete = optimizer_mod.complete
        requested = []

        def counting(prompts, cfg, **kwargs):
            requested.extend(prompts)
            return real_complete(prompts, cfg, **kwargs)

        monkeypatch.setattr(optimizer_mod, "complete", counting)
        trace = gcd_search(spec, *world)
        assert len(requested) == len(set(requested)) == len(trace.evaluations)
        assert trace == want

    @pytest.mark.parametrize("samples_n", [1, 3])
    def test_grid_larger_than_one_brute_batch(self, monkeypatch, samples_n):
        spec, world = _random_world(
            7, samples_n, slot_sizes=[6, 6], duplicate=True
        )
        combos = spec.combination_count()
        assert combos > optimizer_mod.BRUTE_FORCE_BATCH
        real_embed = optimizer_mod.embed_batch
        batches = []

        def counting(batch, backend_cfg, **kwargs):
            batches.append(list(batch))
            return real_embed(batch, backend_cfg, **kwargs)

        monkeypatch.setattr(optimizer_mod, "embed_batch", counting)
        got = brute_force_search(spec, *world)
        size = optimizer_mod.BRUTE_FORCE_BATCH
        # one call per batch, holding each distinct output of the batch once
        assert batches == [
            list(dict.fromkeys(
                t for ev in got.evaluations[i : i + size] for t in ev.outputs
            ))
            for i in range(0, combos, size)
        ]
        assert len(batches) == math.ceil(combos / size) == 2
        assert sum(map(len, batches)) < combos * samples_n
        assert got == _sequential_brute(spec, *world)

    @pytest.mark.parametrize(
        "search", [brute_force_search, gcd_search], ids=["brute", "gcd"]
    )
    def test_http_search_keeps_fan_out_requests_in_flight(
        self, stub_server, monkeypatch, search
    ):
        from pdial import _http
        from pdial.embedding import hashed_embed

        spec, (target, space, llm) = _random_world(3, 2, slot_sizes=[3, 2])

        def handler(record):
            body = record["body"]
            if "input" in body:
                return 200, {"data": [
                    {"index": i, "embedding": hashed_embed(t, 16).tolist()}
                    for i, t in enumerate(body["input"])
                ]}
            prompt = body["messages"][0]["content"]
            return 200, {"choices": [
                {"message": {"content": complete([prompt], llm)[0][0]}}
            ]}

        stub_server.handler_fn = handler
        lock = threading.Lock()
        flight = {"now": 0, "max": 0}
        real_open = _http._open

        def tracking(request, **kwargs):
            with lock:
                flight["now"] += 1
                flight["max"] = max(flight["max"], flight["now"])
            try:
                time.sleep(0.005)
                return real_open(request, **kwargs)
            finally:
                with lock:
                    flight["now"] -= 1

        monkeypatch.setattr(_http, "_open", tracking)
        _http.set_fan_out(2)
        http_llm = LlmBackendConfig(
            kind="http", endpoint_url=f"{stub_server.url}/v1/chat/completions",
            samples_n=2,
        )
        http_backend = EmbeddingBackendConfig(
            kind="http", endpoint_url=f"{stub_server.url}/v1/embeddings",
            dimension=16,
        )
        _, (_, http_space, _) = _random_world(
            3, 2, slot_sizes=[3, 2], backend=http_backend
        )
        got = search(spec, target, http_space, http_llm)
        assert flight["max"] == 2
        assert got == search(spec, target, space, llm)
        chats = sum("messages" in r["body"] for r in stub_server.requests)
        assert chats == 2 * len(got.evaluations)


class TestClusterCentroid:
    def test_centroid_is_mean_of_cluster_points(self, fixture_train_docs, fixture_model):
        from pdial.embedding import embed_batch
        from pdial.pca import fit_pca, pca_transform

        embs = embed_batch([d.text for d in fixture_train_docs], FIXTURE_BACKEND)
        pca = fit_pca([fixture_model.W @ e for e in embs])
        space = PerspectiveSpace(fixture_model, pca, FIXTURE_BACKEND)
        got = mean_point(space.points(cluster_texts(fixture_train_docs, "pro-barca")))
        points = [
            pca_transform(pca, fixture_model.W @ e)
            for d, e in zip(fixture_train_docs, embs)
            if d.cluster == "pro-barca"
        ]
        want = mean_point(points)
        assert got.x == pytest.approx(want.x, abs=1e-15)
        assert got.y == pytest.approx(want.y, abs=1e-15)

    def test_unknown_cluster_rejected(self, fixture_train_docs):
        with pytest.raises(ConfigurationError, match="'pro-atletico' has no documents"):
            cluster_texts(fixture_train_docs, "pro-atletico")

    @pytest.mark.parametrize("y", [0.0, -1e308])
    def test_mean_beyond_the_float_range_is_a_numeric_error(self, y):
        # each point is finite; the sum of their x (2e308) is not
        points = [PerspectivePoint(1e308, y), PerspectivePoint(1e308, 0.0)]
        with pytest.raises(NumericError, match=r"mean of 2 points is \(inf, "):
            mean_point(points)

    @pytest.mark.parametrize(
        "search", [brute_force_search, gcd_search], ids=["brute", "gcd"]
    )
    def test_overflowing_text_target_stops_the_search(self, monkeypatch, search):
        spec = PromptSpec(base_phrases=("q0", "q1"))
        space, llm, _ = _loss_table_world(spec, {(0,): 0.3, (1,): 0.1})
        far = PerspectivePoint(1e308, 0.0)
        monkeypatch.setattr(space, "points", lambda texts: [far] * len(texts))
        with pytest.raises(NumericError, match="mean of 2 points"):
            search(spec, ["a", "b"], space, llm)


class TestTextTarget:
    """A target given as texts is embedded with the first batch; the
    trace equals the one searched toward the mean point of those texts."""

    @pytest.fixture(scope="class")
    def world(self, fixture_train_docs, fixture_model, fixture_train_embeddings):
        from pdial.persistence import load_mock_table, load_prompt_spec

        pca = fit_pca([fixture_model.project(e) for e in fixture_train_embeddings])
        llm = LlmBackendConfig(
            kind="mock", samples_n=2,
            mock_table=load_mock_table(FIXTURES / "mock_table.json"),
        )
        return (
            load_prompt_spec(FIXTURES / "prompts.json"),
            PerspectiveSpace(fixture_model, pca, FIXTURE_BACKEND),
            llm,
        )

    @pytest.mark.parametrize("search", [brute_force_search, gcd_search])
    @pytest.mark.parametrize("cluster", ["pro-barca", "pro-madrid", "neutral"])
    def test_trace_bytes_match_the_centroid_target(
        self, tmp_path, world, fixture_train_docs, search, cluster
    ):
        spec, space, llm = world
        texts = cluster_texts(fixture_train_docs, cluster)
        centroid = mean_point(space.points(texts))
        got = search(spec, texts, space, llm)
        want = search(spec, centroid, space, llm)
        assert got.target == centroid
        assert _trace_bytes(tmp_path / "got.jsonl", got) == (
            _trace_bytes(tmp_path / "want.jsonl", want)
        )

    @pytest.mark.parametrize("search", [brute_force_search, gcd_search])
    @pytest.mark.parametrize("seed", range(4))
    def test_texts_shared_with_outputs_embed_once(
        self, tmp_path, monkeypatch, search, seed
    ):
        spec, (_, space, llm) = _random_world(seed, 2)
        start = PromptAssignment(0, (0,) * len(spec.slots))
        first = complete([render_prompt(spec, start)], llm)[0][0]
        texts = [first, "madrid derby glory", first]
        real_embed = optimizer_mod.embed_batch
        calls = []

        def counting(batch, backend_cfg, **kwargs):
            calls.append(list(batch))
            return real_embed(batch, backend_cfg, **kwargs)

        monkeypatch.setattr(optimizer_mod, "embed_batch", counting)
        got = search(spec, texts, space, llm)
        # the target's distinct texts lead the first call, whose outputs
        # include the first of them, which is sent once
        assert calls[0][:2] == [first, "madrid derby glory"]
        assert len(calls[0]) == len(set(calls[0]))
        monkeypatch.setattr(optimizer_mod, "embed_batch", real_embed)
        want = search(spec, mean_point(space.points(texts)), space, llm)
        assert _trace_bytes(tmp_path / "got.jsonl", got) == (
            _trace_bytes(tmp_path / "want.jsonl", want)
        )
