import math

import numpy as np
import pytest

import pdial.optimizer as optimizer_mod
from pdial.embedding import EmbeddingBackendConfig
from pdial.errors import ConfigurationError, InputValidationError
from pdial.llm_client import LlmBackendConfig
from pdial.metric import ProjectionModel
from pdial.optimizer import (
    PromptAssignment,
    PromptSpec,
    brute_force_search,
    cluster_centroid,
    gcd_search,
    loss_to_target,
    mean_point,
    perspective_of_output,
    render_prompt,
)
from pdial.pca import PcaModel, PerspectivePoint

from conftest import FIXTURE_BACKEND


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
    """Build (proj, pca, llm_cfg, target) realizing an arbitrary loss table.

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

    proj = ProjectionModel(d_in=dim, d_out=dim, W=np.eye(dim))
    pca = PcaModel(
        mean=np.zeros(dim),
        components=np.vstack([c0, c1]),
        explained_variance=np.array([1.0, 0.5]),
    )
    llm = LlmBackendConfig(kind="mock", mock_table=table)
    backend = EmbeddingBackendConfig(kind="hashed", dimension=dim)
    return proj, pca, llm, backend, PerspectivePoint(0.0, 0.0)


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


class TestPerspectiveOfOutput:
    def test_projection_at_mean_lands_on_origin(self):
        e = np.zeros(8)
        e[_fnv(b"alpha") % 8] = 1.0
        proj = ProjectionModel(d_in=8, d_out=8, W=np.eye(8))
        pca = PcaModel(
            mean=e, components=np.eye(8)[:2], explained_variance=np.array([1.0, 1.0])
        )
        point = perspective_of_output(["alpha"], proj, pca, EmbeddingBackendConfig(dimension=8))
        assert point.x == 0.0 and point.y == 0.0

    def test_pinned_composition(self):
        # "barca barca madrid" at dim 8 hashes to indices 6 and 0 with
        # weights (2, 1)/sqrt(5); axes pick out those coordinates.
        proj = ProjectionModel(d_in=8, d_out=8, W=np.eye(8))
        pca = PcaModel(
            mean=np.zeros(8),
            components=np.eye(8)[[0, 6]],
            explained_variance=np.array([1.0, 1.0]),
        )
        point = perspective_of_output(
            ["barca barca madrid"], proj, pca, EmbeddingBackendConfig(dimension=8)
        )
        assert point.x == 0.4472135954999579
        assert point.y == 0.8944271909999159

    def test_token_multiset_invariance(self):
        proj = ProjectionModel(d_in=16, d_out=16, W=np.eye(16))
        rng = np.random.default_rng(1)
        q, _ = np.linalg.qr(rng.normal(size=(16, 16)))
        pca = PcaModel(
            mean=np.zeros(16),
            components=q[:, :2].T,
            explained_variance=np.array([1.0, 1.0]),
        )
        cfg = EmbeddingBackendConfig(dimension=16)
        p1 = perspective_of_output(["barca madrid won"], proj, pca, cfg)
        p2 = perspective_of_output(["won madrid barca"], proj, pca, cfg)
        assert (p1.x, p1.y) == (p2.x, p2.y)

    def test_mean_of_texts_from_one_embedding_call(self, monkeypatch):
        proj = ProjectionModel(d_in=8, d_out=8, W=np.eye(8))
        pca = PcaModel(
            mean=np.zeros(8),
            components=np.eye(8)[[0, 6]],
            explained_variance=np.array([1.0, 1.0]),
        )
        cfg = EmbeddingBackendConfig(dimension=8)
        texts = ["barca barca madrid", "madrid", "barca"]
        singles = [perspective_of_output([t], proj, pca, cfg) for t in texts]
        real_embed = optimizer_mod.embed_batch
        calls = []

        def counting(batch, backend_cfg, **kwargs):
            calls.append(list(batch))
            return real_embed(batch, backend_cfg, **kwargs)

        monkeypatch.setattr(optimizer_mod, "embed_batch", counting)
        got = perspective_of_output(texts, proj, pca, cfg)
        assert calls == [texts]
        assert (got.x, got.y) == (mean_point(singles).x, mean_point(singles).y)

    def test_bare_string_rejected(self):
        proj = ProjectionModel(d_in=8, d_out=8, W=np.eye(8))
        pca = PcaModel(
            mean=np.zeros(8),
            components=np.eye(8)[:2],
            explained_variance=np.array([1.0, 1.0]),
        )
        with pytest.raises(InputValidationError, match="list of texts"):
            perspective_of_output(
                "alpha", proj, pca, EmbeddingBackendConfig(dimension=8)
            )


class TestBruteForce:
    def test_single_combination(self):
        spec = PromptSpec(base_phrases=("only query",))
        proj, pca, llm, backend, target = _loss_table_world(spec, {(0,): 0.25})
        trace = brute_force_search(spec, target, proj, pca, llm, backend)
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
        proj, pca, llm, backend, target = _loss_table_world(spec, losses)
        trace = brute_force_search(spec, target, proj, pca, llm, backend)
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
        proj, pca, llm, backend, target = _loss_table_world(spec, losses)
        trace = brute_force_search(spec, target, proj, pca, llm, backend)
        oracle = min(losses, key=lambda k: (losses[k], k))
        best = trace.best_evaluation
        assert (best.assignment.base_index, *best.assignment.choices) == oracle
        for ev in trace.evaluations:
            key = (ev.assignment.base_index, *ev.assignment.choices)
            assert ev.loss == losses[key]

    def test_tie_broken_by_earliest_evaluation(self):
        spec = PromptSpec(base_phrases=("q0", "q1", "q2"))
        losses = {(0,): 0.4, (1,): 0.2, (2,): 0.2}
        proj, pca, llm, backend, target = _loss_table_world(spec, losses)
        trace = brute_force_search(spec, target, proj, pca, llm, backend)
        assert trace.best_evaluation.assignment.base_index == 1

    def test_combination_budget_guard_fires_before_llm(self, monkeypatch):
        calls = {"n": 0}

        def counting_complete(*args, **kwargs):
            calls["n"] += 1
            return ["x"]

        monkeypatch.setattr(optimizer_mod, "complete", counting_complete)
        spec = PromptSpec(
            base_phrases=("q",),
            slots=tuple(tuple(f"c{i}{j}" for j in range(7)) for i in range(5)),
        )
        assert spec.combination_count() == 7**5
        proj = ProjectionModel(d_in=4, d_out=4, W=np.eye(4))
        pca = PcaModel(
            mean=np.zeros(4), components=np.eye(4)[:2],
            explained_variance=np.array([1.0, 1.0]),
        )
        with pytest.raises(ConfigurationError, match="budget"):
            brute_force_search(
                spec, PerspectivePoint(0, 0), proj, pca,
                LlmBackendConfig(kind="mock", mock_table={}),
                EmbeddingBackendConfig(dimension=4),
            )
        assert calls["n"] == 0

    def test_slot_count_guard(self):
        spec = PromptSpec(
            base_phrases=("q",), slots=tuple((("a",),) * 9)
        )
        proj = ProjectionModel(d_in=4, d_out=4, W=np.eye(4))
        pca = PcaModel(
            mean=np.zeros(4), components=np.eye(4)[:2],
            explained_variance=np.array([1.0, 1.0]),
        )
        with pytest.raises(ConfigurationError, match="slots"):
            brute_force_search(
                spec, PerspectivePoint(0, 0), proj, pca,
                LlmBackendConfig(kind="mock", mock_table={}),
                EmbeddingBackendConfig(dimension=4),
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
        proj, pca, llm, backend, target = _loss_table_world(spec, {(0,): 0.2})
        trace = gcd_search(spec, target, proj, pca, llm, backend)
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
        proj, pca, llm, backend, target = _loss_table_world(spec, losses)
        brute = brute_force_search(spec, target, proj, pca, llm, backend)
        gcd = gcd_search(spec, target, proj, pca, llm, backend)
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
        proj, pca, llm, backend, target = _loss_table_world(spec, losses)
        gcd = gcd_search(spec, target, proj, pca, llm, backend)
        brute = brute_force_search(spec, target, proj, pca, llm, backend)
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
        proj, pca, llm, backend, target = _loss_table_world(spec, losses)
        trace = gcd_search(spec, target, proj, pca, llm, backend)
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
        proj, pca, llm, backend, target = _loss_table_world(spec, losses)
        real_complete = optimizer_mod.complete
        seen = []

        def counting(prompt, cfg, **kwargs):
            seen.append(prompt)
            return real_complete(prompt, cfg, **kwargs)

        monkeypatch.setattr(optimizer_mod, "complete", counting)
        gcd_search(spec, target, proj, pca, llm, backend)
        assert len(seen) == len(set(seen))

    def test_one_embedding_call_per_evaluation(self, monkeypatch):
        spec = PromptSpec(base_phrases=("q0", "q1"), slots=(("a0", "a1"),))
        losses = {(b, s): 0.1 + 0.05 * b + 0.02 * s for b in range(2) for s in range(2)}
        proj, pca, llm, backend, target = _loss_table_world(spec, losses)
        llm = LlmBackendConfig(kind="mock", samples_n=3, mock_table=llm.mock_table)
        real_embed = optimizer_mod.embed_batch
        sizes = []

        def counting(batch, backend_cfg, **kwargs):
            sizes.append(len(batch))
            return real_embed(batch, backend_cfg, **kwargs)

        monkeypatch.setattr(optimizer_mod, "embed_batch", counting)
        trace = gcd_search(spec, target, proj, pca, llm, backend)
        assert sizes == [3] * len(trace.evaluations)

    def test_deterministic_traces(self):
        spec = PromptSpec(
            base_phrases=("q0", "q1"), slots=(("a0", "a1"),)
        )
        losses = {(b, s): 0.1 + 0.05 * b + 0.02 * s for b in range(2) for s in range(2)}
        args = _loss_table_world(spec, losses)
        t1 = gcd_search(spec, args[4], *args[:4])
        t2 = gcd_search(spec, args[4], *args[:4])
        assert t1.evaluations == t2.evaluations
        assert t1.best == t2.best

    def test_max_sweeps_validation(self):
        spec = PromptSpec(base_phrases=("q",))
        proj, pca, llm, backend, target = _loss_table_world(spec, {(0,): 0.1})
        with pytest.raises(InputValidationError):
            gcd_search(spec, target, proj, pca, llm, backend, max_sweeps=0)

    def test_best_so_far_monotone_on_both_searches(self):
        spec = PromptSpec(
            base_phrases=("q0", "q1", "q2"), slots=(("a0", "a1", "a2"),)
        )
        rng = np.random.default_rng(3)
        losses = {
            (b, s): round(float(rng.uniform(0.01, 0.3)), 3)
            for b in range(3) for s in range(3)
        }
        proj, pca, llm, backend, target = _loss_table_world(spec, losses)
        for search in (brute_force_search, gcd_search):
            trace = search(spec, target, proj, pca, llm, backend)
            assert np.all(np.diff(_best_so_far(trace)) <= 0)


class TestClusterCentroid:
    def test_centroid_is_mean_of_cluster_points(self, fixture_train_docs, fixture_model):
        from pdial.embedding import embed_batch
        from pdial.metric import project
        from pdial.pca import fit_pca, pca_transform

        embs = embed_batch([d.text for d in fixture_train_docs], FIXTURE_BACKEND)
        pca = fit_pca([project(fixture_model, e) for e in embs])
        got = cluster_centroid(
            fixture_train_docs, "pro-barca", fixture_model, pca, FIXTURE_BACKEND
        )
        points = [
            pca_transform(pca, project(fixture_model, e))
            for d, e in zip(fixture_train_docs, embs)
            if d.cluster == "pro-barca"
        ]
        want = mean_point(points)
        assert got.x == pytest.approx(want.x, abs=1e-15)
        assert got.y == pytest.approx(want.y, abs=1e-15)

    def test_unknown_cluster_rejected(self, fixture_train_docs, fixture_model):
        from pdial.embedding import embed_batch
        from pdial.metric import project
        from pdial.pca import fit_pca

        embs = embed_batch([d.text for d in fixture_train_docs], FIXTURE_BACKEND)
        pca = fit_pca([project(fixture_model, e) for e in embs])
        with pytest.raises(ConfigurationError):
            cluster_centroid(
                fixture_train_docs, "pro-atletico", fixture_model, pca, FIXTURE_BACKEND
            )
