import dataclasses

import numpy as np
import pytest

from pdial.errors import ConfigurationError, InputValidationError, NumericError
from pdial.metric import (
    ClusterSimilarityMatrix,
    LabeledDocument,
    PairSkip,
    ProjectionModel,
    TrainConfig,
    binarize_label,
    generate_pairs,
    train,
)

from conftest import FIXTURE_TRAIN_CFG, loss_gradient

POLES_MATRIX = ClusterSimilarityMatrix(
    clusters=["left", "center", "right"],
    sim=np.array([[1.0, 0.35, 0.0], [0.35, 1.0, 0.35], [0.0, 0.35, 1.0]]),
)


def cosine_similarity(u, v):
    """Textbook cosine of two vectors, the oracle for ``_cosine``."""
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise InputValidationError("cosine of a zero vector is undefined")
    return float(np.dot(u, v) / (nu * nv))


def cosine_loss(ea, eb, y):
    """(cos(ea, eb) - y)^2 for a continuous label y in [0, 1]."""
    return (cosine_similarity(ea, eb) - y) ** 2


def contrastive_loss(ea, eb, y_bin, m):
    """y*d^2 + (1-y)*max(0, m-d)^2 over the pair distance d."""
    d = float(np.linalg.norm(ea - eb))
    if y_bin == 1:
        return d * d
    return max(0.0, m - d) ** 2


def _docs(spec):
    """spec: list of (id, cluster) with placeholder text."""
    return [LabeledDocument(id=i, text=f"text {i}", cluster=c) for i, c in spec]


class TestGeneratePairs:
    def test_same_cluster_pair_labeled_one(self):
        pairs = generate_pairs(_docs([("a", "left"), ("b", "left")]), POLES_MATRIX, 0)
        assert len(pairs) == 1
        assert pairs[0].label_y == 1.0

    def test_center_vs_pole_labeled_035(self):
        pairs = generate_pairs(_docs([("a", "left"), ("b", "center")]), POLES_MATRIX, 0)
        assert pairs[0].label_y == 0.35

    def test_pole_vs_pole_labeled_zero(self):
        pairs = generate_pairs(_docs([("a", "left"), ("b", "right")]), POLES_MATRIX, 0)
        assert pairs[0].label_y == 0.0

    def test_pair_count_is_n_choose_2(self):
        docs = _docs([(f"d{i}", ["left", "center", "right"][i % 3]) for i in range(9)])
        pairs = generate_pairs(docs, POLES_MATRIX, 1)
        assert len(pairs) == 9 * 8 // 2

    def test_each_unordered_pair_exactly_once(self):
        docs = _docs([(f"d{i}", "left") for i in range(6)])
        pairs = generate_pairs(docs, POLES_MATRIX, 3)
        keys = {tuple(sorted((p.a, p.b))) for p in pairs}
        assert len(keys) == len(pairs) == 15
        assert all(p.a != p.b for p in pairs)

    def test_order_is_the_nested_loops_shuffled_by_the_seed(self):
        docs = _docs([(f"d{i}", ["left", "center", "right"][i % 3]) for i in range(7)])
        nested = [(docs[i].id, docs[j].id) for i in range(7) for j in range(i + 1, 7)]
        order = np.random.default_rng([4]).permutation(len(nested))
        got = [(p.a, p.b) for p in generate_pairs(docs, POLES_MATRIX, 4)]
        assert got == [nested[k] for k in order]

    def test_seed_determines_order(self):
        docs = _docs([(f"d{i}", "left") for i in range(8)])
        p1 = generate_pairs(docs, POLES_MATRIX, 5)
        p2 = generate_pairs(docs, POLES_MATRIX, 5)
        p3 = generate_pairs(docs, POLES_MATRIX, 6)
        assert p1 == p2
        assert p1 != p3  # a different shuffle, same pair set

    def test_unknown_cluster_is_config_error(self):
        with pytest.raises(ConfigurationError):
            generate_pairs(
                _docs([("a", "left"), ("b", "uptown")]), POLES_MATRIX, 0
            )

    def test_single_document_rejected(self):
        with pytest.raises(InputValidationError):
            generate_pairs(_docs([("a", "left")]), POLES_MATRIX, 0)


class TestTrainConfig:
    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf")])
    @pytest.mark.parametrize(
        "name,message", [("margin_m", "margin"), ("learning_rate", "learning rate")]
    )
    def test_not_positive_rejected(self, name, message, value):
        with pytest.raises(ConfigurationError, match=f"{message} must be > 0"):
            TrainConfig(**{name: value})

    @pytest.mark.parametrize("name,value,message", [
        ("epochs", 2.5, "epochs must be int, got 2.5"),
        ("epochs", True, "epochs must be int, got True"),
        ("seed", "x", "seed must be int, got 'x'"),
        ("seed", None, "seed must be int, got None"),
        ("margin_m", True, "margin_m must be float, got True"),
        ("learning_rate", "0.1", "learning_rate must be float, got '0.1'"),
        ("binarize_threshold", None, "binarize_threshold must be float, got None"),
        ("loss_kind", ["cosine"], "loss_kind must be str, got ['cosine']"),
    ])
    def test_values_of_the_wrong_json_type_rejected(self, name, value, message):
        with pytest.raises(ConfigurationError) as err:
            TrainConfig(**{name: value})
        assert str(err.value) == message

    def test_an_int_is_a_float(self):
        cfg = TrainConfig(margin_m=2, learning_rate=1)
        assert (cfg.margin_m, cfg.learning_rate) == (2, 1)

    @pytest.mark.parametrize("seed", [-(2**63), 2**63 - 1])
    def test_signed_64_bit_seeds_accepted(self, seed):
        assert TrainConfig(seed=seed).seed == seed

    @pytest.mark.parametrize(
        "seed", [2**63, -(2**63) - 1, 2**64 + 7, -(2**64) + 7],
        ids=["2**63", "-2**63-1", "2**64+7", "-2**64+7"],
    )
    def test_seeds_beyond_64_bits_rejected(self, seed):
        # _rng reads seeds modulo 2**64, so 2**64 + 7 would train as seed 7
        with pytest.raises(ConfigurationError) as err:
            TrainConfig(seed=seed)
        assert str(err.value) == f"seed must be a signed 64-bit integer, got {seed}"


class TestCosineSimilarity:
    def test_self_similarity_is_one(self):
        v = np.array([1.0, 2.0, -3.0])
        assert cosine_similarity(v, v) == pytest.approx(1.0, abs=1e-15)

    def test_orthogonal_is_zero(self):
        assert cosine_similarity(np.array([1.0, 0.0]), np.array([0.0, 5.0])) == 0.0

    def test_hand_computed(self):
        assert cosine_similarity(np.array([1.0, 2.0]), np.array([2.0, 1.0])) == (
            pytest.approx(4.0 / 5.0)
        )

    def test_zero_vector_rejected(self):
        with pytest.raises(InputValidationError):
            cosine_similarity(np.zeros(2), np.ones(2))


class TestLosses:
    def test_cosine_loss_zero_at_label(self):
        # exact when the norms are exactly representable, ~eps^2 otherwise
        v = np.array([3.0, 4.0])  # norm 5 exactly
        assert cosine_loss(v, v, 1.0) == 0.0
        assert cosine_loss(np.array([1.0, 0.0]), np.array([0.0, 1.0]), 0.0) == 0.0
        w = np.array([1.0, 1.0])
        assert cosine_loss(w, w, 1.0) == pytest.approx(0.0, abs=1e-30)

    def test_cosine_loss_hand_value(self):
        # cos = 0.6 against label 0.35 -> 0.25^2
        u = np.array([1.0, 0.0])
        v = np.array([0.6, 0.8])
        assert cosine_loss(u, v, 0.35) == pytest.approx(0.0625, abs=1e-12)

    def test_cosine_loss_scale_invariant(self):
        rng = np.random.default_rng(0)
        u, v = rng.normal(size=4), rng.normal(size=4)
        base = cosine_loss(u, v, 0.5)
        assert cosine_loss(3.7 * u, v, 0.5) == pytest.approx(base, rel=1e-12)
        assert cosine_loss(u, 0.01 * v, 0.5) == pytest.approx(base, rel=1e-12)

    def test_cosine_loss_bounded(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            u, v = rng.normal(size=3), rng.normal(size=3)
            y = rng.uniform()
            assert 0.0 <= cosine_loss(u, v, y) <= 4.0

    def test_contrastive_zero_for_identical_similar(self):
        v = np.array([0.3, -0.4])
        assert contrastive_loss(v, v, 1, 1.0) == 0.0

    def test_contrastive_zero_when_margin_satisfied(self):
        assert contrastive_loss(np.zeros(2), np.array([3.0, 4.0]), 0, 1.0) == 0.0

    def test_contrastive_hand_value(self):
        # d = 0.4 with margin 1.0 -> (0.6)^2
        assert contrastive_loss(
            np.zeros(1), np.array([0.4]), 0, 1.0
        ) == pytest.approx(0.36, abs=1e-12)

    def test_contrastive_non_negative_and_zero_cases(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            u, v = rng.normal(size=3), rng.normal(size=3)
            y = int(rng.integers(2))
            m = rng.uniform(0.1, 2.0)
            loss = contrastive_loss(u, v, y, m)
            assert loss >= 0.0
            d = np.linalg.norm(u - v)
            if loss == 0.0:
                assert (y == 1 and d == 0.0) or (y == 0 and d >= m)

    def test_binarize_threshold(self):
        assert binarize_label(0.35, 0.5) == 0
        assert binarize_label(0.5, 0.5) == 1
        assert binarize_label(1.0, 0.5) == 1
        assert binarize_label(0.35, 0.3) == 1


def _fd_gradient(W, a, b, y, cfg, h=1e-5):
    """Central finite differences of the pair loss with respect to W."""
    grad = np.zeros_like(W)
    for idx in np.ndindex(W.shape):
        Wp = W.copy()
        Wp[idx] += h
        Wm = W.copy()
        Wm[idx] -= h
        lp, _ = loss_gradient(ProjectionModel.from_weights(Wp), a, b, y, cfg)
        lm, _ = loss_gradient(ProjectionModel.from_weights(Wm), a, b, y, cfg)
        grad[idx] = (lp - lm) / (2 * h)
    return grad


def _rel_error(analytic, numeric):
    denom = max(np.linalg.norm(analytic), np.linalg.norm(numeric), 1e-12)
    return np.linalg.norm(analytic - numeric) / denom


def _random_instance(rng, loss_kind):
    d_in = int(rng.integers(3, 9))
    d_out = int(rng.integers(2, 5))
    W = rng.normal(0, 1.0 / np.sqrt(d_in), size=(d_out, d_in))
    a = rng.normal(size=d_in)
    b = rng.normal(size=d_in)
    y = float(rng.uniform())
    cfg = TrainConfig(loss_kind=loss_kind, margin_m=1.0, learning_rate=0.01, epochs=1)
    return W, a, b, y, cfg


class TestLossGradient:
    def test_contrastive_identical_pair_is_stationary(self):
        model = ProjectionModel.from_weights(np.ones((2, 3)))
        e = np.array([1.0, 2.0, 3.0])
        cfg = TrainConfig(loss_kind="contrastive")
        loss, grad = loss_gradient(model, e, e, 1.0, cfg)
        assert loss == 0.0
        np.testing.assert_array_equal(grad, np.zeros((2, 3)))

    def test_cosine_zero_residual_zero_gradient(self):
        model = ProjectionModel.from_weights(np.eye(2))
        u = np.array([1.0, 0.0])
        v = np.array([0.0, 1.0])
        cfg = TrainConfig(loss_kind="cosine")
        loss, grad = loss_gradient(model, u, v, 0.0, cfg)  # cos == y == 0
        assert loss == 0.0
        np.testing.assert_allclose(grad, 0.0, atol=1e-15)

    def test_cosine_zero_norm_signals_skip(self):
        model = ProjectionModel.from_weights(np.zeros((2, 2)))
        cfg = TrainConfig(loss_kind="cosine")
        with pytest.raises(PairSkip):
            loss_gradient(model, np.ones(2), np.ones(2), 1.0, cfg)

    @pytest.mark.parametrize("loss_kind", ["cosine", "contrastive"])
    def test_matches_finite_differences(self, loss_kind):
        rng = np.random.default_rng(42)
        checked = 0
        while checked < 30:
            W, a, b, y, cfg = _random_instance(rng, loss_kind)
            if loss_kind == "contrastive":
                d = np.linalg.norm(W @ (a - b))
                if abs(d - cfg.margin_m) < 0.05:
                    continue  # finite differences straddle the hinge
            model = ProjectionModel.from_weights(W)
            _, analytic = loss_gradient(model, a, b, y, cfg)
            numeric = _fd_gradient(W, a, b, y, cfg)
            assert _rel_error(analytic, numeric) < 1e-4
            checked += 1


class TestLossOracles:
    """The textbook losses above are the oracles for the loss the training
    step computes on the projected pair."""

    def test_cosine_loss_matches_training_step(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            W, a, b, y, cfg = _random_instance(rng, "cosine")
            model = ProjectionModel.from_weights(W)
            loss, _ = loss_gradient(model, a, b, y, cfg)
            assert loss == pytest.approx(
                cosine_loss(W @ a, W @ b, y), rel=0.0, abs=1e-12
            )

    def test_contrastive_loss_matches_training_step(self):
        rng = np.random.default_rng(8)
        branches = set()
        for _ in range(200):
            W, a, b, y, _ = _random_instance(rng, "contrastive")
            cfg = TrainConfig(
                loss_kind="contrastive",
                margin_m=float(rng.uniform(0.5, 3.0)),
                binarize_threshold=float(rng.uniform(0.1, 0.9)),
            )
            y_bin = binarize_label(y, cfg.binarize_threshold)
            model = ProjectionModel.from_weights(W)
            loss, _ = loss_gradient(model, a, b, y, cfg)
            assert loss == pytest.approx(
                contrastive_loss(W @ a, W @ b, y_bin, cfg.margin_m),
                rel=0.0,
                abs=1e-12,
            )
            d = np.linalg.norm(W @ a - W @ b)
            branches.add((y_bin, y_bin == 0 and d >= cfg.margin_m))
        # similar pairs, and dissimilar pairs on both sides of the margin
        assert branches == {(1, False), (0, False), (0, True)}


class TestTrain:
    def test_zero_epochs_keeps_identity(
        self, fixture_train_docs, fixture_matrix, fixture_train_embeddings
    ):
        cfg = TrainConfig(loss_kind="contrastive", epochs=0, seed=7)
        model, log = train(
            fixture_train_docs, fixture_matrix, fixture_train_embeddings, cfg
        )
        np.testing.assert_array_equal(model.W, np.eye(64))
        assert log.epoch_mean_loss == []

    def test_square_train_builds_no_d_by_d_matrix(
        self, fixture_train_docs, fixture_matrix
    ):
        """The square initial head is the identity form, base None, so
        training allocates nothing of size d x d."""
        import tracemalloc

        from pdial.embedding import EmbeddingBackendConfig, embed_batch

        d = 768
        assert ProjectionModel.initial(d, d, 7).base is None
        embeddings = embed_batch(
            [doc.text for doc in fixture_train_docs],
            EmbeddingBackendConfig(kind="hashed", dimension=d),
        )
        cfg = TrainConfig(learning_rate=0.05, epochs=5, seed=7)
        tracemalloc.start()
        try:
            model, _ = train(
                fixture_train_docs, fixture_matrix, embeddings, cfg
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert model.base is None
        assert peak < d * d * 8

    def test_vanishing_learning_rate_keeps_weights(
        self, fixture_train_docs, fixture_matrix, fixture_train_embeddings
    ):
        cfg = TrainConfig(
            loss_kind="contrastive", learning_rate=1e-12, epochs=1, seed=7
        )
        model, _ = train(
            fixture_train_docs, fixture_matrix, fixture_train_embeddings, cfg
        )
        assert np.max(np.abs(model.W - np.eye(64))) < 1e-9

    def test_deterministic_given_seed(
        self, fixture_train_docs, fixture_matrix, fixture_train_embeddings
    ):
        cfg = TrainConfig(loss_kind="contrastive", epochs=3, seed=11)
        m1, _ = train(
            fixture_train_docs, fixture_matrix, fixture_train_embeddings, cfg
        )
        m2, _ = train(
            fixture_train_docs, fixture_matrix, fixture_train_embeddings, cfg
        )
        np.testing.assert_array_equal(m1.W, m2.W)

    def test_gaussian_init_when_rectangular(
        self, fixture_train_docs, fixture_matrix, fixture_train_embeddings
    ):
        cfg = TrainConfig(loss_kind="contrastive", epochs=0, seed=3)
        m1, _ = train(
            fixture_train_docs, fixture_matrix, fixture_train_embeddings, cfg,
            d_out=8,
        )
        m2, _ = train(
            fixture_train_docs, fixture_matrix, fixture_train_embeddings, cfg,
            d_out=8,
        )
        assert m1.W.shape == (8, 64)
        np.testing.assert_array_equal(m1.W, m2.W)
        assert not np.allclose(m1.W, 0.0)

    def test_pretrain_equivalence_identity_head(
        self, fixture_train_docs, fixture_matrix, fixture_train_embeddings
    ):
        cfg = TrainConfig(loss_kind="contrastive", epochs=0, seed=7)
        model, _ = train(
            fixture_train_docs, fixture_matrix, fixture_train_embeddings, cfg
        )
        embs = fixture_train_embeddings[:4]
        for i in range(3):
            base = cosine_similarity(embs[i], embs[i + 1])
            post = cosine_similarity(
                model.W @ embs[i], model.W @ embs[i + 1]
            )
            assert base == post

    def test_training_separates_clusters(
        self, fixture_train_docs, fixture_matrix, fixture_train_embeddings
    ):
        model, log = train(
            fixture_train_docs, fixture_matrix, fixture_train_embeddings,
            FIXTURE_TRAIN_CFG,
        )
        projected = [model.W @ e for e in fixture_train_embeddings]
        same, opposite = [], []
        for i in range(len(fixture_train_docs)):
            for j in range(i + 1, len(fixture_train_docs)):
                ci = fixture_train_docs[i].cluster
                cj = fixture_train_docs[j].cluster
                sim = cosine_similarity(projected[i], projected[j])
                if ci == cj:
                    same.append(sim)
                elif {ci, cj} == {"pro-madrid", "pro-barca"}:
                    opposite.append(sim)
        assert np.mean(same) > np.mean(opposite)
        assert log.epoch_mean_loss[-1] < log.epoch_mean_loss[0]

    def test_negative_seed_supported(
        self, fixture_train_docs, fixture_matrix, fixture_train_embeddings
    ):
        cfg = TrainConfig(loss_kind="contrastive", epochs=1, seed=-3)
        m1, _ = train(
            fixture_train_docs, fixture_matrix, fixture_train_embeddings, cfg
        )
        m2, _ = train(
            fixture_train_docs, fixture_matrix, fixture_train_embeddings, cfg
        )
        np.testing.assert_array_equal(m1.W, m2.W)

    def test_single_cluster_rejected(self, fixture_matrix):
        docs = _docs([("a", "left"), ("b", "left")])
        with pytest.raises(InputValidationError):
            train(docs, POLES_MATRIX, [np.ones(8)] * 2, TrainConfig())

    def test_embedding_count_must_match_dataset(self):
        docs = _docs([("a", "left"), ("b", "right")])
        with pytest.raises(InputValidationError, match="1 embeddings for 2"):
            train(docs, POLES_MATRIX, [np.ones(8)], TrainConfig())

    @pytest.mark.parametrize(
        "rows",
        [
            [np.ones(8), np.ones(7)],
            [np.ones((1, 8)), np.ones((1, 8))],
            [np.ones(0), np.ones(0)],
        ],
        ids=["ragged", "two-dimensional", "empty"],
    )
    def test_embedding_shapes_validated(self, rows):
        docs = _docs([("a", "left"), ("b", "right")])
        with pytest.raises(InputValidationError, match="common length"):
            train(docs, POLES_MATRIX, rows, TrainConfig())

    def test_duplicate_ids_rejected(self):
        docs = _docs([("a", "left"), ("a", "right")])
        with pytest.raises(InputValidationError, match="duplicate"):
            train(docs, POLES_MATRIX, [np.ones(8)] * 2, TrainConfig())

    @pytest.mark.parametrize("d_out", [0, -1])
    def test_d_out_below_one_rejected(self, d_out):
        docs = _docs([("a", "left"), ("b", "right")])
        with pytest.raises(InputValidationError, match="d_out must be >= 1"):
            train(docs, POLES_MATRIX, [np.ones(8)] * 2, TrainConfig(), d_out=d_out)

    def test_d_in_taken_from_embeddings(self):
        docs = _docs([("a", "left"), ("b", "right"), ("c", "center")])
        rows = list(np.eye(5)[:3])
        model, _ = train(docs, POLES_MATRIX, rows, TrainConfig(epochs=1))
        assert (model.d_in, model.d_out) == (5, 5)

    def test_divergence_aborts_with_diagnostic(
        self, fixture_train_docs, fixture_matrix, fixture_train_embeddings
    ):
        cfg = TrainConfig(
            loss_kind="contrastive", learning_rate=1e200, epochs=1, seed=7
        )
        with pytest.raises(NumericError, match="epoch 0 step"):
            train(
                fixture_train_docs, fixture_matrix, fixture_train_embeddings, cfg
            )

    def test_non_finite_final_weights_are_numeric_error(self):
        # One similar pair (0.35 >= threshold 0.3) per epoch: the only
        # step's update overflows and no later loss sees it.
        docs = _docs([("a", "left"), ("b", "center")])
        cfg = TrainConfig(
            loss_kind="contrastive", learning_rate=1e308, epochs=1,
            binarize_threshold=0.3,
        )
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError, match="non-finite weights"):
                train(docs, POLES_MATRIX, list(np.eye(2)), cfg)

    def test_skipped_pairs_counted(
        self, fixture_train_docs, fixture_matrix, fixture_train_embeddings,
        monkeypatch,
    ):
        import pdial.metric as metric_mod

        real = metric_mod._cosine
        calls = {"n": 0}

        def flaky(u, v, y):
            calls["n"] += 1
            if calls["n"] % 10 == 0:
                raise PairSkip("forced for test")
            return real(u, v, y)

        monkeypatch.setattr(metric_mod, "_cosine", flaky)
        cfg = TrainConfig(loss_kind="cosine", epochs=1, seed=7)
        _, log = train(
            fixture_train_docs, fixture_matrix, fixture_train_embeddings, cfg
        )
        assert log.pair_count == 105
        assert log.epoch_skipped_pairs[0] == 10  # every 10th of 105 pairs


def _primal_train(dataset, matrix, embeddings, cfg, d_out=None):
    """Reference SGD on the full weight matrix: W -= lr * loss_gradient(...)
    at every step, in the pair order train uses."""
    from pdial.metric import _rng

    by_id = {doc.id: e for doc, e in zip(dataset, embeddings)}
    d_in = len(embeddings[0])
    W = ProjectionModel.initial(d_in, d_out or d_in, cfg.seed).W
    pairs = generate_pairs(dataset, matrix, cfg.seed)
    losses, skips = [], []
    for epoch in range(cfg.epochs):
        total, evaluated, skipped = 0.0, 0, 0
        for k in _rng(cfg.seed, epoch).permutation(len(pairs)):
            pair = pairs[k]
            model = ProjectionModel.from_weights(W)
            try:
                loss, grad = loss_gradient(
                    model, by_id[pair.a], by_id[pair.b], pair.label_y, cfg
                )
            except PairSkip:
                skipped += 1
                continue
            W = W - cfg.learning_rate * grad
            total += loss
            evaluated += 1
        losses.append(total / evaluated if evaluated else 0.0)
        skips.append(skipped)
    return W, losses, skips


def _full_width_train(dataset, matrix, embeddings, cfg, d_out=None):
    """The dual SGD on d_out-wide rows, as train ran it before its steps
    moved to the row space of ``P0``, less its overflow checks: the
    oracle for ``train``. Returns ``(model, log)``."""
    from pdial.metric import (
        TrainingLog, _contrastive, _cosine, _diverged, _rng,
    )

    index = {doc.id: n for n, doc in enumerate(dataset)}
    rows = [np.asarray(e, dtype=np.float64) for e in embeddings]
    d_in = rows[0].size
    initial = ProjectionModel.initial(d_in, d_out or d_in, cfg.seed)
    E = np.stack(rows)
    first = {}
    same = [first.setdefault(r.tobytes(), n) for n, r in enumerate(rows)]
    K = (E @ E.T)[same]
    P0 = initial.project(E)[same]
    G = np.zeros((len(rows), d_out or d_in))
    pairs = generate_pairs(dataset, matrix, cfg.seed)
    log = TrainingLog(pair_count=len(pairs))
    lr = cfg.learning_rate
    for epoch in range(cfg.epochs):
        total, evaluated, skipped = 0.0, 0, 0
        for step, k in enumerate(_rng(cfg.seed, epoch).permutation(len(pairs))):
            pair = pairs[k]
            i, j = index[pair.a], index[pair.b]
            if cfg.loss_kind == "contrastive":
                diff = (P0[i] - P0[j]) + (K[i] - K[j]) @ G
                dd = float(diff @ diff)
                loss, scale = _contrastive(dd, pair.label_y, cfg)
                if not (np.isfinite(dd) and np.isfinite(loss)):
                    raise _diverged(dataset, epoch, step, i, j)
                if scale:
                    g = (lr * scale) * diff
                    G[i] -= g
                    G[j] += g
            else:
                try:
                    loss, dldu, dldv = _cosine(
                        P0[i] + K[i] @ G, P0[j] + K[j] @ G, pair.label_y
                    )
                except PairSkip:
                    skipped += 1
                    continue
                G[i] -= lr * dldu
                G[j] -= lr * dldv
            total += loss
            evaluated += 1
        log.epoch_mean_loss.append(total / evaluated if evaluated else 0.0)
        log.epoch_skipped_pairs.append(skipped)
    return ProjectionModel(G, E, initial.base), log


def _norm_cosine(u, v, y):
    """``_cosine`` as it was written with ``np.linalg.norm`` and
    ``np.dot``: the oracle for its ``ndarray.dot`` form."""
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        raise PairSkip("zero-norm projected embedding under cosine loss")
    c = float(np.dot(u, v) / (nu * nv))
    r = c - y
    dldu = 2.0 * r * (v / (nu * nv) - c * u / (nu * nu))
    dldv = 2.0 * r * (u / (nu * nv) - c * v / (nv * nv))
    return r * r, dldu, dldv


def _row_space_train(dataset, matrix, embeddings, cfg, d_out=None):
    """The row-space SGD as train ran it before its pairs became arrays:
    ``TrainingPair`` objects from ``generate_pairs``, one step's rows
    indexed at a time, ``@`` products and ``np.linalg.norm``. The oracle
    that train must match bit for bit. Returns ``(coef, log)``."""
    import math

    from pdial.metric import TrainingLog, _contrastive, _rng

    rows = [np.asarray(e, dtype=np.float64) for e in embeddings]
    index = {doc.id: n for n, doc in enumerate(dataset)}
    d_in = rows[0].size
    initial = ProjectionModel.initial(d_in, d_out or d_in, cfg.seed)
    E = np.stack(rows)
    first = {}
    same = [first.setdefault(r.tobytes(), n) for n, r in enumerate(rows)]
    pairs = generate_pairs(dataset, matrix, cfg.seed)
    log = TrainingLog(pair_count=len(pairs))
    lr = cfg.learning_rate
    contrastive = cfg.loss_kind == "contrastive"

    def diverged(epoch, step, pair):
        return NumericError(
            f"non-finite loss/gradient at epoch {epoch} step {step} "
            f"(pair {pair.a!r}, {pair.b!r})"
        )

    with np.errstate(over="ignore", invalid="ignore"):
        K = (E @ E.T)[same]
        P0 = initial.project(E)
        Q = np.linalg.qr(P0.T)[0]
        P = (P0 @ Q)[same]
        G = np.zeros(P.shape)
        P_rows, K_rows, G_rows = list(P), list(K), list(G)
        ia = [index[pair.a] for pair in pairs]
        ib = [index[pair.b] for pair in pairs]
        for epoch in range(cfg.epochs):
            order = _rng(cfg.seed, epoch).permutation(len(pairs))
            total = 0.0
            evaluated = 0
            skipped = 0
            for step, k in enumerate(order.tolist()):
                i, j = ia[k], ib[k]
                if contrastive:
                    diff = (P_rows[i] - P_rows[j]) + (K_rows[i] - K_rows[j]) @ G
                    dd = float(diff @ diff)
                    loss, scale = _contrastive(dd, pairs[k].label_y, cfg)
                    if not (math.isfinite(dd) and math.isfinite(loss)):
                        raise diverged(epoch, step, pairs[k])
                    if scale:
                        diff *= lr * scale
                        G_rows[i] -= diff
                        G_rows[j] += diff
                else:
                    try:
                        loss, dldu, dldv = _norm_cosine(
                            P_rows[i] + K_rows[i] @ G,
                            P_rows[j] + K_rows[j] @ G,
                            pairs[k].label_y,
                        )
                    except PairSkip:
                        skipped += 1
                        continue
                    if not (
                        np.isfinite(loss)
                        and np.isfinite(dldu).all()
                        and np.isfinite(dldv).all()
                    ):
                        raise diverged(epoch, step, pairs[k])
                    G_rows[i] -= lr * dldu
                    G_rows[j] -= lr * dldv
                total += loss
                evaluated += 1
            log.epoch_mean_loss.append(total / evaluated if evaluated else 0.0)
            log.epoch_skipped_pairs.append(skipped)
        return G @ Q.T, log


def _thirty_documents():
    """30 documents in 48 dimensions, two pairs of them with equal
    embeddings (one pair within a cluster, one across): 435 pairs, one
    full chunk of steps and a partial one."""
    rng = np.random.default_rng(30)
    clusters = ["left", "center", "right"]
    docs = _docs([(f"d{n}", clusters[n % 3]) for n in range(30)])
    embeddings = rng.normal(size=(30, 48)) / np.sqrt(48)
    embeddings[7] = embeddings[1]
    embeddings[20] = embeddings[11]
    return docs, list(embeddings)


class TestPairArrayTraining:
    """train draws its pairs as arrays and gathers their rows a chunk of
    steps at a time; ``_row_space_train``, the loop it replaced, fixes its
    bits."""

    @staticmethod
    def _assert_bit_identical(dataset, matrix, embeddings, cfg, d_out=None):
        model, log = train(dataset, matrix, embeddings, cfg, d_out=d_out)
        coef, ref_log = _row_space_train(dataset, matrix, embeddings, cfg, d_out)
        assert model.coef.tobytes() == coef.tobytes()
        assert log.epoch_mean_loss == ref_log.epoch_mean_loss
        assert log.epoch_skipped_pairs == ref_log.epoch_skipped_pairs
        assert log.pair_count == ref_log.pair_count
        return log

    @pytest.mark.parametrize("loss_kind", ["contrastive", "cosine"])
    @pytest.mark.parametrize("dim, d_out", [
        (64, None), (64, 8), (768, None), (768, 8),
    ], ids=["square-64", "d-out-8-64", "square-768", "d-out-8-768"])
    def test_the_fixture(self, fixture_train_docs, fixture_matrix, loss_kind,
                         dim, d_out):
        from pdial.embedding import EmbeddingBackendConfig, embed_batch

        embeddings = embed_batch(
            [doc.text for doc in fixture_train_docs],
            EmbeddingBackendConfig(kind="hashed", dimension=dim),
        )
        cfg = TrainConfig(
            loss_kind=loss_kind, learning_rate=0.05, epochs=5, seed=7
        )
        self._assert_bit_identical(
            fixture_train_docs, fixture_matrix, embeddings, cfg, d_out
        )

    @pytest.mark.parametrize("loss_kind", ["contrastive", "cosine"])
    def test_thirty_documents_with_equal_embeddings(self, loss_kind):
        docs, embeddings = _thirty_documents()
        cfg = TrainConfig(loss_kind=loss_kind, learning_rate=0.1, epochs=3,
                          seed=7)
        log = self._assert_bit_identical(docs, POLES_MATRIX, embeddings, cfg)
        assert log.pair_count == 435

    def test_cosine_zero_norm_skips(
        self, fixture_train_docs, fixture_matrix, fixture_train_embeddings
    ):
        embeddings = [np.asarray(e, dtype=np.float64)
                      for e in fixture_train_embeddings]
        embeddings[3] = np.zeros_like(embeddings[3])
        cfg = TrainConfig(loss_kind="cosine", learning_rate=0.05, epochs=5,
                          seed=7)
        log = self._assert_bit_identical(
            fixture_train_docs, fixture_matrix, embeddings, cfg
        )
        assert log.epoch_skipped_pairs == [14] * 5

    def test_divergence_past_the_first_chunk_names_its_step_and_pair(self):
        docs, embeddings = _thirty_documents()
        cfg = TrainConfig(learning_rate=50.0, epochs=1, seed=7)
        with pytest.raises(NumericError) as err:
            train(docs, POLES_MATRIX, embeddings, cfg)
        with pytest.raises(NumericError) as ref:
            _row_space_train(docs, POLES_MATRIX, embeddings, cfg)
        assert str(err.value) == str(ref.value) == (
            "non-finite loss/gradient at epoch 0 step 385 (pair 'd7', 'd14')"
        )

    @pytest.mark.parametrize("n, d", [(2, 1), (5, 3), (16, 16), (33, 7)])
    def test_cosine_matches_its_norm_form(self, n, d):
        from pdial.metric import _cosine

        rng = np.random.default_rng(n * d)
        for u, v, y in zip(rng.normal(size=(n, d)), rng.normal(size=(n, d)),
                           rng.uniform(size=n)):
            loss, dldu, dldv = _cosine(u, v, y)
            ref_loss, ref_dldu, ref_dldv = _norm_cosine(u, v, y)
            assert loss == ref_loss
            assert dldu.tobytes() == ref_dldu.tobytes()
            assert dldv.tobytes() == ref_dldv.tobytes()

    def test_pair_arrays_are_the_generated_pairs(self):
        from pdial.metric import _pair_arrays

        docs = _docs([(f"d{n}", ["right", "left", "center"][n % 3])
                      for n in range(12)])
        ia, ib, labels = _pair_arrays(docs, POLES_MATRIX, 9)
        pairs = generate_pairs(docs, POLES_MATRIX, 9)
        assert [(docs[i].id, docs[j].id, y)
                for i, j, y in zip(ia.tolist(), ib.tolist(), labels.tolist())
                ] == [(p.a, p.b, p.label_y) for p in pairs]

    def test_pair_arrays_name_the_first_unknown_cluster(self):
        from pdial.metric import _pair_arrays

        docs = _docs([("a", "left"), ("b", "up"), ("c", "down"), ("d", "up")])
        with pytest.raises(ConfigurationError) as ref:
            generate_pairs(docs, POLES_MATRIX, 0)
        with pytest.raises(ConfigurationError) as err:
            _pair_arrays(docs, POLES_MATRIX, 0)
        assert str(err.value) == str(ref.value)
        assert "'up'" in str(err.value)


def _assert_matches_full_width(dataset, matrix, embeddings, cfg, d_out=None):
    """train against ``_full_width_train``: W and the epoch losses within
    1e-12 relative, the skips equal. Returns train's model and log."""
    model, log = train(dataset, matrix, embeddings, cfg, d_out=d_out)
    ref, ref_log = _full_width_train(dataset, matrix, embeddings, cfg, d_out)
    assert model.coef.shape == ref.coef.shape
    W, ref_W = model.W, ref.W
    assert np.abs(W - ref_W).max() <= 1e-12 * np.abs(ref_W).max()
    np.testing.assert_allclose(
        log.epoch_mean_loss, ref_log.epoch_mean_loss, rtol=1e-12, atol=0.0
    )
    assert log.epoch_skipped_pairs == ref_log.epoch_skipped_pairs
    assert log.pair_count == ref_log.pair_count
    return model, log


class TestRowSpaceTraining:
    """train runs its steps in an orthonormal basis of the row space of
    ``P0``, min(N, d_out) wide, and must agree with the d_out-wide steps
    up to rounding."""

    @pytest.mark.parametrize("loss_kind", ["contrastive", "cosine"])
    @pytest.mark.parametrize("dim, d_out", [(64, None), (768, None), (64, 8)],
                             ids=["square-64", "square-768", "d-out-8"])
    def test_matches_the_full_width_steps(
        self, fixture_train_docs, fixture_matrix, loss_kind, dim, d_out
    ):
        from pdial.embedding import EmbeddingBackendConfig, embed_batch

        embeddings = embed_batch(
            [doc.text for doc in fixture_train_docs],
            EmbeddingBackendConfig(kind="hashed", dimension=dim),
        )
        cfg = TrainConfig(
            loss_kind=loss_kind, margin_m=1.0, learning_rate=0.05, epochs=5,
            seed=7,
        )
        model, log = _assert_matches_full_width(
            fixture_train_docs, fixture_matrix, embeddings, cfg, d_out
        )
        assert model.d_out == (d_out or dim)
        assert log.epoch_mean_loss[-1] < log.epoch_mean_loss[0]

    def test_a_seeded_corpus_of_300_documents(self):
        # 300 documents in 320 dimensions: the steps run 300 wide.
        rng = np.random.default_rng(300)
        clusters = ["left", "center", "right"]
        docs = _docs([(f"d{n}", clusters[n % 3]) for n in range(300)])
        embeddings = list(rng.normal(size=(300, 320)) / np.sqrt(320))
        cfg = TrainConfig(learning_rate=0.002, epochs=1, seed=7)
        _assert_matches_full_width(docs, POLES_MATRIX, embeddings, cfg)

    @pytest.mark.parametrize("d_out", [None, 8], ids=["square", "d-out-8"])
    def test_overflowing_products_fail_before_the_first_step(
        self, fixture_train_docs, fixture_matrix, fixture_train_embeddings,
        d_out, monkeypatch,
    ):
        # Under the suite's warnings-as-errors, a numpy warning from K or
        # P0 would surface in place of the NumericError.
        import pdial.metric as metric_mod

        def no_step(*args):
            raise AssertionError("a step ran")

        monkeypatch.setattr(metric_mod, "_contrastive", no_step)
        embeddings = [1e200 * np.asarray(e) for e in fixture_train_embeddings]
        cfg = TrainConfig(epochs=1, seed=7)
        with pytest.raises(NumericError, match="beyond the float64 range"):
            train(fixture_train_docs, fixture_matrix, embeddings, cfg, d_out)


class TestDualTraining:
    """train's dual (Gram-space) SGD against the primal oracle."""

    @pytest.mark.parametrize(
        "loss_kind,d_out,zero_doc",
        [
            ("contrastive", None, False),
            ("cosine", None, False),
            ("contrastive", 8, False),
            ("cosine", 8, False),
            ("cosine", None, True),
        ],
        ids=[
            "contrastive-square", "cosine-square", "contrastive-rectangular",
            "cosine-rectangular", "cosine-zero-norm-skips",
        ],
    )
    def test_matches_primal_sgd(
        self, fixture_train_docs, fixture_matrix, fixture_train_embeddings,
        loss_kind, d_out, zero_doc,
    ):
        embeddings = [np.asarray(e, dtype=np.float64) for e in fixture_train_embeddings]
        if zero_doc:
            # a zero base embedding projects to zero: its pairs are skipped
            embeddings[3] = np.zeros_like(embeddings[3])
        cfg = TrainConfig(
            loss_kind=loss_kind, margin_m=1.0, learning_rate=0.05, epochs=5,
            seed=7,
        )
        model, log = train(
            fixture_train_docs, fixture_matrix, embeddings, cfg, d_out=d_out
        )
        W, losses, skips = _primal_train(
            fixture_train_docs, fixture_matrix, embeddings, cfg, d_out=d_out
        )
        assert model.W.shape == W.shape
        np.testing.assert_allclose(model.W, W, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(
            log.epoch_mean_loss, losses, rtol=0.0, atol=1e-12
        )
        assert log.epoch_skipped_pairs == skips
        assert sum(skips) == (5 * 14 if zero_doc else 0)
        W0 = ProjectionModel.initial(W.shape[1], W.shape[0], cfg.seed).W
        assert not np.allclose(W, W0)  # training moved the weights
        _assert_matches_full_width(
            fixture_train_docs, fixture_matrix, embeddings, cfg, d_out
        )

    @pytest.mark.parametrize("d_out", [None, 8], ids=["square", "rectangular"])
    def test_poles_apart_pair_at_zero_distance(
        self, fixture_train_docs, fixture_matrix, fixture_train_embeddings,
        d_out, monkeypatch,
    ):
        """Two documents in poles-apart clusters share one embedding: their
        y = 0 pair sits at d == 0 at every step, which costs m^2, moves
        nothing and counts as evaluated."""
        import pdial.metric as metric_mod

        docs = fixture_train_docs
        assert (docs[0].cluster, docs[10].cluster) == ("pro-madrid", "pro-barca")
        embeddings = [np.asarray(e, dtype=np.float64) for e in fixture_train_embeddings]
        embeddings[10] = embeddings[0].copy()
        cfg = TrainConfig(
            loss_kind="contrastive", margin_m=1.0, learning_rate=0.05, epochs=5,
            seed=7,
        )
        real = metric_mod._contrastive
        zero_distance = []

        def spy(dd, y, cfg):
            loss, scale = real(dd, y, cfg)
            if dd == 0.0:
                zero_distance.append((y, loss, scale))
            return loss, scale

        monkeypatch.setattr(metric_mod, "_contrastive", spy)
        model, log = train(docs, fixture_matrix, embeddings, cfg, d_out=d_out)
        monkeypatch.undo()
        assert zero_distance == [(0.0, 1.0, 0.0)] * 5  # one step per epoch
        assert log.epoch_skipped_pairs == [0] * 5
        np.testing.assert_array_equal(
            model.project(embeddings[0]), model.project(embeddings[10])
        )
        W, losses, skips = _primal_train(
            docs, fixture_matrix, embeddings, cfg, d_out=d_out
        )
        np.testing.assert_allclose(model.W, W, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(
            log.epoch_mean_loss, losses, rtol=0.0, atol=1e-12
        )
        assert skips == [0] * 5
        _assert_matches_full_width(docs, fixture_matrix, embeddings, cfg, d_out)

    @pytest.mark.parametrize("d_out", [None, 8], ids=["square", "rectangular"])
    def test_twins_share_rows_whatever_the_product_rounds(
        self, fixture_train_docs, fixture_matrix, fixture_train_embeddings,
        d_out, monkeypatch,
    ):
        """The twins' pair stays at d == 0 when the initial projection
        rounds their rows one ulp apart: training shares equal
        embeddings' rows after the products, whatever the BLAS rounds."""
        import pdial.metric as metric_mod

        embeddings = [np.asarray(e, dtype=np.float64) for e in fixture_train_embeddings]
        embeddings[10] = embeddings[0].copy()
        cfg = TrainConfig(
            loss_kind="contrastive", margin_m=1.0, learning_rate=0.05, epochs=5,
            seed=7,
        )
        real_project = ProjectionModel.project

        def project_apart(self, e):
            P0 = real_project(self, e)
            P0[10] = np.nextafter(P0[10], np.inf)
            return P0

        real = metric_mod._contrastive
        zero_distance = []

        def spy(dd, y, cfg):
            loss, scale = real(dd, y, cfg)
            if dd == 0.0:
                zero_distance.append((y, loss, scale))
            return loss, scale

        monkeypatch.setattr(ProjectionModel, "project", project_apart)
        monkeypatch.setattr(metric_mod, "_contrastive", spy)
        train(fixture_train_docs, fixture_matrix, embeddings, cfg, d_out=d_out)
        monkeypatch.undo()
        assert zero_distance == [(0.0, 1.0, 0.0)] * 5  # one step per epoch


class TestSpanFactorsWeights:
    """``ProjectionModel`` builds ``W`` from its span factors in the
    product's buffer; its bits must be those of ``base + coef^T basis``
    with ``base`` held whole."""

    def test_identity_base_matches_eye_plus_product(self):
        rng = np.random.default_rng(5)
        coef, basis = rng.normal(size=(2, 9)), rng.normal(size=(2, 9))
        # Products that underflow to -0.0, on and off the diagonal; eye + P
        # turns them into 0.0.
        coef[:, 0] = -1e-200
        basis[:, :3] = 1e-200
        product = coef.T @ basis
        assert np.signbit(product[0, :3]).all() and not product[0, :3].any()
        want = np.eye(9) + product
        got = ProjectionModel(coef=coef, basis=basis).W
        assert got.tobytes() == want.tobytes()

    def test_gaussian_base_matches_base_plus_product(self):
        rng = np.random.default_rng(6)
        base = rng.normal(size=(5, 9))
        coef, basis = rng.normal(size=(4, 5)), rng.normal(size=(4, 9))
        model = ProjectionModel(coef=coef, basis=basis, base=base)
        want = base + coef.T @ basis
        assert model.W.tobytes() == want.tobytes()
        assert model.base.tobytes() == base.tobytes()  # left as it was

    def test_fixture_model_matches_eye_plus_product(self, fixture_model):
        m = fixture_model
        want = np.eye(m.d_in) + m.coef.T @ m.basis
        assert fixture_model.W.tobytes() == want.tobytes()

    def test_no_d_by_d_temporary(self):
        import tracemalloc

        rng = np.random.default_rng(7)
        d = 256
        coef, basis = rng.normal(size=(15, d)), rng.normal(size=(15, d))
        tracemalloc.start()
        try:
            W = ProjectionModel(coef=coef, basis=basis).W
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * W.nbytes


class TestProjectionModel:
    """A model is its span factors; ``W`` is derived from them and cannot
    be set beside them."""

    def test_replacing_a_factor_rebuilds_W(self, fixture_model):
        moved = dataclasses.replace(
            fixture_model, coef=np.zeros_like(fixture_model.coef)
        )
        assert moved.W.tobytes() == np.eye(64).tobytes()

    @pytest.mark.parametrize("n", [0, 3])
    def test_null_base_needs_a_square_model(self, n):
        with pytest.raises(InputValidationError, match="base is null"):
            ProjectionModel(coef=np.ones((n, 8)), basis=np.ones((n, 64)))

    @pytest.mark.parametrize(
        "coef,basis,base,message",
        [
            (np.ones((3, 4)), np.ones((2, 5)), np.ones((4, 5)), "same number of rows"),
            (np.ones(4), np.ones((1, 5)), np.ones((4, 5)), "must be 2-D"),
            (np.ones((0, 0)), np.ones((0, 5)), np.ones((0, 5)), "at least one column"),
            (np.ones((3, 4)), np.ones((3, 5)), np.ones((5, 4)), "base shape"),
            (np.ones((0, 2)), np.ones((0, 2)), [[1, np.inf], [0, 1]], "non-finite"),
            (np.full((1, 2), 1e200), np.full((1, 2), 1e200), None, "non-finite"),
        ],
        ids=[
            "row-counts-differ", "1-d-coef", "no-columns", "base-transposed",
            "inf-in-bare-matrix", "overflowing-product",
        ],
    )
    def test_bad_factors_rejected(self, coef, basis, base, message):
        with pytest.raises(InputValidationError, match=message):
            ProjectionModel(coef=coef, basis=basis, base=base)

    def test_from_weights_keeps_the_matrix_whole(self):
        W = np.array([[-0.0, 1.0, 2.0], [3.0, -0.0, 5.0]])
        model = ProjectionModel.from_weights(W)
        assert (model.d_in, model.d_out, len(model.coef)) == (3, 2, 0)
        assert model.W.tobytes() == W.tobytes()
        with pytest.raises(InputValidationError, match="2-D"):
            ProjectionModel.from_weights(np.ones(3))


class TestProjectionModelOwnsItsArrays:
    """A model keeps its factors and ``W`` read-only, so ``W`` and
    ``project`` agree for the model's life."""

    def test_a_write_through_the_callers_array_raises(self):
        coef = np.ones((1, 2))
        model = ProjectionModel(coef, [[1.0, 0.0]])
        W = model.W
        with pytest.raises(ValueError, match="read-only"):
            coef[0, 0] = 5.0
        assert model.project(np.array([1.0, 0.0])).tolist() == [2.0, 1.0]
        assert (W @ [1.0, 0.0]).tolist() == [2.0, 1.0]

    @pytest.mark.parametrize("field", ["coef", "basis", "base"])
    def test_a_write_through_the_model_raises(self, field):
        model = ProjectionModel(np.ones((1, 2)), np.ones((1, 3)), np.ones((2, 3)))
        with pytest.raises(ValueError, match="read-only"):
            getattr(model, field)[0, 0] = 5.0

    def test_a_model_of_writable_views_keeps_its_values(self):
        buf = np.arange(1.0, 13.0)
        coef, basis, base = buf[:2].reshape(1, 2), buf[2:6].reshape(1, 4), buf[4:]
        model = ProjectionModel(coef, basis, base.reshape(2, 4))
        W = model.W.copy()
        buf[:] = 0.0  # the caller's base stays writable
        assert model.coef.tolist() == [[1.0, 2.0]]
        assert model.basis.tolist() == [[3.0, 4.0, 5.0, 6.0]]
        assert model.W.tobytes() == W.tobytes()
        assert model.project(np.ones(4)).tolist() == (W @ np.ones(4)).tolist()

    @pytest.mark.parametrize("build", [
        lambda: ProjectionModel(np.ones((1, 3)), np.ones((1, 3))),
        lambda: ProjectionModel(np.ones((1, 2)), np.ones((1, 3)), np.ones((2, 3))),
        lambda: ProjectionModel.initial(4, 4, 0),
        lambda: ProjectionModel.from_weights(np.ones((2, 3))),
    ], ids=["identity-plus-rows", "base-plus-rows", "empty-identity", "bare-matrix"])
    def test_W_is_read_only(self, build):
        W = build().W
        with pytest.raises(ValueError, match="read-only"):
            W[0, 0] = 5.0


class TestProject:
    """``project`` applies the head through the factors; the dense ``W``
    is its oracle."""

    @pytest.fixture(params=["train-square", "train-d-out-8", "from-weights"])
    def model(
        self, request, fixture_train_docs, fixture_matrix,
        fixture_train_embeddings,
    ):
        if request.param == "from-weights":
            W = np.random.default_rng(8).normal(size=(5, 64))
            return ProjectionModel.from_weights(W)
        d_out = 8 if request.param == "train-d-out-8" else None
        model, _ = train(
            fixture_train_docs, fixture_matrix, fixture_train_embeddings,
            FIXTURE_TRAIN_CFG, d_out=d_out,
        )
        assert (model.base is None) == (d_out is None)
        return model

    def test_matches_W_on_a_vector_and_on_rows(
        self, model, fixture_train_embeddings
    ):
        E = np.stack(fixture_train_embeddings)
        for got, want in (
            (model.project(E[0]), model.W @ E[0]),
            (model.project(E), E @ model.W.T),
        ):
            assert got.shape == want.shape
            tol = 1e-12 * np.abs(want).max()
            np.testing.assert_allclose(got, want, rtol=0.0, atol=tol)

    @pytest.mark.parametrize(
        "coef,basis,base",
        [
            (np.full((2, 4), 1e200), np.full((2, 4), 1e200), None),
            (np.array([[1.0, np.inf]]), np.ones((1, 2)), None),
            (np.ones((1, 2)), np.array([[np.nan, 1.0]]), None),
            (np.ones((1, 2)), np.ones((1, 3)), np.array([[0.0] * 3, [np.nan] * 3])),
        ],
        ids=["bound-overflows", "inf-in-coef", "nan-in-basis", "nan-in-base"],
    )
    def test_non_finite_bound_rejected(self, coef, basis, base):
        with pytest.raises(
            InputValidationError, match="W contains non-finite entries"
        ):
            ProjectionModel(coef=coef, basis=basis, base=base)

    def test_building_a_model_makes_no_d_by_d_array(self):
        import tracemalloc

        rng = np.random.default_rng(9)
        d = 256
        coef, basis = rng.normal(size=(15, d)), rng.normal(size=(15, d))
        tracemalloc.start()
        try:
            model = ProjectionModel(coef, basis)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < model.W.nbytes / 4


class TestMatrixValidation:
    def test_asymmetric_rejected(self):
        with pytest.raises(InputValidationError):
            ClusterSimilarityMatrix(["a", "b"], np.array([[1.0, 0.2], [0.3, 1.0]]))

    def test_bad_diagonal_rejected(self):
        with pytest.raises(InputValidationError):
            ClusterSimilarityMatrix(["a", "b"], np.array([[0.9, 0.2], [0.2, 1.0]]))

    def test_out_of_range_rejected(self):
        with pytest.raises(InputValidationError):
            ClusterSimilarityMatrix(["a", "b"], np.array([[1.0, 1.2], [1.2, 1.0]]))

    def test_non_finite_label_rejected(self):
        with pytest.raises(InputValidationError, match="labels must be finite"):
            ClusterSimilarityMatrix(
                ["a", "b"], np.array([[1.0, np.nan], [np.nan, 1.0]])
            )

    def test_duplicate_labels_rejected(self):
        with pytest.raises(InputValidationError):
            ClusterSimilarityMatrix(["a", "a"], np.eye(2))

    def test_bare_str_of_clusters_rejected(self):
        # iterated, "ab" would be the two clusters "a" and "b"
        with pytest.raises(InputValidationError, match="^clusters must be a list, got str$"):
            ClusterSimilarityMatrix("ab", np.eye(2))
