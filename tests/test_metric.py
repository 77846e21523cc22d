import numpy as np
import pytest

from pdial.errors import ConfigurationError, InputValidationError, NumericError
from pdial.metric import (
    ClusterSimilarityMatrix,
    LabeledDocument,
    PairSkip,
    ProjectionModel,
    SpanFactors,
    TrainConfig,
    binarize_label,
    contrastive_loss,
    cosine_loss,
    cosine_similarity,
    generate_pairs,
    loss_gradient,
    train,
)

from conftest import FIXTURE_TRAIN_CFG

POLES_MATRIX = ClusterSimilarityMatrix(
    clusters=["left", "center", "right"],
    sim=np.array([[1.0, 0.35, 0.0], [0.35, 1.0, 0.35], [0.0, 0.35, 1.0]]),
)


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
    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan")])
    @pytest.mark.parametrize(
        "name,message", [("margin_m", "margin"), ("learning_rate", "learning rate")]
    )
    def test_not_positive_rejected(self, name, message, value):
        with pytest.raises(ConfigurationError, match=f"{message} must be > 0"):
            TrainConfig(**{name: value})


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
    from pdial.metric import _pair_loss_grad

    grad = np.zeros_like(W)
    for idx in np.ndindex(W.shape):
        Wp = W.copy()
        Wp[idx] += h
        Wm = W.copy()
        Wm[idx] -= h
        lp, _ = _pair_loss_grad(Wp, a, b, y, cfg)
        lm, _ = _pair_loss_grad(Wm, a, b, y, cfg)
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
        model = ProjectionModel(d_in=3, d_out=2, W=np.ones((2, 3)))
        e = np.array([1.0, 2.0, 3.0])
        cfg = TrainConfig(loss_kind="contrastive")
        loss, grad = loss_gradient(model, e, e, 1.0, cfg)
        assert loss == 0.0
        np.testing.assert_array_equal(grad, np.zeros((2, 3)))

    def test_cosine_zero_residual_zero_gradient(self):
        model = ProjectionModel(d_in=2, d_out=2, W=np.eye(2))
        u = np.array([1.0, 0.0])
        v = np.array([0.0, 1.0])
        cfg = TrainConfig(loss_kind="cosine")
        loss, grad = loss_gradient(model, u, v, 0.0, cfg)  # cos == y == 0
        assert loss == 0.0
        np.testing.assert_allclose(grad, 0.0, atol=1e-15)

    def test_cosine_zero_norm_signals_skip(self):
        model = ProjectionModel(d_in=2, d_out=2, W=np.zeros((2, 2)))
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
            model = ProjectionModel(d_in=W.shape[1], d_out=W.shape[0], W=W)
            _, analytic = loss_gradient(model, a, b, y, cfg)
            numeric = _fd_gradient(W, a, b, y, cfg)
            assert _rel_error(analytic, numeric) < 1e-4
            checked += 1


class TestLossOracles:
    """The public losses are the oracles for the loss the training step
    computes on the projected pair."""

    def test_cosine_loss_matches_training_step(self):
        from pdial.metric import _pair_loss_grad

        rng = np.random.default_rng(7)
        for _ in range(200):
            W, a, b, y, cfg = _random_instance(rng, "cosine")
            loss, _ = _pair_loss_grad(W, a, b, y, cfg)
            assert loss == pytest.approx(
                cosine_loss(W @ a, W @ b, y), rel=0.0, abs=1e-12
            )

    def test_contrastive_loss_matches_training_step(self):
        from pdial.metric import _pair_loss_grad

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
            loss, _ = _pair_loss_grad(W, a, b, y, cfg)
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

        real = metric_mod._pair_loss
        calls = {"n": 0}

        def flaky(u, v, y, cfg):
            calls["n"] += 1
            if calls["n"] % 10 == 0:
                raise PairSkip("forced for test")
            return real(u, v, y, cfg)

        monkeypatch.setattr(metric_mod, "_pair_loss", flaky)
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
            model = ProjectionModel(d_in=d_in, d_out=W.shape[0], W=W)
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


class TestSpanFactorsWeights:
    """``SpanFactors.weights`` builds ``W`` in the product's buffer; its bits
    must be those of ``base + coef^T basis`` with ``base`` held whole."""

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
        got = SpanFactors(base=None, coef=coef, basis=basis).weights()
        assert got.tobytes() == want.tobytes()

    def test_gaussian_base_matches_base_plus_product(self):
        rng = np.random.default_rng(6)
        base = rng.normal(size=(5, 9))
        coef, basis = rng.normal(size=(4, 5)), rng.normal(size=(4, 9))
        factors = SpanFactors(base=base, coef=coef, basis=basis)
        want = base + coef.T @ basis
        assert factors.weights().tobytes() == want.tobytes()
        assert factors.base.tobytes() == base.tobytes()  # left as it was

    def test_fixture_model_matches_eye_plus_product(self, fixture_model):
        f = fixture_model.factors
        want = np.eye(f.basis.shape[1]) + f.coef.T @ f.basis
        assert fixture_model.W.tobytes() == want.tobytes()

    def test_no_d_by_d_temporary(self):
        import tracemalloc

        rng = np.random.default_rng(7)
        d = 256
        factors = SpanFactors(
            base=None, coef=rng.normal(size=(15, d)), basis=rng.normal(size=(15, d))
        )
        tracemalloc.start()
        try:
            W = factors.weights()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * W.nbytes


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

    def test_duplicate_labels_rejected(self):
        with pytest.raises(InputValidationError):
            ClusterSimilarityMatrix(["a", "a"], np.eye(2))
