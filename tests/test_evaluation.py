import numpy as np
import pytest

from pdial.embedding import EmbeddingBackendConfig, embed_batch, hashed_embed
import pdial.evaluation as evaluation_mod
from pdial.errors import InputValidationError, NumericError
from pdial.evaluation import (
    SimilarityReport,
    cluster_similarity_report,
    render_report_text,
)
from pdial.metric import (
    LabeledDocument,
    ProjectionModel,
    TrainConfig,
    train,
)

from conftest import FIXTURE_BACKEND, FIXTURE_TRAIN_CFG

BACKEND8 = EmbeddingBackendConfig(kind="hashed", dimension=8)


def _cosine(u, v):
    """Textbook cosine, the oracle for the report's matrix form."""
    return float(np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v)))


def _identity(dim):
    return ProjectionModel.from_weights(np.eye(dim))


class TestReportBasics:
    def test_identical_single_docs_give_unit_cell(self):
        train_docs = [LabeledDocument("t1", "hello there", "a"),
                      LabeledDocument("t2", "completely different words", "b")]
        test_docs = [LabeledDocument("s1", "hello there", "a"),
                     LabeledDocument("s2", "completely different words", "b")]
        report = cluster_similarity_report(
            train_docs, test_docs, _identity(8), BACKEND8
        )
        i = report.clusters.index("a")
        assert report.pre_mean[i, i] == pytest.approx(1.0, abs=1e-12)
        assert report.pre_std[i, i] == pytest.approx(0.0, abs=1e-12)

    def test_three_clusters_give_3x3(self, fixture_train_docs, fixture_test_docs):
        report = cluster_similarity_report(
            fixture_train_docs, fixture_test_docs, _identity(64), FIXTURE_BACKEND
        )
        assert len(report.clusters) == 3
        assert report.pre_mean.shape == (3, 3)
        assert report.post_std.shape == (3, 3)

    def test_cluster_order_follows_train_split(self, fixture_train_docs, fixture_test_docs):
        report = cluster_similarity_report(
            fixture_train_docs, fixture_test_docs, _identity(64), FIXTURE_BACKEND
        )
        assert list(report.clusters) == ["pro-madrid", "neutral", "pro-barca"]

    def test_unknown_test_cluster_rejected(self, fixture_train_docs):
        rogue = [LabeledDocument("x", "some text", "pro-atletico")]
        with pytest.raises(InputValidationError):
            cluster_similarity_report(
                fixture_train_docs, rogue, _identity(64), FIXTURE_BACKEND
            )

    def test_missing_test_cluster_rejected(self, fixture_train_docs, fixture_test_docs):
        partial = [d for d in fixture_test_docs if d.cluster != "neutral"]
        with pytest.raises(InputValidationError):
            cluster_similarity_report(
                fixture_train_docs, partial, _identity(64), FIXTURE_BACKEND
            )


class TestReportClusters:
    """A report's clusters are at least one, each named once, as in a
    ``ClusterSimilarityMatrix``."""

    def test_zero_clusters_rejected(self):
        e = np.empty((0, 0))
        with pytest.raises(
            InputValidationError, match="^a report needs at least one cluster$"
        ):
            SimilarityReport((), e, e, e, e)

    def test_duplicate_cluster_names_rejected(self):
        cells = [np.eye(2), np.zeros((2, 2)), np.eye(2), np.zeros((2, 2))]
        with pytest.raises(
            InputValidationError, match="^cluster labels must be unique$"
        ):
            SimilarityReport(("a", "a"), *cells)


class TestReportOwnsItsArrays:
    """A report keeps its matrices read-only, so no write after it is
    built can break its rules."""

    FIELDS = ("pre_mean", "pre_std", "post_mean", "post_std")

    def test_a_write_through_the_callers_array_raises(self):
        cells = [np.array([[0.5]]) for _ in self.FIELDS]
        SimilarityReport(("a",), *cells)
        for cell in cells:
            with pytest.raises(ValueError, match="read-only"):
                cell[0, 0] = 2.0

    @pytest.mark.parametrize("field", FIELDS)
    def test_a_write_through_the_report_raises(self, field):
        report = SimilarityReport(("a",), [[0.5]], [[0.1]], [[0.5]], [[0.1]])
        with pytest.raises(ValueError, match="read-only"):
            getattr(report, field)[0, 0] = 2.0

    def test_a_report_of_writable_views_keeps_its_values(self):
        buf = np.full(4, 0.5)
        cells = [buf[i:i + 1].reshape(1, 1) for i in range(4)]
        report = SimilarityReport(("a",), *cells)
        buf[:] = -2.0  # the caller's base stays writable
        for field in self.FIELDS:
            assert getattr(report, field).tolist() == [[0.5]]

    def test_a_rejected_report_leaves_the_callers_arrays_writable(self):
        std = np.array([[-0.1]])
        with pytest.raises(InputValidationError, match="non-negative"):
            SimilarityReport(("a",), [[0.5]], std, [[0.5]], [[0.1]])
        std[0, 0] = 0.1


class TestReportValues:
    def test_matches_independent_recomputation(
        self, fixture_train_docs, fixture_test_docs, fixture_model
    ):
        report = cluster_similarity_report(
            fixture_train_docs, fixture_test_docs, fixture_model, FIXTURE_BACKEND
        )

        # plain recomputation from scratch: own cosine, own grouping
        W = fixture_model.W
        for i, tc in enumerate(report.clusters):
            for j, rc in enumerate(report.clusters):
                pre_sims, post_sims = [], []
                for td in fixture_test_docs:
                    if td.cluster != tc:
                        continue
                    for rd in fixture_train_docs:
                        if rd.cluster != rc:
                            continue
                        e_t = hashed_embed(td.text, 64)
                        e_r = hashed_embed(rd.text, 64)
                        pre_sims.append(_cosine(e_t, e_r))
                        post_sims.append(_cosine(W @ e_t, W @ e_r))
                assert report.pre_mean[i, j] == pytest.approx(
                    np.mean(pre_sims), abs=1e-9
                )
                assert report.pre_std[i, j] == pytest.approx(
                    np.std(pre_sims), abs=1e-9
                )
                assert report.post_mean[i, j] == pytest.approx(
                    np.mean(post_sims), abs=1e-9
                )
                assert report.post_std[i, j] == pytest.approx(
                    np.std(post_sims), abs=1e-9
                )

    def test_pre_values_independent_of_training(
        self, fixture_train_docs, fixture_test_docs, fixture_matrix, fixture_model,
        fixture_train_embeddings,
    ):
        trained = cluster_similarity_report(
            fixture_train_docs, fixture_test_docs, fixture_model, FIXTURE_BACKEND
        )
        other_model, _ = train(
            fixture_train_docs,
            fixture_matrix,
            fixture_train_embeddings,
            TrainConfig(loss_kind="cosine", epochs=2, seed=99),
        )
        other = cluster_similarity_report(
            fixture_train_docs, fixture_test_docs, other_model, FIXTURE_BACKEND
        )
        np.testing.assert_array_equal(trained.pre_mean, other.pre_mean)
        np.testing.assert_array_equal(trained.pre_std, other.pre_std)

    def test_document_order_invariance(
        self, fixture_train_docs, fixture_test_docs, fixture_model
    ):
        base = cluster_similarity_report(
            fixture_train_docs, fixture_test_docs, fixture_model, FIXTURE_BACKEND
        )
        rng = np.random.default_rng(5)
        shuffled_test = [fixture_test_docs[k] for k in rng.permutation(6)]
        again = cluster_similarity_report(
            fixture_train_docs, shuffled_test, fixture_model, FIXTURE_BACKEND
        )
        np.testing.assert_allclose(base.pre_mean, again.pre_mean, atol=1e-12)
        np.testing.assert_allclose(base.post_std, again.post_std, atol=1e-12)

    def test_post_diagonal_dominates_rows(
        self, fixture_train_docs, fixture_test_docs, fixture_model
    ):
        report = cluster_similarity_report(
            fixture_train_docs, fixture_test_docs, fixture_model, FIXTURE_BACKEND
        )
        for i in range(3):
            for j in range(3):
                if i != j:
                    assert report.post_mean[i, i] > report.post_mean[i, j]


def _per_pair_report(train_docs, test_docs, model, backend_cfg):
    """The four report matrices computed one document pair at a time, with
    ``W`` and a textbook cosine: the oracle for the matrix form."""
    clusters = list(dict.fromkeys(d.cluster for d in train_docs))
    train_base = embed_batch([d.text for d in train_docs], backend_cfg)
    test_base = embed_batch([d.text for d in test_docs], backend_cfg)
    n = len(clusters)
    names = ("pre_mean", "pre_std", "post_mean", "post_std")
    out = {name: np.zeros((n, n)) for name in names}
    for i, tc in enumerate(clusters):
        for j, rc in enumerate(clusters):
            pre, post = [], []
            for td, t in zip(test_docs, test_base):
                for rd, r in zip(train_docs, train_base):
                    if td.cluster == tc and rd.cluster == rc:
                        pre.append(_cosine(t, r))
                        post.append(_cosine(model.W @ t, model.W @ r))
            out["pre_mean"][i, j], out["pre_std"][i, j] = np.mean(pre), np.std(pre)
            out["post_mean"][i, j], out["post_std"][i, j] = np.mean(post), np.std(post)
    return out


class TestReportMatchesPerPairLoop:
    @pytest.mark.parametrize("d_out", [None, 8], ids=["square", "rectangular"])
    def test_all_four_matrices_agree(
        self, fixture_train_docs, fixture_test_docs, fixture_matrix,
        fixture_train_embeddings, d_out,
    ):
        model, _ = train(
            fixture_train_docs, fixture_matrix, fixture_train_embeddings,
            FIXTURE_TRAIN_CFG, d_out=d_out,
        )
        report = cluster_similarity_report(
            fixture_train_docs, fixture_test_docs, model, FIXTURE_BACKEND
        )
        expected = _per_pair_report(
            fixture_train_docs, fixture_test_docs, model, FIXTURE_BACKEND
        )
        for name, matrix in expected.items():
            np.testing.assert_allclose(
                getattr(report, name), matrix, rtol=0.0, atol=1e-12, err_msg=name
            )

    def test_zero_projected_vector_names_the_document(self):
        train_docs = [LabeledDocument("t1", "hello there", "a"),
                      LabeledDocument("t2", "completely different words", "b")]
        test_docs = [LabeledDocument("s1", "hello", "a"),
                     LabeledDocument("s2", "completely different words", "b")]
        # "hello" embeds to a one-hot vector; W drops exactly that axis.
        W = np.eye(8)
        W[np.argmax(hashed_embed("hello", 8))] = 0.0
        model = ProjectionModel.from_weights(W)
        with pytest.raises(InputValidationError, match="'s1' has a zero projected"):
            cluster_similarity_report(train_docs, test_docs, model, BACKEND8)

    def test_embedding_width_must_match_d_in(
        self, fixture_train_docs, fixture_test_docs
    ):
        with pytest.raises(InputValidationError, match="d_in=8"):
            cluster_similarity_report(
                fixture_train_docs, fixture_test_docs, _identity(8), FIXTURE_BACKEND
            )


class TestExtremeScales:
    """Rows whose norm would overflow: each row is scaled by a power of
    two before its norm is taken, which keeps every bit."""

    @staticmethod
    def _report(train_docs, test_docs, model):
        return cluster_similarity_report(train_docs, test_docs, model, FIXTURE_BACKEND)

    @staticmethod
    def _cells(report):
        return [
            getattr(report, name).tobytes()
            for name in ("pre_mean", "pre_std", "post_mean", "post_std")
        ]

    def test_base_embeddings_scaled_by_2_to_600_give_the_same_report(
        self, fixture_train_docs, fixture_test_docs, fixture_model, monkeypatch
    ):
        plain = self._report(fixture_train_docs, fixture_test_docs, fixture_model)
        monkeypatch.setattr(
            evaluation_mod,
            "embed_batch",
            lambda texts, cfg: [np.ldexp(e, 600) for e in embed_batch(texts, cfg)],
        )
        scaled = self._report(fixture_train_docs, fixture_test_docs, fixture_model)
        # every squared entry is beyond float64, and still the cells are equal
        assert self._cells(scaled) == self._cells(plain)
        assert scaled.clusters == plain.clusters

    def test_huge_weights_give_the_cosines_of_the_unscaled_model(
        self, fixture_train_docs, fixture_test_docs, fixture_model
    ):
        """Projections up to ~1e302 are finite, but their squares are not:
        the cells are those of the model before scaling, not zeros."""
        W = fixture_model.W
        plain = self._report(
            fixture_train_docs, fixture_test_docs, ProjectionModel.from_weights(W)
        )
        huge = ProjectionModel.from_weights(np.ldexp(W, 1000))
        report = self._report(fixture_train_docs, fixture_test_docs, huge)
        assert self._cells(report) == self._cells(plain)
        assert np.all(np.diag(report.post_mean) > 0.5)

    def test_non_finite_projection_is_a_numeric_error(
        self, fixture_train_docs, fixture_test_docs
    ):
        model = ProjectionModel.from_weights(np.full((64, 64), 1e308))
        first = fixture_train_docs[0].id
        with pytest.raises(
            NumericError, match=f"'{first}' has a non-finite projected vector"
        ):
            self._report(fixture_train_docs, fixture_test_docs, model)

    def test_opposite_overflows_are_a_numeric_error(
        self, fixture_train_docs, fixture_test_docs, monkeypatch
    ):
        """``base`` and the low-rank part each overflow, with opposite
        signs, and meet as inf + -inf = NaN: reported as the same error,
        with no warning."""
        d = FIXTURE_BACKEND.dimension
        model = ProjectionModel(
            coef=np.full((1, d), -8e307),
            basis=np.ones((1, d)),
            base=np.full((d, d), 8e307),
        )
        monkeypatch.setattr(
            evaluation_mod, "embed_batch", lambda texts, cfg: [np.ones(d)] * len(texts)
        )
        first = fixture_train_docs[0].id
        with pytest.raises(
            NumericError, match=f"'{first}' has a non-finite projected vector"
        ):
            self._report(fixture_train_docs, fixture_test_docs, model)

    @pytest.mark.parametrize("cell", ["pre_mean", "pre_std", "post_mean", "post_std"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_report_rejects_non_finite_cells(self, cell, bad):
        cells = {
            name: np.full((2, 2), 0.5)
            for name in ("pre_mean", "pre_std", "post_mean", "post_std")
        }
        cells[cell][1, 0] = bad
        with pytest.raises(InputValidationError, match=f"^{cell} must be finite$"):
            SimilarityReport(clusters=("a", "b"), **cells)


class TestReportRendering:
    def test_cells_formatted_mean_paren_std(
        self, fixture_train_docs, fixture_test_docs, fixture_model
    ):
        report = cluster_similarity_report(
            fixture_train_docs, fixture_test_docs, fixture_model, FIXTURE_BACKEND
        )
        text = render_report_text(report)
        assert "Test: pro-madrid" in text
        expected_cell = (
            f"{report.pre_mean[0, 0]:.2f} ({report.pre_std[0, 0]:.2f})"
        )
        assert expected_cell in text
        assert "std: population" in text
