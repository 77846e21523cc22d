import numpy as np
import pytest

from pdial.errors import InputValidationError, NumericError
from pdial.pca import (
    PcaModel,
    PerspectivePoint,
    fit_pca,
    jacobi_eigh,
    pca_transform,
)


class TestJacobiEigh:
    def test_diagonal_matrix_is_immediate(self):
        ev, vec = jacobi_eigh(np.diag([3.0, 1.0, 2.0]))
        np.testing.assert_array_equal(ev, [3.0, 2.0, 1.0])
        # eigenvectors are signed unit axes
        np.testing.assert_allclose(np.abs(vec), np.eye(3)[[0, 2, 1]], atol=0)

    def test_known_2x2(self):
        # [[2,1],[1,2]] has eigenvalues 3 and 1
        ev, vec = jacobi_eigh(np.array([[2.0, 1.0], [1.0, 2.0]]))
        np.testing.assert_allclose(ev, [3.0, 1.0], atol=1e-14)
        np.testing.assert_allclose(np.abs(vec[0]), [1, 1] / np.sqrt(2), atol=1e-14)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_reference_eigensolver(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(40, 6)) * rng.uniform(0.2, 3.0, size=6)
        C = X.T @ X / 39.0
        C = (C + C.T) / 2.0
        ev, vec = jacobi_eigh(C)
        ref_ev, ref_vec = np.linalg.eigh(C)
        np.testing.assert_allclose(ev, ref_ev[::-1], atol=1e-8)
        assert abs(ev.sum() - np.trace(C)) < 1e-8
        np.testing.assert_allclose(vec @ vec.T, np.eye(6), atol=1e-8)
        # eigenvector agreement up to sign
        for i in range(6):
            assert abs(np.dot(vec[i], ref_vec[:, ::-1][:, i])) == pytest.approx(
                1.0, abs=1e-7
            )

    def test_residual_is_true_eigenpair(self):
        rng = np.random.default_rng(99)
        A = rng.normal(size=(7, 7))
        C = (A + A.T) / 2.0
        ev, vec = jacobi_eigh(C)
        for lam, v in zip(ev, vec):
            np.testing.assert_allclose(C @ v, lam * v, atol=1e-10)

    def test_non_symmetric_rejected(self):
        with pytest.raises(InputValidationError):
            jacobi_eigh(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_sweep_budget_exhaustion_raises(self, monkeypatch):
        import pdial.pca as pca_mod

        monkeypatch.setattr(pca_mod, "JACOBI_MAX_SWEEPS", 0)
        C = np.array([[2.0, 1.0], [1.0, 2.0]])
        with pytest.raises(NumericError, match="did not converge"):
            jacobi_eigh(C)


class TestFitPca:
    def test_rank_one_line(self):
        points = [t * np.array([1.0, 1.0, 0.0]) for t in (-1.0, 0.0, 1.0)]
        model = fit_pca(points)
        assert model.explained_variance[1] <= 1e-12
        np.testing.assert_allclose(
            model.components[0], [1 / np.sqrt(2), 1 / np.sqrt(2), 0.0], atol=1e-12
        )

    def test_isotropic_square_corners(self):
        points = [
            np.array([sx, sy]) for sx in (-1.0, 1.0) for sy in (-1.0, 1.0)
        ]
        model = fit_pca(points)
        np.testing.assert_allclose(
            model.explained_variance, [4.0 / 3.0, 4.0 / 3.0], atol=1e-12
        )
        # axes are arbitrary under symmetry; only invariants hold
        np.testing.assert_allclose(
            model.components @ model.components.T, np.eye(2), atol=1e-8
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_reference_on_random_clouds(self, seed):
        rng = np.random.default_rng(100 + seed)
        X = rng.normal(size=(50, 5)) * rng.uniform(0.3, 2.5, size=5)
        model = fit_pca(list(X))
        C = np.cov(X.T)
        ref_ev = np.linalg.eigh(C)[0][::-1]
        np.testing.assert_allclose(
            model.explained_variance, ref_ev[:2], atol=1e-8
        )

    def test_sign_convention_largest_entry_positive(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(30, 4))
        model = fit_pca(list(X))
        for row in model.components:
            assert row[np.argmax(np.abs(row))] > 0

    def test_deterministic_bit_identical(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(20, 4))
        m1 = fit_pca(list(X))
        m2 = fit_pca(list(X))
        assert np.array_equal(m1.mean, m2.mean)
        assert np.array_equal(m1.components, m2.components)
        assert np.array_equal(m1.explained_variance, m2.explained_variance)

    def test_too_few_points_rejected(self):
        with pytest.raises(InputValidationError):
            fit_pca([np.zeros(3), np.ones(3)])

    def test_ragged_points_rejected(self):
        with pytest.raises(InputValidationError):
            fit_pca([np.zeros(3), np.zeros(4), np.zeros(3)])

    def test_eigenvalue_ordering(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(25, 6))
        model = fit_pca(list(X))
        assert model.explained_variance[0] >= model.explained_variance[1] >= 0


class TestPcaTransform:
    @pytest.fixture
    def cloud_model(self):
        rng = np.random.default_rng(17)
        X = rng.normal(size=(40, 5)) * np.array([3.0, 2.0, 1.0, 0.5, 0.2])
        return list(X), fit_pca(list(X))

    def test_mean_maps_to_origin(self, cloud_model):
        _, model = cloud_model
        point = pca_transform(model, model.mean)
        assert point.x == 0.0 and point.y == 0.0

    def test_unit_step_along_first_axis(self, cloud_model):
        _, model = cloud_model
        point = pca_transform(model, model.mean + model.components[0])
        assert point.x == pytest.approx(1.0, abs=1e-12)
        assert point.y == pytest.approx(0.0, abs=1e-12)

    def test_matches_reference_projection(self, cloud_model):
        points, model = cloud_model
        for p in points[:10]:
            got = pca_transform(model, p)
            ref = model.components @ (np.asarray(p) - model.mean)
            assert got.x == pytest.approx(ref[0], abs=1e-8)
            assert got.y == pytest.approx(ref[1], abs=1e-8)

    def test_dimension_mismatch_rejected(self, cloud_model):
        _, model = cloud_model
        with pytest.raises(InputValidationError):
            pca_transform(model, np.zeros(7))


class TestPcaModelValidation:
    def test_non_orthonormal_rejected(self):
        with pytest.raises(InputValidationError):
            PcaModel(
                mean=np.zeros(3),
                components=np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
                explained_variance=np.array([1.0, 0.5]),
            )

    def test_increasing_variance_rejected(self):
        with pytest.raises(InputValidationError):
            PcaModel(
                mean=np.zeros(2),
                components=np.eye(2),
                explained_variance=np.array([0.5, 1.0]),
            )

    def test_three_components_rejected(self):
        with pytest.raises(InputValidationError, match="3 components, expected 2"):
            PcaModel(
                mean=np.zeros(3),
                components=np.eye(3),
                explained_variance=np.array([3.0, 2.0, 1.0]),
            )

    def test_perspective_point_must_be_finite(self):
        with pytest.raises(InputValidationError):
            PerspectivePoint(x=float("nan"), y=0.0)


def _jacobi_spy(monkeypatch):
    """Record the shape of every matrix fit_pca hands to jacobi_eigh."""
    import pdial.pca as pca_mod

    shapes = []
    real = pca_mod.jacobi_eigh

    def spy(C, *args, **kwargs):
        shapes.append(np.shape(C))
        return real(C, *args, **kwargs)

    monkeypatch.setattr(pca_mod, "jacobi_eigh", spy)
    return shapes


def _assert_valid(model, d):
    assert model.components.shape == (2, d)
    np.testing.assert_allclose(
        model.components @ model.components.T, np.eye(2), atol=1e-8
    )
    ev = model.explained_variance
    assert np.all(ev >= 0.0) and ev[0] >= ev[1]


class TestGramRoute:
    """Fewer points than dimensions: the m x m Gram matrix is diagonalized."""

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_reference_on_wide_clouds(self, seed, monkeypatch):
        shapes = _jacobi_spy(monkeypatch)
        rng = np.random.default_rng(200 + seed)
        X = rng.normal(size=(12, 200)) * rng.uniform(0.3, 2.5, size=200)
        model = fit_pca(list(X))
        assert shapes == [(12, 12)]
        ref_ev, ref_vec = np.linalg.eigh(np.cov(X.T))
        np.testing.assert_allclose(
            model.explained_variance, ref_ev[::-1][:2], rtol=0.0, atol=1e-8
        )
        for k in range(2):
            overlap = abs(np.dot(model.components[k], ref_vec[:, -1 - k]))
            assert overlap > 1.0 - 1e-8

    def test_fixture_shape_uses_15x15_gram(self, monkeypatch):
        shapes = _jacobi_spy(monkeypatch)
        rng = np.random.default_rng(15)
        model = fit_pca(list(rng.normal(size=(15, 768))))
        assert shapes == [(15, 15)]
        _assert_valid(model, 768)

    def test_identical_points_fall_back_to_covariance(self, monkeypatch):
        shapes = _jacobi_spy(monkeypatch)
        model = fit_pca([np.arange(10.0)] * 5)
        assert shapes == [(5, 5), (10, 10)]
        _assert_valid(model, 10)
        np.testing.assert_array_equal(model.explained_variance, [0.0, 0.0])

    def test_collinear_points_fall_back_to_covariance(self, monkeypatch):
        shapes = _jacobi_spy(monkeypatch)
        rng = np.random.default_rng(3)
        direction = rng.normal(size=10)
        direction /= np.linalg.norm(direction)
        offset = rng.normal(size=10)
        model = fit_pca([offset + t * direction for t in (-2.0, -0.5, 1.0, 3.0)])
        assert shapes == [(4, 4), (10, 10)]
        _assert_valid(model, 10)
        assert abs(np.dot(model.components[0], direction)) == pytest.approx(
            1.0, abs=1e-10
        )
        assert model.explained_variance[1] <= 1e-12

    # variance ratios ~7e-9 (Gram route), ~7e-11 and ~7e-13 (covariance)
    @pytest.mark.parametrize("second_std", [1e-4, 1e-5, 1e-6])
    def test_tiny_second_variance(self, second_std):
        rng = np.random.default_rng(4)
        basis = np.linalg.qr(rng.normal(size=(10, 2)))[0].T
        t = rng.normal(size=(6, 2)) * np.array([1.0, second_std])
        X = t @ basis
        model = fit_pca(list(X))
        _assert_valid(model, 10)
        ratio = model.explained_variance[1] / model.explained_variance[0]
        assert 0.1 * second_std**2 < ratio < 10 * second_std**2
        ref_top = np.linalg.eigh(np.cov(X.T))[1][:, -1]
        assert abs(np.dot(model.components[0], ref_top)) > 1.0 - 1e-10
