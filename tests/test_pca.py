import dataclasses

import numpy as np
import pytest

import pdial.pca as pca_mod
from pdial.embedding import hashed_embed
from pdial.errors import InputValidationError, NumericError
from pdial.pca import (
    PcaModel,
    PerspectivePoint,
    _round_robin,
    fit_pca,
    jacobi_eigh,
    pca_transform,
)


def cyclic_jacobi_eigh(C):
    """Textbook cyclic Jacobi, one scalar rotation at a time over the upper
    triangle in row-major order: the oracle for ``jacobi_eigh``. Same sweep
    budget, tolerance, skips and messages; returns (eigenvalues, row
    eigenvectors) by descending eigenvalue, and the number of rotations
    that took the ``|theta| > 1e150`` branch."""
    A = np.array(C, dtype=np.float64, copy=True)
    n = A.shape[0]
    V = np.eye(n)
    tol = pca_mod.JACOBI_REL_TOL * float(np.linalg.norm(A))
    off_mask = ~np.eye(n, dtype=bool)

    def off_norm():
        return float(np.sqrt(np.sum(A[off_mask] ** 2)))

    huge = 0
    sweeps = 0
    while off_norm() > tol:
        if sweeps >= pca_mod.JACOBI_MAX_SWEEPS:
            raise NumericError(
                f"Jacobi eigensolver did not converge in "
                f"{pca_mod.JACOBI_MAX_SWEEPS} sweeps (off-diagonal norm "
                f"{off_norm():.3e}, tolerance {tol:.3e})"
            )
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[p, q]
                if apq == 0.0:
                    continue
                theta = (A[q, q] - A[p, p]) / (2.0 * apq)
                if abs(theta) > 1e150:
                    huge += 1
                    t = 1.0 / (2.0 * theta)
                else:
                    sign = 1.0 if theta >= 0.0 else -1.0
                    t = sign / (abs(theta) + np.sqrt(theta * theta + 1.0))
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                row_p, row_q = A[p, :].copy(), A[q, :].copy()
                A[p, :] = c * row_p - s * row_q
                A[q, :] = s * row_p + c * row_q
                col_p, col_q = A[:, p].copy(), A[:, q].copy()
                A[:, p] = c * col_p - s * col_q
                A[:, q] = s * col_p + c * col_q
                A[p, q] = A[q, p] = 0.0
                v_p, v_q = V[:, p].copy(), V[:, q].copy()
                V[:, p] = c * v_p - s * v_q
                V[:, q] = s * v_p + c * v_q
        sweeps += 1
    eigvals = np.diag(A).copy()
    order = np.argsort(-eigvals, kind="stable")
    return eigvals[order], V[:, order].T, huge


def batched_jacobi_eigh(C):
    """The round-robin solver as it was before its steps were planned once
    per call: each step indexes ``A`` by its pairs, fills fresh cos/sin
    vectors, and rotates ``A`` and ``V`` in separate column passes. The
    oracle that ``jacobi_eigh`` must match bit for bit."""
    A = np.array(C, dtype=np.float64, copy=True)
    n = A.shape[0]
    k = pca_mod._scale_exponent(A)
    A = np.ldexp(A, -k)
    V = np.eye(n)
    tol = pca_mod.JACOBI_REL_TOL * float(np.linalg.norm(A))
    off_mask = ~np.eye(n, dtype=bool)

    def off_norm():
        return float(np.sqrt(np.sum(A[off_mask] ** 2)))

    sweeps = 0
    while off_norm() > tol:
        assert sweeps < pca_mod.JACOBI_MAX_SWEEPS
        for P, Q, swap in _round_robin(n):
            apq = A[P, Q]
            if not apq.all():
                rotate = apq != 0.0
                P, Q, apq = P[rotate], Q[rotate], apq[rotate]
            theta = (A[Q, Q] - A[P, P]) / (2.0 * apq)
            huge = np.abs(theta) > 1e150
            tame = np.where(huge, 0.0, theta)
            t = np.where(theta >= 0.0, 1.0, -1.0) / (
                np.abs(tame) + np.sqrt(tame * tame + 1.0)
            )
            t[huge] = 1.0 / (2.0 * theta[huge])
            c = 1.0 / np.sqrt(t * t + 1.0)
            s = t * c
            cos = np.ones(n)
            sin = np.zeros(n)
            cos[P] = c
            cos[Q] = c
            sin[P] = -s
            sin[Q] = s
            rows = A[swap]
            rows *= sin[:, None]
            A *= cos[:, None]
            A += rows
            cols = A[:, swap]
            cols *= sin
            A *= cos
            A += cols
            A[P, Q] = 0.0
            A[Q, P] = 0.0
            cols = V[:, swap]
            cols *= sin
            V *= cos
            V += cols
        sweeps += 1
    eigvals = pca_mod._unscale(np.diag(A), k, "an eigenvalue")
    order = np.argsort(-eigvals, kind="stable")
    return eigvals[order], V[:, order].T


def _random_symmetric(n, seed):
    A = np.random.default_rng(seed).normal(size=(n, n))
    return (A + A.T) / 2.0


def _assert_same_eigensystem(got, ref, atol=1e-12):
    """Eigenvalues within ``atol``; each eigenvector's overlap with its
    reference (up to sign) at least 1 - atol."""
    ev, vec = got
    ref_ev, ref_vec = ref
    np.testing.assert_allclose(ev, ref_ev, rtol=0.0, atol=atol)
    overlaps = np.abs(np.sum(vec * ref_vec, axis=1))
    assert np.all(overlaps >= 1.0 - atol), overlaps.min()


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
        monkeypatch.setattr(pca_mod, "JACOBI_MAX_SWEEPS", 0)
        C = np.array([[2.0, 1.0], [1.0, 2.0]])
        with pytest.raises(NumericError, match="did not converge"):
            jacobi_eigh(C)

    @pytest.mark.parametrize(
        "C",
        [
            [[np.inf, 1.0], [1.0, 1.0]],
            [[1.0, -np.inf], [-np.inf, 1.0]],
            [[np.nan, 1.0], [1.0, 1.0]],
            np.full((3, 3), np.nan),
        ],
        ids=["inf-diagonal", "inf-pair", "nan-diagonal", "all-nan"],
    )
    def test_non_finite_rejected(self, C):
        with pytest.raises(InputValidationError, match="matrix must be finite"):
            jacobi_eigh(np.array(C))


class TestRoundRobinJacobi:
    """The round-robin solver against the cyclic scalar oracle above and
    ``numpy.linalg.eigh``."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 15, 16, 64])
    def test_schedule_meets_every_pair_once(self, n):
        steps = _round_robin(n)
        assert len(steps) == n - 1 + n % 2
        met = []
        for P, Q, swap in steps:
            assert len(P) == n // 2 or (n == 1 and len(P) == 0)
            assert np.all(P < Q)
            assert len(set(P) | set(Q)) == 2 * len(P)  # disjoint pairs
            expected = np.arange(n)
            expected[P], expected[Q] = Q, P
            np.testing.assert_array_equal(swap, expected)
            met += zip(P.tolist(), Q.tolist())
        assert sorted(met) == [(p, q) for p in range(n) for q in range(p + 1, n)]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 15, 16, 64])
    def test_matches_cyclic_oracle_and_eigh(self, n):
        C = _random_symmetric(n, seed=300 + n)
        got = jacobi_eigh(C)
        ev, vec, _ = cyclic_jacobi_eigh(C)
        _assert_same_eigensystem(got, (ev, vec))
        ref_ev, ref_vec = np.linalg.eigh(C)
        _assert_same_eigensystem(got, (ref_ev[::-1], ref_vec[:, ::-1].T))

    def test_block_diagonal_skips_zero_pairs(self):
        """Entries between the blocks are zero and stay zero: those pairs
        are skipped (a rotation of one would divide by zero), and every
        eigenvector lies inside one block."""
        C = np.zeros((7, 7))
        C[:3, :3] = _random_symmetric(3, seed=1)
        C[3:, 3:] = _random_symmetric(4, seed=2)
        got = jacobi_eigh(C)
        ev, vec, _ = cyclic_jacobi_eigh(C)
        _assert_same_eigensystem(got, (ev, vec))
        for v in got[1]:
            assert np.all(v[:3] == 0.0) or np.all(v[3:] == 0.0), v

    def test_repeated_eigenvalues(self):
        """The identity plus a rank-1 term: eigenvalue 1 + |u|^2 along u,
        and 1 six times over the plane orthogonal to u."""
        u = np.random.default_rng(5).normal(size=7)
        C = np.eye(7) + np.outer(u, u)
        ev, vec = jacobi_eigh(C)
        ref_ev, _, _ = cyclic_jacobi_eigh(C)
        np.testing.assert_allclose(ev, ref_ev, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(
            ev, [1.0 + u @ u] + [1.0] * 6, rtol=0.0, atol=1e-12
        )
        assert abs(vec[0] @ u) / np.linalg.norm(u) >= 1.0 - 1e-12
        np.testing.assert_allclose(vec @ vec.T, np.eye(7), rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(vec @ C, ev[:, None] * vec, rtol=0.0, atol=1e-12)

    def test_huge_theta_branch(self):
        """A coupling of 1e-160 between diagonal entries 1 apart gives
        |theta| ~ 5e159, whose square would overflow. The 1/(2 theta)
        branch rotates the pair anyway, so the eigenvector of eigenvalue
        ~1 picks up its ~1e-160 components (first order: -2e-160 and
        1e-160); an unrotated pair would leave them 0."""
        C = np.array([[1.0, 1e-160, 0.0], [1e-160, 2.0, 1.0], [0.0, 1.0, 3.0]])
        ev_ref, vec_ref, huge = cyclic_jacobi_eigh(C)
        assert huge > 0
        with np.errstate(over="raise"):
            ev, vec = jacobi_eigh(C)
        _assert_same_eigensystem((ev, vec), (ev_ref, vec_ref))
        v = vec[int(np.argmin(np.abs(ev - 1.0)))]
        assert 1e-161 < abs(v[1]) < 1e-159 and 1e-161 < abs(v[2]) < 1e-159

    def test_zero_sweep_budget_gives_the_oracles_message(self, monkeypatch):
        monkeypatch.setattr(pca_mod, "JACOBI_MAX_SWEEPS", 0)
        C = _random_symmetric(5, seed=9)
        with pytest.raises(NumericError) as ours:
            jacobi_eigh(C)
        with pytest.raises(NumericError) as oracle:
            cyclic_jacobi_eigh(C)
        assert str(ours.value) == str(oracle.value)
        assert str(ours.value).startswith(
            "Jacobi eigensolver did not converge in 0 sweeps"
        )


def _fixture_gram():
    """The 15 x 15 centred Gram matrix that ``fit_pca`` diagonalizes for
    the projected training fixture at dimension 768."""
    from pdial.embedding import EmbeddingBackendConfig, embed_batch
    from pdial.metric import train
    from pdial.persistence import load_dataset, load_matrix

    from conftest import FIXTURE_TRAIN_CFG, FIXTURES

    docs = load_dataset(FIXTURES / "train.jsonl")
    E = embed_batch(
        [d.text for d in docs], EmbeddingBackendConfig(kind="hashed", dimension=768)
    )
    model, _ = train(docs, load_matrix(FIXTURES / "matrix.json"), E, FIXTURE_TRAIN_CFG)
    X = np.array([model.project(e) for e in E])
    X = np.ldexp(X, -pca_mod._scale_exponent(X))
    centered = X - X.mean(axis=0)
    gram = (centered @ centered.T) / (len(X) - 1)
    return (gram + gram.T) / 2.0


def _matrices():
    """(name, matrix) cases for the bit-for-bit comparison with the
    oracle: every size 1..24 dense, integer-valued, sparse,
    block-diagonal, with -0.0 off the diagonal, and at 1e-200 and 1e200."""
    rng = np.random.default_rng(77)
    for n in range(1, 25):
        yield f"dense-{n}", _random_symmetric(n, seed=700 + n)
        ints = rng.integers(-3, 4, size=(n, n)).astype(float)
        yield f"integer-{n}", ints + ints.T
        sparse = ints * (rng.random((n, n)) < 0.2)
        yield f"sparse-{n}", sparse + sparse.T
        b = max(1, n // 2)
        block = np.zeros((n, n))
        block[:b, :b] = np.eye(b) + 1.0
        block[b:, b:] = _random_symmetric(n - b, seed=800 + n)
        yield f"block-{n}", block
        signed = np.full((n, n), -0.0)
        signed[np.diag_indices(n)] = np.arange(n, dtype=float)
        signed[0, n - 1] = signed[n - 1, 0] = 1.0
        yield f"signed-zeros-{n}", signed
        for scale in (1e-200, 1e200):
            yield f"scale-{scale:g}-{n}", _random_symmetric(n, seed=900 + n) * scale


class TestPlannedJacobiMatchesTheBatchedOracle:
    """``jacobi_eigh`` plans each step once and rotates ``A`` and ``V`` in
    one column pass; every element still gets the same IEEE operations in
    the same order as in ``batched_jacobi_eigh``, so the results are
    equal byte for byte, signed zeros included."""

    @staticmethod
    def _assert_bits(C):
        ev, vec = jacobi_eigh(C)
        ref_ev, ref_vec = batched_jacobi_eigh(C)
        assert ev.tobytes() == ref_ev.tobytes()
        assert vec.tobytes() == ref_vec.tobytes()
        assert vec.shape == ref_vec.shape and vec.strides == ref_vec.strides

    @pytest.mark.parametrize(
        "C", [c for _, c in _matrices()], ids=[name for name, _ in _matrices()]
    )
    def test_bit_identical(self, C):
        self._assert_bits(C)

    def test_block_diagonal_has_steps_with_no_nonzero_pair(self):
        """Some steps of this matrix meet only zero pairs, and the solver
        still runs them as the oracle does."""
        C = np.kron(np.eye(4), [[2.0, 1.0], [1.0, 3.0]])
        assert any(not C[P, Q].any() for P, Q, _ in _round_robin(8))
        self._assert_bits(C)

    @pytest.mark.parametrize("coupling", [1e-160, 1e-200])
    def test_huge_theta_branch_is_taken(self, coupling):
        C = np.array([[1.0, coupling, 0.0], [coupling, 2.0, 1.0], [0.0, 1.0, 3.0]])
        assert cyclic_jacobi_eigh(C)[2] > 0
        with np.errstate(over="raise"):
            self._assert_bits(C)

    def test_a_step_of_zero_pairs_still_runs(self):
        """A step whose pairs are all zero keeps cos 1 and sin 0 under its
        full swap, and adding the 0 * entry terms turns the -0.0 on this
        diagonal into +0.0: a solver that skipped such a step would return
        the eigenvalue -0.0."""
        C = np.array([[-0.0, 0.0, 3.0], [0.0, -0.0, -0.0], [3.0, -0.0, -0.0]])
        ev, _ = jacobi_eigh(C)
        assert ev[1] == 0.0 and not np.signbit(ev[1])
        self._assert_bits(C)

    def test_fixture_gram_matrix(self):
        self._assert_bits(_fixture_gram())


class TestExtremeScales:
    """Entries far from 1: the solver and the fit run on their input
    scaled by a power of two, which keeps every bit of ordinary results."""

    @pytest.mark.parametrize("scale", [1e-200, 1.0, 1e200])
    @pytest.mark.parametrize("n", [2, 5, 16])
    def test_jacobi_matches_eigh_at_scale(self, n, scale):
        C = _random_symmetric(n, seed=400 + n) * scale
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            ev, vec = jacobi_eigh(C)
        ref_ev, ref_vec = np.linalg.eigh(C)
        top = np.max(np.abs(ref_ev))
        _assert_same_eigensystem(
            (ev / top, vec), (ref_ev[::-1] / top, ref_vec[:, ::-1].T)
        )

    def test_huge_entries_give_their_eigenvalues(self):
        # the Frobenius norm of this matrix is beyond float64
        ev, _ = jacobi_eigh(np.array([[1e200, 1e200], [1e200, 1.0]]))
        golden = (1.0 + np.sqrt(5.0)) / 2.0
        np.testing.assert_allclose(
            ev, [golden * 1e200, (1.0 - golden) * 1e200], rtol=1e-12
        )

    @pytest.mark.parametrize("k", [-900, -600, 600, 900])
    def test_power_of_two_scaling_keeps_every_bit(self, k):
        C = _random_symmetric(7, seed=11)
        ev, vec = jacobi_eigh(C)
        ev_k, vec_k = jacobi_eigh(np.ldexp(C, k))
        np.testing.assert_array_equal(ev_k, np.ldexp(ev, k))
        np.testing.assert_array_equal(vec_k, vec)

    def test_eigenvalue_beyond_float64_is_rejected(self):
        with pytest.raises(
            InputValidationError, match="an eigenvalue is beyond the float64 range"
        ):
            jacobi_eigh(np.full((2, 2), 1e308))

    def test_fit_whose_sums_overflow_keeps_every_bit(self):
        """100 points at ~1e154: every sum of squares overflows float64,
        but the variances (sum / 99) do not."""
        X = np.random.default_rng(12).normal(size=(100, 3)) * 1e154
        model = fit_pca(list(X))
        ref = fit_pca(list(np.ldexp(X, -520)))
        np.testing.assert_array_equal(model.mean, np.ldexp(ref.mean, 520))
        np.testing.assert_array_equal(model.components, ref.components)
        np.testing.assert_array_equal(
            model.explained_variance, np.ldexp(ref.explained_variance, 1040)
        )
        ref_ev = np.linalg.eigh(np.cov(X.T / 1e154))[0][::-1][:2] * 1e308
        np.testing.assert_allclose(model.explained_variance, ref_ev, rtol=1e-12)

    def test_variance_beyond_float64_is_rejected(self):
        points = [np.zeros(3), np.ones(3), np.array([1e200, 0.0, 0.0])]
        with pytest.raises(
            InputValidationError,
            match="the points' variance is beyond the float64 range",
        ):
            fit_pca(points)


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

    def test_sign_convention_matches_the_per_row_loop(self):
        from pdial.pca import _apply_sign_convention

        def per_row(components):
            fixed = components.copy()
            for i in range(fixed.shape[0]):
                j = int(np.argmax(np.abs(fixed[i])))
                if fixed[i, j] < 0.0:
                    fixed[i] = -fixed[i]
            return fixed

        rng = np.random.default_rng(9)
        ties = np.array([
            [0.5, -0.5, 0.0], [-0.5, 0.5, -0.0], [-0.0, 0.0, -0.0], [0.0, -0.0, 0.0],
        ])
        for C in (ties, rng.normal(size=(2, 7)), rng.normal(size=(6, 3))):
            got = _apply_sign_convention(C)
            assert got.tobytes() == per_row(C).tobytes()
            assert got is not C

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

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_point_rejected(self, bad):
        points = [np.zeros(3), np.ones(3), np.array([1.0, bad, 2.0])]
        with pytest.raises(InputValidationError, match="points must be finite"):
            fit_pca(points)

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

    # The tolerance of np.allclose(gram, eye, atol=1e-8): 1e-8 + 1e-5 on
    # the diagonal, 1e-8 off it. Each case sits 1% inside or outside.
    @pytest.mark.parametrize("diagonal, off", [
        (1.0 + 0.99 * 1.001e-5, 0.0),
        (1.0 + 1.01 * 1.001e-5, 0.0),
        (1.0 - 0.99 * 1.001e-5, 0.0),
        (1.0 - 1.01 * 1.001e-5, 0.0),
        (1.0, 0.99e-8),
        (1.0, 1.01e-8),
        (1.0, -0.99e-8),
        (1.0, -1.01e-8),
    ], ids=["diagonal-over-inside", "diagonal-over-outside",
            "diagonal-under-inside", "diagonal-under-outside",
            "off-inside", "off-outside", "off-negative-inside",
            "off-negative-outside"])
    def test_orthonormality_tolerance_is_that_of_allclose(self, diagonal, off):
        # gram[0, 0] is ``diagonal``, gram[0, 1] is ``off``, up to rounding
        components = np.array([
            [np.sqrt(diagonal), 0.0, 0.0],
            [off / np.sqrt(diagonal), np.sqrt(1.0 - off**2), 0.0],
        ])
        gram = components @ components.T
        inside = abs(diagonal - 1.0) < 1.001e-5 and abs(off) < 1e-8
        assert np.allclose(gram, np.eye(2), atol=1e-8) == inside
        arrays = dict(mean=np.zeros(3), components=components,
                      explained_variance=np.array([1.0, 0.5]))
        if inside:
            PcaModel(**arrays)
        else:
            with pytest.raises(InputValidationError, match="must be orthonormal"):
                PcaModel(**arrays)

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_gram_beyond_the_float64_range_is_rejected(self, scale):
        # the products of 1e200 overflow (to inf, or NaN where infs of both
        # signs meet), and those of 1e-200 underflow to 0
        components = np.array([[1.0, 1.0, 0.0], [1.0, -1.0, 0.0]]) * scale
        with pytest.raises(InputValidationError, match="must be orthonormal"):
            PcaModel(mean=np.zeros(3), components=components,
                     explained_variance=np.array([1.0, 0.5]))

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

    @pytest.mark.parametrize("field", ["mean", "components", "explained_variance"])
    def test_non_finite_entry_rejected(self, field):
        arrays = {
            "mean": np.zeros(3),
            "components": np.eye(3)[:2],
            "explained_variance": np.array([1.0, 0.5]),
        }
        arrays[field].flat[1] = np.nan
        with pytest.raises(InputValidationError, match=f"^{field} must be finite$"):
            PcaModel(**arrays)

    SIGN_RULE = (
        "the entry of largest absolute value in each component row must be "
        "positive"
    )

    # The exact tie: -0.6 and 0.6 keep equal magnitudes when normalized.
    @pytest.mark.parametrize("components", [
        [[-1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
        [[1.0, 0.0, 0.0], [0.0, 0.6, -0.8]],
        [[-0.6, 0.0, 0.6], [0.0, 1.0, 0.0]],
    ], ids=["mirrored-row-0", "mirrored-row-1", "tie-negative-first"])
    def test_mirrored_axis_rejected(self, components):
        comps = np.array(components)
        comps /= np.linalg.norm(comps, axis=1, keepdims=True)
        with pytest.raises(InputValidationError) as err:
            PcaModel(np.zeros(3), comps, [2.0, 1.0])
        assert str(err.value) == self.SIGN_RULE

    def test_tie_is_decided_by_the_first_entry(self):
        comps = np.array([[0.6, 0.0, -0.6], [0.0, 1.0, 0.0]])
        comps /= np.linalg.norm(comps, axis=1, keepdims=True)
        assert comps[0, 0] == -comps[0, 2]
        model = PcaModel(np.zeros(3), comps, [2.0, 1.0])
        assert np.array_equal(model.components, comps)

    def test_replace_that_mirrors_a_fitted_model_rejected(self):
        model = fit_pca(list(np.random.default_rng(0).normal(size=(20, 6))))
        with pytest.raises(InputValidationError) as err:
            dataclasses.replace(
                model, components=model.components * np.array([[1.0], [-1.0]])
            )
        assert str(err.value) == self.SIGN_RULE

    def test_sign_rule_is_checked_last(self):
        # a model that breaks several rules names the one checked first
        with pytest.raises(InputValidationError) as err:
            PcaModel(np.zeros(3), [[-1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], [1.0, 2.0])
        assert str(err.value) == (
            "explained variances must be non-negative and non-increasing"
        )

    def test_perspective_point_must_be_finite(self):
        with pytest.raises(InputValidationError):
            PerspectivePoint(x=float("nan"), y=0.0)


class TestPcaModelOwnsItsArrays:
    """A model keeps its arrays read-only, so no write after it is built
    can break its rules."""

    def test_a_write_through_the_callers_array_raises(self, tmp_path):
        from pdial.persistence import load_pca, save_pca

        c = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        model = PcaModel(np.zeros(3), c, [2.0, 1.0])
        with pytest.raises(ValueError, match="read-only"):
            c[0, 0] = -1.0
        save_pca(tmp_path / "pca.bin", model)
        assert load_pca(tmp_path / "pca.bin").components.tolist() == c.tolist()

    @pytest.mark.parametrize("field", ["mean", "components", "explained_variance"])
    def test_a_write_through_the_model_raises(self, field):
        model = fit_pca(list(np.random.default_rng(0).normal(size=(20, 6))))
        with pytest.raises(ValueError, match="read-only"):
            getattr(model, field)[0] *= -1.0

    def test_a_model_of_writable_views_keeps_its_values(self):
        buf = np.zeros(11)
        mean, comps, ev = buf[:3], buf[3:9].reshape(2, 3), buf[9:]
        comps[0, 0] = comps[1, 1] = 1.0
        ev[:] = [2.0, 1.0]
        model = PcaModel(mean, comps, ev)
        buf[:] = -1.0  # the caller's base stays writable
        assert model.mean.tolist() == [0.0] * 3
        assert model.components.tolist() == [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
        assert model.explained_variance.tolist() == [2.0, 1.0]

    def test_a_read_only_view_is_kept_without_a_copy(self):
        flat = np.frombuffer(np.eye(3)[:2].tobytes(), dtype=np.float64)
        comps = flat.reshape(2, 3)
        model = PcaModel(np.zeros(3), comps, [2.0, 1.0])
        assert np.shares_memory(model.components, flat)

    def test_a_read_only_view_of_a_writable_array_keeps_its_values(self):
        c = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        v = c.view()
        v.flags.writeable = False
        model = PcaModel(np.zeros(3), v, [2.0, 1.0])
        c[0, 0] = -1.0  # the caller's base stays writable
        assert model.components.tolist() == [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
        assert not np.shares_memory(model.components, c)

    def test_a_rejected_model_leaves_the_callers_arrays_writable(self):
        c = np.array([[-1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        with pytest.raises(InputValidationError):
            PcaModel(np.zeros(3), c, [2.0, 1.0])
        c[0, 0] = 1.0
        PcaModel(np.zeros(3), c, [2.0, 1.0])


def _jacobi_spy(monkeypatch):
    """Record the shape of every matrix fit_pca hands to jacobi_eigh."""
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


def _completion(axis):
    """The unit vector that completes ``axis`` to an orthonormal pair: the
    first e_j with axis_j**2 < 0.5, minus its projection on ``axis``,
    normalized, under the sign rule."""
    j = int(np.argmax(axis**2 < 0.5))
    row = np.eye(len(axis))[j] - axis[j] * axis
    return pca_mod._apply_sign_convention((row / np.linalg.norm(row))[None])[0]


def _assert_matches_the_full_solve(points, monkeypatch, completed):
    """Fit ``points`` and check the model against the fit whose top pairs
    come from the full ``jacobi_eigh`` solve: one 2 x 2 ``jacobi_eigh``
    call, the same mean bytes, the first variance and axis within 1e-12
    relative, and a second variance at most 1e-12 of the first. If
    ``completed``, the second axis is the unit-vector completion of the
    first, to 1e-15. Returns the model."""
    shapes = _jacobi_spy(monkeypatch)
    model = fit_pca(points)
    assert shapes == [(2, 2)]
    monkeypatch.setattr(pca_mod, "_top_eigh", _full_top)
    ref = fit_pca(points)
    assert model.mean.tobytes() == ref.mean.tobytes()
    ev, ref_ev = model.explained_variance, ref.explained_variance
    assert abs(ev[0] - ref_ev[0]) <= 1e-12 * ref_ev[0]
    assert np.linalg.norm(model.components[0] - ref.components[0]) <= 1e-12
    assert ev[1] <= 1e-12 * ev[0]
    if completed:
        second = _completion(model.components[0])
        np.testing.assert_allclose(model.components[1], second, rtol=0.0, atol=1e-15)
    return model


class TestGramRoute:
    """Fewer points than dimensions: the m x m Gram matrix is diagonalized."""

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_reference_on_wide_clouds(self, seed, monkeypatch):
        shapes = _jacobi_spy(monkeypatch)
        rng = np.random.default_rng(200 + seed)
        X = rng.normal(size=(12, 200)) * rng.uniform(0.3, 2.5, size=200)
        model = fit_pca(list(X))
        assert shapes in ([(2, 2)], [(12, 12)])
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
        assert shapes in ([(2, 2)], [(15, 15)])
        _assert_valid(model, 768)

    def test_identical_points_are_completed(self, monkeypatch):
        model = _assert_matches_the_full_solve(
            [np.arange(10.0)] * 5, monkeypatch, completed=True
        )
        _assert_valid(model, 10)
        np.testing.assert_array_equal(model.explained_variance, [0.0, 0.0])

    def test_collinear_points_are_completed(self, monkeypatch):
        rng = np.random.default_rng(3)
        direction = rng.normal(size=10)
        direction /= np.linalg.norm(direction)
        offset = rng.normal(size=10)
        points = [offset + t * direction for t in (-2.0, -0.5, 1.0, 3.0)]
        model = _assert_matches_the_full_solve(points, monkeypatch, completed=True)
        _assert_valid(model, 10)
        assert abs(np.dot(model.components[0], direction)) == pytest.approx(
            1.0, abs=1e-10
        )
        assert model.explained_variance[1] <= 1e-12

    # variance ratios ~7e-9, ~7e-11 and ~7e-13, all on the 6 x 6 Gram route
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
        exact = _exact_axes(t, basis)
        assert abs(np.dot(model.components[1], exact[1])) > 1.0 - 1e-12

    @pytest.mark.parametrize("m, d", [(6, 10), (15, 128), (40, 300)])
    @pytest.mark.parametrize("second_std", [1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8])
    def test_second_axis_of_an_exact_plane(self, m, d, second_std):
        # A d x d solve that stops at JACOBI_REL_TOL * ||C|| cannot find an
        # axis whose variance is below that tolerance; Xc^T v can.
        rng = np.random.default_rng(m * 1000 + d)
        basis = np.linalg.qr(rng.normal(size=(d, 2)))[0].T
        t = rng.normal(size=(m, 2)) * np.array([1.0, second_std])
        model = fit_pca(list(t @ basis))
        exact = _exact_axes(t, basis)
        for k in range(2):
            assert 1.0 - abs(np.dot(model.components[k], exact[k])) <= 1e-12

    @pytest.mark.parametrize("points", [
        pytest.param([np.arange(10.0)] * 5, id="identical-exact-mean"),
        pytest.param([np.full(768, 0.1)] * 3, id="identical-inexact-mean"),
    ])
    def test_identical_points_get_the_first_unit_vectors(self, points):
        model = fit_pca(points)
        d = len(points[0])
        np.testing.assert_array_equal(model.components, np.eye(2, d))

    @pytest.mark.parametrize("spread", [1e-2, 1e-6, 1e-12])
    def test_line_along_a_unit_vector_with_inexact_means(self, spread):
        # The second axis is rounding noise in the other coordinates, so
        # e_0 lies in the first axis's span up to ~1e-16 / spread; it must
        # not be taken as the second axis, or the rows are not orthonormal.
        rng = np.random.default_rng(5)
        base = rng.uniform(0.5, 1.0, size=10)
        points = [base + t * np.eye(10)[0] for t in rng.normal(size=6) * spread]
        model = fit_pca(points)
        C = model.components
        np.testing.assert_allclose(C @ C.T, np.eye(2), rtol=0.0, atol=1e-15)
        assert C[0, 0] > 1.0 - 1e-12
        assert C[1, 1] > 1.0 - 1e-12


def _exact_axes(t, basis):
    """The principal axes of the points ``t @ basis``, for orthonormal
    rows ``basis``, from the 2 x 2 covariance of their coordinates ``t``."""
    tc = t - t.mean(axis=0)
    return np.linalg.eigh(tc.T @ tc)[1][:, ::-1].T @ basis


def _clouds():
    rng = np.random.default_rng(21)
    direction = rng.normal(size=40)
    offset = rng.normal(size=40)
    basis = np.linalg.qr(rng.normal(size=(40, 2)))[0].T
    t = rng.normal(size=(6, 2)) * np.array([1.0, 1e-8])
    clouds = {
        "wide": list(rng.normal(size=(12, 200))),
        "tall": list(rng.normal(size=(30, 8))),
        "square": list(rng.normal(size=(9, 9))),
        "identical-exact-mean": [np.arange(40.0)] * 5,
        "identical-inexact-mean": [np.full(768, 0.1)] * 3,
        "identical-tall": [np.full(4, 0.1)] * 7,
        "collinear": [offset + s * direction for s in (-2.0, -0.5, 1.0, 3.0)],
        "collinear-tall": [offset[:3] + s * direction[:3] for s in range(-3, 5)],
        "two-equal-one-apart": [np.full(768, 0.1)] * 2 + [np.full(768, 0.2)],
        "tiny-second-variance": list(t @ basis),
    }
    for name, (m, d) in (("wide-clear-plane", (12, 200)),
                         ("tall-clear-plane", (30, 8))):
        plane = np.linalg.qr(rng.normal(size=(d, 2)))[0].T
        spread = rng.normal(size=(m, 2)) * [5.0, 3.0]
        clouds[name] = list(spread @ plane + 0.1 * rng.normal(size=(m, d)))
    return clouds


CLOUDS = _clouds()
# Identical and collinear points, whose second axis the subspace
# iteration completes from a unit vector.
COMPLETED = {"identical-exact-mean", "identical-inexact-mean", "identical-tall",
             "collinear", "collinear-tall", "two-equal-one-apart"}
# Every cloud but "wide" and "tall", whose spectra are too flat to settle
# within the budget: clouds with a clear top plane, and degenerate ones.
SETTLED = {"square", "wide-clear-plane", "tall-clear-plane",
           "tiny-second-variance", *COMPLETED}


class TestOneDecompositionPerFit:
    """Every fit makes one ``jacobi_eigh`` call: on the 2 x 2 Rayleigh-Ritz
    matrix when the subspace iteration settles the top plane, else, once
    its budget is spent, on the smaller of the m x m Gram matrix and the
    d x d covariance. No fit decomposes the larger side."""

    @pytest.mark.parametrize("name", sorted(CLOUDS))
    def test_one_jacobi_call_of_the_smaller_side(self, name, monkeypatch):
        points = CLOUDS[name]
        shapes = _jacobi_spy(monkeypatch)
        model = fit_pca(points)
        n = min(len(points), len(points[0]))
        assert shapes == [(2, 2) if name in SETTLED else (n, n)]
        _assert_valid(model, len(points[0]))


def _with_spectrum(values, seed):
    """A symmetric matrix with eigenvalues ``values`` and random orthonormal
    eigenvectors, returned as (matrix, eigenvector columns)."""
    n = len(values)
    V = np.linalg.qr(np.random.default_rng(seed).normal(size=(n, n)))[0]
    C = (V * values) @ V.T
    return (C + C.T) / 2.0, V


def _geometric(n, top, ratio):
    """``top`` followed by n - len(top) values falling from ``ratio`` times
    the last of ``top``."""
    tail = top[-1] * ratio * 0.9 ** np.arange(n - len(top))
    return np.concatenate([top, tail])


SPECTRA = {
    "n15-ratio-0.5": _geometric(15, [10.0, 8.0], 0.5),
    "n40-ratio-0.2": _geometric(40, [1.0, 0.5], 0.2),
    "n100-close-top-pair": _geometric(100, [3.0, 2.9], 0.3),
    "n8-double-top": _geometric(8, [2.0, 2.0], 0.6),
}


def _top_eigh_spy(monkeypatch):
    """Count the row sets _gram_schmidt orthonormalizes and record the
    shapes handed to jacobi_eigh. In _top_eigh those are the start block
    and one block per iteration, a block with a completed row included;
    a fit on fewer points than dimensions adds one call, its map back to
    d dimensions."""
    blocks = []
    real = pca_mod._gram_schmidt

    def spy(rows, floor):
        blocks.append(rows.shape)
        return real(rows, floor)

    monkeypatch.setattr(pca_mod, "_gram_schmidt", spy)
    return blocks, _jacobi_spy(monkeypatch)


def _full_top(C):
    values, vectors = jacobi_eigh(C)
    return values[:2], vectors[:2]


def _budget(n):
    """The iterations ``_top_eigh`` runs on an n x n matrix before it
    falls back."""
    return max(pca_mod.SUBSPACE_MAX_ITERATIONS, pca_mod.SUBSPACE_ITERATIONS_PER_ROW * n)


def _three_cluster_gram(per_cluster=60, dim=768):
    """The centred Gram matrix of the hashed embeddings of three clusters
    of texts: each text holds twelve of its cluster's 500 pseudo-words
    and three of 20 words that all clusters share."""
    rng = np.random.default_rng(2)

    def words(count):
        letters = rng.choice(list("bcdfghjklmnpqrstvwxz"), size=(count, 3))
        vowels = rng.choice(list("aeiou"), size=(count, 3))
        return ["".join(a + b for a, b in zip(*pair)) for pair in zip(letters, vowels)]

    shared = words(20)
    texts = []
    for _ in range(3):
        owned = words(500)
        for _ in range(per_cluster):
            texts.append(" ".join([*rng.choice(owned, size=12, replace=False),
                                   *rng.choice(shared, size=3, replace=False)]))
    X = np.array([hashed_embed(t, dim) for t in texts])
    Xc = X - X.mean(axis=0)
    G = Xc @ Xc.T / (len(X) - 1)
    return (G + G.T) / 2.0


def _gaussian_covariance(m=300, d=128):
    X = np.random.default_rng(101).normal(size=(m, d))
    Xc = X - X.mean(axis=0)
    C = Xc.T @ Xc / (m - 1)
    return (C + C.T) / 2.0


# Matrices whose residual decays slowly, each with a third eigenvalue
# close below the second: a clustered corpus's 180 x 180 Gram matrix
# (~310 iterations) and a Gaussian cloud's 128 x 128 covariance (~430).
SLOW = {"three-cluster-gram": _three_cluster_gram,
        "gaussian-covariance": _gaussian_covariance}


class TestTopEigh:
    """``_top_eigh`` against the full ``jacobi_eigh`` oracle."""

    @pytest.mark.parametrize("name", sorted(SPECTRA))
    def test_matches_the_full_decomposition(self, name, monkeypatch):
        spectrum = SPECTRA[name]
        C, V = _with_spectrum(spectrum, seed=len(spectrum))
        ref_values, _ = _full_top(C)
        blocks, shapes = _top_eigh_spy(monkeypatch)
        values, vectors = pca_mod._top_eigh(C)
        assert shapes == [(2, 2)]  # no fallback
        assert 3 <= len(blocks) < pca_mod.SUBSPACE_MAX_ITERATIONS
        np.testing.assert_allclose(values, ref_values, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(values, spectrum[:2], rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(vectors @ vectors.T, np.eye(2), atol=1e-15)
        # Davis-Kahan sin(theta): the plane of the returned vectors is
        # within ||C U - U diag(values)|| / (values[1] - lambda_3) of the
        # exact plane, up to the rounding of C's own eigenvectors.
        U = vectors.T
        residual = np.linalg.norm(C @ U - U * values, 2)
        bound = residual / (values[1] - spectrum[2])
        exact = V[:, :2]
        sin_theta = np.linalg.norm(U - exact @ (exact.T @ U), 2)
        assert bound < 1e-11
        assert sin_theta <= bound + 1e-14

    def test_unit_vectors_would_miss_the_top_eigenvalue(self):
        # e_0 and e_1 (the largest diagonal) span an invariant subspace
        # with Ritz values 1, 1; the top eigenvalue 1.8 lies outside it.
        C = np.zeros((4, 4))
        C[:2, :2] = np.eye(2)
        C[2:, 2:] = 0.9
        values, vectors = pca_mod._top_eigh(C)
        np.testing.assert_allclose(values, [1.8, 1.0], rtol=1e-12)
        assert abs(vectors[0] @ [0.0, 0.0, 1.0, 1.0]) == pytest.approx(
            np.sqrt(2.0), rel=1e-12
        )

    @pytest.mark.parametrize("name", sorted(SLOW))
    def test_slow_decay_settles_within_the_budget(self, name, monkeypatch):
        # Each needs more than SUBSPACE_MAX_ITERATIONS iterations to settle.
        C = SLOW[name]()
        ref_values, ref_vectors = jacobi_eigh(C)
        blocks, shapes = _top_eigh_spy(monkeypatch)
        values, vectors = pca_mod._top_eigh(C)
        assert shapes == [(2, 2)]  # no fallback
        assert pca_mod.SUBSPACE_MAX_ITERATIONS + 1 < len(blocks) <= _budget(len(C)) + 1
        np.testing.assert_allclose(values, ref_values[:2], rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(vectors @ vectors.T, np.eye(2), atol=1e-15)
        # Davis-Kahan, as in test_matches_the_full_decomposition, with the
        # third eigenvalue of the full solve; its own plane is off the
        # exact one by at most its own bound, so the two bounds add up.
        third = ref_values[2]
        exact = ref_vectors[:2].T
        U = vectors.T
        bound = np.linalg.norm(C @ U - U * values, 2) / (values[1] - third)
        ref_bound = np.linalg.norm(
            C @ exact - exact * ref_values[:2], 2
        ) / (ref_values[1] - third)
        sin_theta = np.linalg.norm(U - exact @ (exact.T @ U), 2)
        assert sin_theta <= bound + ref_bound

    def test_flat_spectrum_falls_back_after_a_few_iterations(self, monkeypatch):
        C, _ = _with_spectrum(1.0 - 0.01 * np.arange(15), seed=3)
        blocks, shapes = _top_eigh_spy(monkeypatch)
        values, vectors = pca_mod._top_eigh(C)
        assert shapes == [(15, 15)]
        # the start block, then one per iteration of the spent budget
        assert len(blocks) == _budget(15) + 1
        ref_values, ref_vectors = _full_top(C)
        assert values.tobytes() == ref_values.tobytes()
        assert vectors.tobytes() == ref_vectors.tobytes()

    def test_spent_budget_falls_back(self, monkeypatch):
        C, _ = _with_spectrum(SPECTRA["n15-ratio-0.5"], seed=15)
        monkeypatch.setattr(pca_mod, "SUBSPACE_MAX_ITERATIONS", 2)
        monkeypatch.setattr(pca_mod, "SUBSPACE_ITERATIONS_PER_ROW", 0)
        blocks, shapes = _top_eigh_spy(monkeypatch)
        values, _ = pca_mod._top_eigh(C)
        assert shapes == [(15, 15)]
        assert len(blocks) == 3
        assert values.tobytes() == _full_top(C)[0].tobytes()

    def test_zero_matrix_is_completed_from_the_first_unit_vectors(self, monkeypatch):
        blocks, shapes = _top_eigh_spy(monkeypatch)
        values, vectors = pca_mod._top_eigh(np.zeros((5, 5)))
        assert shapes == [(2, 2)]
        assert len(blocks) == 2  # the start block, then one completed block
        assert values.tobytes() == np.zeros(2).tobytes()
        assert vectors.tobytes() == np.eye(2, 5).tobytes()

    def test_rank_one_matrix_is_completed(self, monkeypatch):
        C = np.ones((5, 5))
        blocks, shapes = _top_eigh_spy(monkeypatch)
        values, vectors = pca_mod._top_eigh(C)
        assert shapes == [(2, 2)]
        assert len(blocks) == 3
        ref_values, ref_vectors = _full_top(C)
        assert abs(values[0] - ref_values[0]) <= 1e-12 * ref_values[0]
        assert abs(vectors[0] @ ref_vectors[0]) >= 1.0 - 1e-12
        assert values[1] <= 1e-12 * values[0]
        # _top_eigh leaves the signs to the model
        first, second = pca_mod._apply_sign_convention(vectors)
        np.testing.assert_allclose(second, _completion(first), rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("name", [
        "identical-exact-mean", "identical-inexact-mean", "identical-tall",
        "collinear", "collinear-tall", "two-equal-one-apart",
        "tiny-second-variance",
    ])
    def test_degenerate_clouds_keep_the_full_solve_bytes(self, name, monkeypatch):
        # The mean keeps the full solve's bytes; the axes and variances
        # match it to 1e-12, and the second axis of identical or collinear
        # points is the unit-vector completion of the first.
        _assert_matches_the_full_solve(
            CLOUDS[name], monkeypatch, completed=name in COMPLETED
        )

    @pytest.mark.parametrize("rel", [1e-6, 1e-7, 1e-8, 1e-9])
    @pytest.mark.parametrize("m, d", [
        pytest.param(6, 20, id="gram"),
        pytest.param(20, 6, id="covariance"),
    ])
    def test_near_degenerate_clouds_settle(self, m, d, rel, monkeypatch):
        # Collinear points plus noise of relative size ``rel``: the second
        # variance is at most ~1e-11 of the first, at or below the
        # residual tolerance, so a column may collapse and be completed.
        rng = np.random.default_rng(m * 1000 + d)
        direction = rng.normal(size=d)
        direction /= np.linalg.norm(direction)
        t = rng.normal(size=(m, 1))
        X = rng.normal(size=d) + t * direction + rel * rng.normal(size=(m, d))
        blocks, shapes = _top_eigh_spy(monkeypatch)
        model = fit_pca(list(X))
        assert shapes == [(2, 2)]
        # the start block, the iterations and, for m < d, the map back
        assert len(blocks) < _budget(min(m, d)) + 1
        top = np.linalg.eigvalsh(np.cov(X.T))[-1]
        assert abs(model.explained_variance[0] - top) <= 1e-12 * top
        _assert_valid(model, d)

    def test_start_block_is_splitmix64(self):
        # Integer arithmetic, so every numpy gives these bytes; the
        # reference is splitmix64 in Python integers.
        mask = 2**64 - 1
        state, want = 0, []
        for _ in range(2 * 7):
            state = (state + 0x9E3779B97F4A7C15) & mask
            z = state
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
            want.append(((z ^ (z >> 31)) >> 11) / 2.0**53 - 0.5)
        got = pca_mod._start_block(7)
        assert got.shape == (2, 7)
        assert got.ravel().tolist() == want
