"""Principal-component reduction of perspective embeddings to 2-D.

The smaller of the centred Gram matrix (m x m, for m points) and the
covariance matrix (d x d) is diagonalized with cyclic Jacobi rotations
(upper triangle, row-major sweep order) so the decomposition is exact
for symmetric input, dependency-free, and easy to check against a
reference eigensolver. The top components define the user-facing 2-D
perspective space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputValidationError, NumericError

JACOBI_MAX_SWEEPS = 100
JACOBI_REL_TOL = 1e-12
# The perspective space is a plane: every fitted model has two axes.
PCA_AXES = 2
# The Gram route maps an eigenvector v back to the axis Xc^T v, whose
# length is sqrt((m-1) * eigenvalue). Below this fraction of the top
# eigenvalue that axis is rounding noise (rank < PCA_AXES), and the
# covariance route is used instead.
GRAM_MIN_EIGENVALUE = 1e-10


@dataclass(frozen=True)
class PerspectivePoint:
    x: float
    y: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.x) and np.isfinite(self.y)):
            raise InputValidationError(
                f"perspective point must be finite, got ({self.x}, {self.y})"
            )


@dataclass(frozen=True, eq=False)
class PcaModel:
    """Mean vector plus the two orthonormal principal axes (rows of
    components)."""

    mean: np.ndarray
    components: np.ndarray
    explained_variance: np.ndarray

    def __post_init__(self) -> None:
        mean = np.asarray(self.mean, dtype=np.float64)
        comps = np.asarray(self.components, dtype=np.float64)
        ev = np.asarray(self.explained_variance, dtype=np.float64)
        if comps.ndim != 2 or comps.shape[1] != mean.shape[0]:
            raise InputValidationError(
                f"components shape {comps.shape} does not match mean "
                f"length {mean.shape}"
            )
        if comps.shape[0] != PCA_AXES:
            raise InputValidationError(
                f"model has {comps.shape[0]} components, expected {PCA_AXES}"
            )
        if ev.shape != (comps.shape[0],):
            raise InputValidationError(
                "explained_variance length must match component count"
            )
        gram = comps @ comps.T
        if not np.allclose(gram, np.eye(comps.shape[0]), atol=1e-8):
            raise InputValidationError("component rows must be orthonormal")
        if np.any(ev < 0.0) or np.any(np.diff(ev) > 0.0):
            raise InputValidationError(
                "explained variances must be non-negative and non-increasing"
            )
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "explained_variance", ev)

    @property
    def dim(self) -> int:
        return int(self.mean.shape[0])


def jacobi_eigh(C: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full eigendecomposition of a symmetric matrix by cyclic Jacobi.

    Sweeps rotate away each upper-triangle entry in row-major order until
    the off-diagonal Frobenius norm drops below ``JACOBI_REL_TOL`` times
    the Frobenius norm of the input, or fail after ``JACOBI_MAX_SWEEPS``
    sweeps. Returns (eigenvalues, eigenvectors) sorted by descending
    eigenvalue, eigenvectors as rows.
    """
    A = np.array(C, dtype=np.float64, copy=True)
    n = A.shape[0]
    if A.shape != (n, n):
        raise InputValidationError(f"matrix must be square, got {A.shape}")
    if not np.allclose(A, A.T, rtol=0.0, atol=0.0):
        raise InputValidationError("matrix must be exactly symmetric")
    V = np.eye(n)
    frob = float(np.linalg.norm(A))
    tol = JACOBI_REL_TOL * frob
    off_mask = ~np.eye(n, dtype=bool)

    def off_norm() -> float:
        # Sum only true off-diagonal entries; subtracting the diagonal
        # mass from the full Frobenius norm loses everything below
        # sqrt(eps)*|A| to cancellation.
        return float(np.sqrt(np.sum(A[off_mask] ** 2)))

    converged = off_norm() <= tol
    sweeps = 0
    while not converged:
        if sweeps >= JACOBI_MAX_SWEEPS:
            raise NumericError(
                f"Jacobi eigensolver did not converge in {JACOBI_MAX_SWEEPS} sweeps "
                f"(off-diagonal norm {off_norm():.3e}, tolerance {tol:.3e})"
            )
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[p, q]
                if apq == 0.0:
                    continue
                theta = (A[q, q] - A[p, p]) / (2.0 * apq)
                if abs(theta) > 1e150:  # theta**2 would overflow
                    t = 1.0 / (2.0 * theta)
                else:
                    sign = 1.0 if theta >= 0.0 else -1.0
                    t = sign / (abs(theta) + np.sqrt(theta * theta + 1.0))
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                # rotate rows/columns p and q of A
                row_p = A[p, :].copy()
                row_q = A[q, :].copy()
                A[p, :] = c * row_p - s * row_q
                A[q, :] = s * row_p + c * row_q
                col_p = A[:, p].copy()
                col_q = A[:, q].copy()
                A[:, p] = c * col_p - s * col_q
                A[:, q] = s * col_p + c * col_q
                A[p, q] = 0.0
                A[q, p] = 0.0
                vcol_p = V[:, p].copy()
                vcol_q = V[:, q].copy()
                V[:, p] = c * vcol_p - s * vcol_q
                V[:, q] = s * vcol_p + c * vcol_q
        sweeps += 1
        converged = off_norm() <= tol

    eigvals = np.diag(A).copy()
    order = np.argsort(-eigvals, kind="stable")
    return eigvals[order], V[:, order].T


def _apply_sign_convention(components: np.ndarray) -> np.ndarray:
    fixed = components.copy()
    for i in range(fixed.shape[0]):
        j = int(np.argmax(np.abs(fixed[i])))
        if fixed[i, j] < 0.0:
            fixed[i] = -fixed[i]
    return fixed


def fit_pca(points: list[np.ndarray]) -> PcaModel:
    """Fit the 2-D PCA reduction on projected perspective embeddings.

    Uses the unbiased covariance (1/(m-1)) and the Jacobi solver; the
    largest-|entry| coordinate of each principal axis is made positive so
    fitted models are reproducible down to the byte.

    With fewer points than dimensions (m < d) the m x m centred Gram
    matrix ``Xc Xc^T / (m-1)`` is diagonalized instead of the d x d
    covariance: it has the same nonzero eigenvalues, and each top
    eigenvector v maps to the principal axis ``Xc^T v``. When the Gram
    matrix has fewer than two clearly positive eigenvalues the
    axes are not determined by the points, and the covariance is
    diagonalized as for m >= d.
    """
    if len(points) < 3:
        raise InputValidationError(
            f"PCA needs at least 3 points, got {len(points)}"
        )
    try:
        X = np.asarray(points, dtype=np.float64)
    except ValueError as exc:
        raise InputValidationError(
            f"points must all have the same dimension: {exc}"
        ) from exc
    if X.ndim != 2:
        raise InputValidationError("points must all have the same dimension")
    d = X.shape[1]
    if d < 2:
        raise InputValidationError(f"point dimension must be >= 2, got {d}")
    mean = X.mean(axis=0)
    centered = X - mean
    m = X.shape[0]
    if m < d:
        gram = (centered @ centered.T) / (m - 1)
        eigvals, eigvecs = jacobi_eigh((gram + gram.T) / 2.0)
        if eigvals[PCA_AXES - 1] > GRAM_MIN_EIGENVALUE * eigvals[0]:
            components = _orthonormal_rows(eigvecs[:PCA_AXES] @ centered)
            return _pca_model(mean, components, eigvals[:PCA_AXES])
    cov = (centered.T @ centered) / (m - 1)
    cov = (cov + cov.T) / 2.0  # force exact symmetry for the solver
    eigvals, eigvecs = jacobi_eigh(cov)
    return _pca_model(mean, eigvecs[:PCA_AXES], eigvals[:PCA_AXES])


def _orthonormal_rows(rows: np.ndarray) -> np.ndarray:
    """Gram-Schmidt on a few linearly independent rows, in order."""
    basis = np.zeros_like(rows)
    for k, row in enumerate(rows):
        r = row - basis[:k].T @ (basis[:k] @ row)
        basis[k] = r / np.linalg.norm(r)
    return basis


def _pca_model(
    mean: np.ndarray, components: np.ndarray, eigvals: np.ndarray
) -> PcaModel:
    return PcaModel(
        mean=mean,
        components=_apply_sign_convention(components),
        explained_variance=np.maximum(eigvals, 0.0),
    )


def pca_transform(model: PcaModel, p: np.ndarray) -> PerspectivePoint:
    """Coordinates of ``p`` in the fitted 2-D perspective space."""
    p = np.asarray(p, dtype=np.float64)
    if p.shape != (model.dim,):
        raise InputValidationError(
            f"point length {p.shape} does not match model dimension {model.dim}"
        )
    coords = model.components @ (p - model.mean)
    return PerspectivePoint(x=float(coords[0]), y=float(coords[1]))
