"""Principal-component reduction of perspective embeddings to 2-D.

Each fit takes one path: it forms the smaller of the centred Gram
matrix (m x m, for m points) and the covariance matrix (d x d), and
needs the top two eigenpairs of that one symmetric matrix.
``_top_eigh`` finds them by block subspace iteration with a block of
two columns and a Rayleigh-Ritz step (Halko, Martinsson and Tropp, SIAM
Review 2011), at O(n^2) per iteration. One two-pass Gram-Schmidt
routine, ``_gram_schmidt``, orthonormalizes every block and maps the
Gram matrix's eigenvectors back to d dimensions, and it alone decides
what an axis the input does not determine is and what replaces it: the
first unit vector not yet spanned, on either side. Only when the
iteration spends a budget of iterations that grows with n without
settling the pair is the whole matrix diagonalized with Jacobi
rotations in the round-robin order of Brent and Luk, where each step
rotates n/2 disjoint pairs at once as one batched numpy update: exact
for symmetric input, dependency-free, and easy to check against a
reference eigensolver. The top components define the user-facing 2-D
perspective space. Non-finite input is rejected.

The solvers and the fit work on their input divided by a power of two
that brings its largest entry into [0.5, 1), and scale the results
back. Such a scaling is exact and commutes with every rounding, so
results keep every bit, while the norms and products of the largest
entries can neither overflow nor underflow, whatever the input's scale.
A result beyond the float64 range is an ``InputValidationError``.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .errors import (
    InputValidationError,
    NumericError,
    read_only_float64,
    require_array,
    require_finite,
)

JACOBI_MAX_SWEEPS = 100
JACOBI_REL_TOL = 1e-12
# The subspace iteration's budget is max(SUBSPACE_MAX_ITERATIONS,
# SUBSPACE_ITERATIONS_PER_ROW * n) for an n x n matrix. At every n
# measured (8 to 256), 8n iterations cost less than the full Jacobi
# solve they fall back to.
SUBSPACE_MAX_ITERATIONS = 100
SUBSPACE_ITERATIONS_PER_ROW = 8
# The perspective space is a plane: every fitted model has two axes.
PCA_AXES = 2


@dataclass(frozen=True)
class PerspectivePoint:
    x: float
    y: float

    def __post_init__(self) -> None:
        x = require_finite(self.x, InputValidationError, "perspective point x")
        y = require_finite(self.y, InputValidationError, "perspective point y")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)


def require_point(value: object, error: type[Exception], what: str) -> PerspectivePoint:
    """``value`` if it is a ``PerspectivePoint``, else ``error`` naming
    ``what``."""
    if not isinstance(value, PerspectivePoint):
        raise error(f"{what} must be a PerspectivePoint, got {type(value).__name__}")
    return value


@dataclass(frozen=True, eq=False)
class PcaModel:
    """Mean vector plus the two orthonormal principal axes (rows of
    components). The entry of largest absolute value in each axis (the
    first such entry, on a tie) is positive, the sign ``fit_pca`` gives
    it, so one fitted plane has one set of coordinates; a model with a
    mirrored axis is an InputValidationError, however it is built. The
    model keeps its arrays read-only (see ``read_only_float64``), so no
    later write can break these rules."""

    mean: np.ndarray
    components: np.ndarray
    explained_variance: np.ndarray

    def __post_init__(self) -> None:
        mean = require_array(self.mean, InputValidationError, "mean", (None,))
        comps = require_array(
            self.components, InputValidationError, "components", (PCA_AXES, len(mean))
        )
        ev = require_array(
            self.explained_variance, InputValidationError, "explained_variance",
            (PCA_AXES,),
        )
        with np.errstate(over="ignore", invalid="ignore"):
            # entries near 1e308 overflow to inf or NaN, which fail below
            gram = comps @ comps.T
        # np.allclose(gram, eye, atol=1e-8), without its machinery
        eye = np.eye(PCA_AXES)
        if not (np.abs(gram - eye) <= 1e-8 + 1e-5 * eye).all():
            raise InputValidationError("component rows must be orthonormal")
        if np.any(ev < 0.0) or np.any(np.diff(ev) > 0.0):
            raise InputValidationError(
                "explained variances must be non-negative and non-increasing"
            )
        if not np.array_equal(_apply_sign_convention(comps), comps):
            raise InputValidationError(
                "the entry of largest absolute value in each component row "
                "must be positive"
            )
        named = (("mean", mean), ("components", comps), ("explained_variance", ev))
        for name, a in named:
            object.__setattr__(self, name, read_only_float64(a))

    @property
    def dim(self) -> int:
        return int(self.mean.shape[0])


def jacobi_eigh(C: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full eigendecomposition of a symmetric matrix by round-robin Jacobi.

    Each sweep visits every off-diagonal pair once, in the round-robin
    order of Brent and Luk (1985): ``_round_robin`` splits the pairs
    into steps of disjoint pairs, and each step rotates all its pairs
    at once as one batched update of the rows and columns of ``A`` and
    the rows of the transposed eigenvectors ``V^T``. Pairs whose entry
    is already zero are not rotated. Sweeps run until the off-diagonal
    Frobenius norm drops below ``JACOBI_REL_TOL`` times the Frobenius
    norm of the input, or fail after ``JACOBI_MAX_SWEEPS`` sweeps. The
    sweeps run on the input scaled by ``2**-k`` (see the module
    docstring), and the eigenvalues are scaled back. Returns
    (eigenvalues, eigenvectors) sorted by descending eigenvalue,
    eigenvectors as rows.
    """
    C = require_array(C, InputValidationError, "matrix", (None, None))
    n = len(C)
    if C.shape != (n, n):
        raise InputValidationError(f"matrix has shape {C.shape}, expected ({n}, {n})")
    if not np.array_equal(C, C.T):
        raise InputValidationError("matrix must be exactly symmetric")
    k = _scale_exponent(C)
    A = np.ldexp(C, -k)
    Vt = np.eye(n)
    tol = JACOBI_REL_TOL * float(np.linalg.norm(A))
    off_mask = ~np.eye(n, dtype=bool)

    def off_norm() -> float:
        # Sum only true off-diagonal entries; subtracting the diagonal
        # mass from the full Frobenius norm loses everything below
        # sqrt(eps)*|A| to cancellation.
        return float(np.sqrt(np.sum(A[off_mask] ** 2)))

    sweeps = 0
    steps = _round_robin(n)
    # Entries of the scaled input cannot overflow in a rotation; only
    # theta can, for a tiny apq: to inf for a subnormal one, where t is 0.
    with np.errstate(over="ignore"):
        while off_norm() > tol:
            if sweeps >= JACOBI_MAX_SWEEPS:
                off, limit = np.ldexp([off_norm(), tol], k)
                raise NumericError(
                    f"Jacobi eigensolver did not converge in {JACOBI_MAX_SWEEPS} "
                    f"sweeps (off-diagonal norm {off:.3e}, tolerance {limit:.3e})"
                )
            for P, Q, swap in steps:
                apq = A[P, Q]
                if not apq.all():
                    rotate = apq != 0.0
                    P, Q, apq = P[rotate], Q[rotate], apq[rotate]
                theta = (A[Q, Q] - A[P, P]) / (2.0 * apq)
                huge = np.abs(theta) > 1e150  # theta**2 would overflow
                tame = np.where(huge, 0.0, theta)
                t = np.where(theta >= 0.0, 1.0, -1.0) / (
                    np.abs(tame) + np.sqrt(tame * tame + 1.0)
                )
                t[huge] = 1.0 / (2.0 * theta[huge])
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                # Row k becomes cos[k] * row k + sin[k] * row swap[k]: for
                # a rotated pair (p, q) that is c*row_p - s*row_q and
                # s*row_p + c*row_q; every other row keeps cos 1 and sin
                # 0, under the step's full swap. The columns of A follow,
                # and the rows of V^T as the rows of A.
                cos = np.ones(n)
                sin = np.zeros(n)
                cos[P] = cos[Q] = c
                sin[P], sin[Q] = -s, s
                for M in (A, Vt):
                    rows = M[swap]
                    rows *= sin[:, None]
                    M *= cos[:, None]
                    M += rows
                cols = A[:, swap]
                cols *= sin
                A *= cos
                A += cols
                A[P, Q] = A[Q, P] = 0.0
            sweeps += 1

    eigvals = _unscale(np.diag(A), k, "an eigenvalue")
    order = np.argsort(-eigvals, kind="stable")
    return eigvals[order], Vt[order]


def _scale_exponent(a: np.ndarray) -> int:
    """The k for which the largest |entry| of ``a / 2**k`` lies in
    [0.5, 1); 0 for an all-zero or empty array."""
    return int(np.frexp(np.max(np.abs(a), initial=0.0))[1])


def _unscale(values: np.ndarray, k: int, what: str) -> np.ndarray:
    """``values * 2**k``; an InputValidationError naming ``what`` if a
    value leaves the float64 range."""
    with np.errstate(over="ignore"):
        values = np.ldexp(values, k)
    if not np.isfinite(values).all():
        raise InputValidationError(f"{what} is beyond the float64 range")
    return values


def _round_robin(n: int) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """One sweep over the pairs of ``range(n)``, as steps of disjoint pairs.

    Step k is ``(P, Q, swap)``: its pairs are ``(P[i], Q[i])`` with
    ``P[i] < Q[i]``, and ``swap`` is the permutation that exchanges the
    two members of each pair. This is the round-robin tournament: player
    0 keeps its seat while the others move one seat per step, so every
    pair meets exactly once in n - 1 steps. For odd n a phantom player
    makes n even, and whoever meets it sits the step out (``swap`` maps
    it to itself).
    """
    m = n + n % 2
    seats = list(range(m))
    steps = []
    for _ in range(m - 1):
        pairs = [
            (min(a, b), max(a, b))
            for a, b in zip(seats[: m // 2], reversed(seats[m // 2:]))
            if max(a, b) < n
        ]
        P = np.array([p for p, _ in pairs], dtype=np.intp)
        Q = np.array([q for _, q in pairs], dtype=np.intp)
        swap = np.arange(n)
        swap[P] = Q
        swap[Q] = P
        steps.append((P, Q, swap))
        seats = [seats[0], seats[-1], *seats[1:-1]]
    return steps


def _top_eigh(C: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ``PCA_AXES`` largest eigenvalues of a symmetric positive
    semi-definite matrix (subspace iteration finds those of largest
    magnitude), in descending order, and their eigenvectors as rows.

    Block subspace iteration on ``A = C / 2**k`` (see the module
    docstring) with a block ``Q`` of ``PCA_AXES`` orthonormal columns,
    started from ``_start_block``. Each iteration computes ``Z = A Q``
    and ``H = Q^T Z``, and orthonormalizes ``Z`` by ``_gram_schmidt``
    into the next block. A column of ``Z`` that keeps at most the
    tolerance ``JACOBI_REL_TOL * ||A||_F`` after orthogonalization, as
    when ``C`` has fewer than two eigenvalues the tolerance resolves
    (identical or collinear points), is completed from a unit vector by
    ``_gram_schmidt``, and the iteration goes on with that block. Once the
    residual ``||Z - Q H||_F`` is at most that tolerance, ``jacobi_eigh``
    on the 2 x 2 ``H`` of the next block gives the eigenpairs
    (Rayleigh-Ritz): each Ritz value lies within the residual of an
    eigenvalue of ``A`` (Parlett, *The Symmetric Eigenvalue Problem*,
    ch. 11), a completed block's too. In exact arithmetic they are those
    of ``C``.

    Only when the budget of ``max(SUBSPACE_MAX_ITERATIONS,
    SUBSPACE_ITERATIONS_PER_ROW * n)`` iterations is spent (a top pair
    too close to the third eigenvalue to settle, as in a flat spectrum)
    does it fall back to ``jacobi_eigh`` on all of ``C``, and return its
    top pairs.
    """
    k = _scale_exponent(C)
    A = np.ldexp(C, -k)
    tol = JACOBI_REL_TOL * float(np.linalg.norm(A))
    n = len(A)
    Qt = _gram_schmidt(_start_block(n), 0.0)
    for _ in range(max(SUBSPACE_MAX_ITERATIONS, SUBSPACE_ITERATIONS_PER_ROW * n)):
        # Rows instead of columns: Z^T = Q^T A, as A is symmetric.
        Zt = Qt @ A
        next_Qt = _gram_schmidt(Zt, tol)
        H = Zt @ Qt.T
        if np.linalg.norm(Zt - H.T @ Qt) <= tol:
            # The next block is one power step on: its axes are closer by
            # the ratio of the third eigenvalue to the second.
            H = next_Qt @ A @ next_Qt.T
            values, vectors = jacobi_eigh((H + H.T) / 2.0)
            return _unscale(values, k, "an eigenvalue"), vectors @ next_Qt
        Qt = next_Qt
    values, vectors = jacobi_eigh(C)
    return values[:PCA_AXES], vectors[:PCA_AXES]


def _start_block(n: int) -> np.ndarray:
    """The subspace iteration's first block: ``PCA_AXES`` rows of length
    n, pseudo-random in [-1/2, 1/2).

    Entry ``(r, i)`` is output ``r * n + i`` of splitmix64 seeded with 0
    (Steele, Lea and Flood, 2014), in 53-bit fixed point. The block is
    dense, since unit vectors can span an invariant subspace that misses
    the top eigenvalue; pseudo-random, since a low-discrepancy sequence
    is nearly orthogonal to the piecewise-constant eigenvectors of
    clustered points in index order; and exact integer arithmetic, so
    that every numpy gives the same bytes (its ``Generator`` streams
    may change between versions).
    """
    z = np.arange(1, PCA_AXES * n + 1, dtype=np.uint64) * np.uint64(
        0x9E3779B97F4A7C15
    )
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return np.ldexp((z >> np.uint64(11)).astype(np.float64), -53).reshape(
        PCA_AXES, n
    ) - 0.5


def _gram_schmidt(rows: np.ndarray, floor: float) -> np.ndarray:
    """Gram-Schmidt with two passes on a few rows, in order, which leaves
    them orthonormal to working precision ("twice is enough": Giraud,
    Langou and Rozloznik, 2005).

    A row that keeps at most ``floor`` of its norm outside the span of
    the rows before it is one the caller's input does not determine. It
    is replaced by the residual of the first unit vector e_j not yet
    spanned, that is, the first that keeps more than half its squared
    length outside the span of the rows before it, so that one pass
    leaves it orthogonal to working precision. Only that one unit vector
    is built. The callers' rows are scaled (see the module docstring),
    so their squared norms neither overflow nor underflow above
    ``floor``.
    """
    basis = np.empty_like(rows)
    for k, row in enumerate(rows):
        for _ in range(2 if k else 0):
            row = row - (basis[:k] @ row) @ basis[:k]
        norm = math.sqrt(row @ row)
        if norm <= floor:
            j = int(np.argmax(np.sum(basis[:k] ** 2, axis=0) < 0.5))
            row = -basis[:k].T @ basis[:k, j]
            row[j] += 1.0
            norm = math.sqrt(row @ row)
        basis[k] = row / norm
    return basis


def _apply_sign_convention(components: np.ndarray) -> np.ndarray:
    """Negate each row whose first entry of largest |value| is negative."""
    j = np.argmax(np.abs(components), axis=1)[:, None]
    lead = np.take_along_axis(components, j, axis=1)
    return np.where(lead < 0.0, -components, components)


def fit_pca(points: list[np.ndarray]) -> PcaModel:
    """Fit the 2-D PCA reduction on projected perspective embeddings.

    One path for every shape: form the smaller of the m x m centred Gram
    matrix ``Xc Xc^T`` and the d x d covariance ``Xc^T Xc``, both over
    m - 1 (unbiased), make it exactly symmetric, and take its top two
    eigenpairs from one call of ``_top_eigh``: subspace iteration with a
    2 x 2 Rayleigh-Ritz step, or the full Jacobi solve when the iteration
    spends its budget (see there). The model is built by
    one ``_pca_model`` call, which makes the largest-|entry| coordinate
    of each principal axis positive so fitted models are reproducible
    down to the byte.

    With fewer points than dimensions (m < d) no d x d matrix is built:
    the Gram matrix has the same nonzero eigenvalues, and each top
    eigenvector v maps to the principal axis ``Xc^T v``, orthonormalized
    in order by ``_gram_schmidt``, the routine that orthonormalizes the
    subspace iteration's blocks. An axis the points do not determine
    (identical or collinear points) maps to a vector at the rounding
    level, at most ``m * d * eps`` long for the scaled points; it is
    completed with the first unit vector e_j not yet spanned, as the
    subspace iteration completes it on the covariance route. For
    identical points that gives e_0 and e_1.

    The points are scaled by ``2**-k`` before they are centred (see the
    module docstring), so neither the mean nor the products overflow;
    the mean and the variances are scaled back.
    """
    X = require_array(points, InputValidationError, "points", (None, None))
    m, d = X.shape
    if m < 3:
        raise InputValidationError(f"PCA needs at least 3 points, got {m}")
    if d < 2:
        raise InputValidationError(f"point dimension must be >= 2, got {d}")
    k = _scale_exponent(X)
    X = np.ldexp(X, -k)
    mean = X.mean(axis=0)
    centered = X - mean
    rows = centered if m < d else centered.T
    M = (rows @ rows.T) / (m - 1)
    eigvals, eigvecs = _top_eigh((M + M.T) / 2.0)  # exactly symmetric
    if m < d:
        # The scaled entries are below 1 in size, so the rounding left in
        # Xc^T v of an axis the points do not fix is below this floor.
        floor = m * d * np.finfo(np.float64).eps
        eigvecs = _gram_schmidt(eigvecs @ centered, floor)
    return _pca_model(mean, eigvecs, eigvals, k)


def _pca_model(
    mean: np.ndarray, components: np.ndarray, eigvals: np.ndarray, k: int
) -> PcaModel:
    """The model of points that were scaled by ``2**-k``: the mean scales
    back by ``2**k`` and the variances by ``4**k``."""
    return PcaModel(
        mean=np.ldexp(mean, k),
        components=_apply_sign_convention(components),
        explained_variance=_unscale(
            np.maximum(eigvals, 0.0), 2 * k, "the points' variance"
        ),
    )


def pca_transform(model: PcaModel, p: np.ndarray) -> PerspectivePoint:
    """Coordinates of ``p`` in the fitted 2-D perspective space."""
    p = require_array(p, InputValidationError, "point", (model.dim,))
    coords = model.components @ (p - model.mean)
    return PerspectivePoint(x=float(coords[0]), y=float(coords[1]))
