"""Dense SPD linear solves and a box-constrained convex QP solver.

Every dual problem in this package has the same shape: minimize
``1/2 a'Qa + c'a`` over a box ``lower <= a <= upper`` where Q is symmetric
positive semidefinite (a linear-mode dual has rank d+1).  This module provides
the production solver (:func:`solve_box_qp`, projected gradient with exact
line search plus an active-set polish), the SPD solve used to form Q, recover
primal weights and polish the QP (:func:`solve_spd`, a ``numpy.linalg``
Cholesky factor and two triangular solves, never an explicit inverse), and a
brute-force grid oracle (:func:`box_qp_oracle`) used only by tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray


class NotPositiveDefinite(Exception):
    """Symmetric factorization hit a non-positive pivot."""


class DimensionTooLarge(Exception):
    """The exhaustive grid oracle only handles dimension <= 5."""


class MaxIterationsExceeded(Exception):
    """QP iteration budget exhausted before the KKT tolerance was met.

    Carries the best iterate found (``alpha``) and its ``kkt_residual`` so
    callers can decide whether the partial answer is usable.
    """

    def __init__(self, alpha: NDArray[np.float64], kkt_residual: float):
        super().__init__(
            f"box QP did not converge: kkt residual {kkt_residual:.3e}"
        )
        self.alpha = alpha
        self.kkt_residual = kkt_residual


@dataclass(frozen=True)
class BoxQp:
    """Minimize ``1/2 a'Qa + c'a`` subject to ``lower <= a <= upper``.

    ``q`` must be symmetric positive semidefinite; bounds may be degenerate
    (``lower == upper`` pins a coordinate).
    """

    q: NDArray[np.float64]
    c: NDArray[np.float64]
    lower: NDArray[np.float64]
    upper: NDArray[np.float64]

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        c = np.asarray(self.c, dtype=float).ravel()
        lower = np.asarray(self.lower, dtype=float).ravel()
        upper = np.asarray(self.upper, dtype=float).ravel()
        n = c.size
        if q.shape != (n, n):
            raise ValueError(f"Q has shape {q.shape}, expected ({n}, {n})")
        if lower.size != n or upper.size != n:
            raise ValueError("bound vectors must match the dimension of c")
        if np.any(lower > upper):
            raise ValueError("lower bound exceeds upper bound")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @property
    def dim(self) -> int:
        return self.c.size

    def objective(self, alpha: NDArray[np.float64]) -> float:
        alpha = np.asarray(alpha, dtype=float)
        return float(0.5 * alpha @ self.q @ alpha + self.c @ alpha)


@dataclass(frozen=True)
class QpSolution:
    """Solution of a :class:`BoxQp`.

    ``alpha`` satisfies the box bounds exactly (it is the output of a final
    projection); ``kkt_residual`` is the max-norm of ``alpha - P(alpha - g)``
    where P projects onto the box and g is the gradient.
    """

    alpha: NDArray[np.float64]
    objective: float
    iterations: int
    kkt_residual: float


def _validate_spd(m_matrix: NDArray[np.float64]) -> NDArray[np.float64]:
    m = np.asarray(m_matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    scale = float(np.max(np.abs(m))) if m.size else 0.0
    asym = float(np.max(np.abs(m - m.T))) if m.size else 0.0
    if asym > 1e-12 * max(1.0, scale):
        raise ValueError(f"matrix is not symmetric (max asymmetry {asym:.3e})")
    return m


def solve_spd(m_matrix: NDArray[np.float64], rhs: NDArray[np.float64]) -> NDArray[np.float64]:
    """Solve ``M X = rhs`` for symmetric positive definite M.

    ``numpy.linalg.cholesky`` factors M = LL', then two solves with the
    triangular factors give X; never an explicit inverse.  On the ridge
    systems ``J'J + p I`` training builds this keeps
    ``||M X - rhs||_inf <= 1e-9 * (1 + ||rhs||_inf)``; ``tests/test_qp.py``
    checks it on the package's own designs at ridges 2^-9, 1 and 2^9.

    Raises :class:`NotPositiveDefinite` when the factor or a solve fails.
    """
    m = _validate_spd(m_matrix)
    b = np.asarray(rhs, dtype=float)
    if b.shape[0] != m.shape[0]:
        raise ValueError(
            f"rhs has {b.shape[0]} rows, expected {m.shape[0]}"
        )
    try:
        factor = np.linalg.cholesky(m)
        return np.linalg.solve(factor.T, np.linalg.solve(factor, b))
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(str(exc)) from exc


def _kkt_residual(qp: BoxQp, alpha: NDArray[np.float64], grad: NDArray[np.float64]) -> float:
    projected = np.clip(alpha - grad, qp.lower, qp.upper)
    if alpha.size == 0:
        return 0.0
    return float(np.max(np.abs(alpha - projected)))


def solve_box_qp(
    problem: BoxQp,
    tol: float = 1e-8,
    max_iter: int | None = None,
) -> QpSolution:
    """Minimize a box-constrained PSD quadratic.

    Projected-gradient descent with exact line search along the free-set
    direction, interleaved with an active-set polish: once the gradient signs
    identify the clamped coordinates, the reduced system on the free set is
    solved exactly with :func:`solve_spd`.  On a singular face it raises
    :class:`NotPositiveDefinite` and the polish is skipped; a polished point
    is kept only when it lowers the objective.

    Deterministic for fixed inputs.  The returned iterate satisfies the box
    bounds exactly.  Raises :class:`MaxIterationsExceeded` (carrying the best
    iterate) if the KKT measure does not fall below ``tol`` in time.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    n = problem.dim
    if max_iter is None:
        max_iter = 50 * n + 1000
    if n == 0:
        return QpSolution(np.zeros(0), 0.0, 0, 0.0)

    q, c = problem.q, problem.c
    lower, upper = problem.lower, problem.upper
    pinned = lower == upper  # degenerate coordinates stay fixed throughout

    x = np.clip(np.zeros(n), lower, upper)
    fx = problem.objective(x)
    best_x, best_kkt = x, np.inf

    for iteration in range(1, max_iter + 1):
        grad = q @ x + c
        kkt = _kkt_residual(problem, x, grad)
        if kkt < best_kkt:
            best_x, best_kkt = x, kkt
        if kkt <= tol:
            return QpSolution(x, fx, iteration - 1, kkt)

        clamped = pinned | ((x <= lower) & (grad > 0)) | ((x >= upper) & (grad < 0))
        direction = np.where(clamped, 0.0, -grad)
        curvature = direction @ (q @ direction)
        if curvature > 0:
            step = (direction @ direction) / curvature
            candidate = np.clip(x + step * direction, lower, upper)
            f_candidate = problem.objective(candidate)
            # Projection can break the exact-line-search guarantee; halve the
            # step until the move is a strict descent.
            while f_candidate > fx and step > 1e-30:
                step *= 0.5
                candidate = np.clip(x + step * direction, lower, upper)
                f_candidate = problem.objective(candidate)
            if f_candidate <= fx:
                x, fx = candidate, f_candidate

        # Active-set polish: exact solve on the free coordinates.
        grad = q @ x + c
        clamped = pinned | ((x <= lower) & (grad > 0)) | ((x >= upper) & (grad < 0))
        free = ~clamped
        if free.any():
            rhs = -(c[free] + q[np.ix_(free, clamped)] @ x[clamped])
            try:
                x_free = solve_spd(q[np.ix_(free, free)], rhs)
            except NotPositiveDefinite:
                x_free = None
            if x_free is not None:
                candidate = x.copy()
                candidate[free] = x_free
                candidate = np.clip(candidate, lower, upper)
                f_candidate = problem.objective(candidate)
                if f_candidate < fx:
                    x, fx = candidate, f_candidate

    grad = q @ best_x + c
    raise MaxIterationsExceeded(best_x, _kkt_residual(problem, best_x, grad))


# Points per axis for the oracle grids, by dimension.  Chosen so a full
# product grid stays a few hundred thousand evaluations per pass.
_ORACLE_AXIS_POINTS = {1: 4097, 2: 257, 3: 49, 4: 21, 5: 13}


def _grid_best(qp: BoxQp, lo: NDArray, hi: NDArray, points: int):
    axes = [np.linspace(lo[j], hi[j], points) for j in range(qp.dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    vals = 0.5 * np.sum((pts @ qp.q) * pts, axis=1) + pts @ qp.c
    best = int(np.argmin(vals))
    return pts, vals, best


def box_qp_oracle(problem: BoxQp, grid_step: float = 1e-3) -> NDArray[np.float64]:
    """Exhaustive grid minimizer for small box QPs; test oracle only.

    Evaluates the objective on a full product grid over the box, then runs
    two refinement passes, each re-gridding the bounding box of every grid
    point whose value is within the provable optimality gap of the best
    (expanded by one spacing, so the true minimizer cannot escape the
    window).  Returns a feasible point whose objective is within
    ``O(grid_step**2)`` of optimal, with a constant proportional to the
    largest eigenvalue of Q.  Restricted to dimension <= 5.
    """
    n = problem.dim
    if n > 5:
        raise DimensionTooLarge(f"oracle supports dimension <= 5, got {n}")
    if n == 0:
        return np.zeros(0)
    if grid_step <= 0:
        raise ValueError("grid_step must be positive")

    lam_max = float(np.max(np.linalg.eigvalsh(problem.q)))
    lo = problem.lower.copy()
    hi = problem.upper.copy()
    best_point = None
    best_value = np.inf

    for _ in range(3):  # initial grid + two refinement passes
        width = float(np.max(hi - lo))
        points = _ORACLE_AXIS_POINTS[n]
        if width > 0:
            needed = int(np.ceil(width / grid_step)) + 1
            points = min(points, max(needed, 2))
        pts, vals, idx = _grid_best(problem, lo, hi, points)
        if vals[idx] < best_value:
            best_value = float(vals[idx])
            best_point = pts[idx].copy()
        spacing = width / (points - 1) if points > 1 else 0.0
        if spacing <= 0:
            break
        # Any grid point nearest the true minimizer is within this gap of the
        # best sampled value; keep them all and shrink to their bounding box.
        gap = 0.5 * lam_max * (0.5 * spacing * np.sqrt(n)) ** 2
        keep = pts[vals <= vals[idx] + gap]
        lo = np.maximum(problem.lower, keep.min(axis=0) - spacing)
        hi = np.minimum(problem.upper, keep.max(axis=0) + spacing)

    return best_point
