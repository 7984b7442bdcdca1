"""Dense SPD linear solves and a box-constrained convex QP solver.

Every dual problem in this package has the same shape: minimize
``1/2 a'Qa + c'a`` over a box ``lower <= a <= upper`` where Q is symmetric
positive semidefinite (a linear-mode dual has rank d+1).  Q may be a dense
array or a :class:`LowRankHessian`, the thin factor pair ``Q = left @ right``
that dual assembly produces: the solver only multiplies by Q, so a factored Q
costs O(mk) per product and the m x m matrix is never formed.  The symmetry
of a factored Q is the caller's contract; :class:`BoxQp` probes it once.

This module provides the box-QP solver (:func:`solve_box_qp`, projected
gradient with exact line search plus a conjugate-gradient polish on the free
face, which needs no factor and so works on singular faces: where the face is
flat along the CG direction it steps to the first bound that direction meets,
and a step that a bound cuts is also tried in full, projected onto the box,
so one polish can clamp many coordinates), the SPD solve
that dual assembly and primal recovery use (:func:`solve_spd`, a
``numpy.linalg`` Cholesky factor as the definiteness check, then one
``numpy.linalg.solve``, never an explicit inverse).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray


class NotPositiveDefinite(Exception):
    """Symmetric factorization hit a non-positive pivot."""


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


@dataclass(frozen=True, eq=False)
class LowRankHessian(np.lib.mixins.NDArrayOperatorsMixin):
    """The m x m matrix ``left @ right`` kept as its factors (m x k, k x m).

    ``q @ v`` costs O(mk) and returns an array; ``trace()`` is O(mk) too.
    ``np.asarray(q)`` forms the dense product, and any other numpy operator
    or ufunc acts on that dense matrix.  Symmetry is not checked here: it is
    a property of how the factors were made.
    """

    left: NDArray[np.float64]
    right: NDArray[np.float64]

    def __post_init__(self):
        left = np.asarray(self.left, dtype=float)
        right = np.asarray(self.right, dtype=float)
        if left.ndim != 2 or right.shape != left.shape[::-1]:
            raise ValueError(
                f"factors of shapes {left.shape} and {right.shape} do not "
                "form a square matrix"
            )
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.left.shape[0], self.left.shape[0])

    def trace(self) -> float:
        return float(np.einsum("ij,ji->", self.left, self.right))

    def __matmul__(self, other):
        return self.left @ (self.right @ other)

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.left @ self.right, dtype=dtype)


@dataclass(frozen=True)
class BoxQp:
    """Minimize ``1/2 a'Qa + c'a`` subject to ``lower <= a <= upper``.

    ``q`` must be symmetric positive semidefinite, given as a dense array or
    as a :class:`LowRankHessian`; bounds may be degenerate (``lower ==
    upper`` pins a coordinate) or infinite.  Construction raises
    ``ValueError`` when ``q`` (or either factor) or ``c`` is not finite, a
    bound is NaN, or ``q`` is not symmetric; definiteness is not checked.  A
    dense ``q`` must be symmetric to within ``1e-12 * max(1, max|q|)``.  A
    factored ``q`` is symmetric by the caller's contract, and is probed once
    in O(mk): for two fixed vectors u and v, ``|u'Qv - v'Qu|`` must stay
    within 1e-8 of the size either term could reach.
    """

    q: NDArray[np.float64]
    c: NDArray[np.float64]
    lower: NDArray[np.float64]
    upper: NDArray[np.float64]

    def __post_init__(self):
        factored = isinstance(self.q, LowRankHessian)
        q = self.q if factored else np.asarray(self.q, dtype=float)
        c = np.asarray(self.c, dtype=float).ravel()
        lower = np.asarray(self.lower, dtype=float).ravel()
        upper = np.asarray(self.upper, dtype=float).ravel()
        n = c.size
        if q.shape != (n, n):
            raise ValueError(f"Q has shape {q.shape}, expected ({n}, {n})")
        if lower.size != n or upper.size != n:
            raise ValueError("bound vectors must match the dimension of c")
        finite = [q.left, q.right, c] if factored else [q, c]
        if not all(np.isfinite(x).all() for x in finite):
            raise ValueError("Q and c must be finite")
        if np.isnan(lower).any() or np.isnan(upper).any():
            raise ValueError("bounds must not be NaN")
        if (lower > upper).any():
            raise ValueError("lower bound exceeds upper bound")
        if factored:
            _probe_symmetric(q)
        else:
            _validate_symmetric(q)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @property
    def dim(self) -> int:
        return self.c.size

    def objective(self, alpha: NDArray[np.float64]) -> float:
        alpha = np.asarray(alpha, dtype=float)
        return float(0.5 * alpha @ (self.q @ alpha) + self.c @ alpha)


@dataclass(frozen=True)
class QpSolution:
    """Solution of a :class:`BoxQp`.

    ``alpha`` satisfies the box bounds exactly (it is the output of a final
    projection); ``kkt_residual`` is the max-norm of ``alpha - P(alpha - g)``
    where P projects onto the box and g is the gradient.  ``iterations``
    counts projected-gradient steps, each followed by one polish;
    ``cg_steps`` counts the conjugate-gradient steps (one product ``q @ p``
    each) over all polishes, and ``polish_rejected`` the polishes that
    moved but none of whose candidate points (one, or two where a bound cut
    the last step) lowered the objective, so the iterate stayed put.
    """

    alpha: NDArray[np.float64]
    objective: float
    iterations: int
    kkt_residual: float
    cg_steps: int = 0
    polish_rejected: int = 0


def _validate_symmetric(m_matrix: NDArray[np.float64]) -> NDArray[np.float64]:
    m = np.asarray(m_matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    if m.size == 0:
        return m
    scale = max(float(m.max()), -float(m.min()))
    # M - M' is antisymmetric, so its largest entry is its largest magnitude.
    asym = float(np.max(m - m.T))
    if asym > 1e-12 * max(1.0, scale):
        raise ValueError(f"matrix is not symmetric (max asymmetry {asym:.3e})")
    return m


@functools.lru_cache(maxsize=8)
def _probe_pair(m: int) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """The fixed probe vectors of dimension m, built once and read-only."""
    steps = np.arange(1, m + 1)
    u, v = np.sin(1.7 * steps), np.cos(2.3 * steps)
    u.flags.writeable = v.flags.writeable = False
    return u, v


def _probe_symmetric(q: LowRankHessian) -> None:
    """Compare ``u'Qv`` with ``v'Qu`` for two fixed vectors, in O(mk)."""
    u, v = _probe_pair(q.shape[0])
    u_left, v_left = u @ q.left, v @ q.left
    right_u, right_v = q.right @ u, q.right @ v
    asym = abs(float(u_left @ right_v) - float(v_left @ right_u))
    # |a|.|b| bounds each term, and unlike the norms' squares it cannot
    # underflow while the terms themselves do not.
    scale = float(np.abs(u_left) @ np.abs(right_v) + np.abs(v_left) @ np.abs(right_u))
    if asym > 1e-8 * scale:
        raise ValueError(f"factored matrix is not symmetric (probe asymmetry {asym:.3e})")


def solve_spd(m_matrix: NDArray[np.float64], rhs: NDArray[np.float64]) -> NDArray[np.float64]:
    """Solve ``M X = rhs`` for symmetric positive definite M.

    ``numpy.linalg.cholesky`` checks that M is positive definite, then one
    ``numpy.linalg.solve`` (an LU solve) gives X; never an explicit inverse.
    numpy has no triangular solve, so solving with the Cholesky factors would
    factor each of them again.  On the ridge
    systems ``J'J + p I`` training builds this keeps
    ``||M X - rhs||_inf <= 1e-9 * (1 + ||rhs||_inf)``; ``tests/test_qp.py``
    checks it on the package's own designs at ridges 2^-9, 1 and 2^9.

    Raises :class:`NotPositiveDefinite` when the factor or a solve fails.
    """
    m = _validate_symmetric(m_matrix)
    b = np.asarray(rhs, dtype=float)
    if b.shape[0] != m.shape[0]:
        raise ValueError(
            f"rhs has {b.shape[0]} rows, expected {m.shape[0]}"
        )
    try:
        np.linalg.cholesky(m)
        return np.linalg.solve(m, b)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(str(exc)) from exc


def _kkt_residual(qp: BoxQp, alpha: NDArray[np.float64], grad: NDArray[np.float64]) -> float:
    gap = np.subtract(alpha, grad)
    np.minimum(np.maximum(gap, qp.lower, out=gap), qp.upper, out=gap)  # P(alpha - g)
    gap -= alpha
    return float(np.maximum.reduce(np.abs(gap, out=gap)))


def solve_box_qp(
    problem: BoxQp,
    tol: float = 1e-8,
    max_iter: int | None = None,
) -> QpSolution:
    """Minimize a box-constrained PSD quadratic.

    Projected-gradient descent with exact line search along the free-set
    direction, interleaved with a polish by conjugate gradients on the free
    face: once the gradient signs identify the clamped coordinates, CG
    minimizes over the free coordinates from the current iterate, one
    product ``q @ p`` per step with the clamped entries zeroed.  CG stops at
    a residual floor, after as many steps as there are free coordinates, or
    where a bound cuts its step.  A cut step ends the polish with two
    candidates, the point where p meets the bound and the full step
    projected onto the box (which can clamp many coordinates at once), and
    the lower of them is kept if it lowers the objective.  At flat
    curvature (``p'Qp <= 1e-14 trace(Q) p'p``: the face is singular along
    p) the objective falls linearly along p, so CG steps to the first bound
    p meets, and stops without moving only when p meets no finite bound; on
    a face of rank r it ends within r + 1 products.  Both moves follow the
    projected search of More and Toraldo (SIAM J. Optim. 1991), reduced to
    these two points.  No factorization is made, so a PSD Hessian of any
    rank is handled the same way.

    Deterministic for fixed inputs.  The returned iterate satisfies the box
    bounds exactly.  Raises :class:`MaxIterationsExceeded` (carrying the best
    iterate) if the KKT measure does not fall below ``tol`` in time.
    """
    if not 0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    n = problem.dim
    if max_iter is None:
        max_iter = 50 * n + 1000
    elif max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    if n == 0:
        return QpSolution(np.zeros(0), 0.0, 0, 0.0)

    q, c = problem.q, problem.c
    lower, upper = problem.lower, problem.upper
    maximum, minimum = np.maximum, np.minimum
    # trace(Q) >= ||Q||_2 for PSD Q, so round-off curvature falls below this
    flat_curvature = 1e-14 * float(q.trace())

    def project(x):  # onto the box, in place
        return minimum(maximum(x, lower, out=x), upper, out=x)

    def clamped_at(x, grad):
        # x is feasible, so it is clamped where it sits on the bound that -grad
        # points past (the upper one when grad is 0); pinned entries always are.
        return x == np.where(grad > 0, lower, upper)

    def evaluate(x):  # (x, gradient, objective): one product serves both
        qx = q @ x
        return x, qx + c, 0.5 * float(x @ qx) + float(c @ x)

    ratio = np.empty(n)

    def room_along(y, p):  # largest t with y + t p in the box
        bound = np.where(p > 0, upper, lower)
        bound -= y
        ratio.fill(math.inf)
        return float(minimum.reduce(np.divide(bound, p, out=ratio, where=p != 0)))

    x, grad, fx = evaluate(project(np.zeros(n)))
    best_x, best_kkt = x, np.inf
    cg_steps = polish_rejected = 0

    for iteration in range(1, max_iter + 1):
        kkt = _kkt_residual(problem, x, grad)
        if kkt < best_kkt:
            best_x, best_kkt = x, kkt
        if kkt <= tol:
            return QpSolution(x, fx, iteration - 1, kkt, cg_steps, polish_rejected)

        direction = -grad
        direction[clamped_at(x, grad)] = 0.0
        curvature = direction @ (q @ direction)
        if curvature > 0:
            step = (direction @ direction) / curvature
            candidate = evaluate(project(x + step * direction))
            # Projection can break the exact-line-search guarantee; halve the
            # step until the move is a strict descent.
            while candidate[2] > fx and step > 1e-30:
                step *= 0.5
                candidate = evaluate(project(x + step * direction))
            if candidate[2] <= fx:
                x, grad, fx = candidate

        # Polish: conjugate gradients on the free face, from x.
        clamped = clamped_at(x, grad)
        residual = -grad
        residual[clamped] = 0.0
        rr = float(residual @ residual)
        rr_floor = (1e-14 * max(1.0, float(maximum.reduce(np.abs(grad))))) ** 2
        y, p, ends = x, residual, []
        for _ in range(n - int(np.count_nonzero(clamped))):
            if rr <= rr_floor:
                break
            q_p = q @ p
            q_p[clamped] = 0.0
            cg_steps += 1
            p_curv = float(p @ q_p)
            # f falls linearly along p on a flat face: no minimizer before a bound
            step = rr / p_curv if p_curv > flat_curvature * float(p @ p) else math.inf
            room = room_along(y, p)
            if room < step:  # a bound cuts the step
                ends = [y + room * p]
                if step < math.inf:
                    ends.append(y + step * p)
                break
            if step == math.inf:
                break  # flat along p, and p meets no finite bound
            y = y + step * p
            ends = [y]
            residual = residual - step * q_p
            rr, rr_old = float(residual @ residual), rr
            p = residual + (rr / rr_old) * p
        if ends:
            lowered = False
            for end in ends:
                candidate = evaluate(project(end))
                if candidate[2] < fx:
                    (x, grad, fx), lowered = candidate, True
            polish_rejected += not lowered

    grad = q @ best_x + c
    raise MaxIterationsExceeded(best_x, _kkt_residual(problem, best_x, grad))
