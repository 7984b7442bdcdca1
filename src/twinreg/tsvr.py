"""Twin support vector regression with one-sided epsilon-insensitive tubes.

The estimator fits two proximal functions ``h1(x) = w1'x + b1`` and
``h2(x) = w2'x + b2`` by solving one box-constrained dual QP each, recovers
the weights through regularized normal equations, and predicts with the
average ``h(x) = (h1(x) + h2(x)) / 2``.  The first QP penalizes points where
h1 rises more than eps1 above the targets, the second penalizes h2 falling
more than eps2 below them, so the pair brackets the data.  The two sides
differ only in c, the ridge, the bound and the sign of the multipliers'
pull on the targets, so ``train`` runs one solve-and-recover path for each.

Kernel mode replaces the raw inputs with a Gaussian kernel matrix
``K(x, z) = exp(-||x - z||^2 / tau^2)`` against the stored training basis.
``K(A, A)`` has a low numerical rank, so training never forms it: a pivoted
incomplete Cholesky factor ``K ~ L L'`` (m x p) is built from kernel rows
computed on demand, in O(m p^2) time and O(m p) memory.  The eigenpairs of
``L L'`` come from the p x p Gram ``L'L``; the r above ``lambda_max * m *
eps`` are kept, and every equation is solved with the m x (r+1) design
``[Q_r Lambda_r | 1]`` in place of ``[K | 1]``.  Both duals depend on the
design only through ``J J'``, which the two designs share up to round-off,
and the ridge term is invariant under ``Q_r``; so mapping the weights back
with ``w = Q_r w~`` gives the dense solution, with coefficients over the
basis as before.  A :class:`Design` holds that reduced matrix, ``Q_r`` and
L; it depends only on the inputs and the kernel, so callers that fit the
same inputs many times (the hierarchy's first pass across a grid search)
build it once.  A fit on a subset S of those inputs takes its design from the
kept rows of the factor, since ``K_SS ~ L_S L_S'`` (:func:`subset_design`).
The factor reproduces the kernel rows of its p pivots P exactly, so a model
over a basis S can be stored over P instead: ``K(x, S) w ~ K(x, P) beta``
with ``beta = L_P^-T (L_S' w)``, the Nystrom form (:func:`on_pivots`).
``train`` keeps the whole basis; the hierarchy stores its layers this way.

Each dual Hessian ``H = J (J'J + rho I)^-1 J'`` has rank at most r + 1, and
reaches the QP as its two thin factors, J and ``X = (J'J + rho I)^-1 J'``
(a :class:`~twinreg.qp.LowRankHessian`): every product with H costs O(m r)
and the m x m matrix is never formed.  H is symmetric by construction, up to
the round-off of the solve that makes X; :class:`~twinreg.qp.BoxQp` probes
that once per dual.

Prediction needs only the average of h1 and h2, so it evaluates one kernel
expansion ``K(x, basis) (w1 + w2)``, for at most ``BUDGET // len(basis)``
query rows at a time: its memory is O(``BUDGET``) beyond the result, whatever
the number of points, and no path builds the whole query x basis matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np
from numpy.typing import NDArray

from .qp import BoxQp, LowRankHessian, QpSolution, solve_box_qp, solve_spd


# Kernel entries one prediction block may hold: 2**16 float64 values (512 KiB).
BUDGET = 2**16


class DimensionMismatch(Exception):
    """Query point dimension does not match the trained model."""


class NonFiniteVariance(Exception):
    """The targets overflow a float: their squared norm in a twin regressor's
    fit, or their variance, which scales a hierarchy layer's loss weight."""


@dataclass(frozen=True)
class TrainingSet:
    """Crisp regression data: inputs ``a`` (m x d) and targets ``y`` (m,)."""

    a: NDArray[np.float64]
    y: NDArray[np.float64]

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.a, dtype=float))
        y = np.asarray(self.y, dtype=float).ravel()
        if a.shape[0] != y.size:
            raise ValueError(f"{a.shape[0]} input rows but {y.size} targets")
        if a.shape[0] < 1 or a.shape[1] < 1:
            raise ValueError("need at least one sample and one feature")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(y))):
            raise ValueError("training data contains non-finite values")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "y", y)

    @property
    def m(self) -> int:
        return self.a.shape[0]

    @property
    def d(self) -> int:
        return self.a.shape[1]

    def subset(self, indices: NDArray[np.intp]) -> "TrainingSet":
        return TrainingSet(self.a[indices], self.y[indices])


@dataclass(frozen=True)
class KernelSpec:
    """Feature map choice: ``linear`` or ``gaussian`` with length scale tau."""

    kind: str = "linear"
    tau: float | None = None

    def __post_init__(self):
        if self.kind not in ("linear", "gaussian"):
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if self.kind == "gaussian":
            if self.tau is None or not 0 < self.tau < math.inf:
                raise ValueError("gaussian kernel needs a finite tau > 0")


@dataclass(frozen=True)
class TsvrParams:
    """Hyperparameters: loss weights p1/p2, regularization p3/p4, tube widths.

    p1 bounds the multipliers of the down-function QP, p2 those of the
    up-function QP; p3/p4 are the ridge terms that make both duals strictly
    convex.  eps1/eps2 may be zero (the tube degenerates gracefully).  The
    defaults (p1 = p2 = 1, p3 = p4 = 0.1, eps1 = eps2 = 0, linear kernel) are
    written only here; the CLI and the config readers build on them.
    """

    p1: float = 1.0
    p2: float = 1.0
    p3: float = 0.1
    p4: float = 0.1
    eps1: float = 0.0
    eps2: float = 0.0
    kernel: KernelSpec = field(default_factory=KernelSpec)

    def __post_init__(self):
        for name in ("p1", "p2", "p3", "p4"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if not (0 <= self.eps1 < math.inf and 0 <= self.eps2 < math.inf):
            raise ValueError("tube widths must be non-negative and finite")


@dataclass(frozen=True)
class TsvrDiagnostics:
    """Dual vectors and residual norms kept for KKT checks and reporting."""

    alpha: NDArray[np.float64]
    gamma: NDArray[np.float64]
    xi_star_norm: float
    eta_star_norm: float
    dual_objective_down: float
    dual_objective_up: float
    qp_iterations_down: int
    qp_iterations_up: int


@dataclass(frozen=True)
class TsvrModel:
    """Fitted twin regressor.

    ``w1``/``w2`` have length d in linear mode and ``len(basis)``
    (coefficients over ``basis``) in kernel mode.  ``basis`` holds the m
    training inputs, or the pivots of their kernel factor for a model
    re-expressed by :func:`on_pivots`; the dual vectors in ``diagnostics``
    stay over the m training rows either way.  Immutable; safe to share
    across threads.
    """

    w1: NDArray[np.float64]
    b1: float
    w2: NDArray[np.float64]
    b2: float
    kernel: KernelSpec
    params: TsvrParams
    basis: NDArray[np.float64] | None
    input_dim: int
    diagnostics: TsvrDiagnostics

    def __post_init__(self):
        if (self.basis is None) == (self.kernel.kind == "gaussian"):
            raise ValueError("a model has a basis if and only if it is gaussian")
        if self.basis is not None and (
            self.basis.ndim != 2
            or len(self.basis) < 1
            or self.basis.shape[1] != self.input_dim
        ):
            raise ValueError(
                f"basis must have at least one row of {self.input_dim} columns"
            )
        width = self.input_dim if self.basis is None else len(self.basis)
        if self.w1.shape != (width,) or self.w2.shape != (width,):
            raise ValueError(f"weights do not have length {width}")
        alpha, gamma = self.diagnostics.alpha, self.diagnostics.gamma
        if alpha.ndim != 1 or alpha.shape != gamma.shape or alpha.size == 0:
            raise ValueError("alpha and gamma must be non-empty vectors of equal length")

    def support_vector_count(self) -> int:
        """Points whose down- or up-multiplier exceeds 1e-6 of its bound."""
        d = self.diagnostics
        active = (d.alpha > 1e-6 * self.params.p1) | (d.gamma > 1e-6 * self.params.p2)
        return int(np.count_nonzero(active))


def gaussian_kernel(x: NDArray, z: NDArray, tau: float) -> NDArray[np.float64]:
    """K_ij = exp(-||x_i - z_j||^2 / tau^2); 0 where the distance overflows."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    z = np.atleast_2d(np.asarray(z, dtype=float))
    if x.shape[1] != z.shape[1]:
        raise ValueError(f"inputs have {x.shape[1]} and {z.shape[1]} columns")
    # Squared distances summed per column in one m x n buffer, then scaled in
    # place: IEEE division is sign-symmetric, so this is exp(-d2 / tau^2).
    with np.errstate(over="ignore"):
        k = np.subtract.outer(x[:, 0], z[:, 0])
        k *= k
        for xc, zc in zip(x.T[1:], z.T[1:]):
            diff = np.subtract.outer(xc, zc)
            diff *= diff
            k += diff
    np.divide(k, -(tau * tau), out=k)
    return np.exp(k, out=k)


def build_design(ts: TrainingSet, kernel: KernelSpec) -> NDArray[np.float64]:
    """Design matrix with the bias column appended.

    Linear: ``[A | 1]`` (m x (d+1)).  Gaussian: ``[K(A, A) | 1]``
    (m x (m+1)).
    """
    ones = np.ones((ts.m, 1))
    if kernel.kind == "linear":
        return np.hstack([ts.a, ones])
    return np.hstack([gaussian_kernel(ts.a, ts.a, kernel.tau), ones])


@dataclass(frozen=True)
class Design:
    """The design ``train`` solves with, and the map back to model weights.

    ``matrix`` ends in the bias column.  In linear mode it is ``[A | 1]`` and
    the other arrays are None.  In kernel mode it is ``[Q_r Lambda_r | 1]``,
    the basis coefficients are ``to_basis @ w~`` with ``to_basis = Q_r``, and
    ``factor`` is the m x p pivoted Cholesky factor L with ``K ~ L L'`` that
    the eigenpairs came from.  ``pivot_points`` are the p inputs the factor
    pivoted on and ``pivot_factor`` is L_P, the factor's p x p rows at those
    pivots; a subset's design keeps both from the design it came from.
    ``rank`` is the number of weight columns: d, or the r kept eigenpairs.
    """

    matrix: NDArray[np.float64]
    to_basis: NDArray[np.float64] | None
    kernel: KernelSpec
    factor: NDArray[np.float64] | None = None
    pivot_points: NDArray[np.float64] | None = None
    pivot_factor: NDArray[np.float64] | None = None

    @property
    def rank(self) -> int:
        return self.matrix.shape[1] - 1


def _pivoted_cholesky(
    a: NDArray[np.float64], tau: float
) -> tuple[NDArray[np.float64], NDArray[np.intp]]:
    """Factor L (m x p) with ``K(a, a) ~ L L'``, never forming K, and the
    indices of its p pivots in the order they were taken.

    Each step takes the point with the largest residual diagonal as pivot,
    computes its kernel row and subtracts the earlier columns' share of it;
    it stops once no residual diagonal exceeds ``m * eps`` (K's diagonal is
    1).  The rows live in a buffer that doubles as the rank grows, so memory
    is O(m p); the factor is copied out of it.  It reproduces the pivots'
    kernel rows up to round-off, ``K(a_P, a) = L_P L'``.
    """
    m = a.shape[0]
    residual = np.ones(m)
    rows = np.empty((min(m, 32), m))
    tol = m * np.finfo(float).eps
    pivots = []
    p = 0
    while p < m:
        pivot = int(np.argmax(residual))
        if residual[pivot] <= tol:
            break
        pivots.append(pivot)
        if p == rows.shape[0]:
            rows = np.concatenate([rows, np.empty((min(p, m - p), m))])
        row = gaussian_kernel(a[pivot : pivot + 1], a, tau)[0]
        row -= rows[:p, pivot] @ rows[:p]
        row /= math.sqrt(residual[pivot])
        rows[p] = row
        residual -= row * row
        p += 1
    return rows[:p].T.copy(), np.array(pivots, dtype=np.intp)


def _factor_design(
    factor: NDArray[np.float64],
    kernel: KernelSpec,
    pivot_points: NDArray[np.float64],
    pivot_factor: NDArray[np.float64],
) -> Design:
    """The reduced design of ``K ~ F F'`` for an m x p factor F.

    The eigenpairs of ``F F'`` come from the smaller of its two Grams.  For a
    tall F, ``F'F = V Lambda V'`` gives ``Q = F V Lambda^-1/2``, and one
    Cholesky QR pass, largest eigenvalue first, restores the orthonormality
    that Q loses on small eigenvalues without tilting the accurate columns.
    Eigenpairs at or below ``lambda_max * m * eps`` are dropped.  The pivots
    are passed through to the design.
    """
    m, p = factor.shape
    tall = m > p
    lam, q = np.linalg.eigh(factor.T @ factor if tall else factor @ factor.T)
    keep = lam > lam[-1] * m * np.finfo(float).eps
    lam, q = lam[keep][::-1], q[:, keep][:, ::-1]
    if tall:
        q = factor @ (q / np.sqrt(lam))
        q = np.linalg.solve(np.linalg.cholesky(q.T @ q), q.T).T
    return Design(np.hstack([q * lam, np.ones((m, 1))]), q, kernel, factor,
                  pivot_points, pivot_factor)


def make_design(ts: TrainingSet, kernel: KernelSpec) -> Design:
    """The design ``train`` uses for ``ts`` under ``kernel``.

    Linear: ``build_design(ts, kernel)``.  Gaussian: a pivoted Cholesky
    factor of ``K(A, A)`` built from kernel rows on demand, and the design of
    its numerical-rank eigenbasis, in O(m p^2) time and O(m p) memory.
    """
    if kernel.kind == "linear":
        return Design(build_design(ts, kernel), None, kernel)
    factor, pivots = _pivoted_cholesky(ts.a, kernel.tau)
    return _factor_design(factor, kernel, ts.a[pivots], factor[pivots])


def subset_design(design: Design, indices: NDArray[np.intp]) -> Design:
    """The design of the rows ``indices`` of the inputs a Gaussian ``design``
    was made for.

    It reuses the factor, since ``K_SS ~ L_S L_S'``: no kernel matrix is
    built, and for more kept points than the factor has columns no
    eigendecomposition of size |S| is taken either.  It keeps the pivots of
    ``design``, which need not be among the kept rows.
    """
    return _factor_design(design.factor[indices], design.kernel,
                          design.pivot_points, design.pivot_factor)


def _dual_hessian(j: NDArray, ridge: float) -> LowRankHessian:
    """H = J (J'J + ridge I)^-1 J' as its factors J and X = (J'J + ridge I)^-1 J'.

    J is the design of the training rows.  X comes from one SPD solve, never
    an inverse; H itself is never formed.
    """
    m_small = j.T @ j + ridge * np.eye(j.shape[1])
    return LowRankHessian(j, solve_spd(m_small, j.T))


def assemble_dual_down(ts: TrainingSet, params: TsvrParams, j: NDArray) -> BoxQp:
    """Dual QP for the down function h1, in minimization form.

    ``min 1/2 a'Ha + c'a`` over ``[0, p1]`` with ``H = J(J'J + p3 I)^-1 J'``
    and ``c = eps1*1 + Y - H Y``; the negated maximization objective.
    """
    h = _dual_hessian(j, params.p3)
    c = params.eps1 + ts.y - h @ ts.y
    return BoxQp(h, c, np.zeros(ts.m), np.full(ts.m, params.p1))


def assemble_dual_up(ts: TrainingSet, params: TsvrParams, j: NDArray) -> BoxQp:
    """Dual QP for the up function h2 (the mirrored problem).

    ``min 1/2 g'Hg + c'g`` over ``[0, p2]`` with ``H = J(J'J + p4 I)^-1 J'``
    and ``c = H Y - Y + eps2*1``.
    """
    h = _dual_hessian(j, params.p4)
    c = h @ ts.y - ts.y + params.eps2
    return BoxQp(h, c, np.zeros(ts.m), np.full(ts.m, params.p2))


QpSolver = Callable[[BoxQp], QpSolution]


def train(
    ts: TrainingSet,
    params: TsvrParams,
    qp_solver: QpSolver | None = None,
    design: Design | None = None,
) -> TsvrModel:
    """Fit both proximal functions and return the averaged regressor.

    ``qp_solver`` may be swapped out (tests drive training through an exact
    oracle); it receives each assembled :class:`~twinreg.qp.BoxQp` and must
    return a :class:`~twinreg.qp.QpSolution`.  ``design`` is
    ``make_design(ts, params.kernel)`` when the caller already holds it.
    Targets whose squared norm overflows raise :class:`NonFiniteVariance`.
    """
    with np.errstate(over="ignore"):
        if not math.isfinite(ts.y @ ts.y):
            raise NonFiniteVariance("the targets' squared norm overflows a float")
    solver = qp_solver or solve_box_qp
    if design is None:
        design = make_design(ts, params.kernel)
    elif design.kernel != params.kernel or design.matrix.shape[0] != ts.m:
        raise ValueError("design was built for other inputs or another kernel")
    j = design.matrix

    # Each side solves its dual and recovers v = (J'J + ridge I)^-1 J'(Y - sign
    # * multipliers): alpha pulls h1 below the targets, gamma pulls h2 above.
    # v ends in the bias; its weights map back to the basis in kernel mode.
    eye = np.eye(j.shape[1])
    sides = []
    for assemble, ridge, sign in (
        (assemble_dual_down, params.p3, 1.0),
        (assemble_dual_up, params.p4, -1.0),
    ):
        sol = solver(assemble(ts, params, j))
        v = solve_spd(j.T @ j + ridge * eye, j.T @ (ts.y - sign * sol.alpha))
        w = v[:-1] if design.to_basis is None else design.to_basis @ v[:-1]
        sides.append((sol, w, float(v[-1]), float(np.linalg.norm(ts.y - j @ v))))
    (down, w1, b1, xi_star_norm), (up, w2, b2, eta_star_norm) = sides
    diagnostics = TsvrDiagnostics(
        alpha=down.alpha, gamma=up.alpha,
        xi_star_norm=xi_star_norm, eta_star_norm=eta_star_norm,
        dual_objective_down=down.objective, dual_objective_up=up.objective,
        qp_iterations_down=down.iterations, qp_iterations_up=up.iterations,
    )
    return TsvrModel(
        w1=w1, b1=b1, w2=w2, b2=b2,
        kernel=params.kernel,
        params=params,
        basis=None if design.to_basis is None else ts.a.copy(),
        input_dim=ts.d,
        diagnostics=diagnostics,
    )


def on_pivots(model: TsvrModel, design: Design) -> TsvrModel:
    """``model``, trained with the kernel ``design``, re-expressed on the
    design's pivots P in place of its basis S.

    The factor reproduces the pivot rows exactly, so ``K(x, S) w ~ K(x, P)
    beta`` with ``beta = L_P^-T (L_S' w)`` (the Nystrom form; Williams and
    Seeger, NIPS 2001).  On the factored inputs it is exact up to the
    factor's round-off; away from them it differs by the Nystrom remainder.
    The dual vectors stay over the training rows.  A model whose basis has
    no more rows than the factor has columns, or a design without pivots,
    is returned unchanged.
    """
    if design.pivot_factor is None or len(design.pivot_factor) >= len(model.basis):
        return model
    w = np.column_stack([model.w1, model.w2])
    beta = np.linalg.solve(design.pivot_factor.T, design.factor.T @ w)
    return replace(model, basis=design.pivot_points,
                   w1=beta[:, 0].copy(), w2=beta[:, 1].copy())


def query_rows(x: NDArray, input_dim: int) -> tuple[NDArray[np.float64], bool]:
    """Query points as a 2-D float array, and whether a single point came in.

    Raises :class:`DimensionMismatch` on a wrong width and ``ValueError`` on
    NaN or infinite coordinates.
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    x = np.atleast_2d(x)
    if x.shape[1] != input_dim:
        raise DimensionMismatch(
            f"query has dimension {x.shape[1]}, model expects {input_dim}"
        )
    if not np.all(np.isfinite(x)):
        raise ValueError("query contains non-finite values")
    return x, single


def _expansion(
    model: TsvrModel, x: NDArray, w: NDArray
) -> tuple[NDArray[np.float64], bool]:
    """``phi(x) @ w``, and whether a single point came in.

    ``phi(x)`` is x itself in linear mode.  In kernel mode it is ``K(x,
    basis)``, built for at most ``max(1, BUDGET // len(basis))`` query rows at
    a time.
    """
    x, single = query_rows(x, model.input_dim)
    if model.basis is None:
        return x @ w, single
    value = np.empty(x.shape[0])
    step = max(1, BUDGET // len(model.basis))
    for start in range(0, x.shape[0], step):
        rows = gaussian_kernel(x[start : start + step], model.basis, model.kernel.tau)
        value[start : start + step] = rows @ w
        # Free the block before the next is built: with two alive, glibc's
        # malloc trimmed and refaulted its heap top at nearly every block.
        del rows
    return value, single


def predict(model: TsvrModel, x: NDArray) -> float | NDArray[np.float64]:
    """Averaged prediction ``(h1(x) + h2(x)) / 2``.

    Accepts a single point (returns a float) or a stack of rows (returns a
    vector).  Kernel rows are built a block at a time, so beyond the result
    memory is O(``BUDGET``) for any number of points.
    """
    h, single = _expansion(model, x, model.w1 + model.w2)
    values = 0.5 * (h + (model.b1 + model.b2))
    return float(values[0]) if single else values
