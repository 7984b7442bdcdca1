"""Reference computations the tests check the library against.

- :func:`box_qp_oracle`: the exact minimizer of a small box QP, found by
  solving the stationarity system on each of its faces.
- :func:`predict_components` and :func:`slack_down`: the two proximal
  functions of a twin regressor and the down problem's slack, computed in one
  unblocked pass (the KKT tests need them; prediction only needs their mean).
- :func:`count_kernel_entries`: a tally of the kernel entries the library
  builds, for the tests of its complexity contracts.
"""

import itertools

import numpy as np
from numpy.typing import NDArray

from twinreg import tsvr
from twinreg.qp import BoxQp


class DimensionTooLarge(Exception):
    """The exhaustive face oracle only handles dimension <= 5."""


def box_qp_oracle(problem: BoxQp) -> NDArray[np.float64]:
    """Exact minimizer of a small box QP by enumerating its faces; test oracle only.

    A face fixes each coordinate outside a free set F at its lower or upper
    bound.  Among the minimizers of a convex box QP, one with the most
    coordinates at bounds has a nonsingular Q_FF (a null vector of Q_FF is
    one of the PSD Q, and moving along it keeps a minimizer until another
    coordinate meets a bound), so it solves

        Q_FF x_F = -(c_F + Q_FB x_B)

    on its face.  The oracle solves that system on every face whose Q_FF has
    full rank, batched over the bound assignments of each F, and returns the
    feasible solution with the lowest objective: 3**n faces, 243 at n = 5.
    Raises :class:`DimensionTooLarge` above dimension 5 and ``ValueError``
    on an infinite bound.
    """
    n = problem.dim
    if n > 5:
        raise DimensionTooLarge(f"oracle supports dimension <= 5, got {n}")
    lower, upper, c = problem.lower, problem.upper, problem.c
    if not (np.isfinite(lower).all() and np.isfinite(upper).all()):
        raise ValueError("the face oracle needs finite bounds")
    q = np.asarray(problem.q)
    best_point, best_value = None, np.inf
    for free in itertools.product((False, True), repeat=n):
        f, b = np.flatnonzero(free), np.flatnonzero(np.logical_not(free))
        points = np.empty((2 ** b.size, n))
        points[:, b] = list(itertools.product(*zip(lower[b], upper[b])))
        if f.size:
            q_ff = q[np.ix_(f, f)]
            if np.linalg.matrix_rank(q_ff) < f.size:
                continue
            rhs = -(c[f] + points[:, b] @ q[np.ix_(b, f)])
            points[:, f] = np.linalg.solve(q_ff, rhs.T).T
        points = points[np.all((points >= lower) & (points <= upper), axis=1)]
        if len(points):
            values = 0.5 * np.sum((points @ q) * points, axis=1) + points @ c
            k = int(np.argmin(values))
            if values[k] < best_value:
                best_point, best_value = points[k], float(values[k])
    return best_point


def predict_components(model: tsvr.TsvrModel, x: NDArray) -> tuple[NDArray, NDArray]:
    """``h1(x)`` and ``h2(x)`` from the whole feature matrix at once."""
    x, _ = tsvr.query_rows(x, model.input_dim)
    phi = x
    if model.basis is not None:
        phi = tsvr.gaussian_kernel(x, model.basis, model.kernel.tau)
    return phi @ model.w1 + model.b1, phi @ model.w2 + model.b2


def slack_down(model: tsvr.TsvrModel, ts: tsvr.TrainingSet) -> NDArray[np.float64]:
    """Recovered inequality slack of the down problem: max(0, -r - eps1)."""
    h1, _ = predict_components(model, ts.a)
    return np.maximum(0.0, -(ts.y - h1) - model.params.eps1)


def count_kernel_entries(monkeypatch) -> list[int]:
    """Tally the entries every :func:`twinreg.tsvr.gaussian_kernel` call builds.

    Returns a one-element list that grows until ``monkeypatch`` undoes the
    patch, so one test can read its count after each step it measures.
    """
    tally = [0]
    real = tsvr.gaussian_kernel

    def counted(x, z, tau):
        k = real(x, z, tau)
        tally[0] += k.size
        return k

    monkeypatch.setattr(tsvr, "gaussian_kernel", counted)
    return tally
