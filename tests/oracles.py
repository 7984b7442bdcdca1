"""Reference computations the tests check the library against.

- :func:`box_qp_oracle`: a brute-force grid minimizer for small box QPs.
- :func:`predict_components` and :func:`slack_down`: the two proximal
  functions of a twin regressor and the down problem's slack, computed in one
  unblocked pass (the KKT tests need them; prediction only needs their mean).
- :func:`count_kernel_entries`: a tally of the kernel entries the library
  builds, for the tests of its complexity contracts.
"""

import numpy as np
from numpy.typing import NDArray

from twinreg import tsvr
from twinreg.qp import BoxQp


class DimensionTooLarge(Exception):
    """The exhaustive grid oracle only handles dimension <= 5."""


# Points per axis for the oracle grids, by dimension.  Chosen so a full
# product grid stays a few hundred thousand evaluations per pass.
_ORACLE_AXIS_POINTS = {1: 4097, 2: 257, 3: 49, 4: 21, 5: 13}


def _grid_best(q: NDArray, c: NDArray, lo: NDArray, hi: NDArray, points: int):
    axes = [np.linspace(lo[j], hi[j], points) for j in range(c.size)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    vals = 0.5 * np.sum((pts @ q) * pts, axis=1) + pts @ c
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

    q = np.asarray(problem.q)
    lam_max = float(np.max(np.linalg.eigvalsh(q)))
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
        pts, vals, idx = _grid_best(q, problem.c, lo, hi, points)
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
