"""Hyperparameter grid search over power-of-two grids.

The protocol: carve a random 20% tuning subset off the training data, fit
every grid cell on the remaining 80%, score it on the tuning subset, pick the
minimum (ties, which include scores within ``TIE_TOLERANCE`` of the best
relative to it, go to the lexicographically smallest parameters), then retrain
the winner on the full training set.  Loss and regularization weights range
over ``2**k`` for k in the exponent range; tube widths use the negative
exponents scaled by the target standard deviation, plus zero.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import data as data_mod
from . import hierarchy as hier_mod
from . import tsvr as tsvr_mod
from .errors import TRAINING_ERRORS, TrainingError
from .hierarchy import HfTsvrModel, HierarchyConfig
from .metrics import metrics
from .tsvr import KernelSpec, TrainingSet, TsvrModel, TsvrParams

# The regressor kinds and their table labels.
REGRESSOR_KINDS = {"tsvr": "eps-TSVR", "ftsvr": "eps-FTSVR", "hftsvr": "eps-HFTSVR"}

# Scores this close (relative to the best) tie: cells that fit the same model
# differ only by round-off, which must not overrule the smallest-key rule.
TIE_TOLERANCE = 1e-12


class AllCellsFailed(TrainingError):
    """Every grid cell failed to train or to score."""


@dataclass(frozen=True)
class GridSpec:
    """Search space description.

    ``exponent_step`` thins the ``2**k`` grids for desk-scale runs.  The tie
    flags couple p1=p2, p3=p4 and eps1=eps2 (all on by default, matching the
    experimental protocol); untying adds an axis per freed parameter.
    """

    exponent_low: int = -9
    exponent_high: int = 9
    exponent_step: int = 1
    tie_p1_p2: bool = True
    tie_p3_p4: bool = True
    tie_eps: bool = True
    objective: str = "nmse"
    tuning_fraction: float = 0.2
    kernel: KernelSpec = field(default_factory=KernelSpec)

    def __post_init__(self):
        if self.exponent_low > self.exponent_high:
            raise ValueError("empty exponent range")
        if not (-1074 <= self.exponent_low and self.exponent_high <= 1023):
            raise ValueError("exponents must lie in [-1074, 1023], where 2**k is a "
                             "positive finite float")
        if self.exponent_step < 1:
            raise ValueError("exponent_step must be >= 1")
        if self.objective not in ("nmse", "sse"):
            raise ValueError("objective must be 'nmse' or 'sse'")
        if not 0 < self.tuning_fraction < 1:
            raise ValueError("tuning_fraction must lie strictly between 0 and 1")

    def power_grid(self) -> list[float]:
        ks = range(self.exponent_low, self.exponent_high + 1, self.exponent_step)
        return [2.0**k for k in ks]

    def eps_grid(self, y_std: float) -> list[float]:
        lo = max(self.exponent_low, -9)
        ks = [k for k in range(lo, 0, self.exponent_step)]
        return [0.0] + [2.0**k * y_std for k in ks]


@dataclass(frozen=True)
class TuningReport:
    """Everything the search tried, for reproducibility audits."""

    cells: list[dict]
    best_cell: dict
    failures: list[dict]
    tuning_size: int
    fit_size: int
    final_model: TsvrModel | HfTsvrModel
    final_train_seconds: float


def fit(
    ts: TrainingSet,
    params: TsvrParams | HierarchyConfig,
    designs: dict | None = None,
) -> TsvrModel | HfTsvrModel:
    """Train what ``params`` configures: a hierarchy for a
    :class:`HierarchyConfig`, which reuses the first-pass ``designs`` across
    calls, else one twin regressor (tsvr and ftsvr alike)."""
    if isinstance(params, HierarchyConfig):
        return hier_mod.train_hierarchy(ts, params, designs=designs)
    return tsvr_mod.train(ts, params)


def predict(model: TsvrModel | HfTsvrModel, x: np.ndarray) -> float | np.ndarray:
    """Predict with either model type; a single point gives a float."""
    if isinstance(model, HfTsvrModel):
        return hier_mod.predict_hierarchy(model, x)
    return tsvr_mod.predict(model, x)


def _score(y: np.ndarray, yhat: np.ndarray, objective: str) -> float:
    report = metrics(y, yhat)
    return report.nmse if objective == "nmse" else report.sse


def _tsvr_cells(grid: GridSpec, y_std: float):
    """Every ``(key, params)`` cell in key order, the key being
    (p1, p2, p3, p4, eps1, eps2).  Each pair (p1, p2), (p3, p4), (eps1, eps2)
    has two axes, or one when tied; then its second member copies the first."""
    powers, eps_values = grid.power_grid(), grid.eps_grid(y_std)
    pairs = ((powers, grid.tie_p1_p2), (powers, grid.tie_p3_p4), (eps_values, grid.tie_eps))
    axes = [axis for values, tied in pairs for axis in (values, [None] if tied else values)]
    for cell in itertools.product(*axes):
        key = tuple(cell[i - 1] if v is None else v for i, v in enumerate(cell))
        yield key, TsvrParams(*key, kernel=grid.kernel)


def _hierarchy_cells(grid: GridSpec, y_std: float, base: HierarchyConfig):
    """Every ``(key, config)`` cell in key order, the key being (S, p3, eps)."""
    # Narrower than the exhaustive per-layer search, by design: S ranges over
    # the order-one part of its admissible interval (0, 5] (far smaller S
    # turns the tube loss off and degenerates the pruning pass), the scale
    # schedule is fixed by the config (auto tau1, divisor), and the tube grid
    # covers only widths commensurate with the target scale.
    s_values = [s for s in grid.power_grid() if 0.25 <= s <= 5.0]
    if not s_values:
        s_values = [1.0]
    eps_lo = max(grid.exponent_low, -3)
    eps_values = [
        2.0**k * y_std for k in range(eps_lo, 0, grid.exponent_step)
    ] or [0.5 * y_std]
    for key in itertools.product(s_values, grid.power_grid(), eps_values):
        s, p3, eps = key
        yield key, replace(base, s_factor=s, eps=eps, tube_tolerance=None,
                           base_params=TsvrParams(p3=p3, p4=p3))


def grid_search(
    ds: data_mod.Dataset,
    regressor_kind: str,
    grid: GridSpec,
    seed: int,
    hierarchy_base: HierarchyConfig | None = None,
) -> tuple[TsvrParams | HierarchyConfig, TuningReport]:
    """Pick hyperparameters for one regressor on one dataset.

    ``ftsvr`` searches exactly like ``tsvr`` (training is crisp-on-centers);
    ``hftsvr`` searches (S, p3, eps) around ``hierarchy_base``.  A cell whose
    fit or score raises one of :data:`twinreg.errors.TRAINING_ERRORS`, or
    scores non-finite, is recorded and skipped; :class:`AllCellsFailed` is
    raised if no cell is left.  Deterministic for a fixed seed.
    """
    if regressor_kind not in REGRESSOR_KINDS:
        raise ValueError(f"unknown regressor {regressor_kind!r}")
    train = ds.train
    tune_set, fit_set = data_mod.split(train, grid.tuning_fraction, seed)
    y_std = float(np.std(train.y))

    if regressor_kind == "hftsvr":
        cells = _hierarchy_cells(grid, y_std, hierarchy_base or HierarchyConfig())
    else:
        cells = _tsvr_cells(grid, y_std)
    # Every hierarchy cell fits fit_set.a at the same scales, so each layer's
    # first-pass design is factored once and shared by all cells.
    designs: dict = {}

    failures: list[dict] = []
    scored = []  # (key, score, candidate)
    for key, candidate in cells:
        try:
            model = fit(fit_set, candidate, designs)
            score = _score(tune_set.y, predict(model, tune_set.a), grid.objective)
        except TRAINING_ERRORS as exc:
            failures.append({"key": key, "error": f"{type(exc).__name__}: {exc}"})
            continue
        if not np.isfinite(score):
            failures.append({"key": key, "error": f"non-finite score {score}"})
            continue
        scored.append((key, score, candidate))

    if not scored:
        raise AllCellsFailed("every grid cell failed to train")
    low = min(score for _, score, _ in scored)
    best_key, best_score, best_candidate = min(
        (cell for cell in scored if cell[1] <= low + TIE_TOLERANCE * abs(low)),
        key=lambda cell: cell[0],
    )

    t0 = time.perf_counter()
    final_model = fit(train, best_candidate)
    final_seconds = time.perf_counter() - t0
    report = TuningReport(
        cells=[{"key": key, "score": score} for key, score, _ in scored],
        best_cell={"key": best_key, "score": best_score},
        failures=failures,
        tuning_size=tune_set.m,
        fit_size=fit_set.m,
        final_model=final_model,
        final_train_seconds=final_seconds,
    )
    return best_candidate, report
