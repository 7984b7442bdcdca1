"""Hierarchical multi-scale twin regression on residuals.

A stack of Gaussian-kernel twin regressors is trained coarse to fine: layer
v fits the residual left by layers 1..v-1 with kernel scale
``tau_v = tau_1 / n**(v-1)``, its loss weight set to ``S * var(residuals)``.
After the first fit of each layer, points far from the epsilon tube are
pruned and the layer is refit on the kept set with the loss weight scaled up
by the kept fraction's inverse, which cuts support vectors without giving up
accuracy; both passes are one fit step on a set of rows.  The refit is kept
only if it retains 25 % of the first pass's variance reduction, a share that
is this implementation's rule, not the paper's: at the tuned sinc cell it was
kept on layer 1 in 9 of 10 seeds and on no finer layer (NMSE 0.02050, 0.02053
with no refit, 0.632 with a share of 0).  The final prediction is the sum over
layers.  Values are checked where outside input enters (``twinreg.__all__``,
the CLI, INI and model files), here by :class:`HierarchyConfig`, so the layer
rules are bare formulas.  Model files hold no training state: a loaded
hierarchy has no ``training_report`` and its layers' models no diagnostics.

Every layer trains in the reduced eigenbasis of its kernel matrix (see
:mod:`twinreg.tsvr`); the report row of each layer carries its
``design_rank``, the number of eigenpairs its final model was solved with.
The first-pass design of layer v depends only on the inputs and tau_v, so a
caller fitting many configs on the same inputs passes one ``designs`` dict to
every ``train_hierarchy`` call and each scale is factored once; without one,
each layer's designs are freed once the layer is done.  The second pass takes
its design from the kept rows of the first-pass factor L, so no design is
built from a kernel matrix.  Each layer's fitted values on the inputs come
from that factor too, as ``(L (L_S' (w1 + w2)) + b1 + b2) / 2`` for a model
over the rows S: a fit computes only the p kernel rows of each factor, about
m * sum(p) entries, holds no m x m matrix, and its memory is O(m p) end to
end, p the largest rank of a layer's factor.

Each layer is stored on the p pivots of its factor whenever p is below its
basis size (:func:`twinreg.tsvr.on_pivots`), so prediction evaluates p kernel
entries per point and layer.  Inside the training domain this agrees with the
layer's full basis to round-off: within 4.5e-12 on sinc data seeds 0-7 with
``HierarchyConfig(max_layers=6, eps=0.1)``, against a 1e-10 * (1 + max|y|)
test bound.  Away from the training inputs the two forms differ by the
Nystrom remainder, which grows with the distance: by up to 9.8e-8 on the
same models within one domain width outside the sinc domain.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.typing import NDArray

from . import tsvr
from .tsvr import KernelSpec, NonFiniteVariance, TrainingSet, TsvrModel, TsvrParams


class InvalidDivisor(Exception):
    """Scale divisor below 2."""


class DegenerateDomain(Exception):
    """Input domain has zero diameter; no first scale can be derived."""


class ZeroVariance(Exception):
    """Targets are constant and non-zero; every layer's loss weight is 0."""


@dataclass(frozen=True)
class HierarchyConfig:
    """Knobs for the layered fit.

    ``tau1=None`` derives the first scale from the input-domain diagonal;
    ``tube_tolerance=None`` uses 0.1 * eps; ``stop_residual_var=None`` uses
    1e-4 * var(Y).  ``base_params`` supplies the per-layer regularization
    (p3, p4) and defaults to ``TsvrParams()``, so ``HierarchyConfig()``
    carries its ridges; its loss weights are overwritten with the variance
    rule.  ``base_params`` is None only in version-1 files, and then means
    the :class:`TsvrParams` defaults too.
    """

    max_layers: int = 6
    tau1: float | None = None
    scale_divisor: float = 2.0
    s_factor: float = 1.0
    eps: float = 0.1
    tube_tolerance: float | None = None
    stop_residual_var: float | None = None
    # A coarse layer often stalls while finer scales still have structure to
    # capture, so the improvement stop is off by default (0 = stop only when
    # a layer yields no improvement at all).
    stop_rel_improvement: float = 0.0
    base_params: TsvrParams | None = field(default_factory=TsvrParams)
    pruning_enabled: bool = True

    def __post_init__(self):
        if self.max_layers < 1:
            raise ValueError("max_layers must be >= 1")
        if self.tau1 is not None and not 0 < self.tau1 < np.inf:
            raise ValueError("tau1 must be positive and finite")
        if not np.isfinite(self.scale_divisor):
            raise ValueError("scale_divisor must be finite")
        if self.scale_divisor < 2:
            raise InvalidDivisor("scale divisor must be >= 2")
        try:  # the finest scale divides by scale_divisor ** (max_layers - 1)
            math.pow(self.scale_divisor, self.max_layers - 1)
        except OverflowError:
            raise ValueError("scale_divisor ** (max_layers - 1) overflows") from None
        if not (0 < self.s_factor <= 5):
            raise ValueError("s_factor must lie in (0, 5]")
        if not 0 <= self.eps < np.inf:
            raise ValueError("eps must be non-negative and finite")
        if self.tube_tolerance is not None and not 0 < self.tube_tolerance < np.inf:
            raise ValueError("tube_tolerance must be positive and finite")
        if self.stop_residual_var is not None and not 0 <= self.stop_residual_var < np.inf:
            raise ValueError("stop_residual_var must be non-negative and finite")
        if not 0 <= self.stop_rel_improvement < np.inf:
            raise ValueError("stop_rel_improvement must be non-negative and finite")

    def regularization(self) -> tuple[float, float]:
        params = self.base_params or TsvrParams()
        return params.p3, params.p4

    def resolved_tube_tolerance(self) -> float:
        if self.tube_tolerance is not None:
            return self.tube_tolerance
        return 0.1 * self.eps or 1e-8  # also where 0.1 * eps underflows to 0


@dataclass(frozen=True)
class LayerState:
    """One trained layer: its index v, scale tau_v and model.  Its loss
    weights, prune set size and whether the refit was adopted are kept once,
    in the layer's row of the training report."""

    index: int
    tau: float
    model: TsvrModel


@dataclass(frozen=True)
class HfTsvrModel:
    """Trained hierarchy; prediction is the sum of layer predictions."""

    layers: tuple[LayerState, ...]
    config: HierarchyConfig
    input_dim: int
    training_report: dict | None = field(default=None, metadata={"saved": False})

    def support_vector_count(self) -> int:
        """Support vectors summed over the layers."""
        return sum(layer.model.support_vector_count() for layer in self.layers)


def scale_schedule(tau1: float, n: float, v: int) -> list[float]:
    """Geometric scale sequence ``[tau1, tau1/n, ..., tau1/n**(v-1)]``."""
    return [tau1 / n**k for k in range(v)]


def auto_tau1(ts: TrainingSet) -> float:
    """First-layer scale: the Euclidean diagonal of the input bounding box."""
    extents = ts.a.max(axis=0) - ts.a.min(axis=0)
    diameter = float(np.sqrt(np.sum(extents**2)))
    if diameter == 0.0:
        raise DegenerateDomain("all inputs coincide")
    return diameter


def layer_tradeoff(residuals: NDArray, s_factor: float) -> float:
    """Loss weight for the next layer: s_factor times the residual variance."""
    return s_factor * float(np.var(residuals))


def prune_set(
    residuals_after: NDArray, eps: float, n: float, tp: float
) -> NDArray[np.intp]:
    """Indices kept for the second pass (0-based).

    Keeps points on the tube border (``| |r| - eps | < tp``) and points well
    inside it (``|r| < eps / n``).  The border test uses |r| so both tube
    sides count.  An empty result is legal and skips the second pass.
    """
    r = np.abs(residuals_after)
    keep = (np.abs(r - eps) < tp) | (r < eps / n)
    return np.flatnonzero(keep)


def second_pass_tradeoff(b_v: float, full_size: int, pruned_size: int) -> float:
    """Rescaled loss weight ``b_v * |TS| / |TS'|`` for the pruned refit."""
    return b_v * full_size / pruned_size


def _fit_pass(ts: TrainingSet, residual: NDArray[np.float64], kept: NDArray[np.intp],
              config: HierarchyConfig, b: float, design: tsvr.Design,
              factor: NDArray[np.float64] | None,
              ) -> tuple[TsvrModel, NDArray[np.float64], float]:
    """One pass of a layer: fit ``residual`` on the rows ``kept`` of ``ts``
    with loss weight b and ``design`` (of those rows, at the layer's scale).

    ``factor`` is the layer's first-pass factor L of all of ``ts``.  With
    ``K(A, S) ~ L L_S'`` the model's fitted values on ``ts`` are
    ``(L (L_S' (w1 + w2)) + b1 + b2) / 2``, which takes no kernel row; the
    model is then returned on its design's pivots (:func:`tsvr.on_pivots`).
    A design without a factor is predicted on ``ts`` instead.

    Returns the model, the residual it leaves on all of ``ts``, and that
    residual's variance.
    """
    p3, p4 = config.regularization()
    params = TsvrParams(
        p1=b, p2=b, p3=p3, p4=p4,
        eps1=config.eps, eps2=config.eps,
        kernel=design.kernel,
    )
    model = tsvr.train(TrainingSet(ts.a[kept], residual[kept]), params, design=design)
    if design.factor is None:
        fitted = tsvr.predict(model, ts.a)
    else:
        fitted = 0.5 * (factor @ (design.factor.T @ (model.w1 + model.w2))
                        + (model.b1 + model.b2))
        model = tsvr.on_pivots(model, design)
    after = residual - fitted
    return model, after, float(np.var(after))


def train_hierarchy(
    ts: TrainingSet,
    config: HierarchyConfig,
    designs: dict[float, tsvr.Design] | None = None,
) -> HfTsvrModel:
    """Train layers on successive residuals until a stopping rule fires.

    Stops when the residual variance falls below the floor, when the
    relative improvement drops below ``stop_rel_improvement``, when the
    residuals go constant, or at ``max_layers``.  A layer that fails to
    reduce the residual variance is discarded and training stops; kept
    layers therefore strictly decrease the variance.  Constant targets other
    than 0 raise :class:`ZeroVariance`, as no layer with loss weight
    ``S * var = 0`` can fit them; all-zero targets give the empty model.

    ``designs`` maps tau to the first-pass design of ``ts.a`` at that scale;
    missing scales are built and added.  Share one dict only between calls
    with the same inputs ``ts.a``.  Without it, each design is dropped once
    its layer is done.  Second passes fit subsets, with designs from the
    kept rows of the first-pass factor (``tsvr.subset_design``).  Targets
    whose variance overflows raise :class:`NonFiniteVariance`.
    """
    tau1 = config.tau1 if config.tau1 is not None else auto_tau1(ts)
    taus = scale_schedule(tau1, config.scale_divisor, config.max_layers)
    if ts.y[0] != 0.0 and np.all(ts.y == ts.y[0]):
        raise ZeroVariance("constant non-zero targets: every layer's loss weight is 0")
    with np.errstate(over="ignore", invalid="ignore"):
        var_y = float(np.var(ts.y))
    if not math.isfinite(var_y):
        raise NonFiniteVariance("the target variance overflows a float")
    var_floor = (
        config.stop_residual_var
        if config.stop_residual_var is not None
        else 1e-4 * var_y
    )
    tp = config.resolved_tube_tolerance()

    residual = ts.y.copy()
    layers: list[LayerState] = []
    rows: list[dict] = []
    stop_reason = "max_layers"

    for v, tau in enumerate(taus, start=1):
        var_in = float(np.var(residual))
        if var_in == 0.0:
            stop_reason = "zero_variance"
            break
        if var_in <= var_floor:
            stop_reason = "variance_floor"
            break

        b_v = layer_tradeoff(residual, config.s_factor)
        t0 = time.perf_counter()
        design = designs.get(tau) if designs is not None else None
        if design is None:
            design = tsvr.make_design(ts, KernelSpec("gaussian", tau))
            if designs is not None:
                designs[tau] = design
        pruned = np.arange(ts.m)
        first_pass, next_residual, var_out = _fit_pass(
            ts, residual, pruned, config, b_v, design, design.factor
        )
        model_v, rank, b_v_prime, adopted = first_pass, design.rank, b_v, False
        second_design = None
        if config.pruning_enabled:
            pruned = prune_set(next_residual, config.eps, config.scale_divisor, tp)
            if 0 < pruned.size < ts.m:
                b_v_prime = second_pass_tradeoff(b_v, ts.m, pruned.size)
                second_design = tsvr.subset_design(design, pruned)
                second, second_residual, var_second = _fit_pass(
                    ts, residual, pruned, config, b_v_prime, second_design,
                    design.factor,
                )
                # The refit is a support-vector optimization, not a mandate:
                # adopt it only while it retains a quarter of the first-pass
                # improvement (a near-empty tube can select an
                # unrepresentative subset whose refit memorizes a few points).
                if var_in - var_second >= 0.25 * (var_in - var_out):
                    model_v, rank, adopted = second, second_design.rank, True
                    next_residual, var_out = second_residual, var_second
        elapsed = time.perf_counter() - t0
        # Unless the caller shares them, nothing else holds this layer's
        # designs: free them before the next scale is factored.
        del design, second_design

        if var_out >= var_in:
            stop_reason = "no_improvement"
            break

        layers.append(LayerState(index=v, tau=tau, model=model_v))
        rows.append(
            {
                "layer": v,
                "tau": tau,
                "b_v": b_v,
                "b_v_prime": b_v_prime,
                "sv_count_full": first_pass.support_vector_count(),
                "sv_count_final": model_v.support_vector_count(),
                "basis_size": len(model_v.basis),
                "prune_set_size": int(pruned.size),
                "second_pass_adopted": adopted,
                "total_points": ts.m,
                "design_rank": rank,
                "residual_variance_in": var_in,
                "residual_variance_out": var_out,
                "train_seconds": elapsed,
            }
        )
        residual = next_residual

        if (
            config.stop_rel_improvement > 0
            and (var_in - var_out) / var_in <= config.stop_rel_improvement
        ):
            stop_reason = "small_improvement"
            break

    report = {
        "target_variance": var_y,
        "variance_floor": var_floor,
        "stop_reason": stop_reason,
        "layers": rows,
    }
    resolved = replace(config, tau1=tau1)
    return HfTsvrModel(
        layers=tuple(layers),
        config=resolved,
        input_dim=ts.d,
        training_report=report,
    )


def predict_hierarchy(model: HfTsvrModel, x: NDArray) -> float | NDArray[np.float64]:
    """Sum of layer predictions in layer order; 0 for an empty hierarchy."""
    x2, single = tsvr.query_rows(x, model.input_dim)
    total = np.zeros(x2.shape[0])
    for layer in model.layers:
        total = total + np.atleast_1d(tsvr.predict(layer.model, x2))
    return float(total[0]) if single else total
