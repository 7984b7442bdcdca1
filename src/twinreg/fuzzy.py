"""Trapezoidal fuzzy numbers and the fuzzy twin regressor.

Training runs on sample centers through the crisp machinery (the fuzzy dual
is structurally identical to the crisp one), so a crisp sample set produces
exactly the same model either way.  Fuzziness enters at prediction time: a
query with nonzero core half-widths gets a spread
``rho = |(w1 + w2) . dS| / 2`` alongside its center value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import tsvr
from .tsvr import TrainingSet, TsvrModel, TsvrParams


class EmptySet(Exception):
    """No samples to train on."""


class RaggedDimensions(Exception):
    """Samples disagree on input dimension."""


class KernelSpreadUnsupported(Exception):
    """Spread is defined only for the linear inner-product form."""


@dataclass(frozen=True)
class TrapezoidalFuzzyNumber:
    """Quadruple (center, core half-width, left spread, right spread).

    Only the core half-width enters the prediction spread; the left/right
    spreads are carried for I/O fidelity.  Every field must be finite and
    the three widths non-negative.
    """

    center: float
    core_half_width: float = 0.0
    left_spread: float = 0.0
    right_spread: float = 0.0

    def __post_init__(self):
        quad = (self.center, self.core_half_width, self.left_spread, self.right_spread)
        if not all(math.isfinite(v) for v in quad):
            raise ValueError("fuzzy number fields must be finite")
        if min(self.core_half_width, self.left_spread, self.right_spread) < 0:
            raise ValueError("widths must be non-negative")

    def crisp(self) -> bool:
        return (
            self.core_half_width == 0.0
            and self.left_spread == 0.0
            and self.right_spread == 0.0
        )


def crisp_number(value: float) -> TrapezoidalFuzzyNumber:
    return TrapezoidalFuzzyNumber(float(value))


@dataclass(frozen=True)
class FuzzySample:
    """One observation: a vector of fuzzy inputs and a fuzzy target."""

    x: tuple[TrapezoidalFuzzyNumber, ...]
    y: TrapezoidalFuzzyNumber

    def __post_init__(self):
        object.__setattr__(self, "x", tuple(self.x))
        if len(self.x) == 0:
            raise ValueError("sample needs at least one input component")


@dataclass(frozen=True)
class FuzzyPrediction:
    """Predicted center and non-negative spread; spread 0 for crisp input."""

    center: float
    spread: float


def defuzzify_set(samples: Sequence[FuzzySample]) -> TrainingSet:
    """Extract the center matrix and center targets for training."""
    samples = list(samples)
    if not samples:
        raise EmptySet("no fuzzy samples")
    d = len(samples[0].x)
    for i, s in enumerate(samples):
        if len(s.x) != d:
            raise RaggedDimensions(
                f"sample {i} has dimension {len(s.x)}, expected {d}"
            )
    a = np.array([[c.center for c in s.x] for s in samples], dtype=float)
    y = np.array([s.y.center for s in samples], dtype=float)
    return TrainingSet(a, y)


def train_ftsvr(samples: Sequence[FuzzySample], params: TsvrParams) -> TsvrModel:
    """Fit on the defuzzified centers; identical to crisp training."""
    return tsvr.train(defuzzify_set(samples), params)


def predict_fuzzy(
    model: TsvrModel, x: Sequence[TrapezoidalFuzzyNumber]
) -> FuzzyPrediction:
    """Predict a fuzzy value for a fuzzy query point.

    Center is the crisp prediction at the input centers.  Spread is
    ``Sum_j |w1_j + w2_j| * dS_j / 2`` (componentwise absolute weights);
    it requires a linear model whenever any input width is nonzero.
    """
    centers = np.array([c.center for c in x], dtype=float)
    widths = np.array([c.core_half_width for c in x], dtype=float)
    center = tsvr.predict(model, centers)
    if not np.any(widths):
        return FuzzyPrediction(float(center), 0.0)
    if model.kernel.kind != "linear":
        raise KernelSpreadUnsupported(
            "spread is defined for linear models only; kernel models accept "
            "crisp queries"
        )
    spread = 0.5 * float(np.abs(model.w1 + model.w2) @ widths)
    return FuzzyPrediction(float(center), spread)


def wrap_crisp(ts: TrainingSet) -> list[FuzzySample]:
    """Lift a crisp training set into fuzzy samples with zero widths."""
    return [
        FuzzySample(
            tuple(crisp_number(v) for v in row),
            crisp_number(t),
        )
        for row, t in zip(ts.a, ts.y)
    ]
