"""Evaluation metrics for the benchmark reports.

Definitions (printed in every report header so numbers are interpretable):

    SSE  = sum (y - yhat)^2
    NMSE = SSE / sum (y - mean(y))^2
    R2   = 1 - NMSE                 (can be negative)
    MAPE = mean |y - yhat| / |y|    (undefined when any y is 0)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import DataError, TrainingError


class LengthMismatch(DataError):
    pass


class ZeroVarianceTargets(DataError, TrainingError):
    """NMSE and R2 are undefined for constant targets: bad data to the CLI,
    a failed cell to a grid search."""


METRIC_DEFINITIONS = (
    "SSE = sum (y - yhat)^2; NMSE = SSE / sum (y - mean(y))^2; "
    "R2 = 1 - NMSE; MAPE = mean |y - yhat| / |y| (undefined if any y = 0)"
)


@dataclass(frozen=True)
class MetricsReport:
    """Error statistics plus the training-context fields callers attach."""

    sse: float
    nmse: float
    r2: float
    mape: float | None
    train_seconds: float = 0.0
    sv_count: int = 0


def metrics(y: NDArray, yhat: NDArray, train_seconds: float = 0.0,
            sv_count: int = 0) -> MetricsReport:
    """Score predictions against targets.

    Raises :class:`LengthMismatch` for unequal lengths and
    :class:`ZeroVarianceTargets` when the targets are constant.  MAPE is
    reported as ``None`` when any target is zero.
    """
    y = np.asarray(y, dtype=float).ravel()
    yhat = np.asarray(yhat, dtype=float).ravel()
    if y.size != yhat.size or y.size == 0:
        raise LengthMismatch(f"{y.size} targets vs {yhat.size} predictions")
    sse = float(np.sum((y - yhat) ** 2))
    denom = float(np.sum((y - y.mean()) ** 2))
    if denom == 0.0:
        raise ZeroVarianceTargets("targets are constant")
    nmse = sse / denom
    mape = None
    if np.all(y != 0):
        mape = float(np.mean(np.abs(y - yhat) / np.abs(y)))
    return MetricsReport(
        sse=sse,
        nmse=nmse,
        r2=1.0 - nmse,
        mape=mape,
        train_seconds=train_seconds,
        sv_count=sv_count,
    )
