"""Twin support vector regression, fuzzy inputs, and a multi-scale hierarchy.

Layout:

- :mod:`twinreg.errors`     the failure bases that pick the CLI's exit codes
- :mod:`twinreg.qp`         SPD solves and the box-constrained QP engine
- :mod:`twinreg.tsvr`       the twin regressor (linear and Gaussian kernel)
- :mod:`twinreg.fuzzy`      trapezoidal fuzzy numbers and fuzzy prediction
- :mod:`twinreg.hierarchy`  coarse-to-fine residual layers with pruning
- :mod:`twinreg.data`       synthetic generators, CSV ingestion, splits
- :mod:`twinreg.metrics`    SSE / NMSE / R^2 / MAPE
- :mod:`twinreg.search`     power-of-two hyperparameter grid search
- :mod:`twinreg.benchmark`  suite runner and report writers
- :mod:`twinreg.model_io`   versioned model serialization
- :mod:`twinreg.cli`        the ``twinreg`` command
"""

from .data import Dataset, SyntheticSpec, generate, load_csv, split
from .fuzzy import (
    FuzzyPrediction,
    FuzzySample,
    TrapezoidalFuzzyNumber,
    predict_fuzzy,
    train_ftsvr,
)
from .hierarchy import (
    HfTsvrModel,
    HierarchyConfig,
    predict_hierarchy,
    train_hierarchy,
)
from .metrics import MetricsReport, metrics
from .model_io import load_model, save_model
from .qp import BoxQp, LowRankHessian, QpSolution, solve_box_qp, solve_spd
from .search import GridSpec, grid_search
from .tsvr import (
    KernelSpec,
    TrainingSet,
    TsvrModel,
    TsvrParams,
    predict,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "BoxQp",
    "Dataset",
    "FuzzyPrediction",
    "FuzzySample",
    "GridSpec",
    "HfTsvrModel",
    "HierarchyConfig",
    "KernelSpec",
    "LowRankHessian",
    "MetricsReport",
    "QpSolution",
    "SyntheticSpec",
    "TrainingSet",
    "TrapezoidalFuzzyNumber",
    "TsvrModel",
    "TsvrParams",
    "generate",
    "grid_search",
    "load_csv",
    "load_model",
    "metrics",
    "predict",
    "predict_fuzzy",
    "predict_hierarchy",
    "save_model",
    "solve_box_qp",
    "solve_spd",
    "split",
    "train",
    "train_ftsvr",
    "train_hierarchy",
    "__version__",
]
