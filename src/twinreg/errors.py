"""The failure bases that decide the CLI's exit code.

Every exception class the package defines derives from :class:`DataError`
(exit 2), :class:`TrainingError` (exit 3) or ``ValueError`` (exit 1, a usage
or config error), so its base, not a hand-kept list, says how it is reported.
"""

import numpy as np


class DataError(Exception):
    """Input data, a dataset file or a model file that cannot be used."""


class TrainingError(Exception):
    """A fit, its score or a grid search that failed on valid input."""


# What a grid cell or benchmark run records and skips; anything else is a fault.
TRAINING_ERRORS = (TrainingError, np.linalg.LinAlgError)
