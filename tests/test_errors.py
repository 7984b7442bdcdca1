"""Every failure type the package defines carries the base that picks its
CLI exit code."""

import importlib
import inspect
import pkgutil

import twinreg
from twinreg.errors import DataError, TrainingError


def defined_exceptions():
    found = []
    for info in pkgutil.iter_modules(twinreg.__path__, "twinreg."):
        module = importlib.import_module(info.name)
        found += [
            cls for _, cls in inspect.getmembers(module, inspect.isclass)
            if issubclass(cls, BaseException) and cls.__module__ == info.name
        ]
    return found


def test_every_exception_class_derives_from_an_exit_code_base():
    found = defined_exceptions()
    assert {"CorruptModel", "AllCellsFailed", "ConfigError"} <= {c.__name__ for c in found}
    untyped = [f"{c.__module__}.{c.__name__}" for c in found
               if not issubclass(c, (DataError, TrainingError, ValueError))]
    assert untyped == []
