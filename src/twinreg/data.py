"""Synthetic dataset generation, CSV ingestion, and seeded splits.

Generators draw from NumPy's default PCG64 bit generator
(``np.random.default_rng(seed)``) in a fixed order (training inputs, training
noise, test inputs), so a spec with the same seed reproduces the same dataset
bit for bit on any platform.

Every file format (crisp and fuzzy CSV, UCI Servo and Auto Price) is read by
one row reader and parsed by one float-table parser.  Blank lines are skipped,
errors name the file line a row starts on, and undecodable text, bad arity,
bad cells and negative fuzzy widths are all :class:`DataError` subclasses.
File datasets are split by :func:`holdout`.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from numpy.typing import NDArray

from .fuzzy import FuzzySample, TrapezoidalFuzzyNumber
from .tsvr import TrainingSet


class DataError(Exception):
    """Base class for dataset ingestion failures."""


class ParseError(DataError):
    def __init__(self, row: int, column: str, message: str):
        super().__init__(f"row {row}, column {column}: {message}")
        self.row = row
        self.column = column


class MissingHeader(DataError):
    pass


class InconsistentArity(DataError):
    pass


class DegenerateSplit(DataError):
    """A split fraction that would leave one side empty."""


def _power_two_thirds(x: NDArray) -> NDArray:
    # Real even branch: x^(2/3) read as (x^2)^(1/3), well-defined on [-2, 2].
    return np.cbrt(x * x)


def _sinc(x: NDArray) -> NDArray:
    # sin(x)/x with value 1 at 0; np.sinc is the normalized form.
    return np.sinc(x / np.pi)


SYNTHETIC_FUNCTIONS: dict[str, Callable[[NDArray], NDArray]] = {
    "power_two_thirds": _power_two_thirds,
    "sinc": _sinc,
}


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a noisy 1-D benchmark dataset.

    Gaussian noise is added to training targets only; test targets are the
    exact function values.
    """

    function: str
    domain_low: float
    domain_high: float
    noise_sigma: float
    n_train: int
    n_test: int
    seed: int

    def __post_init__(self):
        if self.function not in SYNTHETIC_FUNCTIONS:
            raise ValueError(f"unknown function {self.function!r}")
        for name in ("domain_low", "domain_high", "noise_sigma"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not self.domain_low < self.domain_high:
            raise ValueError("domain_low must be below domain_high")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be non-negative")
        if self.n_train < 1 or self.n_test < 1:
            raise ValueError("sample counts must be positive")


def power_two_thirds_spec(seed: int, noise_sigma: float = 0.2,
                          n_train: int = 200, n_test: int = 200) -> SyntheticSpec:
    """x^(2/3) on U[-2, 2]; defaults match the benchmark sizes."""
    return SyntheticSpec("power_two_thirds", -2.0, 2.0, noise_sigma,
                         n_train, n_test, seed)


def sinc_spec(seed: int, noise_sigma: float = 0.2,
              n_train: int = 272, n_test: int = 526) -> SyntheticSpec:
    """sin(x)/x on U[-4pi, 4pi]; defaults match the benchmark sizes."""
    return SyntheticSpec("sinc", -4 * math.pi, 4 * math.pi, noise_sigma,
                         n_train, n_test, seed)


@dataclass(frozen=True)
class Dataset:
    """Train/test pair plus a JSON-ready provenance record."""

    train: TrainingSet
    test: TrainingSet
    provenance: dict


def generate(spec: SyntheticSpec) -> Dataset:
    """Draw a dataset per the recipe; deterministic for a fixed seed."""
    rng = np.random.default_rng(spec.seed)
    f = SYNTHETIC_FUNCTIONS[spec.function]
    x_train = rng.uniform(spec.domain_low, spec.domain_high, spec.n_train)
    noise = rng.normal(0.0, spec.noise_sigma, spec.n_train)
    x_test = rng.uniform(spec.domain_low, spec.domain_high, spec.n_test)
    train = TrainingSet(x_train[:, None], f(x_train) + noise)
    test = TrainingSet(x_test[:, None], f(x_test))
    provenance = {"kind": "synthetic", "spec": asdict(spec)}
    return Dataset(train, test, provenance)


def split(ts: TrainingSet, fraction: float, seed: int) -> tuple[TrainingSet, TrainingSet]:
    """Deterministic shuffled split into (subset, complement).

    The subset gets ``ceil(fraction * m)`` rows.  Raises
    :class:`DegenerateSplit` if either side would be empty.
    """
    if not 0 < fraction < 1:
        raise ValueError("fraction must lie strictly between 0 and 1")
    m = ts.m
    k = math.ceil(fraction * m)
    if k == 0 or k == m:
        raise DegenerateSplit(f"fraction {fraction} leaves an empty side for m={m}")
    perm = np.random.default_rng(seed).permutation(m)
    return ts.subset(perm[:k]), ts.subset(perm[k:])


# --- CSV schemas ------------------------------------------------------------
#
# crisp:  header x1,...,xd,y
# fuzzy:  header x1_c,x1_w,x1_l,x1_r,...,y_c,y_w,y_l,y_r
# UTF-8, '.' decimal, ',' separator.

_FUZZY_SUFFIXES = ("_c", "_w", "_l", "_r")


def _crisp_header(d: int) -> list[str]:
    return [f"x{j + 1}" for j in range(d)] + ["y"]


def _fuzzy_header(d: int) -> list[str]:
    names = []
    for j in range(d):
        names.extend(f"x{j + 1}{s}" for s in _FUZZY_SUFFIXES)
    names.extend(f"y{s}" for s in _FUZZY_SUFFIXES)
    return names


def _parse_float(token: str, row: int, column: str) -> float:
    try:
        value = float(token)
    except ValueError as exc:
        raise ParseError(row, column, f"not a number: {token!r}") from exc
    if not math.isfinite(value):
        raise ParseError(row, column, f"non-finite value {token!r}")
    return value


def _read_rows(path: str | Path, header: bool) -> tuple[list[str], list[tuple[int, list[str]]]]:
    """The stripped header (line 1, if the format has one) and the non-blank
    rows, each paired with the file line it starts on."""
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            names = next(reader) if header else []
            rows, line = [], reader.line_num + 1
            for row in reader:
                if row:
                    rows.append((line, row))
                line = reader.line_num + 1
    except StopIteration:
        raise MissingHeader(f"{path}: empty file") from None
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"{path}: unreadable CSV text ({exc})") from exc
    return [h.strip() for h in names], rows


def _floats(path: str | Path, rows: list[tuple[int, list[str]]], width: int,
            columns: dict[int, str]) -> NDArray[np.float64]:
    """Check every row has ``width`` fields and parse the named columns,
    keyed by field index, into an (n, len(columns)) float64 table."""
    out = np.empty((len(rows), len(columns)))
    for i, (line, row) in enumerate(rows):
        if len(row) != width:
            raise InconsistentArity(
                f"{path}: row {line} has {len(row)} fields, expected {width}"
            )
        out[i] = [_parse_float(row[j], line, name) for j, name in columns.items()]
    return out


def load_csv(path: str | Path, schema: str = "crisp") -> TrainingSet | list[FuzzySample]:
    """Load a crisp CSV as a :class:`TrainingSet` or a fuzzy CSV as samples.

    Header row is required and validated against the schema; any malformed
    cell, or a negative fuzzy width, reports its file line and column.
    """
    if schema not in ("crisp", "fuzzy"):
        raise ValueError(f"unknown schema {schema!r}")
    header, rows = _read_rows(path, header=True)
    per_variable, names = (1, _crisp_header) if schema == "crisp" else (4, _fuzzy_header)
    d = len(header) // per_variable - 1
    if d < 1 or header != names(d):
        raise MissingHeader(
            f"{path}: expected a {schema} header like {','.join(names(1))}, got {header}"
        )
    if not rows:
        raise DataError(f"{path}: no data rows")
    values = _floats(path, rows, len(header), dict(enumerate(header)))
    if schema == "crisp":
        return TrainingSet(values[:, :d], values[:, d])

    quads = values.reshape(len(rows), d + 1, 4)
    negative = np.argwhere(quads[:, :, 1:] < 0)
    if negative.size:
        i, k, w = negative[0]
        raise ParseError(rows[i][0], header[4 * k + 1 + w], "negative width")
    return [
        FuzzySample(tuple(TrapezoidalFuzzyNumber(*q) for q in sample[:d]),
                    TrapezoidalFuzzyNumber(*sample[d]))
        for sample in quads.tolist()
    ]


def holdout(ts: TrainingSet, seed: int, provenance: dict) -> Dataset:
    """Seeded split of a file dataset: ``ceil(m / 4)`` test rows, the rest train."""
    test, train = split(ts, 0.25, seed)
    return Dataset(train, test, provenance)


def save_training_csv(ts: TrainingSet, path: str | Path) -> None:
    """Write a crisp CSV whose floats round-trip exactly (repr format)."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(_crisp_header(ts.d))
        for row, target in zip(ts.a, ts.y):
            writer.writerow([repr(float(v)) for v in row] + [repr(float(target))])


def save_dataset(ds: Dataset, basepath: str | Path) -> None:
    """Write ``<base>_train.csv``, ``<base>_test.csv``, ``<base>_provenance.json``."""
    base = str(basepath)
    save_training_csv(ds.train, base + "_train.csv")
    save_training_csv(ds.test, base + "_test.csv")
    with open(base + "_provenance.json", "w", encoding="utf-8") as handle:
        json.dump(ds.provenance, handle, indent=2, sort_keys=True)


def load_dataset(basepath: str | Path) -> Dataset:
    """Round-trip counterpart of :func:`save_dataset`."""
    base = str(basepath)
    train = load_csv(base + "_train.csv", "crisp")
    test = load_csv(base + "_test.csv", "crisp")
    with open(base + "_provenance.json", encoding="utf-8") as handle:
        provenance = json.load(handle)
    return Dataset(train, test, provenance)


# --- UCI ingestion ----------------------------------------------------------

def _normalize(a: NDArray, y: NDArray) -> tuple[TrainingSet, dict]:
    mean = a.mean(axis=0)
    std = a.std(axis=0)
    std = np.where(std == 0, 1.0, std)
    prov = {
        "feature_mean": mean.tolist(),
        "feature_std": std.tolist(),
    }
    return TrainingSet((a - mean) / std, y), prov


def load_uci_servo(path: str | Path) -> tuple[TrainingSet, dict]:
    """Servo: motor,screw,pgain,vgain,class (no header).

    The two categorical attributes are integer-encoded by dictionary order of
    the values observed in the file; features are normalized to zero mean and
    unit variance, with the constants recorded in the provenance dict.
    """
    _, rows = _read_rows(path, header=False)
    if not rows:
        raise DataError(f"{path}: empty file")
    values = _floats(path, rows, 5, {2: "pgain", 3: "vgain", 4: "class"})
    motor_codes = {v: i for i, v in enumerate(sorted({r[0] for _, r in rows}))}
    screw_codes = {v: i for i, v in enumerate(sorted({r[1] for _, r in rows}))}
    codes = np.array([[motor_codes[r[0]], screw_codes[r[1]]] for _, r in rows], dtype=float)
    ts, prov = _normalize(np.hstack([codes, values[:, :2]]), values[:, 2])
    prov.update(
        {
            "dataset": "servo",
            "motor_codes": motor_codes,
            "screw_codes": screw_codes,
        }
    )
    return ts, prov


# 0-based indices of the numeric attributes in the 26-column automobile file;
# the last column (25) is the price target.
_AUTO_PRICE_FEATURES = [1, 9, 10, 11, 12, 13, 16, 18, 19, 20, 21, 22, 23, 24]
_AUTO_PRICE_COLUMNS = {j: f"col{j}" for j in _AUTO_PRICE_FEATURES} | {25: "price"}


def load_uci_auto_price(path: str | Path) -> tuple[TrainingSet, dict]:
    """Auto Price: numeric columns of the 26-field automobile file.

    Rows with a missing value ('?') in any used column are dropped; features
    are normalized to zero mean and unit variance.
    """
    _, rows = _read_rows(path, header=False)
    if not rows:
        raise DataError(f"{path}: empty file")
    # a row of the wrong width is kept, so that _floats reports its arity
    kept = [
        (line, row) for line, row in rows
        if len(row) != 26 or all(row[j].strip() != "?" for j in _AUTO_PRICE_COLUMNS)
    ]
    if not kept:
        raise DataError(f"{path}: no complete rows")
    values = _floats(path, kept, 26, _AUTO_PRICE_COLUMNS)
    ts, prov = _normalize(values[:, :-1], values[:, -1])
    prov.update({"dataset": "auto_price", "rows_dropped": len(rows) - len(kept)})
    return ts, prov
