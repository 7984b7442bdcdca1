"""Benchmark orchestration: tune once, evaluate across seeds, emit reports.

For every (dataset, regressor) pair the suite runs grid search on the seed-0
dataset, then re-generates the dataset for seeds ``base_seed + k`` and
trains/evaluates with the chosen parameters, reporting mean and standard
deviation per metric.  Timing covers the train call only (grid search is
excluded and the reports say so).

Outputs: a full JSON report, an aligned-column text table, and per-pair
``(x, y, yhat)`` curve CSVs for the synthetic datasets.
"""

from __future__ import annotations

import csv
import json
import platform
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import data as data_mod
from .errors import TRAINING_ERRORS
from .hierarchy import HierarchyConfig
from .metrics import METRIC_DEFINITIONS, MetricsReport, metrics
from .search import (
    REGRESSOR_KINDS,
    GridSpec,
    fit,
    grid_search,
    predict,
)
from .tsvr import TsvrParams

_SYNTHETIC_SPECS = {
    "power_two_thirds": data_mod.power_two_thirds_spec,
    "sinc": data_mod.sinc_spec,
}

@dataclass(frozen=True)
class SuiteSpec:
    """What to run: datasets by name, regressors, seed plan, grid settings."""

    datasets: tuple[str, ...] = ("power_two_thirds", "sinc")
    regressors: tuple[str, ...] = ("hftsvr", "ftsvr", "tsvr")
    n_seeds: int = 10
    base_seed: int = 0
    grid: GridSpec = field(default_factory=GridSpec)
    hierarchy_base: HierarchyConfig = field(default_factory=HierarchyConfig)
    csv_paths: dict = field(default_factory=dict)  # name -> crisp csv path
    outdir: str | None = None

    def __post_init__(self):
        if self.n_seeds < 1:
            raise ValueError("need at least one seed")
        if set(self.regressors) - set(REGRESSOR_KINDS):
            raise ValueError(f"unknown regressor in {self.regressors}")
        if set(self.datasets) - set(_SYNTHETIC_SPECS) - set(self.csv_paths):
            raise ValueError(f"unknown dataset in {self.datasets} (no csv_path)")


@dataclass(frozen=True)
class PairResult:
    """Aggregated outcome for one (dataset, regressor) pair."""

    dataset: str
    regressor: str
    chosen_parameters: dict
    per_seed: list[MetricsReport]
    mean: dict
    std: dict | None


@dataclass(frozen=True)
class BenchmarkResult:
    rows: list[PairResult]
    fingerprint: dict
    failures: list[dict]


def machine_fingerprint() -> dict:
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def _dataset_for(spec_name: str, seed: int, suite: SuiteSpec) -> data_mod.Dataset:
    if spec_name in _SYNTHETIC_SPECS:
        return data_mod.generate(_SYNTHETIC_SPECS[spec_name](seed))
    if spec_name in suite.csv_paths:
        path = suite.csv_paths[spec_name]
        return data_mod.holdout(
            data_mod.load_csv(path, "crisp"), seed,
            {"kind": "csv", "path": str(path), "seed": seed},
        )
    raise ValueError(f"unknown dataset {spec_name!r}")


def _chosen_payload(params: TsvrParams | HierarchyConfig) -> dict:
    if isinstance(params, HierarchyConfig):
        p3, p4 = params.regularization()
        return {
            "s_factor": params.s_factor,
            "p3": p3,
            "p4": p4,
            "eps": params.eps,
            "tau1": params.tau1,
            "scale_divisor": params.scale_divisor,
            "max_layers": params.max_layers,
        }
    return {
        "p1": params.p1, "p2": params.p2, "p3": params.p3, "p4": params.p4,
        "eps1": params.eps1, "eps2": params.eps2,
        "kernel": params.kernel.kind, "tau": params.kernel.tau,
    }


def _train_and_eval(params, ds: data_mod.Dataset) -> tuple[MetricsReport, object]:
    t0 = time.perf_counter()
    model = fit(ds.train, params)
    seconds = time.perf_counter() - t0
    yhat = predict(model, ds.test.a)
    sv = model.support_vector_count()
    return metrics(ds.test.y, yhat, train_seconds=seconds, sv_count=sv), model


_METRIC_FIELDS = tuple(f.name for f in fields(MetricsReport))


def _aggregate(reports: list[MetricsReport]) -> tuple[dict, dict | None]:
    mean, std = {}, {}
    for name in _METRIC_FIELDS:
        values = [getattr(r, name) for r in reports]
        if any(v is None for v in values):
            mean[name], std[name] = None, None
            continue
        arr = np.asarray(values, dtype=float)
        mean[name] = float(arr.mean())
        std[name] = float(arr.std(ddof=1)) if arr.size > 1 else None
    return mean, (std if len(reports) > 1 else None)


def _failure(dataset: str, kind: str, stage: str, exc: Exception) -> dict:
    return {"dataset": dataset, "regressor": kind, "stage": stage,
            "error": f"{type(exc).__name__}: {exc}"}


def run_benchmark(suite: SuiteSpec) -> BenchmarkResult:
    """Execute the suite; partial results carry failure annotations."""
    rows: list[PairResult] = []
    failures: list[dict] = []
    for dataset_name in suite.datasets:
        ds0 = _dataset_for(dataset_name, suite.base_seed, suite)
        for kind in suite.regressors:
            try:
                params, _ = grid_search(
                    ds0, kind, suite.grid, suite.base_seed,
                    hierarchy_base=suite.hierarchy_base,
                )
            except TRAINING_ERRORS as exc:  # annotate and continue
                failures.append(_failure(dataset_name, kind, "grid_search", exc))
                continue
            reports: list[MetricsReport] = []
            last_model = None
            last_ds = None
            for k in range(suite.n_seeds):
                ds_k = _dataset_for(dataset_name, suite.base_seed + k, suite)
                try:
                    report, model = _train_and_eval(params, ds_k)
                except TRAINING_ERRORS as exc:
                    failures.append(_failure(dataset_name, kind, f"seed_{k}", exc))
                    continue
                reports.append(report)
                last_model, last_ds = model, ds_k
            if not reports:
                continue
            mean, std = _aggregate(reports)
            rows.append(
                PairResult(
                    dataset=dataset_name,
                    regressor=kind,
                    chosen_parameters=_chosen_payload(params),
                    per_seed=reports,
                    mean=mean,
                    std=std,
                )
            )
            if suite.outdir is not None and last_model is not None:
                _write_curve(suite.outdir, dataset_name, kind, last_model, last_ds)

    result = BenchmarkResult(rows, machine_fingerprint(), failures)
    if suite.outdir is not None:
        write_reports(result, suite.outdir)
    return result


def _write_curve(outdir: str, dataset: str, kind: str, model, ds) -> None:
    if ds.test.d != 1:
        return
    order = np.argsort(ds.test.a[:, 0])
    x = ds.test.a[order]
    y = ds.test.y[order]
    yhat = np.atleast_1d(predict(model, x))
    path = Path(outdir) / f"curve_{dataset}_{kind}.csv"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["x", "y", "yhat"])
        for xi, yi, pi in zip(x[:, 0], y, yhat):
            writer.writerow([repr(float(xi)), repr(float(yi)), repr(float(pi))])


def _fmt(value, width=12) -> str:
    if value is None:
        return "n/a".rjust(width)
    return f"{value:.4f}".rjust(width)


def _fmt_pm(mean, std, width=12) -> str:
    if mean is None:
        return "n/a".rjust(width + 9)
    if std is None:
        return _fmt(mean, width + 9)
    return f"{mean:.4f} ± {std:.4f}".rjust(width + 9)


def format_table(result: BenchmarkResult) -> str:
    """Aligned-column comparison table, one row per (dataset, regressor)."""
    lines = [
        "Benchmark results (timing covers training only; grid search excluded)",
        METRIC_DEFINITIONS,
        "",
        f"{'Dataset':<18}{'Regressor':<12}{'SSE':>21}{'NMSE':>21}"
        f"{'R^2':>21}{'MAPE':>21}{'CPU(sec)':>12}",
    ]
    for row in result.rows:
        std = row.std or {}
        lines.append(
            f"{row.dataset:<18}"
            f"{REGRESSOR_KINDS[row.regressor]:<12}"
            f"{_fmt_pm(row.mean['sse'], std.get('sse'))}"
            f"{_fmt_pm(row.mean['nmse'], std.get('nmse'))}"
            f"{_fmt_pm(row.mean['r2'], std.get('r2'))}"
            f"{_fmt_pm(row.mean['mape'], std.get('mape'))}"
            f"{_fmt(row.mean['train_seconds'])}"
        )
    for failure in result.failures:
        lines.append(f"FAILED {failure}")
    return "\n".join(lines) + "\n"


def result_payload(result: BenchmarkResult) -> dict:
    return {"metric_definitions": METRIC_DEFINITIONS, **asdict(result)}


def write_reports(result: BenchmarkResult, outdir: str) -> None:
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "report.json", "w", encoding="utf-8") as handle:
        json.dump(result_payload(result), handle, indent=2, sort_keys=True)
    with open(out / "report.txt", "w", encoding="utf-8") as handle:
        handle.write(format_table(result))
