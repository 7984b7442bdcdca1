"""Command-line interface.

Subcommands: generate, train, predict, evaluate, gridsearch, benchmark.
Exit codes: 0 success, 1 usage error, 2 data error, 3 training failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import asdict

import numpy as np

from . import data as data_mod
from . import model_io
from . import tsvr as tsvr_mod
from .benchmark import format_table, result_payload, run_benchmark
from .config import (
    ConfigError,
    grid_spec_from,
    hierarchy_config_from,
    suite_from,
    tsvr_params_from,
)
from .fuzzy import defuzzify_set
from .hierarchy import HierarchyConfig
from .metrics import LengthMismatch, ZeroVarianceTargets, metrics
from .search import (
    REGRESSOR_KINDS,
    TRAINING_ERRORS,
    GridSpec,
    fit,
    grid_search,
    predict,
)
from .tsvr import DimensionMismatch, NonFiniteVariance, TsvrParams

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_TRAINING = 3

_DATA_ERRORS = (
    data_mod.DataError,
    DimensionMismatch,
    LengthMismatch,
    ZeroVarianceTargets,
    NonFiniteVariance,
    model_io.ModelIOError,
    model_io.SchemaVersionMismatch,
    model_io.CorruptModel,
    OSError,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        raise SystemExit(self._usage_exit(message))

    def _usage_exit(self, message) -> int:
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        return EXIT_USAGE


def _load_training(path: str, schema: str) -> tsvr_mod.TrainingSet:
    loaded = data_mod.load_csv(path, schema)
    if schema == "fuzzy":
        return defuzzify_set(loaded)
    return loaded


def _cmd_generate(args) -> int:
    spec = data_mod.SyntheticSpec(
        function=args.function,
        domain_low=args.domain[0],
        domain_high=args.domain[1],
        noise_sigma=args.noise_sigma,
        n_train=args.n_train,
        n_test=args.n_test,
        seed=args.seed,
    )
    ds = data_mod.generate(spec)
    data_mod.save_dataset(ds, args.out)
    print(f"wrote {args.out}_train.csv, {args.out}_test.csv, {args.out}_provenance.json")
    return EXIT_OK


def _cmd_train(args) -> int:
    ts = _load_training(args.data, args.schema)
    if args.model == "hftsvr":
        params = hierarchy_config_from(args.config) if args.config else HierarchyConfig()
    else:  # tsvr and ftsvr share the crisp-on-centers training path
        params = tsvr_params_from(args.config) if args.config else TsvrParams()
    t0 = time.perf_counter()
    model = fit(ts, params)
    seconds = time.perf_counter() - t0
    size = f"{len(model.layers)} layers" if args.model == "hftsvr" else f"m={ts.m}"
    print(f"trained {args.model}: {size} in {seconds:.3f}s")
    model_io.save_model(model, args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_predict(args) -> int:
    model = model_io.load_model(args.model_file)
    if args.point is not None:
        x = np.array([float(tok) for tok in args.point.split(",")])
        print(repr(float(predict(model, x))))
        return EXIT_OK
    ts = _load_training(args.data, args.schema)
    yhat = np.atleast_1d(predict(model, ts.a))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write("yhat\n")
            handle.writelines(f"{float(v)!r}\n" for v in yhat)
        print(f"wrote {args.out}")
    else:
        for v in yhat:
            print(repr(float(v)))
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    model = model_io.load_model(args.model_file)
    ts = _load_training(args.data, args.schema)
    yhat = np.atleast_1d(predict(model, ts.a))
    with np.errstate(over="ignore", invalid="ignore"):
        payload = asdict(metrics(ts.y, yhat))
    if not all(math.isfinite(v) for v in payload.values() if v is not None):
        raise data_mod.DataError(f"{args.data}: the metrics overflow a float")
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)
    return EXIT_OK


def _cmd_gridsearch(args) -> int:
    ts = _load_training(args.data, args.schema)
    ds = data_mod.holdout(ts, args.seed, {"kind": "cli", "path": args.data})
    grid = GridSpec(exponent_low=args.range[0], exponent_high=args.range[1],
                    exponent_step=args.step, objective=args.objective)
    base = HierarchyConfig()
    if args.config:  # the file's keys override the flags
        grid = grid_spec_from(args.config, grid)
        base = hierarchy_config_from(args.config)
    params, report = grid_search(ds, args.model, grid, args.seed, hierarchy_base=base)
    best = {
        "regressor": args.model,
        "best_key": list(report.best_cell["key"]),
        "tuning_objective": report.best_cell["score"],
        "cells_evaluated": len(report.cells),
        "cells_failed": len(report.failures),
    }
    print(json.dumps(best, indent=2, sort_keys=True))
    if args.out:
        model_io.save_model(report.final_model, args.out)
        print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_benchmark(args) -> int:
    suite = suite_from(args.suite)
    result = run_benchmark(suite)
    print(format_table(result), end="")
    if suite.outdir is None:
        print(json.dumps(result_payload(result), indent=2, sort_keys=True))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="twinreg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic dataset to CSV")
    p.add_argument("--function", choices=sorted(data_mod.SYNTHETIC_FUNCTIONS),
                   required=True)
    p.add_argument("--domain", type=float, nargs=2, metavar=("LOW", "HIGH"),
                   required=True)
    p.add_argument("--noise-sigma", type=float, default=0.2)
    p.add_argument("--n-train", type=int, default=200)
    p.add_argument("--n-test", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output basename")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("train", help="train a model on a CSV dataset")
    p.add_argument("--model", choices=REGRESSOR_KINDS, required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--schema", choices=("crisp", "fuzzy"), default="crisp")
    p.add_argument("--config", help="INI file with [tsvr]/[kernel] or [hierarchy]; without "
                   "it, the dataclass defaults, as an empty [tsvr] gives (eps1 = eps2 = 0)")
    p.add_argument("--out", required=True, help="model file path")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("predict", help="predict with a saved model")
    p.add_argument("--model-file", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--data", help="CSV of query points")
    group.add_argument("--point", help="comma-separated coordinates")
    p.add_argument("--schema", choices=("crisp", "fuzzy"), default="crisp")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("evaluate", help="score a saved model on a CSV dataset")
    p.add_argument("--model-file", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--schema", choices=("crisp", "fuzzy"), default="crisp")
    p.add_argument("--out", help="metrics JSON path")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("gridsearch", help="grid-search hyperparameters")
    p.add_argument("--model", choices=REGRESSOR_KINDS, required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--schema", choices=("crisp", "fuzzy"), default="crisp")
    p.add_argument("--range", type=int, nargs=2, default=(-9, 9),
                   metavar=("LOW", "HIGH"))
    p.add_argument("--step", type=int, default=1)
    p.add_argument("--objective", choices=("nmse", "sse"), default="nmse")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", help="INI file whose [grid], [kernel] and [hierarchy] "
                   "keys override the flags and defaults")
    p.add_argument("--out", help="save the retrained winner here")
    p.set_defaults(func=_cmd_gridsearch)

    p = sub.add_parser("benchmark", help="run a benchmark suite")
    p.add_argument("--suite", required=True, help="suite INI file")
    p.set_defaults(func=_cmd_benchmark)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:  # the reader closed stdout early, as `head` does
        with open(os.devnull, "w") as devnull:  # so exit's flush writes nowhere
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return EXIT_OK
    except ConfigError as exc:
        print(f"twinreg: config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _DATA_ERRORS as exc:
        print(f"twinreg: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except TRAINING_ERRORS as exc:
        print(f"twinreg: training failure: {exc}", file=sys.stderr)
        return EXIT_TRAINING
    except ValueError as exc:
        print(f"twinreg: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
