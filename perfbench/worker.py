"""Run one benchmark workload in this process and print its report.

run.py starts this file in a fresh interpreter whose environment has the BLAS
thread variables removed and ``src`` on ``PYTHONPATH``.  The last line printed
is the JSON result.  ``--probe-import`` only prints how long the imports took.
"""

import time

_T0 = time.perf_counter()
import scipy.linalg  # noqa: E402,F401 -- twinreg.qp imports it on first solve
import twinreg  # noqa: E402,F401

IMPORT_S = time.perf_counter() - _T0

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from twinreg.benchmark import SuiteSpec  # noqa: E402
from twinreg.hierarchy import HierarchyConfig  # noqa: E402
from twinreg.search import GridSpec  # noqa: E402

import stats  # noqa: E402
from run import THREAD_VARS  # noqa: E402
from tracer import END, START  # noqa: E402
from layers import (  # noqa: E402
    LayerTrace,
    cell_seconds,
    hierarchy_layer_rows,
    rep_segments,
    residual_variance_monotone,
    twinreg_module as module,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
SETUP_REPEATS = 3
EVAL_SEEDS = 10
NMSE_BOUND_SINC = 0.05  # acceptance criterion 6 holds it at base seed 0


@dataclass(frozen=True)
class GridWorkload:
    """run_benchmark for one dataset and regressor, one rep per base seed.

    ``pool`` is the fixed set of base seeds; ``--seed`` draws the order of
    each pass over it.  ``pass_s`` is the nominal time of one pass on a
    2-core machine.  It turns ``--seconds`` into a fixed pass count, so that
    every commit measured with the same arguments does the same work on the
    same datasets.
    """

    dataset: str
    regressor: str
    grid: GridSpec
    hierarchy: HierarchyConfig
    pool: tuple[int, ...]
    pass_s: float


GRID_WORKLOADS = {
    # Paper range 2^-9..2^9, every sixth exponent: 48 cells per rep.  The
    # time of one rep varies 20x with the dataset, so the datasets are a
    # fixed pool of base seeds and --seed only orders each pass over it.
    # (Base seeds drawn from --seed made wall_s follow the seed: the median
    # of 42 reps spread 0.23-0.30 over ten seeds.)
    "tsvr-grid-pow23": GridWorkload(
        "power_two_thirds", "tsvr", GridSpec(exponent_step=6), HierarchyConfig(),
        tuple(range(1, 13)), 7.0,
    ),
    # The acceptance grid: 40 cells of a 6-layer hierarchy, one rep per run,
    # on base seed 0, where acceptance criterion 6 holds.  The tuned config
    # follows the dataset and sets the evaluation time (base seeds 1-10
    # spread wall_s 0.11-0.13; base seed 0 in every run, 0.03).
    "hftsvr-grid-sinc": GridWorkload(
        "sinc", "hftsvr", GridSpec(exponent_step=2), HierarchyConfig(max_layers=6), (0,), 30.0
    ),
}

SERVE_WORKLOAD = "hftsvr-serve-sinc"
SERVE_CONFIG = HierarchyConfig(max_layers=6, eps=0.1)
# The served models are fixed: one per sinc data seed 0..7.  Their total basis
# ranges 361-984 points across data seeds, so models drawn from --seed would
# make every serve metric follow the seed; --seed draws the request stream.
SERVE_MODELS = 8           # also the setup repeats
SERVE_BATCHES = (2, 64, 4096)  # metrics() needs two points: one has zero variance
SERVE_PER_MODEL = 3        # requests of each batch size per model in one pass
SERVE_PASS_S = 0.9         # nominal seconds per pass on a 2-core machine


def fingerprint() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        # The ceiling keeps git from looking above the checkout for a repository.
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
        commit = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
        "commit": commit,
    }


class Run:
    """Counts, checks and report lines collected while a workload runs."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.checks_failed: list[str] = []
        self.failures: list[str] = []  # failed operations that are not check failures
        self.lines: list[str] = []
        self.selected: dict[str, dict] = {}  # base seed -> selected cell, test NMSE

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.failed += 1
            self.checks_failed.append(what)


# --- grid workloads -------------------------------------------------------

def expected_cells(wl: GridWorkload) -> int | None:
    if wl.regressor != "tsvr":
        return None
    # p1=p2, p3=p4 and eps1=eps2 are tied by default: powers^2 x eps values.
    return len(wl.grid.power_grid()) ** 2 * len(wl.grid.eps_grid(1.0))


def grid_setup(wl: GridWorkload, seeds: range) -> float:
    """Generate every dataset the reps use (the evaluation regenerates them)."""
    data = module("data")
    spec = {"power_two_thirds": data.power_two_thirds_spec, "sinc": data.sinc_spec}
    t0 = time.perf_counter()
    for seed in seeds:
        data.generate(spec[wl.dataset](seed))
    return time.perf_counter() - t0


def grid_rep(wl: GridWorkload, base_seed: int, trace: LayerTrace, run: Run) -> dict:
    suite = SuiteSpec(
        datasets=(wl.dataset,), regressors=(wl.regressor,), n_seeds=EVAL_SEEDS,
        base_seed=base_seed, grid=wl.grid, hierarchy_base=wl.hierarchy,
    )
    first_span = len(trace.tracer.spans)
    t0 = time.perf_counter()
    result = module("benchmark").run_benchmark(suite)
    t1 = time.perf_counter()
    wall = t1 - t0

    tuned = [(i, report) for i, report in trace.tuning if i >= first_span]
    hierarchies = [report for i, report in trace.hierarchies if i >= first_span]
    rep = {
        "base_seed": base_seed, "wall_s": wall, "grid_s": None,
        "segments": rep_segments(trace.tracer.spans, first_span, t0, t1),
    }
    # run_benchmark records a failed evaluation seed and goes on, as documented;
    # it counts as a failed operation.  No tuned model at all is a wrong output.
    run.attempted += EVAL_SEEDS
    run.failed += len(result.failures)
    run.failures += [f"seed {base_seed}: {f['stage']}: {f['error']}" for f in result.failures]
    if not (len(result.rows) == 1 and len(tuned) == 1):
        run.check(False, f"seed {base_seed}: no tuned, evaluated model")
        return rep
    grid_index, tuning = tuned[0]
    row = result.rows[0]
    spans = trace.tracer.spans
    rep.update(
        grid_s=spans[grid_index][END] - spans[grid_index][START],
        cell_s=cell_seconds(spans, grid_index),
        cells=len(tuning.cells) + len(tuning.failures),
        eval_train_s=[r.train_seconds for r in row.per_seed],
        nmse_mean=row.mean["nmse"],
        sv_mean=row.mean["sv_count"],
        cell=list(tuning.best_cell["key"]),
    )
    run.attempted += rep["cells"]
    run.failed += len(tuning.failures)
    run.failures += [f"seed {base_seed}: cell {f['key']}: {f['error']}" for f in tuning.failures]
    expected = expected_cells(wl)
    if expected is not None:
        run.check(rep["cells"] == expected,
                  f"seed {base_seed}: {rep['cells']} of {expected} cells scored or failed")
    if wl.regressor == "hftsvr":
        if row.mean["nmse"] > NMSE_BOUND_SINC:
            # A quality target, not an invariant: it counts as a failed
            # operation but does not make the outputs wrong.
            run.failed += 1
            run.failures.append(
                f"seed {base_seed}: quality bound missed: test NMSE "
                f"{row.mean['nmse']:.4f} > {NMSE_BOUND_SINC}"
            )
        run.check(all(residual_variance_monotone(r) for r in hierarchies),
                  f"seed {base_seed}: residual variance rose across layers")
    return rep


def grid_pass(wl: GridWorkload, pool: list[int], rng, trace: LayerTrace, run: Run) -> dict:
    """One rep per base seed of the pool, in a seeded order."""
    return {pool[i]: grid_rep(wl, pool[i], trace, run) for i in rng.permutation(len(pool))}


def run_grid(wl: GridWorkload, seed: int, seconds: int, traced: bool, run: Run):
    pool = list(wl.pool)
    passes = max(1, round(seconds / wl.pass_s))
    if traced:
        passes = max(1, passes // 2)  # untraced passes, then one traced pass
    rng = np.random.default_rng(seed)
    setup = [grid_setup(wl, range(min(pool), max(pool) + EVAL_SEEDS))
             for _ in range(SETUP_REPEATS)]

    probe = LayerTrace(probe=True)
    try:
        measured = [grid_pass(wl, pool, rng, probe, run) for _ in range(passes)]
    finally:
        probe.restore()
    pass_walls = [sum(r["wall_s"] for r in reps.values()) for reps in measured]

    layer = None
    if traced:
        full = LayerTrace(probe=False)
        try:
            traced_pass = grid_pass(wl, pool, rng, full, run)
        finally:
            full.restore()
        layer = full.layer_metrics(full.eval_reports())
        traced_wall = sum(r["wall_s"] for r in traced_pass.values())
        layer["trace.overhead_s"] = traced_wall - np.median(pass_walls)
        run.lines.append(share_line(layer, traced_wall))

    # The same rep repeats in every pass, and this machine's speed drifts, so
    # each segment of a rep (a grid cell, the final refit, an evaluation fit)
    # and each grid cell is taken at its fastest time over the passes, as
    # serve takes each request; the tail keeps every sample.
    best_s = []
    for s in pool:
        per_pass = [reps[s]["segments"] for reps in measured]
        if len({len(segments) for segments in per_pass}) == 1:
            best_s.append(sum(min(times) for times in zip(*per_pass)))
        else:  # the passes did different work; the check below reports it
            best_s.append(min(reps[s]["wall_s"] for reps in measured))
    done = [s for s in pool if all(reps[s]["grid_s"] for reps in measured)]
    cells_ms, best_cells_ms = [], []
    for s in done:
        per_pass = [reps[s]["cell_s"] for reps in measured]
        cells_ms += [1e3 * c for cells in per_pass for c in cells]
        if len({len(cells) for cells in per_pass}) == 1:
            best_cells_ms += [1e3 * min(c) for c in zip(*per_pass)]
        run.check(
            all((reps[s]["cell"], reps[s]["nmse_mean"])
                == (measured[0][s]["cell"], measured[0][s]["nmse_mean"]) for reps in measured),
            f"seed {s}: passes over the same data selected different cells or scores",
        )
    tail_p, tail_ms = tail(cells_ms)
    first = [measured[0][s] for s in done]
    cells_per_s = np.median([reps[s]["cells"] / reps[s]["grid_s"]
                             for reps in measured for s in done])
    train_s = np.median([t for reps in measured for s in done for t in reps[s]["eval_train_s"]])
    e2e = {
        "wall_s": sum(best_s),
        "item_ms_p50": np.median(best_cells_ms),
        "item_ms_tail": tail_ms,
    }
    nmse = np.median([r["nmse_mean"] for r in first])
    sv = np.median([r["sv_mean"] for r in first])
    run.lines += [
        f"passes: {passes} over base seeds {','.join(map(str, pool))} "
        f"({EVAL_SEEDS} evaluation seeds each), order drawn from seed {seed}",
        "pass wall_s: " + " ".join(f"{w:.3f}" for w in pass_walls),
        "rep best wall_s: " + " ".join(f"{s}:{w:.3f}" for s, w in zip(pool, best_s)),
        metric_line("wall_s", e2e["wall_s"], "s", len(best_s),
                    "time to tuned, evaluated models for the pool, each segment at its fastest"),
        metric_line("wall_s_median_pass", np.median(pass_walls), "s", len(pass_walls),
                    "not in BENCHMARK.json"),
        metric_line("cells_per_s", cells_per_s, "1/s", passes * len(done),
                    "median over reps"),
        metric_line("cell_ms_p50", e2e["item_ms_p50"], "ms", len(best_cells_ms),
                    "median over cells of each one's fastest time"),
        metric_line("cell_ms_tail", tail_ms, "ms", len(cells_ms),
                    f"p{tail_p:g} of every cell of every pass"),
        metric_line("eval_train_s_p50", train_s, "s", passes * len(done) * EVAL_SEEDS,
                    "CPU(sec) column"),
        metric_line("test_nmse_mean", nmse, "-", len(done), "median over reps of the 10-seed mean"),
        metric_line("sv_count_mean", sv, "count", len(done),
                    "median over reps of the 10-seed mean"),
    ]
    run.selected = {
        str(s): {"cell": r["cell"], "test_nmse_mean": r["nmse_mean"]} for s, r in zip(done, first)
    }
    return e2e, setup, layer


# --- serve workload -------------------------------------------------------

@dataclass(frozen=True)
class Request:
    model: int
    x: np.ndarray
    y: np.ndarray
    expected: np.ndarray


def serve_setup(seed: int, path: Path) -> tuple[object, float, float]:
    """Generate, train and save one served model: (model, setup_s, train_s)."""
    data, hier, model_io = module("data"), module("hierarchy"), module("model_io")
    t0 = time.perf_counter()
    ds = data.generate(data.sinc_spec(seed))
    t1 = time.perf_counter()
    model = hier.train_hierarchy(ds.train, SERVE_CONFIG)
    t2 = time.perf_counter()
    model_io.save_model(model, path)
    return model, time.perf_counter() - t0, t2 - t1


def serve_requests(seed: int, models: list) -> list[Request]:
    """Every model gets the same number of requests of each batch size, in a
    seeded order, so the mix does not depend on which model is largest."""
    data, hier = module("data"), module("hierarchy")
    spec = data.sinc_spec(seed)
    rng = np.random.default_rng(seed)
    plan = [(size, k) for size in SERVE_BATCHES for k in range(len(models))] * SERVE_PER_MODEL
    requests = []
    for i in rng.permutation(len(plan)):
        size, k = plan[i]
        x = rng.uniform(spec.domain_low, spec.domain_high, (size, 1))
        y = np.sinc(x[:, 0] / np.pi)
        requests.append(Request(k, x, y, hier.predict_hierarchy(models[k], x)))
    return requests


def serve_pass(requests: list[Request], paths: list[Path], run: Run) -> tuple[float, list[float]]:
    """One closed-loop pass: each request waits for the previous reply."""
    model_io, hier, metrics = module("model_io"), module("hierarchy"), module("metrics")
    times = []
    run.attempted += len(requests)
    t_pass = time.perf_counter()
    for req in requests:
        t0 = time.perf_counter()
        try:
            model = model_io.load_model(paths[req.model])
            yhat = hier.predict_hierarchy(model, req.x)
            metrics.metrics(req.y, yhat)
        except Exception as exc:  # noqa: BLE001 - a failed request is counted, not fatal
            times.append(time.perf_counter() - t0)
            run.failed += 1
            run.failures.append(f"request: {exc!r}")
            continue
        times.append(time.perf_counter() - t0)
        run.check(np.array_equal(yhat, req.expected),
                  "loaded model predicts differently from the trained one")
    return time.perf_counter() - t_pass, times


def run_serve(seed: int, seconds: int, traced: bool, run: Run):
    passes = max(1, round(seconds / SERVE_PASS_S))
    if traced:
        passes = max(1, passes // 2)
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        paths = [workdir / f"model{k}.json" for k in range(SERVE_MODELS)]
        built = [serve_setup(k, paths[k]) for k in range(SERVE_MODELS)]
        models = [model for model, _, _ in built]
        requests = serve_requests(seed, models)
        points = sum(req.x.shape[0] for req in requests)

        measured = [serve_pass(requests, paths, run) for _ in range(passes)]
        layer = None
        if traced:
            full = LayerTrace(probe=False)
            try:
                # Saved again so that the trace records model_io.save.
                for model, path in zip(models, paths):
                    module("model_io").save_model(model, path)
                traced_passes = [serve_pass(requests, paths, run) for _ in range(passes)]
            finally:
                full.restore()
            layer = full.layer_metrics([])
            layer.update(hierarchy_layer_rows([m.training_report for m in models]))
            layer["trace.overhead_s"] = (
                sum(w for w, _ in traced_passes) - sum(w for w, _ in measured)
            )
            run.lines.append(share_line(layer, sum(w for w, _ in traced_passes)))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # Every pass repeats the same requests, and this machine's speed drifts by
    # about 25 % over tens of seconds, sometimes for a whole run.  Over ten
    # runs the median pass spread 0.24 of its median, and so did the fastest
    # pass.  Each request's fastest time over the passes is steadier (0.08),
    # so the typical figures are built from those, as timeit reports a best
    # time; the tail keeps every sample.
    walls = [wall for wall, _ in measured]
    request_ms = [1e3 * t for _, times in measured for t in times]
    best_s = [min(per_pass) for per_pass in zip(*(times for _, times in measured))]
    tail_p, tail_ms = tail(request_ms)
    train_s = np.median([t for _, _, t in built])
    e2e = {
        "wall_s": sum(best_s),
        "item_ms_p50": 1e3 * np.median(best_s),
        "item_ms_tail": tail_ms,
    }
    run.lines += [
        f"passes: {passes} of {len(requests)} requests ({points} points), "
        f"closed loop, 1 client, {SERVE_MODELS} models (data seeds 0..{SERVE_MODELS - 1})",
        "pass wall_s: " + " ".join(f"{w:.3f}" for w in walls),
        metric_line("wall_s", e2e["wall_s"], "s", len(best_s),
                    "request set served with each request at its fastest time"),
        metric_line("wall_s_median_pass", np.median(walls), "s", len(walls),
                    "not in BENCHMARK.json"),
        metric_line("points_per_s", points / e2e["wall_s"], "1/s", len(best_s),
                    "points / wall_s"),
        metric_line("request_ms_p50", e2e["item_ms_p50"], "ms", len(best_s),
                    "median over requests of each one's fastest time"),
        metric_line("request_ms_p50_all", np.median(request_ms), "ms", len(request_ms),
                    "not in BENCHMARK.json"),
        metric_line("request_ms_tail", tail_ms, "ms", len(request_ms), f"p{tail_p:g}"),
        metric_line("model_train_s_p50", train_s, "s", len(built),
                    "setup training of the served models"),
    ]
    return e2e, [s for _, s, _ in built], layer


# --- report ---------------------------------------------------------------

def tail(values) -> tuple[float, float]:
    """``(p, value)`` for the tail percentile of the samples."""
    p = stats.tail_percentile(len(values))
    return p, float(np.percentile(values, p))


def metric_line(name, value, unit, n, note="") -> str:
    return f"  {name} = {value:.6g} {unit} (n={n}{', ' + note if note else ''})"


SHARE_GROUPS = {
    "qp (box + polish self)": ("qp.box.self_s", "qp.polish.self_s"),
    "tsvr assembly + recovery": (
        "tsvr.assemble.self_s", "tsvr.assemble.spd_s", "tsvr.recover.spd_s"
    ),
    "tsvr train/design self": ("tsvr.train.self_s", "tsvr.design.self_s"),
    "prediction": ("tsvr.predict.self_s", "hierarchy.predict.self_s"),
    "model_io load": ("model_io.load.self_s",),
    "metrics": ("metrics.self_s",),
}


def share_line(layer: dict, traced_wall: float) -> str:
    shares = {
        group: sum(layer[k] for k in keys) / traced_wall for group, keys in SHARE_GROUPS.items()
    }
    return "traced share of wall: " + ", ".join(f"{g} {100 * v:.1f}%" for g, v in shares.items())


def load_reference() -> dict:
    try:
        return json.loads(REFERENCE.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return {}


def quality_lines(name: str, selected: dict) -> list[str]:
    """The selected cell of each rep, and where it differs from the reference."""
    reference = load_reference().get(name, {})
    lines = ["selected cells: " + json.dumps(selected)]
    for seed, now in selected.items():
        ref = reference.get(seed)
        if ref is None:
            continue
        same_nmse = np.isclose(ref["test_nmse_mean"], now["test_nmse_mean"], rtol=1e-6, atol=0)
        if ref["cell"] != now["cell"] or not same_nmse:
            lines.append(
                f"quality moved: {name} base seed {seed}: cell {ref['cell']} -> {now['cell']}, "
                f"test NMSE {ref['test_nmse_mean']:.6g} -> {now['test_nmse_mean']:.6g}"
            )
    missing = sorted(set(selected) - set(reference), key=int)
    if missing:
        lines.append(f"no reference cell for base seeds {','.join(missing)}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=[*GRID_WORKLOADS, SERVE_WORKLOAD])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--import-samples", default="")
    parser.add_argument("--probe-import", action="store_true")
    args = parser.parse_args(argv)
    if args.probe_import:
        print(repr(IMPORT_S))
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    run = Run()
    traced = bool(args.trace)
    if args.workload == SERVE_WORKLOAD:
        e2e, setup, layer = run_serve(args.seed, args.seconds, traced, run)
    else:
        wl = GRID_WORKLOADS[args.workload]
        e2e, setup, layer = run_grid(wl, args.seed, args.seconds, traced, run)

    imports = [IMPORT_S] + [float(s) for s in args.import_samples.split(",") if s]
    e2e["setup_s"] = np.median(imports) + np.median(setup)
    e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print("fingerprint: " + json.dumps(fingerprint(), sort_keys=True))
    for line in run.lines:
        print(line)
    if run.selected:
        for line in quality_lines(args.workload, run.selected):
            print(line)
    print(metric_line("setup_s", e2e["setup_s"], "s", len(imports),
                      f"median import of {len(imports)} + median setup of {len(setup)}"))
    print(metric_line("peak_rss_mb", e2e["peak_rss_mb"], "MB", 1))
    print(metric_line("failed_ratio", run.failed / run.attempted, "ratio", run.attempted))
    for what in run.failures[:20]:
        print(f"operation failed: {what}")
    for what in run.checks_failed[:20]:
        print(f"CHECK FAILED: {what}")

    wanted = spec["per_layer"] if traced else spec["end_to_end"]
    values = layer if traced else e2e
    if traced:
        for name in sorted(layer):
            print(f"  {name} = {layer[name]:.6g}")
    result = {
        "correct": not run.checks_failed,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in wanted
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
