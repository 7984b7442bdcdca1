"""Tests for the benchmark's own tracer, layer wiring and tail rule."""

import importlib
import types

import pytest

import stats
from layers import LayerTrace, cell_seconds, rep_segments
from tracer import Tracer, summarize


def fake_clock(times):
    ticks = iter(times)
    return lambda: next(ticks)


def test_self_time_of_nested_fake_calls():
    mod = types.SimpleNamespace()
    mod.inner = lambda fail=False: (_ for _ in ()).throw(ValueError()) if fail else 1

    def outer():
        mod.inner()
        try:
            mod.inner(fail=True)
        except ValueError:
            pass
        return 2

    mod.outer = outer
    # outer [0, 10]; inner [1, 3] and [4, 8] (raises); clock read at each edge.
    tracer = Tracer(clock=fake_clock([0.0, 1.0, 3.0, 4.0, 8.0, 10.0]))
    with tracer:
        tracer.wrap(mod, "inner", "inner")
        tracer.wrap(mod, "outer", "outer")
        assert mod.outer() == 2

    assert [s[3] for s in tracer.spans] == [-1, 0, 0]
    by_name, by_parent = summarize(tracer.spans)
    assert by_name["outer"].total_s == 10.0
    assert by_name["outer"].self_s == 10.0 - 2.0 - 4.0
    assert by_name["inner"].calls == 2
    assert by_name["inner"].self_s == 6.0
    assert by_name["inner"].raised == 1
    assert by_name["outer"].raised == 0
    assert by_parent[("inner", "outer")].total_s == 6.0
    assert by_parent[("outer", None)].calls == 1


def test_failed_cells_get_their_own_time():
    now = [0.0]
    mod = types.SimpleNamespace()

    def fit(cell):
        now[0] += 10.0 * (cell + 1)
        if cell in (2, 3):  # the last cell fails too
            raise ArithmeticError(cell)

    def score():
        now[0] += 1.0

    def grid(cells):
        now[0] += 100.0  # split and candidate set-up belong to no cell
        for cell in cells:
            try:
                mod.fit(cell)
                mod.score()
            except ArithmeticError:
                continue
        mod.fit(0)  # the final refit

    mod.fit, mod.score, mod.grid = fit, score, grid
    tracer = Tracer(clock=lambda: now[0])
    with tracer:
        tracer.wrap(mod, "grid", "search.grid")
        tracer.wrap(mod, "fit", "tsvr.train")
        tracer.wrap(mod, "score", "metrics")
        mod.grid(range(4))

    assert cell_seconds(tracer.spans, 0) == [11.0, 21.0, 30.0, 40.0]


def test_rep_segments_cut_at_outermost_fits():
    now = [0.0]
    mod = types.SimpleNamespace()

    def inner_fit():
        now[0] += 1.0

    def fit(seconds):
        now[0] += 1.0
        mod.inner_fit()  # a layer fit inside a hierarchy fit cuts nothing
        now[0] += seconds

    def grid():
        now[0] += 5.0
        mod.fit(10.0)
        mod.fit(20.0)

    def run():
        now[0] += 3.0
        mod.grid()
        mod.fit(30.0)  # an evaluation fit, outside the search
        now[0] += 4.0

    mod.inner_fit, mod.fit, mod.grid = inner_fit, fit, grid
    tracer = Tracer(clock=lambda: now[0])
    with tracer:
        tracer.wrap(mod, "grid", "search.grid")
        tracer.wrap(mod, "fit", "hierarchy.train")
        tracer.wrap(mod, "inner_fit", "tsvr.train")
        run()

    segments = rep_segments(tracer.spans, 0, 0.0, now[0])
    assert segments == [8.0, 12.0, 22.0, 36.0]
    assert sum(segments) == now[0]


def test_originals_restored_after_traced_run(tmp_path):
    from twinreg.benchmark import SuiteSpec
    from twinreg.hierarchy import HierarchyConfig
    from twinreg.search import GridSpec

    names = ("benchmark", "search", "hierarchy", "tsvr", "qp", "model_io", "metrics", "data")
    modules = {n: importlib.import_module(f"twinreg.{n}") for n in names}
    before = {n: dict(vars(m)) for n, m in modules.items()}

    trace = LayerTrace(probe=False)
    try:
        assert modules["tsvr"].solve_spd is not before["tsvr"]["solve_spd"]
        suite = SuiteSpec(
            datasets=("power_two_thirds",), regressors=("tsvr",), n_seeds=1,
            grid=GridSpec(exponent_low=-3, exponent_high=3, exponent_step=3),
        )
        modules["benchmark"].run_benchmark(suite)
        ds = modules["data"].generate(modules["data"].sinc_spec(0, n_train=40, n_test=20))
        model = modules["hierarchy"].train_hierarchy(ds.train, HierarchyConfig(max_layers=2))
        path = tmp_path / "model.json"
        modules["model_io"].save_model(model, path)
        loaded = modules["model_io"].load_model(path)
        modules["hierarchy"].predict_hierarchy(loaded, ds.test.a)
    finally:
        trace.restore()

    for n, m in modules.items():
        assert dict(vars(m)) == before[n], f"twinreg.{n} not restored"
    _, by_parent = summarize(trace.tracer.spans)
    trains = by_parent[("tsvr.train", "benchmark.run")].calls
    fits = sum(v.calls for (name, _), v in by_parent.items() if name == "tsvr.train")
    assert trains == 1
    # Two dual Hessians and two primal recoveries per fit, told apart by parent.
    assert by_parent[("tsvr.spd", "tsvr.assemble")].calls == 2 * fits
    assert by_parent[("tsvr.spd", "tsvr.train")].calls == 2 * fits
    layer = trace.layer_metrics(trace.eval_reports())
    assert layer["search.cells"] == 3 * 3 * 2  # p1 x p3 x (0 and one eps)
    assert layer["model_io.load.calls"] == 1
    assert layer["qp.box.calls"] == 2 * fits
    (grid_index, tuning), = trace.tuning
    attempted = len(tuning.cells) + len(tuning.failures)
    assert len(cell_seconds(trace.tracer.spans, grid_index)) == attempted


@pytest.mark.parametrize(
    "n, p",
    [(20, 50.0), (39, 50.0), (40, 75.0), (100, 90.0), (200, 95.0), (999, 95.0),
     (1000, 99.0), (3610, 99.0), (10000, 99.9)],
)
def test_tail_is_highest_percentile_with_ten_beyond(n, p):
    assert stats.tail_percentile(n) == p
    assert n * (100.0 - p) / 100.0 >= 10 - 1e-9


def test_tail_needs_twenty_samples():
    with pytest.raises(ValueError):
        stats.tail_percentile(19)
