"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  The two UCI criteria run only when the raw files are supplied via
the TWINREG_SERVO_PATH / TWINREG_AUTO_PRICE_PATH environment variables.
"""

import os
import time
from dataclasses import replace

import numpy as np
import pytest

from twinreg import data as data_mod
from twinreg import fuzzy as fuzzy_mod
from twinreg import hierarchy as hier_mod
from twinreg import tsvr as tsvr_mod
from twinreg.hierarchy import HierarchyConfig
from twinreg.metrics import metrics
from twinreg.qp import solve_box_qp
from twinreg.search import GridSpec, grid_search
from twinreg.tsvr import KernelSpec, TrainingSet, TsvrParams

from oracles import box_qp_oracle, predict_components, slack_down
from test_qp import random_spd_qp

ACCEPTANCE_GRID = GridSpec(exponent_low=-9, exponent_high=9, exponent_step=2)
HIERARCHY_BASE = HierarchyConfig(max_layers=6)
N_SEEDS = 10


def report(line):
    print(f"\n{line}")


@pytest.fixture(scope="module")
def sinc_runs():
    """Tuned sinc benchmark shared by criteria 6, 7 and 8."""
    ds0 = data_mod.generate(data_mod.sinc_spec(seed=0))
    t0 = time.perf_counter()
    params, _ = grid_search(
        ds0, "hftsvr", ACCEPTANCE_GRID, seed=0, hierarchy_base=HIERARCHY_BASE
    )
    runs = []
    for k in range(N_SEEDS):
        ds = data_mod.generate(data_mod.sinc_spec(seed=k))
        model = hier_mod.train_hierarchy(ds.train, params)
        one_pass = hier_mod.train_hierarchy(
            ds.train, replace(params, pruning_enabled=False)
        )
        runs.append((ds, model, one_pass))
    elapsed = time.perf_counter() - t0
    return params, runs, elapsed


def test_criterion_1_qp_oracle_equivalence():
    rng = np.random.default_rng(12345)
    dims = [1, 2, 3, 4, 5]
    t0 = time.perf_counter()
    worst = 0.0
    for rep in range(100):
        problem = random_spd_qp(rng, dims[rep % 5], max_cond=1e4)
        sol = solve_box_qp(problem)
        point = box_qp_oracle(problem)
        worst = max(worst, abs(sol.objective - problem.objective(point)))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-4, f"objective gap {worst:.3e} exceeds 1e-4"
    assert elapsed < 10.0, f"runtime {elapsed:.1f}s exceeds 10s"
    report(f"ACCEPTANCE 1 PASS: qp oracle equivalence, worst gap "
           f"{worst:.2e} <= 1e-4 over 100 instances in {elapsed:.1f}s")


def test_criterion_2_kkt_suite():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst_stat, worst_cs = 0.0, 0.0
    for rep in range(50):
        m = int(rng.integers(2, 31))
        d = int(rng.integers(1, 5))
        kernel = (
            KernelSpec("gaussian", float(rng.uniform(0.5, 3.0)))
            if rep % 3 == 0 else KernelSpec()
        )
        ts = TrainingSet(rng.normal(size=(m, d)), 2 * rng.normal(size=m))
        params = TsvrParams(
            p1=float(2 ** rng.uniform(-3, 3)), p2=float(2 ** rng.uniform(-3, 3)),
            p3=float(2 ** rng.uniform(-6, 2)), p4=float(2 ** rng.uniform(-6, 2)),
            eps1=float(rng.uniform(0, 0.3)), eps2=float(rng.uniform(0, 0.3)),
            kernel=kernel,
        )
        model = tsvr_mod.train(ts, params)
        diag = model.diagnostics

        assert np.all(diag.alpha >= 0) and np.all(diag.alpha <= params.p1)
        assert np.all(diag.gamma >= 0) and np.all(diag.gamma <= params.p2)

        j = tsvr_mod.build_design(ts, params.kernel)
        eye = np.eye(j.shape[1])
        v1 = np.concatenate([model.w1, [model.b1]])
        v2 = np.concatenate([model.w2, [model.b2]])
        bound = 1e-7 * (1 + np.max(np.abs(ts.y)))
        r1 = float(np.max(np.abs((j.T @ j + params.p3 * eye) @ v1
                                 - j.T @ (ts.y - diag.alpha))))
        r2 = float(np.max(np.abs((j.T @ j + params.p4 * eye) @ v2
                                 - j.T @ (ts.y + diag.gamma))))
        assert max(r1, r2) <= bound
        worst_stat = max(worst_stat, r1 / bound, r2 / bound)

        h1, _ = predict_components(model, ts.a)
        xi = slack_down(model, ts)
        interior = (diag.alpha > 1e-6) & (diag.alpha < params.p1 - 1e-6)
        if interior.any():
            cs = float(np.max(np.abs((ts.y - h1 + params.eps1 + xi)[interior])))
            assert cs <= 1e-5
            worst_cs = max(worst_cs, cs)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"runtime {elapsed:.1f}s exceeds 30s"
    report(f"ACCEPTANCE 2 PASS: kkt suite over 50 trainings, worst "
           f"stationarity ratio {worst_stat:.2e}, worst slackness "
           f"{worst_cs:.2e}, {elapsed:.1f}s")


def test_criterion_3_crisp_reduction_equivalence():
    rng = np.random.default_rng(77)
    worst = 0.0
    for rep in range(20):
        m = int(rng.integers(3, 16))
        d = int(rng.integers(1, 4))
        a = rng.normal(size=(m, d))
        y = rng.normal(size=m)
        kernel = KernelSpec("gaussian", 1.0) if rep % 4 == 0 else KernelSpec()
        params = TsvrParams(1.0, 1.0, 0.1, 0.1, 0.05, 0.05, kernel)
        crisp = tsvr_mod.train(TrainingSet(a, y), params)
        fuzzy = fuzzy_mod.train_ftsvr(
            fuzzy_mod.wrap_crisp(TrainingSet(a, y)), params
        )
        coeff_gap = max(
            float(np.max(np.abs(fuzzy.w1 - crisp.w1))),
            float(np.max(np.abs(fuzzy.w2 - crisp.w2))),
            abs(fuzzy.b1 - crisp.b1),
            abs(fuzzy.b2 - crisp.b2),
        )
        assert coeff_gap <= 1e-12
        x = rng.normal(size=d)
        center = fuzzy_mod.predict_fuzzy(
            fuzzy, tuple(fuzzy_mod.crisp_number(v) for v in x)
        ).center
        pred_gap = abs(center - tsvr_mod.predict(crisp, x))
        assert pred_gap <= 1e-12
        worst = max(worst, coeff_gap, pred_gap)
    report(f"ACCEPTANCE 3 PASS: crisp reduction over 20 datasets, worst "
           f"difference {worst:.2e} <= 1e-12")


def test_criterion_4_negation_symmetry():
    rng = np.random.default_rng(42)
    worst = 0.0
    for rep in range(20):
        m = int(rng.integers(2, 20))
        d = int(rng.integers(1, 4))
        a = rng.normal(size=(m, d))
        y = rng.normal(size=m)
        kernel = KernelSpec("gaussian", 1.5) if rep % 2 else KernelSpec()
        params = TsvrParams(1.0, 2.0, 0.1, 0.05, 0.1, 0.2, kernel)
        swapped = TsvrParams(2.0, 1.0, 0.05, 0.1, 0.2, 0.1, kernel)
        direct = tsvr_mod.train(TrainingSet(a, y), params)
        negated = tsvr_mod.train(TrainingSet(a, -y), swapped)
        x = rng.normal(size=(100, d))
        gap = float(np.max(np.abs(
            np.asarray(tsvr_mod.predict(negated, x))
            + np.asarray(tsvr_mod.predict(direct, x))
        )))
        assert gap <= 1e-8
        worst = max(worst, gap)
    report(f"ACCEPTANCE 4 PASS: negation symmetry at 100 points x 20 "
           f"datasets, worst gap {worst:.2e} <= 1e-8")


def test_criterion_5_power_two_thirds_benchmark():
    t0 = time.perf_counter()
    ds0 = data_mod.generate(data_mod.power_two_thirds_spec(seed=0))
    h_params, _ = grid_search(
        ds0, "hftsvr", ACCEPTANCE_GRID, seed=0, hierarchy_base=HIERARCHY_BASE
    )
    t_params, _ = grid_search(ds0, "tsvr", ACCEPTANCE_GRID, seed=0)
    h_nmse, t_nmse = [], []
    for k in range(N_SEEDS):
        ds = data_mod.generate(data_mod.power_two_thirds_spec(seed=k))
        model = hier_mod.train_hierarchy(ds.train, h_params)
        h_nmse.append(
            metrics(ds.test.y, hier_mod.predict_hierarchy(model, ds.test.a)).nmse
        )
        linear = tsvr_mod.train(ds.train, t_params)
        t_nmse.append(
            metrics(ds.test.y, tsvr_mod.predict(linear, ds.test.a)).nmse
        )
    elapsed = time.perf_counter() - t0
    mean_h, mean_t = float(np.mean(h_nmse)), float(np.mean(t_nmse))
    assert mean_h <= 0.05, f"hftsvr mean NMSE {mean_h:.4f} exceeds 0.05"
    assert mean_h <= mean_t, "hftsvr did not beat the linear baseline"
    assert elapsed < 300.0, f"runtime {elapsed:.0f}s exceeds 5 min"
    report(f"ACCEPTANCE 5 PASS: x^(2/3) benchmark, hftsvr mean NMSE "
           f"{mean_h:.4f} <= 0.05 and <= linear tsvr {mean_t:.4f}, "
           f"{elapsed:.0f}s")


def test_criterion_6_sinc_benchmark(sinc_runs):
    _, runs, elapsed = sinc_runs
    nmse = []
    for ds, model, _ in runs:
        nmse.append(
            metrics(ds.test.y, hier_mod.predict_hierarchy(model, ds.test.a)).nmse
        )
        rows = model.training_report["layers"]
        sequence = [rows[0]["residual_variance_in"]] + [
            row["residual_variance_out"] for row in rows
        ]
        assert all(b <= a for a, b in zip(sequence, sequence[1:])), \
            "residual variance increased across layers"
    mean_nmse = float(np.mean(nmse))
    assert mean_nmse <= 0.05, f"sinc mean NMSE {mean_nmse:.4f} exceeds 0.05"
    assert elapsed < 600.0, f"runtime {elapsed:.0f}s exceeds 10 min"
    report(f"ACCEPTANCE 6 PASS: sinc benchmark, hftsvr mean NMSE "
           f"{mean_nmse:.4f} <= 0.05, residual variance non-increasing on "
           f"all {N_SEEDS} seeds, {elapsed:.0f}s")


def test_sinc_selected_cell_and_nmse_do_not_move(sinc_runs):
    params, runs, _ = sinc_runs
    p3, _ = params.regularization()
    cell = (params.s_factor, p3, params.eps)
    assert cell == pytest.approx((0.5, 128.0, 0.04556067202259404), rel=1e-12)
    nmse = [
        metrics(ds.test.y, hier_mod.predict_hierarchy(model, ds.test.a)).nmse
        for ds, model, _ in runs
    ]
    assert float(np.mean(nmse)) == pytest.approx(0.020496856622843306, rel=1e-9)


def test_criterion_7_pruning_quality(sinc_runs):
    _, runs, _ = sinc_runs
    two_pass, one_pass = [], []
    pruned_layers, total_layers = 0, 0
    for ds, model, unpruned in runs:
        two_pass.append(
            metrics(ds.test.y, hier_mod.predict_hierarchy(model, ds.test.a)).nmse
        )
        one_pass.append(
            metrics(ds.test.y, hier_mod.predict_hierarchy(unpruned, ds.test.a)).nmse
        )
        for layer in model.layers:
            total_layers += 1
            pruned_layers += layer.pruned_indices.size < ds.train.m
    ratio = float(np.mean(two_pass)) / float(np.mean(one_pass))
    assert ratio <= 1.5, f"two-pass/one-pass NMSE ratio {ratio:.3f} exceeds 1.5"
    assert pruned_layers * 2 >= total_layers, (
        f"pruning selected a proper subset on only {pruned_layers}/"
        f"{total_layers} layers"
    )
    report(f"ACCEPTANCE 7 PASS: pruning quality, NMSE ratio {ratio:.3f} <= "
           f"1.5, proper prune set on {pruned_layers}/{total_layers} layers")


def test_criterion_8_hierarchy_identities(sinc_runs):
    _, runs, _ = sinc_runs
    rng = np.random.default_rng(0)
    worst = 0.0
    for ds, model, _ in runs:
        x = rng.uniform(-4 * np.pi, 4 * np.pi, size=(100, 1))
        total = np.zeros(100)
        for layer in model.layers:
            total += np.asarray(tsvr_mod.predict(layer.model, x))
            assert layer.b_v_prime >= layer.b_v
            assert layer.pruned_indices.size <= ds.train.m
            assert np.all(layer.pruned_indices >= 0)
            assert np.all(layer.pruned_indices < ds.train.m)
        gap = float(np.max(np.abs(
            np.asarray(hier_mod.predict_hierarchy(model, x)) - total
        )))
        assert gap <= 1e-12
        worst = max(worst, gap)
    report(f"ACCEPTANCE 8 PASS: hierarchy identities on every layer of "
           f"{len(runs)} runs, worst sum gap {worst:.2e} <= 1e-12")


def _uci_criterion(name, loader, path, paper_nmse, grid=ACCEPTANCE_GRID,
                   n_splits=5):
    """Tune once on the seed-0 split, evaluate across random splits twice,
    and require determinism plus the tolerance-or-baseline condition."""
    ts, provenance = loader(path)

    def one_run():
        test0, train0 = data_mod.split(ts, 0.25, seed=0)
        ds0 = data_mod.Dataset(train0, test0, provenance)
        h_params, _ = grid_search(
            ds0, "hftsvr", grid, seed=0, hierarchy_base=HIERARCHY_BASE
        )
        t_params, _ = grid_search(ds0, "tsvr", grid, seed=0)
        results = {}
        for kind in ("hftsvr", "tsvr"):
            nm = []
            for k in range(n_splits):
                test, train = data_mod.split(ts, 0.25, seed=k)
                if kind == "hftsvr":
                    model = hier_mod.train_hierarchy(train, h_params)
                    yhat = hier_mod.predict_hierarchy(model, test.a)
                else:
                    model = tsvr_mod.train(train, t_params)
                    yhat = tsvr_mod.predict(model, test.a)
                nm.append(metrics(test.y, yhat).nmse)
            results[kind] = (float(np.mean(nm)), float(np.std(nm, ddof=1)))
        return results

    first = one_run()
    second = one_run()
    assert first == second, "UCI run is not deterministic"
    mean_h = first["hftsvr"][0]
    mean_t = first["tsvr"][0]
    ok = abs(mean_h - paper_nmse) <= 0.15 or mean_h <= mean_t
    assert ok, (
        f"{name}: hftsvr NMSE {mean_h:.3f} neither within 0.15 of the "
        f"reference {paper_nmse} nor better than the tsvr baseline {mean_t:.3f}"
    )
    print(f"\n{name:<12}{'Regressor':<12}{'NMSE':>18}")
    for kind, label in (("hftsvr", "eps-HFTSVR"), ("tsvr", "eps-TSVR")):
        mean, std = first[kind]
        print(f"{name:<12}{label:<12}{mean:>10.3f} ± {std:.3f}")
    return mean_h, mean_t


def test_criterion_9_uci_datasets():
    servo = os.environ.get("TWINREG_SERVO_PATH")
    auto = os.environ.get("TWINREG_AUTO_PRICE_PATH")
    if not servo and not auto:
        report("ACCEPTANCE 9 SKIP: no UCI files supplied "
               "(set TWINREG_SERVO_PATH / TWINREG_AUTO_PRICE_PATH)")
        pytest.skip("UCI files not supplied")
    lines = []
    if servo:
        mean_h, mean_t = _uci_criterion(
            "Servo", data_mod.load_uci_servo, servo, paper_nmse=0.186
        )
        lines.append(f"servo hftsvr {mean_h:.3f} vs tsvr {mean_t:.3f}")
    if auto:
        mean_h, mean_t = _uci_criterion(
            "Auto Price", data_mod.load_uci_auto_price, auto, paper_nmse=0.296
        )
        lines.append(f"auto-price hftsvr {mean_h:.3f} vs tsvr {mean_t:.3f}")
    report(f"ACCEPTANCE 9 PASS: {'; '.join(lines)}")


def test_criterion_10_metric_identities():
    rng = np.random.default_rng(1)
    for _ in range(50):
        y = rng.normal(size=23)
        yhat = rng.normal(size=23)
        m = metrics(y, yhat)
        assert m.r2 == 1.0 - m.nmse
    perfect = metrics([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert (perfect.sse, perfect.nmse, perfect.r2, perfect.mape) == (0, 0, 1, 0)
    report("ACCEPTANCE 10 PASS: R^2 = 1 - NMSE on 50 random reports; "
           "perfect predictor yields (0, 0, 1, 0)")
