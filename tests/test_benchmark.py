"""Tests for the benchmark orchestration and report emission."""

import json

import numpy as np
import pytest

from twinreg import data as data_mod
from twinreg.benchmark import (
    SuiteSpec,
    _dataset_for,
    format_table,
    result_payload,
    run_benchmark,
)
from twinreg.hierarchy import HierarchyConfig
from twinreg.metrics import METRIC_DEFINITIONS
from twinreg.qp import MaxIterationsExceeded, NotPositiveDefinite
from twinreg.search import GridSpec
from twinreg.tsvr import TrainingSet

TINY_GRID = GridSpec(exponent_low=-3, exponent_high=3, exponent_step=3)


def tiny_suite(**kwargs):
    defaults = dict(
        datasets=("power_two_thirds",),
        regressors=("tsvr",),
        n_seeds=1,
        base_seed=0,
        grid=TINY_GRID,
        hierarchy_base=HierarchyConfig(max_layers=2),
    )
    defaults.update(kwargs)
    return SuiteSpec(**defaults)


class TestSuite:
    def test_minimal_suite_single_row(self):
        result = run_benchmark(tiny_suite())
        assert len(result.rows) == 1
        row = result.rows[0]
        assert row.dataset == "power_two_thirds"
        assert row.regressor == "tsvr"
        assert len(row.per_seed) == 1
        assert row.std is None  # single seed: no spread columns
        assert result.failures == []

    def test_empty_suite(self):
        result = run_benchmark(tiny_suite(datasets=()))
        assert result.rows == []
        assert format_table(result).startswith("Benchmark results")

    def test_r2_identity_on_every_report(self):
        result = run_benchmark(tiny_suite(n_seeds=2))
        for row in result.rows:
            for report in row.per_seed:
                assert report.r2 == 1.0 - report.nmse

    def test_seed_provenance_chain(self):
        suite = tiny_suite()
        for k in range(3):
            ds = _dataset_for("power_two_thirds", suite.base_seed + k, suite)
            direct = data_mod.generate(data_mod.power_two_thirds_spec(suite.base_seed + k))
            np.testing.assert_array_equal(ds.train.a, direct.train.a)
            np.testing.assert_array_equal(ds.train.y, direct.train.y)

    def test_std_present_with_multiple_seeds(self):
        result = run_benchmark(tiny_suite(n_seeds=3))
        row = result.rows[0]
        assert row.std is not None
        assert row.std["nmse"] >= 0.0

    def test_csv_backed_dataset(self, tmp_path):
        ds = data_mod.generate(data_mod.sinc_spec(seed=0, n_train=50, n_test=10))
        path = tmp_path / "file.csv"
        data_mod.save_training_csv(ds.train, path)
        suite = tiny_suite(
            datasets=("myfile",), csv_paths={"myfile": str(path)}, n_seeds=2
        )
        result = run_benchmark(suite)
        assert len(result.rows) == 1

    def test_table_shows_spread_and_undefined_mape(self, tmp_path):
        # Half the targets are zero, so both seeds' test splits hold a zero
        # and MAPE is undefined on each.
        x = np.linspace(-1.0, 1.0, 40)
        ts = TrainingSet(x[:, None], np.maximum(x, 0.0))
        path = tmp_path / "zeros.csv"
        data_mod.save_training_csv(ts, path)
        result = run_benchmark(
            tiny_suite(datasets=("zeros",), csv_paths={"zeros": str(path)}, n_seeds=2)
        )
        row = result.rows[0]
        assert row.mean["mape"] is None and row.std["mape"] is None
        line = format_table(result).splitlines()[-1]
        assert line.startswith("zeros")
        assert line.count(" ± ") == 3
        assert line.rstrip().split()[-2] == "n/a"

    def test_reports_written(self, tmp_path):
        suite = tiny_suite(outdir=str(tmp_path))
        run_benchmark(suite)
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["rows"][0]["regressor"] == "tsvr"
        assert "metric_definitions" in payload
        table = (tmp_path / "report.txt").read_text()
        assert "eps-TSVR" in table
        curve = (tmp_path / "curve_power_two_thirds_tsvr.csv").read_text()
        header, first = curve.splitlines()[:2]
        assert header == "x,y,yhat"
        assert len(first.split(",")) == 3

    def test_no_curve_for_two_input_dataset(self, tmp_path):
        rng = np.random.default_rng(0)
        a = rng.uniform(-1.0, 1.0, size=(40, 2))
        path = tmp_path / "plane.csv"
        data_mod.save_training_csv(TrainingSet(a, a @ [1.0, -2.0]), path)
        outdir = tmp_path / "out"
        result = run_benchmark(tiny_suite(
            datasets=("plane",), csv_paths={"plane": str(path)}, outdir=str(outdir)
        ))
        assert len(result.rows) == 1
        assert (outdir / "report.json").exists()
        assert list(outdir.glob("curve_*")) == []

    def test_curve_sorted_by_x(self, tmp_path):
        suite = tiny_suite(outdir=str(tmp_path))
        run_benchmark(suite)
        rows = (tmp_path / "curve_power_two_thirds_tsvr.csv").read_text().splitlines()[1:]
        xs = [float(r.split(",")[0]) for r in rows]
        assert xs == sorted(xs)

    def test_unknown_dataset_fails_clearly(self):
        with pytest.raises(ValueError):
            _dataset_for("mystery", 0, tiny_suite())

    def test_fingerprint_recorded(self):
        result = run_benchmark(tiny_suite())
        assert "platform" in result.fingerprint
        assert "numpy" in result.fingerprint

    def test_result_payload_is_json_ready(self):
        result = run_benchmark(tiny_suite())
        text = json.dumps(result_payload(result))
        assert isinstance(json.loads(text), dict)

    def test_hierarchy_row_includes_chosen_parameters(self):
        suite = tiny_suite(regressors=("hftsvr",), n_seeds=1)
        result = run_benchmark(suite)
        chosen = result.rows[0].chosen_parameters
        assert {"s_factor", "p3", "eps", "tau1"} <= set(chosen)

    def test_result_payload_layout(self):
        result = run_benchmark(tiny_suite(regressors=("tsvr", "hftsvr"), n_seeds=2))
        payload = result_payload(result)
        assert set(payload) == {"metric_definitions", "fingerprint", "failures", "rows"}
        assert payload["metric_definitions"] == METRIC_DEFINITIONS
        assert [row["regressor"] for row in payload["rows"]] == ["tsvr", "hftsvr"]
        metric_keys = {"sse", "nmse", "r2", "mape", "train_seconds", "sv_count"}
        for row in payload["rows"]:
            assert set(row) == {
                "dataset", "regressor", "chosen_parameters", "mean", "std", "per_seed",
            }
            assert set(row["mean"]) == set(row["std"]) == metric_keys
            assert [set(r) for r in row["per_seed"]] == [metric_keys] * 2
        tsvr_row, hftsvr_row = payload["rows"]
        assert set(tsvr_row["chosen_parameters"]) == {
            "p1", "p2", "p3", "p4", "eps1", "eps2", "kernel", "tau",
        }
        assert set(hftsvr_row["chosen_parameters"]) == {
            "s_factor", "p3", "p4", "eps", "tau1", "scale_divisor", "max_layers",
        }

    def test_qualitative_ordering_full_pipeline(self):
        # the hierarchy must dominate the linear twin regressor on the curved
        # synthetic target, through the same path a user's suite file takes
        suite = tiny_suite(
            regressors=("hftsvr", "tsvr"),
            n_seeds=3,
            grid=GridSpec(exponent_low=-9, exponent_high=9, exponent_step=3),
            hierarchy_base=HierarchyConfig(max_layers=6),
        )
        result = run_benchmark(suite)
        nmse = {row.regressor: row.mean["nmse"] for row in result.rows}
        assert nmse["hftsvr"] <= nmse["tsvr"]
        assert nmse["hftsvr"] <= 0.05


class TestFailures:
    @staticmethod
    def failing_train(error):
        def train(ts, params):
            raise error

        return train

    def test_typed_failure_annotated(self, monkeypatch):
        from twinreg import tsvr

        monkeypatch.setattr(
            tsvr, "train", self.failing_train(MaxIterationsExceeded(np.zeros(1), 1.0))
        )
        result = run_benchmark(tiny_suite())
        assert result.rows == []
        (failure,) = result.failures
        assert failure["stage"] == "grid_search"
        assert failure["error"].startswith("AllCellsFailed")

    def test_table_lists_each_failure(self, monkeypatch):
        from twinreg import tsvr

        monkeypatch.setattr(
            tsvr, "train", self.failing_train(MaxIterationsExceeded(np.zeros(1), 1.0))
        )
        result = run_benchmark(tiny_suite())
        failed = [line for line in format_table(result).splitlines()
                  if line.startswith("FAILED ")]
        assert len(failed) == 1
        assert "power_two_thirds" in failed[0] and "AllCellsFailed" in failed[0]

    def test_typed_failure_of_one_seed_annotated(self, monkeypatch):
        from twinreg import benchmark

        monkeypatch.setattr(
            benchmark, "fit", self.failing_train(NotPositiveDefinite("singular"))
        )
        result = run_benchmark(tiny_suite(n_seeds=2))
        assert result.rows == []
        assert [f["stage"] for f in result.failures] == ["seed_0", "seed_1"]

    def test_untyped_error_propagates(self, monkeypatch):
        from twinreg import tsvr

        monkeypatch.setattr(tsvr, "train", self.failing_train(TypeError("a bug")))
        with pytest.raises(TypeError, match="a bug"):
            run_benchmark(tiny_suite())
