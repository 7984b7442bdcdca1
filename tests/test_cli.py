"""End-to-end tests of the command-line interface."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from twinreg.cli import EXIT_DATA, EXIT_OK, EXIT_TRAINING, EXIT_USAGE, main
from twinreg.model_io import load_model
from twinreg.search import predict


def run(argv):
    return main(argv)


@pytest.fixture()
def dataset_files(tmp_path):
    base = tmp_path / "ds"
    code = run(
        [
            "generate", "--function", "sinc",
            "--domain", "-12.566", "12.566",
            "--noise-sigma", "0.2", "--n-train", "60", "--n-test", "40",
            "--seed", "3", "--out", str(base),
        ]
    )
    assert code == EXIT_OK
    return base


class TestGenerate:
    def test_writes_three_files(self, dataset_files):
        base = dataset_files
        assert (base.parent / "ds_train.csv").exists()
        assert (base.parent / "ds_test.csv").exists()
        prov = json.loads((base.parent / "ds_provenance.json").read_text())
        assert prov["spec"]["seed"] == 3

    @pytest.mark.parametrize("flag,value", [("--n-train", "0"), ("--noise-sigma", "-1")])
    def test_bad_spec_is_usage_error(self, tmp_path, capsys, flag, value):
        code = run(["generate", "--function", "sinc", "--domain", "0", "1",
                    flag, value, "--out", str(tmp_path / "ds")])
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []


class TestTrainPredictEvaluate:
    def test_tsvr_round_trip(self, dataset_files, tmp_path):
        base = dataset_files
        model_path = tmp_path / "model.json"
        config = tmp_path / "params.ini"
        config.write_text(
            "[tsvr]\np1 = 1.0\np2 = 1.0\np3 = 0.1\np4 = 0.1\n"
            "eps1 = 0.1\neps2 = 0.1\n"
        )
        assert run(
            ["train", "--model", "tsvr", "--data", f"{base}_train.csv",
             "--config", str(config), "--out", str(model_path)]
        ) == EXIT_OK
        assert model_path.exists()

        out = tmp_path / "preds.csv"
        assert run(
            ["predict", "--model-file", str(model_path),
             "--data", f"{base}_test.csv", "--out", str(out)]
        ) == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "yhat"
        assert len(lines) == 41

        metrics_path = tmp_path / "metrics.json"
        assert run(
            ["evaluate", "--model-file", str(model_path),
             "--data", f"{base}_test.csv", "--out", str(metrics_path)]
        ) == EXIT_OK
        payload = json.loads(metrics_path.read_text())
        assert payload["r2"] == pytest.approx(1.0 - payload["nmse"])

    def test_point_prediction(self, dataset_files, tmp_path, capsys):
        base = dataset_files
        model_path = tmp_path / "model.json"
        run(["train", "--model", "tsvr", "--data", f"{base}_train.csv",
             "--out", str(model_path)])
        capsys.readouterr()
        assert run(
            ["predict", "--model-file", str(model_path), "--point", "0.5"]
        ) == EXIT_OK
        value = float(capsys.readouterr().out.strip())
        assert np.isfinite(value)

    @pytest.mark.parametrize("row, point", [
        (lambda i: f"{i},{2 * i}", "-1e2"),
        (lambda i: f"{i},{i % 3},{2 * i}", "-1,0.5"),
    ], ids=["one-input", "two-inputs"])
    def test_point_with_leading_minus(self, tmp_path, capsys, row, point):
        # argparse alone reads such a value as a flag, unlike --point=VALUE
        data = tmp_path / "rows.csv"
        width = row(0).count(",")
        header = ",".join(f"x{j + 1}" for j in range(width))
        data.write_text(f"{header},y\n" + "".join(f"{row(i)}\n" for i in range(6)))
        model_path = tmp_path / "model.json"
        assert run(["train", "--model", "tsvr", "--data", str(data),
                    "--out", str(model_path)]) == EXIT_OK
        capsys.readouterr()
        printed = []
        for argv in (["--point", point], [f"--point={point}"]):
            assert run(["predict", "--model-file", str(model_path)] + argv) == EXIT_OK
            printed.append(capsys.readouterr())
        assert printed[0] == printed[1]
        assert printed[0].err == "" and np.isfinite(float(printed[0].out))

    def test_predict_and_evaluate_print_without_out(self, dataset_files, tmp_path,
                                                    capsys):
        base = dataset_files
        model_path = tmp_path / "model.json"
        run(["train", "--model", "tsvr", "--data", f"{base}_train.csv",
             "--out", str(model_path)])
        capsys.readouterr()
        argv = ["--model-file", str(model_path), "--data", f"{base}_test.csv"]
        assert run(["predict"] + argv) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 40
        assert all(np.isfinite(float(line)) for line in lines)
        assert run(["evaluate"] + argv) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["r2"] == pytest.approx(1.0 - payload["nmse"])

    @pytest.mark.parametrize("model,config", [
        ("hftsvr", "[hierarchy]\nmax_layers = 3\n"),
        ("tsvr", "[tsvr]\n[kernel]\nkind = gaussian\ntau = 2\n"),
    ], ids=["hftsvr", "gaussian-tsvr"])
    @pytest.mark.parametrize("point", ["1e308", "1e200"])
    def test_far_query_prints_only_its_prediction(self, dataset_files, tmp_path, capsys,
                                                  model, config, point):
        # every squared distance overflows to +inf, so each kernel entry is 0
        ini = tmp_path / "model.ini"
        ini.write_text(config)
        model_path = tmp_path / "model.json"
        assert run(["train", "--model", model, "--data", f"{dataset_files}_train.csv",
                    "--config", str(ini), "--out", str(model_path)]) == EXIT_OK
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(["predict", "--model-file", str(model_path), "--point", point])
            expected = float(predict(load_model(model_path), np.array([float(point)])))
        assert code == EXIT_OK and caught == []
        assert capsys.readouterr() == (f"{expected!r}\n", "")

    def test_hierarchy_training_with_config(self, dataset_files, tmp_path):
        base = dataset_files
        config = tmp_path / "h.ini"
        config.write_text(
            "[hierarchy]\nmax_layers = 3\ns_factor = 1.0\neps = 0.1\n"
            "p3 = 0.1\np4 = 0.1\npruning_enabled = true\ntau1 = auto\n"
        )
        model_path = tmp_path / "h.json"
        assert run(
            ["train", "--model", "hftsvr", "--data", f"{base}_train.csv",
             "--config", str(config), "--out", str(model_path)]
        ) == EXIT_OK
        record = json.loads(model_path.read_text())
        assert record["kind"] == "hftsvr"

    @pytest.mark.parametrize("model", ["tsvr", "ftsvr"])
    def test_no_config_trains_the_empty_tsvr_section(self, dataset_files, tmp_path,
                                                     model):
        config = tmp_path / "empty.ini"
        config.write_text("[tsvr]\n")
        train = ["train", "--model", model, "--data", f"{dataset_files}_train.csv"]
        bare, configured = tmp_path / "bare.json", tmp_path / "configured.json"
        assert run(train + ["--out", str(bare)]) == EXIT_OK
        assert run(train + ["--config", str(config), "--out", str(configured)]) == EXIT_OK
        assert bare.read_bytes() == configured.read_bytes()

    def test_no_config_hierarchy_matches_a_tsvr_only_config(self, dataset_files,
                                                           tmp_path):
        # configs, not bytes: the hierarchy report holds layer timings
        config = tmp_path / "tsvr_only.ini"
        config.write_text("[tsvr]\n")
        train = ["train", "--model", "hftsvr", "--data", f"{dataset_files}_train.csv"]
        bare, configured = tmp_path / "bare.json", tmp_path / "configured.json"
        assert run(train + ["--out", str(bare)]) == EXIT_OK
        assert run(train + ["--config", str(config), "--out", str(configured)]) == EXIT_OK
        bare_config, configured_config = (
            json.loads(path.read_text())["payload"]["config"]
            for path in (bare, configured)
        )
        assert bare_config == configured_config

    def test_fuzzy_schema_training(self, tmp_path):
        data = tmp_path / "fz.csv"
        rows = ["x1_c,x1_w,x1_l,x1_r,y_c,y_w,y_l,y_r"]
        rng = np.random.default_rng(0)
        for _ in range(12):
            x = rng.uniform(-1, 1)
            rows.append(f"{x},0.1,0,0,{2*x},0,0,0")
        data.write_text("\n".join(rows) + "\n")
        model_path = tmp_path / "f.json"
        assert run(
            ["train", "--model", "ftsvr", "--data", str(data),
             "--schema", "fuzzy", "--out", str(model_path)]
        ) == EXIT_OK


class TestGridsearch:
    def test_small_search(self, dataset_files, tmp_path, capsys):
        base = dataset_files
        out = tmp_path / "best.json"
        assert run(
            ["gridsearch", "--model", "tsvr", "--data", f"{base}_train.csv",
             "--range", "-2", "2", "--step", "2", "--seed", "0",
             "--out", str(out)]
        ) == EXIT_OK
        summary = json.loads(capsys.readouterr().out.split("wrote")[0])
        assert summary["cells_evaluated"] > 0
        assert out.exists()

    # (p1 = p2) x (p3 = p4) x eps over exponents -1..1: 3 x 3 x 2 linear cells;
    # the hierarchy's S x p3 x eps gives 3 x 3 x 1.  The flags' default grid
    # would give 3,610 linear cells.
    @pytest.mark.parametrize("model,cells,key_length", [("tsvr", 18, 6), ("hftsvr", 9, 3)])
    def test_config_sets_the_grid(self, dataset_files, tmp_path, capsys, model,
                                  cells, key_length):
        config = tmp_path / "grid.ini"
        config.write_text(
            "[grid]\nexponent_low = -1\nexponent_high = 1\nexponent_step = 1\n"
            "[hierarchy]\nmax_layers = 2\n"
        )
        assert run(
            ["gridsearch", "--model", model, "--data", f"{dataset_files}_train.csv",
             "--config", str(config)]
        ) == EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        assert summary["cells_evaluated"] + summary["cells_failed"] == cells
        assert len(summary["best_key"]) == key_length


    def test_config_without_grid_keeps_the_flags(self, dataset_files, tmp_path,
                                                 capsys):
        config = tmp_path / "hierarchy.ini"
        config.write_text("[hierarchy]\nmax_layers = 2\n")
        assert run(
            ["gridsearch", "--model", "tsvr", "--data", f"{dataset_files}_train.csv",
             "--range", "0", "0", "--config", str(config)]
        ) == EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        assert summary["cells_evaluated"] == 1  # p1 = p3 = 1, eps = 0

    def test_config_grid_keys_override_the_flags(self, dataset_files, tmp_path,
                                                 capsys):
        config = tmp_path / "grid.ini"
        config.write_text("[grid]\nexponent_high = 1\n")
        assert run(
            ["gridsearch", "--model", "tsvr", "--data", f"{dataset_files}_train.csv",
             "--range", "0", "0", "--step", "1", "--config", str(config)]
        ) == EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        assert summary["cells_evaluated"] + summary["cells_failed"] == 2 * 2 * 1

    @pytest.mark.parametrize("flags, config, message", [
        (["--range", "0", "1100", "--step", "1100"], None, "twinreg: error: "),
        ([], "[grid]\nexponent_high = 1100\n", "twinreg: config error: "),
        ([], "[hierarchy]\nscale_divisor = 1e200\n", "twinreg: config error: "),
        ([], "[hierarchy]\nmax_layers = 5000\n", "twinreg: config error: "),
    ])
    def test_overflowing_exponent_or_scale_is_usage_error(self, dataset_files, tmp_path,
                                                          capsys, flags, config, message):
        argv = ["gridsearch", "--model", "hftsvr", "--data", f"{dataset_files}_train.csv"]
        if config is not None:
            path = tmp_path / "overflow.ini"
            path.write_text(config)
            argv += ["--config", str(path)]
        assert run(argv + flags) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(message) and err.count("\n") == 1


class TestBenchmark:
    def test_suite_run(self, tmp_path, capsys):
        outdir = tmp_path / "results"
        suite = tmp_path / "suite.ini"
        suite.write_text(
            "[suite]\n"
            "datasets = power_two_thirds\n"
            "regressors = tsvr\n"
            "n_seeds = 1\n"
            "base_seed = 0\n"
            f"outdir = {outdir}\n"
            "[grid]\n"
            "exponent_low = -2\n"
            "exponent_high = 2\n"
            "exponent_step = 2\n"
            "[hierarchy]\n"
            "max_layers = 2\n"
        )
        assert run(["benchmark", "--suite", str(suite)]) == EXIT_OK
        assert (outdir / "report.json").exists()
        assert "eps-TSVR" in capsys.readouterr().out

    def test_suite_without_outdir_prints_table_then_json(self, tmp_path, capsys):
        suite = tmp_path / "suite.ini"
        suite.write_text(
            "[suite]\ndatasets = power_two_thirds\nregressors = tsvr\nn_seeds = 1\n"
            "[grid]\nexponent_low = -2\nexponent_high = 2\nexponent_step = 2\n"
        )
        assert run(["benchmark", "--suite", str(suite)]) == EXIT_OK
        table, brace, document = capsys.readouterr().out.partition("\n{")
        assert "eps-TSVR" in table
        assert json.loads(brace.lstrip() + document)["rows"]
        assert list(tmp_path.iterdir()) == [suite]

    @pytest.mark.parametrize(
        "line", ["regressors = svr", "datasets = power_two_thirds, mystery"]
    )
    def test_unknown_name_is_usage_error(self, tmp_path, capsys, line):
        suite = tmp_path / "suite.ini"
        suite.write_text(f"[suite]\nn_seeds = 1\n{line}\n")
        assert run(["benchmark", "--suite", str(suite)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert "unknown" in captured.err
        assert captured.out == ""


    def test_bad_hierarchy_value_stops_the_suite_before_tuning(self, tmp_path,
                                                               capsys):
        outdir = tmp_path / "results"
        suite = tmp_path / "suite.ini"
        suite.write_text(
            "[suite]\ndatasets = power_two_thirds\nregressors = tsvr, hftsvr\n"
            f"n_seeds = 1\noutdir = {outdir}\n[hierarchy]\ntau1 = -1\n"
        )
        assert run(["benchmark", "--suite", str(suite)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert "config error: tau1 must be positive and finite" in captured.err
        assert captured.out == ""
        assert not outdir.exists()


_FUZZY_HEADER = b"x1_c,x1_w,x1_l,x1_r,y_c,y_w,y_l,y_r\n"

# case -> (schema, file bytes, file line named in the error or None)
MALFORMED_DATA = {
    "bad_cell_after_blank_lines": ("crisp", b"x1,y\n1,2\n\n\n3,abc\n", 5),
    "non_utf8": ("crisp", b"x1,y\n1,\xff\n", None),
    "wrong_arity": ("crisp", b"x1,y\n1,2\n\n3\n", 4),
    "negative_fuzzy_width": (
        "fuzzy", _FUZZY_HEADER + b"1,0,0,0,2,0,0,0\n1,0,0,0,2,-0.1,0,0\n", 3),
    "header_without_rows": ("crisp", b"x1,y\n", None),
    "empty": ("crisp", b"", None),
}


class TestExitCodes:
    def test_usage_error(self):
        assert run(["train", "--model", "nope"]) == EXIT_USAGE

    def test_missing_subcommand(self):
        assert run([]) == EXIT_USAGE

    def test_data_error(self, tmp_path):
        assert run(
            ["train", "--model", "tsvr", "--data", str(tmp_path / "absent.csv"),
             "--out", str(tmp_path / "m.json")]
        ) == EXIT_DATA

    def test_training_failure(self, tmp_path):
        # the inputs have zero extent, so no first scale can be derived
        data = tmp_path / "flat.csv"
        data.write_text("x1,y\n" + "\n".join("1.0,2.0" for _ in range(5)) + "\n")
        code = run(
            ["train", "--model", "hftsvr", "--data", str(data),
             "--out", str(tmp_path / "m.json")]
        )
        assert code == EXIT_TRAINING

    def test_constant_non_zero_targets_hierarchy_is_training_failure(self, tmp_path,
                                                                     capsys):
        data = tmp_path / "level.csv"
        data.write_text("x1,y\n" + "".join(f"{i}.0,2.0\n" for i in range(10)))
        out = tmp_path / "m.json"
        code = run(["train", "--model", "hftsvr", "--data", str(data), "--out", str(out)])
        assert code == EXIT_TRAINING
        assert "training failure" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_target_variance_hierarchy_is_data_error(self, tmp_path,
                                                                 capsys):
        data = tmp_path / "huge.csv"
        data.write_text("x1,y\n2.9e-216,-7.5e92\n7.8e-197,3.4e38\n6.35,1e300\n")
        out = tmp_path / "m.json"
        code = run(["train", "--model", "hftsvr", "--data", str(data), "--out", str(out)])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert "data error" in err and "target variance" in err
        assert err.count("\n") == 1
        assert not out.exists()

    def test_model_into_missing_directory_is_one_data_error(self, tmp_path, capsys):
        data = tmp_path / "line.csv"
        data.write_text("x1,y\n" + "".join(f"{i},{2 * i}\n" for i in range(6)))
        out = tmp_path / "absent" / "m.json"
        code = run(["train", "--model", "tsvr", "--data", str(data), "--out", str(out)])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("twinreg: data error: cannot write") and err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["line.csv"]

    @pytest.mark.parametrize(
        "rows",
        ["0,0\n1,0\n2,0\n3,1e200\n", "0,0\n" * 4 + "0,1.6678e168\n"],
        ids=["qp-overflow", "slack-overflow"],
    )
    def test_overflowing_target_norm_tsvr_is_one_data_error(self, tmp_path, capsys,
                                                            rows):
        data = tmp_path / "spike.csv"
        data.write_text("x1,y\n" + rows)
        out = tmp_path / "m.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(["train", "--model", "tsvr", "--data", str(data), "--out", str(out)])
        assert code == EXIT_DATA
        captured = capsys.readouterr()
        assert captured.out == "" and caught == []
        assert captured.err == (
            "twinreg: data error: the targets' squared norm overflows a float\n"
        )
        assert not out.exists()

    def test_single_row_hierarchy_is_training_failure(self, tmp_path, capsys):
        # one point has zero extent, so the automatic first scale is degenerate
        data = tmp_path / "one.csv"
        data.write_text("x1,y\n0.5,1.0\n")
        code = run(
            ["train", "--model", "hftsvr", "--data", str(data),
             "--out", str(tmp_path / "m.json")]
        )
        assert code == EXIT_TRAINING
        assert "training failure" in capsys.readouterr().err

    def test_every_grid_cell_failing_is_training_failure(self, tmp_path):
        # constant targets: every cell's tuning score divides by zero variance
        data = tmp_path / "flat.csv"
        data.write_text("x1,y\n" + "".join(f"{i}.0,2.0\n" for i in range(10)))
        code = run(
            ["gridsearch", "--model", "tsvr", "--data", str(data), "--range", "0", "0"]
        )
        assert code == EXIT_TRAINING

    def test_corrupt_model_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run(
            ["predict", "--model-file", str(bad), "--point", "0"]
        ) == EXIT_DATA

    @pytest.mark.parametrize("text", ["[1, 2]", "svm"])
    def test_model_record_of_no_known_kind_is_data_error(self, line_model, capsys,
                                                          text):
        model = line_model
        if text == "svm":  # the payload and its checksum stay valid
            text = model.read_text().replace('"kind": "tsvr"', '"kind": "svm"', 1)
        model.write_text(text)
        assert run(
            ["predict", "--model-file", str(model), "--point", "0"]
        ) == EXIT_DATA
        assert "data error" in capsys.readouterr().err

    @pytest.mark.parametrize("model, text", [
        ("tsvr", b"p1 = 2\n"),  # no section header
        ("tsvr", b"[tsvr]\np1 = 2\np1 = 3\n"),  # duplicate key
        ("tsvr", b"[tsvr]\np1 = \xff\n"),  # not UTF-8
        ("tsvr", b"[tsvr]\np1 = inf\n"),
        ("tsvr", b"[tsvr]\neps1 = nan\n"),
        ("tsvr", b"[tsvr]\n[kernel]\nkind = gaussian\ntau = inf\n"),
        ("hftsvr", b"[hierarchy]\neps = inf\n"),
        ("hftsvr", b"[hierarchy]\ntau1 = inf\n"),
    ])
    def test_malformed_config_is_usage_error(self, tmp_path, capsys, model, text):
        data = tmp_path / "line.csv"
        data.write_text("x1,y\n" + "".join(f"{i},{2 * i}\n" for i in range(6)))
        config = tmp_path / "bad.ini"
        config.write_bytes(text)
        out = tmp_path / "m.json"
        assert run(["train", "--model", model, "--data", str(data), "--config",
                    str(config), "--out", str(out)]) == EXIT_USAGE
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "predict"])
    def test_non_utf8_file_is_data_error(self, tmp_path, capsys, command):
        bad = tmp_path / "bad"
        bad.write_bytes(b"x1,y\n1,\xff\n")
        if command == "train":
            argv = ["train", "--model", "tsvr", "--data", str(bad),
                    "--out", str(tmp_path / "m.json")]
        else:
            argv = ["predict", "--model-file", str(bad), "--point", "0"]
        assert run(argv) == EXIT_DATA
        assert "data error" in capsys.readouterr().err

    @pytest.fixture()
    def line_model(self, tmp_path, capsys):
        data = tmp_path / "line.csv"
        data.write_text("x1,y\n" + "".join(f"{i},{2 * i}\n" for i in range(6)))
        model = tmp_path / "m.json"
        assert run(["train", "--model", "tsvr", "--data", str(data),
                    "--out", str(model)]) == EXIT_OK
        capsys.readouterr()
        return model

    def test_resigned_model_missing_field_is_data_error(self, line_model, capsys):
        from twinreg.model_io import _checksum

        model = line_model
        record = json.loads(model.read_text())
        del record["payload"]["b1"]
        record["checksum"] = _checksum(record["payload"])
        model.write_text(json.dumps(record))
        assert run(
            ["predict", "--model-file", str(model), "--point", "0"]
        ) == EXIT_DATA
        assert "data error" in capsys.readouterr().err

    @pytest.mark.parametrize("fault", [
        "gaussian_without_basis", "basis_too_wide", "flat_basis",
        "linear_with_basis",
    ])
    def test_resigned_inconsistent_basis_is_data_error(self, tmp_path, capsys, fault):
        from twinreg import tsvr
        from twinreg.model_io import _checksum, save_model

        ts = tsvr.TrainingSet(np.arange(10.0).reshape(-1, 1), np.sin(np.arange(10.0)))
        kernel = tsvr.KernelSpec() if fault == "linear_with_basis" else (
            tsvr.KernelSpec("gaussian", 2.0))
        model = tmp_path / "m.json"
        save_model(tsvr.train(ts, tsvr.TsvrParams(1, 1, 0.1, 0.1, kernel=kernel)), model)
        record = json.loads(model.read_text())
        payload = record["payload"]
        if fault == "gaussian_without_basis":
            payload.update(basis=None, w1=payload["w1"][:1], w2=payload["w2"][:1])
        elif fault == "basis_too_wide":
            payload["basis"] = [row + [0.0] for row in payload["basis"]]
        elif fault == "flat_basis":
            payload["basis"] = [row[0] for row in payload["basis"]]
        else:
            payload["basis"] = [[0.0]]
        record["checksum"] = _checksum(payload)
        model.write_text(json.dumps(record))
        assert run(
            ["predict", "--model-file", str(model), "--point", "0.5"]
        ) == EXIT_DATA
        captured = capsys.readouterr()
        assert "data error" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["train", "evaluate", "predict", "gridsearch"])
    @pytest.mark.parametrize("case", sorted(MALFORMED_DATA))
    def test_malformed_data_file_is_data_error(self, tmp_path, capsys, line_model,
                                               case, command):
        schema, text, line = MALFORMED_DATA[case]
        data = tmp_path / "bad.csv"
        data.write_bytes(text)
        argv = {
            "train": ["train", "--model", "tsvr", "--out", str(tmp_path / "out.json")],
            "evaluate": ["evaluate", "--model-file", str(line_model)],
            "predict": ["predict", "--model-file", str(line_model)],
            "gridsearch": ["gridsearch", "--model", "tsvr", "--range", "0", "0"],
        }[command]
        assert run(argv + ["--data", str(data), "--schema", schema]) == EXIT_DATA
        captured = capsys.readouterr()
        assert "data error" in captured.err
        assert captured.out == ""
        if line is not None:
            assert f"row {line}" in captured.err

    def test_overflowing_metrics_are_one_data_error(self, line_model, tmp_path, capsys):
        data = tmp_path / "huge.csv"
        data.write_text("x1,y\n2.9e-216,-7.5e92\n7.8e-197,3.4e38\n6.35,1e300\n")
        out = tmp_path / "metrics.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(["evaluate", "--model-file", str(line_model), "--data", str(data),
                        "--out", str(out)])
        assert code == EXIT_DATA
        captured = capsys.readouterr()
        assert captured.out == "" and caught == []
        assert captured.err == (
            f"twinreg: data error: {data}: the metrics overflow a float\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("point", ["nan", "inf"])
    def test_non_finite_point_is_usage_error(self, line_model, capsys, point):
        assert run(
            ["predict", "--model-file", str(line_model), "--point", point]
        ) == EXIT_USAGE
        captured = capsys.readouterr()
        assert "non-finite" in captured.err
        assert captured.out == ""

    def test_closed_stdout_ends_quietly(self, line_model, tmp_path):
        # about 200 KB of predictions, well past a 64 KiB pipe buffer
        data = tmp_path / "many.csv"
        data.write_text("x1,y\n" + "".join(f"{i / 10000},0\n" for i in range(10000)))
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "twinreg.cli", "predict",
             "--model-file", str(line_model), "--data", str(data)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": path},
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == EXIT_OK
        assert float(first) == pytest.approx(0.0, abs=0.1)
        assert err == b""
