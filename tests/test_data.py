"""Tests for dataset generation, CSV handling, and splits."""

import math

import numpy as np
import pytest

from twinreg.data import (
    SYNTHETIC_FUNCTIONS,
    DataError,
    DegenerateSplit,
    InconsistentArity,
    MissingHeader,
    ParseError,
    SyntheticSpec,
    generate,
    holdout,
    load_csv,
    load_dataset,
    load_uci_auto_price,
    load_uci_servo,
    power_two_thirds_spec,
    save_dataset,
    sinc_spec,
    split,
)
from twinreg.fuzzy import FuzzySample
from twinreg.tsvr import TrainingSet


class TestSyntheticFunctions:
    def test_power_two_thirds_even_real_branch(self):
        f = SYNTHETIC_FUNCTIONS["power_two_thirds"]
        assert f(np.array([1.0]))[0] == pytest.approx(1.0)
        assert f(np.array([-1.0]))[0] == pytest.approx(1.0)
        assert f(np.array([-8.0]))[0] == pytest.approx(4.0)

    def test_sinc_removable_singularity(self):
        f = SYNTHETIC_FUNCTIONS["sinc"]
        assert f(np.array([0.0]))[0] == pytest.approx(1.0)
        assert f(np.array([math.pi]))[0] == pytest.approx(0.0, abs=1e-15)
        assert f(np.array([0.5]))[0] == pytest.approx(math.sin(0.5) / 0.5)


class TestGenerate:
    def test_paper_scale_sizes(self):
        ds = generate(power_two_thirds_spec(seed=0))
        assert ds.train.m == 200 and ds.test.m == 200
        ds = generate(sinc_spec(seed=0))
        assert ds.train.m == 272 and ds.test.m == 526

    def test_deterministic_for_fixed_seed(self):
        a = generate(sinc_spec(seed=42))
        b = generate(sinc_spec(seed=42))
        np.testing.assert_array_equal(a.train.a, b.train.a)
        np.testing.assert_array_equal(a.train.y, b.train.y)
        np.testing.assert_array_equal(a.test.a, b.test.a)
        np.testing.assert_array_equal(a.test.y, b.test.y)

    def test_different_seeds_differ(self):
        a = generate(sinc_spec(seed=1))
        b = generate(sinc_spec(seed=2))
        assert not np.array_equal(a.train.y, b.train.y)

    def test_test_targets_are_exact_function_values(self):
        ds = generate(power_two_thirds_spec(seed=5))
        f = SYNTHETIC_FUNCTIONS["power_two_thirds"]
        np.testing.assert_array_equal(ds.test.y, f(ds.test.a[:, 0]))

    def test_noise_statistics(self):
        spec = SyntheticSpec("sinc", -4 * math.pi, 4 * math.pi, 0.2, 100000, 1, 9)
        ds = generate(spec)
        f = SYNTHETIC_FUNCTIONS["sinc"]
        noise = ds.train.y - f(ds.train.a[:, 0])
        assert abs(noise.mean()) <= 0.01
        assert abs(noise.std() - 0.2) <= 0.01

    def test_zero_noise(self):
        spec = SyntheticSpec("sinc", -1.0, 1.0, 0.0, 50, 10, 3)
        ds = generate(spec)
        f = SYNTHETIC_FUNCTIONS["sinc"]
        np.testing.assert_array_equal(ds.train.y, f(ds.train.a[:, 0]))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SyntheticSpec("cube", -1, 1, 0.1, 10, 10, 0)
        with pytest.raises(ValueError):
            SyntheticSpec("sinc", 1, -1, 0.1, 10, 10, 0)

    @pytest.mark.parametrize("field, value", [
        ("noise_sigma", math.nan), ("noise_sigma", math.inf),
        ("domain_low", -math.inf), ("domain_high", math.inf), ("domain_low", math.nan),
    ])
    def test_spec_rejects_non_finite_values(self, field, value):
        values = {"domain_low": -3.0, "domain_high": 3.0, "noise_sigma": 0.1}
        values[field] = value
        with pytest.raises(ValueError, match=field):
            SyntheticSpec("sinc", n_train=10, n_test=10, seed=0, **values)


class TestSplit:
    def test_holdout_takes_a_quarter_for_test(self):
        ts = TrainingSet(np.arange(10)[:, None].astype(float), np.arange(10.0))
        ds = holdout(ts, seed=4, provenance={"kind": "csv"})
        test, train = split(ts, 0.25, seed=4)
        assert ds.test.m == 3 and ds.train.m == 7
        np.testing.assert_array_equal(ds.test.y, test.y)
        np.testing.assert_array_equal(ds.train.y, train.y)
        assert ds.provenance == {"kind": "csv"}

    def test_paper_fraction_sizes(self):
        ts = TrainingSet(np.arange(10)[:, None].astype(float), np.arange(10.0))
        subset, rest = split(ts, 0.2, seed=0)
        assert subset.m == 2 and rest.m == 8

    def test_ceiling_rule(self):
        ts = TrainingSet(np.arange(5)[:, None].astype(float), np.arange(5.0))
        subset, rest = split(ts, 0.2, seed=0)
        assert subset.m == 1 and rest.m == 4

    def test_deterministic_and_partitioning(self):
        ts = TrainingSet(np.arange(20)[:, None].astype(float), np.arange(20.0))
        s1, r1 = split(ts, 0.3, seed=7)
        s2, r2 = split(ts, 0.3, seed=7)
        np.testing.assert_array_equal(s1.y, s2.y)
        np.testing.assert_array_equal(r1.y, r2.y)
        combined = np.sort(np.concatenate([s1.y, r1.y]))
        np.testing.assert_array_equal(combined, np.arange(20.0))

    def test_degenerate_split(self):
        ts = TrainingSet(np.array([[1.0]]), np.array([1.0]))
        with pytest.raises(DegenerateSplit):
            split(ts, 0.5, seed=0)
        with pytest.raises(ValueError):
            split(ts, 1.5, seed=0)


class TestCsv:
    def test_two_row_crisp_file(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("x1,y\n0,0\n1,2\n")
        ts = load_csv(path, "crisp")
        np.testing.assert_array_equal(ts.a, [[0.0], [1.0]])
        np.testing.assert_array_equal(ts.y, [0.0, 2.0])

    def test_fuzzy_file_with_zero_widths_is_crisp(self, tmp_path):
        path = tmp_path / "fz.csv"
        path.write_text(
            "x1_c,x1_w,x1_l,x1_r,y_c,y_w,y_l,y_r\n"
            "1.0,0,0,0,3.0,0,0,0\n"
            "2.0,0,0,0,4.0,0,0,0\n"
        )
        samples = load_csv(path, "fuzzy")
        assert isinstance(samples[0], FuzzySample)
        assert all(s.x[0].crisp() and s.y.crisp() for s in samples)
        assert samples[0].x[0].center == 1.0 and samples[0].y.center == 3.0

    def test_fuzzy_widths_parsed(self, tmp_path):
        path = tmp_path / "fz.csv"
        path.write_text(
            "x1_c,x1_w,x1_l,x1_r,y_c,y_w,y_l,y_r\n"
            "1.0,0.2,0.1,0.3,3.0,0.5,0,0\n"
        )
        (sample,) = load_csv(path, "fuzzy")
        assert sample.x[0].core_half_width == 0.2
        assert sample.x[0].left_spread == 0.1
        assert sample.x[0].right_spread == 0.3
        assert sample.y.core_half_width == 0.5

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n0,0\n")
        with pytest.raises(MissingHeader):
            load_csv(path, "crisp")

    def test_parse_error_reports_row_and_column(self, tmp_path):
        fuzzy_header = "x1_c,x1_w,x1_l,x1_r,y_c,y_w,y_l,y_r\n"
        cases = [
            ("crisp", "x1,y\n0,0\nfoo,1\n", 3, "x1"),
            # blank lines are skipped but still counted: rows are file lines
            ("crisp", "x1,y\n1,2\n\n\n3,abc\n", 5, "y"),
            ("fuzzy", fuzzy_header + "1,0,0,0,2,0,0,0\n\n\n1,0,0,0,2,0,x,0\n", 5, "y_l"),
        ]
        for schema, text, row, column in cases:
            path = tmp_path / "bad.csv"
            path.write_text(text)
            with pytest.raises(ParseError) as info:
                load_csv(path, schema)
            assert info.value.row == row
            assert info.value.column == column

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,y\nnan,1\n")
        with pytest.raises(ParseError):
            load_csv(path, "crisp")

    def test_inconsistent_arity(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,x2,y\n0,0,0\n1,1\n")
        with pytest.raises(InconsistentArity):
            load_csv(path, "crisp")

    @pytest.mark.parametrize("column", ["x1_w", "x2_l", "y_r"])
    def test_negative_fuzzy_width_is_parse_error(self, tmp_path, column):
        header = "x1_c,x1_w,x1_l,x1_r,x2_c,x2_w,x2_l,x2_r,y_c,y_w,y_l,y_r".split(",")
        good = ["1.0", "0.1", "0.2", "0.3"] * 3
        bad = [("-0.5" if name == column else v) for name, v in zip(header, good)]
        path = tmp_path / "fz.csv"
        path.write_text("\n".join([",".join(header), ",".join(good), ",".join(bad)]) + "\n")
        with pytest.raises(ParseError, match="negative width") as info:
            load_csv(path, "fuzzy")
        assert info.value.row == 3
        assert info.value.column == column

    def test_dataset_round_trip_bit_for_bit(self, tmp_path):
        ds = generate(sinc_spec(seed=11, n_train=40, n_test=30))
        base = tmp_path / "ds"
        save_dataset(ds, base)
        loaded = load_dataset(base)
        np.testing.assert_array_equal(loaded.train.a, ds.train.a)
        np.testing.assert_array_equal(loaded.train.y, ds.train.y)
        np.testing.assert_array_equal(loaded.test.a, ds.test.a)
        np.testing.assert_array_equal(loaded.test.y, ds.test.y)
        assert loaded.provenance == ds.provenance


SERVO_SAMPLE = (
    "E,B,5,4,0.28125095\n"
    "B,D,6,5,0.5062525\n"
    "D,D,4,3,0.35625148\n"
    "B,A,3,2,5.500033\n"
    "D,B,6,5,0.35625148\n"
    "E,C,4,3,0.8062546\n"
)


class TestUci:
    def test_servo_encoding_by_dictionary_order(self, tmp_path):
        path = tmp_path / "servo.data"
        path.write_text(SERVO_SAMPLE)
        ts, prov = load_uci_servo(path)
        assert ts.m == 6 and ts.d == 4
        assert prov["motor_codes"] == {"B": 0, "D": 1, "E": 2}
        assert prov["screw_codes"] == {"A": 0, "B": 1, "C": 2, "D": 3}
        # features are normalized
        np.testing.assert_allclose(ts.a.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(ts.a.std(axis=0), 1.0, atol=1e-12)
        assert ts.y[3] == pytest.approx(5.500033)

    def test_auto_price_drops_missing_rows(self, tmp_path):
        cols = ["0"] * 26
        cols[1], cols[25] = "100", "13000"
        good = ",".join(cols)
        bad_cols = list(cols)
        bad_cols[9] = "?"
        second = list(cols)
        second[9] = "101.5"
        second[25] = "16500"
        path = tmp_path / "imports-85.data"
        path.write_text("\n".join([good, ",".join(bad_cols), ",".join(second)]) + "\n")
        ts, prov = load_uci_auto_price(path)
        assert ts.m == 2
        assert prov["rows_dropped"] == 1
        np.testing.assert_array_equal(ts.y, [13000.0, 16500.0])

    def test_servo_arity_error(self, tmp_path):
        path = tmp_path / "servo.data"
        path.write_text("E,B,5,4\n")
        with pytest.raises(InconsistentArity):
            load_uci_servo(path)

    def test_servo_bad_cell_after_blank_lines_reports_file_line(self, tmp_path):
        path = tmp_path / "servo.data"
        path.write_text("E,B,5,4,0.28125095\n\n\nB,D,6,x,0.5062525\n")
        with pytest.raises(ParseError) as info:
            load_uci_servo(path)
        assert info.value.row == 4
        assert info.value.column == "vgain"

    def test_auto_price_bad_cell_after_dropped_rows_reports_file_line(self, tmp_path):
        cols = ["0"] * 26
        cols[1], cols[25] = "100", "13000"
        missing = list(cols)
        missing[9] = "?"
        bad = list(cols)
        bad[10] = "n/a"
        path = tmp_path / "imports-85.data"
        path.write_text("\n".join(",".join(r) for r in [cols, missing, missing, bad]) + "\n")
        with pytest.raises(ParseError) as info:
            load_uci_auto_price(path)
        assert info.value.row == 4
        assert info.value.column == "col10"

    @pytest.mark.parametrize("loader", [load_uci_servo, load_uci_auto_price])
    def test_non_utf8_file_is_data_error(self, tmp_path, loader):
        path = tmp_path / "uci.data"
        path.write_bytes(b"E,B,5,4,\xff\n")
        with pytest.raises(DataError, match="unreadable"):
            loader(path)

    @pytest.mark.parametrize("loader", [load_uci_servo, load_uci_auto_price])
    def test_empty_file_is_data_error(self, tmp_path, loader):
        path = tmp_path / "uci.data"
        path.write_text("")
        with pytest.raises(DataError, match="empty file"):
            loader(path)

    def test_auto_price_without_a_complete_row_is_data_error(self, tmp_path):
        cols = ["0"] * 26
        cols[25] = "?"
        path = tmp_path / "imports-85.data"
        path.write_text((",".join(cols) + "\n") * 3)
        with pytest.raises(DataError, match="no complete rows"):
            load_uci_auto_price(path)
