"""Tests for trapezoidal fuzzy numbers and fuzzy prediction."""

import numpy as np
import pytest

from twinreg import tsvr
from twinreg.fuzzy import (
    EmptySet,
    FuzzySample,
    KernelSpreadUnsupported,
    RaggedDimensions,
    TrapezoidalFuzzyNumber,
    crisp_number,
    defuzzify_set,
    predict_fuzzy,
    train_ftsvr,
    wrap_crisp,
)
from twinreg.tsvr import KernelSpec, TrainingSet, TsvrParams


def fuzzy_sample(xs, y):
    return FuzzySample(tuple(crisp_number(v) for v in xs), crisp_number(y))


class TestTrapezoidalFuzzyNumber:
    def test_crisp_predicate(self):
        assert TrapezoidalFuzzyNumber(1.0).crisp()
        assert not TrapezoidalFuzzyNumber(1.0, core_half_width=0.1).crisp()
        assert not TrapezoidalFuzzyNumber(1.0, left_spread=0.1).crisp()
        assert not TrapezoidalFuzzyNumber(1.0, right_spread=0.1).crisp()

    def test_negative_width_rejected(self):
        with pytest.raises(ValueError):
            TrapezoidalFuzzyNumber(0.0, core_half_width=-0.1)

    @pytest.mark.parametrize("field", range(4))
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_field_rejected(self, field, bad):
        quad = [0.5, 0.1, 0.1, 0.1]
        quad[field] = bad
        with pytest.raises(ValueError, match="finite"):
            TrapezoidalFuzzyNumber(*quad)


class TestDefuzzify:
    def test_centers_extracted(self):
        sample = FuzzySample(
            (TrapezoidalFuzzyNumber(1.0, 0.2, 0.1, 0.1),),
            TrapezoidalFuzzyNumber(3.0),
        )
        ts = defuzzify_set([sample])
        np.testing.assert_array_equal(ts.a, [[1.0]])
        np.testing.assert_array_equal(ts.y, [3.0])

    def test_crisp_samples_reduce_to_raw_values(self):
        samples = [fuzzy_sample([0.5, -1.0], 2.0), fuzzy_sample([1.5, 0.0], -1.0)]
        ts = defuzzify_set(samples)
        np.testing.assert_array_equal(ts.a, [[0.5, -1.0], [1.5, 0.0]])
        np.testing.assert_array_equal(ts.y, [2.0, -1.0])

    def test_wrap_crisp_round_trips_generated_data(self):
        from twinreg import data as data_mod
        ds = data_mod.generate(data_mod.sinc_spec(seed=3, n_train=200, n_test=5))
        ts = defuzzify_set(wrap_crisp(ds.train))
        np.testing.assert_array_equal(ts.a, ds.train.a)
        np.testing.assert_array_equal(ts.y, ds.train.y)

    def test_empty_set(self):
        with pytest.raises(EmptySet):
            defuzzify_set([])

    def test_ragged_dimensions(self):
        with pytest.raises(RaggedDimensions):
            defuzzify_set([fuzzy_sample([1.0], 0.0), fuzzy_sample([1.0, 2.0], 0.0)])


class TestCrispReduction:
    def test_models_identical_on_crisp_data(self):
        rng = np.random.default_rng(77)
        for rep in range(20):
            m = int(rng.integers(3, 15))
            d = int(rng.integers(1, 4))
            a = rng.normal(size=(m, d))
            y = rng.normal(size=m)
            kernel = KernelSpec("gaussian", 1.0) if rep % 4 == 0 else KernelSpec()
            params = TsvrParams(1.0, 1.0, 0.1, 0.1, 0.05, 0.05, kernel)
            crisp_model = tsvr.train(TrainingSet(a, y), params)
            fuzzy_model = train_ftsvr(wrap_crisp(TrainingSet(a, y)), params)
            np.testing.assert_allclose(fuzzy_model.w1, crisp_model.w1, atol=1e-12)
            np.testing.assert_allclose(fuzzy_model.w2, crisp_model.w2, atol=1e-12)
            assert fuzzy_model.b1 == pytest.approx(crisp_model.b1, abs=1e-12)
            assert fuzzy_model.b2 == pytest.approx(crisp_model.b2, abs=1e-12)
            x = rng.normal(size=d)
            pred = predict_fuzzy(fuzzy_model, tuple(crisp_number(v) for v in x))
            assert pred.spread == 0.0
            assert pred.center == pytest.approx(
                tsvr.predict(crisp_model, x), abs=1e-12
            )

    def test_negation_symmetry_carries_over(self):
        rng = np.random.default_rng(88)
        a = rng.normal(size=(10, 2))
        y = rng.normal(size=10)
        params = TsvrParams(1.0, 2.0, 0.1, 0.05, 0.1, 0.2)
        swapped = TsvrParams(2.0, 1.0, 0.05, 0.1, 0.2, 0.1)
        direct = train_ftsvr(wrap_crisp(TrainingSet(a, y)), params)
        negated = train_ftsvr(wrap_crisp(TrainingSet(a, -y)), swapped)
        x = rng.normal(size=(50, 2))
        np.testing.assert_allclose(
            tsvr.predict(negated, x), -np.asarray(tsvr.predict(direct, x)),
            atol=1e-8,
        )


class TestPredictFuzzy:
    def make_linear_model(self, w_sum, b_sum):
        # split the requested sums across the two proximal functions
        from dataclasses import replace
        d = len(w_sum)
        base = tsvr.train(
            TrainingSet(np.zeros((1, d)), [0.0]), TsvrParams(1, 1, 1, 1)
        )
        half = np.asarray(w_sum, dtype=float) / 2
        return replace(base, w1=half, w2=half, b1=b_sum / 2, b2=b_sum / 2)

    def test_direct_formula(self):
        model = self.make_linear_model([2.0], 2.0)
        pred = predict_fuzzy(model, (TrapezoidalFuzzyNumber(1.0, 0.5),))
        assert pred.center == pytest.approx(2.0, abs=1e-12)
        assert pred.spread == pytest.approx(0.5, abs=1e-12)

    def test_componentwise_absolute_weights(self):
        model = self.make_linear_model([1.0, -3.0], 0.0)
        pred = predict_fuzzy(
            model,
            (TrapezoidalFuzzyNumber(0.0, 0.1), TrapezoidalFuzzyNumber(0.0, 0.2)),
        )
        assert pred.spread == pytest.approx(0.35, abs=1e-12)

    def test_crisp_input_reduces_to_point_prediction(self):
        model = self.make_linear_model([2.0], 2.0)
        pred = predict_fuzzy(model, (crisp_number(1.5),))
        assert pred.spread == 0.0
        assert pred.center == pytest.approx(tsvr.predict(model, [1.5]), abs=1e-12)

    def test_kernel_spread_unsupported(self):
        rng = np.random.default_rng(3)
        ts = TrainingSet(rng.normal(size=(6, 1)), rng.normal(size=6))
        model = tsvr.train(
            ts, TsvrParams(1, 1, 0.1, 0.1, kernel=KernelSpec("gaussian", 1.0))
        )
        with pytest.raises(KernelSpreadUnsupported):
            predict_fuzzy(model, (TrapezoidalFuzzyNumber(0.0, 0.1),))
        # crisp queries remain fine on kernel models
        pred = predict_fuzzy(model, (crisp_number(0.0),))
        assert pred.spread == 0.0

    def test_spread_monotone_in_widths(self):
        rng = np.random.default_rng(5)
        model = self.make_linear_model(rng.normal(size=3).tolist(), 0.3)
        widths = np.abs(rng.normal(size=3))
        centers = rng.normal(size=3)
        def spread(ws):
            xs = tuple(
                TrapezoidalFuzzyNumber(c, w) for c, w in zip(centers, ws)
            )
            return predict_fuzzy(model, xs).spread
        base = spread(widths)
        for j in range(3):
            grown = widths.copy()
            grown[j] *= 2.5
            assert spread(grown) >= base

    def test_spread_positive_homogeneity(self):
        model = self.make_linear_model([1.5, -0.5], 0.0)
        xs = (TrapezoidalFuzzyNumber(0.3, 0.2), TrapezoidalFuzzyNumber(-1.0, 0.4))
        base = predict_fuzzy(model, xs).spread
        for k in (0.0, 0.5, 2.0, 7.5):
            scaled = tuple(
                TrapezoidalFuzzyNumber(c.center, k * c.core_half_width)
                for c in xs
            )
            assert predict_fuzzy(model, scaled).spread == pytest.approx(
                k * base, abs=1e-12
            )

    def test_center_independent_of_widths(self):
        model = self.make_linear_model([1.0, 2.0], -0.7)
        crisp = predict_fuzzy(model, (crisp_number(0.4), crisp_number(-0.2)))
        wide = predict_fuzzy(
            model,
            (
                TrapezoidalFuzzyNumber(0.4, 3.0, 1.0, 2.0),
                TrapezoidalFuzzyNumber(-0.2, 5.0, 0.5, 0.5),
            ),
        )
        assert wide.center == pytest.approx(crisp.center, abs=1e-15)
        assert wide.spread > 0
