"""Tests for the hyperparameter grid search."""

import numpy as np
import pytest

from twinreg import data as data_mod
from twinreg import hierarchy as hier_mod
from twinreg import tsvr
from twinreg.hierarchy import HfTsvrModel, HierarchyConfig
from twinreg.qp import MaxIterationsExceeded, NotPositiveDefinite
from twinreg.search import AllCellsFailed, GridSpec, fit, grid_search, predict
from twinreg.tsvr import KernelSpec, TrainingSet, TsvrParams


def line_dataset(m=20, slope=2.0, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, m)
    train = TrainingSet(x[:, None], slope * x)
    xt = rng.uniform(-1, 1, m)
    test = TrainingSet(xt[:, None], slope * xt)
    return data_mod.Dataset(train, test, {"kind": "test"})


def noisy_sinc(seed=0):
    return data_mod.generate(data_mod.sinc_spec(seed=seed, n_train=60, n_test=40))


def tsvr_key(params):
    """The grid key of a tsvr cell: its six searched values."""
    return (params.p1, params.p2, params.p3, params.p4, params.eps1, params.eps2)


def hierarchy_key(config):
    """The grid key of a hierarchy cell: (S, p3, eps)."""
    return (config.s_factor, config.regularization()[0], config.eps)


class TestGridSpec:
    def test_power_grid(self):
        grid = GridSpec(exponent_low=-2, exponent_high=2)
        assert grid.power_grid() == [0.25, 0.5, 1.0, 2.0, 4.0]

    def test_stride(self):
        grid = GridSpec(exponent_low=-3, exponent_high=3, exponent_step=3)
        assert grid.power_grid() == [0.125, 1.0, 8.0]

    def test_eps_grid_scaled_with_zero(self):
        grid = GridSpec(exponent_low=-3, exponent_high=3)
        values = grid.eps_grid(2.0)
        assert values[0] == 0.0
        assert values[1:] == [2.0 ** k * 2.0 for k in (-3, -2, -1)]

    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(exponent_low=3, exponent_high=-3)
        with pytest.raises(ValueError):
            GridSpec(objective="rmse")

    def test_exponents_where_two_to_the_k_is_a_positive_finite_float(self):
        assert GridSpec(exponent_low=-1074, exponent_high=1023).power_grid()[-1] == 2.0**1023
        for low, high in ((-1075, 0), (0, 1024)):
            with pytest.raises(ValueError, match="positive finite"):
                GridSpec(exponent_low=low, exponent_high=high)

    @pytest.mark.parametrize("fraction", [0.0, 1.0, 1.5, -0.2, float("nan")])
    def test_tuning_fraction_outside_unit_interval_rejected(self, fraction):
        with pytest.raises(ValueError, match="tuning_fraction"):
            GridSpec(tuning_fraction=fraction)

    def test_hierarchy_cells_fall_back_to_unit_s(self):
        # no power of two in 8..32 lies in [0.25, 5], and no tube exponent < 0
        from twinreg import search as search_mod

        grid = GridSpec(exponent_low=3, exponent_high=5)
        cells = list(search_mod._hierarchy_cells(grid, 2.0, HierarchyConfig()))
        expected = [(1.0, 8.0, 1.0), (1.0, 16.0, 1.0), (1.0, 32.0, 1.0)]
        assert [key for key, _ in cells] == expected
        assert [hierarchy_key(c) for _, c in cells] == expected


class TestGridSearch:
    def test_single_cell_grid_returns_that_cell(self):
        ds = noisy_sinc()
        grid = GridSpec(exponent_low=0, exponent_high=0)
        params, report = grid_search(ds, "tsvr", grid, seed=0)
        assert params.p1 == 1.0 and params.p3 == 1.0
        # one p1 value, one p3 value, eps in {0} (stride leaves no negatives)
        assert len(report.cells) == 1
        assert report.failures == []

    def test_tie_break_prefers_smallest_parameters(self, monkeypatch):
        # force every cell to produce the same model: all scores tie exactly
        # and the lexicographically smallest (p1, .., p3, .., eps) must win
        from twinreg import search as search_mod

        ds = line_dataset()
        frozen = search_mod.tsvr_mod.train(
            ds.train, TsvrParams(1.0, 1.0, 1.0, 1.0)
        )
        monkeypatch.setattr(
            search_mod.tsvr_mod, "train", lambda ts, params: frozen
        )
        grid = GridSpec(exponent_low=0, exponent_high=2)
        params, report = grid_search(ds, "tsvr", grid, seed=0)
        scores = {c["score"] for c in report.cells}
        assert len(scores) == 1
        assert params.p1 == 1.0
        assert params.p3 == 1.0
        assert params.eps1 == 0.0

    @pytest.mark.parametrize("lower, winner", [
        (np.nextafter(1.0, 0.0), "smallest"),  # one ulp better: a round-off tie
        (1.0 - 2.0**-30, "larger"),  # a real gain still wins
    ])
    def test_near_tie_within_round_off(self, monkeypatch, lower, winner):
        # every cell scores 2 except the smallest key, which scores 1.0, and
        # a larger key, which scores ``lower``
        from twinreg import search as search_mod

        keys = {"smallest": (1.0, 1.0, 1.0, 1.0, 0.0, 0.0),
                "larger": (4.0, 4.0, 4.0, 4.0, 0.0, 0.0)}
        scores = {keys["smallest"]: 1.0, keys["larger"]: lower}
        monkeypatch.setattr(search_mod, "fit", lambda ts, params, designs=None: params)
        monkeypatch.setattr(search_mod, "predict", lambda model, x: tsvr_key(model))
        monkeypatch.setattr(search_mod, "_score", lambda y, key, objective: scores.get(key, 2.0))
        grid = GridSpec(exponent_low=0, exponent_high=2)
        params, report = grid_search(line_dataset(), "tsvr", grid, seed=0)
        assert tsvr_key(params) == keys[winner]
        assert report.best_cell["key"] == keys[winner]

    def test_deterministic_given_seed(self):
        ds = noisy_sinc(seed=1)
        grid = GridSpec(exponent_low=-2, exponent_high=2, exponent_step=2)
        p1, r1 = grid_search(ds, "tsvr", grid, seed=5)
        p2, r2 = grid_search(ds, "tsvr", grid, seed=5)
        assert p1 == p2
        assert r1.best_cell == r2.best_cell
        assert [c["score"] for c in r1.cells] == [c["score"] for c in r2.cells]

    def test_split_sizes_match_protocol(self):
        ds = noisy_sinc(seed=2)
        grid = GridSpec(exponent_low=0, exponent_high=0)
        _, report = grid_search(ds, "tsvr", grid, seed=0)
        assert report.tuning_size == 12  # ceil(0.2 * 60)
        assert report.fit_size == 48

    def test_ftsvr_matches_tsvr_choice(self):
        ds = noisy_sinc(seed=3)
        grid = GridSpec(exponent_low=-1, exponent_high=1)
        pt, _ = grid_search(ds, "tsvr", grid, seed=0)
        pf, _ = grid_search(ds, "ftsvr", grid, seed=0)
        assert pt == pf

    def test_hierarchy_search_returns_config_and_model(self):
        ds = noisy_sinc(seed=4)
        grid = GridSpec(exponent_low=-3, exponent_high=3, exponent_step=3)
        config, report = grid_search(
            ds, "hftsvr", grid, seed=0, hierarchy_base=HierarchyConfig(max_layers=3)
        )
        assert isinstance(config, HierarchyConfig)
        assert isinstance(report.final_model, HfTsvrModel)
        assert 0.25 <= config.s_factor <= 5.0
        assert config.eps > 0

    def test_kernelized_tsvr_search(self):
        ds = noisy_sinc(seed=5)
        grid = GridSpec(
            exponent_low=-1, exponent_high=1,
            kernel=KernelSpec("gaussian", 3.0),
        )
        params, report = grid_search(ds, "tsvr", grid, seed=0)
        assert params.kernel.kind == "gaussian"
        assert report.final_model.basis is not None

    def test_hierarchy_search_matches_independent_fits(self):
        # The search shares first-pass layer designs across its cells; each
        # cell must score exactly as a hierarchy fitted on its own.
        from twinreg import data as data_mod
        from twinreg import search as search_mod
        from twinreg.hierarchy import predict_hierarchy, train_hierarchy

        ds = noisy_sinc(seed=7)
        grid = GridSpec(exponent_low=-3, exponent_high=3, exponent_step=3)
        # a fixed tau1 gives the fit set and the full set the same scales
        base = HierarchyConfig(max_layers=4, tau1=24.0)
        best, report = grid_search(ds, "hftsvr", grid, seed=0, hierarchy_base=base)

        tune_set, fit_set = data_mod.split(ds.train, grid.tuning_fraction, 0)
        y_std = float(np.std(ds.train.y))
        cells = []
        for key, cfg in search_mod._hierarchy_cells(grid, y_std, base):
            assert key == hierarchy_key(cfg)
            model = train_hierarchy(fit_set, cfg)
            score = search_mod._score(
                tune_set.y, predict_hierarchy(model, tune_set.a), grid.objective
            )
            cells.append({"key": hierarchy_key(cfg), "score": score})
        assert report.failures == []
        assert report.cells == cells
        winner = min(cells, key=lambda c: (c["score"], c["key"]))
        assert report.best_cell == winner
        assert hierarchy_key(best) == winner["key"]
        refit = train_hierarchy(ds.train, best)
        np.testing.assert_array_equal(
            predict_hierarchy(report.final_model, ds.test.a),
            predict_hierarchy(refit, ds.test.a),
        )

    def test_unknown_regressor_rejected(self):
        with pytest.raises(ValueError):
            grid_search(noisy_sinc(), "svr", GridSpec(), seed=0)

    def test_winner_retrained_on_full_training_set(self):
        ds = noisy_sinc(seed=6)
        grid = GridSpec(exponent_low=0, exponent_high=0)
        _, report = grid_search(ds, "tsvr", grid, seed=0)
        assert report.final_model.diagnostics.alpha.size == ds.train.m


class TestCellFailures:
    GRID = GridSpec(exponent_low=0, exponent_high=2)

    @staticmethod
    def fail_when(monkeypatch, error, p1):
        """Make every fit with ``params.p1 == p1`` raise ``error``."""
        from twinreg import search as search_mod

        real = search_mod.tsvr_mod.train

        def train(ts, params):
            if params.p1 == p1:
                raise error
            return real(ts, params)

        monkeypatch.setattr(search_mod.tsvr_mod, "train", train)

    def test_typed_failure_recorded_and_skipped(self, monkeypatch):
        self.fail_when(monkeypatch, MaxIterationsExceeded(np.zeros(1), 1.0), 2.0)
        _, report = grid_search(line_dataset(), "tsvr", self.GRID, seed=0)
        failed = [f["key"] for f in report.failures]
        assert failed and all(key[0] == 2.0 for key in failed)
        assert all(
            f["error"].startswith("MaxIterationsExceeded") for f in report.failures
        )
        assert {c["key"][0] for c in report.cells} == {1.0, 4.0}

    def test_non_finite_score_recorded_and_skipped(self, monkeypatch):
        from twinreg import search as search_mod

        real = search_mod.tsvr_mod.predict

        def nan_for_p1_two(model, x):
            yhat = real(model, x)
            return np.full_like(yhat, np.nan) if model.params.p1 == 2.0 else yhat

        monkeypatch.setattr(search_mod.tsvr_mod, "predict", nan_for_p1_two)
        _, report = grid_search(line_dataset(), "tsvr", self.GRID, seed=0)
        assert report.failures
        assert all(f["key"][0] == 2.0 for f in report.failures)
        assert all(f["error"] == "non-finite score nan" for f in report.failures)
        assert {c["key"][0] for c in report.cells} == {1.0, 4.0}

    def test_every_cell_failing_is_typed(self, monkeypatch):
        self.fail_when(monkeypatch, NotPositiveDefinite("singular"), 1.0)
        grid = GridSpec(exponent_low=0, exponent_high=0)
        with pytest.raises(AllCellsFailed):
            grid_search(line_dataset(), "tsvr", grid, seed=0)

    def test_untyped_error_propagates(self, monkeypatch):
        self.fail_when(monkeypatch, TypeError("a programming error"), 2.0)
        with pytest.raises(TypeError, match="a programming error"):
            grid_search(line_dataset(), "tsvr", self.GRID, seed=0)


class TestFitPredict:
    def test_twin_regressor_for_tsvr_params(self):
        ds = noisy_sinc()
        params = TsvrParams(1.0, 1.0, 0.1, 0.1, 0.05, 0.05, KernelSpec("gaussian", 2.0))
        model = fit(ds.train, params)
        direct = tsvr.train(ds.train, params)
        np.testing.assert_array_equal(
            predict(model, ds.test.a), tsvr.predict(direct, ds.test.a)
        )
        assert model.support_vector_count() == direct.support_vector_count()

    def test_hierarchy_for_hierarchy_config(self):
        ds = noisy_sinc()
        config = HierarchyConfig(max_layers=3)
        model = fit(ds.train, config, designs={})
        direct = hier_mod.train_hierarchy(ds.train, config)
        assert isinstance(model, HfTsvrModel)
        np.testing.assert_array_equal(
            predict(model, ds.test.a), hier_mod.predict_hierarchy(direct, ds.test.a)
        )
        assert isinstance(predict(model, ds.test.a[0]), float)
        assert model.support_vector_count() == sum(
            layer.model.support_vector_count() for layer in direct.layers
        )


# The cells grid_search selects on x^(2/3) for base seeds 1-12 with the
# paper's exponent range at every sixth exponent, as (p1 = p2, p3 = p4,
# eps1 = eps2).  A refactor of the fit must not move them.
POW23_POOL_CELLS = {
    1: (8.0, 0.125, 0.0),
    2: (0.125, 2.0**-9, 0.0),
    3: (512.0, 2.0**-9, 0.0),
    4: (8.0, 8.0, 0.06075398955814011),
    5: (8.0, 8.0, 0.058996218389485676),
    6: (8.0, 8.0, 0.0),
    7: (0.125, 2.0**-9, 0.05998122376479698),
    8: (8.0, 2.0**-9, 0.06019600822148871),
    9: (2.0**-9, 8.0, 0.0),
    10: (2.0**-9, 8.0, 0.0568127543498287),
    11: (2.0**-9, 8.0, 0.0),
    12: (8.0, 2.0**-9, 0.05735060140491416),
}


@pytest.mark.parametrize("seed, cell", POW23_POOL_CELLS.items())
def test_pow23_pool_cells_do_not_move(seed, cell):
    ds = data_mod.generate(data_mod.power_two_thirds_spec(seed))
    _, report = grid_search(ds, "tsvr", GridSpec(exponent_step=6), seed)
    p, p3, eps = cell
    expected = (p, p, p3, p3, eps, eps)
    assert tuple(report.best_cell["key"]) == pytest.approx(expected, rel=1e-12)
