"""Tests for the multi-scale residual hierarchy."""

import math
import weakref
from dataclasses import replace

import numpy as np
import pytest

from twinreg import data as data_mod
from twinreg import tsvr
from twinreg.hierarchy import (
    DegenerateDomain,
    HierarchyConfig,
    InvalidDivisor,
    NonFiniteVariance,
    ZeroVariance,
    auto_tau1,
    layer_tradeoff,
    predict_hierarchy,
    prune_set,
    scale_schedule,
    second_pass_tradeoff,
    train_hierarchy,
)
from twinreg.model_io import load_model, save_model
from twinreg.tsvr import DimensionMismatch, KernelSpec, TrainingSet, TsvrParams

from oracles import count_kernel_entries


def small_sinc_dataset(seed=0, n_train=60):
    return data_mod.generate(data_mod.sinc_spec(seed=seed, n_train=n_train, n_test=40))


def eigh_design(a, kernel):
    """Reduced design from a full eigendecomposition of K(a, a), as an oracle."""
    k = tsvr.gaussian_kernel(a, a, kernel.tau)
    lam, q = np.linalg.eigh(k)
    keep = lam > lam[-1] * len(a) * np.finfo(float).eps
    q_r = q[:, keep]
    return tsvr.Design(np.hstack([q_r * lam[keep], np.ones((len(a), 1))]), q_r, kernel)


class TestScaleSchedule:
    def test_halving_schedule(self):
        assert scale_schedule(8.0, 2.0, 4) == [8.0, 4.0, 2.0, 1.0]

    def test_single_layer(self):
        assert scale_schedule(5.0, 2.0, 1) == [5.0]

    def test_geometric_thirds(self):
        np.testing.assert_allclose(scale_schedule(9.0, 3.0, 3), [9.0, 3.0, 1.0])


class TestAutoTau1:
    def test_one_dim_interval(self):
        ts = TrainingSet(np.array([[-2.0], [0.5], [2.0]]), np.zeros(3))
        assert auto_tau1(ts) == pytest.approx(4.0)

    def test_sinc_domain_width(self):
        ts = TrainingSet(np.array([[-4 * math.pi], [4 * math.pi]]), np.zeros(2))
        assert auto_tau1(ts) == pytest.approx(8 * math.pi)

    def test_two_dim_box_diagonal(self):
        ts = TrainingSet(np.array([[0.0, 0.0], [3.0, 4.0], [1.0, 1.0]]), np.zeros(3))
        assert auto_tau1(ts) == pytest.approx(5.0)

    def test_degenerate_domain(self):
        with pytest.raises(DegenerateDomain):
            auto_tau1(TrainingSet(np.array([[1.0], [1.0]]), np.zeros(2)))

    def test_single_sample_is_degenerate_domain(self):
        with pytest.raises(DegenerateDomain):
            auto_tau1(TrainingSet(np.array([[0.5]]), np.zeros(1)))


class TestLayerTradeoff:
    def test_alternating_unit_residuals(self):
        assert layer_tradeoff(np.array([1.0, -1.0, 1.0, -1.0]), 2.0) == pytest.approx(2.0)

    def test_population_variance_definition(self):
        assert layer_tradeoff(np.array([0.0, 1.0, 2.0]), 1.0) == pytest.approx(2.0 / 3.0)


class TestPruneSet:
    def test_border_and_inside_predicate(self):
        kept = prune_set(np.array([0.09, 0.2, 0.04, 0.11]), 0.1, 2.0, 0.02)
        assert set(kept.tolist()) == {0, 2, 3}

    def test_perfect_fit_keeps_everything(self):
        kept = prune_set(np.zeros(7), 0.1, 2.0, 0.01)
        assert kept.size == 7

    def test_band_with_tp_equal_eps_covers_two_tubes(self):
        # | |r| - eps | < eps holds for all |r| in (0, 2 eps)
        kept = prune_set(np.array([0.01, 0.1, 0.19, 0.21]), 0.1, 2.0, 0.1)
        assert set(kept.tolist()) == {0, 1, 2}

    def test_negative_residuals_symmetric(self):
        kept_pos = prune_set(np.array([0.09, 0.2, 0.04, 0.11]), 0.1, 2.0, 0.02)
        kept_neg = prune_set(-np.array([0.09, 0.2, 0.04, 0.11]), 0.1, 2.0, 0.02)
        np.testing.assert_array_equal(kept_pos, kept_neg)


class TestSecondPassTradeoff:
    def test_quarter_kept(self):
        assert second_pass_tradeoff(2.0, 100, 25) == pytest.approx(8.0)

    def test_identity_when_nothing_pruned(self):
        assert second_pass_tradeoff(0.7, 50, 50) == pytest.approx(0.7)

    def test_sinc_scale_sizes(self):
        assert second_pass_tradeoff(0.5, 272, 68) == pytest.approx(2.0)


class TestTrainHierarchy:
    def test_constant_targets_train_zero_layers(self):
        ts = TrainingSet(np.linspace(-1, 1, 10)[:, None], np.zeros(10))
        model = train_hierarchy(ts, HierarchyConfig())
        assert len(model.layers) == 0
        assert predict_hierarchy(model, [0.3]) == 0.0
        np.testing.assert_array_equal(
            predict_hierarchy(model, np.zeros((5, 1))), np.zeros(5)
        )

    @pytest.mark.parametrize("value", [2.0, 0.1, -1.0])
    def test_constant_non_zero_targets_raise_zero_variance(self, value):
        # Every layer's loss weight S * var(Y) is 0, so an empty model
        # predicting 0 would be all a fit could give.
        ts = TrainingSet(np.linspace(-1, 1, 10)[:, None], np.full(10, value))
        with pytest.raises(ZeroVariance):
            train_hierarchy(ts, HierarchyConfig())

    def test_single_layer_no_pruning_equals_plain_kernel_model(self):
        ds = small_sinc_dataset()
        config = HierarchyConfig(max_layers=1, pruning_enabled=False, eps=0.1)
        model = train_hierarchy(ds.train, config)
        assert len(model.layers) == 1
        layer, row = model.layers[0], model.training_report["layers"][0]
        params = TsvrParams(
            p1=row["b_v"], p2=row["b_v"], p3=0.1, p4=0.1,
            eps1=0.1, eps2=0.1, kernel=KernelSpec("gaussian", layer.tau),
        )
        design = tsvr.make_design(ds.train, params.kernel)
        direct = tsvr.train(ds.train, params, design=design)
        # The layer is the plain model re-expressed on its factor's pivots.
        np.testing.assert_array_equal(
            np.asarray(predict_hierarchy(model, ds.test.a)),
            np.asarray(tsvr.predict(tsvr.on_pivots(direct, design), ds.test.a)),
        )
        np.testing.assert_allclose(
            np.asarray(predict_hierarchy(model, ds.test.a)),
            np.asarray(tsvr.predict(direct, ds.test.a)), rtol=0, atol=1e-12,
        )

    def test_prediction_is_sum_of_layer_predictions(self):
        ds = small_sinc_dataset(seed=1)
        model = train_hierarchy(ds.train, HierarchyConfig(max_layers=4))
        rng = np.random.default_rng(0)
        x = rng.uniform(-12, 12, size=(100, 1))
        total = np.zeros(100)
        for layer in model.layers:
            total += np.asarray(tsvr.predict(layer.model, x))
        np.testing.assert_allclose(predict_hierarchy(model, x), total, atol=1e-12)

    def test_tau_follows_schedule_and_decreases(self):
        ds = small_sinc_dataset(seed=2)
        config = HierarchyConfig(max_layers=5, tau1=10.0)
        model = train_hierarchy(ds.train, config)
        expected = scale_schedule(10.0, 2.0, 5)
        taus = [layer.tau for layer in model.layers]
        np.testing.assert_allclose(taus, expected[: len(taus)])
        assert all(b < a for a, b in zip(taus, taus[1:]))

    def test_pruning_invariants(self):
        ds = small_sinc_dataset(seed=3)
        model = train_hierarchy(ds.train, HierarchyConfig(max_layers=5))
        m = ds.train.m
        for row in model.training_report["layers"]:
            assert row["b_v_prime"] >= row["b_v"]
            assert row["prune_set_size"] <= row["total_points"] == m
            if row["second_pass_adopted"]:
                assert 0 < row["prune_set_size"] < m
                assert row["b_v_prime"] == row["b_v"] * m / row["prune_set_size"]

    def test_residual_bookkeeping_matches_recomputation(self):
        ds = small_sinc_dataset(seed=4)
        model = train_hierarchy(ds.train, HierarchyConfig(max_layers=5))
        rows = model.training_report["layers"]
        partial = np.zeros(ds.train.m)
        for layer, row in zip(model.layers, rows):
            partial += np.asarray(tsvr.predict(layer.model, ds.train.a))
            recomputed = float(np.var(ds.train.y - partial))
            assert abs(recomputed - row["residual_variance_out"]) <= 1e-10

    def test_residual_variance_strictly_decreases(self):
        ds = small_sinc_dataset(seed=5)
        model = train_hierarchy(ds.train, HierarchyConfig(max_layers=6))
        rows = model.training_report["layers"]
        sequence = [rows[0]["residual_variance_in"]] + [
            row["residual_variance_out"] for row in rows
        ]
        assert all(b < a for a, b in zip(sequence, sequence[1:]))

    def test_determinism(self):
        ds = small_sinc_dataset(seed=6)
        config = HierarchyConfig(max_layers=4)
        a = train_hierarchy(ds.train, config)
        b = train_hierarchy(ds.train, config)
        x = np.linspace(-12, 12, 50)[:, None]
        np.testing.assert_array_equal(
            np.asarray(predict_hierarchy(a, x)), np.asarray(predict_hierarchy(b, x))
        )
        assert len(a.layers) == len(b.layers)
        for ra, rb in zip(a.training_report["layers"], b.training_report["layers"]):
            assert ra["b_v"] == rb["b_v"]
            assert ra["b_v_prime"] == rb["b_v_prime"]

    def test_variance_floor_stops_training(self):
        ds = small_sinc_dataset(seed=7)
        config = HierarchyConfig(max_layers=6, stop_residual_var=1e9)
        model = train_hierarchy(ds.train, config)
        assert len(model.layers) == 0
        assert model.training_report["stop_reason"] == "variance_floor"

    def test_relative_improvement_stop(self):
        ds = small_sinc_dataset(seed=8)
        config = HierarchyConfig(max_layers=6, stop_rel_improvement=0.9999)
        model = train_hierarchy(ds.train, config)
        assert len(model.layers) <= 1

    def test_dimension_mismatch(self):
        ds = small_sinc_dataset(seed=9)
        model = train_hierarchy(ds.train, HierarchyConfig(max_layers=2))
        with pytest.raises(DimensionMismatch):
            predict_hierarchy(model, np.zeros((3, 2)))

    def test_training_memory_is_linear_in_m(self):
        # Each layer's residual on its own 3,000 inputs would take a
        # 3,000 x 3,000 kernel block (69 MiB) if built in one piece.
        import tracemalloc

        ts = data_mod.generate(data_mod.sinc_spec(0, n_train=3000, n_test=2)).train
        tracemalloc.start()
        try:
            model = train_hierarchy(ts, HierarchyConfig(max_layers=2))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(model.layers) == 2
        assert peak < 8 * 2**20

    def test_design_rank_within_basis(self):
        ds = small_sinc_dataset(seed=10)
        model = train_hierarchy(ds.train, HierarchyConfig(max_layers=6))
        assert model.training_report["layers"]
        for row in model.training_report["layers"]:
            basis = row["prune_set_size"] if row["second_pass_adopted"] \
                else row["total_points"]
            assert 1 <= row["design_rank"] <= basis
        ranks = [row["design_rank"] for row in model.training_report["layers"]]
        # a coarse scale is smooth, so its kernel matrix has a low rank
        assert ranks[0] < ds.train.m // 2

    def test_shared_designs_filled_once_and_reused(self):
        ds = small_sinc_dataset(seed=11)
        config = HierarchyConfig(max_layers=4)
        designs = {}
        first = train_hierarchy(ds.train, config, designs=designs)
        assert sorted(designs, reverse=True) == [layer.tau for layer in first.layers]
        kept = dict(designs)
        again = train_hierarchy(ds.train, replace(config, s_factor=2.0), designs=designs)
        plain = train_hierarchy(ds.train, replace(config, s_factor=2.0))
        assert all(designs[tau] is kept[tau] for tau in kept)
        x = np.linspace(-12, 12, 50)[:, None]
        np.testing.assert_array_equal(
            np.asarray(predict_hierarchy(again, x)),
            np.asarray(predict_hierarchy(plain, x)),
        )

    @pytest.mark.parametrize("seed", range(8))
    def test_factor_designs_match_eigh_designs(self, seed, monkeypatch):
        ts = data_mod.generate(data_mod.sinc_spec(seed)).train
        config = HierarchyConfig(max_layers=6, eps=0.1)
        model = train_hierarchy(ts, config)
        with monkeypatch.context() as patch:
            patch.setattr(tsvr, "make_design", lambda t, kernel: eigh_design(t.a, kernel))
            patch.setattr(tsvr, "subset_design",
                          lambda design, kept: eigh_design(ts.a[kept], design.kernel))
            oracle = train_hierarchy(ts, config)
        keys = ("second_pass_adopted", "prune_set_size", "design_rank", "sv_count_final")

        def rows(m):
            return [[row[k] for k in keys] for row in m.training_report["layers"]]

        assert rows(model) == rows(oracle)
        x = np.linspace(-4 * math.pi, 4 * math.pi, 501)[:, None]
        np.testing.assert_allclose(
            predict_hierarchy(model, x), predict_hierarchy(oracle, x), rtol=0, atol=1e-10
        )

    @pytest.mark.parametrize("seed", range(8))
    def test_pivot_layers_match_full_basis_layers(self, seed, monkeypatch, tmp_path):
        ts = data_mod.generate(data_mod.sinc_spec(seed)).train
        config = HierarchyConfig(max_layers=6, eps=0.1)
        model = train_hierarchy(ts, config)
        with monkeypatch.context() as patch:
            patch.setattr(tsvr, "on_pivots", lambda layer_model, design: layer_model)
            full = train_hierarchy(ts, config)

        def rows(m):
            return [{k: v for k, v in row.items() if k not in ("basis_size", "train_seconds")}
                    for row in m.training_report["layers"]]

        assert rows(model) == rows(full)
        for layer, whole, row in zip(model.layers, full.layers,
                                     model.training_report["layers"]):
            assert row["basis_size"] == len(layer.model.basis) <= len(whole.model.basis)
        x = np.linspace(-4 * math.pi, 4 * math.pi, 4001)[:, None]
        served = predict_hierarchy(model, x)
        gap = np.max(np.abs(served - predict_hierarchy(full, x)))
        assert gap <= 1e-10 * (1 + np.max(np.abs(ts.y)))
        save_model(model, tmp_path / "model.json")
        np.testing.assert_array_equal(
            predict_hierarchy(load_model(tmp_path / "model.json"), x), served
        )

    @pytest.mark.parametrize("m", [1000, 4000])
    def test_kernel_entries_per_fit_are_linear_in_m(self, m, monkeypatch):
        # Each layer factors its kernel matrix from p rows of m entries and
        # takes its residuals from the factor, so a fit builds about
        # m * sum(p) entries; one kernel row per training point would be m^2.
        ts = data_mod.generate(data_mod.sinc_spec(0, n_train=m, n_test=2)).train
        entries = count_kernel_entries(monkeypatch)
        model = train_hierarchy(ts, HierarchyConfig(max_layers=6, eps=0.1))
        ranks = sum(row["design_rank"] for row in model.training_report["layers"])
        assert 0 < entries[0] <= 2 * m * ranks

    def test_layer_designs_are_freed_without_a_shared_dict(self, monkeypatch):
        made, alive = [], []
        real = tsvr.make_design

        def make_design(ts, kernel):
            alive.append(sum(ref() is not None for ref in made))
            design = real(ts, kernel)
            made.append(weakref.ref(design))
            return design

        monkeypatch.setattr(tsvr, "make_design", make_design)
        model = train_hierarchy(small_sinc_dataset(seed=13).train,
                                HierarchyConfig(max_layers=4))
        assert len(model.layers) == len(made) == 4
        assert alive == [0, 0, 0, 0]
        assert all(ref() is None for ref in made)

    def test_overflowing_target_variance_is_rejected(self):
        ts = TrainingSet([[2.9e-216], [7.8e-197], [6.35]], [-7.5e92, 3.4e38, 1e300])
        with pytest.raises(NonFiniteVariance):
            train_hierarchy(ts, HierarchyConfig())

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_query_rejected(self, bad):
        ds = small_sinc_dataset(seed=12)
        empty = train_hierarchy(
            TrainingSet(ds.train.a, np.zeros(ds.train.m)), HierarchyConfig()
        )
        fitted = train_hierarchy(ds.train, HierarchyConfig(max_layers=2))
        for model in (empty, fitted):
            with pytest.raises(ValueError, match="non-finite"):
                predict_hierarchy(model, [bad])
            with pytest.raises(ValueError, match="non-finite"):
                predict_hierarchy(model, np.array([[0.0], [bad]]))

    @pytest.mark.parametrize("name", [
        "tau1", "scale_divisor", "eps", "tube_tolerance",
        "stop_residual_var", "stop_rel_improvement",
    ])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_config_rejects_non_finite(self, name, bad):
        with pytest.raises(ValueError, match=f"{name} must be .*finite"):
            HierarchyConfig(**{name: bad})

    @pytest.mark.parametrize("eps,tp", [(0.0, 1e-8), (5e-324, 1e-8), (0.1, 0.1 * 0.1)])
    def test_default_tube_tolerance_is_positive(self, eps, tp):
        # prune_set's band needs tp > 0; 0.1 * 5e-324 underflows to 0
        assert HierarchyConfig(eps=eps).resolved_tube_tolerance() == tp

    def test_config_validation(self):
        with pytest.raises(InvalidDivisor):
            HierarchyConfig(scale_divisor=1.0)
        with pytest.raises(ValueError):
            HierarchyConfig(s_factor=6.0)
        with pytest.raises(ValueError):
            HierarchyConfig(s_factor=0.0)
        with pytest.raises(ValueError):
            HierarchyConfig(max_layers=0)

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_config_rejects_non_positive_tau1(self, bad):
        with pytest.raises(ValueError, match="tau1 must be positive and finite"):
            HierarchyConfig(tau1=bad)

    def test_default_config_carries_the_tsvr_ridges(self):
        assert HierarchyConfig().base_params == TsvrParams()
        assert HierarchyConfig().regularization() == (0.1, 0.1)
        assert HierarchyConfig(base_params=None).regularization() == (0.1, 0.1)

    def test_explicit_tube_tolerance_reaches_pruning(self, monkeypatch):
        from twinreg import hierarchy as hier_mod

        seen = []
        real = hier_mod.prune_set

        def prune_set(residuals, eps, n, tp):
            seen.append(tp)
            return real(residuals, eps, n, tp)

        monkeypatch.setattr(hier_mod, "prune_set", prune_set)
        ds = small_sinc_dataset()
        train_hierarchy(ds.train, HierarchyConfig(max_layers=2, tube_tolerance=0.03))
        assert seen and all(tp == 0.03 for tp in seen)
