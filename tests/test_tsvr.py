"""Tests for the twin regressor: dual assembly, training, KKT certificates."""

import tracemalloc

import numpy as np
import pytest

from twinreg import data as data_mod
from twinreg import tsvr
from twinreg.hierarchy import auto_tau1, scale_schedule
from twinreg.qp import LowRankHessian, QpSolution, solve_box_qp
from twinreg.tsvr import (
    DimensionMismatch,
    KernelSpec,
    TrainingSet,
    TsvrParams,
    build_design,
    assemble_dual_down,
    assemble_dual_up,
    gaussian_kernel,
    make_design,
    predict,
    subset_design,
    train,
)

from oracles import box_qp_oracle, predict_components


def oracle_solver(problem):
    """Drive training through the exact face-enumeration oracle."""
    alpha = box_qp_oracle(problem)
    return QpSolution(alpha, problem.objective(alpha), 0, float("nan"))


def random_params(rng, kernel=None):
    return TsvrParams(
        p1=float(2 ** rng.uniform(-3, 3)),
        p2=float(2 ** rng.uniform(-3, 3)),
        p3=float(2 ** rng.uniform(-6, 2)),
        p4=float(2 ** rng.uniform(-6, 2)),
        eps1=float(rng.uniform(0, 0.3)),
        eps2=float(rng.uniform(0, 0.3)),
        kernel=kernel or KernelSpec(),
    )


class TestBuildDesign:
    def test_linear_appends_ones(self):
        ts = TrainingSet([[1.0], [2.0]], [0.0, 0.0])
        np.testing.assert_array_equal(
            build_design(ts, KernelSpec()), [[1.0, 1.0], [2.0, 1.0]]
        )

    def test_gaussian_self_kernel_is_one(self):
        ts = TrainingSet([[0.0]], [0.0])
        np.testing.assert_allclose(
            build_design(ts, KernelSpec("gaussian", 1.0)), [[1.0, 1.0]]
        )

    def test_gaussian_off_diagonal_value(self):
        ts = TrainingSet([[0.0], [1.0]], [0.0, 0.0])
        j = build_design(ts, KernelSpec("gaussian", 1.0))
        np.testing.assert_allclose(j[0, 1], np.exp(-1.0), atol=1e-12)
        np.testing.assert_allclose(j[0, 1], 0.367879, atol=1e-6)

    def test_kernel_matrix_symmetry(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(10, 3))
        k = gaussian_kernel(x, x, 2.0)
        np.testing.assert_allclose(k, k.T, atol=1e-15)
        np.testing.assert_allclose(np.diag(k), 1.0, atol=1e-15)

    def test_kernel_rejects_different_widths(self):
        with pytest.raises(ValueError):
            gaussian_kernel(np.zeros((3, 2)), np.zeros((4, 1)), 1.0)

    def test_kernel_bitwise_equals_textbook_expression(self):
        from scipy.spatial.distance import cdist

        rng = np.random.default_rng(11)
        for tau in [1e-3, 1e3, *10 ** rng.uniform(-3, 3, 58)]:
            d = int(rng.integers(1, 4))
            x = rng.normal(scale=3.0, size=(int(rng.integers(1, 40)), d))
            z = rng.normal(scale=3.0, size=(int(rng.integers(1, 40)), d))
            expected = np.exp(-cdist(x, z, "sqeuclidean") / (tau * tau))
            k = gaussian_kernel(x, z, tau)
            assert k.tobytes() == expected.tobytes()
            same = gaussian_kernel(x, x, tau)
            assert np.all(np.diag(same) == 1.0)


class TestDualAssembly:
    def test_single_point_down_hessian(self):
        # J = [0 1]; J (J'J + I)^-1 J' = 0.5, checked by hand
        ts = TrainingSet([[0.0]], [0.0])
        params = TsvrParams(1.0, 1.0, 1.0, 1.0)
        qp = assemble_dual_down(ts, params, build_design(ts, params.kernel))
        np.testing.assert_allclose(qp.q, [[0.5]], atol=1e-12)

    def test_single_point_up_hessian_mirrors(self):
        ts = TrainingSet([[0.0]], [0.0])
        params = TsvrParams(1.0, 1.0, 1.0, 1.0)
        qp = assemble_dual_up(ts, params, build_design(ts, params.kernel))
        np.testing.assert_allclose(qp.q, [[0.5]], atol=1e-12)

    def test_box_upper_bounds_are_loss_weights(self):
        rng = np.random.default_rng(2)
        ts = TrainingSet(rng.normal(size=(6, 2)), rng.normal(size=6))
        params = TsvrParams(2.5, 1.75, 0.1, 0.1)
        j = build_design(ts, params.kernel)
        down = assemble_dual_down(ts, params, j)
        up = assemble_dual_up(ts, params, j)
        np.testing.assert_array_equal(down.upper, np.full(6, 2.5))
        np.testing.assert_array_equal(up.upper, np.full(6, 1.75))
        np.testing.assert_array_equal(down.lower, np.zeros(6))

    def test_eps_shifts_linear_term_elementwise(self):
        rng = np.random.default_rng(4)
        ts = TrainingSet(rng.normal(size=(5, 2)), rng.normal(size=5))
        base = TsvrParams(1.0, 1.0, 0.5, 0.5, eps1=0.1)
        bumped = TsvrParams(1.0, 1.0, 0.5, 0.5, eps1=0.1 + 0.25)
        j = build_design(ts, base.kernel)
        c0 = assemble_dual_down(ts, base, j).c
        c1 = assemble_dual_down(ts, bumped, j).c
        np.testing.assert_allclose(c1 - c0, 0.25, atol=1e-12)

    def test_hessian_ignores_targets(self):
        # dual_up on (A, -Y) has the same Q as dual_down with matched ridges
        rng = np.random.default_rng(6)
        a = rng.normal(size=(7, 2))
        y = rng.normal(size=7)
        params = TsvrParams(1.0, 1.0, 0.3, 0.3, 0.05, 0.05)
        j = build_design(TrainingSet(a, y), params.kernel)
        q_down = assemble_dual_down(TrainingSet(a, y), params, j).q
        q_up = assemble_dual_up(TrainingSet(a, -y), params, j).q
        np.testing.assert_allclose(q_down, q_up, atol=1e-12)

    def test_hessian_is_the_factor_pair(self):
        rng = np.random.default_rng(7)
        ts = TrainingSet(rng.normal(size=(9, 2)), rng.normal(size=9))
        params = TsvrParams(1.0, 1.0, 0.3, 0.7)
        j = build_design(ts, params.kernel)
        for assemble, ridge in ((assemble_dual_down, 0.3), (assemble_dual_up, 0.7)):
            q = assemble(ts, params, j).q
            assert isinstance(q, LowRankHessian)
            assert q.left is j
            expected = np.linalg.solve(j.T @ j + ridge * np.eye(3), j.T)
            np.testing.assert_allclose(q.right, expected, atol=1e-12)


class TestTrain:
    def test_zero_data_gives_zero_model(self):
        model = train(TrainingSet([[0.0]], [0.0]), TsvrParams(1, 1, 1, 1, 0.1, 0.1))
        np.testing.assert_allclose(model.w1, [0.0], atol=1e-12)
        np.testing.assert_allclose(model.w2, [0.0], atol=1e-12)
        assert model.b1 == pytest.approx(0.0, abs=1e-12)
        assert model.b2 == pytest.approx(0.0, abs=1e-12)
        assert predict(model, [0.0]) == pytest.approx(0.0, abs=1e-12)

    def test_collinear_points_match_oracle_training(self):
        ts = TrainingSet([[0.0], [1.0], [2.0]], [0.0, 2.0, 4.0])
        params = TsvrParams(1.0, 1.0, 1e-4, 1e-4, 0.01, 0.01)
        solver_model = train(ts, params)
        oracle_model = train(ts, params, qp_solver=oracle_solver)
        grid = np.linspace(0, 2, 11)[:, None]
        np.testing.assert_allclose(
            predict(solver_model, grid), predict(oracle_model, grid), atol=1e-3
        )
        np.testing.assert_allclose(predict(solver_model, grid).ravel(),
                                   2 * grid.ravel(), atol=0.05)

    def test_collinear_kernel_model_matches_oracle(self):
        ts = TrainingSet([[0.0], [1.0], [2.0]], [0.0, 2.0, 4.0])
        params = TsvrParams(1.0, 1.0, 1e-4, 1e-4, 0.01, 0.01,
                            KernelSpec("gaussian", 1.0))
        solver_model = train(ts, params)
        oracle_model = train(ts, params, qp_solver=oracle_solver)
        assert predict(solver_model, [1.0]) == pytest.approx(
            predict(oracle_model, [1.0]), abs=1e-3
        )
        assert predict(solver_model, [1.0]) == pytest.approx(2.0, abs=0.05)

    def test_oracle_equivalence_small_problems(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            m = int(rng.integers(2, 5))
            ts = TrainingSet(rng.normal(size=(m, 1)), rng.normal(size=m))
            params = TsvrParams(1.0, 1.0, 0.1, 0.1, 0.05, 0.05)
            a = train(ts, params)
            b = train(ts, params, qp_solver=oracle_solver)
            grid = np.linspace(-2, 2, 21)[:, None]
            np.testing.assert_allclose(predict(a, grid), predict(b, grid), atol=1e-3)

    def test_pow23_seed_47_trains(self):
        # Its up dual (rank-2 Hessian, m = 200) stalls projected gradient at
        # KKT 9.4e-5 unless the polish can move on singular faces; failing it,
        # run_benchmark records pow23 base seeds 40 and 46 as failed.
        from twinreg import data as data_mod

        ts = data_mod.generate(data_mod.power_two_thirds_spec(47)).train
        params = TsvrParams(512, 512, 2**-9, 2**-9)
        diag = train(ts, params).diagnostics
        assert np.all((diag.gamma >= 0) & (diag.gamma <= params.p2))
        j = make_design(ts, KernelSpec()).matrix
        for assemble in (assemble_dual_down, assemble_dual_up):
            assert solve_box_qp(assemble(ts, params, j)).kkt_residual <= 1e-8

    def test_linear_training_memory_is_linear_in_m(self):
        # A dense m x m dual Hessian at m = 5,000 would be 191 MiB by itself.
        import tracemalloc

        from twinreg import data as data_mod

        spec = data_mod.power_two_thirds_spec(0, n_train=5000, n_test=10)
        ts = data_mod.generate(spec).train
        tracemalloc.start()
        try:
            train(ts, TsvrParams(8.0, 8.0, 0.125, 0.125))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20

    def test_monotone_tube_support_counts(self):
        # growing the tube never increases the count of active multipliers
        # (points at the loss-weight bound migrate to the border band as the
        # tube widens, so the strictly-interior count is not monotone; the
        # support-vector count is)
        rng = np.random.default_rng(23)
        for _ in range(10):
            m = int(rng.integers(5, 20))
            ts = TrainingSet(rng.normal(size=(m, 2)), rng.normal(size=m))
            counts = []
            for eps in (0.0, 0.1, 0.3, 0.8):
                params = TsvrParams(1.0, 1.0, 0.1, 0.1, eps, eps)
                diag = train(ts, params).diagnostics
                margin = 1e-6
                counts.append(
                    int(np.count_nonzero(diag.alpha > margin)
                        + np.count_nonzero(diag.gamma > margin))
                )
            assert all(b <= a for a, b in zip(counts, counts[1:]))


class TestPredict:
    def test_direct_average_arithmetic(self):
        base = train(TrainingSet([[0.0]], [0.0]), TsvrParams(1, 1, 1, 1))
        from dataclasses import replace
        model = replace(base, w1=np.array([1.0]), b1=0.0,
                        w2=np.array([3.0]), b2=2.0)
        assert predict(model, [1.0]) == pytest.approx(3.0, abs=1e-12)

    def test_zero_model_predicts_zero(self):
        model = train(TrainingSet([[0.0]], [0.0]), TsvrParams(1, 1, 1, 1))
        for x in ([0.0], [5.0], [-3.0]):
            assert predict(model, x) == pytest.approx(0.0, abs=1e-12)

    def test_dimension_mismatch(self):
        model = train(TrainingSet([[0.0, 1.0]], [0.0]), TsvrParams(1, 1, 1, 1))
        with pytest.raises(DimensionMismatch):
            predict(model, [1.0])

    def test_kernel_prediction_matches_manual_expansion(self):
        rng = np.random.default_rng(31)
        ts = TrainingSet(rng.normal(size=(8, 2)), rng.normal(size=8))
        params = TsvrParams(1.0, 1.0, 0.1, 0.1, 0.05, 0.05,
                            KernelSpec("gaussian", 1.2))
        model = train(ts, params)
        x = rng.normal(size=(5, 2))
        rows = gaussian_kernel(x, ts.a, 1.2)
        manual = 0.5 * (rows @ (model.w1 + model.w2) + model.b1 + model.b2)
        np.testing.assert_allclose(predict(model, x), manual, atol=1e-12)

    def test_batch_and_single_agree(self):
        ts = TrainingSet([[0.0], [1.0], [2.0]], [0.0, 1.0, 2.0])
        model = train(ts, TsvrParams(1, 1, 0.01, 0.01))
        batch = predict(model, np.array([[0.5], [1.5]]))
        assert batch[0] == pytest.approx(predict(model, [0.5]), abs=1e-15)


class TestBlockedExpansion:
    """Kernel predictions are built in blocks of ``BUDGET // len(basis)`` rows."""

    @pytest.fixture(scope="class")
    def model(self):
        rng = np.random.default_rng(41)
        ts = TrainingSet(rng.uniform(-3, 3, size=(300, 2)), rng.normal(size=300))
        return train(ts, TsvrParams(1.0, 2.0, 0.1, 0.2, 0.05, 0.1,
                                    KernelSpec("gaussian", 0.7)))

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_blocks_match_the_one_shot_expansion(self, model, offset):
        step = tsvr.BUDGET // len(model.basis)
        x = np.random.default_rng(42).uniform(-3, 3, size=(3 * step + offset, 2))
        rows = gaussian_kernel(x, model.basis, model.kernel.tau)
        h1 = rows @ model.w1 + model.b1
        h2 = rows @ model.w2 + model.b2
        one_shot = 0.5 * (rows @ (model.w1 + model.w2) + (model.b1 + model.b2))
        got = (predict(model, x), *predict_components(model, x))
        for value, expected in zip(got, (one_shot, h1, h2)):
            assert value.shape == (len(x),)
            tol = 1e-13 * (1 + np.max(np.abs(expected)))
            np.testing.assert_allclose(value, expected, rtol=0, atol=tol)

    def test_empty_batch(self, model):
        assert predict(model, np.empty((0, 2))).shape == (0,)
        h1, h2 = predict_components(model, np.empty((0, 2)))
        assert h1.shape == h2.shape == (0,)

    def test_single_point_is_a_float(self, model):
        value = predict(model, [0.5, -0.5])
        assert isinstance(value, float)
        assert value == predict(model, [[0.5, -0.5]])[0]

    def test_prediction_memory_is_one_block(self):
        # The 50,000 x 272 kernel matrix alone would take 104 MiB.
        ts = data_mod.generate(data_mod.sinc_spec(0, n_test=2)).train
        model = train(ts, TsvrParams(1.0, 1.0, 0.1, 0.1, 0.1, 0.1,
                                     KernelSpec("gaussian", 1.0)))
        x = np.linspace(-12, 12, 50_000).reshape(-1, 1)
        tracemalloc.start()
        try:
            yhat = predict(model, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert yhat.shape == (50_000,)
        assert peak < 4 * 2**20


def random_gaussian_problem(rng):
    m = int(rng.integers(1, 61))
    d = int(rng.integers(1, 3))
    tau = float(np.exp(rng.uniform(np.log(0.05), np.log(50))))
    ts = TrainingSet(rng.uniform(-3, 3, size=(m, d)), rng.normal(size=m))
    return ts, random_params(rng, KernelSpec("gaussian", tau))


def dense_train_predict(ts, params, x):
    """Kernel-mode training written out on the full design [K | 1]."""
    j = build_design(ts, params.kernel)
    alpha = solve_box_qp(assemble_dual_down(ts, params, j)).alpha
    gamma = solve_box_qp(assemble_dual_up(ts, params, j)).alpha
    normal = j.T @ j
    eye = np.eye(j.shape[1])
    v1 = np.linalg.solve(normal + params.p3 * eye, j.T @ (ts.y - alpha))
    v2 = np.linalg.solve(normal + params.p4 * eye, j.T @ (ts.y + gamma))
    rows = np.hstack([gaussian_kernel(x, ts.a, params.kernel.tau),
                      np.ones((len(x), 1))])
    return 0.5 * rows @ (v1 + v2)


class TestReducedDesign:
    def test_linear_design_is_the_full_design(self):
        rng = np.random.default_rng(40)
        ts = TrainingSet(rng.normal(size=(9, 3)), rng.normal(size=9))
        design = make_design(ts, KernelSpec())
        np.testing.assert_array_equal(design.matrix, build_design(ts, KernelSpec()))
        assert design.to_basis is None
        assert design.rank == 3

    def test_hessians_match_the_dense_design(self):
        rng = np.random.default_rng(41)
        for _ in range(40):
            ts, params = random_gaussian_problem(rng)
            design = make_design(ts, params.kernel)
            assert 1 <= design.rank <= ts.m
            dense = build_design(ts, params.kernel)
            for assemble in (assemble_dual_down, assemble_dual_up):
                h_dense = assemble(ts, params, dense).q
                h_reduced = assemble(ts, params, design.matrix).q
                bound = 1e-12 * np.max(np.abs(h_dense))
                assert np.max(np.abs(h_reduced - h_dense)) <= bound

    def test_predictions_match_dense_training(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            ts, params = random_gaussian_problem(rng)
            x = rng.uniform(-3.5, 3.5, size=(30, ts.d))
            np.testing.assert_allclose(
                predict(train(ts, params), x),
                dense_train_predict(ts, params, x),
                rtol=0, atol=1e-9,
            )

    def test_smooth_kernel_has_low_rank(self):
        ts = TrainingSet(np.linspace(-3, 3, 50)[:, None], np.zeros(50))
        design = make_design(ts, KernelSpec("gaussian", 3.0))
        assert design.rank < 20
        assert design.matrix.shape == (50, design.rank + 1)
        assert design.to_basis.shape == (50, design.rank)

    def test_given_design_gives_the_same_model(self):
        rng = np.random.default_rng(43)
        ts, params = random_gaussian_problem(rng)
        built = train(ts, params)
        given = train(ts, params, design=make_design(ts, params.kernel))
        np.testing.assert_array_equal(built.w1, given.w1)
        np.testing.assert_array_equal(built.w2, given.w2)

    def test_mismatched_design_rejected(self):
        ts = TrainingSet(np.linspace(-1, 1, 6)[:, None], np.zeros(6))
        params = TsvrParams(1, 1, 1, 1, kernel=KernelSpec("gaussian", 1.0))
        with pytest.raises(ValueError):
            train(ts, params, design=make_design(ts, KernelSpec("gaussian", 2.0)))
        with pytest.raises(ValueError):
            train(ts, params, design=make_design(ts.subset(np.arange(4)), params.kernel))


def assert_hessians_agree(ts, params, j, reference):
    for assemble in (assemble_dual_down, assemble_dual_up):
        h_ref = np.asarray(assemble(ts, params, reference).q)
        h = np.asarray(assemble(ts, params, j).q)
        assert np.max(np.abs(h - h_ref)) <= 1e-12 * np.max(np.abs(h_ref))


SINC = data_mod.generate(data_mod.sinc_spec(0)).train
SINC_TAUS = scale_schedule(auto_tau1(SINC), 2.0, 6)


class TestPivotedFactor:
    @pytest.mark.parametrize("tau", SINC_TAUS)
    def test_basis_is_orthonormal_and_matches_the_kernel(self, tau):
        design = make_design(SINC, KernelSpec("gaussian", tau))
        q = design.to_basis
        np.testing.assert_allclose(q.T @ q, np.eye(design.rank), rtol=0, atol=1e-12)
        k = gaussian_kernel(SINC.a, SINC.a, tau)
        assert np.max(np.abs(k @ q - design.matrix[:, :-1])) <= 1e-12 * np.max(np.abs(k))
        m, p = design.factor.shape
        assert m == SINC.m and design.rank <= p < SINC.m

    @pytest.mark.parametrize("tau", SINC_TAUS)
    def test_subset_designs_match_designs_of_the_subset(self, tau):
        rng = np.random.default_rng(round(100 * tau))
        params = TsvrParams(1.0, 1.0, 0.1, 0.1, 0.1, 0.1, KernelSpec("gaussian", tau))
        design = make_design(SINC, params.kernel)
        for size in (1, 5, 40, 150, 260):
            kept = np.sort(rng.choice(SINC.m, size=size, replace=False))
            sub = SINC.subset(kept)
            reduced = subset_design(design, kept)
            assert reduced.matrix.shape[0] == size
            assert 1 <= reduced.rank <= min(size, design.factor.shape[1])
            assert_hessians_agree(sub, params, reduced.matrix,
                                  make_design(sub, params.kernel).matrix)
            assert_hessians_agree(sub, params, reduced.matrix, build_design(sub, params.kernel))

    @pytest.mark.parametrize("tau", SINC_TAUS)
    def test_pivots_reproduce_their_kernel_rows(self, tau):
        design = make_design(SINC, KernelSpec("gaussian", tau))
        p = design.factor.shape[1]
        assert design.pivot_points.shape == (p, 1) and design.pivot_factor.shape == (p, p)
        k = gaussian_kernel(design.pivot_points, SINC.a, tau)
        np.testing.assert_allclose(design.pivot_factor @ design.factor.T, k,
                                   rtol=0, atol=1e-12)
        sub = subset_design(design, np.arange(0, SINC.m, 3))
        assert sub.pivot_points is design.pivot_points
        assert sub.pivot_factor is design.pivot_factor

    @pytest.mark.parametrize("tau", SINC_TAUS)
    def test_model_on_pivots_predicts_as_on_its_basis(self, tau):
        params = TsvrParams(1.0, 1.0, 0.1, 0.1, 0.1, 0.1, KernelSpec("gaussian", tau))
        design = make_design(SINC, params.kernel)
        model = train(SINC, params, design=design)
        reduced = tsvr.on_pivots(model, design)
        assert len(reduced.basis) == design.factor.shape[1] < SINC.m
        assert reduced.diagnostics is model.diagnostics
        x = np.linspace(-4 * np.pi, 4 * np.pi, 1001)[:, None]
        full = predict(model, x)
        gap = np.max(np.abs(predict(reduced, x) - full))
        assert gap <= 1e-10 * (1 + np.max(np.abs(full)))

    def test_on_pivots_never_grows_a_basis(self):
        ts = TrainingSet(np.arange(30.0)[:, None], np.sin(np.arange(30.0)))
        params = TsvrParams(1.0, 1.0, 0.1, 0.1, kernel=KernelSpec("gaussian", 1e-3))
        design = make_design(ts, params.kernel)
        model = train(ts, params, design=design)
        assert tsvr.on_pivots(model, design) is model
        linear = TsvrParams(1.0, 1.0, 0.1, 0.1)
        model = train(ts, linear)
        assert tsvr.on_pivots(model, make_design(ts, linear.kernel)) is model

    def test_single_point(self):
        design = make_design(TrainingSet([[0.3]], [1.0]), KernelSpec("gaussian", 1.0))
        np.testing.assert_array_equal(design.factor, [[1.0]])
        assert design.rank == 1
        np.testing.assert_allclose(np.abs(design.matrix), [[1.0, 1.0]], rtol=0, atol=1e-15)

    def test_duplicated_rows_add_no_rank(self):
        a = np.repeat(np.linspace(-2, 2, 7), 3)[:, None]
        ts = TrainingSet(a, np.sin(a[:, 0]))
        params = TsvrParams(1.0, 1.0, 0.1, 0.1, kernel=KernelSpec("gaussian", 0.5))
        design = make_design(ts, params.kernel)
        assert design.factor.shape[1] <= 7
        assert_hessians_agree(ts, params, design.matrix, build_design(ts, params.kernel))

    def test_tiny_tau_gives_full_rank(self):
        ts = TrainingSet(np.arange(30.0)[:, None], np.zeros(30))
        design = make_design(ts, KernelSpec("gaussian", 1e-3))
        assert design.rank == design.factor.shape[1] == 30
        q = design.to_basis
        np.testing.assert_allclose(q.T @ q, np.eye(30), rtol=0, atol=1e-12)

    def test_huge_tau_gives_rank_one(self):
        ts = TrainingSet(np.linspace(-1, 1, 40)[:, None], np.zeros(40))
        params = TsvrParams(1.0, 1.0, 0.1, 0.1, kernel=KernelSpec("gaussian", 1e8))
        design = make_design(ts, params.kernel)
        assert design.rank == design.factor.shape[1] == 1
        assert_hessians_agree(ts, params, design.matrix, build_design(ts, params.kernel))

    def test_large_training_set_stays_within_factor_memory(self):
        spec = data_mod.sinc_spec(0, n_train=5000, n_test=2)
        ts = data_mod.generate(spec).train
        params = TsvrParams(1.0, 1.0, 0.1, 0.1, 0.1, 0.1, KernelSpec("gaussian", 5.0))
        tracemalloc.start()
        try:
            model = train(ts, params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # K(A, A) alone would take 5000^2 * 8 bytes = 191 MiB
        assert peak < 32 * 2**20
        assert model.w1.shape == (5000,)


class TestNonFiniteQueries:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejected_in_single_and_batch(self, bad):
        ts = TrainingSet([[0.0], [1.0], [2.0]], [0.0, 1.0, 2.0])
        for kernel in (KernelSpec(), KernelSpec("gaussian", 1.0)):
            model = train(ts, TsvrParams(1, 1, 0.1, 0.1, kernel=kernel))
            with pytest.raises(ValueError, match="non-finite"):
                predict(model, [bad])
            with pytest.raises(ValueError, match="non-finite"):
                predict(model, np.array([[0.5], [bad]]))
            with pytest.raises(ValueError, match="non-finite"):
                predict_components(model, [bad])


class TestValidation:
    def test_params_defaults(self):
        assert TsvrParams() == TsvrParams(1.0, 1.0, 0.1, 0.1, 0.0, 0.0, KernelSpec())

    def test_params_require_positive_weights(self):
        with pytest.raises(ValueError):
            TsvrParams(0.0, 1, 1, 1)
        with pytest.raises(ValueError):
            TsvrParams(1, 1, -0.5, 1)
        with pytest.raises(ValueError):
            TsvrParams(1, 1, 1, 1, eps1=-0.1)

    def test_kernel_spec_validation(self):
        with pytest.raises(ValueError):
            KernelSpec("gaussian")
        with pytest.raises(ValueError):
            KernelSpec("poly", 1.0)

    @pytest.mark.parametrize("name", ["p1", "p2", "p3", "p4", "eps1", "eps2"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_params_reject_non_finite(self, name, bad):
        values = {"p1": 1.0, "p2": 1.0, "p3": 1.0, "p4": 1.0, name: bad}
        with pytest.raises(ValueError, match="finite"):
            TsvrParams(**values)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_kernel_tau_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            KernelSpec("gaussian", bad)

    @pytest.mark.parametrize("fault", [
        "gaussian_without_basis", "linear_with_basis", "basis_too_wide",
        "flat_basis", "empty_basis", "alpha_short", "gamma_short",
    ])
    def test_model_rejects_an_inconsistent_basis(self, fault):
        from dataclasses import replace

        ts = TrainingSet([[0.0], [1.0], [2.0]], [0.0, 1.0, 0.0])
        gaussian = train(ts, TsvrParams(1, 1, 0.1, 0.1, kernel=KernelSpec("gaussian", 1.0)))
        linear = train(ts, TsvrParams(1, 1, 0.1, 0.1))
        diag = gaussian.diagnostics
        changes = {
            "gaussian_without_basis": (gaussian, {"basis": None, "w1": np.ones(1),
                                                  "w2": np.ones(1)}),
            "linear_with_basis": (linear, {"basis": np.zeros((1, 1))}),
            "basis_too_wide": (gaussian, {"basis": np.zeros((3, 2))}),
            "flat_basis": (gaussian, {"basis": np.zeros(3)}),
            "empty_basis": (gaussian, {"basis": np.zeros((0, 1)), "w1": np.ones(0),
                                       "w2": np.ones(0)}),
            "alpha_short": (gaussian, {"diagnostics": replace(diag, alpha=diag.alpha[:2])}),
            "gamma_short": (gaussian, {"diagnostics": replace(
                diag, alpha=diag.alpha[:0], gamma=diag.gamma[:0])}),
        }
        model, fields = changes[fault]
        with pytest.raises(ValueError):
            replace(model, **fields)

    def test_training_set_validation(self):
        with pytest.raises(ValueError):
            TrainingSet(np.zeros((2, 1)), np.zeros(3))
        with pytest.raises(ValueError):
            TrainingSet([[np.nan]], [0.0])

    def test_training_set_needs_a_sample(self):
        # every layer's residual variance in a hierarchy is then defined
        with pytest.raises(ValueError, match="at least one sample"):
            TrainingSet(np.empty((0, 1)), [])
