"""Tests for the SPD solver and the box-constrained QP engine."""

import numpy as np
import pytest

from twinreg import qp as qp_mod
from twinreg.qp import (
    BoxQp,
    LowRankHessian,
    MaxIterationsExceeded,
    NotPositiveDefinite,
    QpSolution,
    solve_box_qp,
    solve_spd,
)

from oracles import DimensionTooLarge, box_qp_oracle


def gaussian_elimination(m, rhs):
    """Independent dense solver used as an oracle for solve_spd."""
    m = np.array(m, dtype=float)
    b = np.array(rhs, dtype=float).reshape(len(m), -1)
    n = len(m)
    aug = np.hstack([m, b])
    for col in range(n):
        pivot = col + int(np.argmax(np.abs(aug[col:, col])))
        aug[[col, pivot]] = aug[[pivot, col]]
        aug[col] = aug[col] / aug[col, col]
        for row in range(n):
            if row != col:
                aug[row] -= aug[row, col] * aug[col]
    return aug[:, n:]


def random_spd_qp(rng, n, max_cond=1e4, lam_hi=0.2):
    """Random SPD box QP with condition number at most max_cond."""
    cond = 10 ** rng.uniform(0, np.log10(max_cond))
    lam_max = 10 ** rng.uniform(-2, np.log10(lam_hi))
    if n == 1:
        lams = np.array([lam_max])
    else:
        interior = np.exp(-rng.uniform(0, np.log(cond), max(n - 2, 0)))
        lams = lam_max * np.concatenate([[1.0, 1.0 / cond], interior])
    v = np.linalg.qr(rng.normal(size=(n, n)))[0]
    q = (v * lams[:n]) @ v.T
    q = 0.5 * (q + q.T)
    lower = rng.uniform(-0.3, -0.05, n)
    upper = rng.uniform(0.05, 0.3, n)
    target = rng.uniform(1.6 * lower, 1.6 * upper)
    return BoxQp(q, -q @ target, lower, upper)


def random_psd_qp(rng, n, rank, lam_hi=0.2):
    """Random box QP whose Hessian is PSD of the given rank; c has a
    component outside the range of Q, which pushes the optimum onto the box."""
    g = rng.normal(size=(n, rank))
    q = g @ g.T
    q *= 10 ** rng.uniform(-2, np.log10(lam_hi)) / np.linalg.eigvalsh(q)[-1]
    q = 0.5 * (q + q.T)
    lower = rng.uniform(-0.3, -0.05, n)
    upper = rng.uniform(0.05, 0.3, n)
    target = rng.uniform(1.6 * lower, 1.6 * upper)
    return BoxQp(q, -q @ target + 0.01 * rng.normal(size=n), lower, upper)


def pow23_dual(seed, p, ridge, assemble="up"):
    """A linear-mode x^(2/3) dual: m = 200, Hessian of rank 2."""
    from twinreg import data as data_mod
    from twinreg import tsvr

    ts = data_mod.generate(data_mod.power_two_thirds_spec(seed=seed)).train
    j = tsvr.make_design(ts, tsvr.KernelSpec()).matrix
    params = tsvr.TsvrParams(p, p, ridge, ridge)
    return getattr(tsvr, f"assemble_dual_{assemble}")(ts, params, j)


class TestSolveSpd:
    def test_identity(self):
        x = solve_spd(np.eye(3), np.array([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(x, [1.0, 2.0, 3.0], atol=1e-12)

    def test_diagonal(self):
        x = solve_spd(np.array([[2.0, 0.0], [0.0, 4.0]]), np.array([2.0, 8.0]))
        np.testing.assert_allclose(x, [1.0, 2.0], atol=1e-12)

    def test_regularized_normal_matrix_vs_elimination_oracle(self):
        j = np.array([[1.0, 1.0], [2.0, 1.0]])
        m = j.T @ j + 0.5 * np.eye(2)
        rhs = j.T @ np.array([1.0, 1.0])
        expected = gaussian_elimination(m, rhs).ravel()
        np.testing.assert_allclose(solve_spd(m, rhs), expected, atol=1e-9)

    def test_residual_contract_on_random_systems(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(1, 9))
            j = rng.normal(size=(n + 2, n))
            m = j.T @ j + 10 ** rng.uniform(-4, 1) * np.eye(n)
            rhs = rng.normal(size=n)
            x = solve_spd(m, rhs)
            resid = np.max(np.abs(m @ x - rhs))
            assert resid <= 1e-9 * (1 + np.max(np.abs(rhs)))

    def test_matrix_rhs(self):
        rng = np.random.default_rng(3)
        m = np.eye(4) * 2.0
        rhs = rng.normal(size=(4, 3))
        np.testing.assert_allclose(solve_spd(m, rhs), rhs / 2.0, atol=1e-12)

    def test_not_positive_definite(self):
        # Indefinite, then exactly singular PSD (a zero pivot).
        for m in ([[1.0, 0.0], [0.0, -1.0]], [[1.0, 1.0], [1.0, 1.0]]):
            with pytest.raises(NotPositiveDefinite):
                solve_spd(np.array(m), np.zeros(2))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            solve_spd(np.array([[1.0, 0.5], [0.0, 1.0]]), np.zeros(2))


@pytest.fixture(scope="module")
def package_designs():
    """The designs training solves with: linear x^(2/3), and the eigenbasis
    design of sinc (m=272) at every scale of the default hierarchy."""
    from twinreg import data as data_mod
    from twinreg.hierarchy import auto_tau1, scale_schedule
    from twinreg.tsvr import KernelSpec, make_design

    pow23 = data_mod.generate(data_mod.power_two_thirds_spec(seed=0)).train
    designs = {"pow23-linear": (make_design(pow23, KernelSpec()).matrix, pow23.y)}
    sinc = data_mod.generate(data_mod.sinc_spec(seed=0)).train
    for tau in scale_schedule(auto_tau1(sinc), 2.0, 6):
        j = make_design(sinc, KernelSpec("gaussian", tau)).matrix
        designs[f"sinc-tau{tau:.3g}"] = (j, sinc.y)
    return designs


class TestSolveSpdOnPackageSystems:
    @pytest.mark.parametrize("ridge", [2.0**-9, 1.0, 2.0**9])
    def test_residual_contract_on_ridge_systems(self, package_designs, ridge):
        # J'J + ridge I with the right-hand sides of dual assembly (J', one
        # column per sample) and of primal recovery (one column)
        for name, (j, y) in package_designs.items():
            m = j.T @ j + ridge * np.eye(j.shape[1])
            for rhs in (j.T, j.T @ y):
                x = solve_spd(m, rhs)
                resid = np.max(np.abs(m @ x - rhs))
                assert resid <= 1e-9 * (1 + np.max(np.abs(rhs))), name


class TestSolveBoxQp:
    def test_interior_minimum(self):
        sol = solve_box_qp(BoxQp([[1.0]], [-1.0], [0.0], [10.0]))
        np.testing.assert_allclose(sol.alpha, [1.0], atol=1e-8)

    def test_clipped_at_upper_bound(self):
        sol = solve_box_qp(BoxQp([[1.0]], [-1.0], [0.0], [0.5]))
        np.testing.assert_allclose(sol.alpha, [0.5], atol=1e-10)

    def test_two_dim_mixed_active_set(self):
        # KKT: coordinate 0 sits at its lower bound with gradient 1 > 0, and
        # coordinate 1 is free where its gradient 2a - 1 vanishes
        problem = BoxQp([[2.0, 0.0], [0.0, 2.0]], [1.0, -1.0], [0.0, 0.0], [1.0, 1.0])
        sol = solve_box_qp(problem)
        np.testing.assert_allclose(sol.alpha, [0.0, 0.5], atol=1e-4)

    def test_feasibility_is_exact(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            problem = random_spd_qp(rng, int(rng.integers(1, 6)))
            sol = solve_box_qp(problem)
            assert np.all(sol.alpha >= problem.lower)
            assert np.all(sol.alpha <= problem.upper)

    def test_scaling_invariance(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            problem = random_spd_qp(rng, 3)
            scaled = BoxQp(
                7.5 * problem.q, 7.5 * problem.c, problem.lower, problem.upper
            )
            a = solve_box_qp(problem).alpha
            b = solve_box_qp(scaled).alpha
            np.testing.assert_allclose(a, b, atol=1e-6)

    def test_degenerate_box_coordinate(self):
        problem = BoxQp(
            np.eye(3), np.array([-1.0, -1.0, -1.0]),
            np.array([0.0, 0.4, 0.0]), np.array([2.0, 0.4, 2.0]),
        )
        sol = solve_box_qp(problem)
        np.testing.assert_allclose(sol.alpha, [1.0, 0.4, 1.0], atol=1e-8)

    def test_zero_dimension(self):
        sol = solve_box_qp(BoxQp(np.zeros((0, 0)), [], [], []))
        assert sol.alpha.size == 0
        assert sol.objective == 0.0

    def test_max_iterations_carries_best_iterate(self):
        problem = BoxQp([[1.0]], [-1.0], [0.0], [10.0])
        with pytest.raises(MaxIterationsExceeded) as info:
            solve_box_qp(problem, tol=1e-30, max_iter=1)
        assert info.value.alpha.shape == (1,)
        assert np.isfinite(info.value.kkt_residual)

    def test_kkt_residual_reported_below_tol(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            problem = random_spd_qp(rng, 4)
            sol = solve_box_qp(problem, tol=1e-8)
            assert sol.kkt_residual <= 1e-8

    @pytest.mark.parametrize(
        "kwargs",
        [{"tol": np.nan}, {"tol": np.inf}, {"max_iter": 0}],
        ids=["nan-tol", "infinite-tol", "zero-max-iter"],
    )
    def test_rejects_bad_arguments(self, kwargs):
        # The starting point 0 is optimal, so only the check can raise.
        with pytest.raises(ValueError):
            solve_box_qp(BoxQp([[1.0]], [0.0], [0.0], [1.0]), **kwargs)


class TestBoxQpContract:
    @pytest.mark.parametrize(
        "q, c, lower, upper",
        [
            ([[1.0, 0.5], [0.0, 1.0]], [0.0, 0.0], [0.0, 0.0], [1.0, 1.0]),
            ([[1.0, np.inf], [np.inf, 1.0]], [0.0, 0.0], [0.0, 0.0], [1.0, 1.0]),
            ([[1.0, 0.0], [0.0, 1.0]], [np.nan, 0.0], [0.0, 0.0], [1.0, 1.0]),
            ([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0], [0.0, np.nan], [1.0, 1.0]),
        ],
        ids=["asymmetric-q", "infinite-q", "nan-c", "nan-bound"],
    )
    def test_rejected_at_construction(self, q, c, lower, upper):
        with pytest.raises(ValueError):
            BoxQp(np.array(q), np.array(c), np.array(lower), np.array(upper))

    def test_infinite_bounds_allowed(self):
        problem = BoxQp([[1.0]], [-1.0], [-np.inf], [np.inf])
        np.testing.assert_allclose(solve_box_qp(problem).alpha, [1.0], atol=1e-10)

    def test_counters_default_to_zero(self):
        sol = QpSolution(np.zeros(1), 0.0, 0, 0.0)
        assert (sol.cg_steps, sol.polish_rejected) == (0, 0)


def random_package_dual(rng, kernel_kind):
    """A dual as training assembles it, on random data of 5-60 points."""
    from twinreg import tsvr

    m = int(rng.integers(5, 61))
    ts = tsvr.TrainingSet(rng.uniform(-3, 3, size=(m, 1)), rng.normal(size=m))
    kernel = tsvr.KernelSpec()
    if kernel_kind == "gaussian":
        kernel = tsvr.KernelSpec("gaussian", float(2 ** rng.uniform(-2, 3)))
    p, ridge = float(2 ** rng.uniform(-3, 9)), float(2 ** rng.uniform(-9, 3))
    params = tsvr.TsvrParams(p, p, ridge, ridge, 0.05, 0.05, kernel)
    assemble = tsvr.assemble_dual_down if rng.random() < 0.5 else tsvr.assemble_dual_up
    return assemble(ts, params, tsvr.make_design(ts, kernel).matrix)


class TestLowRankHessian:
    def test_products_and_trace_match_dense(self):
        rng = np.random.default_rng(5)
        left, right = rng.normal(size=(7, 3)), rng.normal(size=(3, 7))
        q, dense = LowRankHessian(left, right), left @ right
        v = rng.normal(size=(7, 2))
        assert q.shape == (7, 7)
        np.testing.assert_allclose(q @ v, dense @ v, atol=1e-12)
        np.testing.assert_allclose(v.T @ q, v.T @ dense, atol=1e-12)
        np.testing.assert_allclose(np.asarray(q), dense, atol=1e-12)
        np.testing.assert_allclose(2.0 * q - q, dense, atol=1e-12)
        assert q.trace() == pytest.approx(np.trace(dense), abs=1e-12)

    @pytest.mark.parametrize("kernel_kind", ["linear", "gaussian"])
    def test_solver_agrees_with_the_dense_matrix(self, kernel_kind):
        rng = np.random.default_rng(8 if kernel_kind == "linear" else 9)
        for _ in range(25):
            factored = random_package_dual(rng, kernel_kind)
            assert isinstance(factored.q, LowRankHessian)
            dense = BoxQp(np.asarray(factored.q), factored.c, factored.lower, factored.upper)
            a, b = solve_box_qp(factored), solve_box_qp(dense)
            assert np.max(np.abs(a.alpha - b.alpha)) <= 1e-8
            assert abs(a.objective - b.objective) <= 1e-10

    @pytest.mark.parametrize(
        "broken",
        ["nan-left", "infinite-right", "mismatched-shapes", "asymmetric-pair",
         "asymmetric-pair-scaled"],
    )
    def test_rejected_at_construction(self, broken):
        rng = np.random.default_rng(10)
        j = np.hstack([rng.normal(size=(30, 1)), np.ones((30, 1))])
        x = np.linalg.solve(j.T @ j + 0.5 * np.eye(2), j.T)
        c, lower, upper = np.zeros(30), np.zeros(30), np.ones(30)
        BoxQp(LowRankHessian(j, x), c, lower, upper)  # the intact pair is accepted
        if broken == "nan-left":
            j[3, 0] = np.nan
        elif broken == "infinite-right":
            x[1, 7] = np.inf
        elif broken == "mismatched-shapes":
            x = x[:, :-1]
        else:  # scaled by 2^-600, the squares of the probe products underflow
            x = rng.normal(size=x.shape) * (1.0 if broken == "asymmetric-pair" else 2.0**-600)
        with pytest.raises(ValueError):
            BoxQp(LowRankHessian(j, x), c, lower, upper)

    @pytest.mark.parametrize("assemble", ["down", "up"])
    def test_huge_ridge_dual_is_accepted(self, assemble):
        # at p = 2^900 the right factor (J'J + pI)^-1 J' is near 2^-900
        problem = pow23_dual(47, 2.0**900, 2.0**900, assemble)
        assert problem.dim == 200 and np.all(problem.upper == 2.0**900)


class TestSolveBoxQpOnPsdDuals:
    """Duals are PSD, not SPD: a linear-mode Hessian has rank d+1 = 2."""

    def test_objective_agreement_low_rank_instances(self):
        rng = np.random.default_rng(2024)
        for rep in range(60):
            problem = random_psd_qp(rng, 3 + rep % 3, 1 + rep % 2)
            sol = solve_box_qp(problem)
            point = box_qp_oracle(problem)
            assert abs(sol.objective - problem.objective(point)) <= 1e-4

    def test_solved_without_any_factorization(self, monkeypatch):
        from twinreg import data as data_mod
        from twinreg import hierarchy, tsvr

        sinc = data_mod.generate(data_mod.sinc_spec(seed=0)).train
        kernel = tsvr.KernelSpec(
            "gaussian", hierarchy.scale_schedule(hierarchy.auto_tau1(sinc), 2.0, 3)[2]
        )
        problems = [
            pow23_dual(47, 512.0, 2.0**-9),
            tsvr.assemble_dual_up(
                sinc, tsvr.TsvrParams(512.0, 512.0, 0.125, 0.125, kernel=kernel),
                tsvr.make_design(sinc, kernel).matrix,
            ),
        ]

        def no_factor(*args, **kwargs):
            raise NotPositiveDefinite("no factorization in the QP")

        monkeypatch.setattr(qp_mod, "solve_spd", no_factor)
        for problem in problems:
            assert solve_box_qp(problem).kkt_residual <= 1e-8

    @pytest.mark.parametrize("assemble", ["down", "up"])
    def test_cg_ends_within_rank_steps(self, assemble):
        for seed, p, ridge in [(0, 8.0, 1.0), (3, 128.0, 2.0**-9), (47, 512.0, 2.0**-9)]:
            sol = solve_box_qp(pow23_dual(seed, p, ridge, assemble))
            assert sol.cg_steps <= 3 * (sol.iterations + 1)


class TestBoxQpOracle:
    def test_reproduces_solver_examples(self):
        cases = [
            BoxQp([[1.0]], [-1.0], [0.0], [10.0]),
            BoxQp([[1.0]], [-1.0], [0.0], [0.5]),
            BoxQp([[2.0, 0.0], [0.0, 2.0]], [1.0, -1.0], [0.0, 0.0], [1.0, 1.0]),
        ]
        for problem in cases:
            point = box_qp_oracle(problem)
            np.testing.assert_allclose(point, solve_box_qp(problem).alpha, atol=1e-3)

    def test_zero_dimension(self):
        assert box_qp_oracle(BoxQp(np.zeros((0, 0)), [], [], [])).size == 0

    def test_symmetric_minimum(self):
        point = box_qp_oracle(BoxQp([[1.0]], [0.0], [-1.0], [1.0]))
        np.testing.assert_allclose(point, [0.0], atol=1e-4)

    def test_dimension_cap(self):
        with pytest.raises(DimensionTooLarge):
            box_qp_oracle(
                BoxQp(np.eye(6), np.zeros(6), np.zeros(6), np.ones(6))
            )

    def test_infinite_bound_is_refused(self):
        with pytest.raises(ValueError):
            box_qp_oracle(BoxQp(np.eye(2), [-1.0, 1.0], [0.0, -np.inf], [1.0, 1.0]))

    @pytest.mark.parametrize("family", ["spd", "psd"])
    def test_kkt_certificate(self, family):
        # criterion 1's 100 SPD instances, and 60 PSD ones of rank 1 or 2;
        # for a convex QP the KKT conditions certify a global minimizer
        if family == "spd":
            rng = np.random.default_rng(12345)
            problems = [random_spd_qp(rng, 1 + rep % 5) for rep in range(100)]
        else:
            rng = np.random.default_rng(2024)
            problems = [random_psd_qp(rng, 3 + rep % 3, 1 + rep % 2) for rep in range(60)]
        for problem in problems:
            x = box_qp_oracle(problem)
            assert np.all(x >= problem.lower) and np.all(x <= problem.upper)
            g = problem.q @ x + problem.c
            at_lower, at_upper = x == problem.lower, x == problem.upper
            tol = 1e-12 * max(1.0, np.max(np.abs(problem.c)))
            assert np.all(np.abs(g[~(at_lower | at_upper)]) <= tol)
            assert np.all(-g[at_lower] <= tol)
            assert np.all(g[at_upper] <= tol)

    def test_iterate_agreement_well_conditioned(self):
        # with condition number <= 100 the minimizer is unique and the
        # solver's KKT tolerance pins its iterate close to the oracle's
        rng = np.random.default_rng(777)
        for rep in range(30):
            problem = random_spd_qp(rng, 1 + rep % 3, max_cond=100)
            sol = solve_box_qp(problem)
            point = box_qp_oracle(problem)
            assert np.max(np.abs(sol.alpha - point)) <= 1e-3


def random_low_rank_qp(rng, n, rank):
    """Random box QP with a factored PSD Hessian of rank < n and finite
    bounds; c has a component outside the range of Q, so the faces the
    solver meets are singular along some directions."""
    g = rng.normal(size=(n, rank))
    g *= np.sqrt(10 ** rng.uniform(-2, 0) / np.linalg.norm(g, 2) ** 2)
    lower = rng.uniform(-0.3, -0.05, n)
    upper = rng.uniform(0.05, 0.3, n)
    target = rng.uniform(1.6 * lower, 1.6 * upper)
    c = -g @ (g.T @ target) + 0.01 * rng.normal(size=n)
    return BoxQp(LowRankHessian(g, g.T), c, lower, upper)


class TestFlatFaces:
    """Faces on which Q is singular along the CG direction."""

    def test_flat_polish_steps_to_the_bounds(self):
        # Q = vv' with v = (1, 1, 1) and c orthogonal to v: from 0 both the
        # gradient step and the CG direction -c are flat, and f falls
        # linearly along -c until x reaches (-1, 1, 0), the minimizer.
        v = np.ones((3, 1))
        problem = BoxQp(LowRankHessian(v, v.T), [1.0, -1.0, 0.0], -np.ones(3), np.ones(3))
        sol = solve_box_qp(problem)
        np.testing.assert_array_equal(sol.alpha, [-1.0, 1.0, 0.0])
        assert (sol.iterations, sol.cg_steps, sol.polish_rejected) == (1, 1, 0)
        assert sol.kkt_residual == 0.0

    def test_flat_polish_stops_at_the_first_bound(self):
        # Rank 2 on 4 coordinates; the CG direction -c lies in the null
        # space, and the first bound it meets is coordinate 0's lower one.
        left = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        c = np.array([1.0, -1.0, 0.5, -0.5])
        problem = BoxQp(LowRankHessian(left, left.T), c, [-0.25, -1, -1, -1], [1, 1, 1, 1])
        sol = solve_box_qp(problem)
        assert sol.kkt_residual <= 1e-8
        assert sol.iterations <= 3
        assert np.all(sol.alpha >= problem.lower) and np.all(sol.alpha <= problem.upper)
        point = box_qp_oracle(problem)
        assert sol.objective <= problem.objective(point) + 1e-4

    def test_flat_direction_without_a_bound_is_reported(self):
        # f is unbounded below along (1, -1): no finite bound ends the descent.
        v = np.ones((2, 1))
        problem = BoxQp(LowRankHessian(v, v.T), [-1.0, 1.0], [-np.inf] * 2, [np.inf] * 2)
        with pytest.raises(MaxIterationsExceeded) as info:
            solve_box_qp(problem)
        assert np.all(np.isfinite(info.value.alpha))
        assert np.isfinite(info.value.kkt_residual)

    def test_random_low_rank_instances(self):
        rng = np.random.default_rng(1991)
        for rep in range(80):
            n = 2 + rep % 3 if rep % 2 == 0 else int(rng.integers(5, 40))
            problem = random_low_rank_qp(rng, n, int(rng.integers(1, n)))
            sol = solve_box_qp(problem)
            assert np.all(sol.alpha >= problem.lower)
            assert np.all(sol.alpha <= problem.upper)
            assert sol.kkt_residual <= 1e-8
            if n <= 4:
                point = box_qp_oracle(problem)
                assert abs(sol.objective - problem.objective(point)) <= 1e-4


class TestStallRegressions:
    """Linear x^(2/3) duals have rank 2, so most of their faces are flat."""

    def test_stalling_dual_converges_quickly(self):
        # 52 iterations when a flat polish stopped without moving; 27 now.
        sol = solve_box_qp(pow23_dual(12, 512.0, 512.0, "up"))
        assert sol.kkt_residual <= 1e-8
        assert sol.iterations <= 32

    def test_iteration_budget_over_the_workload_grid(self):
        # 208 duals: seeds 0-12 at the workload grid's p and ridge values,
        # both sides.  2,469 iterations when a flat polish stopped without
        # moving; 2,053 now.
        total = 0
        for seed in range(13):
            for p in (8.0, 512.0):
                for ridge in (2.0**-9, 2.0**-3, 2.0**3, 2.0**9):
                    for side in ("down", "up"):
                        sol = solve_box_qp(pow23_dual(seed, p, ridge, side))
                        assert sol.kkt_residual <= 1e-8
                        total += sol.iterations
        assert total <= 2100


def test_probe_vectors_are_cached_read_only():
    u, v = qp_mod._probe_pair(6)
    assert qp_mod._probe_pair(6)[0] is u
    steps = np.arange(1, 7)
    np.testing.assert_array_equal(u, np.sin(1.7 * steps))
    np.testing.assert_array_equal(v, np.cos(2.3 * steps))
    with pytest.raises(ValueError):
        u[0] = 0.0
