import numpy as np
import pytest

from smoothot.barycenter import (
    BarycenterProblem,
    dual_objective_grad,
    lbfgs_direction,
    nonsmooth_dual_subgradient,
    project_constraint,
    smooth_primal_gradient,
    solve_barycenter,
)
from smoothot.core import CostMatrix, IterationLimitError
from smoothot.legendre import semidual_conjugate

from oracles import finite_diff_gradient, random_histogram, rel_err


def line_problem(rng, n, num, eps, floor=1e-3):
    pts = np.linspace(0.0, 1.0, n).reshape(-1, 1)
    cost = CostMatrix.squared_euclidean(pts).entries
    B = np.column_stack([random_histogram(rng, n, floor=floor) for _ in range(num)])
    lam = random_histogram(rng, num, floor=0.1)
    return BarycenterProblem(B, lam, cost, eps)


class TestDualObjectiveGrad:
    def test_single_input_equals_semidual(self):
        rng = np.random.default_rng(50)
        prob = line_problem(rng, 6, 1, 0.3)
        F = rng.normal(size=(6, 1))
        value, grad = dual_objective_grad(F, prob)
        scalar = semidual_conjugate(F[:, 0], prob.histograms[:, 0], prob.cost, 0.3)
        assert value == pytest.approx(scalar.value, abs=1e-12)
        assert np.allclose(grad[:, 0], scalar.gradient, atol=1e-12)

    def test_duplicated_inputs_symmetric_gradient(self):
        rng = np.random.default_rng(51)
        b = random_histogram(rng, 5)
        cost = rng.uniform(size=(5, 5))
        prob = BarycenterProblem(np.column_stack([b, b]), [0.5, 0.5], cost, 0.4)
        _, grad = dual_objective_grad(np.zeros((5, 2)), prob)
        assert np.abs(grad[:, 0] - grad[:, 1]).max() == 0.0

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(52)
        prob = line_problem(rng, 6, 3, 0.35)
        F = rng.normal(size=(6, 3))
        _, grad = dual_objective_grad(F, prob)
        num = finite_diff_gradient(
            lambda x: dual_objective_grad(x.reshape(6, 3), prob)[0], F.ravel()
        ).reshape(6, 3)
        assert rel_err(num, grad) <= 1e-6


class TestProjectConstraint:
    def test_fixes_feasible_points(self):
        rng = np.random.default_rng(53)
        lam = random_histogram(rng, 3)
        F = rng.normal(size=(5, 3))
        F -= np.outer(F @ lam, lam) / (lam @ lam)
        assert np.allclose(project_constraint(F, lam), F, atol=1e-14)

    def test_single_column_projects_to_zero(self):
        F = np.random.default_rng(54).normal(size=(4, 1))
        assert np.allclose(project_constraint(F, [1.0]), 0.0)

    def test_idempotent(self):
        rng = np.random.default_rng(55)
        lam = random_histogram(rng, 4)
        F = rng.normal(size=(6, 4))
        once = project_constraint(F, lam)
        twice = project_constraint(once, lam)
        assert np.abs(twice - once).max() <= 1e-14
        assert np.abs(once @ lam).max() <= 1e-14


class TestSolveBarycenter:
    def test_single_input_closed_form(self):
        rng = np.random.default_rng(56)
        prob = line_problem(rng, 7, 1, 0.3)
        a, trace = solve_barycenter(prob, tol=1e-8)
        expected = semidual_conjugate(
            np.zeros(7), prob.histograms[:, 0], prob.cost, 0.3
        ).gradient
        assert trace.iterations == 0  # the constraint pins F = 0
        assert np.abs(a.weights - expected).sum() <= 1e-12

    def test_duplicated_inputs_match_single(self):
        rng = np.random.default_rng(57)
        b = random_histogram(rng, 6, floor=1e-3)
        cost = CostMatrix.squared_euclidean(np.linspace(0, 1, 6).reshape(-1, 1)).entries
        single = solve_barycenter(BarycenterProblem(b[:, None], [1.0], cost, 0.2),
                                  tol=1e-8)[0]
        double = solve_barycenter(
            BarycenterProblem(np.column_stack([b, b]), [0.5, 0.5], cost, 0.2),
            tol=1e-8,
        )[0]
        assert np.abs(single.weights - double.weights).sum() <= 1e-6

    def test_objective_trace_nonincreasing_fixed_step(self):
        rng = np.random.default_rng(58)
        prob = line_problem(rng, 8, 3, 0.25)
        try:
            _, trace = solve_barycenter(prob, tol=1e-7, max_iter=800)
        except IterationLimitError as exc:
            _, trace = exc.best
        diffs = np.diff(trace.objectives)
        assert (diffs <= 1e-12).all()

    @staticmethod
    def _run_fixed(problem, iters):
        try:
            return solve_barycenter(problem, tol=1e-16, max_iter=iters)
        except IterationLimitError as exc:
            return exc.best

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(59)
        prob = line_problem(rng, 6, 3, 0.3)
        a1, _ = self._run_fixed(prob, 120)
        perm = [2, 0, 1]
        prob2 = BarycenterProblem(prob.histograms[:, perm], prob.weights[perm],
                                  prob.cost, prob.epsilon)
        a2, _ = self._run_fixed(prob2, 120)
        assert np.abs(a1.weights - a2.weights).max() <= 1e-10

    def test_cost_constant_shift_invariance(self):
        rng = np.random.default_rng(60)
        prob = line_problem(rng, 6, 2, 0.3)
        a1, _ = self._run_fixed(prob, 120)
        prob2 = BarycenterProblem(prob.histograms, prob.weights,
                                  np.asarray(prob.cost) + 0.37, prob.epsilon)
        a2, _ = self._run_fixed(prob2, 120)
        assert np.abs(a1.weights - a2.weights).max() <= 1e-8

    def test_column_agreement_and_primal_dual_relation(self):
        rng = np.random.default_rng(61)
        prob = line_problem(rng, 7, 3, 0.3)
        hook = lbfgs_direction(fallback_step=prob.epsilon / 2)
        a, trace = solve_barycenter(prob, tol=2e-7, step_rule=hook, max_iter=5000)
        F = trace.final.potentials
        monitor = trace.final.monitor
        num = prob.num_inputs
        for k in range(num):
            delta_k = semidual_conjugate(F[:, k], prob.histograms[:, k],
                                         prob.cost, prob.epsilon).gradient
            # column disagreement is bounded by the monitor: |Δ_k - ã|_1 <= monitor*sqrt(N)
            assert np.abs(delta_k - a.weights).sum() <= monitor * np.sqrt(num) + 1e-12

    def test_quasi_newton_hook_converges(self):
        rng = np.random.default_rng(62)
        prob = line_problem(rng, 10, 3, 0.1)
        hook = lbfgs_direction(fallback_step=prob.epsilon / 2)
        a, trace = solve_barycenter(prob, step_rule=hook, tol=1e-8, max_iter=3000)
        assert trace.converged
        assert trace.monitors[-1] < 1e-8

    def test_hook_receives_the_last_ten_steps_as_pairs(self):
        rng = np.random.default_rng(65)
        prob = line_problem(rng, 8, 3, 0.1)
        inner = lbfgs_direction(fallback_step=prob.epsilon / 2)
        calls = []

        def recording(F, grad, pairs):
            calls.append((F.copy(), grad.copy(), list(pairs)))
            return inner(F, grad, pairs)

        with pytest.raises(IterationLimitError):
            solve_barycenter(prob, step_rule=recording, tol=0.0, max_iter=25)
        assert len(calls) > 11
        for k, (_, _, pairs) in enumerate(calls):
            assert len(pairs) == min(k, 10)
            # the newest pair is the step into the iterate the hook is called at
            for j, (s, y, sy) in enumerate(reversed(pairs)):
                f_next, g_next, _ = calls[k - j]
                f_prev, g_prev, _ = calls[k - j - 1]
                assert np.array_equal(s, (f_next - f_prev).ravel())
                assert np.array_equal(y, (g_next - g_prev).ravel())
                assert sy == float(s @ y)

    def test_iteration_limit_error_payload(self):
        rng = np.random.default_rng(63)
        prob = line_problem(rng, 8, 3, 0.05)
        with pytest.raises(IterationLimitError) as info:
            solve_barycenter(prob, tol=1e-13, max_iter=5)
        best_hist, best_trace = info.value.best
        assert abs(best_hist.weights.sum() - 1.0) <= 1e-10
        assert info.value.residual == best_trace.final.monitor

    def test_zero_bins_are_the_limit_of_positive_bins(self):
        rng = np.random.default_rng(65)
        pts = np.linspace(0.0, 1.0, 8).reshape(-1, 1)
        cost = CostMatrix.squared_euclidean(pts).entries
        B = np.column_stack([random_histogram(rng, 8) for _ in range(2)])
        B[[1, 6], 0] = 0.0
        B[3, 1] = 0.0
        B /= B.sum(axis=0)
        delta = 1e-13
        near = (B + delta * (B == 0)) / (1 + delta * (B == 0).sum(axis=0))
        a, b = (solve_barycenter(BarycenterProblem(Bx, [0.4, 0.6], cost, 0.1), tol=1e-8,
                                 step_rule=lbfgs_direction(fallback_step=0.05))[0]
                for Bx in (B, near))
        assert np.abs(a.weights - b.weights).sum() <= 1e-10

    def test_rejects_bad_inputs(self):
        rng = np.random.default_rng(64)
        prob = line_problem(rng, 5, 2, 0.0)
        with pytest.raises(ValueError):
            solve_barycenter(prob)
        prob2 = line_problem(rng, 5, 2, 0.2)
        with pytest.raises(ValueError):
            solve_barycenter(prob2, step_rule="wat")


class TestSmoothPrimalGradient:
    def test_first_order_condition_at_optimum(self):
        # N = 1: solve_barycenter is exact (F = 0), so the primal gradient at
        # its output is constant up to the Sinkhorn tolerance alone
        rng = np.random.default_rng(65)
        prob = line_problem(rng, 6, 1, 0.3)
        a, _ = solve_barycenter(prob, tol=1e-8)
        tol = 1e-10
        grad = smooth_primal_gradient(a.weights, prob, sinkhorn_tol=tol)
        assert np.ptp(grad) <= 10 * tol

    def test_duplicated_inputs_match_single_term(self):
        rng = np.random.default_rng(66)
        b = random_histogram(rng, 5, floor=1e-3)
        a = random_histogram(rng, 5, floor=1e-3)
        cost = rng.uniform(size=(5, 5))
        single = BarycenterProblem(b[:, None], [1.0], cost, 0.4)
        double = BarycenterProblem(np.column_stack([b, b]), [0.5, 0.5], cost, 0.4)
        g1 = smooth_primal_gradient(a, single, sinkhorn_tol=1e-12)
        g2 = smooth_primal_gradient(a, double, sinkhorn_tol=1e-12)
        assert np.abs(g1 - g2).max() <= 1e-9

    def test_gives_descent_direction(self):
        from smoothot.entropic import sinkhorn

        rng = np.random.default_rng(67)
        prob = line_problem(rng, 6, 2, 0.3)
        a = random_histogram(rng, 6, floor=5e-2)

        def objective(hist):
            return sum(
                prob.weights[k]
                * sinkhorn(hist, prob.histograms[:, k], prob.cost, 0.3, tol=1e-12).value
                for k in range(2)
            )

        grad = smooth_primal_gradient(a, prob, sinkhorn_tol=1e-12)
        direction = -(grad - grad.mean())  # stay on the simplex
        step = 1e-4 / (1 + np.abs(direction).max())
        assert objective(a + step * direction) < objective(a)


class TestNonsmoothDualSubgradient:
    def test_single_cell(self):
        prob = BarycenterProblem(np.ones((1, 1)), [1.0], np.zeros((1, 1)), 0.0)
        values, subgrad = nonsmooth_dual_subgradient(np.zeros((1, 1)), prob)
        assert values[0] == 0.0
        assert np.allclose(subgrad, [[1.0]])

    def test_matches_small_epsilon_gradient(self):
        rng = np.random.default_rng(68)
        n = 5
        cost = rng.uniform(size=(n, n))
        cost += 0.3 * (1 - np.eye(n))  # keep the minima well separated
        b = random_histogram(rng, n)
        f = rng.normal(scale=0.05, size=n)
        prob0 = BarycenterProblem(b[:, None], [1.0], cost, 0.0)
        _, sub = nonsmooth_dual_subgradient(f[:, None], prob0)
        smooth = semidual_conjugate(f, b, cost, 1e-4).gradient
        assert np.abs(sub[:, 0] - smooth).max() <= 1e-6

    def test_tie_break_lowest_row(self):
        prob = BarycenterProblem(
            np.full((2, 1), 0.5), [1.0], np.zeros((2, 2)), 0.0
        )
        _, sub = nonsmooth_dual_subgradient(np.zeros((2, 1)), prob)
        assert np.allclose(sub[:, 0], [1.0, 0.0])

    def test_columns_on_simplex(self):
        rng = np.random.default_rng(69)
        n, num = 6, 3
        prob = BarycenterProblem(
            np.column_stack([random_histogram(rng, n) for _ in range(num)]),
            random_histogram(rng, num, floor=0.1),
            rng.uniform(size=(n, n)),
            0.0,
        )
        values, sub = nonsmooth_dual_subgradient(rng.normal(size=(n, num)), prob)
        assert np.abs(sub.sum(axis=0) - 1.0).max() <= 1e-12
        assert np.all(sub >= 0)

    def test_requires_eps_zero(self):
        rng = np.random.default_rng(70)
        prob = line_problem(rng, 4, 2, 0.1)
        with pytest.raises(ValueError):
            nonsmooth_dual_subgradient(np.zeros((4, 2)), prob)
