import numpy as np
import pytest

from smoothot.core import IterationLimitError
from smoothot.legendre import _semidual_hessian, semidual_conjugate
from smoothot.semidiscrete import (
    DiscreteTarget,
    SampledMeasure,
    _dual_terms,
    gbar_transform,
    laguerre_assign,
    semidiscrete_objective_grad,
    smoothed_indicator,
    solve_semidiscrete,
)

from oracles import finite_diff_gradient, rel_err


def random_instance(rng, k=40, m=5, d=2):
    points = rng.normal(size=(k, d))
    weights = rng.dirichlet(np.ones(k))
    sites = rng.normal(size=(m, d))
    masses = rng.dirichlet(np.ones(m) + 1.0)
    return SampledMeasure(points, weights), DiscreteTarget(sites, masses)


def smoothed_cells(g, source, target, epsilon):
    """Softmax cell masses from plain numpy, independent of the module."""
    sq = ((source.points[:, None, :] - target.sites[None, :, :]) ** 2).sum(axis=2)
    s = (np.asarray(g)[None, :] - sq) / epsilon
    e = np.exp(s - s.max(axis=1, keepdims=True))
    return source.weights @ (e / e.sum(axis=1, keepdims=True))


class TestGbarTransform:
    def test_single_site(self):
        tgt = DiscreteTarget([[1.0]], [1.0])
        for eps in (0.0, 0.3, 2.0):
            val = gbar_transform([0.7], [0.0], tgt, eps)
            assert val == pytest.approx((0.0 - 1.0) ** 2 - 0.7, abs=1e-14)

    def test_shift_equivariance(self):
        rng = np.random.default_rng(90)
        _, tgt = random_instance(rng)
        g = rng.normal(size=5)
        x = rng.normal(size=2)
        base = gbar_transform(g, x, tgt, 0.4)
        assert gbar_transform(g + 1.3, x, tgt, 0.4) == pytest.approx(base - 1.3,
                                                                     abs=1e-12)

    def test_equidistant_tie(self):
        tgt = DiscreteTarget([[-1.0], [1.0]], [0.5, 0.5])
        assert gbar_transform([0.0, 0.0], [0.0], tgt, 0.0) == pytest.approx(1.0)


class TestSmoothedIndicator:
    def test_single_site(self):
        tgt = DiscreteTarget([[0.0]], [1.0])
        assert np.allclose(smoothed_indicator([0.0], [2.0], tgt, 0.5), [1.0])

    def test_bisector_symmetry(self):
        tgt = DiscreteTarget([[-1.0], [1.0]], [0.5, 0.5])
        chi = smoothed_indicator([0.3, 0.3], [0.0], tgt, 0.7)
        assert np.allclose(chi, [0.5, 0.5])

    def test_sums_to_one_exactly(self):
        rng = np.random.default_rng(91)
        src, tgt = random_instance(rng)
        for x in src.points[:10]:
            chi = smoothed_indicator(rng.normal(size=5), x, tgt, 0.2)
            assert abs(chi.sum() - 1.0) <= 5e-16
            assert chi.min() >= 0.0

    def test_small_epsilon_limit_matches_hard_cells(self):
        rng = np.random.default_rng(92)
        src, tgt = random_instance(rng)
        g = rng.normal(size=5)
        assign, _ = laguerre_assign(g, src, tgt)
        for i, x in enumerate(src.points):
            chi = smoothed_indicator(g, x, tgt, 1e-6)
            assert np.argmax(chi) == assign[i]
            assert chi.max() >= 1.0 - 1e-9


class TestLaguerreAssign:
    def test_constant_potential_is_voronoi(self):
        rng = np.random.default_rng(93)
        src, tgt = random_instance(rng)
        assign, masses = laguerre_assign(np.zeros(5), src, tgt)
        dists = tgt.cost_to(src.points)
        assert np.array_equal(assign, np.argmin(dists, axis=1))
        assert masses.sum() == pytest.approx(1.0, abs=1e-12)

    def test_single_site_takes_everything(self):
        rng = np.random.default_rng(94)
        src = SampledMeasure(rng.normal(size=(10, 1)), np.full(10, 0.1))
        tgt = DiscreteTarget([[0.0]], [1.0])
        assign, masses = laguerre_assign(np.zeros(1), src, tgt)
        assert np.all(assign == 0) and masses[0] == pytest.approx(1.0)

    def test_large_potential_captures_all(self):
        rng = np.random.default_rng(95)
        src, tgt = random_instance(rng)
        g = np.zeros(5)
        g[3] = 1e6
        assign, masses = laguerre_assign(g, src, tgt)
        assert np.all(assign == 3)
        assert masses[3] == pytest.approx(1.0, abs=1e-12)


class TestObjectiveGrad:
    def test_single_site_zero_gradient(self):
        rng = np.random.default_rng(96)
        src = SampledMeasure(rng.normal(size=(8, 1)), np.full(8, 0.125))
        tgt = DiscreteTarget([[0.5]], [1.0])
        _, grad = semidiscrete_objective_grad([2.3], src, tgt, 0.4)
        assert grad == pytest.approx([0.0], abs=1e-15)

    def test_shift_invariance(self):
        rng = np.random.default_rng(97)
        src, tgt = random_instance(rng)
        g = rng.normal(size=5)
        v1, g1 = semidiscrete_objective_grad(g, src, tgt, 0.3)
        v2, g2 = semidiscrete_objective_grad(g + 4.2, src, tgt, 0.3)
        assert v2 == pytest.approx(v1, abs=1e-12)
        assert np.allclose(g1, g2, atol=1e-13)

    def test_gradient_sums_to_zero(self):
        rng = np.random.default_rng(98)
        for eps in (0.0, 0.2, 1.0):
            src, tgt = random_instance(rng)
            _, grad = semidiscrete_objective_grad(rng.normal(size=5), src, tgt, eps)
            assert abs(grad.sum()) <= 1e-14

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(99)
        src, tgt = random_instance(rng)
        g = rng.normal(size=5)
        value, grad = semidiscrete_objective_grad(g, src, tgt, 0.2)
        num = finite_diff_gradient(
            lambda x: semidiscrete_objective_grad(x, src, tgt, 0.2)[0], g, h=1e-6
        )
        assert rel_err(num, grad) <= 1e-6

    def test_midpoint_concavity(self):
        rng = np.random.default_rng(100)
        src, tgt = random_instance(rng)
        for _ in range(30):
            g1 = rng.normal(size=5)
            g2 = rng.normal(size=5)
            e1, _ = semidiscrete_objective_grad(g1, src, tgt, 0.3)
            e2, _ = semidiscrete_objective_grad(g2, src, tgt, 0.3)
            mid, _ = semidiscrete_objective_grad(0.5 * (g1 + g2), src, tgt, 0.3)
            assert mid >= 0.5 * (e1 + e2) - 1e-10

    def test_softmin_bracketing_vs_hard_cells(self):
        rng = np.random.default_rng(101)
        src, tgt = random_instance(rng)
        g = rng.normal(size=5)
        e0, _ = semidiscrete_objective_grad(g, src, tgt, 0.0)
        for eps in (0.05, 0.3):
            e_eps, _ = semidiscrete_objective_grad(g, src, tgt, eps)
            assert e_eps <= e0 + 1e-12
            assert e0 <= e_eps + eps * np.log(5) + 1e-12


class TestNewtonHessian:
    def test_matches_semidual_hessian(self):
        rng = np.random.default_rng(103)
        for _ in range(10):
            src, tgt = random_instance(rng, k=int(rng.integers(5, 40)),
                                       m=int(rng.integers(2, 8)))
            m = tgt.masses.size
            eps = float(rng.uniform(0.05, 2.0))
            g = rng.normal(size=m)
            cost = tgt.cost_to(src.points)
            _, _, chi = _dual_terms(g, cost, src.weights, tgt.masses, eps)
            hessian = -_semidual_hessian(chi.T * src.weights, chi, eps)
            semidual = semidual_conjugate(g, src.weights, cost.T, eps, want_hessian=True)
            assert np.abs(hessian - (-semidual.hessian)).max() <= 1e-10

    def test_matches_finite_differences_of_the_gradient(self):
        rng = np.random.default_rng(104)
        for eps in (0.1, 0.5):
            src, tgt = random_instance(rng)
            g = rng.normal(size=5)
            _, _, chi = _dual_terms(g, tgt.cost_to(src.points), src.weights,
                                    tgt.masses, eps)
            hessian = -_semidual_hessian(chi.T * src.weights, chi, eps)
            h = 1e-6
            num = np.column_stack([
                (semidiscrete_objective_grad(g + h * e, src, tgt, eps)[1]
                 - semidiscrete_objective_grad(g - h * e, src, tgt, eps)[1]) / (2 * h)
                for e in np.eye(5)
            ])
            assert rel_err(num, hessian) <= 1e-6


class TestSolveSemidiscrete:
    def test_symmetric_instance(self):
        src = SampledMeasure.uniform_grid_1d(200, -1.0, 1.0)
        tgt = DiscreteTarget([[-0.5], [0.5]], [0.5, 0.5])
        g, info = solve_semidiscrete(src, tgt, 0.1, tol=1e-12, g0=[0.8, -0.3],
                                     full_output=True)
        assert abs(g.mean()) <= 1e-15
        assert np.abs(g).max() <= 1e-4
        _, masses = laguerre_assign(g, src, tgt)
        assert np.allclose(masses, [0.5, 0.5], atol=1e-3)

    def test_single_site_immediate(self):
        src = SampledMeasure.uniform_grid_1d(50, 0.0, 1.0)
        tgt = DiscreteTarget([[0.3]], [1.0])
        g, info = solve_semidiscrete(src, tgt, 0.2, full_output=True)
        assert info["iterations"] == 1
        assert g == pytest.approx([0.0])

    def test_eps_zero_separated_clusters(self):
        rng = np.random.default_rng(102)
        left = rng.normal(loc=-2.0, scale=0.05, size=(30, 1))
        right = rng.normal(loc=2.0, scale=0.05, size=(20, 1))
        pts = np.vstack([left, right])
        w = np.full(50, 1.0 / 50)
        src = SampledMeasure(pts, w)
        tgt = DiscreteTarget([[-2.0], [2.0]], [0.6, 0.4])
        g = solve_semidiscrete(src, tgt, 0.0, tol=5e-3, max_iter=20000)
        assign, masses = laguerre_assign(g, src, tgt)
        assert np.all(assign[:30] == 0) and np.all(assign[30:] == 1)

    def test_iteration_limit(self):
        src = SampledMeasure.uniform_grid_1d(50, -1.0, 1.0)
        tgt = DiscreteTarget([[-0.7], [0.1], [0.4]], [0.2, 0.3, 0.5])
        with pytest.raises(IterationLimitError) as info:
            solve_semidiscrete(src, tgt, 0.3, tol=1e-15, max_iter=3)
        exc = info.value
        assert exc.iterations == 3
        assert exc.best[0].shape == (3,) and abs(exc.best[0].mean()) <= 1e-15
        _, grad = semidiscrete_objective_grad(exc.best[0], src, tgt, 0.3)
        assert exc.residual == np.abs(grad).max() > 1e-15

    def test_last_allowed_step_counts(self):
        # the budget covers exactly the steps the free solve takes: its last
        # step reaches tol, so the solve returns instead of raising
        rng = np.random.default_rng(7)
        src = SampledMeasure(rng.uniform(size=(2000, 2)), np.full(2000, 1.0 / 2000))
        tgt = DiscreteTarget(rng.uniform(size=(16, 2)), rng.dirichlet(np.ones(16) + 1.0))
        free, info = solve_semidiscrete(src, tgt, 0.1, tol=1e-9, full_output=True)
        steps = len(info["values"]) - 1
        assert steps >= 2
        g, tight = solve_semidiscrete(src, tgt, 0.1, tol=1e-9, max_iter=steps,
                                      full_output=True)
        assert tight["grad_norm"] == info["grad_norm"] <= 1e-9
        assert np.array_equal(g, free)

    def test_domain_errors(self):
        src = SampledMeasure.uniform_grid_1d(50, -1.0, 1.0)
        tgt = DiscreteTarget([[-0.7], [0.1], [0.4]], [0.2, 0.3, 0.5])
        for kw in ({"max_iter": 0}, {"step": 0.0}):
            with pytest.raises(ValueError):
                solve_semidiscrete(src, tgt, 0.3, **kw)

    def test_newton_iterations_on_a_jittered_lattice(self):
        # 2000 uniform samples against a jittered 4 x 4 lattice, eps = 0.1: the
        # gradient ascent took ~600 iterations here
        rng = np.random.default_rng(105)
        points = rng.uniform(size=(2000, 2))
        centers = (np.arange(4) + 0.5) / 4
        lattice = np.stack(np.meshgrid(centers, centers), axis=-1).reshape(-1, 2)
        sites = lattice + rng.uniform(-0.03, 0.03, size=lattice.shape)
        masses = rng.dirichlet(np.ones(16)) + 0.8 / 16
        src = SampledMeasure(points, np.full(2000, 1.0 / 2000))
        tgt = DiscreteTarget(sites, masses / masses.sum())
        g, info = solve_semidiscrete(src, tgt, 0.1, tol=1e-9, full_output=True)
        assert info["iterations"] <= 10
        assert np.abs(tgt.masses - smoothed_cells(g, src, tgt, 0.1)).max() <= 1e-9

    @pytest.mark.parametrize("eps", [0.1, 0.01])
    def test_far_site_with_underflowing_cell(self, eps):
        # at g = 0 the site (10, 10) gets exactly zero mass, which leaves the
        # plain Newton system singular
        rng = np.random.default_rng(107)
        src = SampledMeasure(rng.uniform(size=(300, 2)), np.full(300, 1.0 / 300))
        sites = [[0.25, 0.25], [0.75, 0.3], [0.4, 0.8], [10.0, 10.0]]
        tgt = DiscreteTarget(sites, [0.3, 0.3, 0.2, 0.2])
        assert smoothed_cells(np.zeros(4), src, tgt, eps)[3] == 0.0
        g, info = solve_semidiscrete(src, tgt, eps, tol=1e-9, max_iter=100,
                                     full_output=True)
        assert info["grad_norm"] <= 1e-9
        assert np.abs(smoothed_cells(g, src, tgt, eps) - tgt.masses).max() <= 1e-9

    @pytest.mark.parametrize("seed, eps, iterations", [
        (106, 0.1, 10), (106, 0.01, 13), (107, 0.1, 7), (107, 0.01, 14),
        (108, 0.1, 7), (108, 0.01, 13),
    ])
    def test_far_site_starts_with_its_nearest_sample(self, seed, eps, iterations):
        # from g = 0 the site (10, 10) holds no sample and its potential grows
        # by a ridge-bounded step per iteration: 29 to 40 iterations here
        rng = np.random.default_rng(seed)
        src = SampledMeasure(rng.uniform(size=(300, 2)), np.full(300, 1.0 / 300))
        sites = [[0.25, 0.25], [0.75, 0.3], [0.4, 0.8], [10.0, 10.0]]
        tgt = DiscreteTarget(sites, [0.3, 0.3, 0.2, 0.2])
        g, info = solve_semidiscrete(src, tgt, eps, tol=1e-9, full_output=True)
        assert info["iterations"] == iterations
        assert np.abs(smoothed_cells(g, src, tgt, eps) - tgt.masses).max() <= 1e-9

    def test_tolerance_at_round_off(self):
        # the last Newton steps gain less than the value's round-off; a line
        # search that cannot accept them stalls for several iterations
        src = SampledMeasure.uniform_grid_1d(50, -1.0, 1.0)
        tgt = DiscreteTarget([[-0.7], [0.1], [0.4]], [0.2, 0.3, 0.5])
        _, info = solve_semidiscrete(src, tgt, 0.1, tol=1e-14, full_output=True)
        assert info["iterations"] <= 6 and info["evaluations"] <= 6

    def test_non_finite_dual_stops_at_once(self):
        def nan_cost(x, y):
            c = ((x[:, None, :] - y[None, :, :]) ** 2).sum(axis=2)
            c[0] = np.nan
            return c

        src = SampledMeasure.uniform_grid_1d(20, -1.0, 1.0)
        tgt = DiscreteTarget([[-0.4], [0.4]], [0.5, 0.5], cost=nan_cost)
        with pytest.raises(IterationLimitError) as info:
            solve_semidiscrete(src, tgt, 0.1)
        assert info.value.iterations == 1
        assert np.array_equal(info.value.best[0], np.zeros(2))

    def test_hard_cells_take_ascent_steps(self):
        # at eps = 0.01 every sample sits deep inside one cell, so the Hessian
        # is exactly 0 and the solver takes the ascent step eps * grad from
        # its default start, each site's distance to its nearest sample
        rng = np.random.default_rng(102)
        pts = np.vstack([rng.normal(-2.0, 0.05, size=(30, 1)),
                         rng.normal(2.0, 0.05, size=(20, 1))])
        src = SampledMeasure(pts, np.full(50, 1.0 / 50))
        tgt = DiscreteTarget([[-2.0], [2.0]], [0.5, 0.5])
        with pytest.raises(IterationLimitError) as info:
            solve_semidiscrete(src, tgt, 0.01, max_iter=5)
        g = tgt.cost_to(src.points).min(axis=0)
        g -= g.mean()
        for _ in range(5):
            g = g + 0.01 * semidiscrete_objective_grad(g, src, tgt, 0.01)[1]
            g -= g.mean()
        assert np.allclose(info.value.best[0], g, rtol=0.0, atol=1e-15)

    def test_zero_weight_samples(self):
        rng = np.random.default_rng(108)
        points = rng.uniform(size=(60, 2))
        weights = rng.dirichlet(np.ones(60))
        weights[::3] = 0.0
        weights /= weights.sum()
        tgt = DiscreteTarget([[0.2, 0.3], [0.7, 0.6], [0.5, 0.1]], [0.5, 0.3, 0.2])
        src = SampledMeasure(points, weights)
        g = solve_semidiscrete(src, tgt, 0.05, tol=1e-10)
        assert np.abs(smoothed_cells(g, src, tgt, 0.05) - tgt.masses).max() <= 1e-10
        kept = weights > 0
        g_kept = solve_semidiscrete(SampledMeasure(points[kept], weights[kept]), tgt, 0.05,
                                    tol=1e-10)
        assert np.abs(g - g_kept).max() <= 1e-8

    def test_custom_cost_callable(self):
        def l1_cost(x, y):
            return np.abs(x[:, None, :] - y[None, :, :]).sum(axis=2)

        src = SampledMeasure.uniform_grid_1d(60, -1.0, 1.0)
        tgt = DiscreteTarget([[-0.4], [0.4]], [0.5, 0.5], cost=l1_cost)
        g = solve_semidiscrete(src, tgt, 0.1, tol=1e-10)
        _, masses = laguerre_assign(g, src, tgt)
        assert np.allclose(masses, [0.5, 0.5], atol=1e-3)
