import numpy as np
import pytest

from smoothot import barycenter, entropic, legendre, regularized
from smoothot.barycenter import BarycenterProblem, lbfgs_direction, solve_barycenter
from smoothot.core import GridCost2D, IterationLimitError
from smoothot.legendre import semidual_conjugate_batch
from smoothot.regularized import (
    LinearOperator,
    graph_gradient,
    grid_gradient,
    identity_operator,
    make_regularizer,
    prox_tv_conjugate,
    solve_regularized,
)

from oracles import estimate_norm, random_histogram


def two_shapes(h, w, floor=1e-3):
    yy, xx = np.meshgrid((np.arange(h) + 0.5) / h, (np.arange(w) + 0.5) / w,
                         indexing="ij")
    square = (xx > 0.15) & (xx < 0.45) & (yy > 0.15) & (yy < 0.45)
    disc = (xx - 0.65) ** 2 + (yy - 0.65) ** 2 < 0.05

    def normalize(mask):
        v = mask.astype(float).ravel() + floor
        return v / v.sum()

    return np.column_stack([normalize(square), normalize(disc)])


class TestGridGradient:
    def test_constant_image_maps_to_zero(self):
        op = grid_gradient((3, 4))
        assert np.all(op.forward(np.full(12, 0.3)) == 0.0)

    def test_one_by_two_image(self):
        op = grid_gradient((1, 2))
        out = op.forward(np.array([0.0, 1.0]))
        assert np.allclose(out, [[1.0, 0.0], [0.0, 0.0]])

    def test_adjoint_identity(self):
        rng = np.random.default_rng(80)
        op = grid_gradient((4, 4))
        for _ in range(100):
            x = rng.normal(size=16)
            y = rng.normal(size=(16, 2))
            assert abs(np.sum(op.forward(x) * y) - np.sum(x * op.adjoint(y))) <= 1e-12

    def test_norm_bound_dominates_power_iteration(self):
        op = grid_gradient((5, 7))
        assert estimate_norm(op, 35) <= op.norm_bound + 1e-9


class TestGraphGradient:
    def test_single_edge(self):
        op = graph_gradient([(0, 1)], 2)
        assert np.allclose(op.forward(np.array([0.3, 0.7])), [-0.4])

    def test_empty_edge_set(self):
        op = graph_gradient([], 3)
        assert op.forward(np.array([0.1, 0.5, 0.4])).size == 0
        assert np.all(op.adjoint(np.zeros(0)) == 0.0)

    def test_path_graph_constant(self):
        op = graph_gradient([(0, 1), (1, 2), (2, 3)], 4)
        assert np.all(op.forward(np.full(4, 0.25)) == 0.0)

    def test_out_of_range_index(self):
        with pytest.raises(ValueError):
            graph_gradient([(0, 5)], 3)

    def test_adjoint_identity(self):
        rng = np.random.default_rng(81)
        edges = [(0, 1), (1, 2), (0, 3), (3, 4), (2, 4)]
        op = graph_gradient(edges, 5)
        for _ in range(100):
            x = rng.normal(size=5)
            y = rng.normal(size=len(edges))
            assert abs(np.dot(op.forward(x), y) - np.dot(x, op.adjoint(y))) <= 1e-12

    def test_norm_bound_dominates_power_iteration(self):
        edges = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]
        op = graph_gradient(edges, 4)
        assert estimate_norm(op, 4) <= op.norm_bound + 1e-9


class TestProxTVConjugate:
    def test_beta_one_clamp(self):
        out = prox_tv_conjugate(np.array([2.0, -3.0, 0.5]), 0.7, 1.0, 1)
        assert np.allclose(out, [1.0, -1.0, 0.5])

    def test_beta_two_inside_ball_unchanged(self):
        out = prox_tv_conjugate(np.array([[3.0, 4.0]]), 1.0, 5.0, 2)
        assert np.allclose(out, [[3.0, 4.0]])

    def test_beta_two_radial_projection(self):
        out = prox_tv_conjugate(np.array([[3.0, 4.0]]), 1.0, 1.0, 2)
        assert np.allclose(out, [[0.6, 0.8]])

    def test_tau_independent(self):
        g = np.random.default_rng(82).normal(size=(6, 2))
        assert np.array_equal(
            prox_tv_conjugate(g, 0.1, 0.5, 2), prox_tv_conjugate(g, 7.0, 0.5, 2)
        )

    def test_invalid_beta(self):
        with pytest.raises(ValueError):
            prox_tv_conjugate(np.zeros(3), 1.0, 1.0, 3)


class TestMakeRegularizer:
    def test_quadratic_prox(self):
        reg = make_regularizer("quadratic", lam=1.0)
        assert np.allclose(reg.prox_conjugate(np.array([2.0]), 1.0), [1.0])
        assert reg.conjugate(np.array([2.0])) == pytest.approx(2.0)

    def test_box_soft_threshold(self):
        reg = make_regularizer("box", rho=1.0)
        out = reg.prox_conjugate(np.array([2.0, -0.2, 0.0]), 0.5)
        assert np.allclose(out, [1.5, 0.0, 0.0])

    def test_pinned_closed_form(self):
        reg = make_regularizer("pinned", indices=[0], values=[0.3])
        out = reg.prox_conjugate(np.array([2.0, 5.0]), 1.0)
        assert np.allclose(out, [1.7, 0.0])

    def test_tv_kinds_wrap_projection(self):
        iso = make_regularizer("tv_iso", lam=1.0)
        out = iso.prox_conjugate(np.array([[3.0, 4.0]]), 2.0)
        assert np.allclose(out, [[0.6, 0.8]])
        aniso = make_regularizer("tv_aniso", lam=1.0)
        assert np.allclose(aniso.prox_conjugate(np.array([2.0, -3.0, 0.5]), 2.0),
                           [1.0, -1.0, 0.5])

    def test_scaled_regularizers(self):
        tv = make_regularizer("tv_aniso", lam=0.5).scaled(2.0)
        assert tv.params["lam"] == pytest.approx(1.0)
        box = make_regularizer("box", rho=1.0)
        assert box.scaled(3.0) is box  # indicators ignore positive scaling

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            make_regularizer("quadratic", lam=0.0)
        with pytest.raises(ValueError):
            make_regularizer("box", rho=-1.0)
        with pytest.raises(ValueError):
            make_regularizer("nope")

    def test_firm_nonexpansiveness(self):
        rng = np.random.default_rng(83)
        regs = [
            make_regularizer("tv_iso", lam=0.8),
            make_regularizer("tv_aniso", lam=0.8),
            make_regularizer("quadratic", lam=2.0),
            make_regularizer("box", rho=0.7),
            make_regularizer("pinned", indices=[1, 3], values=[0.2, 0.1]),
        ]
        for _ in range(100):
            reg = regs[rng.integers(len(regs))]
            tau = rng.uniform(0.1, 2.0)
            x = rng.normal(size=6)
            y = rng.normal(size=6)
            px = reg.prox_conjugate(x, tau)
            py = reg.prox_conjugate(y, tau)
            # firm: |px - py|^2 <= <px - py, x - y>
            lhs = float(np.sum((px - py) ** 2))
            rhs = float(np.dot(px - py, x - y))
            assert lhs <= rhs + 1e-12

    def test_quadratic_moreau_identity(self):
        # p = prox_{tau J*}(g) must satisfy g - p = tau * grad J*(p) = tau*p/lam
        reg = make_regularizer("quadratic", lam=0.7)
        g = np.array([1.0, -2.0, 0.3])
        tau = 0.4
        p = reg.prox_conjugate(g, tau)
        assert np.allclose(g - p, tau * p / 0.7, atol=1e-12)


class TestSolveRegularized:
    def test_zero_strength_matches_smooth_barycenter(self):
        B = two_shapes(8, 8)
        cost = GridCost2D(8, 8)
        eps = 4.0 / 64
        prob = BarycenterProblem(B, [0.5, 0.5], cost, eps)
        a_ref, _ = solve_barycenter(prob, tol=2e-8, max_iter=4000,
                                    step_rule=lbfgs_direction(fallback_step=eps / 2))
        res = solve_regularized(prob, grid_gradient((8, 8)),
                                make_regularizer("tv_iso", lam=0.0),
                                accel=True, tol=1e-9, max_iter=60000,
                                obj_tol=1e-13, obj_window=200)
        assert np.abs(res.weights - a_ref.weights).sum() <= 1e-5

    def test_zero_bins_are_the_limit_of_positive_bins(self):
        B = two_shapes(6, 6, floor=0.0)  # each shape is zero off its support
        delta = 1e-13
        near = (B + delta * (B == 0)) / (1 + delta * (B == 0).sum(axis=0))
        a, b = (solve_regularized(BarycenterProblem(Bx, [0.5, 0.5], GridCost2D(6, 6), 0.1),
                                  grid_gradient((6, 6)), make_regularizer("tv_iso", lam=0.1),
                                  accel=True, tol=1e-9, obj_tol=None)
                for Bx in (B, near))
        assert np.abs(a.weights - b.weights).sum() <= 1e-7

    def test_quadratic_spread_pulls_toward_uniform(self):
        # with J = (lam/2)|a|^2 (so J* = |f|^2/(2 lam)), growing lam enforces
        # spread and drives the barycenter toward the uniform histogram
        rng = np.random.default_rng(84)
        n = 8
        b = random_histogram(rng, n, floor=1e-2)
        cost = rng.uniform(size=(n, n))
        cost = 0.5 * (cost + cost.T)
        np.fill_diagonal(cost, 0.0)
        prob = BarycenterProblem(b[:, None], [1.0], cost, 0.3)
        op = identity_operator(n)
        uniform = np.full(n, 1.0 / n)
        gaps = []
        for lam in (1e-4, 1.0, 100.0):
            res = solve_regularized(prob, op, make_regularizer("quadratic", lam=lam),
                                    accel=True, tol=1e-10, max_iter=60000)
            gaps.append(np.abs(res.weights - uniform).sum())
        assert gaps[2] < gaps[1] < gaps[0]
        assert gaps[2] <= 1e-2

    def test_mirror_symmetric_tv_output(self):
        # inputs symmetric under the diagonal mirror (transpose); isotropic
        # forward-difference TV is exactly equivariant under that mirror
        h = w = 8
        yy, xx = np.meshgrid((np.arange(h) + 0.5) / h, (np.arange(w) + 0.5) / w,
                             indexing="ij")
        blob1 = np.exp(-((xx - 0.3) ** 2 + (yy - 0.3) ** 2) / 0.02)
        blob2 = np.exp(-((xx - 0.7) ** 2 + (yy - 0.7) ** 2) / 0.02)
        B = np.column_stack([
            (blob1.ravel() + 1e-3) / (blob1.sum() + 64e-3),
            (blob2.ravel() + 1e-3) / (blob2.sum() + 64e-3),
        ])
        for k in range(2):
            img = B[:, k].reshape(h, w)
            assert np.abs(img - img.T).max() == 0.0
        prob = BarycenterProblem(B, [0.5, 0.5], GridCost2D(h, w), 4.0 / 64)
        res = solve_regularized(prob, grid_gradient((h, w)),
                                make_regularizer("tv_iso", lam=1.0), accel=True,
                                tol=1e-9, max_iter=60000, obj_tol=1e-12)
        img = res.weights.reshape(h, w)
        assert np.abs(img - img.T).max() <= 1e-8

    def test_fb_dual_objective_nonincreasing_at_one_over_l(self):
        # the monotonicity of plain FB at tau = 1/L is a per-step property;
        # it must hold on every recorded step even before convergence
        B = two_shapes(6, 6)
        prob = BarycenterProblem(B, [0.5, 0.5], GridCost2D(6, 6), 4.0 / 36)
        try:
            res = solve_regularized(prob, grid_gradient((6, 6)),
                                    make_regularizer("tv_iso", lam=0.5), accel=False,
                                    backtrack=False, tol=1e-9, max_iter=600,
                                    obj_tol=None, full_output=True)
        except IterationLimitError as exc:
            res = exc.best
        diffs = np.diff(res.objectives)
        assert len(diffs) >= 500
        assert (diffs <= 1e-12).all()

    @pytest.mark.parametrize("accel", [False, True])
    @pytest.mark.parametrize("max_iter", [25, 20_000])
    def test_last_objective_is_at_the_returned_state(self, accel, max_iter):
        # the trace ends on F of the returned iterate, stopped by the
        # iteration limit or by the solver's own test
        B = two_shapes(6, 6)
        cost = GridCost2D(6, 6)
        prob = BarycenterProblem(B, [0.4, 0.6], cost, 4.0 / 36)
        reg = make_regularizer("tv_iso", lam=0.5)
        try:
            res = solve_regularized(prob, grid_gradient((6, 6)), reg, accel=accel,
                                    tol=1e-9, max_iter=max_iter, obj_tol=1e-9,
                                    full_output=True)
        except IterationLimitError as exc:
            res = exc.best
        assert res.iterations == len(res.objectives)
        fhead, g = res.state
        values, _ = semidual_conjugate_batch(np.column_stack([fhead, res.f_last]), B,
                                             cost, prob.epsilon)
        assert res.objectives[-1] == float(np.dot(prob.weights, values)) + reg.conjugate(g)

    def test_fista_is_the_default(self):
        B = two_shapes(6, 6)
        prob = BarycenterProblem(B, [0.4, 0.6], GridCost2D(6, 6), 4.0 / 36)
        op, reg = grid_gradient((6, 6)), make_regularizer("tv_iso", lam=0.5)
        kw = dict(tol=1e-9, obj_tol=1e-9, full_output=True)
        default = solve_regularized(prob, op, reg, **kw)
        fista = solve_regularized(prob, op, reg, accel=True, **kw)
        assert np.array_equal(default.barycenter.weights, fista.barycenter.weights)
        assert np.array_equal(default.objectives, fista.objectives)

    def test_output_on_simplex(self):
        B = two_shapes(6, 6)
        prob = BarycenterProblem(B, [0.5, 0.5], GridCost2D(6, 6), 0.1)
        res = solve_regularized(prob, grid_gradient((6, 6)),
                                make_regularizer("tv_aniso", lam=0.3), accel=True,
                                tol=1e-8, max_iter=40000, obj_tol=1e-12)
        assert np.all(res.weights >= 0)
        assert abs(res.weights.sum() - 1.0) <= 1e-8

    def test_zero_last_weight_is_permuted(self):
        rng = np.random.default_rng(85)
        n = 6
        B = np.column_stack([random_histogram(rng, n, floor=1e-2) for _ in range(3)])
        cost = rng.uniform(size=(n, n))
        cost = 0.5 * (cost + cost.T)
        np.fill_diagonal(cost, 0.0)
        prob = BarycenterProblem(B, [0.5, 0.5, 0.0], cost, 0.3)
        res = solve_regularized(prob, identity_operator(n),
                                make_regularizer("quadratic", lam=1e6),
                                accel=True, tol=1e-10, max_iter=30000)
        assert abs(res.weights.sum() - 1.0) <= 1e-8

    def test_iteration_limit_and_norm_guard(self):
        B = two_shapes(6, 6)
        prob = BarycenterProblem(B, [0.5, 0.5], GridCost2D(6, 6), 0.05)
        with pytest.raises(IterationLimitError) as info:
            solve_regularized(prob, grid_gradient((6, 6)),
                              make_regularizer("tv_iso", lam=0.5),
                              tol=1e-14, max_iter=3, obj_tol=None)
        assert info.value.best.iterations == 3
        bad = LinearOperator(forward=lambda a: a, adjoint=lambda z: z,
                             norm_bound=np.nan, out_shape=(36,))
        with pytest.raises(ValueError):
            solve_regularized(prob, bad, make_regularizer("tv_iso", lam=0.5))


class TestKernelsBuiltOncePerSolve:
    @pytest.fixture
    def builds(self, monkeypatch):
        calls = []
        build = entropic._log_kernels

        def counted(cost, epsilon):
            calls.append(type(cost).__name__)
            return build(cost, epsilon)

        for module in (barycenter, entropic, legendre, regularized):
            monkeypatch.setattr(module, "_log_kernels", counted)
        return calls

    @staticmethod
    def problem(grid):
        cost = GridCost2D(6, 6)
        return BarycenterProblem(two_shapes(6, 6), [0.4, 0.6],
                                 cost if grid else np.array(cost.entries), 0.1)

    @pytest.mark.parametrize("grid", [False, True])
    def test_solve_barycenter(self, builds, grid):
        _, trace = solve_barycenter(self.problem(grid), tol=1e-6, max_iter=500,
                                    step_rule=lbfgs_direction(fallback_step=0.05))
        assert trace.iterations > 1
        assert builds == ["GridCost2D" if grid else "ndarray"]

    @pytest.mark.parametrize("grid", [False, True])
    def test_solve_regularized(self, builds, grid):
        res = solve_regularized(self.problem(grid), grid_gradient((6, 6)),
                                make_regularizer("tv_iso", lam=0.05), accel=True,
                                full_output=True)
        assert res.iterations > 1
        assert builds == ["GridCost2D" if grid else "ndarray"]
