import numpy as np
import pytest

from smoothot import entropic
from smoothot.barycenter import BarycenterProblem, dual_objective_grad
from smoothot.core import GridCost2D, as_kernel_cost
from smoothot.entropic import ctransform_of_f, sinkhorn
from smoothot.legendre import (
    _semidual,
    joint_conjugate,
    semidual_conjugate,
    semidual_conjugate_batch,
)

from oracles import finite_diff_gradient, random_histogram, rel_err


class TestSemidualConjugate:
    def test_single_cell(self):
        ev = semidual_conjugate([0.0], [1.0], [[0.0]], 1.0)
        assert ev.value == pytest.approx(1.0, abs=1e-15)
        assert np.allclose(ev.gradient, [1.0])

    def test_gradient_on_simplex(self):
        rng = np.random.default_rng(20)
        for _ in range(20):
            n, m = rng.integers(2, 9, size=2)
            ev = semidual_conjugate(
                rng.normal(size=n), random_histogram(rng, m), rng.uniform(size=(n, m)), 0.4
            )
            assert ev.gradient.min() >= 0
            assert ev.gradient.sum() == pytest.approx(1.0, abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(21)
        n, eps = 3, 0.3
        f = rng.normal(size=n)
        b = random_histogram(rng, n)
        c = rng.uniform(size=(n, n))
        ev = semidual_conjugate(f, b, c, eps)
        num = finite_diff_gradient(lambda x: semidual_conjugate(x, b, c, eps).value, f)
        assert rel_err(num, ev.gradient) <= 1e-6

    def test_value_matches_ctransform_formula(self):
        # eps*(H(b) + <b, log K^T u>) and -<f^{c,eps}, b> + eps agree
        rng = np.random.default_rng(22)
        for _ in range(10):
            n, m = rng.integers(2, 7, size=2)
            f = rng.normal(size=n)
            b = random_histogram(rng, m)
            c = rng.uniform(size=(n, m))
            ev = semidual_conjugate(f, b, c, 0.6)
            alt = -float(np.dot(ctransform_of_f(f, b, c, 0.6), b)) + 0.6
            assert abs(ev.value - alt) <= 1e-9 * (1 + abs(ev.value))

    def test_hessian_structure_and_bound(self):
        rng = np.random.default_rng(23)
        for eps in (0.2, 0.7):
            n = 5
            ev = semidual_conjugate(
                rng.normal(size=n), random_histogram(rng, n), rng.uniform(size=(n, n)),
                eps, want_hessian=True,
            )
            h = ev.hessian
            assert np.allclose(h, h.T, atol=1e-12)
            assert np.abs(h.sum(axis=1)).max() <= 1e-8
            eigs = np.linalg.eigvalsh(h)
            assert eigs.min() >= -1e-10
            assert eigs.max() <= (1.0 / eps) * (1 + 1e-6)

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError):
            semidual_conjugate([0.0], [1.0], [[0.0]], 0.0)

    @pytest.mark.parametrize("grid", [False, True])
    def test_zero_bins_are_the_limit_of_positive_bins(self, grid):
        # value, gradient and Hessian at b with zero bins are the delta -> 0
        # limit of the transform at b + delta on those bins
        rng = np.random.default_rng(35)
        gc = GridCost2D(3, 4)
        c = gc if grid else rng.uniform(size=(12, 12))
        f = rng.normal(size=12)
        b = random_histogram(rng, 12)
        b[[0, 5, 6]] = 0.0
        b /= b.sum()
        ev = semidual_conjugate(f, b, c, 0.2, want_hessian=True)
        assert np.isfinite(ev.value) and np.all(np.isfinite(ev.hessian))
        assert ev.gradient.sum() == pytest.approx(1.0, abs=1e-12)
        delta = 1e-13
        near = semidual_conjugate(f, (b + delta * (b == 0)) / (1 + 3 * delta), c, 0.2,
                                  want_hessian=True)
        assert ev.value == pytest.approx(near.value, abs=1e-10)
        assert np.abs(ev.gradient - near.gradient).max() <= 1e-10
        assert np.abs(ev.hessian - near.hessian).max() <= 1e-9
        if grid:  # the dense and grid paths agree on zero bins
            dense = semidual_conjugate(f, b, gc.entries, 0.2, want_hessian=True)
            assert ev.value == pytest.approx(dense.value, abs=1e-12)
            assert np.allclose(ev.gradient, dense.gradient, rtol=0, atol=1e-13)
            assert np.allclose(ev.hessian, dense.hessian, rtol=0, atol=1e-12)

    def test_grid_cost_matches_dense(self):
        rng = np.random.default_rng(24)
        gc = GridCost2D(3, 4)
        f = rng.normal(size=12)
        b = random_histogram(rng, 12)
        e1 = semidual_conjugate(f, b, gc, 0.05)
        e2 = semidual_conjugate(f, b, gc.entries, 0.05)
        assert e1.value == pytest.approx(e2.value, abs=1e-12)
        assert np.allclose(e1.gradient, e2.gradient, atol=1e-13)

    def test_grid_hessian_matches_dense_without_entries(self):
        rng = np.random.default_rng(33)
        gc = GridCost2D(4, 4)
        f = rng.normal(size=16)
        b = random_histogram(rng, 16)
        e1 = semidual_conjugate(f, b, gc, 0.1, want_hessian=True)
        assert "entries" not in vars(gc)
        e2 = semidual_conjugate(f, b, gc.entries, 0.1, want_hessian=True)
        assert np.allclose(e1.hessian, e2.hessian, rtol=0, atol=1e-12)


class TestSemidualBatch:
    def test_batch_of_one_matches_scalar(self):
        rng = np.random.default_rng(25)
        for c in (rng.uniform(size=(6, 6)), GridCost2D(2, 3)):
            f = rng.normal(size=6)
            b = random_histogram(rng, 6)
            values, grads = semidual_conjugate_batch(f[:, None], b[:, None], c, 0.3)
            scalar = semidual_conjugate(f, b, c, 0.3)
            assert values[0] == scalar.value
            assert np.array_equal(grads[:, 0], scalar.gradient)

    def test_rectangular_cost_columns_match_scalar(self):
        rng = np.random.default_rng(28)
        c = rng.uniform(size=(5, 3))
        F = rng.normal(size=(5, 2))
        B = np.column_stack([random_histogram(rng, 3) for _ in range(2)])
        values, grads = semidual_conjugate_batch(F, B, c, 0.4)
        assert values.shape == (2,) and grads.shape == (5, 2)
        for k in range(2):
            scalar = semidual_conjugate(F[:, k], B[:, k], c, 0.4)
            assert values[k] == scalar.value
            assert np.array_equal(grads[:, k], scalar.gradient)

    def test_identical_columns_give_identical_outputs(self):
        rng = np.random.default_rng(26)
        b = random_histogram(rng, 5)
        c = rng.uniform(size=(5, 5))
        values, grads = semidual_conjugate_batch(
            np.zeros((5, 3)), np.column_stack([b, b, b]), c, 0.4
        )
        assert np.ptp(values) == 0.0
        assert np.abs(grads - grads[:, [0]]).max() == 0.0

    def test_gradient_columns_on_simplex(self):
        rng = np.random.default_rng(27)
        F = rng.normal(size=(5, 3))
        B = np.column_stack([random_histogram(rng, 5) for _ in range(3)])
        _, grads = semidual_conjugate_batch(F, B, rng.uniform(size=(5, 5)), 0.5)
        assert np.abs(grads.sum(axis=0) - 1.0).max() <= 1e-10

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            semidual_conjugate_batch(np.zeros((3, 2)), np.ones((4, 2)) / 4, np.zeros((3, 3)), 0.5)

    @pytest.fixture
    def applies(self, monkeypatch):
        # kernel applies, one per column: a grid applies column by column, a
        # dense cost a whole (N, n) stack at once
        counted = []
        grid_apply, dense_apply = entropic.grid_kernel_apply, entropic.dense_kernel_apply

        def grid(*args, **kwargs):
            counted.append(1)
            return grid_apply(*args, **kwargs)

        def dense(x, kernel):
            counted.extend([1] * (x.shape[0] if x.ndim == 2 else 1))
            return dense_apply(x, kernel)

        monkeypatch.setattr(entropic, "grid_kernel_apply", grid)
        monkeypatch.setattr(entropic, "dense_kernel_apply", dense)
        return counted

    def test_value_only_matches_full_path(self, applies):
        rng = np.random.default_rng(29)
        for c in (rng.uniform(size=(6, 6)), GridCost2D(2, 3)):
            for num in (1, 2):
                F = rng.normal(size=(6, num))
                B = np.column_stack([random_histogram(rng, 6) for _ in range(num)])
                applies.clear()
                full, _ = semidual_conjugate_batch(F, B, c, 0.3)
                full_applies = len(applies)
                kernels = entropic._log_kernels(as_kernel_cost(c), 0.3)
                applies.clear()
                values, _ = _semidual(F, B, kernels, 0.3)
                assert np.array_equal(values, full)
                # K^T u per column for the value, no K apply
                assert (full_applies, len(applies)) == (2 * num, num)

    def test_value_then_completion_matches_batch_and_dual_objective_grad(self, applies):
        rng = np.random.default_rng(36)
        for c in (rng.uniform(size=(6, 6)), GridCost2D(2, 3)):
            for num in (1, 2):
                F = rng.normal(size=(6, num))
                B = np.column_stack([random_histogram(rng, 6) for _ in range(num)])
                B[2, 0] = 0.0  # a zero bin takes the masked path
                B[:, 0] /= B[:, 0].sum()
                lam = random_histogram(rng, num)
                kernels = entropic._log_kernels(as_kernel_cost(c), 0.3)
                applies.clear()
                values, gradient = _semidual(F, B, kernels, 0.3)
                value_applies = len(applies)
                grads = gradient()
                assert (value_applies, len(applies) - value_applies) == (num, num)
                batch_values, batch_grads = semidual_conjugate_batch(F, B, c, 0.3)
                assert np.array_equal(values, batch_values)
                assert np.array_equal(grads, batch_grads)
                objective, grad = dual_objective_grad(F, BarycenterProblem(B, lam, c, 0.3))
                assert objective == float(np.dot(lam, values))
                assert np.array_equal(grad, grads * lam[None, :])

    def test_grid_batch_builds_no_entries(self):
        rng = np.random.default_rng(34)
        gc = GridCost2D(32, 32)
        F = rng.normal(size=(1024, 2))
        B = np.column_stack([random_histogram(rng, 1024) for _ in range(2)])
        values, grads = semidual_conjugate_batch(F, B, gc, 0.01)
        assert "entries" not in vars(gc)
        assert np.all(np.isfinite(values)) and grads.shape == (1024, 2)


class TestJointConjugate:
    def test_single_cell(self):
        for eps in (0.0, 0.5, 2.0):
            ev = joint_conjugate([0.0], [0.0], [[0.0]], eps)
            assert ev.value == pytest.approx(0.0, abs=1e-15)
            if eps > 0:
                assert np.allclose(ev.grad_f, [1.0]) and np.allclose(ev.grad_g, [1.0])

    def test_translation_identity(self):
        rng = np.random.default_rng(29)
        f = rng.normal(size=4)
        g = rng.normal(size=3)
        c = rng.uniform(size=(4, 3))
        base = joint_conjugate(f, g, c, 0.5)
        shifted = joint_conjugate(f + 1.7, g, c, 0.5)
        assert shifted.value == pytest.approx(base.value + 1.7, abs=1e-12)
        assert np.allclose(shifted.grad_f, base.grad_f, atol=1e-12)
        assert np.allclose(shifted.grad_g, base.grad_g, atol=1e-12)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(30)
        n, m, eps = 4, 3, 0.5
        f = rng.normal(size=n)
        g = rng.normal(size=m)
        c = rng.uniform(size=(n, m))
        ev = joint_conjugate(f, g, c, eps)
        full = np.concatenate([f, g])
        num = finite_diff_gradient(
            lambda x: joint_conjugate(x[:n], x[n:], c, eps).value, full
        )
        assert rel_err(num, np.concatenate([ev.grad_f, ev.grad_g])) <= 1e-6

    def test_gradients_on_simplices(self):
        rng = np.random.default_rng(31)
        ev = joint_conjugate(rng.normal(size=5), rng.normal(size=7),
                             rng.uniform(size=(5, 7)), 0.3)
        assert ev.grad_f.sum() == pytest.approx(1.0, abs=1e-12)
        assert ev.grad_g.sum() == pytest.approx(1.0, abs=1e-12)
        assert ev.grad_f.min() >= 0 and ev.grad_g.min() >= 0

    def test_hessian_psd_and_lipschitz_bound(self):
        rng = np.random.default_rng(32)
        eps = 0.5
        ev = joint_conjugate(rng.normal(size=4), rng.normal(size=3),
                             rng.uniform(size=(4, 3)), eps, want_hessian=True)
        h = ev.hessian()
        assert np.allclose(h, h.T, atol=1e-12)
        eigs = np.linalg.eigvalsh(h)
        assert eigs.min() >= -1e-10
        assert eigs.max() <= (2.0 / eps) * (1 + 1e-6)
        assert np.abs(h.sum(axis=1)).max() <= 1e-10

    def test_eps_zero_value_and_no_hessian(self):
        rng = np.random.default_rng(33)
        f = rng.normal(size=3)
        g = rng.normal(size=4)
        c = rng.uniform(size=(3, 4))
        ev = joint_conjugate(f, g, c, 0.0)
        assert ev.value == pytest.approx(-(c - f[:, None] - g[None, :]).min())
        assert ev.grad_f is None and ev.grad_g is None
        with pytest.raises(ValueError):
            joint_conjugate(f, g, c, 0.0, want_hessian=True)


class TestDualityRelations:
    def test_fenchel_young(self):
        # <f,a> <= W_eps(a,b) + H*_b(f), equality at a = grad H*_b(f)
        rng = np.random.default_rng(34)
        tol = 1e-10
        for _ in range(5):
            n = 5
            f = rng.normal(scale=0.2, size=n)
            b = random_histogram(rng, n, floor=1e-3)
            c = rng.uniform(size=(n, n))
            ev = semidual_conjugate(f, b, c, 0.4)
            a_star = ev.gradient
            w = sinkhorn(a_star, b, c, 0.4, tol=tol).value
            lhs = float(np.dot(f, a_star))
            assert lhs <= w + ev.value + 2 * tol + 1e-9
            assert abs(lhs - (w + ev.value)) <= 1e-6

            a_other = random_histogram(rng, n)
            w_other = sinkhorn(a_other, b, c, 0.4, tol=tol).value
            assert float(np.dot(f, a_other)) <= w_other + ev.value + 1e-8

    def test_fenchel_young_closed_form_matches_sinkhorn(self):
        # W_eps(grad H*_b(f), b) = <f, grad H*_b(f)> - H*_b(f), in closed form
        rng = np.random.default_rng(36)
        for n, m in ((5, 5), (6, 4)):
            f = rng.normal(scale=0.3, size=n)
            b = random_histogram(rng, m, floor=1e-3)
            c = rng.uniform(size=(n, m))
            ev = semidual_conjugate(f, b, c, 0.4)
            closed = float(np.dot(f, ev.gradient)) - ev.value
            w = sinkhorn(ev.gradient, b, c, 0.4, tol=1e-13).value
            assert abs(closed - w) <= 1e-12

    def test_joint_maximized_over_g_reproduces_semidual(self):
        # max_g [<f,a> + <g,b> - W*(f,g)] equals the semi-dual value
        # <f,a> + <f^{c,eps},b> - eps once the documented +eps constant in
        # the adopted W* convention is accounted for.
        rng = np.random.default_rng(35)
        n, m, eps = 5, 4, 0.5
        f = rng.normal(size=n)
        a = random_histogram(rng, n)
        b = random_histogram(rng, m)
        c = rng.uniform(size=(n, m))
        g = np.zeros(m)
        for _ in range(400):  # fixed-point ascent on the concave g-problem
            ev = joint_conjugate(f, g, c, eps)
            g = g + eps * (np.log(b) - np.log(ev.grad_g))
        ev = joint_conjugate(f, g, c, eps)
        maximized = float(np.dot(f, a) + np.dot(g, b)) - ev.value
        semidual = float(np.dot(f, a) + np.dot(ctransform_of_f(f, b, c, eps), b)) - eps
        assert maximized - eps == pytest.approx(semidual, abs=1e-8)
