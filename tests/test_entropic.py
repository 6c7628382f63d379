import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import smoothot

from smoothot import entropic
from smoothot.core import FeasibilityError, GridCost2D, IterationLimitError, logsumexp
from smoothot.entropic import (
    ctransform_of_f,
    dual_value,
    primal_value,
    sinkhorn,
    symmetric_potential,
    transport_cost,
)
from smoothot.lp_oracle import exact_ot

from oracles import random_histogram

# 50-digit evaluations of the c-transform formula for
# f=[1,0], b=[.5,.5], C=[[0,1],[1,0]], eps=1:
#   j=0: log(1/2) - log(e + 1/e),  j=1: log(1/2) - log(2)
CTRANSFORM_DERIVED = [-1.8200751916029178, -1.3862943611198906]


class TestCTransforms:
    def test_single_cell(self):
        out = ctransform_of_f([0.0], [1.0], [[0.0]], 1.0)
        assert out == pytest.approx([0.0], abs=1e-15)

    def test_eps_zero_column_minima(self):
        out = ctransform_of_f([0.0, 0.0], [0.3, 0.7], [[0.0, 1.0], [1.0, 0.0]], 0.0)
        assert np.allclose(out, [0.0, 0.0])

    def test_frozen_derived_values(self):
        out = ctransform_of_f([1.0, 0.0], [0.5, 0.5], [[0.0, 1.0], [1.0, 0.0]], 1.0)
        assert np.allclose(out, CTRANSFORM_DERIVED, atol=1e-14)

    def test_zero_mass_gives_inf_sentinel(self):
        out = ctransform_of_f([0.0, 0.0], [0.0, 1.0], [[0.0, 1.0], [1.0, 0.0]], 0.5)
        assert out[0] == -np.inf and np.isfinite(out[1])

    def test_grid_cost_matches_dense_without_entries(self):
        rng = np.random.default_rng(6)
        gc = GridCost2D(8, 8)
        f = rng.normal(size=64)
        b = random_histogram(rng, 64)
        out = ctransform_of_f(f, b, gc, 0.05)
        assert "entries" not in vars(gc)
        assert np.allclose(out, ctransform_of_f(f, b, gc.entries, 0.05), rtol=0, atol=1e-12)

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ValueError):
            ctransform_of_f([0.0, 0.0], [0.5, 0.5], [[0.0, 1.0], [1.0, 0.0]], -0.5)

    def test_sweep_contraction(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n, m = rng.integers(2, 8, size=2)
            c = rng.uniform(size=(n, m))
            a = random_histogram(rng, n)
            b = random_histogram(rng, m)
            f = rng.normal(size=n)
            g = ctransform_of_f(f, b, c, 0.4)
            f1 = ctransform_of_f(g, a, c.T, 0.4)
            g1 = ctransform_of_f(f1, b, c, 0.4)
            f2 = ctransform_of_f(g1, a, c.T, 0.4)
            assert np.abs(f2 - f1).max() < np.abs(f1 - f).max()

    def test_eps_zero_alternation_is_stationary(self):
        rng = np.random.default_rng(6)
        c = rng.uniform(size=(6, 6))
        a = random_histogram(rng, 6)
        b = random_histogram(rng, 6)
        f = rng.normal(size=6)
        g0 = ctransform_of_f(f, b, c, 0.0)
        f1 = ctransform_of_f(g0, a, c.T, 0.0)
        g1 = ctransform_of_f(f1, b, c, 0.0)
        f2 = ctransform_of_f(g1, a, c.T, 0.0)
        assert np.abs(g1 - g0).max() <= 1e-12
        assert np.abs(f2 - f1).max() <= 1e-12


def broadcast_kernel_apply(x, lc):
    """The reference: one broadcast log-sum-exp, log(e^x @ exp(lc))."""
    return logsumexp(lc + x[..., :, None], axis=-2)


class TestDenseKernelApply:
    """The dense kernels of `_log_kernels`: x -> log K^T e^x and x -> log K e^x."""

    @staticmethod
    def directions(c, epsilon):
        apply_kt, apply_k = entropic._log_kernels(c, epsilon)
        return ((apply_kt, -c / epsilon), (apply_k, -c.T / epsilon))

    @pytest.mark.parametrize("shape", [(12, 12), (9, 15), (15, 9)])
    @pytest.mark.parametrize("epsilon", [1.0, 1e-2, 1e-3])
    def test_matches_broadcast_log_sum_exp(self, shape, epsilon):
        rng = np.random.default_rng(shape[0] * shape[1])
        c = rng.uniform(size=shape)
        for apply, lc in self.directions(c, epsilon):
            n = lc.shape[0]
            for x in (rng.normal(scale=3.0, size=n), rng.normal(size=(4, n)) / epsilon):
                got = apply(x)
                ref = broadcast_kernel_apply(x, lc)
                assert got.shape == ref.shape
                assert np.all(np.abs(got - ref) <= 1e-13 * np.maximum(1.0, np.abs(ref)))

    def test_log_zero_entries(self):
        rng = np.random.default_rng(21)
        c = rng.uniform(size=(6, 8))
        (apply_kt, lc), (apply_k, _) = self.directions(c, 0.05)
        x = rng.normal(size=6)
        x[[1, 4]] = -np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            masked = apply_kt(x)
            ref = broadcast_kernel_apply(x, lc)
            empty = apply_kt(np.full(6, -np.inf))
            empty_stack = apply_k(np.full((3, 8), -np.inf))
        assert np.all(np.abs(masked - ref) <= 1e-13 * np.maximum(1.0, np.abs(ref)))
        assert empty.shape == (8,) and np.all(empty == -np.inf)
        assert empty_stack.shape == (3, 6) and np.all(empty_stack == -np.inf)

    def test_underflowing_sums_fall_back_exactly(self, monkeypatch):
        # all mass of x on bin 0: at eps = 1e-3 the shifted sum of column j is
        # exp(-(C[0, j] - min_i C[i, j]) / eps), below 1e-250 once that gap
        # passes 0.58
        rng = np.random.default_rng(22)
        c = rng.uniform(size=(10, 10))
        epsilon = 1e-3
        x = np.full(10, -800.0)
        x[0] = 0.0
        (apply_kt, lc), _ = self.directions(c, epsilon)
        gaps = c[0] - c.min(axis=0)
        fallback = np.flatnonzero(gaps > 0.6)
        assert fallback.size > 0 and np.all((gaps <= 0.55) | (gaps > 0.6))
        calls = []

        def counted(a, axis=None):
            calls.append(np.shape(a))
            return logsumexp(a, axis=axis)

        monkeypatch.setattr(entropic, "logsumexp", counted)
        got = apply_kt(x)
        assert calls == [(fallback.size, 10)]
        for j in range(10):
            exact = logsumexp(x + lc[:, j])
            if j in fallback:
                assert got[j] == exact
            else:
                assert abs(got[j] - exact) <= 1e-13 * max(1.0, abs(exact))

    @pytest.mark.parametrize("shape", [(7, 7), (5, 11)])
    def test_stack_rows_match_single_vectors(self, shape):
        # the semidual passes F.T / eps, an F-ordered stack
        rng = np.random.default_rng(23)
        c = rng.uniform(size=shape)
        for apply, lc in self.directions(c, 1e-2):
            stack = (rng.normal(size=(lc.shape[0], 6)) / 1e-2).T
            assert not stack.flags.c_contiguous
            got = apply(stack)
            for k in range(6):
                assert np.array_equal(got[k], apply(stack[k]))


def grid_distance_128():
    """W_eps between two Gaussian bumps on a 128 x 128 GridCost2D, eps = 0.01."""
    cost = GridCost2D(128, 128)

    def bump(center):
        d = np.exp(-((cost.points - center) ** 2).sum(axis=1) / (2 * 0.05 ** 2)) + 1e-3
        return d / d.sum()

    a, b = bump((0.4, 0.4)), bump((0.6, 0.6))
    return sinkhorn(a, b, cost, 0.01), cost, a, b


class TestSinkhorn:
    def test_single_cell(self):
        res = sinkhorn([1.0], [1.0], [[0.0]], 0.5)
        assert np.allclose(res.coupling.matrix, [[1.0]])
        assert res.value == pytest.approx(-0.5, abs=1e-12)

    def test_large_epsilon_product_coupling(self):
        rng = np.random.default_rng(7)
        a = random_histogram(rng, 6)
        b = random_histogram(rng, 5)
        c = rng.uniform(size=(6, 5))
        res = sinkhorn(a, b, c, 1e6 * c.max(), tol=1e-12)
        assert np.abs(res.coupling.matrix - np.outer(a, b)).max() <= 1e-6

    def test_small_epsilon_reaches_lp_cost(self):
        a = np.array([0.5, 0.5])
        b = np.array([0.25, 0.75])
        c = np.array([[0.0, 1.0], [1.0, 0.0]])
        res = sinkhorn(a, b, c, 0.01, tol=1e-10, max_iter=100000)
        assert transport_cost(res.coupling, c) == pytest.approx(0.25, abs=0.05)

    def test_marginal_residuals_decrease_across_sweeps(self):
        rng = np.random.default_rng(8)
        a = random_histogram(rng, 7, floor=1e-3)
        b = random_histogram(rng, 9, floor=1e-3)
        c = rng.uniform(size=(7, 9))
        # one solve per sweep budget; the limit error reports the residual
        prev = np.inf
        for k in (1, 2, 4, 8, 16):
            try:
                res = sinkhorn(a, b, c, 0.2, tol=1e-15, max_iter=k)
                current = max(res.row_residual, res.col_residual)
            except IterationLimitError as exc:
                current = exc.residual
            assert current <= prev + 1e-15
            prev = current

    def test_weak_duality_gap(self):
        rng = np.random.default_rng(9)
        tol = 1e-10
        for _ in range(5):
            n, m = rng.integers(3, 9, size=2)
            a = random_histogram(rng, n, floor=1e-3)
            b = random_histogram(rng, m, floor=1e-3)
            c = rng.uniform(size=(n, m))
            res = sinkhorn(a, b, c, 0.3, tol=tol)
            primal = primal_value(a, b, c, 0.3, res.coupling)
            assert res.value <= primal + 10 * tol * c.max()
            assert abs(primal - res.value) <= 10 * tol * max(1.0, c.max())

    def test_potential_shift_invariance(self):
        rng = np.random.default_rng(10)
        a = random_histogram(rng, 4)
        b = random_histogram(rng, 4)
        c = rng.uniform(size=(4, 4))
        res = sinkhorn(a, b, c, 0.5)
        f, g = res.potentials.f, res.potentials.g
        shift = 1.234
        same = dual_value(f + shift, g - shift, a, b, c, 0.5)
        assert same == pytest.approx(res.value, abs=1e-12)

    def test_zero_mass_bins_are_stripped(self):
        a = np.array([0.5, 0.0, 0.5])
        b = np.array([0.25, 0.75])
        c = np.random.default_rng(11).uniform(size=(3, 2))
        res = sinkhorn(a, b, c, 0.2)
        assert np.all(res.coupling.matrix[1] == 0.0)
        assert np.all(np.isfinite(res.potentials.f))

    def test_zero_bin_value_is_the_stripped_value(self):
        # the completed potentials of zero bins carry Gibbs mass of their own,
        # which a dual value over the full cost would subtract
        a = np.array([0.3, 0.0, 0.7])
        b = np.array([0.5, 0.5, 0.0, 0.0])
        c = np.random.default_rng(0).uniform(size=(3, 4))
        for eps in (0.5, 0.05, 1e-3):
            res = sinkhorn(a, b, c, eps)
            alone = sinkhorn(a[[0, 2]], b[:2], c[np.ix_([0, 2], [0, 1])], eps)
            assert abs(res.value - alone.value) <= 1e-10
            assert abs(res.value - primal_value(a, b, c, eps, res.coupling)) <= 1e-10
            assert np.all(res.coupling.matrix[1] == 0.0)
            assert np.all(res.coupling.matrix[:, 2:] == 0.0)

    def test_dual_value_at_the_potentials_is_the_value_with_zero_bins(self):
        # zero bins are masked in the dual's mass term as in the solve
        a = np.array([0.3, 0.0, 0.7])
        b = np.array([0.5, 0.5, 0.0, 0.0])
        c = np.random.default_rng(0).uniform(size=(3, 4))
        for eps in (0.5, 0.05, 1e-3):
            res = sinkhorn(a, b, c, eps)
            f, g = res.potentials.f, res.potentials.g
            assert abs(dual_value(f, g, a, b, c, eps) - res.value) <= 1e-12

    def test_grid_cost_path_matches_dense(self):
        rng = np.random.default_rng(12)
        cases = []
        for side in (4, 16):
            cases.append((side, random_histogram(rng, side * side),
                          random_histogram(rng, side * side)))
        # zero pixels in both histograms: masked on the grid path too
        a, b = cases[-1][1].copy(), cases[-1][2].copy()
        a[rng.choice(a.size, 20, replace=False)] = 0.0
        b[rng.choice(b.size, 20, replace=False)] = 0.0
        cases.append((16, a / a.sum(), b / b.sum()))
        for side, a, b in cases:
            gc = GridCost2D(side, side)
            r1 = sinkhorn(a, b, gc, 0.05)
            assert "entries" not in vars(gc)  # no dense fallback
            r2 = sinkhorn(a, b, gc.entries, 0.05)
            assert r1.iterations == r2.iterations
            assert np.allclose(r1.potentials.f, r2.potentials.f, rtol=0, atol=1e-12)
            assert np.allclose(r1.potentials.g, r2.potentials.g, rtol=0, atol=1e-12)
            assert r1.value == pytest.approx(r2.value, abs=1e-12)
            assert np.allclose(r1.coupling.matrix, r2.coupling.matrix, rtol=0, atol=1e-12)
            f, g = r1.potentials.f, r1.potentials.g
            assert dual_value(f, g, a, b, gc, 0.05) == pytest.approx(
                dual_value(f, g, a, b, gc.entries, 0.05), abs=1e-12)

    def test_large_grid_distance_builds_no_cost_entries(self):
        res, cost, a, b = grid_distance_128()
        assert res.row_residual <= 1e-9 and res.col_residual <= 1e-9
        f, g = res.potentials.f, res.potentials.g
        assert dual_value(f, g, a, b, cost, 0.01) == pytest.approx(res.value, abs=1e-12)
        assert "entries" not in vars(cost)  # built on first access only

    def test_large_grid_distance_peak_memory(self):
        # one n^2 array at 128^2 is 2.1 GB; the solve needs none
        src = str(Path(smoothot.__file__).resolve().parents[1])
        tests = str(Path(__file__).resolve().parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, tests, os.environ.get("PYTHONPATH")])))
        probe = ("import resource, test_entropic; test_entropic.grid_distance_128(); "
                 "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)")
        out = subprocess.run([sys.executable, "-c", probe], env=env,
                             capture_output=True, text=True, timeout=120, check=True)
        assert int(out.stdout) < 200 * 1024  # ru_maxrss is in KiB on Linux

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            sinkhorn([1.0], [1.0], [[0.0]], 0.0)
        with pytest.raises(ValueError):
            sinkhorn([1.0], [1.0], [[0.0]], 0.5, tol=0.0)
        with pytest.raises(ValueError):
            sinkhorn([1.0], [1.0], [[0.0]], 0.5, max_iter=0)
        a = np.full(16, 1.0 / 16)
        for f0 in (np.zeros(18), np.zeros(20), np.zeros(14), np.full(16, np.nan)):
            with pytest.raises(ValueError):
                sinkhorn(a, a, GridCost2D(4, 4), 0.5, f0=f0)

    def test_dual_value_requires_positive_epsilon(self):
        a = b = [0.5, 0.5]
        c = [[0.0, 1.0], [1.0, 0.0]]
        for eps in (0.0, -0.5):
            with pytest.raises(ValueError):
                dual_value([0.3, -0.2], [0.1, 0.4], a, b, c, eps)

    def test_dense_sweep_makes_two_reductions(self, monkeypatch):
        rng = np.random.default_rng(14)
        a = random_histogram(rng, 10, floor=1e-3)
        b = random_histogram(rng, 10, floor=1e-3)
        c = rng.uniform(size=(10, 10))
        # row 2 costs 1 more than the cheapest entry of each column in b's
        # support, so at eps = 1e-3 the first K v underflows there; row 3 and
        # column 1 are zero bins
        za = np.array([0.3, 0.3, 0.4, 0.0])
        zb = np.array([0.5, 0.0, 0.5])
        zc = np.array([[0.0, 0.2, 0.5], [0.5, 0.3, 0.0], [1.0, 0.4, 1.0], [0.1, 0.6, 0.7]])
        events = []
        apply, build = entropic.dense_kernel_apply, entropic._gibbs_plan

        class Kernel(np.ndarray):
            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                if ufunc is np.matmul:
                    events.append("product")
                inputs = [x.view(np.ndarray) if isinstance(x, Kernel) else x for x in inputs]
                return getattr(ufunc, method)(*inputs, **kwargs)

        def counted(*args, **kwargs):
            events.append("apply")
            return apply(*args, **kwargs)

        def built(*args):
            events.append("build")
            return build(*args).view(Kernel)

        monkeypatch.setattr(entropic, "dense_kernel_apply", counted)
        monkeypatch.setattr(entropic, "_gibbs_plan", built)
        for x, y, cost, eps, exact_sweeps in ((za, zb, zc, 1e-3, 1), (a, b, c, 0.05, 0)):
            events.clear()
            res = sinkhorn(x, y, cost, eps, tol=1e-9)
            # exact applies: one for the set-up, one before each re-absorption
            # after an underflow, and two at the end to complete zero bins;
            # every sweep makes two plain products with the absorbed kernel
            last = len(events) - events[::-1].index("product")
            assert events[:2] == ["apply", "build"]
            mid = [i for i in range(2, last) if events[i] == "apply"]
            assert all(events[i + 1] == "build" for i in mid)
            assert len(mid) == exact_sweeps
            assert events[last:] == ["apply"] * (2 if 0 in x else 0)
            assert events.count("product") == 2 * res.iterations
            assert events.count("build") == res.absorptions
        assert res.iterations > 10
        assert res.coupling.row_residual == pytest.approx(res.row_residual, abs=1e-14)
        assert res.coupling.col_residual == pytest.approx(res.col_residual, abs=1e-14)

    def test_small_eps_sweeps_make_no_logsumexp_call(self, monkeypatch):
        # criterion 4's costs at eps = 1e-3: no sum of the absorbed kernel's
        # products underflows, so no apply falls back to logsumexp; the
        # set-up's apply of f = 0 cannot, as each column's sum holds exp(0)
        calls = []
        lse = entropic.logsumexp

        def counted(*args, **kwargs):
            calls.append(1)
            return lse(*args, **kwargs)

        monkeypatch.setattr(entropic, "logsumexp", counted)
        rng = np.random.default_rng(204)
        for _ in range(5):
            a = random_histogram(rng, 10)
            b = random_histogram(rng, 10)
            c = rng.uniform(size=(10, 10))
            res = sinkhorn(a, b, c, 1e-3, tol=1e-11, max_iter=500_000)
            assert calls == []
            assert res.row_residual <= 1e-11 and res.col_residual <= 1e-11
            assert res.absorptions >= 1

    def test_iteration_limit_carries_residual(self):
        rng = np.random.default_rng(13)
        a = random_histogram(rng, 8)
        b = random_histogram(rng, 8)
        c = rng.uniform(size=(8, 8))
        with pytest.raises(IterationLimitError) as info:
            sinkhorn(a, b, c, 0.01, tol=1e-14, max_iter=2)
        assert info.value.residual > 0
        assert info.value.iterations == 2

    def test_iteration_limit_best_resumes_with_zero_bins(self):
        a = np.array([0.3, 0.0, 0.7])
        b = np.array([0.5, 0.5, 0.0, 0.0])
        c = np.random.default_rng(0).uniform(size=(3, 4))
        with pytest.raises(IterationLimitError) as info:
            sinkhorn(a, b, c, 0.01, tol=1e-14, max_iter=3)
        assert info.value.best.converged is False
        f, g = info.value.best.potentials.f, info.value.best.potentials.g
        assert f.shape == (3,) and g.shape == (4,)
        assert np.all(np.isfinite(f)) and np.all(np.isfinite(g))
        resumed = sinkhorn(a, b, c, 0.01, f0=f)
        cold = sinkhorn(a, b, c, 0.01)
        assert resumed.row_residual <= 1e-9 and resumed.col_residual <= 1e-9
        assert abs(resumed.value - cold.value) <= 1e-12

    def test_overrelaxation_cuts_sweeps_with_the_same_value(self, monkeypatch):
        rng = np.random.default_rng(17)
        side = 16
        gc = GridCost2D(side, side)
        a = random_histogram(rng, side * side)
        b = random_histogram(rng, side * side)
        cases = [(a, b, gc, eps, 1e-9) for eps in (1.0 / side, 1.0 / (4 * side))]
        rng = np.random.default_rng(204)  # criterion 4's costs
        for _ in range(5):
            a = random_histogram(rng, 10)
            b = random_histogram(rng, 10)
            cases.append((a, b, rng.uniform(size=(10, 10)), 1e-3, 1e-11))
        for a, b, c, eps, tol in cases:
            fast = sinkhorn(a, b, c, eps, tol=tol, max_iter=100_000)
            with monkeypatch.context() as m:
                m.setattr(entropic, "_WARMUP_SWEEPS", 100_001)  # omega = 1 throughout
                plain = sinkhorn(a, b, c, eps, tol=tol, max_iter=100_000)
            assert plain.restarts == 0
            assert fast.row_residual <= tol and fast.col_residual <= tol
            assert fast.iterations < plain.iterations
            assert abs(fast.value - plain.value) <= 1e-12

    def test_safeguard_restarts_without_warnings(self, monkeypatch):
        rng = np.random.default_rng(204)
        for _ in range(2):  # criterion 4's cost 1
            a = random_histogram(rng, 10)
            b = random_histogram(rng, 10)
            c = rng.uniform(size=(10, 10))
        for cap in (entropic._OMEGA_CAP, 1.99):
            monkeypatch.setattr(entropic, "_OMEGA_CAP", cap)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                res = sinkhorn(a, b, c, 1e-3, tol=1e-11, max_iter=100_000)
            assert res.restarts >= 1
            assert res.row_residual <= 1e-11 and res.col_residual <= 1e-11
            assert abs(res.value - primal_value(a, b, c, 1e-3, res.coupling)) <= 1e-9

    def test_loose_tol_after_overrelaxation_gives_a_unit_mass_plan(self):
        # an overrelaxed last sweep leaves the row marginal off a by up to
        # tol, which breaks the plan's mass-1 check; the solve must end on a
        # plain sweep instead
        rng = np.random.default_rng(204)
        for _ in range(2):  # criterion 4's cost 1
            a = random_histogram(rng, 10)
            b = random_histogram(rng, 10)
            c = rng.uniform(size=(10, 10))
        rng = np.random.default_rng(17)
        side = 16
        ga = random_histogram(rng, side * side)
        gb = random_histogram(rng, side * side)
        cases = [(a, b, c, 1e-3), (ga, gb, GridCost2D(side, side), 1.0 / (4 * side))]
        for a, b, c, eps in cases:
            for tol in (1e-3, 1e-7):
                res = sinkhorn(a, b, c, eps, tol=tol)
                assert res.iterations > entropic._WARMUP_SWEEPS  # omega > 1 was used
                assert res.row_residual <= tol and res.col_residual <= tol
                p = res.coupling.matrix
                assert abs(p.sum() - 1.0) <= 1e-12
                assert np.abs(p.sum(axis=1) - a).sum() <= 1e-12
            assert abs(res.value - primal_value(a, b, c, eps, res.coupling)) <= 1e-6


def with_zero_bins(a, bins):
    """a with the given bins set to 0, renormalized."""
    out = a.copy()
    out[bins] = 0.0
    return out / out.sum()


class TestSymmetricPotential:
    def test_warm_start_value_equals_cold_solve(self):
        rng = np.random.default_rng(15)
        gc = GridCost2D(6, 6)
        a = random_histogram(rng, 36, floor=1e-3)
        eps = 1.0 / 36
        for hist in (a, with_zero_bins(a, [0, 7, 20])):
            f = symmetric_potential(hist, gc, eps)
            assert np.all(np.isfinite(f))
            warm = sinkhorn(hist, hist, gc, eps, f0=f)
            cold = sinkhorn(hist, hist, gc, eps)
            assert warm.iterations == 1 < cold.iterations
            assert abs(warm.value - cold.value) <= 1e-12

    def test_grid_and_dense_costs_agree(self):
        rng = np.random.default_rng(16)
        gc = GridCost2D(6, 6)
        a = random_histogram(rng, 36, floor=1e-3)
        for hist in (a, with_zero_bins(a, [3, 35])):
            values = [sinkhorn(hist, hist, c, 0.05,
                               f0=symmetric_potential(hist, c, 0.05)).value
                      for c in (gc, gc.entries)]
            assert abs(values[0] - values[1]) <= 1e-12

    def test_iteration_limit_carries_best(self, monkeypatch):
        monkeypatch.setattr(entropic, "DEFAULT_MAX_ITER", 1)
        a = random_histogram(np.random.default_rng(17), 16, floor=1e-3)
        with pytest.raises(IterationLimitError) as info:
            symmetric_potential(a, GridCost2D(4, 4), 0.05)
        assert info.value.best.shape == (16,)
        assert np.all(np.isfinite(info.value.best))
        assert info.value.residual > 0
        assert info.value.iterations == 1

    def test_none_for_non_symmetric_cost(self):
        c = np.array([[0.0, 1.0], [2.0, 0.0]])
        assert symmetric_potential([0.5, 0.5], c, 0.1) is None


class TestPrimalValue:
    def test_single_cell(self):
        assert primal_value([1.0], [1.0], [[0.0]], 1.0, np.array([[1.0]])) == -1.0

    def test_eps_zero_is_linear_cost(self):
        p = np.array([[0.25, 0.25], [0.25, 0.25]])
        c = np.array([[0.0, 1.0], [2.0, 0.0]])
        assert primal_value([0.5, 0.5], [0.5, 0.5], c, 0.0, p) == pytest.approx(
            float((p * c).sum())
        )

    def test_strong_duality_at_optimum(self):
        rng = np.random.default_rng(14)
        a = random_histogram(rng, 6, floor=1e-3)
        b = random_histogram(rng, 6, floor=1e-3)
        c = rng.uniform(size=(6, 6))
        res = sinkhorn(a, b, c, 0.2, tol=1e-11)
        primal = primal_value(a, b, c, 0.2, res.coupling)
        assert abs(primal - res.value) <= 1e-6 * (1 + abs(primal))

    def test_grid_cost_builds_no_entries(self):
        # a non-square grid with a scale, so a swapped axis factor shows
        rng = np.random.default_rng(15)
        a = random_histogram(rng, 20)
        b = random_histogram(rng, 20)
        gc = GridCost2D(4, 5, scale=0.7)
        res = sinkhorn(a, b, gc, 0.05)
        primal = primal_value(a, b, gc, 0.05, res.coupling)
        linear = transport_cost(res.coupling, gc)
        assert "entries" not in vars(gc)
        assert primal == pytest.approx(
            primal_value(a, b, gc.entries, 0.05, res.coupling), abs=1e-12)
        assert linear == pytest.approx(transport_cost(res.coupling, gc.entries), abs=1e-12)

    def test_infeasible_coupling_rejected(self):
        p = np.array([[0.6, 0.4]])
        with pytest.raises(FeasibilityError):
            primal_value([1.0], [0.5, 0.5], [[0.0, 1.0]], 0.1, np.array([[0.9, 0.1]]))
        del p


class TestEpsilonSandwich:
    def test_gap_between_zero_and_entropy_bound(self):
        rng = np.random.default_rng(15)
        n = 10
        a = random_histogram(rng, n)
        b = random_histogram(rng, n)
        c = rng.uniform(size=(n, n))
        lp = exact_ot(a, b, c).value
        tol = 1e-11
        for eps in (1e-1, 1e-2, 1e-3):
            res = sinkhorn(a, b, c, eps, tol=tol, max_iter=300000)
            gap = transport_cost(res.coupling, c) - lp
            assert gap >= -10 * tol * c.max()  # float allowance on an exact >= 0
            assert gap <= eps * (np.log(n * n) + 1)
