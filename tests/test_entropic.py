import numpy as np
import pytest

from smoothot import entropic
from smoothot.core import FeasibilityError, GridCost2D, IterationLimitError
from smoothot.entropic import (
    ctransform_of_f,
    ctransform_of_g,
    dual_value,
    primal_value,
    sinkhorn,
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

    def test_row_transform_mirrors_column_transform(self):
        rng = np.random.default_rng(4)
        c = rng.uniform(size=(5, 3))
        g = rng.normal(size=3)
        a = random_histogram(rng, 5)
        mirrored = ctransform_of_f(g, a, c.T, 0.7)
        assert np.allclose(ctransform_of_g(g, a, c, 0.7), mirrored)

    def test_sweep_contraction(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n, m = rng.integers(2, 8, size=2)
            c = rng.uniform(size=(n, m))
            a = random_histogram(rng, n)
            b = random_histogram(rng, m)
            f = rng.normal(size=n)
            g = ctransform_of_f(f, b, c, 0.4)
            f1 = ctransform_of_g(g, a, c, 0.4)
            g1 = ctransform_of_f(f1, b, c, 0.4)
            f2 = ctransform_of_g(g1, a, c, 0.4)
            assert np.abs(f2 - f1).max() < np.abs(f1 - f).max()

    def test_eps_zero_alternation_is_stationary(self):
        rng = np.random.default_rng(6)
        c = rng.uniform(size=(6, 6))
        a = random_histogram(rng, 6)
        b = random_histogram(rng, 6)
        f = rng.normal(size=6)
        g0 = ctransform_of_f(f, b, c, 0.0)
        f1 = ctransform_of_g(g0, a, c, 0.0)
        g1 = ctransform_of_f(f1, b, c, 0.0)
        f2 = ctransform_of_g(g1, a, c, 0.0)
        assert np.abs(g1 - g0).max() <= 1e-12
        assert np.abs(f2 - f1).max() <= 1e-12


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

    def test_grid_cost_path_matches_dense(self):
        rng = np.random.default_rng(12)
        gc = GridCost2D(4, 4)
        a = random_histogram(rng, 16)
        b = random_histogram(rng, 16)
        r1 = sinkhorn(a, b, gc, 0.05)
        r2 = sinkhorn(a, b, gc.entries, 0.05)
        assert np.allclose(r1.potentials.f, r2.potentials.f, atol=1e-12)
        assert r1.value == pytest.approx(r2.value, abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            sinkhorn([1.0], [1.0], [[0.0]], 0.0)
        with pytest.raises(ValueError):
            sinkhorn([1.0], [1.0], [[0.0]], 0.5, tol=0.0)

    def test_dense_sweep_makes_two_reductions(self, monkeypatch):
        rng = np.random.default_rng(14)
        a = random_histogram(rng, 10, floor=1e-3)
        b = random_histogram(rng, 10, floor=1e-3)
        c = rng.uniform(size=(10, 10))
        calls = []
        reduce = entropic.logsumexp

        def counted(*args, **kwargs):
            calls.append(1)
            return reduce(*args, **kwargs)

        monkeypatch.setattr(entropic, "logsumexp", counted)
        res = sinkhorn(a, b, c, 0.05, tol=1e-9)
        # one reduction before the first sweep, two per sweep, one in dual_value
        assert res.iterations > 10
        assert len(calls) <= 2 * res.iterations + 2
        assert res.coupling.row_residual == pytest.approx(res.row_residual, abs=1e-14)
        assert res.coupling.col_residual == pytest.approx(res.col_residual, abs=1e-14)

    def test_iteration_limit_carries_residual(self):
        rng = np.random.default_rng(13)
        a = random_histogram(rng, 8)
        b = random_histogram(rng, 8)
        c = rng.uniform(size=(8, 8))
        with pytest.raises(IterationLimitError) as info:
            sinkhorn(a, b, c, 0.01, tol=1e-14, max_iter=2)
        assert info.value.residual > 0
        assert info.value.iterations == 2


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
