import warnings

import numpy as np
import pytest

from smoothot import core
from smoothot.core import (
    Coupling,
    CostMatrix,
    FeasibilityError,
    GridCost2D,
    Histogram,
    Potentials,
    entropy,
    grid_kernel_apply,
    grid_points_2d,
    kl_divergence,
    logsumexp,
    rescale_median,
    softmin,
)

# frozen 50-digit evaluations of the defining formulas (mpmath)
SOFTMIN_01_EPS1 = -0.3132616875182228
ENTROPY_HALF_HALF = 1.6931471805599453
LOG2 = 0.6931471805599453

# log-sum-exp of LSE_MATRIX, whose entries spread past +-745 so that a naive
# exp overflows or underflows, and of the (2, 3, 3) stack [M, M.T - 3]
LSE_MATRIX = [[800.0, 799.0, -800.0], [801.0, -801.5, -802.0], [-1000.0, -800.5, -801.0]]
LSE_ALL = 801.4076059644444
LSE_AXIS0 = [801.3132616875182, 799.0, -799.5923940355556]
LSE_AXIS1 = [800.3132616875182, 801.0, -800.0259230158199]
LSE_STACK_AXIS1 = [[801.3132616875182, 799.0, -799.5923940355556],
                   [797.3132616875182, 798.0, -803.0259230158199]]
LSE_STACK_AXIS2 = [[800.3132616875182, 801.0, -800.0259230158199],
                   [798.3132616875182, 796.0, -802.5923940355556]]


class TestSoftmin:
    def test_eps_zero_is_min(self):
        assert softmin([3.0, 1.0, 2.0], 0.0) == 1.0

    def test_constant_vector_identity(self):
        n, c, eps = 7, 2.5, 0.3
        assert softmin(np.full(n, c), eps) == pytest.approx(c - eps * np.log(n), abs=1e-14)

    def test_frozen_value(self):
        assert softmin([0.0, 1.0], 1.0) == pytest.approx(SOFTMIN_01_EPS1, abs=1e-15)

    def test_monotone_in_eps_and_bracketing(self):
        rng = np.random.default_rng(0)
        for _ in range(120):
            u = rng.normal(scale=3.0, size=rng.integers(1, 12))
            e1, e2 = sorted(rng.uniform(0.01, 2.0, size=2))
            lo, hi = softmin(u, e2), softmin(u, e1)
            assert lo <= hi <= u.min() + 1e-15
            assert lo >= u.min() - e2 * np.log(u.size) - 1e-12

    def test_shift_equivariance(self):
        rng = np.random.default_rng(1)
        for _ in range(120):
            u = rng.normal(size=rng.integers(1, 10))
            c = rng.normal(scale=5.0)
            eps = rng.uniform(0.0, 1.5)
            assert softmin(u + c, eps) == pytest.approx(softmin(u, eps) + c, abs=1e-10)

    def test_no_overflow_at_tiny_eps(self):
        u = np.array([0.0, 1.0, 2.0])
        assert softmin(u, 1e-9) == pytest.approx(0.0, abs=1e-12)

    def test_errors(self):
        with pytest.raises(ValueError):
            softmin([], 1.0)
        with pytest.raises(ValueError):
            softmin([np.inf, 1.0], 1.0)
        with pytest.raises(ValueError):
            softmin([1.0], -0.1)


class TestLogsumexp:
    def test_matrix_axes_match_frozen_sums(self):
        m = np.array(LSE_MATRIX)
        assert logsumexp(m) == pytest.approx(LSE_ALL, rel=1e-15)
        assert logsumexp(m, axis=0) == pytest.approx(LSE_AXIS0, rel=1e-15)
        assert logsumexp(m, axis=1) == pytest.approx(LSE_AXIS1, rel=1e-15)

    def test_batched_axes_match_frozen_sums(self):
        m = np.array(LSE_MATRIX)
        stack = np.stack([m, m.T - 3.0])
        assert logsumexp(stack, axis=1) == pytest.approx(np.array(LSE_STACK_AXIS1), rel=1e-15)
        assert logsumexp(stack, axis=2) == pytest.approx(np.array(LSE_STACK_AXIS2), rel=1e-15)

    def test_all_negative_infinite_slice(self):
        m = np.array([[-np.inf, -np.inf], [0.0, -np.inf]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = logsumexp(m, axis=1)
            whole = logsumexp(np.full(3, -np.inf))
        assert rows[0] == -np.inf and rows[1] == 0.0
        assert whole == -np.inf
        assert not np.any(np.isnan(rows))

    def test_positive_infinite_entry(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert logsumexp([1.0, np.inf, -2.0]) == np.inf


class TestEntropy:
    def test_single_cell(self):
        assert entropy([[1.0]]) == pytest.approx(1.0, abs=1e-15)

    def test_zero_matrix(self):
        assert entropy(np.zeros((2, 3))) == 0.0

    def test_half_half(self):
        assert entropy([[0.5, 0.5]]) == pytest.approx(ENTROPY_HALF_HALF, abs=1e-14)

    def test_negative_entry_sentinel(self):
        assert entropy([[0.5, -0.1]]) == -np.inf

    def test_strict_concavity_midpoint(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            p = rng.uniform(0.05, 1.0, size=(3, 4))
            q = rng.uniform(0.05, 1.0, size=(3, 4))
            mid = entropy(0.5 * (p + q))
            avg = 0.5 * (entropy(p) + entropy(q))
            assert mid >= avg
            if np.abs(p - q).max() > 1e-3:
                assert mid > avg


class TestKLDivergence:
    def test_equal_arguments(self):
        p = np.array([[0.3, 0.7]])
        assert kl_divergence(p, p) == 0.0

    def test_frozen_value(self):
        assert kl_divergence([[1.0, 0.0]], [[0.5, 0.5]]) == pytest.approx(LOG2, abs=1e-14)

    def test_mass_only(self):
        assert kl_divergence([[0.0, 0.0]], [[0.5, 0.5]]) == 1.0

    def test_infinite_sentinel(self):
        assert kl_divergence([[0.5, 0.5]], [[1.0, 0.0]]) == np.inf

    def test_nonnegative_zero_iff_equal(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            p = rng.uniform(0.01, 1.0, size=(2, 3))
            q = rng.uniform(0.01, 1.0, size=(2, 3))
            assert kl_divergence(p, q) >= 0.0
            assert kl_divergence(p, p) <= 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            kl_divergence(np.ones((2, 2)), np.ones((2, 3)))


class TestHistogram:
    def test_strict_mode_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            Histogram([0.5, 0.6])

    def test_normalize_on_load(self):
        h = Histogram([2.0, 6.0], normalize=True)
        assert np.allclose(h.weights, [0.25, 0.75])
        assert abs(h.weights.sum() - 1.0) <= 1e-10

    def test_rejects_negative_and_zero_mass(self):
        with pytest.raises(ValueError):
            Histogram([-0.1, 1.1])
        with pytest.raises(ValueError):
            Histogram([0.0, 0.0], normalize=True)

    def test_weights_are_read_only(self):
        h = Histogram([0.5, 0.5])
        with pytest.raises(ValueError):
            h.weights[0] = 1.0


class TestCostMatrix:
    def test_squared_euclidean_symmetric_zero_diag(self):
        pts = np.array([[0.0], [1.0], [3.0]])
        c = CostMatrix.squared_euclidean(pts)
        assert np.allclose(c.entries, c.entries.T)
        assert np.all(np.diag(c.entries) == 0.0)
        assert c.entries[0, 2] == pytest.approx(9.0)

    def test_rejects_negative_and_nonfinite(self):
        with pytest.raises(ValueError):
            CostMatrix([[-1.0]])
        with pytest.raises(ValueError):
            CostMatrix([[np.nan]])

    def test_rescale_median(self):
        c = rescale_median([[2.0, 4.0], [8.0, 4.0]])
        assert np.median(c) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            rescale_median(np.zeros((2, 2)))


class TestGridCost2D:
    def test_matches_dense_construction(self):
        gc = GridCost2D(3, 5)
        dense = CostMatrix.squared_euclidean(grid_points_2d(3, 5))
        assert np.allclose(gc.entries, dense.entries, atol=1e-15)

    def test_median_rescaled(self):
        gc = GridCost2D(4, 4).median_rescaled()
        assert np.median(gc.entries) == pytest.approx(1.0)
        assert gc.grid_shape == (4, 4)

    def test_rescale_median_keeps_the_grid(self):
        gc = rescale_median(GridCost2D(6, 5, 0.37))
        assert isinstance(gc, GridCost2D) and gc.grid_shape == (6, 5)
        assert gc.median() == pytest.approx(1.0, abs=1e-15)
        assert "entries" not in vars(gc)

    @pytest.mark.parametrize("h, w", [(2, 3), (4, 4), (7, 5), (24, 24), (1, 9), (32, 17)])
    def test_median_without_entries(self, h, w):
        for scale in (1.0, 0.37):
            gc = GridCost2D(h, w, scale)
            med = gc.median()
            assert "entries" not in vars(gc)
            ref = np.median(gc.entries)
            assert abs(med - ref) <= np.spacing(ref)

    def test_entries_built_on_first_access_only(self):
        gc = GridCost2D(3, 5)
        assert gc.shape == (15, 15)
        assert repr(gc) == "GridCost2D(h=3, w=5, scale=1.0)"
        assert gc == GridCost2D(3, 5) and gc != GridCost2D(3, 5, 2.0)
        assert "entries" not in vars(gc)
        assert gc.entries is gc.entries
        assert not gc.entries.flags.writeable


def dense_kernel_apply(x, cost, epsilon):
    """The reference: one dense log-sum-exp over the materialized grid cost."""
    return logsumexp(x[None, :] - cost.entries / epsilon, axis=1)


def peaked_logvals(h, w, epsilon, centre):
    """Log of a bump narrow enough that far outputs underflow at small epsilon."""
    pts = grid_points_2d(h, w)
    return -10.0 * ((pts - pts[centre]) ** 2).sum(axis=1) / epsilon


# The outputs are logs of kernel sums: an absolute error of 1e-12 is a relative
# error of 1e-12 in the sum, which is what bounds outputs near 0.
KERNEL_TOL = dict(rtol=1e-12, atol=1e-12)


class TestGridKernelApply:
    @pytest.mark.parametrize("shape", [(5, 7), (16, 16), (32, 32)])
    @pytest.mark.parametrize("epsilon", [1.0, 0.05, 1 / 1024])
    def test_matches_dense_log_sum_exp(self, shape, epsilon):
        h, w = shape
        cost = GridCost2D(h, w)
        rng = np.random.default_rng(h * w)
        peak = peaked_logvals(h, w, epsilon, rng.integers(h * w))
        for x in (rng.normal(scale=3.0, size=h * w), peak):
            got = grid_kernel_apply(x, cost, epsilon)
            assert got.shape == (h, w)
            np.testing.assert_allclose(got.ravel(), dense_kernel_apply(x, cost, epsilon),
                                       **KERNEL_TOL)

    def test_only_underflowing_sums_take_the_fallback(self, monkeypatch):
        cost = GridCost2D(32, 32)
        rng = np.random.default_rng(7)
        rand = rng.normal(scale=3.0, size=32 * 32)
        peak = peaked_logvals(32, 32, 1 / 1024, 0)  # centred on a corner pixel
        refs = [dense_kernel_apply(x, cost, 1 / 1024) for x in (rand, peak)]
        calls = []

        def counted(a, axis=None):
            calls.append(np.shape(a))
            return logsumexp(a, axis=axis)

        monkeypatch.setattr(core, "logsumexp", counted)
        got = grid_kernel_apply(rand, cost, 1 / 1024)
        assert calls == []  # no shifted sum underflows
        np.testing.assert_allclose(got.ravel(), refs[0], **KERNEL_TOL)
        # exp(-row_sq / eps) underflows for rows more than ~0.85 apart, so the
        # shifted sums of outputs far from the corner lose every term
        assert np.exp(-cost.row_sq * 1024).min() == 0.0
        got = grid_kernel_apply(peak, cost, 1 / 1024)
        assert len(calls) >= 1
        assert np.all(np.isfinite(got))
        np.testing.assert_allclose(got.ravel(), refs[1], **KERNEL_TOL)

    @pytest.mark.parametrize("epsilon", [0.05, 1 / 1024])
    @pytest.mark.parametrize("case", ["row", "column", "one_pixel", "empty"])
    def test_log_zero_bins(self, case, epsilon):
        h, w = 5, 7
        cost = GridCost2D(h, w)
        x = np.random.default_rng(3).normal(size=(h, w))
        if case == "row":
            x[2] = -np.inf
        elif case == "column":
            x[:, 3] = -np.inf
        else:
            x[:] = -np.inf
            if case == "one_pixel":
                x[1, 4] = 0.3
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = grid_kernel_apply(x.ravel(), cost, epsilon).ravel()
            ref = dense_kernel_apply(x.ravel(), cost, epsilon)
        assert not np.any(np.isnan(got))
        np.testing.assert_allclose(got, ref, **KERNEL_TOL)


def uncached_grid_kernel_apply(logvals, cost, epsilon):
    """`grid_kernel_apply` with both kernel factors exponentiated on every call."""
    h, w = cost.grid_shape
    x = np.asarray(logvals, dtype=float).reshape(h, w)
    for sq in (cost.row_sq, cost.col_sq):
        kern = -sq / epsilon
        m = x.max(axis=0)
        m[~np.isfinite(m)] = 0.0
        s = np.exp(kern).T @ np.exp(x - m)
        low = s < 1e-250
        s[low] = 1.0
        out = np.log(s) + m
        j, c = np.nonzero(low)
        if j.size:
            out[j, c] = logsumexp(x[:, c] + kern[:, j], axis=0)
        x = out.T
    return x


class TestGridKernelFactors:
    @pytest.mark.parametrize("side", [24, 64])
    def test_cached_factors_change_no_bit(self, side):
        cost = GridCost2D(side, side)
        rng = np.random.default_rng(side)
        peak = peaked_logvals(side, side, 1 / 576, rng.integers(side * side))
        # a wide bump with noise and a narrow one, both with zero bins, an
        # empty grid row and an empty grid column, whose sums take the exact
        # fallback
        inputs = [peak / 50 + rng.normal(size=peak.size), peak]
        for x in inputs:
            x[rng.choice(x.size, size=x.size // 10, replace=False)] = -np.inf
            x.reshape(side, side)[0] = -np.inf
            x.reshape(side, side)[:, 3] = -np.inf
        # the stacks of the inputs, N = 2 and 3, each image's result that of
        # its own apply
        stacks = [np.stack(inputs), np.stack(inputs[::-1] + inputs[:1])]
        # the second call at each epsilon reads the cached factors; the third
        # epsilon's call replaces the slot
        for epsilon in (1 / 576, 1 / 576, 0.002, 0.002, 1 / 576):
            for x in inputs + stacks:
                got = grid_kernel_apply(x, cost, epsilon)
                assert got.shape == x.shape[:-1] + (side, side)
                for image, logvals in zip(got.reshape(-1, side, side), x.reshape(-1, x.shape[-1])):
                    assert np.array_equal(image,
                                          uncached_grid_kernel_apply(logvals, cost, epsilon))
        # one image may also come as (h, w); a vector of two images' values
        # is rejected, not read as a stack
        assert np.array_equal(grid_kernel_apply(inputs[0].reshape(side, side), cost, epsilon),
                              grid_kernel_apply(inputs[0], cost, epsilon))
        with pytest.raises(ValueError):
            grid_kernel_apply(stacks[0].ravel(), cost, epsilon)
        assert "entries" not in vars(cost)


class TestCoupling:
    def test_gibbs_plan_built_on_first_access(self):
        rng = np.random.default_rng(3)
        eps = 0.1
        for cost in (GridCost2D(3, 4), CostMatrix(rng.uniform(size=(12, 12)))):
            f = rng.normal(size=12)
            g = rng.normal(size=12)
            f[5] = -np.inf  # a zero row
            dense = np.exp((f[:, None] + g[None, :] - cost.entries) / eps)
            g -= eps * np.log(dense.sum())  # unit mass
            plan = np.exp((f[:, None] + g[None, :] - cost.entries) / eps)
            a, b = plan.sum(axis=1), plan.sum(axis=0)
            a, b = a / a.sum(), b / b.sum()
            c = Coupling.gibbs(f, g, cost if isinstance(cost, GridCost2D) else cost.entries,
                               eps, a, b)
            np.testing.assert_allclose(c.matrix, plan, rtol=1e-12, atol=0)
            assert np.all(c.matrix[5] == 0.0) and not c.matrix.flags.writeable
            assert c.row_residual <= 1e-12 and c.col_residual <= 1e-12

    def test_gibbs_checks_run_on_first_access(self):
        heavy = Coupling.gibbs(np.zeros(2), np.zeros(2), np.zeros((2, 2)), 1.0,
                               [0.5, 0.5], [0.5, 0.5])  # mass 4
        with pytest.raises(FeasibilityError):
            heavy.matrix

    def test_residuals(self):
        p = np.array([[0.5, 0.0], [0.0, 0.5]])
        c = Coupling(p, [0.5, 0.5], [0.5, 0.5])
        assert c.row_residual == 0.0 and c.col_residual == 0.0

    def test_mass_and_sign_checks(self):
        with pytest.raises(FeasibilityError):
            Coupling([[0.5, 0.1]], [1.0], [0.5, 0.5])
        with pytest.raises(FeasibilityError):
            Coupling([[1.5, -0.5]], [1.0], [0.5, 0.5])


class TestPotentials:
    def test_requires_finite(self):
        with pytest.raises(ValueError):
            Potentials([np.inf], [0.0])
        p = Potentials([1.0, -2.0], [0.5])
        assert p.f.size == 2 and p.g.size == 1
