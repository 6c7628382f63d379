import numpy as np
import pytest

from smoothot import entropic, flow as flow_module
from smoothot.core import CostMatrix, GridCost2D, IterationLimitError, grid_points_2d
from smoothot.entropic import sinkhorn
from smoothot.flow import FlowResult, jko_step, run_flow
from smoothot.regularized import graph_gradient, grid_gradient, make_regularizer


def chain_setup(n):
    pts = np.linspace(0.0, 1.0, n).reshape(-1, 1)
    cost = CostMatrix.squared_euclidean(pts).entries
    op = graph_gradient([(i, i + 1) for i in range(n - 1)], n)
    return cost, op


def two_cluster_1d(n):
    x = np.linspace(0.0, 1.0, n)
    v = np.exp(-((x - 0.25) ** 2) / 0.004) + np.exp(-((x - 0.75) ** 2) / 0.004) + 1e-4
    return v / v.sum()


class TestJKOStep:
    def test_single_step_equals_run_flow(self):
        n = 24
        cost, op = chain_setup(n)
        a0 = two_cluster_1d(n)
        reg = make_regularizer("tv_aniso", lam=0.5)
        direct = jko_step(a0, cost, 1.0 / n, 0.1, op, reg, tol=1e-9,
                          obj_tol=1e-12, max_iter=40000)
        flow = run_flow(a0, 1, cost, 1.0 / n, 0.1, op, reg, tol=1e-9,
                        obj_tol=1e-12, max_iter=40000)
        assert np.array_equal(direct.weights, flow.iterates[0].weights)

    def test_zero_energy_fixed_point_probe(self):
        # tau_flow = 0 minimizes the transport fidelity alone; iterating the
        # map stabilizes and successive outputs stop moving
        n = 20
        cost, op = chain_setup(n)
        reg = make_regularizer("tv_aniso", lam=1.0)  # ignored at tau_flow = 0
        a = two_cluster_1d(n)
        changes = []
        for _ in range(25):
            nxt = jko_step(a, cost, 0.08, 0.0, op, reg, tol=1e-10,
                           obj_tol=1e-13, max_iter=40000).weights
            changes.append(np.abs(nxt - a).sum())
            a = nxt
        assert changes[-1] <= 1e-5
        assert changes[-1] <= changes[0]

    def test_symmetry_preservation(self):
        # mirror-symmetric start, cost and graph; anisotropic TV is exactly
        # equivariant under the mirror, so the output keeps the symmetry
        n = 20
        cost, op = chain_setup(n)
        x = np.linspace(0.0, 1.0, n)
        v = np.exp(-((x - 0.3) ** 2) / 0.01) + np.exp(-((x - 0.7) ** 2) / 0.01) + 1e-3
        v = v + v[::-1]  # exactly palindromic in floating point
        a0 = v / v.sum()
        assert np.abs(a0 - a0[::-1]).max() == 0.0
        reg = make_regularizer("tv_aniso", lam=0.8)
        out = jko_step(a0, cost, 1.0 / n, 0.1, op, reg, tol=1e-9,
                       obj_tol=1e-12, max_iter=40000).weights
        assert np.abs(out - out[::-1]).max() <= 1e-8

    def test_descent_inequality(self):
        n = 24
        cost, op = chain_setup(n)
        a0 = two_cluster_1d(n)
        reg = make_regularizer("tv_aniso", lam=0.5)
        flow = run_flow(a0, 3, cost, 1.0 / n, 0.1, op, reg, tol=1e-9,
                        obj_tol=1e-11, max_iter=40000, sinkhorn_tol=1e-10)
        for record in flow.records:
            assert record["objective_new"] <= record["objective_prev"] + 1e-8

    def test_rejects_bad_inputs(self):
        n = 8
        cost, op = chain_setup(n)
        reg = make_regularizer("tv_aniso", lam=0.5)
        with pytest.raises(ValueError):
            jko_step(np.full(n, 1.0 / n), cost, 0.1, -0.1, op, reg)
        negative = np.full(n, 1.0 / n)
        negative[:2] = [-1.0 / n, 3.0 / n]
        with pytest.raises(ValueError):
            jko_step(negative, cost, 0.1, 0.1, op, reg)


class TestRunFlow:
    def test_mass_conservation_along_trajectory(self):
        n = 24
        cost, op = chain_setup(n)
        reg = make_regularizer("tv_aniso", lam=0.5)
        flow = run_flow(two_cluster_1d(n), 5, cost, 1.0 / n, 0.1, op, reg,
                        tol=1e-9, obj_tol=1e-11, max_iter=40000)
        assert isinstance(flow, FlowResult)
        assert len(flow.iterates) == 5
        for it in flow.iterates:
            assert abs(it.weights.sum() - 1.0) <= 1e-8
            assert np.all(it.weights >= 0)

    def test_tv_value_nonincreasing_over_ten_steps(self):
        n = 32
        cost, op = chain_setup(n)
        reg = make_regularizer("tv_aniso", lam=1.0)
        a0 = two_cluster_1d(n)
        flow = run_flow(a0, 10, cost, 1.0 / n, 0.1, op, reg, tol=1e-9,
                        obj_tol=1e-11, max_iter=60000)
        tvs = [reg.value(op.forward(a0))]
        tvs += [reg.value(op.forward(it.weights)) for it in flow.iterates]
        assert all(tvs[k + 1] <= tvs[k] + 1e-10 for k in range(10))

    def test_zero_bins_are_the_limit_of_positive_bins(self):
        # a zero bin is the delta -> 0 limit of a + delta [a = 0], renormalized
        n = 24
        cost, op = chain_setup(n)
        a0 = two_cluster_1d(n)
        a0[[0, 1, 11, 12, 23]] = 0.0
        a0 /= a0.sum()
        reg = make_regularizer("tv_aniso", lam=0.5)
        kw = dict(tol=1e-9, obj_tol=1e-12, max_iter=40000, sinkhorn_tol=1e-10)
        flow = run_flow(a0, 2, cost, 1.0 / n, 0.1, op, reg, **kw)
        for it, record in zip(flow.iterates, flow.records):
            assert abs(it.weights.sum() - 1.0) <= 1e-12 and np.all(it.weights >= 0)
            assert record["objective_new"] <= record["objective_prev"] + 1e-8
        gaps = []
        for delta in (1e-4, 1e-10):
            lifted = a0 + delta * (a0 == 0)
            near = run_flow(lifted / lifted.sum(), 2, cost, 1.0 / n, 0.1, op, reg, **kw)
            gaps.append(max(np.abs(x.weights - y.weights).sum()
                            for x, y in zip(flow.iterates, near.iterates)))
        assert gaps[1] <= 1e-6 < gaps[0]

    @pytest.mark.parametrize("case", ["grid", "chain", "asymmetric"])
    def test_records_equal_cold_sinkhorn(self, case):
        # steps 2 and 3 start from the previous step's dual state (x0)
        if case == "grid":
            h = w = 8
            pts = grid_points_2d(h, w)
            v = np.exp(-((pts - 0.35) ** 2).sum(axis=1) / 0.02) + 1e-3
            cost, op, a0 = GridCost2D(h, w), grid_gradient((h, w)), v / v.sum()
        else:
            n = 24
            cost, op = chain_setup(n)
            a0 = two_cluster_1d(n)
            if case == "asymmetric":  # no symmetric warm start: a cold solve
                cost = cost + 0.01 * np.triu(np.ones((n, n)), 1)
        eps = 1.0 / a0.size
        reg = make_regularizer("tv_iso" if case == "grid" else "tv_aniso", lam=0.5)
        flow = run_flow(a0, 3, cost, eps, 0.1, op, reg, tol=1e-9, obj_tol=1e-11,
                        max_iter=40000, sinkhorn_tol=1e-10)
        energy = reg.scaled(0.1).value
        prev = a0
        for it, record in zip(flow.iterates, flow.records):
            new = it.weights
            cold_new = sinkhorn(new, prev, cost, eps, tol=1e-10).value
            cold_prev = sinkhorn(prev, prev, cost, eps, tol=1e-10).value
            assert abs(record["objective_new"] - cold_new - energy(op.forward(new))) <= 1e-12
            assert abs(record["objective_prev"] - cold_prev - energy(op.forward(prev))) <= 1e-12
            sweeps_new, sweeps_prev = record["record_sweeps"]
            assert sweeps_new <= 2
            assert sweeps_prev <= 2 or case == "asymmetric"
            prev = new

    def test_one_record_per_step(self):
        n = 24
        cost, op = chain_setup(n)
        reg = make_regularizer("tv_aniso", lam=0.5)
        flow = run_flow(two_cluster_1d(n), 3, cost, 1.0 / n, 0.1, op, reg)
        assert len(flow.iterates) == len(flow.records) == 3
        for record in flow.records:
            assert set(record) == {"objective_new", "objective_prev",
                                   "solver_iterations", "record_sweeps"}

    def test_requires_at_least_one_step(self):
        n = 8
        cost, op = chain_setup(n)
        with pytest.raises(ValueError):
            run_flow(np.full(n, 1.0 / n), 0, cost, 0.1, 0.1, op,
                     make_regularizer("tv_aniso", lam=0.5))

    def test_iteration_limit_carries_the_steps_so_far(self):
        # plain FB takes ~220 iterations on step 1 and ~620 on step 2 here,
        # so a budget of 300 completes one step and stops in the next
        n = 24
        cost, op = chain_setup(n)
        a0 = two_cluster_1d(n)
        reg = make_regularizer("tv_aniso", lam=0.5)
        kw = dict(tol=1e-9, obj_tol=None, accel=False, max_iter=300)
        with pytest.raises(IterationLimitError) as info:
            run_flow(a0, 3, cost, 1.0 / n, 0.1, op, reg, **kw)
        best = info.value.best
        assert isinstance(best, FlowResult)
        assert len(best.iterates) == 2 and len(best.records) == 1
        first = run_flow(a0, 1, cost, 1.0 / n, 0.1, op, reg, **kw)
        assert np.array_equal(best.iterates[0].weights, first.iterates[0].weights)
        assert best.records == first.records
        assert abs(best.iterates[1].weights.sum() - 1.0) <= 1e-12

    def test_record_failure_carries_the_steps_so_far(self, monkeypatch):
        # on a non-symmetric cost the record of W(a_1, a_1) starts cold; from
        # the third Sinkhorn call on (step 2's records) the budget is one sweep
        n = 24
        cost, op = chain_setup(n)
        d = np.subtract.outer(np.linspace(0.0, 1.0, n), np.linspace(0.0, 1.0, n))
        cost = cost + 0.3 * np.abs(d) * (d > 0)
        a0 = two_cluster_1d(n)
        reg = make_regularizer("tv_aniso", lam=0.5)
        kw = dict(tol=1e-9, obj_tol=1e-12, max_iter=40000)
        full = run_flow(a0, 2, cost, 1.0 / n, 0.1, op, reg, **kw)
        calls = []

        def short_sinkhorn(*args, **kwargs):
            calls.append(None)
            budget = entropic.DEFAULT_MAX_ITER if len(calls) <= 2 else 1
            return entropic.sinkhorn(*args, max_iter=budget, **kwargs)

        monkeypatch.setattr(flow_module, "sinkhorn", short_sinkhorn)
        with pytest.raises(IterationLimitError) as info:
            run_flow(a0, 3, cost, 1.0 / n, 0.1, op, reg, **kw)
        assert info.value.iterations == 1
        best = info.value.best
        assert isinstance(best, FlowResult)
        assert len(best.iterates) == len(best.records) + 1 == 2
        assert best.records == full.records[:1]
        for mine, ref in zip(best.iterates, full.iterates):
            assert np.array_equal(mine.weights, ref.weights)
