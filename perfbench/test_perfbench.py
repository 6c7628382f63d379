"""Tests of the benchmark itself: every gate rejects a wrong result, tracing
computes self time and reports missing wrap targets, and the harness refuses
to run without the package source.

Run from the repository root: python3 -m pytest perfbench/test_perfbench.py
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import gates  # noqa: E402
import tracing  # noqa: E402
from smoothot import core, entropic, lp_oracle, semidiscrete  # noqa: E402


def simplex(rng, n):
    v = rng.uniform(0.1, 1.0, size=n)
    return v / v.sum()


@pytest.fixture
def solved_sinkhorn():
    rng = np.random.default_rng(7)
    a, b = simplex(rng, 6), simplex(rng, 6)
    cost = rng.uniform(size=(6, 6))
    res = entropic.sinkhorn(a, b, cost, 0.05, tol=1e-9)
    return a, b, cost, res


def sinkhorn_gate(a, b, cost, plan, f, g, value):
    gates.check_sinkhorn(a, b, cost, 0.05, 1e-9, plan, f, g, value)


class TestSinkhornGate:
    def test_accepts_solver_output(self, solved_sinkhorn):
        a, b, cost, res = solved_sinkhorn
        sinkhorn_gate(a, b, cost, res.coupling.matrix, res.potentials.f,
                      res.potentials.g, res.value)

    def test_rejects_perturbed_potential(self, solved_sinkhorn):
        a, b, cost, res = solved_sinkhorn
        f = res.potentials.f.copy()
        f[2] += 1e-4
        with pytest.raises(gates.GateError):
            sinkhorn_gate(a, b, cost, res.coupling.matrix, f, res.potentials.g, res.value)

    def test_rejects_plan_off_its_marginals(self, solved_sinkhorn):
        a, b, cost, res = solved_sinkhorn
        plan = res.coupling.matrix.copy()
        plan[0, 0] += 1e-6
        with pytest.raises(gates.GateError, match="marginal"):
            sinkhorn_gate(a, b, cost, plan, res.potentials.f, res.potentials.g, res.value)

    def test_rejects_wrong_value(self, solved_sinkhorn):
        a, b, cost, res = solved_sinkhorn
        with pytest.raises(gates.GateError, match="reported value"):
            sinkhorn_gate(a, b, cost, res.coupling.matrix, res.potentials.f,
                          res.potentials.g, res.value + 1e-6)


class TestBarycenterGate:
    grid = np.linspace(-6.0, 6.0, 100)
    target = np.sqrt(5.0 / 8.0)

    def gaussian(self, mu):
        v = np.exp(-((self.grid - mu) ** 2) / (2 * self.target ** 2))
        return v / v.sum()

    def test_accepts_the_target_moments(self):
        gates.check_gaussian_barycenter(self.grid, self.gaussian(0.0), 0.0, self.target)

    def test_rejects_shifted_barycenter(self):
        shifted = np.roll(self.gaussian(0.0), 1)  # one bin is 0.12 > 0.1
        with pytest.raises(gates.GateError, match="mean"):
            gates.check_gaussian_barycenter(self.grid, shifted, 0.0, self.target)

    def test_rejects_wrong_spread(self):
        with pytest.raises(gates.GateError, match="std"):
            gates.check_gaussian_barycenter(self.grid, self.gaussian(0.0), 0.0, 0.7)


class TestFlowGate:
    rows = np.full((3, 4), 0.25)
    summary = {"records": [{"objective_new": 0.1, "objective_prev": 0.3},
                           {"objective_new": 0.0, "objective_prev": 0.1},
                           {"objective_new": -0.05, "objective_prev": 0.0}]}

    def test_accepts_descending_flow(self):
        gates.check_flow(0, self.summary, self.rows, 3, 4)

    def test_rejects_descent_violation(self):
        bad = json.loads(json.dumps(self.summary))
        bad["records"][1]["objective_new"] = 0.1 + 1e-5
        with pytest.raises(gates.GateError, match="objective rose"):
            gates.check_flow(0, bad, self.rows, 3, 4)

    def test_rejects_rows_off_the_simplex(self):
        rows = self.rows.copy()
        rows[2, 0] += 1e-6
        with pytest.raises(gates.GateError, match="mass"):
            gates.check_flow(0, self.summary, rows, 3, 4)

    def test_rejects_nonzero_exit(self):
        with pytest.raises(gates.GateError, match="exited"):
            gates.check_flow(3, self.summary, self.rows, 3, 4)


def test_semidiscrete_gate_accepts_solution_and_rejects_perturbation():
    rng = np.random.default_rng(3)
    points = rng.uniform(size=(200, 2))
    weights = np.full(200, 1 / 200)
    sites = rng.uniform(size=(4, 2))
    masses = simplex(rng, 4)
    g = semidiscrete.solve_semidiscrete(
        semidiscrete.SampledMeasure(points, weights),
        semidiscrete.DiscreteTarget(sites, masses), 0.1, tol=1e-9)
    gates.check_semidiscrete(points, weights, sites, masses, 0.1, g, 1e-9)
    g = g.copy()
    g[1] += 1e-6
    with pytest.raises(gates.GateError, match="gradient"):
        gates.check_semidiscrete(points, weights, sites, masses, 0.1, g, 1e-9)


def test_exact_ot_gate_matches_highs_and_rejects_wrong_value():
    rng = np.random.default_rng(4)
    a, b = simplex(rng, 8), simplex(rng, 8)
    cost = rng.uniform(size=(8, 8))
    res = lp_oracle.exact_ot(a, b, cost)
    reference = gates.transport_lp_value(a, b, cost)
    gates.check_exact_ot(a, b, cost, res.coupling, res.value, reference)
    with pytest.raises(gates.GateError, match="HiGHS"):
        gates.check_exact_ot(a, b, cost, res.coupling, res.value, reference + 1e-6)
    with pytest.raises(gates.GateError, match="cost of the returned plan"):
        gates.check_exact_ot(a, b, cost, res.coupling, res.value + 1e-6, reference)


class TestTracing:
    def test_self_time_subtracts_direct_children(self):
        spans = [["outer", 0.0, 10.0, -1, None], ["inner", 1.0, 4.0, 0, None],
                 ["leaf", 2.0, 3.0, 1, None], ["inner", 5.0, 6.0, 0, None]]
        stats, direct = tracing.summarize(spans)
        assert stats["outer"]["self"] == pytest.approx(6.0)
        assert stats["inner"]["self"] == pytest.approx(3.0)
        assert stats["inner"]["total"] == pytest.approx(4.0)
        assert direct[("outer", "inner")] == 2
        assert tracing.count_under(spans, "outer", "leaf") == 1

    def test_install_records_and_uninstall_restores(self):
        original = entropic.grid_kernel_apply
        tracer = tracing.Tracer()
        tracer.install()
        try:
            assert entropic.grid_kernel_apply is not original
            cost = core.GridCost2D(4, 4)
            a = np.full(16, 1 / 16)
            res = entropic.sinkhorn(a, a, cost, 0.5, tol=1e-9)
        finally:
            tracer.uninstall()
        assert entropic.grid_kernel_apply is original
        assert tracer.unresolved == []
        metrics = tracing.layer_metrics(tracer.spans, [], 1, tracer.unresolved)
        assert metrics["entropic.sinkhorn.sweeps"][0] == res.iterations
        assert metrics["entropic.applies_per_sweep"][0] == 3.0
        assert metrics["core.gridcost.bytes_computed"][0] == 16 * 16 * 8
        assert metrics["lp_oracle.pivots"] == (0.0, "count")

    def test_sweep_time_runs_from_first_to_last_kernel_apply(self):
        spans = [["entropic.sinkhorn", 0.0, 10.0, -1, (2, 0)],
                 ["core.lse", 2.0, 3.0, 0, None], ["core.lse", 4.0, 5.0, 0, None],
                 ["core.lse", 6.0, 7.0, 0, None], ["entropic.dual_value", 8.0, 9.5, 0, None],
                 ["core.lse", 8.5, 9.0, 4, None]]
        metrics = tracing.layer_metrics(spans, [], 1, [])
        assert metrics["entropic.sinkhorn.sweep_us"][0] == pytest.approx(1e6 * 5.0 / 2)
        assert metrics["entropic.applies_per_sweep"][0] == 1.5

    def test_cli_startup_ends_at_main_entry_not_child_exit(self):
        # a long span dump after cli.main returns must not count as startup
        spans = [["cli.main", 5.0, 9.0, -1, None], ["cli.main", 25.0, 29.0, -1, None]]
        metrics = tracing.layer_metrics(spans, [], 2, [], [4.5, 24.7])
        assert metrics["cli.startup_s"][0] == pytest.approx(0.4)

    def test_perf_counter_compares_across_processes(self):
        before = time.perf_counter()
        out = subprocess.run([sys.executable, "-c", "import time; print(time.perf_counter())"],
                             capture_output=True, text=True, check=True, timeout=60)
        after = time.perf_counter()
        assert before <= float(out.stdout) <= after

    def test_unresolved_target_is_named_and_its_layer_left_out(self):
        targets = tracing.TARGETS + (
            ("lp_oracle.exact_ot", "smoothot.lp_oracle.no_such_function", None),)
        tracer = tracing.Tracer()
        tracer.install(targets)
        tracer.uninstall()
        assert tracer.unresolved == [["lp_oracle.exact_ot",
                                      "smoothot.lp_oracle.no_such_function"]]
        metrics = tracing.layer_metrics([], [], 1, tracer.unresolved)
        assert not any(name.startswith("lp_oracle.") for name in metrics)
        assert "core.lse.calls" in metrics


def test_harness_fails_without_package_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid64", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
