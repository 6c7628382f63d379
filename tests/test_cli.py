import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import smoothot
from smoothot import cli, entropic, fileio, flow, regularized
from smoothot.barycenter import BarycenterProblem, solve_barycenter
from smoothot.core import (CostMatrix, GridCost2D, IterationLimitError, grid_points_1d,
                           rescale_median)
from smoothot.entropic import dual_value, sinkhorn
from smoothot.cli import main
from smoothot.semidiscrete import DiscreteTarget, SampledMeasure, semidiscrete_objective_grad


def write_vec(path, values):
    fileio.write_vector(path, values)
    return str(path)


def run(argv):
    return main([str(a) for a in argv])


class TestFileFormats:
    def test_vector_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(110)
        for k in range(100):
            values = rng.normal(scale=10.0 ** rng.integers(-8, 8), size=rng.integers(1, 20))
            path = tmp_path / f"v{k}.txt"
            fileio.write_vector(path, values)
            again = fileio.read_vector(path)
            assert np.array_equal(values, again)
            fileio.write_vector(tmp_path / "w.txt", again)
            assert (tmp_path / "w.txt").read_text() == path.read_text()

    def test_matrix_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(111)
        for k in range(100):
            m = rng.normal(size=(rng.integers(1, 6), rng.integers(1, 6)))
            path = tmp_path / f"m{k}.csv"
            fileio.write_matrix(path, m)
            again = fileio.read_matrix(path)
            assert np.array_equal(m, again)

    def test_vector_comments_and_errors(self, tmp_path):
        path = tmp_path / "h.txt"
        path.write_text("# header\n0.25\n 0.75  # inline\n\n")
        assert np.array_equal(fileio.read_vector(path), [0.25, 0.75])
        bad = tmp_path / "bad.txt"
        bad.write_text("0.25\nnope\n")
        with pytest.raises(ValueError):
            fileio.read_vector(bad)

    def test_pgm_round_trip_idempotent(self, tmp_path):
        rng = np.random.default_rng(112)
        img = rng.uniform(size=(5, 7))
        first = tmp_path / "a.pgm"
        fileio.write_pgm(first, img)
        loaded, shape = fileio.read_pgm(first)
        assert shape == (5, 7)
        assert abs(loaded.sum() - 1.0) <= 1e-12
        second = tmp_path / "b.pgm"
        fileio.write_pgm(second, loaded)
        assert first.read_text() == second.read_text()

    def test_pgm_rejects_malformed(self, tmp_path):
        bad = tmp_path / "bad.pgm"
        bad.write_text("P5\n2 2\n255\n0 0 0 0\n")
        with pytest.raises(ValueError):
            fileio.read_pgm(bad)


class TestDistanceCommand:
    def test_trivial_instance_value(self, tmp_path, capsys):
        a = write_vec(tmp_path / "a.txt", [1.0])
        b = write_vec(tmp_path / "b.txt", [1.0])
        c = tmp_path / "c.csv"
        fileio.write_matrix(c, [[0.0]])
        out = tmp_path / "out.json"
        code = run(["distance", "--a", a, "--b", b, "--cost", c,
                    "--epsilon", "0.25", "--out", out])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["value"] == pytest.approx(-0.25, abs=1e-12)

    def test_lp_route_at_epsilon_zero(self, tmp_path):
        a = write_vec(tmp_path / "a.txt", [0.5, 0.5])
        b = write_vec(tmp_path / "b.txt", [0.25, 0.75])
        c = tmp_path / "c.csv"
        fileio.write_matrix(c, [[0.0, 1.0], [1.0, 0.0]])
        out = tmp_path / "out.json"
        code = run(["distance", "--a", a, "--b", b, "--cost", c,
                    "--epsilon", "0", "--out", out])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["value"] == pytest.approx(0.25, abs=1e-12)
        assert payload["dual_value"] == pytest.approx(0.25, abs=1e-9)
        assert isinstance(payload["wall_time"], float) and payload["wall_time"] >= 0

    def test_huge_epsilon_product_coupling(self, tmp_path):
        rng = np.random.default_rng(113)
        a_vals = rng.dirichlet(np.ones(4))
        b_vals = rng.dirichlet(np.ones(3))
        a = write_vec(tmp_path / "a.txt", a_vals)
        b = write_vec(tmp_path / "b.txt", b_vals)
        c = tmp_path / "c.csv"
        fileio.write_matrix(c, rng.uniform(size=(4, 3)))
        dump = tmp_path / "plan.csv"
        code = run(["distance", "--a", a, "--b", b, "--cost", c,
                    "--epsilon", "1e6", "--dump-coupling", dump,
                    "--out", tmp_path / "o.json"])
        assert code == 0
        plan = fileio.read_matrix(dump)
        assert np.abs(plan - np.outer(a_vals, b_vals)).max() <= 1e-6

    def test_zero_bins_dual_value_equals_primal(self, tmp_path):
        a = write_vec(tmp_path / "a.txt", [0.3, 0.0, 0.7])
        b = write_vec(tmp_path / "b.txt", [0.5, 0.5, 0.0, 0.0])
        c = tmp_path / "c.csv"
        fileio.write_matrix(c, np.random.default_rng(0).uniform(size=(3, 4)))
        for eps in ("0.5", "0.05"):
            out = tmp_path / "o.json"
            code = run(["distance", "--a", a, "--b", b, "--cost", c,
                        "--epsilon", eps, "--out", out])
            assert code == 0
            payload = json.loads(out.read_text())
            assert abs(payload["dual_value"] - payload["value"]) <= 1e-10

    def test_reports_safeguard_restarts(self, tmp_path):
        rng = np.random.default_rng(204)
        for _ in range(2):  # criterion 4's cost 1, where the safeguard fires
            a_vals = rng.dirichlet(np.ones(10))
            b_vals = rng.dirichlet(np.ones(10))
            cost = rng.uniform(size=(10, 10))
        a = write_vec(tmp_path / "a.txt", a_vals)
        b = write_vec(tmp_path / "b.txt", b_vals)
        c = tmp_path / "c.csv"
        fileio.write_matrix(c, cost)
        out = tmp_path / "o.json"
        code = run(["distance", "--a", a, "--b", b, "--cost", c, "--epsilon", "1e-3",
                    "--tol", "1e-11", "--max-iter", "100000", "--out", out])
        assert code == 0
        payload = json.loads(out.read_text())
        res = smoothot.entropic.sinkhorn(fileio.read_vector(a), fileio.read_vector(b),
                                         fileio.read_matrix(c), 1e-3, tol=1e-11,
                                         max_iter=100_000)
        assert payload["restarts"] == res.restarts >= 1
        assert payload["iterations"] == res.iterations

    def test_grid_cost_and_rescale(self, tmp_path):
        a = write_vec(tmp_path / "a.txt", [0.25, 0.25, 0.25, 0.25])
        b = write_vec(tmp_path / "b.txt", [0.1, 0.2, 0.3, 0.4])
        out = tmp_path / "o.json"
        code = run(["distance", "--a", a, "--b", b, "--grid-1d", "0", "3",
                    "--epsilon", "0.5", "--rescale-median", "--out", out])
        assert code == 0

    def test_parse_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("not-a-number\n")
        b = write_vec(tmp_path / "b.txt", [1.0])
        code = run(["distance", "--a", bad, "--b", b, "--epsilon", "0.1",
                    "--grid-1d", "0", "1"])
        assert code == 1

    def test_no_convergence_exit_code(self, tmp_path):
        rng = np.random.default_rng(114)
        a = write_vec(tmp_path / "a.txt", rng.dirichlet(np.ones(6)))
        b = write_vec(tmp_path / "b.txt", rng.dirichlet(np.ones(6)))
        c = tmp_path / "c.csv"
        fileio.write_matrix(c, rng.uniform(size=(6, 6)))
        code = run(["distance", "--a", a, "--b", b, "--cost", c,
                    "--epsilon", "0.01", "--tol", "1e-14", "--max-iter", "3",
                    "--out", tmp_path / "o.json"])
        assert code == 3
        # a budget of no sweeps is an input error, not an exit 3 without a result
        assert run(["distance", "--a", a, "--b", b, "--cost", c,
                    "--epsilon", "0.01", "--max-iter", "0"]) == cli.EXIT_DATA

    def test_no_convergence_writes_the_best_dual_value(self, tmp_path):
        rng = np.random.default_rng(114)
        a = rng.dirichlet(np.ones(6))
        b = rng.dirichlet(np.ones(6))
        c = rng.uniform(size=(6, 6))
        fileio.write_matrix(tmp_path / "c.csv", c)
        argv = ["distance", "--a", write_vec(tmp_path / "a.txt", a),
                "--b", write_vec(tmp_path / "b.txt", b), "--cost", tmp_path / "c.csv",
                "--epsilon", "0.01", "--out", tmp_path / "o.json",
                "--dump-coupling", tmp_path / "p.csv"]
        code = run(argv + ["--tol", "1e-14", "--max-iter", "3"])
        assert code == cli.EXIT_NO_CONVERGENCE
        assert not (tmp_path / "p.csv").exists()
        payload = json.loads((tmp_path / "o.json").read_text())
        with pytest.raises(IterationLimitError) as info:
            sinkhorn(a, b, c, 0.01, tol=1e-14, max_iter=3)
        f, g = info.value.best.potentials.f, info.value.best.potentials.g
        assert payload["converged"] is False
        assert payload["dual_value"] == dual_value(f, g, a, b, c, 0.01)
        assert payload["iterations"] == 3
        assert payload["residual"] == info.value.residual
        assert isinstance(payload["wall_time"], float) and payload["wall_time"] >= 0
        assert run(argv) == cli.EXIT_OK
        payload = json.loads((tmp_path / "o.json").read_text())
        assert payload["converged"] is True
        assert isinstance(payload["wall_time"], float) and payload["wall_time"] >= 0
        assert (tmp_path / "p.csv").exists()

    def test_summary_goes_to_stdout_without_out(self, tmp_path, capsys):
        rng = np.random.default_rng(114)
        c = tmp_path / "c.csv"
        fileio.write_matrix(c, rng.uniform(size=(6, 6)))
        argv = ["distance", "--a", write_vec(tmp_path / "a.txt", rng.dirichlet(np.ones(6))),
                "--b", write_vec(tmp_path / "b.txt", rng.dirichlet(np.ones(6))),
                "--cost", c]
        solved = {"value", "dual_value", "marginal_residuals", "iterations", "restarts",
                  "epsilon", "converged", "wall_time"}
        unsolved = {"dual_value", "iterations", "residual", "epsilon", "converged",
                    "wall_time"}
        for extra, code, keys in (
            (["--epsilon", "0"], cli.EXIT_OK, solved),
            (["--epsilon", "0.01"], cli.EXIT_OK, solved),
            (["--epsilon", "0.01", "--tol", "1e-14", "--max-iter", "3"],
             cli.EXIT_NO_CONVERGENCE, unsolved),
        ):
            assert run(argv + extra) == code
            payload = json.loads(capsys.readouterr().out)
            assert set(payload) == keys
            assert payload["converged"] is (code == cli.EXIT_OK)
            assert isinstance(payload["wall_time"], float) and payload["wall_time"] >= 0

    def test_omitted_tol_and_max_iter_take_sinkhorn_defaults(self, tmp_path, monkeypatch):
        # the CLI restates no sinkhorn default, so a changed library default reaches it
        monkeypatch.setitem(sinkhorn.__kwdefaults__, "max_iter", 3)
        a = write_vec(tmp_path / "a.txt", [0.3, 0.7])
        b = write_vec(tmp_path / "b.txt", [0.6, 0.4])
        out = tmp_path / "o.json"
        argv = ["distance", "--a", a, "--b", b, "--grid-1d", "0", "1",
                "--epsilon", "0.001", "--out", out]
        assert run(argv) == cli.EXIT_NO_CONVERGENCE
        assert json.loads(out.read_text())["iterations"] == 3
        assert run(argv + ["--max-iter", "100000"]) == cli.EXIT_OK


def barycenter_config(tmp_path, **overrides):
    cfg = {
        "epsilon": 0.05,
        "tol": 1e-7,
        "max_iter": 20000,
        "cost": {"type": "grid1d", "lo": 0.0, "hi": 1.0},
        "step_rule": "backtracking",
    }
    cfg.update(overrides)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


def gaussian_barycenter(tmp_path):
    """Run `barycenter` on two Gaussians on 100 bins of [-6, 6] (criterion 5's instance).

    Returns the exit code, the --out-csv path and the library's solve_barycenter
    output for the same problem at its defaults, written in the same format.
    """
    grid = grid_points_1d(100, -6.0, 6.0)
    inputs = []
    for k, (mu, sd) in enumerate(((2.0, 1.0), (-2.0, 0.5))):
        v = np.exp(-((grid.ravel() - mu) ** 2) / (2 * sd * sd))
        inputs.append(write_vec(tmp_path / f"g{k}.txt", v / v.sum()))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"epsilon": 0.01, "rescale_median": True,
                                "cost": {"type": "grid1d", "lo": -6.0, "hi": 6.0}}))
    out = tmp_path / "out.csv"
    code = run(["barycenter", "--config", path, "--inputs", *inputs, "--out-csv", out])
    B = np.column_stack([fileio.read_vector(f) for f in inputs])
    cost = rescale_median(CostMatrix.squared_euclidean(grid).entries)
    expected, _ = solve_barycenter(BarycenterProblem(B, [0.5, 0.5], cost, 0.01))
    library = tmp_path / "library.csv"
    fileio.write_vector(library, expected.weights)
    return code, out, library


class TestBarycenterCommand:
    def test_gaussian_instance_converges_at_the_default_step_rule(self, tmp_path):
        code, out, library = gaussian_barycenter(tmp_path)
        assert code == cli.EXIT_OK
        assert out.read_bytes() == library.read_bytes()

    def test_omitted_keys_take_the_solver_defaults(self, tmp_path, monkeypatch):
        # the CLI restates no solver default, so a changed library default reaches it
        monkeypatch.setitem(cli.solve_barycenter.__kwdefaults__, "tol", 1e-3)
        code, out, library = gaussian_barycenter(tmp_path)
        assert code == cli.EXIT_OK
        assert out.read_bytes() == library.read_bytes()

    @pytest.mark.parametrize("command", ["barycenter", "regbary", "flow"])
    def test_out_pgm_with_text_inputs_fails_before_solving(self, tmp_path, monkeypatch,
                                                           capsys, command):
        def never(*args, **kwargs):
            raise AssertionError("the solver ran")

        for name in ("solve_barycenter", "solve_regularized", "run_flow"):
            monkeypatch.setattr(cli, name, never)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(CONVERGING[command]))
        hist = write_vec(tmp_path / "b.txt", np.full(9, 1.0 / 9))
        out, summary = tmp_path / "out.csv", tmp_path / "summary.json"
        code = run([command, "--config", path,
                    "--initial" if command == "flow" else "--inputs", hist,
                    "--out-csv", out, "--summary", summary, "--out-pgm", tmp_path / "o.pgm"])
        assert code == cli.EXIT_DATA
        assert "--out-pgm needs PGM (grid) inputs" in capsys.readouterr().err
        assert not out.exists() and not summary.exists()

    def test_identical_inputs_match_single_run_byte_for_byte(self, tmp_path):
        rng = np.random.default_rng(115)
        b = rng.dirichlet(np.ones(8)) + 1e-3
        b /= b.sum()
        f1 = write_vec(tmp_path / "b1.txt", b)
        cfg = barycenter_config(tmp_path)
        out1 = tmp_path / "single.csv"
        assert run(["barycenter", "--config", cfg, "--inputs", f1,
                    "--out-csv", out1]) == 0
        out2 = tmp_path / "double.csv"
        assert run(["barycenter", "--config", cfg, "--inputs", f1, f1,
                    "--out-csv", out2]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_summary_and_determinism(self, tmp_path):
        rng = np.random.default_rng(116)
        b1 = rng.dirichlet(np.ones(8)) + 1e-3
        b2 = rng.dirichlet(np.ones(8)) + 1e-3
        f1 = write_vec(tmp_path / "b1.txt", b1 / b1.sum())
        f2 = write_vec(tmp_path / "b2.txt", b2 / b2.sum())
        cfg = barycenter_config(tmp_path)
        outs = []
        for tag in ("x", "y"):
            out = tmp_path / f"{tag}.csv"
            summary = tmp_path / f"{tag}.json"
            assert run(["barycenter", "--config", cfg, "--inputs", f1, f2,
                        "--out-csv", out, "--summary", summary]) == 0
            outs.append(out.read_bytes())
            payload = json.loads(summary.read_text())
            assert payload["converged"] is True
            assert payload["iterations"] >= 1
        assert outs[0] == outs[1]

    def test_config_rescale_median_keeps_a_grid_cost(self):
        grid = cli._build_cost({"rescale_median": True}, 16, (4, 4), "cfg.json")
        assert isinstance(grid, GridCost2D) and "entries" not in vars(grid)
        assert grid.median() == pytest.approx(1.0, abs=1e-15)
        dense = cli._build_cost({"rescale_median": True,
                                 "cost": {"type": "grid1d", "lo": 0.0, "hi": 1.0}},
                                5, None, "cfg.json")
        assert np.median(dense) == pytest.approx(1.0, abs=1e-15)

    def test_config_validation_enumerates_offenders(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epsilon": "small", "bogus": 1, "tol": 1e-7,
                                   "seed": 1}))
        b = write_vec(tmp_path / "b.txt", [0.5, 0.5])
        code = run(["barycenter", "--config", cfg, "--inputs", b,
                    "--out-csv", tmp_path / "o.csv"])
        assert code == 2
        err = capsys.readouterr().err
        assert "bogus" in err and "epsilon" in err and "seed" in err


class TestRegularizedAndFlowCommands:
    def test_regbary_zero_lambda_matches_barycenter(self, tmp_path):
        rng = np.random.default_rng(118)
        b1 = rng.dirichlet(np.ones(9)) + 1e-3
        b2 = rng.dirichlet(np.ones(9)) + 1e-3
        f1 = write_vec(tmp_path / "b1.txt", b1 / b1.sum())
        f2 = write_vec(tmp_path / "b2.txt", b2 / b2.sum())
        bary_cfg = barycenter_config(tmp_path)
        out_b = tmp_path / "bary.csv"
        assert run(["barycenter", "--config", bary_cfg, "--inputs", f1, f2,
                    "--out-csv", out_b]) == 0
        reg_cfg = tmp_path / "reg.json"
        reg_cfg.write_text(json.dumps({
            "epsilon": 0.05,
            "tol": 1e-9,
            "max_iter": 60000,
            "cost": {"type": "grid1d", "lo": 0.0, "hi": 1.0},
            "lambda": 0.0,
            "beta": 1,
            "operator": {"type": "graph",
                         "edges": [[i, i + 1] for i in range(8)]},
            "accel": True,
        }))
        out_r = tmp_path / "reg.csv"
        assert run(["regbary", "--config", reg_cfg, "--inputs", f1, f2,
                    "--out-csv", out_r]) == 0
        reg = fileio.read_vector(out_r)
        bary = fileio.read_vector(out_b)
        assert np.abs(reg - bary).sum() <= 1e-5

    def test_flow_single_step_matches_regbary(self, tmp_path):
        rng = np.random.default_rng(119)
        b = rng.dirichlet(np.ones(9)) + 1e-3
        f1 = write_vec(tmp_path / "b1.txt", b / b.sum())
        edges = [[i, i + 1] for i in range(8)]
        base = {
            "epsilon": 0.05,
            "tol": 1e-9,
            "max_iter": 60000,
            "cost": {"type": "grid1d", "lo": 0.0, "hi": 1.0},
            "beta": 1,
            "operator": {"type": "graph", "edges": edges},
            "accel": True,
        }
        reg_cfg = tmp_path / "reg.json"
        reg_cfg.write_text(json.dumps({**base, "lambda": 0.05}))
        out_r = tmp_path / "reg.csv"
        assert run(["regbary", "--config", reg_cfg, "--inputs", f1,
                    "--out-csv", out_r]) == 0
        flow_cfg = tmp_path / "flow.json"
        flow_cfg.write_text(json.dumps({**base, "lambda": 0.5, "tau": 0.1,
                                        "steps": 1}))
        out_f = tmp_path / "flow.csv"
        summary = tmp_path / "flow_summary.json"
        assert run(["flow", "--config", flow_cfg, "--initial", f1,
                    "--out-csv", out_f, "--summary", summary]) == 0
        flow_traj = fileio.read_matrix(out_f)
        reg = fileio.read_vector(out_r)
        assert flow_traj.shape == (1, 9)
        assert np.array_equal(flow_traj[0], reg)
        # both descent-record Sinkhorns start warm and certify within a sweep
        sweeps = json.loads(summary.read_text())["records"][0]["record_sweeps"]
        assert len(sweeps) == 2 and max(sweeps) <= 2

    def test_pgm_pipeline(self, tmp_path):
        rng = np.random.default_rng(120)
        img1 = rng.uniform(0.2, 1.0, size=(4, 4))
        img2 = rng.uniform(0.2, 1.0, size=(4, 4))
        p1 = tmp_path / "a.pgm"
        p2 = tmp_path / "b.pgm"
        fileio.write_pgm(p1, img1)
        fileio.write_pgm(p2, img2)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epsilon": 0.1, "tol": 1e-8,
                                   "max_iter": 40000, "lambda": 0.2,
                                   "beta": 2, "accel": True}))
        out = tmp_path / "bary.csv"
        pgm_out = tmp_path / "bary.pgm"
        assert run(["regbary", "--config", cfg, "--inputs", p1, p2,
                    "--out-csv", out, "--out-pgm", pgm_out]) == 0
        loaded, shape = fileio.read_pgm(pgm_out)
        assert shape == (4, 4)

    def test_regbary_accepts_a_black_pixel(self, tmp_path):
        # a black pixel is a zero-mass bin of its input
        rng = np.random.default_rng(121)
        inputs = []
        for k in range(2):
            img = rng.uniform(0.2, 1.0, size=(4, 4))
            img[k, 3 - k] = 0.0
            inputs.append(tmp_path / f"in{k}.pgm")
            fileio.write_pgm(inputs[-1], img)
        assert fileio.read_pgm(inputs[0])[0].min() == 0.0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epsilon": 0.1, "tol": 1e-8, "max_iter": 40000,
                                   "lambda": 0.2, "accel": True}))
        out = tmp_path / "bary.csv"
        assert run(["regbary", "--config", cfg, "--inputs", *inputs, "--out-csv", out]) == 0
        weights = fileio.read_vector(out)
        assert abs(weights.sum() - 1.0) <= 1e-8 and weights.min() >= 0.0

    def test_flow_accepts_a_black_pixel(self, tmp_path):
        img = np.random.default_rng(122).uniform(0.2, 1.0, size=(4, 4))
        img[1, 2] = 0.0
        initial = tmp_path / "initial.pgm"
        fileio.write_pgm(initial, img)
        assert fileio.read_pgm(initial)[0].min() == 0.0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epsilon": 0.1, "tol": 1e-8, "max_iter": 40000,
                                   "lambda": 0.2, "tau": 0.1, "steps": 2}))
        out = tmp_path / "flow.csv"
        summary = tmp_path / "summary.json"
        assert run(["flow", "--config", cfg, "--initial", initial, "--out-csv", out,
                    "--summary", summary]) == 0
        trajectory = fileio.read_matrix(out)
        assert trajectory.shape == (2, 16)
        assert np.abs(trajectory.sum(axis=1) - 1.0).max() <= 1e-8 and trajectory.min() >= 0.0
        for record in json.loads(summary.read_text())["records"]:
            assert record["objective_new"] <= record["objective_prev"] + 1e-8


class TestSemidiscreteCommand:
    def test_symmetric_instance(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "epsilon": 0.1,
            "tol": 1e-10,
            "source": {"type": "grid1d", "n": 200, "lo": -1.0, "hi": 1.0},
        }))
        target = tmp_path / "target.csv"
        fileio.write_matrix(target, [[-0.5, 0.5], [0.5, 0.5]])
        out = tmp_path / "g.csv"
        summary = tmp_path / "s.json"
        assert run(["semidiscrete", "--config", cfg, "--target", target,
                    "--out-csv", out, "--summary", summary]) == 0
        g = fileio.read_vector(out)
        assert np.abs(g).max() <= 1e-4
        payload = json.loads(summary.read_text())
        assert np.allclose(payload["cell_masses"], [0.5, 0.5], atol=1e-3)

    def test_random_source_is_seeded(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "epsilon": 0.2,
            "tol": 1e-8,
            "source": {"type": "uniform_random", "n": 100, "lo": -1.0,
                       "hi": 1.0, "seed": 7},
        }))
        target = tmp_path / "target.csv"
        fileio.write_matrix(target, [[-0.3, 0.4], [0.3, 0.6]])
        outs = []
        for tag in ("p", "q"):
            out = tmp_path / f"{tag}.csv"
            assert run(["semidiscrete", "--config", cfg, "--target", target,
                        "--out-csv", out]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_iteration_limit_reports_value_at_best(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "epsilon": 0.1,
            "tol": 1e-12,
            "max_iter": 1,
            "source": {"type": "grid1d", "n": 200, "lo": -1.0, "hi": 1.0},
        }))
        target = tmp_path / "target.csv"
        fileio.write_matrix(target, [[-0.5, 0.3], [0.5, 0.7]])
        out = tmp_path / "g.csv"
        summary = tmp_path / "s.json"
        assert run(["semidiscrete", "--config", cfg, "--target", target,
                    "--out-csv", out, "--summary", summary]) == cli.EXIT_NO_CONVERGENCE
        payload = json.loads(summary.read_text())
        best = fileio.read_vector(out)
        expected, grad = semidiscrete_objective_grad(
            best, SampledMeasure.uniform_grid_1d(200, -1.0, 1.0),
            DiscreteTarget([[-0.5], [0.5]], [0.3, 0.7]), 0.1)
        assert payload["dual_value"] == expected
        assert payload["grad_norm"] == np.abs(grad).max()
        assert payload["iterations"] == 1 and payload["converged"] is False


class TestStartup:
    def test_import_leaves_scipy_solvers_unloaded(self):
        # only `exact_wbp` needs scipy's LP and sparse modules; every CLI call
        # would otherwise pay their import
        src = str(Path(smoothot.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        probe = ("import sys, smoothot.cli; "
                 "print(sorted(m for m in ('scipy.optimize', 'scipy.sparse') "
                 "if m in sys.modules))")
        out = subprocess.run([sys.executable, "-c", probe], env=env,
                             capture_output=True, text=True, timeout=60, check=True)
        assert out.stdout.strip() == "[]"


GRID1D = {"type": "grid1d", "lo": 0.0, "hi": 1.0}
CHAIN = {"lambda": 0.05, "beta": 1, "accel": True,
         "operator": {"type": "graph", "edges": [[i, i + 1] for i in range(8)]}}
# a small run of each config command that reaches its tolerance
CONVERGING = {
    "barycenter": {"epsilon": 0.05, "tol": 1e-7, "max_iter": 20000, "cost": GRID1D,
                   "step_rule": "backtracking"},
    "regbary": {"epsilon": 0.05, "tol": 1e-9, "max_iter": 60000, "cost": GRID1D, **CHAIN},
    "flow": {"epsilon": 0.05, "tol": 1e-9, "max_iter": 60000, "cost": GRID1D, **CHAIN},
    "semidiscrete": {"epsilon": 0.1, "tol": 1e-10,
                     "source": {"type": "grid1d", "n": 200, "lo": -1.0, "hi": 1.0}},
}


def config_run(tmp_path, command, cfg):
    """Run a config command on a 9-bin histogram (or two 1-D sites for semidiscrete).

    Returns the exit code, the --out-csv path and the --summary path.
    """
    path = tmp_path / f"{command}.json"
    path.write_text(json.dumps(cfg))
    out, summary = tmp_path / f"{command}.csv", tmp_path / f"{command}_summary.json"
    if command == "semidiscrete":
        target = tmp_path / "target.csv"
        fileio.write_matrix(target, [[-0.5, 0.5], [0.5, 0.5]])
        inputs = ["--target", target]
    else:
        b = np.random.default_rng(123).dirichlet(np.ones(9)) + 1e-3
        hist = write_vec(tmp_path / "b.txt", b / b.sum())
        inputs = ["--initial" if command == "flow" else "--inputs", hist]
    code = run([command, "--config", path, *inputs, "--out-csv", out, "--summary", summary])
    return code, out, summary


class TestCommandPipeline:
    @pytest.mark.parametrize("command", sorted(CONVERGING))
    def test_every_summary_has_converged_and_wall_time(self, tmp_path, command):
        code, _, summary = config_run(tmp_path, command, CONVERGING[command])
        assert code == cli.EXIT_OK
        payload = json.loads(summary.read_text())
        assert payload["converged"] is True
        assert isinstance(payload["wall_time"], float) and payload["wall_time"] > 0

    def test_regbary_omitted_keys_take_the_solver_defaults(self, tmp_path, monkeypatch):
        # the CLI restates no solver default, so a changed library default reaches it
        monkeypatch.setitem(regularized.solve_regularized.__kwdefaults__, "tol", 1e-4)
        cfg = {"epsilon": 0.05, "cost": GRID1D, "lambda": 0.05, "beta": 1,
               "operator": CHAIN["operator"]}
        code, out, _ = config_run(tmp_path, "regbary", cfg)
        assert code == cli.EXIT_OK
        b = fileio.read_vector(tmp_path / "b.txt")
        cost = CostMatrix.squared_euclidean(grid_points_1d(9, 0.0, 1.0)).entries
        expected = regularized.solve_regularized(
            BarycenterProblem(b[:, None], [1.0], cost, 0.05),
            regularized.graph_gradient(CHAIN["operator"]["edges"], 9),
            regularized.make_regularizer("tv_aniso", lam=0.05))
        fileio.write_vector(tmp_path / "library.csv", expected.weights)
        assert out.read_bytes() == (tmp_path / "library.csv").read_bytes()

    def test_regbary_without_accel_runs_fista(self, tmp_path):
        cfg = {k: v for k, v in CONVERGING["regbary"].items() if k != "accel"}
        code, out, summary = config_run(tmp_path, "regbary", cfg)
        assert code == cli.EXIT_OK
        b = fileio.read_vector(tmp_path / "b.txt")
        cost = CostMatrix.squared_euclidean(grid_points_1d(9, 0.0, 1.0)).entries
        expected = regularized.solve_regularized(
            BarycenterProblem(b[:, None], [1.0], cost, 0.05),
            regularized.graph_gradient(CHAIN["operator"]["edges"], 9),
            regularized.make_regularizer("tv_aniso", lam=0.05),
            accel=True, tol=1e-9, max_iter=60000, full_output=True)
        fileio.write_vector(tmp_path / "library.csv", expected.barycenter.weights)
        assert out.read_bytes() == (tmp_path / "library.csv").read_bytes()
        assert json.loads(summary.read_text())["iterations"] == expected.iterations

    def test_flow_writes_its_best_iterate_on_iteration_limit(self, tmp_path, capsys):
        cfg = {**CONVERGING["flow"], "steps": 2, "tol": 1e-14, "max_iter": 3}
        code, out, summary = config_run(tmp_path, "flow", cfg)
        assert code == cli.EXIT_NO_CONVERGENCE
        assert capsys.readouterr().err.startswith("flow: ")
        trajectory = fileio.read_matrix(out)
        assert trajectory.shape == (1, 9)
        assert abs(trajectory.sum() - 1.0) <= 1e-12
        payload = json.loads(summary.read_text())
        assert payload["converged"] is False
        assert payload["steps"] == 1 and payload["records"] == []

    @pytest.mark.parametrize("failing", ["sinkhorn", "symmetric_potential"])
    def test_flow_writes_its_steps_when_a_descent_record_runs_out(
            self, tmp_path, monkeypatch, capsys, failing):
        # one sweep for each record Sinkhorn, the one of W(a_0, a_0) cold on a
        # non-symmetric cost; or one apply for the symmetric fixed point that
        # warm-starts it on the symmetric grid1d cost
        cfg = dict(CONVERGING["flow"])
        if failing == "sinkhorn":
            d = np.subtract.outer(np.linspace(0.0, 1.0, 9), np.linspace(0.0, 1.0, 9))
            fileio.write_matrix(tmp_path / "cost.csv", d ** 2 + 0.3 * np.abs(d) * (d > 0))
            cfg["cost"] = {"type": "file", "path": str(tmp_path / "cost.csv")}
            monkeypatch.setattr(flow, "sinkhorn",
                                functools.partial(entropic.sinkhorn, max_iter=1))
        else:
            monkeypatch.setattr(entropic, "DEFAULT_MAX_ITER", 1)
        code, out, summary = config_run(tmp_path, "flow", cfg)
        assert code == cli.EXIT_NO_CONVERGENCE
        assert capsys.readouterr().err.startswith(f"flow: {failing} did not reach")
        trajectory = fileio.read_matrix(out)
        assert trajectory.shape == (1, 9)
        assert abs(trajectory.sum() - 1.0) <= 1e-12
        payload = json.loads(summary.read_text())
        assert payload["converged"] is False
        assert payload["steps"] == 1 and payload["records"] == []

    @pytest.mark.parametrize("command, change, key", [
        ("barycenter", {"cost": {"type": "grid1d", "lo": "zero", "hi": 1.0}}, "cost.lo"),
        ("barycenter", {"cost": {"type": "grid2d", "h": 2.5, "w": 3}}, "cost.h"),
        ("regbary", {"operator": {"type": "graph", "edges": "chain"}}, "operator.edges"),
        ("semidiscrete", {"source": {"type": "grid1d", "n": 200.0, "lo": -1.0, "hi": 1.0}},
         "source.n"),
    ])
    def test_mistyped_nested_value_is_a_config_error(self, tmp_path, capsys, command,
                                                    change, key):
        code, _, _ = config_run(tmp_path, command, {**CONVERGING[command], **change})
        assert code == cli.EXIT_CONFIG
        assert f"{key} (expected " in capsys.readouterr().err

    @pytest.mark.parametrize("command, key", [
        pytest.param("barycenter", "tau", id="barycenter"),
        pytest.param("regbary", "tau", id="regbary"),
        # a random source's seed is source.seed, not a top-level key
        pytest.param("semidiscrete", "seed", id="semidiscrete-seed"),
    ])
    def test_tau_is_the_flow_time_step_only(self, tmp_path, capsys, command, key):
        # the solvers pick their own steps; only flow reads tau
        code, _, _ = config_run(tmp_path, command, {**CONVERGING[command], key: 1})
        assert code == cli.EXIT_CONFIG
        assert f"{key} (unknown key)" in capsys.readouterr().err

    @pytest.mark.parametrize("command, change, key", [
        ("regbary", {"regularizer": "quadratic", "lambda": None}, "lambda"),
        ("regbary", {"regularizer": "box"}, "rho"),
        ("flow", {"regularizer": "pinned", "indices": [0]}, "values"),
        ("barycenter", {"cost": {"type": "grid1d"}}, "cost.lo"),
        ("barycenter", {"cost": {"type": "file"}}, "cost.path"),
        ("regbary", {"operator": {"type": "graph"}}, "operator.edges"),
        ("semidiscrete", {"source": {"type": "grid1d", "lo": -1.0, "hi": 1.0}}, "source.n"),
        ("semidiscrete", {"source": {"type": "uniform_random", "n": 10, "lo": 0.0}},
         "source.hi"),
    ])
    def test_missing_nested_key_is_a_config_error(self, tmp_path, capsys, command,
                                                  change, key):
        # a None in `change` drops that key from the converging config
        cfg = {k: v for k, v in {**CONVERGING[command], **change}.items() if v is not None}
        code, _, _ = config_run(tmp_path, command, cfg)
        assert code == cli.EXIT_CONFIG
        assert f"missing config key {key}" in capsys.readouterr().err
