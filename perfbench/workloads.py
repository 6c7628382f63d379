"""The three benchmark workloads: inputs from a seed, operations, gates.

Each workload builds its inputs in `setup` (repeatable, deterministic in the
seed) and runs one round of its fixed operation list in `run_round`.  Every
operation is timed alone and then checked by its gate; the round's result is
a list of `Op` records.  Solvers are looked up through their modules at call
time, so a traced round sees the wrappers that `tracing` installs.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import gates

HERE = Path(__file__).resolve().parent


@dataclass
class Op:
    kind: str
    seconds: float
    error: str | None = None
    counts: dict = field(default_factory=dict)  # computed from the results
    child_spans: list | None = None  # spans of a traced CLI child
    child_unresolved: list | None = None
    child_spawn: float | None = None  # perf_counter just before the child started


def _timed(kind, solve, check):
    """Run solve() under the clock, then check(result) -> counts."""
    start = perf_counter()
    try:
        result = solve()
    except Exception as exc:  # any raise, budget overruns included, fails the op
        return Op(kind, perf_counter() - start, f"{type(exc).__name__}: {exc}")
    seconds = perf_counter() - start
    try:
        counts = check(result)
    except gates.GateError as exc:
        return Op(kind, seconds, f"gate: {exc}")
    return Op(kind, seconds, counts=counts)


def _stream(seed, tag):
    return np.random.default_rng([seed % (1 << 64), tag])


def _simplex(rng, n, low):
    v = rng.uniform(low, 1.0, size=n)
    return v / v.sum()


class DenseSmall:
    """Dense-cost solvers in process: small-eps Sinkhorn, barycenter, semi-discrete, LP."""

    name = "dense-small"
    in_process = True
    setup_repeats = 5

    SINKHORN_N = 10
    SINKHORN_COUNT = 24
    SINKHORN_EPS = 0.05
    SINKHORN_TOL = 1e-9
    SINKHORN_MAX_ITER = 100_000
    BARY_N = 100
    BARY_TOL = 1e-5
    BARY_MAX_ITER = 4000
    SD_SAMPLES = 2000
    SD_SITES = 16
    SD_EPS = 0.1
    SD_TOL = 1e-9
    LP_N = 150

    def __init__(self, seed, root):
        self.seed = seed
        self.lp_reference = None

    def setup(self):
        from smoothot import core

        seed = self.seed
        # one random base cost shared by the Sinkhorn instances, perturbed per
        # seed: solve lengths on fully random costs are too heavy-tailed for a
        # steady per-run figure with this few instances
        base = np.random.default_rng(20181113).uniform(size=(self.SINKHORN_N,) * 2)
        rng = _stream(seed, 1)
        self.sinkhorn_inputs = [
            (_simplex(rng, self.SINKHORN_N, 0.1), _simplex(rng, self.SINKHORN_N, 0.1),
             base + 0.05 * rng.uniform(size=base.shape))
            for _ in range(self.SINKHORN_COUNT)
        ]

        # the criterion-5 instance, N(2, 1) and N(-2, 0.5) on [-6, 6], left
        # unseeded: shifting both means by up to 0.05 moves L-BFGS between
        # 2.6k and 3.7k iterations, which would swamp the per-run figure
        grid = np.linspace(-6.0, 6.0, self.BARY_N)
        cols = [np.exp(-((grid - mu) ** 2) / (2 * sd * sd)) for mu, sd in ((2.0, 1.0), (-2.0, 0.5))]
        self.bary_grid = grid
        self.bary_inputs = np.column_stack([c / c.sum() for c in cols])
        self.bary_expected = (0.0, np.sqrt(5.0 / 8.0))  # criterion-5 mean and std targets
        sq = core.CostMatrix.squared_euclidean(grid.reshape(-1, 1)).entries
        self.bary_cost = core.rescale_median(sq)

        rng = _stream(seed, 3)
        self.sd_points = rng.uniform(size=(self.SD_SAMPLES, 2))
        self.sd_weights = np.full(self.SD_SAMPLES, 1.0 / self.SD_SAMPLES)
        lattice = _pixel_centers(int(np.sqrt(self.SD_SITES)))
        self.sd_sites = lattice + rng.uniform(-0.03, 0.03, size=lattice.shape)
        self.sd_masses = _simplex(rng, self.SD_SITES, 0.8)

        rng = _stream(seed, 4)
        self.lp_a = _simplex(rng, self.LP_N, 0.1)
        self.lp_b = _simplex(rng, self.LP_N, 0.1)
        self.lp_cost = rng.uniform(size=(self.LP_N, self.LP_N))
        self.lp_reference = None

    def run_round(self, traced=False):
        from smoothot import barycenter, entropic, lp_oracle, semidiscrete

        ops = []
        eps, tol = self.SINKHORN_EPS, self.SINKHORN_TOL
        for a, b, c in self.sinkhorn_inputs:
            def check(res, a=a, b=b, c=c):
                gates.check_sinkhorn(a, b, c, eps, tol, res.coupling.matrix,
                                     res.potentials.f, res.potentials.g, res.value)
                return {"sweeps": res.iterations, "plan_bytes": res.coupling.matrix.nbytes}
            ops.append(_timed("distance", lambda a=a, b=b, c=c: entropic.sinkhorn(
                a, b, c, eps, tol=tol, max_iter=self.SINKHORN_MAX_ITER), check))

        problem = barycenter.BarycenterProblem(
            self.bary_inputs, np.array([0.5, 0.5]), self.bary_cost, 1.0 / self.BARY_N)

        def check_bary(out):
            hist, trace = out
            gates.check_gaussian_barycenter(self.bary_grid, hist.weights, *self.bary_expected)
            return {"iterations": trace.iterations}
        ops.append(_timed("barycenter", lambda: barycenter.solve_barycenter(
            problem, tol=self.BARY_TOL, max_iter=self.BARY_MAX_ITER,
            step_rule=barycenter.lbfgs_direction(fallback_step=problem.epsilon / 2)),
            check_bary))

        source = semidiscrete.SampledMeasure(self.sd_points, self.sd_weights)
        target = semidiscrete.DiscreteTarget(self.sd_sites, self.sd_masses)

        def check_sd(out):
            g, info = out
            gates.check_semidiscrete(self.sd_points, self.sd_weights, self.sd_sites,
                                     self.sd_masses, self.SD_EPS, g, self.SD_TOL)
            return {"iterations": info["iterations"]}
        ops.append(_timed("semidiscrete", lambda: semidiscrete.solve_semidiscrete(
            source, target, self.SD_EPS, tol=self.SD_TOL, full_output=True), check_sd))

        def check_lp(res):
            if self.lp_reference is None:
                self.lp_reference = gates.transport_lp_value(self.lp_a, self.lp_b, self.lp_cost)
            gates.check_exact_ot(self.lp_a, self.lp_b, self.lp_cost, res.coupling,
                                 res.value, self.lp_reference)
            return {"pivots": res.pivots}
        ops.append(_timed("lp", lambda: lp_oracle.exact_ot(self.lp_a, self.lp_b, self.lp_cost),
                          check_lp))
        return ops

    def close(self):
        pass


def _pixel_centers(side):
    """Row-major pixel centers of a side x side grid on the unit square, as (x, y)."""
    ys = (np.arange(side) + 0.5) / side
    yy, xx = np.meshgrid(ys, ys, indexing="ij")
    return np.column_stack([xx.ravel(), yy.ravel()])


def _bumps(pts, centers, width, floor):
    v = sum(np.exp(-((pts[:, 0] - cx) ** 2 + (pts[:, 1] - cy) ** 2) / width)
            for cx, cy in centers)
    return v + floor * v.max()


class Grid64:
    """Entropic distances between two 64x64 images at a large and a small eps."""

    name = "grid64"
    in_process = True
    setup_repeats = 3

    SIDE = 64
    EPSILONS = (0.01, 0.002)
    TOL = 1e-9
    MAX_ITER = 10_000

    def __init__(self, seed, root):
        self.seed = seed

    def setup(self):
        from smoothot import core

        self.cost = None  # the previous build is freed before the next one
        rng = _stream(self.seed, 5)
        pts = _pixel_centers(self.SIDE)
        jitter = rng.uniform(-0.03, 0.03, size=(2, 2))
        first = _bumps(pts, [(0.4, 0.4) + jitter[0]], 0.05, 1e-3)
        second = _bumps(pts, [(0.6, 0.6) + jitter[1]], 0.05, 1e-3)
        self.a = first / first.sum()
        self.b = second / second.sum()
        self.cost = core.GridCost2D(self.SIDE, self.SIDE)

    def run_round(self, traced=False):
        from smoothot import entropic

        ops = []
        for eps in self.EPSILONS:
            def check(res, eps=eps):
                gates.check_sinkhorn(self.a, self.b, self.cost.entries, eps, self.TOL,
                                     res.coupling.matrix, res.potentials.f,
                                     res.potentials.g, res.value)
                return {"sweeps": res.iterations, "plan_bytes": res.coupling.matrix.nbytes,
                        "cost_bytes": self.cost.entries.nbytes}
            ops.append(_timed("distance", lambda eps=eps: entropic.sinkhorn(
                self.a, self.b, self.cost, eps, tol=self.TOL, max_iter=self.MAX_ITER), check))
        return ops

    def close(self):
        pass


PGM_MAXVAL = 65535


def write_pgm(path, image):
    """ASCII PGM (P2) with the image scaled so its peak is PGM_MAXVAL."""
    q = np.rint(image * (PGM_MAXVAL / image.max())).astype(int)
    h, w = q.shape
    body = "\n".join(" ".join(map(str, row)) for row in q)
    Path(path).write_text(f"P2\n{w} {h}\n{PGM_MAXVAL}\n{body}\n", encoding="ascii")


class JkoCli:
    """`smoothot flow` as a subprocess: the paper's JKO flow through the CLI."""

    name = "jko-cli"
    in_process = False
    setup_repeats = 5

    SIDE = 24
    # FISTA and descent-record sweep counts jump under tiny moves of the bumps,
    # so a round runs one single-step call on each of several seeded images
    IMAGES = 3
    STEPS = 1
    CONFIG = {"tau": 0.1, "lambda": 1.0, "regularizer": "tv_iso",
              "steps": STEPS, "tol": 1e-5}
    TIMEOUT_S = 60  # a hung child still leaves the run inside its time limit

    def __init__(self, seed, root):
        self.seed = seed
        self.src = Path(root) / "src"
        self.work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=root))

    def setup(self):
        rng = _stream(self.seed, 6)
        for k in range(self.IMAGES):
            jitter = rng.uniform(-0.01, 0.01, size=(2, 2))
            # criterion 8's two bumps, on 24x24, moved by the seed
            image = _bumps(_pixel_centers(self.SIDE),
                           [(0.35, 0.35) + jitter[0], (0.68, 0.68) + jitter[1]], 0.012, 1e-4)
            write_pgm(self.work / f"a{k}.pgm", image.reshape(self.SIDE, self.SIDE))
        config = dict(self.CONFIG, epsilon=1.0 / self.SIDE ** 2)
        (self.work / "flow.json").write_text(json.dumps(config), encoding="ascii")

    def run_round(self, traced=False):
        return [self._call(f"a{k}.pgm", traced) for k in range(self.IMAGES)]

    def _call(self, initial, traced):
        out_csv, summary, spans = (self.work / name for name in
                                   ("traj.csv", "summary.json", "spans.json"))
        for path in (out_csv, summary, spans):
            path.unlink(missing_ok=True)
        tail = ["flow", "--config", "flow.json", "--initial", initial,
                "--out-csv", out_csv.name, "--summary", summary.name]
        if traced:
            argv = [sys.executable, str(HERE / "flow_child.py"), spans.name] + tail
        else:
            argv = [sys.executable, "-m", "smoothot.cli"] + tail
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(self.src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        start = perf_counter()
        try:
            proc = subprocess.run(argv, cwd=self.work, env=env, capture_output=True,
                                  text=True, timeout=self.TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return Op("flow_call", perf_counter() - start, "timed out")
        op = Op("flow_call", perf_counter() - start)
        try:
            if proc.returncode != 0:
                raise gates.GateError(f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}")
            doc = json.loads(summary.read_text(encoding="utf-8"))
            trajectory = np.loadtxt(out_csv, delimiter=",", ndmin=2)
            gates.check_flow(proc.returncode, doc, trajectory, self.STEPS, self.SIDE ** 2)
            op.counts = {"fista_iterations": sum(r["solver_iterations"] for r in doc["records"])}
            if traced:
                dumped = json.loads(spans.read_text(encoding="utf-8"))
                op.child_spans = dumped["spans"]
                op.child_unresolved = dumped["unresolved"]
                op.child_spawn = start
        except (gates.GateError, OSError, ValueError, KeyError) as exc:
            op.error = f"{type(exc).__name__}: {exc}"
        return op

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)


WORKLOADS = {cls.name: cls for cls in (JkoCli, DenseSmall, Grid64)}
