"""Command-line driver for the transport solvers.

One command per solver family, with reproducible file I/O: histograms as one
value per line, matrices as comma-separated rows, 2-D densities as ASCII PGM,
and a JSON config holding the numeric parameters.  Exit code 0 means the
requested tolerance was reached (3 when the iteration budget ran out first,
1 for I/O or data errors, 2 for config errors).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import fileio
from .barycenter import BarycenterProblem, solve_barycenter
from .core import (
    CostMatrix,
    GridCost2D,
    Histogram,
    IterationLimitError,
    grid_points_1d,
    grid_points_2d,
    rescale_median,
)
from .entropic import primal_value, sinkhorn
from .flow import run_flow
from .lp_oracle import exact_ot
from .regularized import (
    graph_gradient,
    grid_gradient,
    identity_operator,
    make_regularizer,
    solve_regularized,
)
from .semidiscrete import (
    DiscreteTarget,
    SampledMeasure,
    semidiscrete_objective_grad,
    solve_semidiscrete,
)

EXIT_OK = 0
EXIT_DATA = 1
EXIT_CONFIG = 2
EXIT_NO_CONVERGENCE = 3


class ConfigError(ValueError):
    pass


_CONFIG_SCHEMAS = {
    "barycenter": {"epsilon": (int, float), "tol": (int, float),
                   "max_iter": int, "weights": list, "cost": dict,
                   "rescale_median": bool, "step_rule": str,
                   "tau": (int, float)},
    "regbary": {"epsilon": (int, float), "tol": (int, float), "max_iter": int,
                "weights": list, "cost": dict, "rescale_median": bool,
                "lambda": (int, float), "beta": int, "regularizer": str,
                "rho": (int, float), "indices": list, "values": list,
                "operator": (str, dict), "accel": bool, "tau": (int, float)},
    "flow": {"epsilon": (int, float), "tol": (int, float), "max_iter": int,
             "cost": dict, "rescale_median": bool, "lambda": (int, float),
             "beta": int, "regularizer": str, "rho": (int, float),
             "indices": list, "values": list, "operator": (str, dict),
             "accel": bool, "tau": (int, float), "steps": int},
    "semidiscrete": {"epsilon": (int, float), "tol": (int, float),
                     "max_iter": int, "step": (int, float), "source": dict,
                     "seed": int},
}


def load_config(path, command: str) -> dict:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    schema = _CONFIG_SCHEMAS[command]
    bad = []
    for key, value in raw.items():
        if key not in schema:
            bad.append(f"{key} (unknown key)")
            continue
        expected = schema[key] if isinstance(schema[key], tuple) else (schema[key],)
        ok = isinstance(value, expected)
        if isinstance(value, bool) and bool not in expected:
            ok = False  # bool is an int subclass; reject it for numeric keys
        if not ok:
            names = "/".join(t.__name__ for t in expected)
            bad.append(f"{key} (expected {names})")
    if bad:
        raise ConfigError(f"{path}: offending config keys: " + ", ".join(sorted(bad)))
    return raw


def _load_density(path, normalize: bool):
    """Load a histogram file (.pgm or text); returns (weights, grid shape or None)."""
    p = Path(path)
    if p.suffix.lower() == ".pgm":
        img, shape = fileio.read_pgm(p)
        return img.ravel(), shape
    values = fileio.read_vector(p)
    return Histogram(values, normalize=normalize).weights, None


def _build_cost(cfg, n: int, shape, path_hint: str):
    """The config's cost for n bins, divided by its median if `rescale_median`."""
    spec = cfg.get("cost")
    if spec is None:
        if shape is None:
            raise ConfigError(
                f"{path_hint}: a cost spec is required for non-grid inputs"
            )
        cost = GridCost2D(*shape)
    elif spec.get("type") == "file":
        cost = fileio.read_matrix(spec["path"])
    elif spec.get("type") == "grid1d":
        cost = CostMatrix.squared_euclidean(
            grid_points_1d(n, float(spec["lo"]), float(spec["hi"]))
        ).entries
    elif spec.get("type") == "grid2d":
        h, w = int(spec["h"]), int(spec["w"])
        if h * w != n:
            raise ConfigError("grid2d dimensions do not match the data size")
        cost = GridCost2D(h, w)
    else:
        raise ConfigError(f"unknown cost type {spec.get('type')!r}")
    return rescale_median(cost) if cfg.get("rescale_median", False) else cost


def _json_out(payload: dict, path) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if path is None:
        print(text)
    else:
        Path(path).write_text(text + "\n", encoding="utf-8")


def cmd_distance(args) -> int:
    a = Histogram(fileio.read_vector(args.a), normalize=args.normalize).weights
    b = Histogram(fileio.read_vector(args.b), normalize=args.normalize).weights
    if args.cost is not None:
        cost = fileio.read_matrix(args.cost)
    elif args.grid_1d is not None:
        if a.size != b.size:
            raise ValueError("--grid-1d needs histograms of equal length")
        cost = CostMatrix.squared_euclidean(
            grid_points_1d(a.size, args.grid_1d[0], args.grid_1d[1])
        ).entries
    else:
        raise ValueError("provide --cost FILE or --grid-1d LO HI")
    if cost.shape != (a.size, b.size):
        raise ValueError("cost shape does not match the histograms")
    if args.rescale_median:
        cost = rescale_median(cost)

    if args.epsilon == 0:
        res = exact_ot(a, b, cost)
        plan = res.coupling
        payload = {
            "value": res.value,
            "dual_value": float(res.row_duals @ a + res.col_duals @ b),
            "marginal_residuals": [
                float(np.abs(plan.sum(axis=1) - a).sum()),
                float(np.abs(plan.sum(axis=0) - b).sum()),
            ],
            "iterations": res.pivots,
            "restarts": 0,
            "epsilon": 0.0,
        }
        converged = True
    else:
        try:
            res = sinkhorn(a, b, cost, args.epsilon, tol=args.tol,
                           max_iter=args.max_iter)
        except IterationLimitError as exc:
            print(f"distance: {exc}", file=sys.stderr)
            return EXIT_NO_CONVERGENCE
        plan = res.coupling.matrix
        payload = {
            "value": primal_value(a, b, cost, args.epsilon, res.coupling),
            "dual_value": res.value,
            "marginal_residuals": [res.row_residual, res.col_residual],
            "iterations": res.iterations,
            "restarts": res.restarts,
            "epsilon": args.epsilon,
        }
        converged = True
    if args.dump_coupling:
        fileio.write_matrix(args.dump_coupling, plan)
    _json_out(payload, args.out)
    return EXIT_OK if converged else EXIT_NO_CONVERGENCE


def _load_barycenter_inputs(args, cfg):
    columns = []
    shape = None
    for path in args.inputs:
        w, s = _load_density(path, args.normalize)
        if s is not None:
            shape = s if shape is None else shape
            if s != shape:
                raise ValueError("all PGM inputs must share one grid shape")
        columns.append(w)
    sizes = {c.size for c in columns}
    if len(sizes) != 1:
        raise ValueError("all inputs must have the same length")
    bmat = np.column_stack(columns)
    n = bmat.shape[0]
    weights = np.asarray(cfg.get("weights", np.full(len(columns), 1.0 / len(columns))),
                         dtype=float)
    cost = _build_cost(cfg, n, shape, args.config)
    return bmat, weights, cost, shape


def _write_bary_outputs(args, hist, shape):
    fileio.write_vector(args.out_csv, hist)
    if args.out_pgm:
        if shape is None:
            raise ValueError("--out-pgm needs PGM (grid) inputs")
        fileio.write_pgm(args.out_pgm, np.asarray(hist).reshape(shape))


def cmd_barycenter(args) -> int:
    cfg = load_config(args.config, "barycenter")
    bmat, weights, cost, shape = _load_barycenter_inputs(args, cfg)
    problem = BarycenterProblem(bmat, weights, cost, float(cfg.get("epsilon", 1.0 / bmat.shape[0])))
    start = time.perf_counter()
    code = EXIT_OK
    try:
        hist, trace = solve_barycenter(
            problem,
            step_rule=cfg.get("step_rule", "fixed"),
            tol=float(cfg.get("tol", 1e-6)),
            max_iter=int(cfg.get("max_iter", 10_000)),
            tau=cfg.get("tau"),
        )
    except IterationLimitError as exc:
        hist, trace = exc.best
        code = EXIT_NO_CONVERGENCE
        print(f"barycenter: {exc}", file=sys.stderr)
    wall = time.perf_counter() - start
    _write_bary_outputs(args, hist.weights, shape)
    if args.summary:
        _json_out({
            "objective_trace": trace.objectives,
            "monitor_trace": trace.monitors,
            "iterations": trace.iterations,
            "converged": trace.converged,
            "wall_time": wall,
        }, args.summary)
    return code


def _make_operator(cfg, n, shape):
    spec = cfg.get("operator", "grid" if shape is not None else "identity")
    if spec == "grid":
        if shape is None:
            raise ConfigError("the grid operator needs PGM (grid) inputs")
        return grid_gradient(shape)
    if spec == "identity":
        return identity_operator(n)
    if isinstance(spec, dict) and spec.get("type") == "graph":
        return graph_gradient(spec["edges"], n)
    raise ConfigError(f"unknown operator spec {spec!r}")


def _make_regularizer(cfg):
    kind = cfg.get("regularizer")
    if kind is None:
        beta = int(cfg.get("beta", 2))
        if beta not in (1, 2):
            raise ConfigError("beta must be 1 or 2")
        kind = "tv_iso" if beta == 2 else "tv_aniso"
    if kind in ("tv_iso", "tv_aniso"):
        return make_regularizer(kind, lam=float(cfg.get("lambda", 0.0)))
    if kind == "quadratic":
        return make_regularizer(kind, lam=float(cfg["lambda"]))
    if kind == "box":
        return make_regularizer(kind, rho=float(cfg["rho"]))
    if kind == "pinned":
        return make_regularizer(kind, indices=cfg["indices"], values=cfg["values"])
    raise ConfigError(f"unknown regularizer {kind!r}")


def cmd_regbary(args) -> int:
    cfg = load_config(args.config, "regbary")
    bmat, weights, cost, shape = _load_barycenter_inputs(args, cfg)
    n = bmat.shape[0]
    problem = BarycenterProblem(bmat, weights, cost, float(cfg.get("epsilon", 1.0 / n)))
    op = _make_operator(cfg, n, shape)
    reg = _make_regularizer(cfg)
    start = time.perf_counter()
    code = EXIT_OK
    try:
        result = solve_regularized(
            problem, op, reg,
            accel=bool(cfg.get("accel", False)),
            tol=float(cfg.get("tol", 1e-7)),
            max_iter=int(cfg.get("max_iter", 20_000)),
            tau=cfg.get("tau"),
            full_output=True,
        )
    except IterationLimitError as exc:
        result = exc.best
        code = EXIT_NO_CONVERGENCE
        print(f"regbary: {exc}", file=sys.stderr)
    wall = time.perf_counter() - start
    _write_bary_outputs(args, result.barycenter.weights, shape)
    if args.summary:
        _json_out({
            "objective_trace": result.objectives,
            "iterations": result.iterations,
            "converged": result.converged,
            "step": result.step,
            "wall_time": wall,
        }, args.summary)
    return code


def cmd_flow(args) -> int:
    cfg = load_config(args.config, "flow")
    a0, shape = _load_density(args.initial, args.normalize)
    n = a0.size
    cost = _build_cost(cfg, n, shape, args.config)
    op = _make_operator(cfg, n, shape)
    reg = _make_regularizer(cfg)
    start = time.perf_counter()
    code = EXIT_OK
    try:
        result = run_flow(
            a0, int(cfg.get("steps", 1)), cost,
            float(cfg.get("epsilon", 1.0 / n)), float(cfg.get("tau", 0.1)),
            op, reg,
            tol=float(cfg.get("tol", 1e-7)),
            max_iter=int(cfg.get("max_iter", 20_000)),
            accel=bool(cfg.get("accel", True)),
        )
    except IterationLimitError as exc:
        print(f"flow: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    wall = time.perf_counter() - start
    trajectory = np.vstack([h.weights for h in result.iterates])
    fileio.write_matrix(args.out_csv, trajectory)
    if args.out_pgm:
        if shape is None:
            raise ValueError("--out-pgm needs a PGM (grid) initial density")
        fileio.write_pgm(args.out_pgm, trajectory[-1].reshape(shape))
    if args.summary:
        _json_out({
            "records": result.records,
            "steps": len(result.iterates),
            "wall_time": wall,
        }, args.summary)
    return code


def _load_points_file(path):
    data = fileio.read_matrix(path)
    if data.shape[1] < 2:
        raise ValueError(f"{path}: need coordinate columns plus a weight column")
    return data[:, :-1], data[:, -1]


def _make_source(cfg, args):
    if args.source is not None:
        pts, w = _load_points_file(args.source)
        total = w.sum()
        if total <= 0:
            raise ValueError("source weights must carry positive mass")
        return SampledMeasure(pts, w / total)
    spec = cfg.get("source")
    if spec is None:
        raise ConfigError("provide --source FILE or a config source spec")
    kind = spec.get("type")
    if kind == "grid1d":
        return SampledMeasure.uniform_grid_1d(
            int(spec["n"]), float(spec["lo"]), float(spec["hi"])
        )
    if kind == "uniform_random":
        rng = np.random.default_rng(int(spec.get("seed", cfg.get("seed", 0))))
        d = int(spec.get("d", 1))
        pts = rng.uniform(float(spec["lo"]), float(spec["hi"]), size=(int(spec["n"]), d))
        return SampledMeasure(pts, np.full(int(spec["n"]), 1.0 / int(spec["n"])))
    raise ConfigError(f"unknown source type {kind!r}")


def cmd_semidiscrete(args) -> int:
    cfg = load_config(args.config, "semidiscrete")
    source = _make_source(cfg, args)
    sites, masses = _load_points_file(args.target)
    target = DiscreteTarget(sites, masses)
    epsilon = float(cfg.get("epsilon", 0.0))
    start = time.perf_counter()
    code = EXIT_OK
    try:
        g, info = solve_semidiscrete(
            source, target, epsilon,
            step=cfg.get("step"),
            tol=float(cfg.get("tol", 1e-6)),
            max_iter=int(cfg.get("max_iter", 50_000)),
            full_output=True,
        )
    except IterationLimitError as exc:
        g = exc.best
        value, _ = semidiscrete_objective_grad(g, source, target, epsilon)
        info = {"iterations": exc.iterations, "grad_norm": exc.residual, "values": [value]}
        code = EXIT_NO_CONVERGENCE
        print(f"semidiscrete: {exc}", file=sys.stderr)
    wall = time.perf_counter() - start
    fileio.write_vector(args.out_csv, g)
    if args.summary:
        from .semidiscrete import laguerre_assign

        _, cells = laguerre_assign(g, source, target)
        _json_out({
            "dual_value": info["values"][-1],
            "grad_norm": info["grad_norm"],
            "iterations": info["iterations"],
            "cell_masses": cells.tolist(),
            "converged": code == EXIT_OK,
            "wall_time": wall,
        }, args.summary)
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smoothot",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("distance", help="entropic or exact transport distance")
    p.add_argument("--a", required=True, help="first histogram file")
    p.add_argument("--b", required=True, help="second histogram file")
    p.add_argument("--cost", help="cost matrix CSV")
    p.add_argument("--grid-1d", nargs=2, type=float, metavar=("LO", "HI"),
                   help="squared-Euclidean cost on a uniform 1-D grid")
    p.add_argument("--epsilon", type=float, required=True,
                   help="regularization strength (0 routes to the exact LP)")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--max-iter", type=int, default=10_000)
    p.add_argument("--rescale-median", action="store_true",
                   help="divide the cost by its median before solving")
    p.add_argument("--normalize", action="store_true",
                   help="normalize histograms on load instead of erroring")
    p.add_argument("--dump-coupling", metavar="FILE", help="write the plan as CSV")
    p.add_argument("--out", metavar="FILE", help="write the JSON summary here")
    p.set_defaults(func=cmd_distance)

    for name, func, extra in (
        ("barycenter", cmd_barycenter, "smooth-dual Wasserstein barycenter"),
        ("regbary", cmd_regbary, "regularized barycenter (TV and friends)"),
    ):
        p = sub.add_parser(name, help=extra)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--inputs", required=True, nargs="+",
                       help="input histograms (text or PGM)")
        p.add_argument("--out-csv", required=True, help="barycenter output file")
        p.add_argument("--out-pgm", help="optional PGM output (grid inputs)")
        p.add_argument("--summary", help="optional JSON run summary")
        p.add_argument("--normalize", action="store_true")
        p.set_defaults(func=func)

    p = sub.add_parser("flow", help="JKO gradient flow")
    p.add_argument("--config", required=True)
    p.add_argument("--initial", required=True, help="starting density (text or PGM)")
    p.add_argument("--out-csv", required=True, help="trajectory CSV (one row per step)")
    p.add_argument("--out-pgm", help="optional PGM of the final iterate")
    p.add_argument("--summary", help="optional JSON run summary")
    p.add_argument("--normalize", action="store_true")
    p.set_defaults(func=cmd_flow)

    p = sub.add_parser("semidiscrete", help="entropic semi-discrete transport")
    p.add_argument("--config", required=True)
    p.add_argument("--source", help="source samples CSV (coords..., weight)")
    p.add_argument("--target", required=True, help="target CSV (coords..., mass)")
    p.add_argument("--out-csv", required=True, help="dual potential output")
    p.add_argument("--summary", help="optional JSON run summary")
    p.set_defaults(func=cmd_semidiscrete)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
