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
    rescale_median,
)
from .entropic import DEFAULT_MAX_ITER, DEFAULT_TOL, primal_value, sinkhorn
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
    laguerre_assign,
    solve_semidiscrete,
)

EXIT_OK = 0
EXIT_DATA = 1
EXIT_CONFIG = 2
EXIT_NO_CONVERGENCE = 3


class ConfigError(ValueError):
    pass


# a key's schema is a type, a tuple of types, or a dict checked like the config
_NUMBER = (int, float)
_SOLVER_KEYS = {"epsilon": _NUMBER, "tol": _NUMBER, "max_iter": int}
_COST_KEYS = {"cost": {"type": str, "path": str, "lo": _NUMBER, "hi": _NUMBER,
                       "h": int, "w": int},
              "rescale_median": bool}
# the regularizer and its forward-backward solver, shared by regbary and flow
_REGULARIZED_KEYS = {"lambda": _NUMBER, "beta": int, "regularizer": str,
                     "rho": _NUMBER, "indices": list, "values": list,
                     "operator": (str, {"type": str, "edges": list}),
                     "accel": bool}
_CONFIG_SCHEMAS = {
    "barycenter": {**_SOLVER_KEYS, **_COST_KEYS, "weights": list, "step_rule": str},
    "regbary": {**_SOLVER_KEYS, **_COST_KEYS, **_REGULARIZED_KEYS,
                "weights": list},
    "flow": {**_SOLVER_KEYS, **_COST_KEYS, **_REGULARIZED_KEYS, "steps": int,
             "tau": _NUMBER},
    "semidiscrete": {**_SOLVER_KEYS, "step": _NUMBER,
                     "source": {"type": str, "n": int, "lo": _NUMBER, "hi": _NUMBER,
                                "d": int, "seed": int}},
}


class _Section(dict):
    """A config object whose missing keys are config errors naming the key."""

    def __init__(self, items, prefix=""):
        super().__init__((k, _Section(v, f"{prefix}{k}.") if isinstance(v, dict) else v)
                         for k, v in items.items())
        self.prefix = prefix

    def __missing__(self, key):
        raise ConfigError(f"missing config key {self.prefix}{key}")


def load_config(path, command: str) -> dict:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    bad = _offending_keys(raw, _CONFIG_SCHEMAS[command])
    if bad:
        raise ConfigError(f"{path}: offending config keys: " + ", ".join(sorted(bad)))
    return _Section(raw)


def _offending_keys(raw: dict, schema: dict, prefix: str = "") -> list:
    """The keys of `raw` (dotted below nested objects) unknown to `schema` or mistyped."""
    bad = []
    for key, value in raw.items():
        if key not in schema:
            bad.append(f"{prefix}{key} (unknown key)")
            continue
        expected = schema[key] if isinstance(schema[key], tuple) else (schema[key],)
        nested = next((t for t in expected if isinstance(t, dict)), None)
        if nested is not None and isinstance(value, dict):
            bad += _offending_keys(value, nested, f"{prefix}{key}.")
            continue
        types = tuple(dict if isinstance(t, dict) else t for t in expected)
        # bool is an int subclass; reject it for numeric keys
        if not isinstance(value, types) or (isinstance(value, bool) and bool not in types):
            names = "/".join(t.__name__ for t in types)
            bad.append(f"{prefix}{key} (expected {names})")
    return bad


def _solver_kw(cfg, *keys) -> dict:
    """The config's values for the solver keywords `keys`; solver defaults fill the rest."""
    # only tol is cast (an int tol reaches the solver as a float); the rest pass as typed
    return {k: float(cfg[k]) if k == "tol" else cfg[k] for k in keys if k in cfg}


def _load_densities(args, paths):
    """The weights of histogram files (.pgm or text) and their grid shape (or None)."""
    columns, shapes = [], set()
    for path in map(Path, paths):
        if path.suffix.lower() == ".pgm":
            values, shape = fileio.read_pgm(path)
            shapes.add(shape)
        else:
            values = Histogram(fileio.read_vector(path), normalize=args.normalize).weights
        columns.append(values.ravel())
    if len(shapes) > 1:
        raise ValueError("all PGM inputs must share one grid shape")
    shape = shapes.pop() if shapes else None
    if args.out_pgm and shape is None:  # checked here, before any solve
        raise ValueError("--out-pgm needs PGM (grid) inputs")
    return columns, shape


def _build_cost(cfg, n: int, shape, path_hint: str):
    """The config's cost for n bins, divided by its median if `rescale_median`."""
    spec = cfg.get("cost")
    if spec is None:
        if shape is None:
            raise ConfigError(f"{path_hint}: a cost spec is required for non-grid inputs")
        cost = GridCost2D(*shape)
    elif spec.get("type") == "file":
        cost = fileio.read_matrix(spec["path"])
    elif spec.get("type") == "grid1d":
        cost = CostMatrix.squared_euclidean(grid_points_1d(n, spec["lo"], spec["hi"])).entries
    elif spec.get("type") == "grid2d":
        h, w = spec["h"], spec["w"]
        if h * w != n:
            raise ConfigError("grid2d dimensions do not match the data size")
        cost = GridCost2D(h, w)
    else:
        raise ConfigError(f"unknown cost type {spec.get('type')!r}")
    return rescale_median(cost) if cfg.get("rescale_median", False) else cost


def _run(args, solve, write, summarize) -> int:
    """Time solve(), write its outputs and the summary, and return the exit code.

    The summary is `summarize(result)` plus `converged` and `wall_time`; it
    goes to the file `args.summary`, to stdout if that is "-", and nowhere if
    it is None.  On IterationLimitError: report it, exit 3, and write from
    `exc.best`, the solver's own result record.
    """
    start = time.perf_counter()
    try:
        result, code = solve(), EXIT_OK
    except IterationLimitError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        result, code = exc.best, EXIT_NO_CONVERGENCE
    wall = time.perf_counter() - start
    write(result)
    if args.summary:
        text = json.dumps({**summarize(result), "converged": code == EXIT_OK,
                           "wall_time": wall}, indent=2, sort_keys=True)
        if args.summary == "-":
            print(text)
        else:
            Path(args.summary).write_text(text + "\n", encoding="utf-8")
    return code


def _write_pgm(args, values, shape) -> None:
    if args.out_pgm:
        fileio.write_pgm(args.out_pgm, np.asarray(values).reshape(shape))


def cmd_distance(args) -> int:
    a = Histogram(fileio.read_vector(args.a), normalize=args.normalize).weights
    b = Histogram(fileio.read_vector(args.b), normalize=args.normalize).weights
    if args.cost is not None:
        spec = {"type": "file", "path": args.cost}
    elif args.grid_1d is not None:
        spec = {"type": "grid1d", "lo": args.grid_1d[0], "hi": args.grid_1d[1]}
    else:
        raise ValueError("provide --cost FILE or --grid-1d LO HI")
    # the solvers reject a cost whose shape does not match the histograms
    cost = _build_cost({"cost": spec, "rescale_median": args.rescale_median},
                       a.size, None, "distance")
    eps = args.epsilon

    def solve():
        if eps == 0:
            return exact_ot(a, b, cost)
        return sinkhorn(a, b, cost, eps, **_solver_kw(vars(args), "tol", "max_iter"))

    def write(out):
        # no plan on exit 3: an unconverged plan may miss the marginals
        if args.dump_coupling and (eps == 0 or out.converged):
            fileio.write_matrix(args.dump_coupling,
                                out.coupling if eps == 0 else out.coupling.matrix)

    def summarize(out):
        if eps == 0:
            plan = out.coupling
            return {"value": out.value,
                    "dual_value": float(out.row_duals @ a + out.col_duals @ b),
                    "marginal_residuals": [float(np.abs(plan.sum(axis=1) - a).sum()),
                                           float(np.abs(plan.sum(axis=0) - b).sum())],
                    "iterations": out.pivots, "restarts": 0, "epsilon": 0.0}
        if not out.converged:
            return {"dual_value": out.value, "iterations": out.iterations,
                    "residual": max(out.row_residual, out.col_residual), "epsilon": eps}
        return {"value": primal_value(a, b, cost, eps, out.coupling),
                "dual_value": out.value,
                "marginal_residuals": [out.row_residual, out.col_residual],
                "iterations": out.iterations, "restarts": out.restarts,
                "epsilon": eps}

    return _run(args, solve, write, summarize)


def _load_barycenter_problem(args, cfg):
    """The problem over the input histograms, and their grid shape (or None)."""
    columns, shape = _load_densities(args, args.inputs)
    if len({c.size for c in columns}) != 1:
        raise ValueError("all inputs must have the same length")
    bmat = np.column_stack(columns)
    n = bmat.shape[0]
    weights = np.asarray(cfg.get("weights", np.full(len(columns), 1.0 / len(columns))),
                         dtype=float)
    cost = _build_cost(cfg, n, shape, args.config)
    return BarycenterProblem(bmat, weights, cost, float(cfg.get("epsilon", 1.0 / n))), shape


def _write_barycenter(args, hist, shape) -> None:
    fileio.write_vector(args.out_csv, hist.weights)
    _write_pgm(args, hist.weights, shape)


def cmd_barycenter(args) -> int:
    cfg = load_config(args.config, args.command)
    problem, shape = _load_barycenter_problem(args, cfg)
    return _run(
        args,
        lambda: solve_barycenter(
            problem, **_solver_kw(cfg, "step_rule", "tol", "max_iter")),
        write=lambda out: _write_barycenter(args, out[0], shape),
        summarize=lambda out: {"objective_trace": out[1].objectives,
                               "monitor_trace": out[1].monitors,
                               "iterations": out[1].iterations},
    )


def _make_regularized(cfg, n, shape):
    """The operator A and the regularizer J of a regbary or flow config."""
    spec = cfg.get("operator", "grid" if shape is not None else "identity")
    if spec == "grid":
        if shape is None:
            raise ConfigError("the grid operator needs PGM (grid) inputs")
        op = grid_gradient(shape)
    elif spec == "identity":
        op = identity_operator(n)
    elif isinstance(spec, dict) and spec.get("type") == "graph":
        op = graph_gradient(spec["edges"], n)
    else:
        raise ConfigError(f"unknown operator spec {spec!r}")
    kind = cfg.get("regularizer")
    if kind is None:
        beta = int(cfg.get("beta", 2))
        if beta not in (1, 2):
            raise ConfigError("beta must be 1 or 2")
        kind = "tv_iso" if beta == 2 else "tv_aniso"
    if kind in ("tv_iso", "tv_aniso"):
        return op, make_regularizer(kind, lam=float(cfg.get("lambda", 0.0)))
    if kind == "quadratic":
        return op, make_regularizer(kind, lam=float(cfg["lambda"]))
    if kind == "box":
        return op, make_regularizer(kind, rho=float(cfg["rho"]))
    if kind == "pinned":
        return op, make_regularizer(kind, indices=cfg["indices"], values=cfg["values"])
    raise ConfigError(f"unknown regularizer {kind!r}")


def cmd_regbary(args) -> int:
    cfg = load_config(args.config, args.command)
    problem, shape = _load_barycenter_problem(args, cfg)
    op, reg = _make_regularized(cfg, problem.size, shape)
    return _run(
        args,
        lambda: solve_regularized(
            problem, op, reg, **_solver_kw(cfg, "accel", "tol", "max_iter"),
            full_output=True),
        write=lambda out: _write_barycenter(args, out.barycenter, shape),
        summarize=lambda out: {"objective_trace": out.objectives,
                               "iterations": out.iterations, "step": out.step},
    )


def _write_trajectory(args, result, shape) -> None:
    trajectory = np.vstack([h.weights for h in result.iterates])
    fileio.write_matrix(args.out_csv, trajectory)
    _write_pgm(args, trajectory[-1], shape)


def cmd_flow(args) -> int:
    cfg = load_config(args.config, args.command)
    (a0,), shape = _load_densities(args, [args.initial])
    n = a0.size
    cost = _build_cost(cfg, n, shape, args.config)
    op, reg = _make_regularized(cfg, n, shape)
    return _run(
        args,
        lambda: run_flow(
            a0, int(cfg.get("steps", 1)), cost,
            float(cfg.get("epsilon", 1.0 / n)), float(cfg.get("tau", 0.1)),
            op, reg, **_solver_kw(cfg, "tol", "max_iter", "accel")),
        write=lambda out: _write_trajectory(args, out, shape),
        summarize=lambda out: {"records": out.records, "steps": len(out.iterates)},
    )


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
    if kind not in ("grid1d", "uniform_random"):
        raise ConfigError(f"unknown source type {kind!r}")
    n, lo, hi = spec["n"], spec["lo"], spec["hi"]
    if kind == "grid1d":
        return SampledMeasure.uniform_grid_1d(n, lo, hi)
    rng = np.random.default_rng(spec.get("seed", 0))
    pts = rng.uniform(lo, hi, size=(n, spec.get("d", 1)))
    return SampledMeasure(pts, np.full(n, 1.0 / n))


def cmd_semidiscrete(args) -> int:
    cfg = load_config(args.config, args.command)
    source = _make_source(cfg, args)
    target = DiscreteTarget(*_load_points_file(args.target))
    epsilon = float(cfg.get("epsilon", 0.0))

    def summarize(out):
        g, info = out
        return {"dual_value": info["values"][-1], "grad_norm": info["grad_norm"],
                "iterations": info["iterations"],
                "cell_masses": laguerre_assign(g, source, target)[1].tolist()}

    return _run(
        args,
        lambda: solve_semidiscrete(
            source, target, epsilon, tol=float(cfg.get("tol", 1e-6)),
            **_solver_kw(cfg, "step", "max_iter"), full_output=True),
        write=lambda out: fileio.write_vector(args.out_csv, out[0]),
        summarize=summarize,
    )


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
    # --tol and --max-iter reach sinkhorn only when given
    p.add_argument("--tol", type=float, default=argparse.SUPPRESS,
                   help=f"l1 marginal tolerance (default {DEFAULT_TOL:g})")
    p.add_argument("--max-iter", type=int, default=argparse.SUPPRESS,
                   help=f"sweep budget (default {DEFAULT_MAX_ITER})")
    p.add_argument("--rescale-median", action="store_true",
                   help="divide the cost by its median before solving")
    p.add_argument("--normalize", action="store_true",
                   help="normalize histograms on load instead of erroring")
    p.add_argument("--dump-coupling", metavar="FILE", help="write the plan as CSV")
    p.add_argument("--out", dest="summary", default="-", metavar="FILE",
                   help="write the JSON summary here (default: stdout)")
    p.set_defaults(func=cmd_distance)

    # arguments shared by the config commands, declared once
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", required=True, help="JSON config file")
    config.add_argument("--out-csv", required=True, help="output CSV: the barycenter, "
                        "the flow trajectory (one row per step) or the dual potential")
    config.add_argument("--summary", help="optional JSON run summary")
    densities = argparse.ArgumentParser(add_help=False, parents=[config])
    densities.add_argument("--out-pgm", help="optional PGM of the result (grid inputs)")
    densities.add_argument("--normalize", action="store_true")

    for name, func, extra in (
        ("barycenter", cmd_barycenter, "smooth-dual Wasserstein barycenter"),
        ("regbary", cmd_regbary, "regularized barycenter (TV and friends)"),
    ):
        p = sub.add_parser(name, parents=[densities], help=extra)
        p.add_argument("--inputs", required=True, nargs="+",
                       help="input histograms (text or PGM)")
        p.set_defaults(func=func)

    p = sub.add_parser("flow", parents=[densities], help="JKO gradient flow")
    p.add_argument("--initial", required=True, help="starting density (text or PGM)")
    p.set_defaults(func=cmd_flow)

    p = sub.add_parser("semidiscrete", parents=[config],
                       help="entropic semi-discrete transport")
    p.add_argument("--source", help="source samples CSV (coords..., weight)")
    p.add_argument("--target", required=True, help="target CSV (coords..., mass)")
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
