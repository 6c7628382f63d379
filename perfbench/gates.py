"""Correctness gates: each checks one solver output independently of the package.

A gate raises GateError with the reason when the output is wrong; an operation
counts as a success only if its gate passes.  The checks use plain numpy (and
scipy's HiGHS for the transport LP), never the package's own routines.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

ROW_BLOCK = 256  # plan rows checked at a time, so a large plan adds no large temporaries
PLAN_RTOL = 1e-9  # Sinkhorn plan against the Gibbs plan of its potentials
BARY_MEAN_ATOL = 0.1  # criterion 5: Gaussian barycenter mean
BARY_STD_ATOL = 0.05  # criterion 5: Gaussian barycenter std
DESCENT_SLACK = 1e-6  # criterion 8: slack in the JKO descent inequality
FLOW_MASS_ATOL = 1e-8  # trajectory row mass off 1
LP_RTOL = 1e-8  # exact_ot value against the HiGHS optimum, relative to 1 + |optimum|
LP_MASS_ATOL = 1e-9  # exact_ot plan marginals, l1


class GateError(AssertionError):
    """A solver output failed its correctness gate."""


def _require(ok, message):
    if not ok:
        raise GateError(message)


def _row_blocks(n):
    for start in range(0, n, ROW_BLOCK):
        yield slice(start, min(start + ROW_BLOCK, n))


def check_sinkhorn(a, b, cost, epsilon, tol, plan, f, g, value):
    """Sinkhorn output: a feasible Gibbs plan of the potentials, no duality gap.

    - marginal residuals |P 1 - a|_1 and |P^T 1 - b|_1 are at most tol;
    - P = exp((f_i + g_j - C_ij)/eps) entrywise, to PLAN_RTOL;
    - the primal <P, C> - eps*H(P) at the plan matches both the dual
      <f,a> + <g,b> - eps*sum(P) at the potentials and the reported value,
      within (1 + max|f| + max|g|)*tol: for a Gibbs plan the gap equals
      <f, P 1 - a> + <g, P^T 1 - b>.
    Works in row blocks of ROW_BLOCK rows.
    """
    n, m = cost.shape
    _require(plan.shape == (n, m), f"plan shape {plan.shape} != cost shape {(n, m)}")
    row_sums = np.empty(n)
    col_sums = np.zeros(m)
    primal = 0.0
    gibbs_mass = 0.0
    worst = 0.0
    for rows in _row_blocks(n):
        p = plan[rows]
        c = cost[rows]
        _require(np.all(p >= 0) and np.all(np.isfinite(p)),
                 "plan has negative or non-finite entries")
        gibbs = np.exp((f[rows, None] + g[None, :] - c) / epsilon)
        worst = max(worst, float((np.abs(p - gibbs) / np.maximum(gibbs, 1e-300)).max()))
        row_sums[rows] = p.sum(axis=1)
        col_sums += p.sum(axis=0)
        logp = np.log(np.where(p > 0, p, 1.0))
        primal += float((p * c).sum() + epsilon * (p * (logp - 1.0)).sum())
        gibbs_mass += float(gibbs.sum())
    row_res = float(np.abs(row_sums - a).sum())
    col_res = float(np.abs(col_sums - b).sum())
    _require(row_res <= tol and col_res <= tol,
             f"marginal residuals {row_res:.3e}, {col_res:.3e} exceed tol {tol:.1e}")
    _require(worst <= PLAN_RTOL, f"plan differs from the potentials' Gibbs plan by {worst:.2e}")
    dual = float(f @ a + g @ b) - epsilon * gibbs_mass
    bound = (1.0 + float(np.abs(f).max()) + float(np.abs(g).max())) * tol
    _require(abs(primal - dual) <= bound,
             f"duality gap {primal - dual:.3e} exceeds {bound:.1e}")
    _require(abs(primal - value) <= bound,
             f"reported value {value!r} differs from the primal {primal!r}")


def gaussian_moments(grid, weights):
    mean = float(grid @ weights)
    std = float(np.sqrt(((grid - mean) ** 2) @ weights))
    return mean, std


def check_gaussian_barycenter(grid, weights, mean, std):
    """Recovered mean and std within the acceptance tolerances (criterion 5)."""
    w = np.asarray(weights, dtype=float)
    _require(np.all(w >= 0) and abs(w.sum() - 1.0) <= 1e-10, "barycenter is not on the simplex")
    got_mean, got_std = gaussian_moments(grid, w)
    _require(abs(got_mean - mean) <= BARY_MEAN_ATOL,
             f"barycenter mean {got_mean:.4f}, expected {mean:.4f} +- {BARY_MEAN_ATOL}")
    _require(abs(got_std - std) <= BARY_STD_ATOL,
             f"barycenter std {got_std:.4f}, expected {std:.4f} +- {BARY_STD_ATOL}")


def check_flow(returncode, summary, trajectory, steps, size):
    """CLI exit code 0, per-step descent, and trajectory rows on the simplex.

    Descent: objective_new <= objective_prev + DESCENT_SLACK in every summary
    record (the JKO argmin inequality, with the criterion-8 slack).
    """
    _require(returncode == 0, f"smoothot flow exited with code {returncode}")
    records = summary.get("records", [])
    _require(len(records) == steps, f"{len(records)} descent records for {steps} steps")
    for k, rec in enumerate(records):
        _require(rec["objective_new"] <= rec["objective_prev"] + DESCENT_SLACK,
                 f"step {k}: objective rose from {rec['objective_prev']!r} "
                 f"to {rec['objective_new']!r}")
    traj = np.atleast_2d(np.asarray(trajectory, dtype=float))
    _require(traj.shape == (steps, size), f"trajectory shape {traj.shape} != {(steps, size)}")
    _require(np.all(traj >= 0), "trajectory has negative entries")
    worst = float(np.abs(traj.sum(axis=1) - 1.0).max())
    _require(worst <= FLOW_MASS_ATOL, f"trajectory row mass off by {worst:.3e}")


def check_semidiscrete(points, weights, sites, masses, epsilon, g, tol):
    """Sup-norm of the dual gradient b - (smoothed cell masses) <= tol."""
    sq = ((points[:, None, :] - sites[None, :, :]) ** 2).sum(axis=2)
    s = (np.asarray(g)[None, :] - sq) / epsilon
    s -= s.max(axis=1, keepdims=True)
    e = np.exp(s)
    cells = weights @ (e / e.sum(axis=1, keepdims=True))
    grad = float(np.abs(masses - cells).max())
    _require(grad <= tol + 1e-13, f"final gradient norm {grad:.3e} exceeds tol {tol:.1e}")


def transport_lp_value(a, b, cost):
    """Optimal value of the transportation LP by scipy's HiGHS."""
    n, m = cost.shape
    rows = np.concatenate([np.repeat(np.arange(n), m), n + np.tile(np.arange(m), n)])
    cols = np.concatenate([np.arange(n * m), np.arange(n * m)])
    a_eq = sparse.csr_matrix((np.ones(2 * n * m), (rows, cols)), shape=(n + m, n * m))
    res = linprog(cost.ravel(), A_eq=a_eq, b_eq=np.concatenate([a, b]),
                  bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"reference LP failed: {res.message}")
    return float(res.fun)


def check_exact_ot(a, b, cost, plan, value, reference):
    """Feasible plan whose cost is the reported value and the LP optimum."""
    _require(np.all(plan >= 0), "plan has negative entries")
    row = float(np.abs(plan.sum(axis=1) - a).sum())
    col = float(np.abs(plan.sum(axis=0) - b).sum())
    _require(row <= LP_MASS_ATOL and col <= LP_MASS_ATOL,
             f"plan marginals off by {row:.3e}, {col:.3e}")
    scale = 1.0 + abs(reference)
    _require(abs(float((plan * cost).sum()) - value) <= LP_RTOL * scale,
             "reported value is not the cost of the returned plan")
    _require(abs(value - reference) <= LP_RTOL * scale,
             f"exact_ot value {value!r} differs from the HiGHS optimum {reference!r}")
