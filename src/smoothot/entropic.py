"""Entropic optimal transport between two histograms.

Log-domain Sinkhorn iterations built from soft c-transforms, plus the primal
and dual objective values.  Iterations act on the potentials (f, g) directly,
never on the scaling vectors, so small epsilon does not overflow.  A sweep on
a dense cost makes 2 log-sum-exp reductions: each c-transform's reduction also
gives one marginal of the plan, so the residual check costs none of its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    Coupling,
    FeasibilityError,
    GridCost2D,
    IterationLimitError,
    Potentials,
    as_cost,
    as_weights,
    entropy,
    grid_kernel_apply,
    logsumexp,
)

DEFAULT_TOL = 1e-9          # l1 marginal violation per unit of mass
DEFAULT_MAX_ITER = 10_000


def ctransform_of_f(f, b, cost, epsilon: float) -> np.ndarray:
    """Soft c-transform of f: eps*log(b_j) + softmin_eps(C[:, j] - f).

    At eps = 0 the log term vanishes by convention and the transform is the
    plain column minimum.  Coordinates with b_j = 0 and eps > 0 come back as
    -inf sentinels; callers must treat those points as inactive.
    """
    fv = np.asarray(f, dtype=float)
    bw = np.asarray(b.weights if hasattr(b, "weights") else b, dtype=float)
    c = as_cost(cost)
    if fv.size != c.shape[0] or bw.size != c.shape[1]:
        raise ValueError("shape mismatch between f, b and the cost")
    s = c - fv[:, None]
    if epsilon == 0:
        return s.min(axis=0)
    with np.errstate(divide="ignore"):
        return epsilon * np.log(bw) - epsilon * logsumexp(-s / epsilon, axis=0)


def ctransform_of_g(g, a, cost, epsilon: float) -> np.ndarray:
    """Mirror transform of g along the rows: eps*log(a_i) + softmin_eps(C[i, :] - g)."""
    gv = np.asarray(g, dtype=float)
    aw = np.asarray(a.weights if hasattr(a, "weights") else a, dtype=float)
    c = as_cost(cost)
    if gv.size != c.shape[1] or aw.size != c.shape[0]:
        raise ValueError("shape mismatch between g, a and the cost")
    s = c - gv[None, :]
    if epsilon == 0:
        return s.min(axis=1)
    with np.errstate(divide="ignore"):
        return epsilon * np.log(aw) - epsilon * logsumexp(-s / epsilon, axis=1)


def log_coupling(f, g, cost, epsilon: float) -> np.ndarray:
    """log P = (f + g - C)/eps for the plan implied by a pair of potentials."""
    c = as_cost(cost)
    return (np.asarray(f)[:, None] + np.asarray(g)[None, :] - c) / epsilon


def dual_value(f, g, a, b, cost, epsilon: float) -> float:
    """Dual objective <f,a> + <g,b> - eps * sum exp((f + g - C)/eps)."""
    aw = as_weights(a, "a")
    bw = as_weights(b, "b")
    lp = log_coupling(f, g, cost, epsilon)
    return float(np.dot(f, aw) + np.dot(g, bw) - epsilon * np.exp(logsumexp(lp)))


def primal_value(a, b, cost, epsilon: float, coupling) -> float:
    """Regularized primal objective <P, C> - eps*H(P) at a feasible plan."""
    aw = as_weights(a, "a")
    bw = as_weights(b, "b")
    p = coupling.matrix if isinstance(coupling, Coupling) else np.asarray(coupling, float)
    c = as_cost(cost)
    if p.shape != c.shape:
        raise ValueError("coupling and cost shapes differ")
    row = np.abs(p.sum(axis=1) - aw).sum()
    col = np.abs(p.sum(axis=0) - bw).sum()
    if row > 1e-6 or col > 1e-6:
        raise FeasibilityError(
            f"coupling marginals violate feasibility (l1 residuals {row:.2e}, {col:.2e})"
        )
    value = float((p * c).sum())
    if epsilon > 0:
        value -= epsilon * entropy(p)
    return value


@dataclass(frozen=True)
class SinkhornResult:
    potentials: Potentials
    coupling: Coupling
    value: float
    iterations: int
    row_residual: float
    col_residual: float


def sinkhorn(a, b, cost, epsilon: float, *, tol: float = DEFAULT_TOL,
             max_iter: int = DEFAULT_MAX_ITER, f0=None) -> SinkhornResult:
    """Block-coordinate dual ascent by alternating soft c-transforms.

    Parameters
    ----------
    a, b : histograms (zero-mass bins are stripped and reinserted as zero
        rows/columns of the plan)
    cost : ground cost matrix
    epsilon : regularization strength, > 0
    tol : l1 marginal violation of the implied plan, checked every sweep
    max_iter : sweep budget; exceeding it raises IterationLimitError
    f0 : optional warm start for the first potential

    Returns the potentials (with g = c-transform of f), the implied plan
    diag(e^{f/eps}) K diag(e^{g/eps}), and the dual objective value.
    """
    if not epsilon > 0:
        raise ValueError("sinkhorn requires epsilon > 0")
    if not tol > 0:
        raise ValueError("tol must be positive")
    aw = as_weights(a, "a")
    bw = as_weights(b, "b")
    c = as_cost(cost)
    if c.shape != (aw.size, bw.size):
        raise ValueError("cost shape does not match the marginals")

    rows = np.flatnonzero(aw > 0)
    cols = np.flatnonzero(bw > 0)
    stripped = rows.size < aw.size or cols.size < bw.size
    ar, br = aw[rows], bw[cols]
    cr = c[np.ix_(rows, cols)]
    # the separable kernel is symmetric, so both transforms share one helper
    grid = cost if isinstance(cost, GridCost2D) and not stripped else None

    f = np.zeros(ar.size) if f0 is None else np.asarray(f0, dtype=float)[rows]
    la, lb = np.log(ar), np.log(br)
    lc = None if grid is not None else -cr / epsilon
    g = np.zeros(br.size)
    if grid is None:
        log_kf = logsumexp(lc + f[:, None] / epsilon, axis=0)
    iterations = 0
    row_res = col_res = np.inf
    for iterations in range(1, max_iter + 1):
        # one full sweep: column transform then row transform, in log domain
        if grid is not None:
            g = epsilon * (lb - grid_kernel_apply(f / epsilon, grid, epsilon).ravel())
            applied_g = grid_kernel_apply(g / epsilon, grid, epsilon).ravel()
            f = epsilon * (la - applied_g)
            applied_f = grid_kernel_apply(f / epsilon, grid, epsilon).ravel()
            row_res = float(np.abs(np.exp(f / epsilon + applied_g) - ar).sum())
            col_res = float(np.abs(np.exp(g / epsilon + applied_f) - br).sum())
        else:
            # log_kf is both this sweep's column residual and the next g-update
            g = epsilon * (lb - log_kf)
            log_kg = logsumexp(lc + g[None, :] / epsilon, axis=1)
            f = epsilon * (la - log_kg)
            log_kf = logsumexp(lc + f[:, None] / epsilon, axis=0)
            row_res = float(np.abs(np.exp(f / epsilon + log_kg) - ar).sum())
            col_res = float(np.abs(np.exp(g / epsilon + log_kf) - br).sum())
        if row_res <= tol and col_res <= tol:
            break
    else:
        raise IterationLimitError(
            f"sinkhorn did not reach tol={tol:g} in {max_iter} sweeps",
            best=(f, g),
            residual=max(row_res, col_res),
            iterations=max_iter,
        )

    if stripped:
        # zero-mass bins get the transform value sans the vanishing log term
        f_full = np.empty(aw.size)
        g_full = np.empty(bw.size)
        f_full[rows] = f
        g_full[cols] = g
        off_rows = np.setdiff1d(np.arange(aw.size), rows)
        off_cols = np.setdiff1d(np.arange(bw.size), cols)
        if off_rows.size:
            s = c[np.ix_(off_rows, cols)] - g[None, :]
            f_full[off_rows] = -epsilon * logsumexp(-s / epsilon, axis=1)
        if off_cols.size:
            s = c[np.ix_(rows, off_cols)] - f[:, None]
            g_full[off_cols] = -epsilon * logsumexp(-s / epsilon, axis=0)
        plan = np.zeros_like(c)
        plan[np.ix_(rows, cols)] = np.exp(lc + (f[:, None] + g[None, :]) / epsilon)
        f, g = f_full, g_full
    else:
        if lc is None:
            lc = -cr / epsilon  # plan is materialized densely just once
        plan = np.exp(lc + (f[:, None] + g[None, :]) / epsilon)

    value = dual_value(f, g, aw, bw, c, epsilon)
    return SinkhornResult(
        potentials=Potentials(f, g),
        coupling=Coupling(plan, aw, bw),
        value=value,
        iterations=iterations,
        row_residual=row_res,
        col_residual=col_res,
    )


def transport_cost(coupling, cost) -> float:
    """Linear transport cost <P, C> of a plan."""
    p = coupling.matrix if isinstance(coupling, Coupling) else np.asarray(coupling, float)
    return float((p * as_cost(cost)).sum())
