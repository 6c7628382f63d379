"""Entropic optimal transport between two histograms.

Log-domain Sinkhorn iterations built from soft c-transforms, plus the primal
and dual objective values.  Iterations act on the potentials (f, g) directly,
never on the scaling vectors, so small epsilon does not overflow.  A sweep on
a dense cost makes 2 log-sum-exp reductions: each c-transform's reduction also
gives one marginal of the plan, so the residual check costs none of its own.
A sweep on a GridCost2D makes 3 `grid_kernel_apply` calls.  Sweeps are
overrelaxed, g <- g + w (T_b(f) - g) and then f <- f + w (T_a(g) - f), with
w = 1 for the first 20 sweeps and then w = min(cap, 2/(1 + sqrt(1 - theta)))
from the contraction rate theta of the marginal residual at w = 1.  A sweep
whose residual is not finite or exceeds 10x the best so far is undone and the
cap lowered; the check reads the residuals the sweep computes anyway, so the
safeguard costs no kernel apply.  A solve ends on a sweep at w = 1, so the
plan's row marginal is a to rounding and its mass is 1.  The value comes from
the last sweep's row marginal and the plan is a factored `Coupling.gibbs`, so
on a grid no n^2 array exists unless the plan's matrix is asked for.  A
zero-mass bin is a log 0 = -inf mask in the kernel input on either cost path.
`_log_kernels`, shared with `legendre`, holds the package's one kernel switch
on the cost's structure.  On a symmetric cost, `symmetric_potential` finds
the self-transport potential of W_eps(a, a) by an averaged fixed point, as
a warm start for `sinkhorn`.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .core import (
    Coupling,
    FeasibilityError,
    GridCost2D,
    IterationLimitError,
    Potentials,
    as_cost,
    as_kernel_cost,
    as_weights,
    entropy,
    grid_kernel_apply,
    logsumexp,
)

DEFAULT_TOL = 1e-9          # l1 marginal violation per unit of mass
DEFAULT_MAX_ITER = 10_000

# overrelaxation schedule of `sinkhorn`
_WARMUP_SWEEPS = 20     # sweeps at omega = 1 before omega is first set
_RATE_WINDOW = 10       # sweeps over which the contraction rate is measured
_OMEGA_CAP = 1.95       # starting cap on omega; each restart halves omega - 1
_REJECT = 10.0          # undo a sweep whose residual exceeds this x the best


def _log_kernels(cost, epsilon):
    """(x -> log K^T e^x, x -> log K e^x), K = exp(-C/eps), x a vector or (N, n) stack.

    The package's one switch on the cost's structure: a GridCost2D runs this
    module's `grid_kernel_apply` once per vector (its kernel is symmetric, so
    both directions are one function), a dense cost, given as its validated
    entries, one broadcast `logsumexp`.
    """
    if isinstance(cost, GridCost2D):
        def apply(x):
            if x.ndim == 1:
                return grid_kernel_apply(x, cost, epsilon).ravel()
            return np.array([grid_kernel_apply(r, cost, epsilon).ravel() for r in x])
        return apply, apply
    lc = -cost / epsilon
    return (lambda x: logsumexp(lc + x[..., :, None], axis=-2),
            lambda x: logsumexp(lc + x[..., None, :], axis=-1))


def _log_mask(w):
    """log of the support indicator of w: 0 where w > 0, -inf elsewhere."""
    return np.where(w > 0, 0.0, -np.inf)


def ctransform_of_f(f, b, cost, epsilon: float) -> np.ndarray:
    """Soft c-transform of f: eps*log(b_j) + softmin_eps(C[:, j] - f).

    For eps > 0 it is eps*log b - eps*log K^T e^{f/eps}, one kernel apply, so
    a GridCost2D builds no entries; at eps = 0 the plain column minimum.
    Coordinates with b_j = 0 and eps > 0 come back as -inf sentinels;
    callers must treat those points as inactive.  The row transform of g
    against a is ctransform_of_f(g, a, C.T, eps).
    """
    if not epsilon >= 0:
        raise ValueError("the c-transform requires epsilon >= 0")
    fv = np.asarray(f, dtype=float)
    bw = np.asarray(b.weights if hasattr(b, "weights") else b, dtype=float)
    c = as_kernel_cost(cost)
    if fv.size != c.shape[0] or bw.size != c.shape[1]:
        raise ValueError("shape mismatch between f, b and the cost")
    if epsilon == 0:
        return (as_cost(c) - fv[:, None]).min(axis=0)
    with np.errstate(divide="ignore"):
        return epsilon * np.log(bw) - epsilon * _log_kernels(c, epsilon)[0](fv / epsilon)


def dual_value(f, g, a, b, cost, epsilon: float) -> float:
    """Dual objective <f,a> + <g,b> - eps * sum exp((f + g - C)/eps).

    The mass term is sum_i exp(f_i/eps + ma_i + log(K e^{g/eps + mb})_i), from
    one log-kernel apply, with the masks ma, mb = 0 on the support of a, b
    and -inf off it, so zero bins carry no mass, as in `sinkhorn`.  This is
    the dual maximised over the zero-bin coordinates, so it is still a lower
    bound on the primal value.
    """
    if not epsilon > 0:
        raise ValueError("dual_value requires epsilon > 0")
    aw = as_weights(a, "a")
    bw = as_weights(b, "b")
    c = as_kernel_cost(cost)
    if c.shape != (aw.size, bw.size):
        raise ValueError("cost shape does not match the marginals")
    fv = np.asarray(f, dtype=float)
    gv = np.asarray(g, dtype=float)
    log_kg = _log_kernels(c, epsilon)[1](gv / epsilon + _log_mask(bw))
    mass = np.exp(fv / epsilon + _log_mask(aw) + log_kg).sum()
    return float(np.dot(fv, aw) + np.dot(gv, bw) - epsilon * mass)


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
    restarts: int = 0


def sinkhorn(a, b, cost, epsilon: float, *, tol: float = DEFAULT_TOL,
             max_iter: int = DEFAULT_MAX_ITER, f0=None) -> SinkhornResult:
    """Overrelaxed block-coordinate dual ascent by alternating soft c-transforms.

    Parameters
    ----------
    a, b : histograms, zero bins allowed (a zero row/column of the plan)
    cost : ground cost matrix or GridCost2D
    epsilon : regularization strength, > 0
    tol : l1 marginal violation of the implied plan, checked every sweep
    max_iter : sweep budget; exceeding it raises IterationLimitError carrying
        the last accepted potentials
    f0 : optional warm start for the first potential, a finite vector with
        one entry per bin of a

    A sweep updates g <- g + w (T_b(f) - g), then f <- f + w (T_a(g) - f),
    with T the soft c-transforms; at w = 1 it is the plain Sinkhorn sweep.
    The first 20 sweeps run at w = 1.  Then w is set from the contraction
    rate theta = (r_k / r_{k-10})^(1/10) of the marginal residual
    r = max(row, col) over the last sweeps at w = 1, as
    w = min(cap, 2 / (1 + sqrt(1 - theta))) (Lehmann et al., arXiv:2012.12562;
    Thibault et al., arXiv:1711.01851), with cap = 1.95 at the start.  Safeguard:
    a sweep at w > 1 whose residual is not finite or exceeds 10x the best seen
    so far is undone, the cap falls to 1 + (w - 1)/2, and w returns to 1 until
    theta is measured again.  The check reads the residuals every sweep
    computes anyway, so it takes no kernel apply; `restarts` counts the
    undone sweeps, which count in `iterations` and against `max_iter`.  The
    safeguard guards against blow-up only: a w that stalls within the 10x
    band runs on to `max_iter`.  A no-progress test cannot tell such a stall
    from the plateaus of small-eps solves, where the residual stays flat for
    a thousand sweeps at w = 1 as well.  When a sweep at w > 1 meets tol,
    one more sweep runs at w = 1 and the solve stops when it meets tol too,
    so f = T_a(g) at return and the plan's row marginal is a to rounding.

    Zero bins stay in place as masks, 0 on the support and -inf off it,
    added to f/eps and g/eps in the kernel inputs, with unit log weights off
    the support.  So a zero bin carries no mass, and its potential is the
    unit-weight transform of the other one: finite, and a valid warm start.
    Returns the potentials, the implied plan diag(e^{f/eps}) K diag(e^{g/eps})
    as a factored `Coupling.gibbs`, and the dual objective value
    <f,a> + <g,b> - eps * sum(P), with the plan's mass taken from the last
    sweep's row marginal.  Neither takes a kernel apply of its own.  A
    GridCost2D, zero bins or not, is solved by `grid_kernel_apply` alone, so
    its entries are never built.
    """
    if not epsilon > 0:
        raise ValueError("sinkhorn requires epsilon > 0")
    if not tol > 0:
        raise ValueError("tol must be positive")
    aw = as_weights(a, "a")
    bw = as_weights(b, "b")
    c = as_kernel_cost(cost)
    if c.shape != (aw.size, bw.size):
        raise ValueError("cost shape does not match the marginals")
    if f0 is None:
        f = np.zeros(aw.size)
    else:
        f = np.array(f0, dtype=float)
        if f.shape != aw.shape or not np.all(np.isfinite(f)):
            raise ValueError("f0 must be a finite vector with one entry per bin of a")

    log_k_cols, log_k_rows = _log_kernels(c, epsilon)
    grid = isinstance(c, GridCost2D)
    ma, mb = _log_mask(aw), _log_mask(bw)
    la, lb = np.log(np.where(aw > 0, aw, 1.0)), np.log(np.where(bw > 0, bw, 1.0))
    g = np.zeros(bw.size)
    log_kf = None if grid else log_k_cols(f / epsilon + ma)
    omega, cap, best_res = 1.0, _OMEGA_CAP, np.inf
    plain = []  # residuals of the sweeps at omega = 1 since the last restart
    restarts = 0
    iterations = 0
    row_res = col_res = np.inf
    for iterations in range(1, max_iter + 1):
        if omega > 1.0:
            kept = f, g, log_kf, row_res, col_res
        if grid:
            # the grid sweep applies the kernel to f again rather than carry
            # log_kf over from the last sweep: the same numbers, one apply
            # more (ROADMAP item 1 drops it)
            log_kf = log_k_cols(f / epsilon + ma)
        # one full sweep: column transform then row transform, in log domain;
        # log_kf is both the last sweep's column residual and this g-update
        t = epsilon * (lb - log_kf)
        g = t if omega == 1.0 else g + omega * (t - g)
        v = g / epsilon + mb
        log_kg = log_k_rows(v)
        t = epsilon * (la - log_kg)
        f = t if omega == 1.0 else f + omega * (t - f)
        u = f / epsilon + ma
        log_kf = log_k_cols(u)
        # an overrelaxed sweep may overflow; the safeguard then undoes it
        with np.errstate(over="ignore") if omega > 1.0 else nullcontext():
            row = np.exp(u + log_kg)  # the plan's row marginal
            row_res = float(np.abs(row - aw).sum())
            col_res = float(np.abs(np.exp(v + log_kf) - bw).sum())
        residual = max(row_res, col_res)
        if omega > 1.0 and not residual <= _REJECT * best_res:
            # safeguard: undo the sweep, lower the cap, measure theta again
            f, g, log_kf, row_res, col_res = kept
            cap = 1.0 + 0.5 * (omega - 1.0)
            omega = 1.0
            plain = []
            restarts += 1
            continue
        best_res = min(best_res, residual)
        if row_res <= tol and col_res <= tol:
            if omega == 1.0:
                break
            # end on a plain sweep: its row marginal is a to rounding, so the
            # plan has mass 1
            omega, plain = 1.0, []
        elif omega == 1.0:
            plain.append(residual)
            if iterations >= _WARMUP_SWEEPS and len(plain) > _RATE_WINDOW:
                ratio = plain[-1] / plain[-1 - _RATE_WINDOW]
                theta = min(1.0, ratio ** (1.0 / _RATE_WINDOW))
                omega = min(cap, 2.0 / (1.0 + np.sqrt(1.0 - theta)))
    else:
        raise IterationLimitError(
            f"sinkhorn did not reach tol={tol:g} in {max_iter} sweeps",
            best=(f, g),
            residual=max(row_res, col_res),
            iterations=max_iter,
        )

    value = float(np.dot(f, aw) + np.dot(g, bw) - epsilon * row.sum())
    # g of a zero column: the transform of the final f, like f of a zero row
    g = np.where(bw > 0, g, -epsilon * log_kf)
    return SinkhornResult(
        potentials=Potentials(f, g),
        coupling=Coupling.gibbs(f + epsilon * ma, g + epsilon * mb, c, epsilon, aw, bw),
        value=value,
        iterations=iterations,
        row_residual=row_res,
        col_residual=col_res,
        restarts=restarts,
    )


def symmetric_potential(a, cost, epsilon: float, *,
                        tol: float = DEFAULT_TOL) -> np.ndarray | None:
    """Symmetric potential of W_eps(a, a): f = g for a symmetric cost.

    Averaged fixed point f <- (f + T_a(f))/2 with T_a the soft c-transform
    against a, one kernel apply per iteration (Feydy et al., AISTATS 2019).
    Stops when the plan diag(e^{f/eps}) K diag(e^{f/eps}) has l1 marginal
    residual <= tol, the test sinkhorn applies to each marginal, so
    sinkhorn(a, a, cost, epsilon, f0=f) certifies it within a sweep.  Returns
    None when the cost is not symmetric (a GridCost2D always is; a matrix is
    when it equals its transpose).  Raises IterationLimitError carrying the
    last iterate after DEFAULT_MAX_ITER applies.
    """
    if not epsilon > 0:
        raise ValueError("symmetric_potential requires epsilon > 0")
    aw = as_weights(a, "a")
    if np.any(aw <= 0):
        raise ValueError("symmetric_potential requires a strictly positive histogram")
    c = as_kernel_cost(cost)
    if c.shape != (aw.size, aw.size):
        raise ValueError("cost shape does not match the histogram")
    apply_kt, apply = _log_kernels(c, epsilon)
    # one function for both directions marks a grid's symmetric kernel
    if apply_kt is not apply and not np.array_equal(c, c.T):
        return None
    max_iter = DEFAULT_MAX_ITER
    la = np.log(aw)
    f = np.zeros(aw.size)
    residual = np.inf
    for _ in range(max_iter):
        log_kf = apply(f / epsilon)
        residual = float(np.abs(np.exp(f / epsilon + log_kf) - aw).sum())
        if residual <= tol:
            return f
        f = 0.5 * (f + epsilon * (la - log_kf))
    raise IterationLimitError(
        f"symmetric_potential did not reach tol={tol:g} in {max_iter} applies",
        best=f, residual=residual, iterations=max_iter,
    )


def transport_cost(coupling, cost) -> float:
    """Linear transport cost <P, C> of a plan."""
    p = coupling.matrix if isinstance(coupling, Coupling) else np.asarray(coupling, float)
    return float((p * as_cost(cost)).sum())
