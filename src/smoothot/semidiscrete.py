"""Entropic semi-discrete transport against a quadrature-sampled source.

The source measure is a finite quadrature (grid or Monte Carlo samples); the
target is a weighted discrete support.  The dual objective is concave with a
closed-form (super)gradient from smoothed Laguerre-cell indicators and, at
epsilon > 0, a closed-form Hessian (the semidual's).  It is maximized by damped
Newton at epsilon > 0, its Armijo search the package's one halving search,
and by supergradient ascent at epsilon = 0, both with a mean-zero gauge fix and
a cost matrix built once per solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .core import (IterationLimitError, SIMPLEX_ATOL, _halving_search, softmin,
                   squared_euclidean)
from .legendre import _semidual_hessian


@dataclass(frozen=True)
class SampledMeasure:
    """Quadrature representation of the source: points and simplex weights."""

    points: np.ndarray   # (k, d)
    weights: np.ndarray  # (k,)

    def __init__(self, points, weights):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[0] == 1 and pts.shape[1] > 1:
            pts = pts.T
        w = np.asarray(weights, dtype=float)
        if w.ndim != 1 or w.size != pts.shape[0]:
            raise ValueError("one weight per sample point is required")
        if np.any(w < 0) or not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite and nonnegative")
        if abs(w.sum() - 1.0) > SIMPLEX_ATOL:
            raise ValueError("weights must sum to 1")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)

    @classmethod
    def uniform_grid_1d(cls, n: int, lo: float, hi: float) -> "SampledMeasure":
        """Midpoint quadrature of the uniform density on [lo, hi]."""
        centers = lo + (hi - lo) * (np.arange(n) + 0.5) / n
        return cls(centers.reshape(-1, 1), np.full(n, 1.0 / n))


@dataclass(frozen=True)
class DiscreteTarget:
    """Weighted discrete support with its ground cost function."""

    sites: np.ndarray    # (m, d)
    masses: np.ndarray   # (m,), strictly positive
    cost: Callable = field(default=squared_euclidean)

    def __init__(self, sites, masses, cost: Callable = squared_euclidean):
        ys = np.atleast_2d(np.asarray(sites, dtype=float))
        if ys.shape[0] == 1 and ys.shape[1] > 1:
            ys = ys.T
        b = np.asarray(masses, dtype=float)
        if b.ndim != 1 or b.size != ys.shape[0]:
            raise ValueError("one mass per site is required")
        if np.any(b <= 0) or abs(b.sum() - 1.0) > SIMPLEX_ATOL:
            raise ValueError("masses must be strictly positive and sum to 1")
        object.__setattr__(self, "sites", ys)
        object.__setattr__(self, "masses", b)
        object.__setattr__(self, "cost", cost)

    def cost_to(self, points) -> np.ndarray:
        return np.atleast_2d(self.cost(points, self.sites))


def gbar_transform(g, x, target: DiscreteTarget, epsilon: float) -> float:
    """Soft c-transform of g at one source point: softmin_j c(x, y_j) - g_j."""
    gv = np.asarray(g, dtype=float)
    row = target.cost_to(np.atleast_2d(np.asarray(x, dtype=float))).ravel()
    return softmin(row - gv, epsilon)


def smoothed_indicator(g, x, target: DiscreteTarget, epsilon: float) -> np.ndarray:
    """Softmax Laguerre-cell membership of one point (sums to 1 exactly)."""
    if not epsilon > 0:
        raise ValueError("the smoothed indicator requires epsilon > 0")
    gv = np.asarray(g, dtype=float)
    row = target.cost_to(np.atleast_2d(np.asarray(x, dtype=float))).ravel()
    s = (gv - row) / epsilon
    s -= s.max()
    e = np.exp(s)
    return e / e.sum()


def laguerre_assign(g, source: SampledMeasure, target: DiscreteTarget):
    """Hard Laguerre-cell assignment of every sample (lowest-index ties).

    Returns the per-sample cell index and the vector of cell masses.
    """
    gv = np.asarray(g, dtype=float)
    scores = target.cost_to(source.points) - gv[None, :]
    assign = np.argmin(scores, axis=1)
    masses = np.bincount(assign, weights=source.weights, minlength=gv.size)
    return assign, masses


def _dual_terms(g, cost, weights, masses, epsilon):
    """Dual value, gradient and softmax cells at g for a (k, m) cost matrix.

    The one fused shift/softmax of the module.  Returns the value, the
    gradient b - (cell masses) and the (k, m) cell-membership matrix chi
    (rows sum to 1) at epsilon > 0; at epsilon = 0 the cells are hard
    Laguerre cells, the gradient is a supergradient and chi is None.
    """
    scores = cost - g[None, :]
    chi = None
    if epsilon == 0:
        mins = scores.min(axis=1)
        assign = np.argmin(scores, axis=1)
        cells = np.bincount(assign, weights=weights, minlength=g.size)
    elif epsilon > 0:
        shift = scores.min(axis=1, keepdims=True)
        e = np.exp(-(scores - shift) / epsilon)
        z = e.sum(axis=1, keepdims=True)
        mins = (shift - epsilon * np.log(z)).ravel()
        chi = e / z
        cells = weights @ chi
    else:
        raise ValueError("epsilon must be nonnegative")
    value = float(np.dot(weights, mins) + np.dot(g, masses))
    return value, masses - cells, chi


def semidiscrete_objective_grad(g, source: SampledMeasure, target: DiscreteTarget,
                                epsilon: float):
    """Dual objective E(g) = sum_i w_i softmin_j(c(x_i,y_j) - g_j) + <g, b>.

    The gradient is b minus the (smoothed) cell masses; at epsilon = 0 the
    hard-cell version is a supergradient.  Entries sum to zero.
    """
    gv = np.asarray(g, dtype=float)
    if gv.size != target.masses.size:
        raise ValueError("g must have one entry per target site")
    value, grad, _ = _dual_terms(gv, target.cost_to(source.points), source.weights,
                                 target.masses, epsilon)
    return value, grad


def solve_semidiscrete(source: SampledMeasure, target: DiscreteTarget,
                       epsilon: float, *, step: float = None, tol: float = 1e-9,
                       max_iter: int = 50_000, g0=None, full_output: bool = False):
    """Maximize the concave semi-discrete dual by damped Newton (eps > 0).

    At epsilon > 0 each iteration solves the Newton system of the smooth dual
    (Kitagawa, Merigot & Thibert, arXiv:1603.05579) and backtracks on the
    dual value (Armijo).  `step` is the gradient-ascent step: at epsilon > 0
    it is used only where the Newton direction fails to ascend (default
    epsilon, since the dual is 1/eps smooth); at epsilon = 0 the solver is
    the supergradient ascent g += step/sqrt(iter) * grad (default step 1).
    The potential is gauge-fixed to mean zero every iteration, since the
    objective is shift invariant.  The cost matrix is built once per solve.
    At epsilon > 0 the default start g_j = min_i c(x_i, y_j) gives every cell a sample.
    Stops when the gradient sup-norm falls below tol, i.e. when the cell
    masses match the target masses to that accuracy.  `full_output` adds
    the iterations, final gradient norm, value trace (ending at the returned
    g) and dual evaluations.  Running out of max_iter >= 1 iterations, or of
    ascent steps, raises IterationLimitError with `best` that same (g, info).
    """
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    m = target.masses.size
    cost = target.cost_to(source.points)
    if g0 is None:
        nearest = cost.min(axis=0)
        g0 = nearest if epsilon > 0 and np.isfinite(nearest).all() else np.zeros(m)
    g = np.asarray(g0, dtype=float).copy()
    if g.size != m:
        raise ValueError("g0 must have one entry per target site")
    g -= g.mean()
    base_step = step if step is not None else (epsilon if epsilon > 0 else 1.0)
    if not base_step > 0:
        raise ValueError("step must be positive")

    weights, masses = source.weights, target.masses
    evaluations = 0

    def negated_dual(trial):
        # -E and (E, its gradient, its cells): Newton ascends E by descent on -E
        nonlocal evaluations
        evaluations += 1
        terms = _dual_terms(trial, cost, weights, masses, epsilon)
        return -terms[0], terms

    _, (value, grad, chi) = negated_dual(g)
    grad_norm = float(np.abs(grad).max(initial=0.0))
    history = [value]  # E at each iterate, ending at the returned g
    message = None
    for it in range(1, max_iter + 1):
        if grad_norm <= tol:
            break
        if epsilon > 0:
            direction, slope = _newton_direction(grad, chi, weights, epsilon, base_step)
            # Armijo's test on E, allowing round-off in the value, down to
            # t = 2^-60; the gauge fix to mean zero is the search's prox
            slack = 8 * np.finfo(float).eps * (abs(value) + np.abs(g).max())
            accepted, _ = _halving_search(
                g, -direction, 1.0, 2.0 ** -60,
                lambda x, _: x - x.mean(), negated_dual,
                lambda t, _: -(value + 1e-4 * t * slope - slack))
            if accepted is None:
                message = (f"semidiscrete solve stalled at iteration {it}: no step "
                           f"along the search direction raises the dual value")
                break
            g, _, (value, grad, chi) = accepted
        else:
            tau = base_step / np.sqrt(it)
            g = g + tau * grad
            g -= g.mean()
            _, (value, grad, _) = negated_dual(g)
        grad_norm = float(np.abs(grad).max(initial=0.0))
        history.append(value)
    if message is None and grad_norm > tol:  # the last allowed step counts
        message = f"semidiscrete solve did not reach tol={tol:g} in {max_iter} iterations"
    info = {"iterations": it, "grad_norm": grad_norm, "values": history,
            "evaluations": evaluations}
    if message is not None:
        raise IterationLimitError(message, best=(g, info), residual=grad_norm,
                                  iterations=it)
    return (g, info) if full_output else g


def _newton_direction(grad, chi, weights, epsilon, step):
    """Damped Newton direction d and slope <grad, d> of the dual at epsilon > 0.

    Solves (H + rho I + 11^T/m) d = grad for the negative Hessian H.  The
    11^T/m term fixes the gauge: grad sums to zero, so d does too.  The
    ridge rho = |grad|^2 tr(H)/m keeps the system nonsingular when a cell
    mass underflows to 0, and vanishes quadratically at the optimum, which
    keeps Newton's local rate; it is small against H's mean curvature
    tr(H)/m, so an empty cell's potential takes long steps that the line
    search cuts back.  Where the system is still singular (H = 0: every
    sample deep inside one cell) or d does not ascend, the direction is the
    ascent step * grad.
    """
    m = grad.size
    sq = float(grad @ grad)
    system = _semidual_hessian(chi.T * weights, chi, epsilon)
    system[np.diag_indices(m)] += sq * np.trace(system) / m
    system += 1.0 / m
    try:
        direction = np.linalg.solve(system, grad)
        slope = float(grad @ direction)
    except np.linalg.LinAlgError:
        slope = np.nan
    if not slope > 0:
        direction, slope = step * grad, step * sq
    return direction, slope
