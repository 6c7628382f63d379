"""Entropic semi-discrete transport against a quadrature-sampled source.

The source measure is a finite quadrature (grid or Monte Carlo samples); the
target is a weighted discrete support.  The dual objective is concave with a
closed-form (super)gradient from smoothed Laguerre-cell indicators, maximized
by plain gradient ascent with a mean-zero gauge fix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .core import IterationLimitError, SIMPLEX_ATOL, softmin, squared_euclidean


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


def semidiscrete_objective_grad(g, source: SampledMeasure, target: DiscreteTarget,
                                epsilon: float):
    """Dual objective E(g) = sum_i w_i softmin_j(c(x_i,y_j) - g_j) + <g, b>.

    The gradient is b minus the (smoothed) cell masses; at epsilon = 0 the
    hard-cell version is a supergradient.  Entries sum to zero.
    """
    gv = np.asarray(g, dtype=float)
    if gv.size != target.masses.size:
        raise ValueError("g must have one entry per target site")
    scores = target.cost_to(source.points) - gv[None, :]
    if epsilon == 0:
        mins = scores.min(axis=1)
        assign = np.argmin(scores, axis=1)
        cells = np.bincount(assign, weights=source.weights, minlength=gv.size)
    elif epsilon > 0:
        shift = scores.min(axis=1, keepdims=True)
        e = np.exp(-(scores - shift) / epsilon)
        mins = shift.ravel() - epsilon * np.log(e.sum(axis=1))
        chi = e / e.sum(axis=1, keepdims=True)
        cells = source.weights @ chi
    else:
        raise ValueError("epsilon must be nonnegative")
    value = float(np.dot(source.weights, mins) + np.dot(gv, target.masses))
    return value, target.masses - cells


def solve_semidiscrete(source: SampledMeasure, target: DiscreteTarget,
                       epsilon: float, *, step: float = None, tol: float = 1e-9,
                       max_iter: int = 50_000, g0=None, full_output: bool = False):
    """Gradient ascent on the concave semi-discrete dual.

    Default step is epsilon for epsilon > 0 (the objective is 1/eps smooth)
    and step0/sqrt(iter) for epsilon = 0.  The potential is gauge-fixed to
    mean zero every iteration, since the objective is shift invariant.
    Stops when the gradient sup-norm falls below tol, i.e. when the cell
    masses match the target masses to that accuracy.
    """
    m = target.masses.size
    g = np.zeros(m) if g0 is None else np.asarray(g0, dtype=float).copy()
    g -= g.mean()
    base_step = step if step is not None else (epsilon if epsilon > 0 else 1.0)
    if not base_step > 0:
        raise ValueError("step must be positive")

    history = []
    grad_norm = np.inf
    for it in range(1, max_iter + 1):
        value, grad = semidiscrete_objective_grad(g, source, target, epsilon)
        grad_norm = float(np.abs(grad).max(initial=0.0))
        history.append(value)
        if grad_norm <= tol:
            break
        tau = base_step if epsilon > 0 else base_step / np.sqrt(it)
        g = g + tau * grad
        g -= g.mean()
    else:
        raise IterationLimitError(
            f"semidiscrete ascent did not reach tol={tol:g} in {max_iter} iterations",
            best=g, residual=grad_norm, iterations=max_iter,
        )
    if full_output:
        return g, {"iterations": it, "grad_norm": grad_norm, "values": history}
    return g
