"""Smooth-dual Wasserstein barycenter solver with primal recovery.

Minimizes sum_k lambda_k W_eps(a, b_k) through its dual: projected gradient
descent on F = [f_1 ... f_N] constrained to F @ lambda = 0, with closed-form
objectives and gradients from the semidual transform.  The two descent
baselines (smooth primal gradient, eps = 0 dual subgradient) live here too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .core import Histogram, IterationLimitError, as_cost, as_kernel_cost, as_weights
from .entropic import _log_kernels, ctransform_of_f, sinkhorn
from .legendre import semidual_conjugate_batch


@dataclass(frozen=True)
class BarycenterProblem:
    """Inputs of the smoothed barycenter problem.

    Columns of `histograms` are the fixed inputs b_k (strictly positive for
    the smooth solvers); `epsilon` may be 0 only for the nonsmooth baseline.
    """

    histograms: np.ndarray  # (n, N)
    weights: np.ndarray     # (N,)
    cost: np.ndarray        # (n, n)
    epsilon: float

    def __init__(self, histograms, weights, cost, epsilon: float):
        bm = np.asarray(histograms, dtype=float)
        if bm.ndim != 2:
            raise ValueError("histograms must be stacked as columns of a matrix")
        for k in range(bm.shape[1]):
            as_weights(bm[:, k], f"input histogram {k}")
        lam = as_weights(weights, "weights")
        if lam.size != bm.shape[1]:
            raise ValueError("one weight per input histogram is required")
        c = as_kernel_cost(cost)
        if c.shape != (bm.shape[0], bm.shape[0]):
            raise ValueError("the barycenter problem needs a square cost")
        if epsilon < 0:
            raise ValueError("epsilon must be nonnegative")
        object.__setattr__(self, "histograms", bm)
        object.__setattr__(self, "weights", lam)
        object.__setattr__(self, "cost", c)
        object.__setattr__(self, "epsilon", float(epsilon))

    @property
    def size(self) -> int:
        return self.histograms.shape[0]

    @property
    def num_inputs(self) -> int:
        return self.histograms.shape[1]


@dataclass(frozen=True)
class DualIterate:
    potentials: np.ndarray  # F, (n, N), satisfies F @ weights = 0
    objective: float
    monitor: float          # sum of linewise standard deviations of the gradients


@dataclass
class BarycenterTrace:
    objectives: list
    monitors: list
    iterations: int
    converged: bool
    final: Optional[DualIterate] = None


def dual_objective_grad(F, problem: BarycenterProblem):
    """Objective sum_k lambda_k H*_{b_k}(f_k) and its gradient matrix.

    Gradient column k is lambda_k * Delta_k where Delta_k is the simplex
    valued gradient of the k-th semidual transform.
    """
    values, deltas = semidual_conjugate_batch(
        F, problem.histograms, problem.cost, problem.epsilon
    )
    objective = float(np.dot(problem.weights, values))
    return objective, deltas * problem.weights[None, :]


def project_constraint(F, weights) -> np.ndarray:
    """Euclidean projection of F onto the subspace {F : F @ weights = 0}."""
    lam = np.asarray(weights, dtype=float)
    if not lam.any():
        raise ValueError("weights must be nonzero")
    fm = np.asarray(F, dtype=float)
    return fm - np.outer(fm @ lam, lam) / float(lam @ lam)


def _monitor_and_mean(deltas):
    centered = deltas - deltas.mean(axis=1, keepdims=True)
    monitor = float(np.sqrt((centered * centered).mean(axis=1)).sum())
    return monitor, deltas.mean(axis=1)


def _feasible(F, lam):
    # The objective is invariant under F += 1 c^T with <c, lam> = 0, so after
    # projecting we also zero the column means; this fixes the flat gauge
    # directions without moving the objective or the gradients.
    proj = project_constraint(F, lam)
    return proj - proj.mean(axis=0, keepdims=True)


StepRule = Union[str, Callable]


def solve_barycenter(problem: BarycenterProblem, *, step_rule: StepRule = "fixed",
                     tol: float = 1e-6, max_iter: int = 10_000,
                     tau: Optional[float] = None, f0=None):
    """Projected gradient descent on the dual barycenter problem.

    Parameters
    ----------
    step_rule : "fixed" (default step eps/2, safe by the 1/eps smoothness of
        each semidual term and sum(lambda) = 1), "backtracking" (halve on
        objective increase, grow gently after accepted steps), or a callable
        hook(F, grad, history) -> update matrix, for caller-supplied
        quasi-Newton directions built from gradient history; hook steps that
        raise the objective fall back to a backtracked gradient step.
    tol : threshold on the convergence monitor, the sum over bins of the
        standard deviation of the N gradient columns.
    f0 : optional initial F (projected onto the constraint); defaults to 0.

    Returns (barycenter, trace): the averaged primal iterate as a Histogram
    and a BarycenterTrace with per-iteration objective/monitor values.
    """
    if not problem.epsilon > 0:
        raise ValueError("the smooth dual solver requires epsilon > 0")
    if np.any(problem.histograms <= 0):
        raise ValueError("input histograms must be strictly positive")
    lam = problem.weights
    F = np.zeros_like(problem.histograms) if f0 is None else np.asarray(f0, float).copy()
    F = _feasible(F, lam)
    step = problem.epsilon / 2 if tau is None else float(tau)
    hook = step_rule if callable(step_rule) else None
    if not callable(step_rule) and step_rule not in ("fixed", "backtracking"):
        raise ValueError("step_rule must be 'fixed', 'backtracking', or a callable")
    kernels = _log_kernels(problem.cost, problem.epsilon)

    def evaluate(fmat):
        values, deltas = semidual_conjugate_batch(
            fmat, problem.histograms, problem.cost, problem.epsilon, _kernels=kernels
        )
        return float(np.dot(lam, values)), deltas

    trace = BarycenterTrace(objectives=[], monitors=[], iterations=0, converged=False)
    history: list = []
    objective, deltas = evaluate(F)
    stalled = 0
    for it in range(max_iter):
        # work with the projected gradient: identical steps after projection,
        # and quasi-Newton history must live in the constraint subspace
        grad = project_constraint(deltas * lam[None, :], lam)
        monitor, mean_delta = _monitor_and_mean(deltas)
        trace.objectives.append(objective)
        trace.monitors.append(monitor)
        trace.iterations = it
        if monitor < tol:
            trace.converged = True
            break
        if stalled >= 3:  # objective pinned at its float resolution
            break

        moved = True
        if hook is not None:
            update = hook(F, grad, history)
            scale = 1.0
            while True:  # decrease-only line search along the hook direction
                candidate = _feasible(F - scale * update, lam)
                cand_obj, cand_deltas = evaluate(candidate)
                if cand_obj <= objective:
                    break
                scale *= 0.5
                if scale < 1e-10:  # direction is useless; plain gradient step
                    candidate, cand_obj, cand_deltas, step, moved = _backtrack(
                        F, grad, objective, step, lam, evaluate
                    )
                    break
        elif step_rule == "backtracking":
            candidate, cand_obj, cand_deltas, step, moved = _backtrack(
                F, grad, objective, step, lam, evaluate
            )
            step = min(step * 1.25, 1e6 * problem.epsilon)
        else:
            candidate = _feasible(F - step * grad, lam)
            cand_obj, cand_deltas = evaluate(candidate)

        stalled = stalled + 1 if (not moved or cand_obj == objective) else 0
        history.append((F, grad))
        if len(history) > 10:
            history.pop(0)
        F, objective, deltas = candidate, cand_obj, cand_deltas
    else:
        it = max_iter

    if not trace.converged:
        monitor, mean_delta = _monitor_and_mean(deltas)
        trace.final = DualIterate(potentials=F, objective=objective, monitor=monitor)
        raise IterationLimitError(
            f"barycenter solver did not reach tol={tol:g} "
            f"({'stalled at float resolution after' if it < max_iter else 'in'} "
            f"{it} iterations)",
            best=(Histogram(mean_delta, normalize=True), trace),
            residual=monitor,
            iterations=it,
        )

    trace.final = DualIterate(potentials=F, objective=objective, monitor=monitor)
    return Histogram(mean_delta, normalize=True), trace


def _backtrack(F, grad, objective, step, lam, evaluate, shrink=0.5, min_step=1e-16):
    while True:
        candidate = _feasible(F - step * grad, lam)
        cand_obj, cand_deltas = evaluate(candidate)
        if cand_obj <= objective:
            return candidate, cand_obj, cand_deltas, step, True
        if step <= min_step:  # no decrease at any step; stay put
            return F, objective, evaluate(F)[1], step, False
        step *= shrink


def lbfgs_direction(memory: int = 10, fallback_step: Optional[float] = None):
    """Limited-memory quasi-Newton hook for solve_barycenter's step_rule.

    Builds an update matrix by the standard two-loop recursion over the
    solver's (F, gradient) history.  The solver projects iterates onto the
    constraint and falls back to a backtracked gradient step whenever the
    returned direction raises the objective.
    """

    def hook(F, grad, history):
        g = grad.ravel()
        pairs = []
        chain = history + [(F, grad)]
        for (f_prev, g_prev), (f_next, g_next) in zip(chain[:-1], chain[1:]):
            s = (f_next - f_prev).ravel()
            y = (g_next - g_prev).ravel()
            sy = float(s @ y)
            if sy > 1e-18:
                pairs.append((s, y, sy))
        pairs = pairs[-memory:]
        if not pairs:
            step0 = fallback_step if fallback_step is not None else 1e-3
            return step0 * grad
        q = g.copy()
        alphas = []
        for s, y, sy in reversed(pairs):
            alpha = (s @ q) / sy
            q -= alpha * y
            alphas.append(alpha)
        s, y, sy = pairs[-1]
        q *= sy / float(y @ y)
        for (s, y, sy), alpha in zip(pairs, reversed(alphas)):
            beta = (y @ q) / sy
            q += (alpha - beta) * s
        return q.reshape(F.shape)

    return hook


def smooth_primal_gradient(a, problem: BarycenterProblem,
                           sinkhorn_tol: float = 1e-9) -> np.ndarray:
    """Gradient eps * sum_k lambda_k log(u_k) of the smooth primal objective.

    u_k is the left Sinkhorn scaling of the (a, b_k) problem converged to
    sinkhorn_tol, so eps*log(u_k) is the first dual potential; the accuracy
    of this baseline is limited by the chosen Sinkhorn tolerance.
    """
    aw = as_weights(a, "a")
    if np.any(aw <= 0):
        raise ValueError("the smooth primal gradient needs a strictly positive a")
    out = np.zeros(problem.size)
    for k in range(problem.num_inputs):
        res = sinkhorn(aw, problem.histograms[:, k], problem.cost,
                       problem.epsilon, tol=sinkhorn_tol)
        out += problem.weights[k] * res.potentials.f
    return out


def nonsmooth_dual_subgradient(F, problem: BarycenterProblem):
    """Values and subgradients of the unregularized dual terms (eps = 0).

    Column k of the subgradient matrix assigns, for every j, the mass
    b_{k,j} to the lowest row index attaining min_i(C_{ij} - f_{k,i}); each
    column lies on the simplex.  Values are -<f_k^{c,0}, b_k>.
    """
    if problem.epsilon != 0:
        raise ValueError("the nonsmooth baseline requires an epsilon = 0 problem")
    fm = np.asarray(F, dtype=float)
    c = as_cost(problem.cost)
    values = np.empty(problem.num_inputs)
    subgrad = np.zeros_like(fm)
    for k in range(problem.num_inputs):
        bk = problem.histograms[:, k]
        transform = ctransform_of_f(fm[:, k], bk, c, 0.0)
        values[k] = -float(np.dot(transform, bk))
        winners = np.argmin(c - fm[:, k][:, None], axis=0)  # lowest-index ties
        np.add.at(subgrad[:, k], winners, bk)
    return values, subgrad
