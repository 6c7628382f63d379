"""Smooth-dual Wasserstein barycenter solver with primal recovery.

Minimizes sum_k lambda_k W_eps(a, b_k) through its dual: projected L-BFGS
descent on F = [f_1 ... f_N] constrained to F @ lambda = 0, valuing trials
and completing gradients at accepted points only, by the semidual transform.
The smooth-primal and eps = 0 dual-subgradient baselines live here too.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .core import (Histogram, IterationLimitError, _halving_search, as_cost,
                   as_kernel_cost, as_weights)
from .entropic import _log_kernels, ctransform_of_f, sinkhorn
# the value half, under the name at which perfbench's tracer counts evaluations
from .legendre import _semidual as semidual_conjugate_batch, _semidual_terms


@dataclass(frozen=True)
class BarycenterProblem:
    """Inputs of the smoothed barycenter problem.

    Columns of `histograms` are the fixed inputs b_k (zero bins allowed);
    `epsilon` may be 0 only for the nonsmooth baseline.
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
    evaluations: int = 0    # value-half calls, trials and accepted points alike
    final: Optional[DualIterate] = None


def dual_objective_grad(F, problem: BarycenterProblem):
    """Objective sum_k lambda_k H*_{b_k}(f_k) and its gradient matrix.

    Gradient column k is lambda_k * Delta_k where Delta_k is the simplex
    valued gradient of the k-th semidual transform, by the solvers' evaluation.
    """
    if not problem.epsilon > 0:
        raise ValueError("the semidual transform requires epsilon > 0")
    terms = _semidual_terms(problem.histograms, _log_kernels(problem.cost, problem.epsilon))
    values, gradient = semidual_conjugate_batch(np.asarray(F, float), terms, problem.epsilon)
    objective = float(np.dot(problem.weights, values))
    return objective, gradient() * problem.weights[None, :]


def project_constraint(F, weights) -> np.ndarray:
    """Euclidean projection of F onto the subspace {F : F @ weights = 0}."""
    lam = np.asarray(weights, dtype=float)
    if not lam.any():
        raise ValueError("weights must be nonzero")
    return _project(np.asarray(F, dtype=float), lam, float(lam @ lam))


def _project(F, lam, lam_sq):
    return F - (F @ lam)[:, None] * lam[None, :] / lam_sq  # np.outer's product


def _monitor_and_mean(deltas):
    # means as sum / count: ndarray.mean's arithmetic without its wrapper
    count = deltas.shape[1]
    mean = deltas.sum(axis=1) / count
    centered = deltas - mean[:, None]
    return float(np.sqrt((centered * centered).sum(axis=1) / count).sum()), mean


def _feasible(F, lam, lam_sq):
    # The objective is invariant under F += 1 c^T with <c, lam> = 0, so after
    # projecting we also zero the column means; this fixes the flat gauge
    # directions without moving the objective or the gradients.
    proj = _project(F, lam, lam_sq)
    return proj - proj.sum(axis=0, keepdims=True) / proj.shape[0]


StepRule = Optional[Union[str, Callable]]


def solve_barycenter(problem: BarycenterProblem, *, step_rule: StepRule = None,
                     tol: float = 1e-6, max_iter: int = 10_000):
    """Projected quasi-Newton descent on the dual barycenter problem.

    Parameters
    ----------
    step_rule : None (the default: the diagonally scaled L-BFGS hook
        `lbfgs_direction(fallback_step=eps/2)`), "backtracking" (gradient
        steps from eps/2, halved on objective increase and grown gently
        after accepted steps), or a callable
        hook(F, grad, pairs, curvature) -> update matrix for quasi-Newton
        directions, `pairs` the last ten steps as raveled (s, y, <s, y>)
        triples of iterate and projected-gradient differences, `curvature`
        the (n, N) matrix lambda_k Delta_k / eps, which bounds the diagonal
        of the objective's Hessian at F and costs no kernel apply (Delta_k,
        the k-th semidual gradient, is already completed at F).  A hook
        step is halved from scale 1 to 2**-33 until the objective does not
        rise, then replaced by a backtracked gradient step.
    tol : threshold on the convergence monitor, the sum over bins of the
        standard deviation of the N gradient columns.

    A trial costs one K^T apply per input; an accepted one adds one K apply.
    Returns (barycenter, trace): the averaged primal iterate as a Histogram
    and a BarycenterTrace with per-iteration objective/monitor values and
    the number of objective evaluations.
    """
    if not problem.epsilon > 0:
        raise ValueError("the smooth dual solver requires epsilon > 0")
    lam = problem.weights
    lam_sq = float(lam @ lam)
    F = np.zeros_like(problem.histograms)
    step = problem.epsilon / 2
    if step_rule is None:
        step_rule = lbfgs_direction(fallback_step=step)
    hook = step_rule if callable(step_rule) else None
    if hook is None and step_rule != "backtracking":
        raise ValueError("step_rule must be None, 'backtracking', or a callable")
    terms = _semidual_terms(problem.histograms, _log_kernels(problem.cost, problem.epsilon))

    def value(fmat):
        trace.evaluations += 1
        values, gradient = semidual_conjugate_batch(fmat, terms, problem.epsilon)
        return float(np.dot(lam, values)), gradient

    def search(direction, scale, floor):
        # a step along -direction that does not raise the objective
        return _halving_search(F, direction, scale, floor,
                               lambda x, _: _feasible(x, lam, lam_sq), value,
                               lambda *_: objective)

    trace = BarycenterTrace(objectives=[], monitors=[], iterations=0, converged=False)
    pairs: deque = deque(maxlen=10)
    previous = None
    objective, gradient = value(F)
    deltas = gradient()
    stalled = 0
    for it in range(max_iter):
        # work with the projected gradient: identical steps after projection,
        # and quasi-Newton pairs must live in the constraint subspace
        grad = _project(deltas * lam[None, :], lam, lam_sq)
        monitor, mean_delta = _monitor_and_mean(deltas)
        trace.objectives.append(objective)
        trace.monitors.append(monitor)
        trace.iterations = it
        if monitor < tol:
            trace.converged = True
            break
        if stalled >= 3:  # objective pinned at its float resolution
            break

        accepted = None
        if hook is not None:
            if previous is not None:
                s, y = (F - previous[0]).ravel(), (grad - previous[1]).ravel()
                pairs.append((s, y, float(s @ y)))
            previous = (F, grad)
            curvature = deltas * (lam / problem.epsilon)
            accepted, _ = search(hook(F, grad, list(pairs), curvature), 1.0, 2.0 ** -33)
        if accepted is None:
            accepted, step = search(grad, step, 1e-16)
        if hook is None:
            step = min(step * 1.25, 1e6 * problem.epsilon)

        stalled = stalled + 1 if accepted is None or accepted[1] == objective else 0
        if accepted is not None:  # else no decrease at any step: stay put
            F, objective, gradient = accepted
            deltas = gradient()
    else:
        it = max_iter

    monitor, mean_delta = _monitor_and_mean(deltas)
    trace.final = DualIterate(potentials=F, objective=objective, monitor=monitor)
    barycenter = Histogram(mean_delta, normalize=True)
    if not trace.converged:
        raise IterationLimitError(
            f"barycenter solver did not reach tol={tol:g} "
            f"({'stalled at float resolution after' if it < max_iter else 'in'} "
            f"{it} iterations)",
            best=(barycenter, trace),
            residual=monitor,
            iterations=it,
        )
    return barycenter, trace


# bound on the condition number of the initial L-BFGS matrix
_H0_CONDITION = 1e4


def lbfgs_direction(fallback_step: float = 1e-3):
    """Limited-memory quasi-Newton hook, solve_barycenter's default step rule.

    Builds an update matrix by the standard two-loop recursion over the
    (s, y, <s, y>) pairs the solver passes, skipping pairs with
    <s, y> <= 1e-18; with none left it returns fallback_step * grad (the
    default step rule passes eps/2).  The initial matrix is diagonal, h = 1/D
    scaled by <s, y>/<y, h y> of the newest pair (Gilbert & Lemarechal,
    Math. Programming 45, 1989), where D is the solver's curvature with
    entries floored at 1e-4 of its largest: the floor caps the initial
    matrix's condition number, so bins where the semidual gradient
    vanishes do not take unbounded steps.  The solver projects iterates
    onto the constraint and falls back to a backtracked gradient step
    whenever the returned direction raises the objective.
    """

    def hook(F, grad, pairs, curvature):
        pairs = [pair for pair in pairs if pair[2] > 1e-18]
        if not pairs:
            return fallback_step * grad
        q = grad.ravel().copy()
        alphas = []
        for s, y, sy in reversed(pairs):
            alpha = float(s @ q) / sy
            q -= alpha * y
            alphas.append(alpha)
        h = 1.0 / np.maximum(curvature, curvature.max() / _H0_CONDITION).ravel()
        s, y, sy = pairs[-1]
        q *= h * (sy / float(y @ (h * y)))
        for (s, y, sy), alpha in zip(pairs, reversed(alphas)):
            beta = float(y @ q) / sy
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
