"""Regularized barycenters min_a sum_k lambda_k W_eps(a, b_k) + J(A a).

The dual eliminates the last potential and is solved by forward-backward
splitting (plain, or FISTA with restart on objective increase, in one loop):
a gradient step on the smooth semidual terms followed by the proximal map of
the conjugate regularizer J*, in the package's one halving search.  Ships
finite-difference grid/graph gradients and closed-form proxes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .core import Histogram, IterationLimitError, _halving_search
from .barycenter import BarycenterProblem
from .entropic import _log_kernels
# the value half, under the name at which perfbench's tracer counts evaluations
from .legendre import _semidual as semidual_conjugate_batch, _semidual_terms


@dataclass(frozen=True)
class LinearOperator:
    """Forward/adjoint pair with an upper bound on the operator norm."""

    forward: Callable[[np.ndarray], np.ndarray]
    adjoint: Callable[[np.ndarray], np.ndarray]
    norm_bound: float
    out_shape: tuple


def grid_gradient(shape) -> LinearOperator:
    """Forward-difference gradient of an h*w image with Neumann boundaries.

    Maps the flattened image to per-pixel (dx, dy) rows; differences are zero
    past the last column/row.  The adjoint is the negative divergence.
    """
    h, w = int(shape[0]), int(shape[1])
    if h < 1 or w < 1:
        raise ValueError("grid dimensions must be positive")
    # (dx, dy) rows interleaved: pixel (i, j)'s dx at 2(i*w + j), its dy next;
    # the dx past the last column are 0, as are the dy past the last row
    last_dx = slice(2 * w - 2, None, 2 * w)

    def forward(a):
        img = np.asarray(a, dtype=float).reshape(h * w)
        out = np.zeros(2 * h * w)
        np.subtract(img[1:], img[:-1], out=out[0:-2:2])
        out[last_dx] = 0.0  # the differences that wrapped to the next row
        np.subtract(img[w:], img[:-w], out=out[1:2 * (h - 1) * w:2])
        return out.reshape(h * w, 2)

    def adjoint(z):
        # Pixel (i, j) becomes ((0 - dx[i, j]) + dx[i, j-1]) - dy[i, j] + dy[i-1, j],
        # its terms past an edge left out, each update over the flattened
        # image at once.  The dx past the last column are zeroed first: a
        # partial sum here is never -0, so adding or subtracting one changes
        # no bit.
        zz = np.array(z, dtype=float).reshape(2 * h * w)
        zz[last_dx] = 0.0
        dx, dy = zz[0::2], zz[1::2]
        out = np.subtract(0.0, dx)
        out[1:] += dx[:-1]
        out[:-w] -= dy[:-w]
        out[w:] += dy[:-w]
        return out

    return LinearOperator(
        forward=forward,
        adjoint=adjoint,
        norm_bound=float(np.sqrt(8.0)),
        out_shape=(h * w, 2),
    )


def graph_gradient(edges, num_vertices: int) -> LinearOperator:
    """Discrete gradient (a_i - a_j) over the edges of a graph."""
    edge_arr = np.asarray(list(edges), dtype=int).reshape(-1, 2)
    if edge_arr.size and (edge_arr.min() < 0 or edge_arr.max() >= num_vertices):
        raise ValueError("edge endpoints must index valid vertices")
    src = edge_arr[:, 0] if edge_arr.size else np.zeros(0, dtype=int)
    dst = edge_arr[:, 1] if edge_arr.size else np.zeros(0, dtype=int)

    def forward(a):
        av = np.asarray(a, dtype=float)
        return av[src] - av[dst]

    def adjoint(z):
        zv = np.asarray(z, dtype=float)
        out = np.zeros(num_vertices)
        np.add.at(out, src, zv)
        np.add.at(out, dst, -zv)
        return out

    if edge_arr.size:
        degree = np.bincount(edge_arr.ravel(), minlength=num_vertices)
        bound = float(np.sqrt(2.0 * degree.max()))
    else:
        bound = 0.0
    return LinearOperator(
        forward=forward,
        adjoint=adjoint,
        norm_bound=bound,
        out_shape=(edge_arr.shape[0],),
    )


def identity_operator(n: int) -> LinearOperator:
    return LinearOperator(
        forward=lambda a: np.asarray(a, dtype=float).copy(),
        adjoint=lambda z: np.asarray(z, dtype=float).copy(),
        norm_bound=1.0,
        out_shape=(n,),
    )


def prox_tv_conjugate(g, tau: float, lam: float, beta: int) -> np.ndarray:
    """Projection onto the dual ball of the total-variation seminorm.

    beta = 1 clamps every component to [-lam, lam]; beta = 2 projects each
    site row onto the Euclidean ball of radius lam.  Indicator conjugates do
    not depend on tau (the argument is kept for the uniform prox signature).
    """
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    z = np.asarray(g, dtype=float)
    if beta == 1:
        return np.clip(z, -lam, lam)
    if beta == 2:
        sites = z if z.ndim == 2 else z.reshape(-1, 1)
        norms = np.sqrt(_squared_norms(sites))
        scale = lam / np.maximum(norms, lam) if lam > 0 else np.zeros_like(norms)
        out = sites * scale[:, None]
        return out if z.ndim == 2 else out.ravel()
    raise ValueError("beta must be 1 or 2")


@dataclass(frozen=True)
class Regularizer:
    """Closed-form prox of tau*J*, plus the values of J* and J itself."""

    prox_conjugate: Callable[[np.ndarray, float], np.ndarray]
    conjugate: Callable[[np.ndarray], float]
    value: Callable[[np.ndarray], float]
    kind: str = ""
    params: dict = field(default_factory=dict)

    def scaled(self, factor: float) -> "Regularizer":
        """Regularizer for factor*J; indicators are invariant under scaling."""
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        if self.kind in ("box", "pinned"):
            return self
        params = dict(self.params)
        params["lam"] = params["lam"] * factor
        return make_regularizer(self.kind, **params)


def _squared_norms(sites):
    """Squared norm of each row of sites (k, d); (dx, dy) rows take one add,
    the same sum `.sum(axis=1)` computes, without k two-entry reductions."""
    sq = sites * sites
    return sq[:, 0] + sq[:, 1] if sq.shape[1] == 2 else sq.sum(axis=1)


def _site_norms(z, beta):
    arr = np.asarray(z, dtype=float)
    if beta == 1:
        return np.abs(arr).sum()
    sites = arr if arr.ndim == 2 else arr.reshape(-1, 1)
    return np.sqrt(_squared_norms(sites)).sum()


def make_regularizer(kind: str, *, lam: float = None, rho: float = None,
                     indices=None, values=None) -> Regularizer:
    """Build one of the shipped regularizers.

    kind: "tv_iso" (lam, beta = 2), "tv_aniso" (lam, beta = 1),
    "quadratic" (J = lam/2 ||.||^2), "box" (J = indicator of ||a||_inf <= rho),
    "pinned" (J = indicator of a_I = values on the index set I).
    """
    if kind in ("tv_iso", "tv_aniso"):
        if lam is None or lam < 0:
            raise ValueError("tv regularizers need lam >= 0")
        beta = 2 if kind == "tv_iso" else 1
        ball_tol = 1e-9 * (1.0 + lam)

        def conjugate(g, _lam=lam, _beta=beta, _tol=ball_tol):
            z = np.asarray(g, dtype=float)
            if _beta == 1:
                inside = np.abs(z).max(initial=0.0) <= _lam + _tol
            else:
                sites = z if z.ndim == 2 else z.reshape(-1, 1)
                inside = _squared_norms(sites).max(initial=0.0) <= (_lam + _tol) ** 2
            return 0.0 if inside else float("inf")

        return Regularizer(
            prox_conjugate=lambda g, tau, _l=lam, _b=beta: prox_tv_conjugate(g, tau, _l, _b),
            conjugate=conjugate,
            value=lambda z, _l=lam, _b=beta: _l * float(_site_norms(z, _b)),
            kind=kind,
            params={"lam": lam},
        )

    if kind == "quadratic":
        if lam is None or lam <= 0:
            raise ValueError("the quadratic regularizer needs lam > 0")
        return Regularizer(
            prox_conjugate=lambda g, tau, _l=lam: np.asarray(g, float) / (1.0 + tau / _l),
            conjugate=lambda g, _l=lam: float((np.asarray(g) ** 2).sum()) / (2 * _l),
            value=lambda z, _l=lam: 0.5 * _l * float((np.asarray(z) ** 2).sum()),
            kind="quadratic",
            params={"lam": lam},
        )

    if kind == "box":
        if rho is None or rho <= 0:
            raise ValueError("the box regularizer needs rho > 0")

        def prox(g, tau, _r=rho):
            z = np.asarray(g, dtype=float)
            return np.sign(z) * np.maximum(np.abs(z) - tau * _r, 0.0)

        return Regularizer(
            prox_conjugate=prox,
            conjugate=lambda g, _r=rho: _r * float(np.abs(np.asarray(g)).sum()),
            value=lambda z, _r=rho: 0.0
            if np.abs(np.asarray(z)).max(initial=0.0) <= _r + 1e-12
            else float("inf"),
            kind="box",
            params={"rho": rho},
        )

    if kind == "pinned":
        if indices is None or values is None:
            raise ValueError("the pinned regularizer needs indices and values")
        idx = np.asarray(indices, dtype=int)
        pinned_vals = np.asarray(values, dtype=float)
        if idx.size != pinned_vals.size:
            raise ValueError("one pinned value per index is required")

        def prox(g, tau, _i=idx, _v=pinned_vals):
            z = np.asarray(g, dtype=float)
            out = np.zeros_like(z)
            out[_i] = z[_i] - tau * _v
            return out

        def conjugate(g, _i=idx, _v=pinned_vals):
            z = np.asarray(g, dtype=float)
            off = np.delete(z, _i)
            if off.size and np.abs(off).max() > 1e-10:
                return float("inf")
            return float(np.dot(z[_i], _v))

        def value(z, _i=idx, _v=pinned_vals):
            arr = np.asarray(z, dtype=float)
            return 0.0 if np.abs(arr[_i] - _v).max(initial=0.0) <= 1e-10 else float("inf")

        return Regularizer(
            prox_conjugate=prox,
            conjugate=conjugate,
            value=value,
            kind="pinned",
            params={"indices": idx, "values": pinned_vals},
        )

    raise ValueError(f"unknown regularizer kind: {kind!r}")


@dataclass
class RegularizedResult:
    barycenter: Histogram
    state: tuple            # (F_head, g) final dual variables
    f_last: np.ndarray      # f_N of state; barycenter = normalized grad H*_{b_N}(f_N)
    objectives: list
    iterations: int
    converged: bool
    step: float


def _lipschitz_bound(problem, op) -> float:
    if not np.isfinite(op.norm_bound) or op.norm_bound < 0:
        raise ValueError("operator norm bound must be finite and nonnegative")
    lam = problem.weights
    head = lam[:-1]
    lam_n = lam[-1]
    cross = (float((head * head).sum()) + op.norm_bound ** 2) / lam_n
    return (max(head.max(initial=0.0), 0.0) + cross) / problem.epsilon


def solve_regularized(problem: BarycenterProblem, op: LinearOperator,
                      reg: Regularizer, *, accel: bool = True,
                      tol: float = 1e-7, max_iter: int = 20_000,
                      backtrack: bool = True, x0=None,
                      obj_tol: Optional[float] = 1e-11, obj_window: int = 100,
                      full_output: bool = False):
    """Forward-backward solver for the dual of the regularized barycenter.

    The last potential is eliminated through the constraint
    A* g + sum_k lambda_k f_k = 0; iterates are x = ((f_k)_{k<N}, g) and the
    returned barycenter is the semidual gradient at the reconstructed f_N.
    The base step is 1/L with L from the 1/eps smoothness of each semidual
    term and the operator norm bound; with backtrack=True (default) the step
    adapts to the local curvature: it grows between iterations and shrinks
    until the standard quadratic upper model holds, which certifies descent
    of the full objective at every accepted step.  accel=True (default) runs
    FISTA with restart on objective increase; accel=False is the same loop
    with the momentum parameter fixed at 1, plain FB.  Requires
    lambda_N != 0: if the last weight vanishes the inputs are permuted
    internally to move a nonzero weight last (the barycenter is permutation
    invariant).  Zero bins in the inputs are allowed.  A trial costs one K^T
    apply per input, and a step completes its start's gradient with one K
    apply per input.

    Convergence is declared when the proximal-gradient residual
    max|x+ - x|/step drops below tol, or when the best dual objective has
    not improved relatively by obj_tol over the last obj_window iterations
    (set obj_tol=None to require the residual test alone).  `objectives`
    holds the dual objective at x_1 ... x_K, ending at the returned state.
    """
    if not problem.epsilon > 0:
        raise ValueError("the regularized solver requires epsilon > 0")
    if problem.weights[-1] == 0:
        order = np.concatenate([np.flatnonzero(problem.weights == 0),
                                np.flatnonzero(problem.weights != 0)])
        problem = BarycenterProblem(problem.histograms[:, order],
                                    problem.weights[order], problem.cost,
                                    problem.epsilon)

    n, num = problem.size, problem.num_inputs
    terms = _semidual_terms(problem.histograms, _log_kernels(problem.cost, problem.epsilon))
    lam = problem.weights
    neg_lam_n = -lam[-1]
    g_size = int(np.prod(op.out_shape))
    head_size = n * (num - 1)

    # iterates stay flat: x[:head_size] is F_head (n, N - 1), x[head_size:] is g
    def g_part(x):
        return x[head_size:].reshape(op.out_shape)

    def potentials(x):
        # F = (F_head, f_N) with f_N = -(A* g + F_head lambda_head)/lambda_N;
        # dividing by -lambda_N is negating and dividing by lambda_N, bit for bit
        pulled = op.adjoint(g_part(x))
        if num == 1:
            return (pulled / neg_lam_n)[:, None]
        fhead = x[:head_size].reshape(n, num - 1)
        return np.column_stack([fhead, (pulled + fhead @ lam[:-1]) / neg_lam_n])

    def value(x):
        values, gradient = semidual_conjugate_batch(potentials(x), terms, problem.epsilon)
        return float(np.dot(lam, values)), gradient

    if x0 is None:
        x = np.zeros(head_size + g_size)
    else:
        fhead0, g0 = x0
        x = np.concatenate([np.asarray(fhead0, float).ravel(),
                            np.asarray(g0, float).ravel()])
    lip = _lipschitz_bound(problem, op)
    step = 1.0 / lip if lip > 0 else problem.epsilon

    def prox(xv, tau_step):
        # xv is the search's fresh trial: the prox replaces its g part in place
        xv[head_size:] = np.ravel(reg.prox_conjugate(g_part(xv), tau_step))
        return xv

    objectives = []
    converged = False
    residual = np.inf
    best_obj = np.inf
    best_age = 0

    def stagnated(obj):
        nonlocal best_obj, best_age
        if obj < best_obj - (obj_tol or 0.0) * (1.0 + abs(obj)):
            best_obj = obj
            best_age = 0
        else:
            best_age += 1
        return obj_tol is not None and best_age >= obj_window

    def step_from(point, fval, gradient):
        # one forward-backward step from an evaluated point, halved until the
        # quadratic upper model holds (descent certified) or t <= 1e-3 * step
        deltas = gradient()
        delta_last = deltas[:, -1]
        grad = np.empty(head_size + g_size)
        if num > 1:
            np.multiply(lam[:-1], deltas[:, :-1] - delta_last[:, None],
                        out=grad[:head_size].reshape(n, num - 1))
        np.negative(op.forward(delta_last).ravel(), out=grad[head_size:])

        def model(t, cand):
            if t <= 1e-3 * step:
                return np.inf
            diff = cand - point
            bound = fval + float(grad @ diff) + float(diff @ diff) / (2 * t)
            return bound + 1e-15 * (1.0 + abs(bound))

        accepted, used = _halving_search(point, grad, trial_step, 0.0, prox, value, model)
        return accepted, accepted[1] + reg.conjugate(g_part(accepted[0])), used

    grow = 1.3 if backtrack else 1.0
    trial_step = step
    current = ahead = (x, *value(x))  # the iterate, and where the next step starts
    t_mom = 1.0
    obj_prev = np.inf
    for _ in range(max_iter):
        new, obj_new, used = step_from(*ahead)
        if accel and obj_new > obj_prev:  # restart the momentum, re-step from x
            t_mom = 1.0
            new, obj_new, used = step_from(*current)
        objectives.append(obj_new)
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_mom * t_mom)) if accel else 1.0
        momentum = (t_mom - 1.0) / t_next
        x_new = new[0]
        moved = x_new - x
        residual = float(np.abs(moved).max()) / used
        trial_step = min(used * grow, 1e4 * step)
        x, current, t_mom, obj_prev = x_new, new, t_next, obj_new
        if residual <= tol or stagnated(obj_new):
            converged = True
            break
        if momentum:
            y = x_new + momentum * moved
            ahead = (y, *value(y))
        else:  # y is x_new, whose accepted trial holds its value
            ahead = current

    delta_last = current[2]()[:, -1]
    result = RegularizedResult(
        barycenter=Histogram(delta_last, normalize=True),
        state=(x[:head_size].reshape(n, num - 1), g_part(x)), f_last=potentials(x)[:, -1],
        objectives=objectives,
        iterations=len(objectives), converged=converged, step=step,
    )
    if not converged:
        raise IterationLimitError(
            f"regularized solver did not reach tol={tol:g} in {max_iter} iterations",
            best=result, residual=residual, iterations=max_iter,
        )
    return result if full_output else result.barycenter
