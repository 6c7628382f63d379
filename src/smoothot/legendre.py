"""Closed-form Legendre transforms of the regularized transport cost.

`semidual_conjugate` is the conjugate of a -> W_eps(a, b) for a fixed second
histogram (value, simplex-valued gradient, Hessian with 1/eps spectral bound).
`joint_conjugate` treats both marginals as free and exposes the 2/eps-smooth
joint transform.  The semidual has one implementation, `_semidual`, in two
halves: a value from one K^T apply per column, and a gradient completed with
one K apply, which the solvers run only at accepted points.  Its applies and
the Hessian's plan come from `entropic._log_kernels` and `core._gibbs_plan`,
where the cost's structure (dense or grid) is the only switch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import _gibbs_plan, as_cost, as_kernel_cost, logsumexp
# not called here: perfbench/tracing.py still lists this binding as a wrap target
from .core import grid_kernel_apply  # noqa: F401
from .entropic import _log_kernels, _log_mask, ctransform_of_f


def _semidual(F, B, kernels, epsilon):
    """Value half of the columnwise semidual transform of F (n, N) against B (m, N).

    With u = e^{f/eps}, one K^T apply per column gives the values (N,).  Returns
    them and a function that completes the gradient matrix u o K v, v = b/K^T u,
    (n, N), from log K^T u with one K apply per column; `kernels` is
    `_log_kernels`'s pair.  A zero bin of b is a log 0 = -inf mask in log v and
    adds 0 log 0 = 0 to the value, as in `entropic.sinkhorn`.
    """
    apply_kt, apply_k = kernels
    X = F.T / epsilon
    bt = B.T
    log_bt = np.log(np.where(bt > 0, bt, 1.0))
    log_ktu = apply_kt(X)
    values = epsilon * (-(bt * log_bt).sum(axis=1) + 1.0 + (bt * log_ktu).sum(axis=1))
    return values, lambda: np.exp(X + apply_k(log_bt - log_ktu + _log_mask(bt))).T


@dataclass(frozen=True)
class SemidualEval:
    """Value/gradient/optional-Hessian of the single-marginal transform."""

    value: float
    gradient: np.ndarray
    hessian: Optional[np.ndarray] = None


@dataclass(frozen=True)
class JointEval:
    """Value, marginal gradients, and Hessian blocks of the joint transform.

    At eps = 0 only the value is defined; gradients are None.
    """

    value: float
    grad_f: Optional[np.ndarray]
    grad_g: Optional[np.ndarray]
    hess_ff: Optional[np.ndarray] = None
    hess_fg: Optional[np.ndarray] = None
    hess_gg: Optional[np.ndarray] = None

    def hessian(self) -> np.ndarray:
        """Assemble the full (n+m) x (n+m) symmetric Hessian."""
        if self.hess_ff is None:
            raise ValueError("Hessian blocks were not requested")
        top = np.hstack([self.hess_ff, self.hess_fg])
        bottom = np.hstack([self.hess_fg.T, self.hess_gg])
        return np.vstack([top, bottom])


def semidual_conjugate(f, b, cost, epsilon: float,
                       want_hessian: bool = False) -> SemidualEval:
    """Conjugate of the transport cost in its first marginal.

    Value eps*(1 - <b, log b> + <b, log K^T u>) with u = e^{f/eps}; gradient
    u o (K v) with v = b/(K^T u), always a probability vector; Hessian
    (1/eps)(diag(grad) - P diag(b)^{-1} P^T), materialized only on demand.
    """
    fv = np.asarray(f, dtype=float)
    bw = np.asarray(b.weights if hasattr(b, "weights") else b, dtype=float)
    values, grads = semidual_conjugate_batch(fv[:, None], bw[:, None], cost, epsilon)
    gradient = grads[:, 0]

    hessian = None
    if want_hessian:
        # P = diag(u) K diag(v), eps log v is f's c-transform; P is 0 on zero bins
        plan = _gibbs_plan(fv, ctransform_of_f(fv, bw, cost, epsilon),
                           as_kernel_cost(cost), epsilon)
        hessian = (np.diag(gradient) - plan @ (plan / np.where(bw > 0, bw, 1.0)).T) / epsilon
        hessian = 0.5 * (hessian + hessian.T)
    return SemidualEval(value=float(values[0]), gradient=gradient, hessian=hessian)


def semidual_conjugate_batch(F, B, cost, epsilon: float):
    """Columnwise semidual transform: values (N,) and gradient matrix (n, N).

    F is (n, N) and B is (m, N) for an n x m cost; column k is exactly
    semidual_conjugate(F[:, k], B[:, k]).  The value uses +1 where the closed
    form has sum(b); the two are equal for b on the simplex, which every
    caller passes.  Zero bins in B are allowed.
    """
    if not epsilon > 0:
        raise ValueError("the semidual transform requires epsilon > 0")
    F = np.asarray(F, dtype=float)
    B = np.asarray(B, dtype=float)
    c = as_kernel_cost(cost)
    if F.ndim != 2 or B.ndim != 2 or F.shape[1] != B.shape[1]:
        raise ValueError("F and B must be matrices with one column per histogram")
    if (F.shape[0], B.shape[0]) != c.shape:
        raise ValueError("shape mismatch between F, B and the cost")
    values, gradient = _semidual(F, B, _log_kernels(c, epsilon), epsilon)
    return values, gradient()


def joint_conjugate(f, g, cost, epsilon: float,
                    want_hessian: bool = False) -> JointEval:
    """Joint transform in both marginals, eps*log sum exp((f + g - C)/eps).

    The sign follows the probability-vector gradient convention: the value is
    the negated soft minimum of C - (f + g), and the gradients are the
    marginals of the Gibbs plan X* = exp((f + g - C)/eps)/Z, each on the
    simplex.  The Hessian is (1/eps) times the covariance structure of X*,
    PSD with spectral norm at most 2/eps.  At eps = 0 the value is the hard
    maximum of f + g - C and the transform is nonsmooth (no gradients).
    """
    fv = np.asarray(f, dtype=float)
    gv = np.asarray(g, dtype=float)
    c = as_cost(cost)
    if fv.size != c.shape[0] or gv.size != c.shape[1]:
        raise ValueError("shape mismatch between f, g and the cost")
    s = fv[:, None] + gv[None, :] - c
    if epsilon == 0:
        if want_hessian:
            raise ValueError("joint Hessian is undefined at epsilon = 0")
        return JointEval(value=float(s.max()), grad_f=None, grad_g=None)
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")

    log_z = logsumexp(s / epsilon)
    value = float(epsilon * log_z)
    plan = np.exp(s / epsilon - log_z)
    grad_f = plan.sum(axis=1)
    grad_g = plan.sum(axis=0)
    if not want_hessian:
        return JointEval(value=value, grad_f=grad_f, grad_g=grad_g)

    hess_ff = (np.diag(grad_f) - np.outer(grad_f, grad_f)) / epsilon
    hess_gg = (np.diag(grad_g) - np.outer(grad_g, grad_g)) / epsilon
    hess_fg = (plan - np.outer(grad_f, grad_g)) / epsilon
    return JointEval(
        value=value,
        grad_f=grad_f,
        grad_g=grad_g,
        hess_ff=hess_ff,
        hess_fg=hess_fg,
        hess_gg=hess_gg,
    )
