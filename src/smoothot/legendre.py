"""Closed-form Legendre transforms of the regularized transport cost.

`semidual_conjugate` is the conjugate of a -> W_eps(a, b) for a fixed second
histogram (value, simplex-valued gradient, Hessian with 1/eps spectral bound).
`joint_conjugate` treats both marginals as free and exposes the 2/eps-smooth
joint transform.  All evaluations run in the log domain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import GridCost2D, as_cost, entropy, grid_kernel_apply, logsumexp


def _grid_log_ktu_and_grad(fv, log_b, cost: GridCost2D, epsilon):
    log_ktu = grid_kernel_apply(fv / epsilon, cost, epsilon)
    log_v = log_b.reshape(cost.grid_shape) - log_ktu
    log_grad = fv / epsilon + grid_kernel_apply(log_v, cost, epsilon).ravel()
    return log_ktu.ravel(), log_grad


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

    Value eps*(H(b) + <b, log K^T u>) with u = e^{f/eps}; gradient
    u o (K v) with v = b/(K^T u), always a probability vector; Hessian
    (1/eps)(diag(grad) - P diag(b)^{-1} P^T), materialized only on demand.
    """
    if not epsilon > 0:
        raise ValueError("semidual_conjugate requires epsilon > 0")
    fv = np.asarray(f, dtype=float)
    bw = np.asarray(b.weights if hasattr(b, "weights") else b, dtype=float)
    c = as_cost(cost)
    if fv.size != c.shape[0] or bw.size != c.shape[1]:
        raise ValueError("shape mismatch between f, b and the cost")
    if np.any(bw <= 0):
        raise ValueError("semidual_conjugate requires a strictly positive b")

    if isinstance(cost, GridCost2D) and not want_hessian:
        log_ktu, log_grad = _grid_log_ktu_and_grad(fv, np.log(bw), cost, epsilon)
        value = epsilon * (entropy(bw) + float(np.dot(bw, log_ktu)))
        return SemidualEval(value=value, gradient=np.exp(log_grad), hessian=None)

    logk = -c / epsilon
    # log K^T u, then log v = log b - log K^T u
    log_ktu = logsumexp(logk + fv[:, None] / epsilon, axis=0)
    log_v = np.log(bw) - log_ktu
    value = epsilon * (entropy(bw) + float(np.dot(bw, log_ktu)))
    log_grad = fv / epsilon + logsumexp(logk + log_v[None, :], axis=1)
    gradient = np.exp(log_grad)

    hessian = None
    if want_hessian:
        plan = np.exp(fv[:, None] / epsilon + logk + log_v[None, :])
        hessian = (np.diag(gradient) - plan @ (plan / bw[None, :]).T) / epsilon
        hessian = 0.5 * (hessian + hessian.T)
    return SemidualEval(value=value, gradient=gradient, hessian=hessian)


def semidual_conjugate_batch(F, B, cost, epsilon: float):
    """Columnwise semidual transform: values (N,) and gradient matrix (n, N).

    Column k matches semidual_conjugate(F[:, k], B[:, k]) exactly: both expose
    the value convention of the scalar path, which carries a +eps offset over
    the raw vectorized formula -eps * 1^T (B o log(B/(K^T A))).
    """
    if not epsilon > 0:
        raise ValueError("semidual_conjugate_batch requires epsilon > 0")
    fm = np.asarray(F, dtype=float)
    bm = np.asarray(B, dtype=float)
    if fm.ndim != 2 or bm.shape != fm.shape:
        raise ValueError("F and B must be matrices of identical shape")
    c = as_cost(cost)
    if fm.shape[0] != c.shape[0]:
        raise ValueError("row count of F must match the cost")
    if np.any(bm <= 0):
        raise ValueError("batch columns must be strictly positive histograms")

    if isinstance(cost, GridCost2D):
        values = np.empty(fm.shape[1])
        grads = np.empty_like(fm)
        log_b = np.log(bm)
        for k in range(fm.shape[1]):
            log_ktu, log_grad = _grid_log_ktu_and_grad(
                fm[:, k], log_b[:, k], cost, epsilon
            )
            values[k] = epsilon * (
                -float(np.dot(bm[:, k], log_b[:, k])) + 1.0
                + float(np.dot(bm[:, k], log_ktu))
            )
            grads[:, k] = np.exp(log_grad)
        return values, grads

    # (N, n, m) broadcast: one logsumexp pass per axis
    logk = -c / epsilon
    t = logk[None, :, :] + fm.T[:, :, None] / epsilon
    log_ktu = logsumexp(t, axis=1)                       # (N, m)
    log_v = np.log(bm.T) - log_ktu                       # (N, m)
    values = epsilon * (
        -np.sum(bm.T * np.log(bm.T), axis=1)
        + 1.0
        + np.sum(bm.T * log_ktu, axis=1)
    )
    log_grad = fm.T / epsilon + logsumexp(
        logk[None, :, :] + log_v[:, None, :], axis=2
    )
    return values, np.exp(log_grad).T


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
