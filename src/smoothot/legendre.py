"""Closed-form Legendre transforms of the regularized transport cost.

`semidual_conjugate` is the conjugate of a -> W_eps(a, b) for a fixed second
histogram (value, simplex-valued gradient, Hessian with 1/eps spectral bound).
`joint_conjugate` treats both marginals as free and exposes the 2/eps-smooth
joint transform.  All evaluations run in the log domain, and the scalar and
batched semidual share one implementation, `_semidual`.  Its kernel applies
and the Hessian's plan come from `entropic._log_kernels` and
`core._gibbs_plan`, where the cost's structure (dense or separable grid) is
the only switch; an apply is a shifted matmul with an exact fallback.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import _gibbs_plan, as_cost, as_kernel_cost, logsumexp
# not called here: perfbench/tracing.py still lists this binding as a wrap target
from .core import grid_kernel_apply  # noqa: F401
from .entropic import _log_kernels


def _semidual(F, B, cost, epsilon, value_only=False, kernels=None):
    """Columnwise semidual transform of F (n, N) against histograms B (m, N).

    With u = e^{f/eps} per column, returns the values (N,), log K^T u (N, m)
    and the log-gradients log(u o K v), v = b/(K^T u), as (N, n) stacks.
    value_only=True skips the K apply and returns None for the log-gradients;
    the values are the same arithmetic either way.
    """
    if not epsilon > 0:
        raise ValueError("the semidual transform requires epsilon > 0")
    c = cost if kernels is not None else as_kernel_cost(cost)
    if F.ndim != 2 or B.ndim != 2 or F.shape[1] != B.shape[1]:
        raise ValueError("F and B must be matrices with one column per histogram")
    if (F.shape[0], B.shape[0]) != c.shape:
        raise ValueError("shape mismatch between F, B and the cost")
    if (B <= 0).any():
        raise ValueError("the semidual transform requires strictly positive histograms")
    apply_kt, apply_k = kernels if kernels is not None else _log_kernels(c, epsilon)
    X = F.T / epsilon
    bt = B.T
    log_bt = np.log(bt)
    log_ktu = apply_kt(X)
    values = epsilon * (-(bt * log_bt).sum(axis=1) + 1.0 + (bt * log_ktu).sum(axis=1))
    if value_only:
        return values, log_ktu, None
    return values, log_ktu, X + apply_k(log_bt - log_ktu)


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
    values, log_ktu, log_grad = _semidual(fv[:, None], bw[:, None], cost, epsilon)
    gradient = np.exp(log_grad[0])

    hessian = None
    if want_hessian:
        log_v = np.log(bw) - log_ktu[0]
        plan = _gibbs_plan(fv, epsilon * log_v, as_kernel_cost(cost), epsilon)
        hessian = (np.diag(gradient) - plan @ (plan / bw[None, :]).T) / epsilon
        hessian = 0.5 * (hessian + hessian.T)
    return SemidualEval(value=float(values[0]), gradient=gradient, hessian=hessian)


def semidual_conjugate_batch(F, B, cost, epsilon: float, *, _value_only=False,
                             _kernels=None):
    """Columnwise semidual transform: values (N,) and gradient matrix (n, N).

    F is (n, N) and B is (m, N) for an n x m cost; column k is exactly
    semidual_conjugate(F[:, k], B[:, k]).  The value uses +1 where the closed
    form has sum(b); the two are equal for b on the simplex, which every
    caller passes.  Private: _value_only, for line-search trials, skips the
    gradient's kernel apply (None in its place); _kernels is `_log_kernels`'s pair.
    """
    values, _, log_grad = _semidual(
        np.asarray(F, dtype=float), np.asarray(B, dtype=float), cost, epsilon,
        value_only=_value_only, kernels=_kernels,
    )
    return values, None if log_grad is None else np.exp(log_grad).T


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
