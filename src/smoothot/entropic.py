"""Entropic optimal transport between two histograms.

Sinkhorn iterations built from soft c-transforms, plus the primal and dual
objective values.  `sinkhorn` has one loop for the overrelaxation, the
safeguard and the stop test; only the arithmetic of a sweep depends on the
cost's structure.  On a GridCost2D a sweep acts on the potentials (f, g) in
the log domain and makes 3 `grid_kernel_apply` calls.  On a dense cost it
acts on scalings u, v of an absorbed kernel exp((f' + g' - C)/eps), and a
scaling that grows past a fixed bound is folded into f', g' (Schmitzer's
stabilized scaling), so small epsilon does not overflow.  A dense sweep is
two plain products, each of which also gives one marginal of the plan, so
the residual check costs none of its own; a product with a sum below 1e-250
sends its half-sweep to the exact `dense_kernel_apply`.  Sweeps are
overrelaxed, g <- g + w (T_b(f) - g) and then f <- f + w (T_a(g) - f), with
w = 1 for the first 20 sweeps and then w = min(cap, 2/(1 + sqrt(1 - theta)))
from the contraction rate theta of the marginal residual at w = 1.  A sweep
whose residual is not finite or exceeds 10x the best so far is undone and the
cap lowered; the check reads the residuals the sweep computes anyway, so the
safeguard costs no kernel apply.  A solve ends on a sweep at w = 1, so the
plan's row marginal is a to rounding and its mass is 1.  The value comes from
the last sweep's row marginal and the plan is a factored `Coupling.gibbs`, so
on a grid no n^2 array exists unless the plan's matrix is asked for.  Via
`_log_weights`, a zero-mass bin is a log 0 = -inf mask in every log-domain
kernel input; a dense solve sweeps on the supports and completes the
potentials of zero bins at the end.  `_log_kernels`, shared with `legendre`,
holds the package's one switch on the cost's structure for log-domain
applies; either path applies a whole stack in one call, as a shifted matrix
product with an exact `logsumexp` fallback that runs only when one minimum
over the sums finds one below 1e-250.  On a symmetric cost,
`symmetric_potential` finds the self-transport potential of W_eps(a, a) by
an averaged fixed point, as a warm start for `sinkhorn`.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .core import (
    _UNDERFLOW,
    Coupling,
    FeasibilityError,
    GridCost2D,
    IterationLimitError,
    Potentials,
    _gibbs_plan,
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

_NORMAL = np.finfo(float).tiny  # smallest normal double

# `sinkhorn` folds a dense sweep's scaling into its potential once the scaling
# exceeds this bound.  A product drops only kernel entries below 2.2e-308
# (subnormals set to 0, or lost to exp underflow), each times a scaling of at
# most 1e30, so a sum of n terms moves by under n * 2.2e-278, and one that
# passes the 1e-250 underflow test by under half an ulp (1.1e-16) for n up to
# 5e11.  A scaling below 1 only shrinks what a product drops, so the range
# has no lower end: each kernel is built with its row sums a or its column
# sums b, so its entries are at most about 1, and a new scaling, a mass over
# a sum of at most n entries times 1e30, stays a normal number for masses
# above 1e-250.
_SCALING_BOUND = 1e30


def _past_bound(s, mass_max, low, omega):
    """Whether a new scaling s exceeds _SCALING_BOUND; low is its product's smallest sum.

    At omega = 1, s = mass / product is at most mass_max / low, so s itself is
    read only when that ratio does not settle it.
    """
    return (omega > 1.0 or mass_max > _SCALING_BOUND * low) and s.max() > _SCALING_BOUND


def _log_kernels(cost, epsilon):
    """(x -> log K^T e^x, x -> log K e^x), K = exp(-C/eps), x a vector or (N, n) stack.

    The package's one switch on the cost's structure for log-domain applies
    (`sinkhorn` sweeps a dense cost on an absorbed kernel of its own): a
    GridCost2D runs this module's `grid_kernel_apply` once per stack (its
    kernel is symmetric, so both directions are one function), a dense cost,
    given as its validated entries, `dense_kernel_apply` on kernels built
    here, once per solve, with their subnormal entries set to 0.
    """
    if isinstance(cost, GridCost2D):
        def apply(x):
            return grid_kernel_apply(x, cost, epsilon).reshape(x.shape)
        return apply, apply
    def dense(lc):
        shift = lc.max(axis=0)
        kern = np.ascontiguousarray(np.exp(lc - shift))
        # subnormal entries slow every product; each is below 2.2e-308, so
        # dropping them moves a sum of at least 1e-250 by under half an ulp,
        # and lower sums are recomputed from lc
        kern[kern < _NORMAL] = 0.0
        kernel = (kern, shift, lc)
        return lambda x: dense_kernel_apply(x, kernel)
    return dense(-cost / epsilon), dense(-cost.T / epsilon)


def dense_kernel_apply(x, kernel) -> np.ndarray:
    """log(e^x @ exp(lc)) for x a vector or (N, n) stack, kernel = (exp(lc - s), s, lc).

    s is lc's column maxima; each vector (entries finite or -inf) is shifted by
    its maximum m, at least -1e308, and multiplied as a C-contiguous (N, 1, n)
    stack, each row bit for bit a single vector's product: out = log S + m + s.
    As in `grid_kernel_apply`, one minimum over S tells whether any S fell
    below 1e-250, and only then are those outputs recomputed exactly with
    `logsumexp`; an empty sum gives -inf, without warnings.
    """
    kern, shift, lc = kernel
    m = x.max(axis=-1, keepdims=True, initial=-1e308)
    e = np.subtract(x, m, order="C")
    s = (np.exp(e, out=e)[..., None, :] @ kern)[..., 0, :]
    fallback = s.min() < _UNDERFLOW
    if fallback:
        low = s < _UNDERFLOW
        s[low] = 1.0  # placeholder for the exact fallback below
    out = np.log(s, out=s)
    out += m + shift
    if fallback:  # k[:-1] indexes each low output's vector, k[-1] its column
        k = np.nonzero(low)
        out[k] = logsumexp(x[k[:-1]] + lc.T[k[-1]], axis=-1)
    return out


def _log_weights(w):
    """How w enters the log domain: log w, 0 off the support, and its 0/-inf mask."""
    support = w > 0
    return np.log(np.where(support, w, 1.0)), np.where(support, 0.0, -np.inf)


def ctransform_of_f(f, b, cost, epsilon: float) -> np.ndarray:
    """Soft c-transform of f: eps*log(b_j) + softmin_eps(C[:, j] - f).

    For eps > 0 it is eps*log b - eps*log K^T e^{f/eps}, one kernel apply, so
    a GridCost2D builds no entries; at eps = 0 the plain column minimum.
    Coordinates with b_j = 0 and eps > 0 come back as -inf (log 0);
    callers must treat those points as inactive.  The row transform of g
    against a is ctransform_of_f(g, a, C.T, eps); a GridCost2D has no .T
    and is symmetric, so there the grid itself is passed.
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
    log_b, mask = _log_weights(bw)
    return epsilon * (log_b + mask) - epsilon * _log_kernels(c, epsilon)[0](fv / epsilon)


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
    log_kg = _log_kernels(c, epsilon)[1](gv / epsilon + _log_weights(bw)[1])
    mass = np.exp(fv / epsilon + _log_weights(aw)[1] + log_kg).sum()
    return float(np.dot(fv, aw) + np.dot(gv, bw) - epsilon * mass)


def primal_value(a, b, cost, epsilon: float, coupling) -> float:
    """Regularized primal objective <P, C> - eps*H(P) at a feasible plan."""
    aw = as_weights(a, "a")
    bw = as_weights(b, "b")
    p = coupling.matrix if isinstance(coupling, Coupling) else np.asarray(coupling, float)
    c = as_kernel_cost(cost)
    if p.shape != c.shape:
        raise ValueError("coupling and cost shapes differ")
    row = np.abs(p.sum(axis=1) - aw).sum()
    col = np.abs(p.sum(axis=0) - bw).sum()
    if row > 1e-6 or col > 1e-6:
        raise FeasibilityError(
            f"coupling marginals violate feasibility (l1 residuals {row:.2e}, {col:.2e})"
        )
    value = _plan_cost(p, c)
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
    converged: bool = True
    absorptions: int = 0


class _GridSweeps:
    """`sinkhorn`'s sweeps on a GridCost2D: log domain, 3 grid applies each.

    The state is (f, g, log K^T e^{f/eps + ma}).  Zero bins stay in place as
    masks, so f of a zero row is its unit-weight transform after every sweep.
    """

    absorptions = 0  # a grid builds no absorbed kernel

    def __init__(self, a, b, cost, epsilon, f):
        self.a, self.b, self.epsilon = a, b, epsilon
        self.cols, self.rows = _log_kernels(cost, epsilon)
        (self.la, self.ma), (self.lb, self.mb) = _log_weights(a), _log_weights(b)
        self.state = f, np.zeros(b.size), None

    def sweep(self, omega):
        """One sweep at relaxation omega; returns the plan's row and column marginals."""
        eps = self.epsilon
        f, g, _ = self.state
        # the kernel is applied to f again rather than log_kf carried over
        # from the last sweep: the same numbers, one apply more.  A 2-apply
        # sweep must move perfbench's pin of 3 applies a sweep with it, which
        # is ROADMAP item 2's benchmark change
        log_kf = self.cols(f / eps + self.ma)
        t = eps * (self.lb - log_kf)
        g = t if omega == 1.0 else g + omega * (t - g)
        v = g / eps + self.mb
        log_kg = self.rows(v)
        t = eps * (self.la - log_kg)
        f = t if omega == 1.0 else f + omega * (t - f)
        u = f / eps + self.ma
        log_kf = self.cols(u)
        self.state = f, g, log_kf
        return np.exp(u + log_kg), np.exp(v + log_kf)

    def potentials(self):
        f, g, log_kf = self.state
        # g of a zero column: the transform of the final f, like f of a zero row
        return f, np.where(self.b > 0, g, -self.epsilon * log_kf)


class _DenseSweeps:
    """`sinkhorn`'s sweeps on a dense cost: two plain products on an absorbed kernel.

    On the supports of a and b the state is (f', g', K, u, v, K^T u), with
    K = exp((f' + g' - C)/eps) (subnormal entries set to 0), so that
    f = f' + eps log u and g = g' + eps log v (Schmitzer, arXiv:1610.06519,
    section 3).  A sweep is v <- b / K^T u, then u <- a / K v, each scaling
    moved to s (t/s)^omega for its target t at omega > 1.  A scaling above
    _SCALING_BOUND is folded into (f', g'), and K rebuilt with u = v = 1; a
    half-sweep whose product has a sum below 1e-250 is redone with the exact
    `dense_kernel_apply` and folded the same way.  `absorptions` counts the
    kernel builds, the first one included.
    """

    def __init__(self, a, b, cost, epsilon, f):
        self.full = a, b, cost
        self.on_a, self.on_b = a > 0, b > 0
        self.zero_bins = not (self.on_a.all() and self.on_b.all())
        if self.zero_bins:
            a, b, f = a[self.on_a], b[self.on_b], f[self.on_a]
            cost = cost[np.ix_(self.on_a, self.on_b)]
        self.a, self.b, self.cost, self.epsilon = a, b, cost, epsilon
        self.log_a, self.log_b = np.log(a), np.log(b)
        self.a_max, self.b_max = a.max(), b.max()
        self.ones = np.ones(a.size), np.ones(b.size)
        self.exact = _log_kernels(cost, epsilon)
        self.absorptions = 0
        # g' is the exact column transform of f, so K^T 1 = b
        g = epsilon * (self.log_b - self.exact[0](f / epsilon))
        self.state = self._absorb(f, g) + (b,)

    def _absorb(self, f, g):
        """(f, g, K, 1, 1) for the kernel of potentials f, g."""
        kern = _gibbs_plan(f, g, self.cost, self.epsilon)
        # subnormal entries slow every product (see `_log_kernels`)
        kern[kern < _NORMAL] = 0.0
        self.absorptions += 1
        return (f, g, kern) + self.ones

    def _fold(self, f, g, u, v):
        eps = self.epsilon
        return self._absorb(f + eps * np.log(u), g + eps * np.log(v))

    def sweep(self, omega):
        """One sweep at relaxation omega; returns the plan's row and column marginals."""
        eps = self.epsilon
        fb, gb, kern, u, v, ktu = self.state
        low = ktu.min()
        if low < _UNDERFLOW:  # the exact column half-sweep
            f = fb + eps * np.log(u)
            t = eps * (self.log_b - self.exact[0](f / eps))
            g = gb + eps * np.log(v)
            fb, gb, kern, u, v = self._absorb(f, t if omega == 1.0 else g + omega * (t - g))
        else:
            t = self.b / ktu
            v = t if omega == 1.0 else v * (t / v) ** omega
            if _past_bound(v, self.b_max, low, omega):
                fb, gb, kern, u, v = self._fold(fb, gb, u, v)
        kv = kern @ v
        low = kv.min()
        if low < _UNDERFLOW:  # the exact row half-sweep
            g = gb + eps * np.log(v)
            log_kg = self.exact[1](g / eps)
            t = eps * (self.log_a - log_kg)
            f = fb + eps * np.log(u)
            f = t if omega == 1.0 else f + omega * (t - f)
            fb, gb, kern, u, v = self._absorb(f, g)
            row = np.exp(f / eps + log_kg)
        else:
            t = self.a / kv
            u = t if omega == 1.0 else u * (t / u) ** omega
            row = u * kv
            if _past_bound(u, self.a_max, low, omega):
                fb, gb, kern, u, v = self._fold(fb, gb, u, v)
        # the column marginal's K^T u is the next sweep's column product
        ktu = u @ kern
        self.state = fb, gb, kern, u, v, ktu
        return row, v * ktu

    def potentials(self):
        """f and g on every bin; a zero bin's is the unit-weight transform of the other."""
        fb, gb, _, u, v, _ = self.state
        eps = self.epsilon
        f, g = fb + eps * np.log(u), gb + eps * np.log(v)
        if not self.zero_bins:
            return f, g
        a, b, cost = self.full
        ff, gg = np.full(a.size, -np.inf), np.full(b.size, -np.inf)
        ff[self.on_a], gg[self.on_b] = f, g
        cols, rows = _log_kernels(cost, eps)
        return (np.where(self.on_a, ff, -eps * rows(gg / eps)),
                np.where(self.on_b, gg, -eps * cols(ff / eps)))

def sinkhorn(a, b, cost, epsilon: float, *, tol: float = DEFAULT_TOL,
             max_iter: int = DEFAULT_MAX_ITER, f0=None) -> SinkhornResult:
    """Overrelaxed block-coordinate dual ascent by alternating soft c-transforms.

    Parameters
    ----------
    a, b : histograms, zero bins allowed (a zero row/column of the plan)
    cost : ground cost matrix or GridCost2D
    epsilon : regularization strength, > 0
    tol : l1 marginal violation of the implied plan, checked every sweep
    max_iter : sweep budget, >= 1; running out raises IterationLimitError whose
        `best` is the result at the last accepted sweep, with converged=False
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

    Only the arithmetic of a sweep depends on the cost's structure.  A
    GridCost2D, zero bins or not, is swept in the log domain by three
    `grid_kernel_apply` calls, with zero bins as masks (0 on the support,
    -inf off it) in the kernel inputs, so its entries are never built.  A
    dense cost is swept on the supports of a and b as two plain products
    with an absorbed kernel exp((f' + g' - C)/eps): the scalings u, v with
    f = f' + eps log u and g = g' + eps log v are updated as v = b / K^T u
    and u = a / K v, and folded into (f', g') when one exceeds 1e30 or a
    product underflows, the latter after an exact log-domain half-sweep;
    `absorptions` counts the kernel builds.  The set-up takes one exact apply
    of f0 (or 0) for the first g'.  A zero bin carries no mass, and its
    potential is the unit-weight transform of the other one: finite, and a
    valid warm start.  Returns the potentials, the implied plan
    diag(e^{f/eps}) K diag(e^{g/eps}) as a factored `Coupling.gibbs`, and the
    dual objective value <f,a> + <g,b> - eps * sum(P), with the plan's mass
    taken from the last sweep's row marginal.  Neither takes a kernel apply
    of its own.
    """
    if not epsilon > 0:
        raise ValueError("sinkhorn requires epsilon > 0")
    if not tol > 0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
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

    sweeps = (_GridSweeps if isinstance(c, GridCost2D) else _DenseSweeps)(
        aw, bw, c, epsilon, f)
    omega, cap, best_res = 1.0, _OMEGA_CAP, np.inf
    plain = []  # residuals of the sweeps at omega = 1 since the last restart
    restarts = 0
    converged = False
    for iterations in range(1, max_iter + 1):
        if omega > 1.0:
            kept = sweeps.state, row, row_res, col_res
        # an overrelaxed sweep may blow up (overflow, inf / inf, log 0); the
        # safeguard then undoes it
        with (np.errstate(over="ignore", divide="ignore", invalid="ignore")
              if omega > 1.0 else nullcontext()):
            row, col = sweeps.sweep(omega)
            row_res = float(np.abs(row - sweeps.a).sum())
            col_res = float(np.abs(col - sweeps.b).sum())
        residual = max(row_res, col_res)
        if omega > 1.0 and not residual <= _REJECT * best_res:
            # safeguard: undo the sweep, lower the cap, measure theta again
            sweeps.state, row, row_res, col_res = kept
            cap = 1.0 + 0.5 * (omega - 1.0)
            omega = 1.0
            plain = []
            restarts += 1
            continue
        best_res = min(best_res, residual)
        if row_res <= tol and col_res <= tol:
            if omega == 1.0:
                converged = True
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

    f, g = sweeps.potentials()
    value = float(np.dot(f, aw) + np.dot(g, bw) - epsilon * row.sum())
    (_, ma), (_, mb) = _log_weights(aw), _log_weights(bw)
    result = SinkhornResult(
        potentials=Potentials(f, g),
        coupling=Coupling.gibbs(f + epsilon * ma, g + epsilon * mb, c, epsilon, aw, bw),
        value=value,
        iterations=iterations,
        row_residual=row_res,
        col_residual=col_res,
        restarts=restarts,
        converged=converged,
        absorptions=sweeps.absorptions,
    )
    if not converged:
        raise IterationLimitError(
            f"sinkhorn did not reach tol={tol:g} in {max_iter} sweeps",
            best=result, residual=max(row_res, col_res), iterations=max_iter)
    return result


def symmetric_potential(a, cost, epsilon: float, *,
                        tol: float = DEFAULT_TOL) -> np.ndarray | None:
    """Symmetric potential of W_eps(a, a): f = g for a symmetric cost.

    Averaged fixed point f <- (f + T_a(f))/2 with T_a the soft c-transform
    against a, one kernel apply per iteration (Feydy et al., AISTATS 2019).
    Stops when the plan diag(e^{f/eps}) K diag(e^{f/eps}) has l1 marginal
    residual <= tol, the test sinkhorn applies to each marginal, so
    sinkhorn(a, a, cost, epsilon, f0=f) certifies it within a sweep.  On a
    zero bin of a, f is the finite unit-weight transform that `sinkhorn` leaves
    there.  Returns None when the cost is not symmetric (a GridCost2D always
    is; a matrix is when it equals its transpose).  Raises IterationLimitError
    carrying the last iterate after DEFAULT_MAX_ITER applies.
    """
    if not epsilon > 0:
        raise ValueError("symmetric_potential requires epsilon > 0")
    aw = as_weights(a, "a")
    c = as_kernel_cost(cost)
    if c.shape != (aw.size, aw.size):
        raise ValueError("cost shape does not match the histogram")
    apply_kt, apply = _log_kernels(c, epsilon)
    # one function for both directions marks a grid's symmetric kernel
    if apply_kt is not apply and not np.array_equal(c, c.T):
        return None
    max_iter = DEFAULT_MAX_ITER
    la, ma = _log_weights(aw)
    f = np.zeros(aw.size)
    residual = np.inf
    for _ in range(max_iter):
        u = f / epsilon + ma
        log_kf = apply(u)
        residual = float(np.abs(np.exp(u + log_kf) - aw).sum())
        if residual <= tol:
            return np.where(aw > 0, f, -epsilon * log_kf)
        f = 0.5 * (f + epsilon * (la - log_kf))
    raise IterationLimitError(
        f"symmetric_potential did not reach tol={tol:g} in {max_iter} applies",
        best=f, residual=residual, iterations=max_iter,
    )


def transport_cost(coupling, cost) -> float:
    """Linear transport cost <P, C> of a plan."""
    p = coupling.matrix if isinstance(coupling, Coupling) else np.asarray(coupling, float)
    return _plan_cost(p, as_kernel_cost(cost))


def _plan_cost(p, c) -> float:
    """<P, C> for a cost from `as_kernel_cost`, building no grid entries.

    On a GridCost2D, C[(i, j), (k, l)] = row_sq[i, k] + col_sq[j, l], so
    <P, C> is taken against the plan's sums over (j, l) and over (i, k).
    """
    if isinstance(c, GridCost2D):
        h, w = c.grid_shape
        p4 = p.reshape(h, w, h, w)
        return float((p4.sum(axis=(1, 3)) * c.row_sq).sum()
                     + (p4.sum(axis=(0, 2)) * c.col_sq).sum())
    return float((p * c).sum())
