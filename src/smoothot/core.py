"""Shared numeric types and the simplex/entropy/soft-minimum/log-sum-exp primitives.

Everything here is a pure function of its inputs; the wrapper types freeze
their arrays after validation, so values can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

# Library-wide tolerances (single source of truth for all modules and tests).
SIMPLEX_ATOL = 1e-10  # |sum(weights) - 1| allowed on histograms
MASS_ATOL = 1e-8      # |total coupling mass - 1| allowed on couplings


class FeasibilityError(ValueError):
    """A coupling or marginal pair violates its feasibility contract."""


class IterationLimitError(RuntimeError):
    """An iterative solver hit max_iter before reaching its tolerance.

    Attributes carry the best iterate seen and the last convergence measure,
    so callers can inspect, loosen the tolerance, or resume.
    """

    def __init__(self, message: str, *, best=None, residual=None, iterations=None):
        super().__init__(message)
        self.best = best
        self.residual = residual
        self.iterations = iterations


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float)
    out.setflags(write=False)
    return out


def as_weights(h, name: str = "histogram") -> np.ndarray:
    """Coerce a Histogram or array-like to a validated simplex vector."""
    if isinstance(h, Histogram):
        return h.weights
    w = np.asarray(h, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ValueError(f"{name} must be a nonempty vector")
    if not np.all(np.isfinite(w)) or np.any(w < 0):
        raise ValueError(f"{name} must be finite and nonnegative")
    if abs(w.sum() - 1.0) > SIMPLEX_ATOL:
        raise ValueError(f"{name} must sum to 1 within {SIMPLEX_ATOL:g} (got {w.sum()!r})")
    return w


def as_cost(c, name: str = "cost") -> np.ndarray:
    """Coerce a CostMatrix or array-like to a validated cost array."""
    if isinstance(c, CostMatrix):
        return c.entries
    m = np.asarray(c, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"{name} must be a matrix")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} must have finite entries")
    return m


@dataclass(frozen=True)
class Histogram:
    """Point masses on the probability simplex (nonnegative, unit total)."""

    weights: np.ndarray

    def __init__(self, weights, *, normalize: bool = False):
        w = np.asarray(weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("histogram weights must be a nonempty vector")
        if not np.all(np.isfinite(w)):
            raise ValueError("histogram weights must be finite")
        if np.any(w < 0):
            raise ValueError("histogram weights must be nonnegative")
        if normalize:
            total = w.sum()
            if total <= 0:
                raise ValueError("cannot normalize a zero-mass histogram")
            w = w / total
        elif abs(w.sum() - 1.0) > SIMPLEX_ATOL:
            raise ValueError(
                f"histogram weights must sum to 1 within {SIMPLEX_ATOL:g}; "
                "pass normalize=True to rescale on load"
            )
        object.__setattr__(self, "weights", _frozen(w))

    @classmethod
    def normalized(cls, weights) -> "Histogram":
        return cls(weights, normalize=True)

    def __len__(self) -> int:
        return self.weights.size


@dataclass(frozen=True)
class CostMatrix:
    """Ground cost between two supports, optionally carrying grid points."""

    entries: np.ndarray
    points: Optional[np.ndarray] = None

    def __init__(self, entries, points=None):
        m = np.asarray(entries, dtype=float)
        if m.ndim != 2:
            raise ValueError("cost entries must form a matrix")
        if not np.all(np.isfinite(m)):
            raise ValueError("cost entries must be finite")
        if np.any(m < 0):
            raise ValueError("cost entries must be nonnegative")
        object.__setattr__(self, "entries", _frozen(m))
        object.__setattr__(
            self, "points", None if points is None else _frozen(np.atleast_2d(points))
        )

    @classmethod
    def squared_euclidean(cls, points) -> "CostMatrix":
        """Pairwise squared distances between the rows of `points`."""
        z = np.atleast_2d(np.asarray(points, dtype=float))
        if z.shape[0] == 1 and z.shape[1] > 1:
            z = z.T  # a flat vector is a list of 1-D points
        diff = z[:, None, :] - z[None, :, :]
        m = np.einsum("ijk,ijk->ij", diff, diff)
        np.fill_diagonal(m, 0.0)
        return cls(np.maximum(m, 0.0), points=z)

    @property
    def shape(self):
        return self.entries.shape


def grid_points_1d(n: int, lo: float, hi: float) -> np.ndarray:
    """n uniformly spaced points on [lo, hi], as a (n, 1) array."""
    if n < 1 or not hi > lo:
        raise ValueError("need n >= 1 and hi > lo")
    return np.linspace(lo, hi, n).reshape(-1, 1)


def grid_points_2d(h: int, w: int) -> np.ndarray:
    """Row-major pixel centers of an h-by-w grid on the unit square."""
    if h < 1 or w < 1:
        raise ValueError("grid dimensions must be positive")
    ys = (np.arange(h) + 0.5) / h
    xs = (np.arange(w) + 0.5) / w
    yy, xx = np.meshgrid(ys, xs, indexing="ij")
    return np.column_stack([xx.ravel(), yy.ravel()])


def rescale_median(cost) -> np.ndarray:
    """Divide a cost matrix by the median of its entries (median becomes 1)."""
    m = as_cost(cost)
    med = float(np.median(m))
    if med <= 0:
        raise ValueError("cost median must be positive to rescale")
    return m / med


class GridCost2D(CostMatrix):
    """Squared-Euclidean cost on a regular h x w grid over the unit square.

    Keeps the per-axis squared-distance factors so kernel applications can run
    as two 1-D soft-minimum passes instead of one dense n^2 pass; the entries
    matrix is still materialized for code that needs it.
    """

    def __init__(self, h: int, w: int, scale: float = 1.0):
        if scale <= 0:
            raise ValueError("scale must be positive")
        pts = grid_points_2d(h, w)
        ys = (np.arange(h) + 0.5) / h
        xs = (np.arange(w) + 0.5) / w
        row_sq = scale * (ys[:, None] - ys[None, :]) ** 2
        col_sq = scale * (xs[:, None] - xs[None, :]) ** 2
        entries = (
            row_sq[:, None, :, None] + col_sq[None, :, None, :]
        ).reshape(h * w, h * w)
        super().__init__(entries, points=pts)
        object.__setattr__(self, "grid_shape", (h, w))
        object.__setattr__(self, "scale", float(scale))
        object.__setattr__(self, "row_sq", _frozen(row_sq))
        object.__setattr__(self, "col_sq", _frozen(col_sq))

    def median_rescaled(self) -> "GridCost2D":
        """Grid cost divided by its median, with the structure retained."""
        med = float(np.median(self.entries))
        if med <= 0:
            raise ValueError("cost median must be positive to rescale")
        h, w = self.grid_shape
        return GridCost2D(h, w, scale=self.scale / med)


def _lse_pairs_axis0(x, kern):
    """out[j, c] = logsumexp_r(x[r, c] + kern[r, j]), stabilized per output."""
    t = x[:, None, :] + kern[:, :, None]
    m = t.max(axis=0)
    return m + np.log(np.exp(t - m[None, :, :]).sum(axis=0))


def grid_kernel_apply(logvals, cost: GridCost2D, epsilon: float) -> np.ndarray:
    """Log-domain Gibbs-kernel application on a grid, by two 1-D passes.

    Computes logsumexp_{r,c}(logvals[r,c] - C[(r,c),(r',c')]/epsilon) for all
    output pixels; an exact rewriting of the dense pass for the separable
    squared-Euclidean grid cost (the kernel is symmetric on the grid).
    """
    h, w = cost.grid_shape
    inner = _lse_pairs_axis0(logvals.reshape(h, w), -cost.row_sq / epsilon)
    return _lse_pairs_axis0(inner.T, -cost.col_sq / epsilon).T


@dataclass(frozen=True)
class GibbsKernel:
    """K = exp(-C/epsilon) with the log-domain form retained."""

    epsilon: float
    kernel: np.ndarray
    logkernel: np.ndarray

    def __init__(self, cost, epsilon: float):
        if not epsilon > 0:
            raise ValueError("epsilon must be positive")
        c = as_cost(cost)
        logk = -c / epsilon
        object.__setattr__(self, "epsilon", float(epsilon))
        object.__setattr__(self, "logkernel", _frozen(logk))
        object.__setattr__(self, "kernel", _frozen(np.exp(logk)))

    @property
    def shape(self):
        return self.kernel.shape


@dataclass(frozen=True)
class Coupling:
    """Transport plan with its marginal residuals against the target pair."""

    matrix: np.ndarray
    row_residual: float
    col_residual: float

    def __init__(self, matrix, a, b):
        p = np.asarray(matrix, dtype=float)
        if p.ndim != 2:
            raise ValueError("coupling must be a matrix")
        if np.any(p < 0) or not np.all(np.isfinite(p)):
            raise FeasibilityError("coupling entries must be finite and nonnegative")
        if abs(p.sum() - 1.0) > MASS_ATOL:
            raise FeasibilityError(
                f"coupling mass must be 1 within {MASS_ATOL:g} (got {p.sum()!r})"
            )
        aw = as_weights(a, "first marginal")
        bw = as_weights(b, "second marginal")
        if p.shape != (aw.size, bw.size):
            raise ValueError("coupling shape does not match the marginals")
        object.__setattr__(self, "matrix", _frozen(p))
        object.__setattr__(self, "row_residual", float(np.abs(p.sum(axis=1) - aw).sum()))
        object.__setattr__(self, "col_residual", float(np.abs(p.sum(axis=0) - bw).sum()))


@dataclass(frozen=True)
class Potentials:
    """Dual vector pair for one transport problem (cost units)."""

    f: np.ndarray
    g: np.ndarray

    def __init__(self, f, g):
        fv = np.asarray(f, dtype=float)
        gv = np.asarray(g, dtype=float)
        if fv.ndim != 1 or gv.ndim != 1:
            raise ValueError("potentials must be vectors")
        if not (np.all(np.isfinite(fv)) and np.all(np.isfinite(gv))):
            raise ValueError("potentials must be finite")
        object.__setattr__(self, "f", _frozen(fv))
        object.__setattr__(self, "g", _frozen(gv))


def logsumexp(a, axis=None):
    """log(sum(exp(a))) over `axis` (every entry when None), in plain numpy.

    Each slice is shifted by its maximum before exponentiation, so entries far
    outside the exp range neither overflow nor underflow.  A slice that is all
    -inf gives -inf and one holding +inf gives +inf, without warnings.
    """
    a = np.asarray(a, dtype=float)
    m = a.max(axis=axis, keepdims=True)
    finite = np.isfinite(m)
    all_finite = finite.all()
    if not all_finite:
        m = np.where(finite, m, 0.0)  # an infinite maximum is no shift
    t = a - m
    np.exp(t, out=t)
    s = t.sum(axis=axis)
    m = m.reshape(()) if axis is None else m.squeeze(axis)
    if all_finite:
        return np.log(s) + m  # every sum holds exp(0) = 1
    with np.errstate(divide="ignore"):
        return np.log(s) + m  # an all -inf slice sums to 0


def softmin(u, epsilon: float) -> float:
    """Soft minimum -eps*log(sum(exp(-u/eps))), exact min at eps = 0.

    The running minimum is subtracted before exponentiation, so the result is
    finite for any epsilon >= 0 and always lies in
    [min(u) - eps*log(len(u)), min(u)].
    """
    v = np.asarray(u, dtype=float)
    if v.size == 0:
        raise ValueError("softmin of an empty vector is undefined")
    if not np.all(np.isfinite(v)):
        raise ValueError("softmin requires finite entries")
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    m = float(v.min())
    if epsilon == 0:
        return m
    return m - epsilon * float(np.log(np.exp(-(v - m) / epsilon).sum()))


def entropy(p) -> float:
    """Discrete entropy -sum p*(log(p) - 1), with 0*log(0) = 0.

    Returns -inf if any entry is negative (sentinel, not an error).
    """
    m = np.asarray(p, dtype=float)
    if np.any(m < 0):
        return float("-inf")
    pos = m[m > 0]
    return float(-(pos * (np.log(pos) - 1.0)).sum())


def kl_divergence(p, q) -> float:
    """Generalized Kullback-Leibler divergence sum p*log(p/q) + sum(q - p).

    Nonnegative, zero iff p == q; +inf if p puts mass where q has none.
    """
    pm = np.asarray(p, dtype=float)
    qm = np.asarray(q, dtype=float)
    if pm.shape != qm.shape:
        raise ValueError("kl_divergence requires matching shapes")
    if np.any(pm < 0) or np.any(qm < 0):
        raise ValueError("kl_divergence requires nonnegative entries")
    mask = pm > 0
    if np.any(qm[mask] == 0):
        return float("inf")
    rel = float((pm[mask] * np.log(pm[mask] / qm[mask])).sum())
    return rel + float(qm.sum() - pm.sum())
