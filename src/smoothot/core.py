"""Shared numeric types and the simplex/entropy/soft-minimum/log-sum-exp primitives.

Two log-domain kernels live here: `logsumexp`, the dense reduction, and
`grid_kernel_apply`, a separable grid cost's Gibbs kernel as shifted GEMMs
on one image or a stack of them, with the exact fallback below `_UNDERFLOW`
that the dense apply shares; one minimum over the sums decides whether the
fallback runs at all.

Everything here is a pure function of its inputs; the wrapper types freeze
their arrays after validation, so values can be shared freely across threads.
Two n^2 arrays are built on first access only: `GridCost2D.entries`, and the
matrix of a `Coupling.gibbs` plan, which a grid builds from its per-axis
factors.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

# Library-wide tolerances (single source of truth for all modules and tests).
SIMPLEX_ATOL = 1e-10  # |sum(weights) - 1| allowed on histograms
MASS_ATOL = 1e-8      # |total coupling mass - 1| allowed on couplings


class FeasibilityError(ValueError):
    """A coupling or marginal pair violates its feasibility contract."""


class IterationLimitError(RuntimeError):
    """An iterative solver hit max_iter before reaching its tolerance.

    `best` is the raising solver's result record, what it returns (with
    full_output=True where it has that flag); `residual` is the last
    convergence measure.  Callers can inspect, loosen the tolerance, or resume.
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


def as_kernel_cost(c, name: str = "cost"):
    """A GridCost2D as it is, any other cost as `as_cost` validates it.

    Code that applies the Gibbs kernel takes this in place of `as_cost`: a
    grid cost keeps its per-axis factors, and its entries are never built.
    """
    return c if isinstance(c, GridCost2D) else as_cost(c, name)


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
        return cls(squared_euclidean(z, z), points=z)

    @property
    def shape(self):
        return self.entries.shape


def squared_euclidean(x, y) -> np.ndarray:
    """Pairwise squared distances between rows of x (k,d) and y (m,d)."""
    xa = np.atleast_2d(np.asarray(x, dtype=float))
    ya = np.atleast_2d(np.asarray(y, dtype=float))
    diff = xa[:, None, :] - ya[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


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


def rescale_median(cost):
    """Divide a cost by the median of its entries (median becomes 1).

    A GridCost2D stays a grid (`median_rescaled`) and builds no entries.
    """
    if isinstance(cost, GridCost2D):
        return cost.median_rescaled()
    m = as_cost(cost)
    med = float(np.median(m))
    if med <= 0:
        raise ValueError("cost median must be positive to rescale")
    return m / med


class GridCost2D(CostMatrix):
    """Squared-Euclidean cost on a regular h x w grid over the unit square.

    Keeps the per-axis squared-distance factors `row_sq` (h x h) and `col_sq`
    (w x w): `grid_kernel_apply` runs as one shifted h x h and one w x w GEMM,
    a Gibbs plan is built from them, and `median` counts on them.
    The dense n^2 `entries` matrix (n = h*w) is built on first access only;
    `shape`, `repr` and `==` (equal grid shape and scale) never build it.
    """

    def __init__(self, h: int, w: int, scale: float = 1.0):
        if scale <= 0:
            raise ValueError("scale must be positive")
        pts = grid_points_2d(h, w)
        ys = (np.arange(h) + 0.5) / h
        xs = (np.arange(w) + 0.5) / w
        row_sq = scale * (ys[:, None] - ys[None, :]) ** 2
        col_sq = scale * (xs[:, None] - xs[None, :]) ** 2
        object.__setattr__(self, "points", _frozen(pts))
        object.__setattr__(self, "grid_shape", (h, w))
        object.__setattr__(self, "scale", float(scale))
        object.__setattr__(self, "row_sq", _frozen(row_sq))
        object.__setattr__(self, "col_sq", _frozen(col_sq))

    @cached_property
    def entries(self) -> np.ndarray:
        """C[(i, j), (k, l)] = row_sq[i, k] + col_sq[j, l], read-only."""
        h, w = self.grid_shape
        full = self.row_sq[:, None, :, None] + self.col_sq[None, :, None, :]
        full.setflags(write=False)
        return full.reshape(h * w, h * w)

    @property
    def shape(self):
        n = self.grid_shape[0] * self.grid_shape[1]
        return (n, n)

    def __repr__(self) -> str:
        h, w = self.grid_shape
        return f"GridCost2D(h={h}, w={w}, scale={self.scale!r})"

    def __eq__(self, other):
        if not isinstance(other, GridCost2D):
            return NotImplemented
        return (self.grid_shape, self.scale) == (other.grid_shape, other.scale)

    def median(self) -> float:
        """np.median of the entries, from the per-axis factors alone.

        The entries are the sums of a distinct value of row_sq and one of
        col_sq, each sum repeated by the product of their multiplicities, so
        the one or two middle order statistics are read off the cumulative
        count of the sorted sums (about h x w of them) and averaged as
        np.median averages them.
        """
        xs, x_counts = np.unique(self.row_sq, return_counts=True)
        ys, y_counts = np.unique(self.col_sq, return_counts=True)
        sums = (xs[:, None] + ys[None, :]).ravel()
        order = np.argsort(sums)
        below = np.cumsum(np.outer(x_counts, y_counts).ravel()[order])
        middle = np.searchsorted(below, [(below[-1] - 1) // 2, below[-1] // 2], side="right")
        return float(sums[order[middle]].mean())

    def median_rescaled(self) -> "GridCost2D":
        """Grid cost divided by its median, with the structure retained."""
        med = self.median()
        if med <= 0:
            raise ValueError("cost median must be positive to rescale")
        h, w = self.grid_shape
        return GridCost2D(h, w, scale=self.scale / med)


# shifted kernel sums below this are recomputed in the log domain
_UNDERFLOW = 1e-250


def grid_kernel_apply(logvals, cost: GridCost2D, epsilon: float) -> np.ndarray:
    """Log-domain Gibbs-kernel application on a grid, as two shifted GEMMs.

    Computes logsumexp_{r,c}(logvals[r,c] - C[(r,c),(r',c')]/epsilon) for all
    output pixels: an exact rewriting of the dense pass for the separable
    squared-Euclidean grid cost (the kernel is symmetric on the grid).
    `logvals` is a stack of N images, (N, h*w), returned as (N, h, w), or one
    image, h*w log values or an (h > 1, w) array, returned as (h, w); an input
    of any other size raises ValueError.  The N images share each 1-D
    pass as one (h, N*w) or (w, N*h) GEMM, which keeps each image's result
    bit for bit that of its own apply on grids at least two pixels wide each
    way (on a one-pixel-wide grid a single image's pass is a matrix-vector
    product, which BLAS rounds its own way).
    As in `entropic.dense_kernel_apply`, a pass shifts every column by its
    maximum m, at least -1e308, and takes S = exp(-C_axis/epsilon).T @ exp(x - m)
    (the transposed factor is kept on the cost), so out = log S + m.  One
    minimum over S tells whether any sum fell below 1e-250 (factors of the
    kernel underflowed, or the column is empty); only then are those outputs
    recomputed exactly with `logsumexp` over their own columns.  Every product
    lost to underflow is below 2.2e-308, so at h, w <= 10**3 the sums that
    pass the bound drop under 1 ulp.  -inf entries (log 0 bins) are allowed:
    an empty sum gives -inf, without warnings.
    """
    h, w = cost.grid_shape
    x = np.asarray(logvals, dtype=float)
    image = x.ndim < 2 or x.shape[-1] != h * w
    num = 1 if image else len(x)
    stack = x.reshape(num, h, w)
    factors = cost.__dict__.get("_factors", (None,))
    if factors[0] != epsilon:  # one slot: the factors at the last epsilon
        kerns = [-sq / epsilon for sq in (cost.row_sq, cost.col_sq)]
        factors = (epsilon, [(kern, np.exp(kern).T) for kern in kerns])
        object.__setattr__(cost, "_factors", factors)
    (row_kern, row_exp_t), (col_kern, col_exp_t) = factors[1]
    # columns k*w ... k*w + w - 1 hold image k; views when num == 1
    first = _kernel_pass(stack.transpose(1, 0, 2).reshape(h, num * w),
                         row_kern, row_exp_t, w)
    # the second pass runs over each image's transpose
    second = _kernel_pass(first.reshape(h, num, w).transpose(2, 1, 0).reshape(w, num * h),
                          col_kern, col_exp_t, h)
    out = second.reshape(w, num, h).transpose(1, 2, 0)
    return out[0] if image else out


def _kernel_pass(x, kern, exp_kern_t, width):
    """One shifted pass of `grid_kernel_apply` over x (rows, N*width)."""
    m = x.max(axis=0, initial=-1e308)
    s = np.subtract(x, m)
    s = exp_kern_t @ np.exp(s, out=s)
    fallback = s.min() < _UNDERFLOW
    if fallback:
        low = s < _UNDERFLOW
        s[low] = 1.0  # placeholder for the exact fallback below
    out = np.log(s, out=s)
    out += m
    if fallback:
        j, c = np.nonzero(low)
        # numpy sums a lone column in another order than several, so each
        # image's low outputs take one logsumexp of their own, as in its apply
        image = c // width
        for k in np.unique(image):
            mine = image == k
            out[j[mine], c[mine]] = logsumexp(x[:, c[mine]] + kern[:, j[mine]], axis=0)
    return out


class Coupling:
    """Transport plan with its marginal residuals against the target pair.

    `Coupling(matrix, a, b)` checks a given plan at once.  `Coupling.gibbs`
    holds the Gibbs plan exp((f_i + g_j - C_ij)/eps) of a potential pair in
    factored form (the potentials, the cost and eps); `matrix`, the checks
    and the residuals are computed on first access of any of them.  Either
    way the matrix is read-only.
    """

    def __init__(self, matrix, a, b):
        self._factors = None
        self._check(np.array(matrix, dtype=float), a, b)

    @classmethod
    def gibbs(cls, f, g, cost, epsilon: float, a, b) -> "Coupling":
        """The plan of potentials f, g (cost units) on a GridCost2D or matrix.

        A -inf potential gives a zero row or column.  On a GridCost2D the
        matrix is built from the per-axis factors, so no cost entries are.
        """
        plan = cls.__new__(cls)
        plan._factors = (np.asarray(f, dtype=float), np.asarray(g, dtype=float),
                         cost, float(epsilon), a, b)
        return plan

    def _check(self, p, a, b):
        if p.ndim != 2:
            raise ValueError("coupling must be a matrix")
        if p.size and not (p.min() >= 0 and p.max() < np.inf):  # NaN fails both
            raise FeasibilityError("coupling entries must be finite and nonnegative")
        row_sums = p.sum(axis=1)
        mass = row_sums.sum()
        if abs(mass - 1.0) > MASS_ATOL:
            raise FeasibilityError(
                f"coupling mass must be 1 within {MASS_ATOL:g} (got {mass!r})"
            )
        aw = as_weights(a, "first marginal")
        bw = as_weights(b, "second marginal")
        if p.shape != (aw.size, bw.size):
            raise ValueError("coupling shape does not match the marginals")
        p.setflags(write=False)
        self._matrix = p
        self._row_residual = float(np.abs(row_sums - aw).sum())
        self._col_residual = float(np.abs(p.sum(axis=0) - bw).sum())

    def _built(self) -> "Coupling":
        factors = self._factors
        if factors is not None:
            f, g, cost, epsilon, a, b = factors
            self._check(_gibbs_plan(f, g, cost, epsilon), a, b)
            self._factors = None
        return self

    @property
    def matrix(self) -> np.ndarray:
        return self._built()._matrix

    @property
    def row_residual(self) -> float:
        return self._built()._row_residual

    @property
    def col_residual(self) -> float:
        return self._built()._col_residual


def _gibbs_plan(f, g, cost, epsilon: float) -> np.ndarray:
    """exp((f_i + g_j - C_ij)/eps), built in place in one n x m buffer."""
    if isinstance(cost, GridCost2D):
        h, w = cost.grid_shape
        u = (f / epsilon).reshape(h, w)
        v = (g / epsilon).reshape(h, w)
        # exponent[i, j, k, l] = (u[i, j] - row_sq[i, k]/eps) + (v[k, l] - col_sq[j, l]/eps)
        left = u[:, :, None] - (cost.row_sq / epsilon)[:, None, :]
        right = v[None, :, :] - (cost.col_sq / epsilon)[:, None, :]
        plan = np.empty((h, w, h, w))
        np.add(left[:, :, :, None], right[None, :, :, :], out=plan)
        plan = plan.reshape(h * w, h * w)
    else:
        plan = np.add.outer(f, g)
        plan /= epsilon
        plan -= cost / epsilon
    return np.exp(plan, out=plan)


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


def _halving_search(x, direction, t, floor, prox, value, bound):
    """The package's one step search: halve t until a trial passes `bound`.

    Tries trial = prox(x - t*direction, t) for t, t/2, t/4, ... and accepts
    the first whose value(trial) = (v, extra) has v <= bound(t, trial).
    Returns ((trial, v, extra), t), or (None, t) once a t <= floor fails.
    """
    while True:
        trial = prox(x - t * direction, t)
        v, extra = value(trial)
        if v <= bound(t, trial):
            return (trial, v, extra), t
        if t <= floor:
            return None, t
        t *= 0.5


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
