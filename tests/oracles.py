"""Shared independent oracles for the test suite.

Finite differences, feasible-coupling generation by iterative proportional
fitting, the 1-D quantile coupling, a power-iteration operator norm, and
small random-instance builders.
These stay deliberately naive: they must not share code paths with the
implementations they check.
"""

import numpy as np


def finite_diff_gradient(fun, x, h=1e-5):
    """Central finite differences of a scalar function of a vector."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        grad[i] = (fun(x + e) - fun(x - e)) / (2.0 * h)
    return grad


def rel_err(approx, exact):
    scale = np.abs(exact).max()
    return np.abs(approx - exact).max() / (scale if scale > 0 else 1.0)


def random_histogram(rng, n, floor=0.0):
    w = rng.dirichlet(np.ones(n)) + floor
    return w / w.sum()


def ipf_coupling(rng, a, b, rounds=400):
    """A feasible coupling of (a, b): random positive matrix scaled by IPF."""
    p = rng.uniform(0.25, 1.0, size=(a.size, b.size))
    for _ in range(rounds):
        p *= (a / p.sum(axis=1))[:, None]
        p *= (b / p.sum(axis=0))[None, :]
    return p


def simplex_mesh(step=0.01):
    """Every point of the 4-bin simplex with coordinates in multiples of step.

    One point per row, a = (i, j, k, ticks - i - j - k) / ticks with
    ticks = 1/step; ~1.8e5 rows at step 0.01.
    """
    ticks = int(round(1.0 / step))
    i, j, k = np.indices((ticks + 1,) * 3).reshape(3, -1)
    keep = i + j + k <= ticks
    i, j, k = i[keep], j[keep], k[keep]
    return np.column_stack([i, j, k, ticks - i - j - k]).astype(float) / ticks


def monotone_cost_1d(A, x, b, y, p=2.0):
    """W_p^p(a, b) on sorted 1-D supports x, y, for every row a of A at once.

    The monotone coupling matches quantiles: on each interval between
    consecutive breakpoints of the cumulative sums of a and b, all mass goes
    from one support point of a to one of b, so the value is the sum of
    interval length times |x_i - y_j|^p.  Written from the quantile
    functions, not the north-west-corner rule of quantile_coupling_1d.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    ca = np.cumsum(A, axis=1)
    cb = np.cumsum(np.asarray(b, dtype=float))
    breaks = np.sort(np.concatenate([ca, np.broadcast_to(cb, (len(A), cb.size))], axis=1),
                     axis=1)
    breaks = np.concatenate([np.zeros((len(A), 1)), breaks], axis=1)
    lengths = np.diff(breaks, axis=1)
    mids = 0.5 * (breaks[:, 1:] + breaks[:, :-1])
    # the quantile of a at u is the first support point whose cumulative mass reaches u
    i = np.minimum((ca[:, None, :] < mids[:, :, None]).sum(axis=2), x.size - 1)
    j = np.minimum((cb[None, None, :] < mids[:, :, None]).sum(axis=2), y.size - 1)
    return (lengths * np.abs(x[i] - y[j]) ** p).sum(axis=1)


def quantile_coupling_1d(a, x, b, y, p=2.0):
    """Monotone (north-west-corner) plan between sorted 1-D supports.

    Optimal for costs |x - y|^p with p >= 1 by the classical quantile
    coupling: each step moves all it can from the lowest row with mass left
    to the lowest column with mass left.  Returns (plan, value).
    """
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.size != a.size or y.size != b.size:
        raise ValueError("support sizes must match the histograms")
    if np.any(np.diff(x) <= 0) or np.any(np.diff(y) <= 0):
        raise ValueError("supports must be sorted strictly increasing")
    if p < 1:
        raise ValueError("exponent p must be at least 1")
    rem_a, rem_b = a.tolist(), b.tolist()
    plan = np.zeros((a.size, b.size))
    value = 0.0
    i = j = 0
    while True:
        flow = min(rem_a[i], rem_b[j])
        plan[i, j] = flow
        value += flow * abs(x[i] - y[j]) ** p
        rem_a[i] -= flow
        rem_b[j] -= flow
        if i == a.size - 1 and j == b.size - 1:
            return plan, value
        # one index per step; the guards keep float dust from walking outside
        if rem_a[i] == 0.0 and i < a.size - 1:
            i += 1
        elif j < b.size - 1:
            j += 1
        else:
            i += 1


def brute_force_wbp_value(B, weights, cost_fn, step=0.01):
    """Grid search of the barycenter objective over a coarse simplex mesh.

    cost_fn(A) must return sum_k weights_k * W0(a, b_k) for every row a of
    the (M, 4) mesh A at once.  Only usable for 4-bin histograms; the mesh
    has ~1.8e5 points at step 0.01.
    """
    return float(np.min(cost_fn(simplex_mesh(step))))


def estimate_norm(op, n, iters=200, seed=0):
    """Power-iteration estimate of ||A|| for a linear operator on R^n."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    x /= np.linalg.norm(x)
    sigma = 0.0
    for _ in range(iters):
        y = op.adjoint(op.forward(x))
        norm = np.linalg.norm(y)
        if norm == 0:
            return 0.0
        sigma = norm
        x = y / norm
    return float(np.sqrt(sigma))
