"""Exact small-scale transport solvers used as ground truth in tests.

`exact_ot` is a self-contained network simplex on the transportation polytope
(optionally in rational arithmetic, so vertex values are certified exact).
`exact_wbp` solves the barycenter linear program through scipy's HiGHS
backend.  `quantile_coupling_1d` is the monotone north-west-corner plan,
optimal on the line for convex costs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import as_cost, as_weights

MASS_MISMATCH_ATOL = 1e-8
# consecutive degenerate pivots tolerated before Bland's rule takes over
_DEGENERATE_STREAK = 25


@dataclass(frozen=True)
class ExactOTResult:
    coupling: np.ndarray
    value: float
    row_duals: np.ndarray
    col_duals: np.ndarray
    pivots: int


def _northwest_corner(a, b, zero):
    """Initial basic feasible spanning tree by the north-west-corner rule, {arc: flow}."""
    n, m = len(a), len(b)
    rem_a = list(a)
    rem_b = list(b)
    flows = {}
    i = j = 0
    while True:
        x = min(rem_a[i], rem_b[j])
        flows[(i, j)] = x
        rem_a[i] -= x
        rem_b[j] -= x
        if i == n - 1 and j == m - 1:
            break
        # advance one index per cell so the basis stays a tree; guard the
        # boundaries so float dust in the mass balance cannot walk outside
        if rem_a[i] == zero and i < n - 1:
            i += 1
        elif j < m - 1:
            j += 1
        else:
            i += 1
    return flows


def _tree_structure(basis, n, m):
    """Parent pointers and preorder for the basis tree rooted at row 0."""
    adj = [[] for _ in range(n + m)]
    for i, j in basis:
        adj[i].append(n + j)
        adj[n + j].append(i)
    parent = [-1] * (n + m)
    order = [0]
    seen = [False] * (n + m)
    seen[0] = True
    stack = [0]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if not seen[v]:
                seen[v] = True
                parent[v] = u
                order.append(v)
                stack.append(v)
    if not all(seen):
        raise RuntimeError("basis does not span the bipartite graph")
    return parent, order


def _duals(cf, parent, order, n, m, zero):
    u = [zero] * n
    v = [zero] * m
    for node in order[1:]:
        p = parent[node]
        if node >= n:  # column node, parent is a row
            v[node - n] = cf[p, node - n] - u[p]
        else:
            u[node] = cf[node, p - n] - v[p - n]
    return u, v


def _cycle(parent, n, enter_i, enter_j):
    """Alternating cycle closed by the entering arc (enter_i, enter_j)."""
    path_i = [enter_i]
    node = enter_i
    while parent[node] != -1:
        node = parent[node]
        path_i.append(node)
    path_j = [n + enter_j]
    node = n + enter_j
    while parent[node] != -1:
        node = parent[node]
        path_j.append(node)
    set_i = {u: k for k, u in enumerate(path_i)}
    lca = next(u for u in path_j if u in set_i)
    cyc = path_i[: set_i[lca] + 1] + list(reversed(path_j[: path_j.index(lca)]))
    return cyc  # node cycle: enter_i ... lca ... n+enter_j


def exact_ot(a, b, cost, *, rational: bool = False) -> ExactOTResult:
    """Solve the transportation LP exactly by primal network simplex.

    Entering arcs are chosen by most-negative reduced cost (deterministic
    lowest flat index on ties); after a streak of degenerate pivots the rule
    switches to Bland's lowest-index selection until progress resumes, which
    prevents cycling; more than 200 (n + m)^2 + 1000 pivots raise
    RuntimeError.  With rational=True all arithmetic runs in Fractions
    (inputs converted exactly from their binary float values), certifying the
    optimal vertex; demands are then rescaled to balance mass exactly.
    """
    aw = as_weights(a, "a")
    bw = as_weights(b, "b")
    c = as_cost(cost)
    n, m = aw.size, bw.size
    if c.shape != (n, m):
        raise ValueError("cost shape does not match the marginals")
    if abs(aw.sum() - bw.sum()) > MASS_MISMATCH_ATOL:
        raise ValueError("infeasible marginals: total masses differ")

    if rational:
        av = [Fraction(x) for x in aw]
        bv = [Fraction(x) for x in bw]
        ta, tb = sum(av), sum(bv)
        if tb != 0:
            bv = [x * ta / tb for x in bv]  # exact balance
        cf = np.vectorize(Fraction, otypes=[object])(c)
        zero = Fraction(0)
        tol = Fraction(0)
    else:
        av = list(aw)
        bv = list(bw)
        cf = c
        zero = 0.0
        tol = 1e-12 * max(1.0, float(np.abs(c).max()))

    flows = _northwest_corner(av, bv, zero)  # the basic arcs and their flows
    parent, order = _tree_structure(flows, n, m)
    u, v = _duals(cf, parent, order, n, m, zero)

    pivots = 0
    degenerate_streak = 0
    while True:
        # object arrays of Fractions in rational mode, float64 otherwise
        reduced = cf - np.asarray(u)[:, None] - np.asarray(v)[None, :]
        if degenerate_streak >= _DEGENERATE_STREAK:
            neg = np.flatnonzero(reduced.ravel() < -tol)
            if neg.size == 0:
                break
            enter = divmod(int(neg[0]), m)
        else:
            flat = int(np.argmin(reduced))
            if reduced.ravel()[flat] >= -tol:
                break
            enter = divmod(flat, m)

        pivots += 1
        if pivots > 200 * (n + m) ** 2 + 1000:
            raise RuntimeError("network simplex exceeded its pivot budget")
        cyc = _cycle(parent, n, enter[0], enter[1])
        # walk the closed node cycle; the final edge is the entering arc and
        # carries +1, with signs alternating at every shared node
        ring = cyc + [cyc[0]]
        num_edges = len(cyc)
        arcs = []
        for k in range(num_edges - 1):  # tree arcs only
            x, y = ring[k], ring[k + 1]
            arc = (x, y - n) if y >= n else (y, x - n)
            sign = +1 if (num_edges - 1 - k) % 2 == 0 else -1
            arcs.append((arc, sign))
        minus = [(arc, flows[arc]) for arc, sign in arcs if sign < 0]
        theta = min(fl for _, fl in minus)
        leaving = min(arc for arc, fl in minus if fl == theta)
        if theta == zero:
            degenerate_streak += 1
        else:
            degenerate_streak = 0
        for arc, sign in arcs:
            flows[arc] += theta if sign > 0 else -theta
        flows[(enter[0], enter[1])] = theta
        del flows[leaving]
        parent, order = _tree_structure(flows, n, m)
        u, v = _duals(cf, parent, order, n, m, zero)

    plan = np.zeros((n, m))
    value_exact = zero
    for (i, j), fl in flows.items():
        plan[i, j] = float(fl)
        value_exact += cf[i, j] * fl
    return ExactOTResult(
        coupling=plan,
        value=float(value_exact),
        row_duals=np.asarray([float(x) for x in u]),
        col_duals=np.asarray([float(x) for x in v]),
        pivots=pivots,
    )


def quantile_coupling_1d(a, x, b, y, p: float = 2.0):
    """Monotone (north-west-corner) plan between sorted 1-D supports.

    Optimal for costs |x - y|^p with p >= 1 by the classical quantile
    coupling; serves as an independent oracle for 1-D instances.
    """
    aw = as_weights(a, "a")
    bw = as_weights(b, "b")
    xs = np.asarray(x, dtype=float).ravel()
    ys = np.asarray(y, dtype=float).ravel()
    if xs.size != aw.size or ys.size != bw.size:
        raise ValueError("support sizes must match the histograms")
    if np.any(np.diff(xs) <= 0) or np.any(np.diff(ys) <= 0):
        raise ValueError("supports must be sorted strictly increasing")
    if p < 1:
        raise ValueError("exponent p must be at least 1")

    flows = _northwest_corner(list(aw), list(bw), 0.0)
    plan = np.zeros((aw.size, bw.size))
    for (i, j), fl in flows.items():
        plan[i, j] = fl
    value = float(sum(fl * abs(xs[i] - ys[j]) ** p for (i, j), fl in flows.items()))
    return plan, value


@dataclass(frozen=True)
class ExactWBPResult:
    barycenter: np.ndarray
    value: float
    couplings: np.ndarray  # (N, n, n)


def exact_wbp(B, weights, cost) -> ExactWBPResult:
    """Exact Wasserstein barycenter LP (N*n^2 + n variables, 2*N*n rows).

    Solved with scipy.optimize.linprog (HiGHS).  The barycenter is the row
    marginal shared by all optimal couplings.
    """
    from scipy import sparse  # imported here: ~0.5 s that no other solver needs
    from scipy.optimize import linprog

    bm = np.asarray(B, dtype=float)
    lam = as_weights(weights, "weights")
    c = as_cost(cost)
    n, num = bm.shape
    if lam.size != num:
        raise ValueError("one weight per input histogram is required")
    if c.shape != (n, n):
        raise ValueError("the barycenter LP needs a square cost")
    for k in range(num):
        as_weights(bm[:, k], f"input histogram {k}")

    nn = n * n
    obj = np.concatenate([np.kron(lam, np.ones(nn)) * np.tile(c.ravel(), num),
                          np.zeros(n)])
    rows, cols, vals = [], [], []
    r = 0
    for k in range(num):
        base = k * nn
        for j in range(n):  # column sums fixed to b_k
            idx = base + j + n * np.arange(n)
            rows.extend([r] * n)
            cols.extend(idx.tolist())
            vals.extend([1.0] * n)
            r += 1
    beq = [bm[j, k] for k in range(num) for j in range(n)]
    for k in range(num):
        base = k * nn
        for i in range(n):  # row sums tied to the shared marginal a
            idx = base + i * n + np.arange(n)
            rows.extend([r] * n + [r])
            cols.extend(idx.tolist() + [num * nn + i])
            vals.extend([1.0] * n + [-1.0])
            beq.append(0.0)
            r += 1
    a_eq = sparse.coo_matrix((vals, (rows, cols)), shape=(r, num * nn + n))
    res = linprog(obj, A_eq=a_eq.tocsr(), b_eq=np.asarray(beq),
                  bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"barycenter LP failed: {res.message}")
    plans = res.x[: num * nn].reshape(num, n, n)
    return ExactWBPResult(
        barycenter=plans[0].sum(axis=1),
        value=float(res.fun),
        couplings=plans,
    )
