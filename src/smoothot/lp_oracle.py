"""Exact small-scale transport solvers.

`exact_ot` is a self-contained network simplex on the transportation polytope
(optionally in rational arithmetic, so vertex values are certified exact).
`smoothot distance --epsilon 0` runs it, and the tests use it as ground
truth.  It starts from the least-cost basis, so most of the cheap cells are
in the tree before the first pivot.  A pivot updates the basis tree in place,
re-hanging only the subtree it cuts off; pricing is one numpy pass.
`exact_wbp` solves the barycenter linear program through scipy's HiGHS
backend.
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


def _least_cost_basis(a, b, cost):
    """Initial basic feasible spanning tree by the least-cost rule, {arc: flow}.

    Cells are visited by increasing cost, row-major on ties.  A cell whose
    row and column are both open takes min(rem_a, rem_b) and closes one of
    them: the row when rem_a <= rem_b, else the column, but never the last
    open row or column while the other side has more than one open line.
    No later cell lands in a closed line, so the n + m - 1 cells have no
    cycle: a spanning tree, degenerate zero flows included.
    """
    n, m = len(a), len(b)
    rem_a, rem_b = list(a), list(b)
    open_row, open_col = [True] * n, [True] * m
    rows_left, cols_left = n, m
    flows = {}
    for flat in np.argsort(cost, axis=None, kind="stable").tolist():
        i, j = divmod(flat, m)
        if not (open_row[i] and open_col[j]):
            continue
        x = min(rem_a[i], rem_b[j])
        flows[(i, j)] = x
        if rows_left == 1 or cols_left == 1:
            close_row = cols_left == 1
        else:
            close_row = rem_a[i] <= rem_b[j]
        rem_a[i] -= x
        rem_b[j] -= x
        if close_row:
            open_row[i] = False
            rows_left -= 1
        else:
            open_col[j] = False
            cols_left -= 1
        if len(flows) == n + m - 1:
            return flows


def exact_ot(a, b, cost, *, rational: bool = False) -> ExactOTResult:
    """Solve the transportation LP exactly by primal network simplex.

    The starting basis is the least-cost one: cells in order of increasing
    cost (a stable sort of the float cost, so ties go row-major; the same
    order in rational mode, where each Fraction is its float's exact value),
    each taking all it can of what its row and column have left.  The basis
    tree, rooted at row 0, keeps parent pointers, depths, node duals and
    each arc's flow on its child node.  A pivot finds the cycle by
    walking the entering arc's endpoints up to their common ancestor, then
    re-hangs only the subtree that the leaving arc cuts off, under the other
    endpoint, recomputing that subtree's depths and duals (dual = cost - dual
    of the parent: a full rebuild's arithmetic, bit for bit).  Entering arcs
    have the most negative reduced cost (lowest flat index on ties); after 25
    degenerate pivots in a row Bland's lowest-index rule takes over until
    progress resumes, which prevents cycling.  The leaving arc is the lowest
    (row, column) blocking arc.  More than 200 (n + m)^2 + 1000 pivots raise
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
        av = aw.tolist()
        bv = bw.tolist()
        cf = c
        zero = 0.0
        tol = 1e-12 * max(1.0, float(np.abs(c).max()))

    # nodes 0..n-1 are rows, n..n+m-1 columns; flow[x] is the flow on the tree
    # arc from x to parent[x]; line[x][y - shift[x]] is the cost of arc x-y
    line = cf.tolist() + cf.T.tolist()
    shift = [n] * n + [0] * m
    # the basis in insertion order, which fixes the order of the value's sum;
    # its flows are read into flow[] here and written back after the last pivot
    arcs = _least_cost_basis(av, bv, c)
    adj = [[] for _ in range(n + m)]
    for i, j in arcs:
        adj[i].append(n + j)
        adj[n + j].append(i)
    parent = [-1] * (n + m)
    depth = [0] * (n + m)
    dual = [zero] * (n + m)
    flow = [zero] * (n + m)
    duals = np.array(dual, dtype=cf.dtype)  # dual as an array, for pricing

    def hang(top, above):
        # hang the subtree at top under above; recompute its depths and duals
        parent[top], depth[top] = above, depth[above] + 1
        dual[top] = line[above][top - shift[above]] - dual[above]
        nodes = [top]
        for x in nodes:  # breadth first, parents before children
            up, d, dx, row, off = parent[x], depth[x] + 1, dual[x], line[x], shift[x]
            for y in adj[x]:
                if y != up:
                    parent[y], depth[y] = x, d
                    dual[y] = row[y - off] - dx
                    nodes.append(y)
        duals[nodes] = [dual[x] for x in nodes]

    def arc_of(x):
        up = parent[x]
        return (x, up - n) if x < n else (up, x - n)

    for y in adj[0]:
        hang(y, 0)
    for x in range(1, n + m):
        flow[x] = arcs[arc_of(x)]

    reduced = np.empty((n, m), dtype=cf.dtype)
    pivots = 0
    degenerate_streak = 0
    while True:
        np.subtract(cf, duals[:n, None], out=reduced)
        np.subtract(reduced, duals[None, n:], out=reduced)
        if degenerate_streak >= _DEGENERATE_STREAK:
            neg = np.flatnonzero(reduced.ravel() < -tol)
            if neg.size == 0:
                break
            flat = int(neg[0])
        else:
            flat = int(np.argmin(reduced))
            if reduced.ravel()[flat] >= -tol:
                break

        pivots += 1
        if pivots > 200 * (n + m) ** 2 + 1000:
            raise RuntimeError("network simplex exceeded its pivot budget")
        ei, ej = divmod(flat, m)
        # the cycle's tree arcs, as child nodes on each side of the common
        # ancestor; the entering arc carries +theta, so flow falls on the
        # row-child arcs above ei and the column-child arcs above n + ej
        x, y = ei, n + ej
        side_i, side_j = [], []
        while depth[x] > depth[y]:
            side_i.append(x)
            x = parent[x]
        while depth[y] > depth[x]:
            side_j.append(y)
            y = parent[y]
        while x != y:
            side_i.append(x)
            side_j.append(y)
            x, y = parent[x], parent[y]
        minus = [x for x in side_i if x < n] + [y for y in side_j if y >= n]
        theta = min(flow[x] for x in minus)
        out = min((x for x in minus if flow[x] == theta), key=arc_of)
        if theta == zero:
            degenerate_streak += 1
        else:
            degenerate_streak = 0
            for x in side_i:
                flow[x] = flow[x] - theta if x < n else flow[x] + theta
            for y in side_j:
                flow[y] = flow[y] - theta if y >= n else flow[y] + theta
        arcs[(ei, ej)] = None
        del arcs[arc_of(out)]
        # the leaving arc cuts off the subtree holding the endpoint on its side
        # (blocking arcs above ei have row children); the stem from there up
        # to the leaving arc reverses, which moves its flows down one arc
        top, below = (ei, n + ej) if out < n else (n + ej, ei)
        above = parent[out]
        x, carry = top, theta
        while True:
            flow[x], carry = carry, flow[x]
            if x == out:
                break
            x = parent[x]
        adj[out].remove(above)
        adj[above].remove(out)
        adj[top].append(below)
        adj[below].append(top)
        hang(top, below)

    for x in range(1, n + m):
        arcs[arc_of(x)] = flow[x]
    plan = np.zeros((n, m))
    value_exact = zero
    for (i, j), fl in arcs.items():
        plan[i, j] = float(fl)
        value_exact += line[i][j] * fl
    return ExactOTResult(
        coupling=plan,
        value=float(value_exact),
        row_duals=np.asarray([float(x) for x in dual[:n]]),
        col_duals=np.asarray([float(x) for x in dual[n:]]),
        pivots=pivots,
    )


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
