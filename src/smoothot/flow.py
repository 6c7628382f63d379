"""Discrete Wasserstein gradient flow by JKO stepping.

Each step minimizes W_eps(a, a_prev) + tau*J(A a), the N = 1 case of the
regularized barycenter solver; the step size tau multiplies the regularizer
strength (indicator regularizers are invariant under that scaling).  Zero
bins of a_prev enter every log-domain step as -inf masks.

The descent records reuse what the flow already knows.  The new iterate is
the semidual gradient at the step's last potential f_N, so the Sinkhorn for
W_eps(a_new, a_prev) starts from f_N; the one for W_eps(a_prev, a_prev)
starts from the symmetric fixed point of `entropic.symmetric_potential` when
the cost is symmetric, and cold otherwise.  Either value is still certified
by Sinkhorn's own marginal test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import IterationLimitError, as_weights
from .barycenter import BarycenterProblem
from .entropic import DEFAULT_TOL, sinkhorn, symmetric_potential
from .regularized import (
    LinearOperator,
    Regularizer,
    make_regularizer,
    solve_regularized,
)


def _step_regularizer(reg: Regularizer, tau_flow: float) -> Regularizer:
    """tau_flow*J for one JKO step; at tau_flow = 0 a J that is identically zero."""
    if tau_flow == 0:
        return make_regularizer("tv_aniso", lam=0.0)
    return reg.scaled(tau_flow)


def jko_step(a_prev, cost, epsilon: float, tau_flow: float, op: LinearOperator,
             reg: Regularizer, **solver_kw):
    """One implicit step argmin_a W_eps(a, a_prev) + tau_flow*J(A a).

    tau_flow = 0 drops the energy term entirely and minimizes the transport
    fidelity alone.  a_prev may have zero bins; no mass is transported to
    them.  Keyword arguments (tol, max_iter, accel, x0, full_output, ...) go
    to solve_regularized, whose defaults fill the rest: FISTA by default.
    """
    if tau_flow < 0:
        raise ValueError("tau_flow must be nonnegative")
    aw = as_weights(a_prev, "a_prev")
    problem = BarycenterProblem(aw[:, None], np.ones(1), cost, epsilon)
    return solve_regularized(problem, op, _step_regularizer(reg, tau_flow), **solver_kw)


@dataclass
class FlowResult:
    iterates: list          # Histogram per step, a_1 ... a_steps
    records: list           # per-step dicts with the JKO descent bookkeeping


def run_flow(a0, steps: int, cost, epsilon: float, tau_flow: float,
             op: LinearOperator, reg: Regularizer, *,
             sinkhorn_tol: float = DEFAULT_TOL, **solver_kw) -> FlowResult:
    """Iterate jko_step from a0, warm-starting each step's dual variables.

    Each step's record stores the JKO objective
    W_eps(a, a_prev) + tau_flow*J(A a) at both the new iterate and at the
    previous one, so the per-step argmin descent inequality can be checked,
    and the sweeps of the two Sinkhorn solves behind them.  The Sinkhorn for
    the new iterate starts from the step's last semidual potential f_N, whose
    gradient is the new iterate; the one for the previous iterate starts from
    its symmetric fixed point on a symmetric cost (every GridCost2D, or a
    matrix equal to its transpose) and cold otherwise.  Both stop on
    Sinkhorn's l1 marginal test with tol=sinkhorn_tol.  The other keyword
    arguments (tol, max_iter, accel, ...) go to every step's
    solve_regularized, whose defaults fill the rest.

    An IterationLimitError in a step, from its solve or its records' solves,
    is re-raised with `best` set to the FlowResult so far: the completed steps
    and their records, then the failing step's (best) barycenter.
    """
    if steps < 1:
        raise ValueError("steps must be at least 1")
    current = as_weights(a0, "a0")
    energy = _step_regularizer(reg, tau_flow).value
    iterates = []
    records = []
    state = None
    for _ in range(steps):
        result = None
        try:
            result = jko_step(current, cost, epsilon, tau_flow, op, reg, x0=state,
                              full_output=True, **solver_kw)
            nxt = result.barycenter.weights
            new = sinkhorn(nxt, current, cost, epsilon, tol=sinkhorn_tol, f0=result.f_last)
            f_self = symmetric_potential(current, cost, epsilon, tol=sinkhorn_tol)
            prev = sinkhorn(current, current, cost, epsilon, tol=sinkhorn_tol, f0=f_self)
        except IterationLimitError as exc:
            step = exc.best if result is None else result
            exc.best = FlowResult(iterates=iterates + [step.barycenter], records=records)
            raise
        records.append({
            "objective_new": new.value + energy(op.forward(nxt)),
            "objective_prev": prev.value + energy(op.forward(current)),
            "solver_iterations": result.iterations,
            "record_sweeps": [new.iterations, prev.iterations],
        })
        iterates.append(result.barycenter)
        state = result.state
        current = nxt
    return FlowResult(iterates=iterates, records=records)
