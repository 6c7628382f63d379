"""Entropic optimal transport with smooth dual solvers.

Core pieces: log-domain Sinkhorn, closed-form Legendre transforms of the
regularized transport cost, smooth-dual Wasserstein barycenters, regularized
barycenters by proximal splitting, JKO gradient flows, entropic semi-discrete
transport, and exact LP oracles for testing.
"""

from .core import (
    Coupling,
    CostMatrix,
    GridCost2D,
    FeasibilityError,
    Histogram,
    IterationLimitError,
    Potentials,
    entropy,
    rescale_median,
    softmin,
)
from .entropic import (
    ctransform_of_f,
    dual_value,
    primal_value,
    sinkhorn,
)
from .legendre import (
    JointEval,
    SemidualEval,
    joint_conjugate,
    semidual_conjugate,
    semidual_conjugate_batch,
)
from .barycenter import (
    BarycenterProblem,
    DualIterate,
    dual_objective_grad,
    lbfgs_direction,
    nonsmooth_dual_subgradient,
    project_constraint,
    smooth_primal_gradient,
    solve_barycenter,
)
from .regularized import (
    LinearOperator,
    Regularizer,
    graph_gradient,
    grid_gradient,
    make_regularizer,
    prox_tv_conjugate,
    solve_regularized,
)
from .flow import jko_step, run_flow
from .semidiscrete import (
    DiscreteTarget,
    SampledMeasure,
    gbar_transform,
    laguerre_assign,
    semidiscrete_objective_grad,
    smoothed_indicator,
    solve_semidiscrete,
)
from .lp_oracle import exact_ot, exact_wbp

__version__ = "0.1.0"

__all__ = [
    "BarycenterProblem",
    "Coupling",
    "CostMatrix",
    "DiscreteTarget",
    "DualIterate",
    "FeasibilityError",
    "GridCost2D",
    "Histogram",
    "IterationLimitError",
    "JointEval",
    "LinearOperator",
    "Potentials",
    "Regularizer",
    "SampledMeasure",
    "SemidualEval",
    "ctransform_of_f",
    "dual_objective_grad",
    "dual_value",
    "entropy",
    "exact_ot",
    "exact_wbp",
    "gbar_transform",
    "graph_gradient",
    "grid_gradient",
    "jko_step",
    "joint_conjugate",
    "laguerre_assign",
    "lbfgs_direction",
    "make_regularizer",
    "nonsmooth_dual_subgradient",
    "primal_value",
    "project_constraint",
    "prox_tv_conjugate",
    "rescale_median",
    "run_flow",
    "semidiscrete_objective_grad",
    "semidual_conjugate",
    "semidual_conjugate_batch",
    "sinkhorn",
    "smooth_primal_gradient",
    "smoothed_indicator",
    "softmin",
    "solve_barycenter",
    "solve_regularized",
    "solve_semidiscrete",
]
