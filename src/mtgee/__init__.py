"""mtgee: martingale-transform estimating equations for evolutionary clustered series."""

from . import corr, diagnostics, inference, simgen
from .errors import (
    ContractError,
    CorrelationDegeneracyError,
    DataError,
    InstabilityError,
    ModelViolationError,
    MtgeeError,
    NumericalError,
    RankDeficiencyError,
    SaturationError,
    SolverFailureError,
    StudyError,
)
from .estfun import (
    EstimatingContext,
    FitResult,
    SolveReport,
    TwoStepResult,
    eval_g,
    eval_jacobian,
    fit,
    fit_two_step,
    solve_linear,
    solve_newton,
    working_independence_estimate,
)
from .inference import (
    SandwichEstimate,
    component_intervals,
    normal_quantile,
    predict_next,
    sandwich,
)
from .model import (
    ClusterSeries,
    LinkSpec,
    get_link,
)
from .simgen import (
    MonteCarloReport,
    SimDesign,
    generate_ar2,
    monte_carlo_study,
    substream,
    true_correlation,
)

__version__ = "0.1.0"

__all__ = [
    "ClusterSeries",
    "ContractError",
    "CorrelationDegeneracyError",
    "DataError",
    "EstimatingContext",
    "FitResult",
    "InstabilityError",
    "LinkSpec",
    "ModelViolationError",
    "MonteCarloReport",
    "MtgeeError",
    "NumericalError",
    "RankDeficiencyError",
    "SandwichEstimate",
    "SaturationError",
    "SimDesign",
    "SolveReport",
    "SolverFailureError",
    "StudyError",
    "TwoStepResult",
    "component_intervals",
    "corr",
    "diagnostics",
    "eval_g",
    "eval_jacobian",
    "fit",
    "fit_two_step",
    "generate_ar2",
    "get_link",
    "inference",
    "monte_carlo_study",
    "normal_quantile",
    "predict_next",
    "sandwich",
    "simgen",
    "solve_linear",
    "solve_newton",
    "substream",
    "true_correlation",
    "working_independence_estimate",
]
