"""Numerics for fully nonlinear Yamabe-type Dirichlet problems on the cylinder."""

from ._errors import (
    ConeDomainError,
    ConeViolationError,
    ConfigError,
    ContinuationError,
    NewtonError,
    NonconvergenceError,
    NumericalError,
    StepFailureError,
    YamabeError,
)
from .example1 import ExampleParams, d_from_c, half_length, solve_profile, verify_example
from .geometry import CylinderGeometry, RadialProfile
from .solver import (
    ContinuationReport,
    ContinuationState,
    DirichletProblem,
    NewtonOptions,
    check_subsolution,
    continuation_run,
    continuation_states,
    estimate_monitors,
    newton_solve,
)
from .symfun import (
    SymFuncSpec,
    classify_type,
    concavity_margin,
    matrix_value_and_derivative,
    verify_structure,
)

__version__ = "0.1.0"
