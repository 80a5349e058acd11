"""Exception types shared across the package."""


class YamabeError(Exception):
    """Base class for all package errors."""


class ConeDomainError(YamabeError, ValueError):
    """An eigenvalue tuple lies outside the cone required by the operation.

    Raised on a batch of cone scores, it carries their minimum as min_score.
    """

    def __init__(self, message, min_score=None):
        super().__init__(message)
        self.min_score = min_score


class ConeViolationError(ConeDomainError):
    """Cone membership failed at a specific grid node."""

    def __init__(self, message, node=None):
        super().__init__(message)
        self.node = node


class NumericalError(YamabeError, RuntimeError):
    """A numerical procedure failed to reach its accuracy target."""


class NewtonError(NumericalError):
    """Newton iteration failed; carries the best state reached so far."""

    def __init__(self, message, state=None):
        super().__init__(message)
        self.state = state


class NonconvergenceError(NewtonError):
    """Iteration budget exhausted before the residual tolerance was met."""


class StepFailureError(NewtonError):
    """No damped Newton step was acceptable (cone violation or no descent)."""


class ContinuationError(NumericalError):
    """A continuation run failed at some parameter value.

    Carries the converged states collected before the failure so that a
    partial report can still be produced.
    """

    def __init__(self, message, t_failed, states, cause=None):
        super().__init__(message)
        self.t_failed = t_failed
        self.states = states
        self.cause = cause


class ConfigError(YamabeError, ValueError):
    """Invalid run configuration."""
