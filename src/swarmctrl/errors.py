"""Exception types shared across the toolkit."""


class SwarmCtrlError(Exception):
    """Base class for all toolkit errors."""


class ConfigurationError(SwarmCtrlError):
    """Invalid domain, grid, or scenario configuration."""


class CoefficientError(SwarmCtrlError):
    """Coefficient field violates positivity or finiteness requirements."""


class CompatibilityError(SwarmCtrlError):
    """Right-hand side incompatible with the zero-flux Poisson problem."""


class InputError(SwarmCtrlError):
    """Caller-supplied state violates a documented precondition."""


class TargetError(SwarmCtrlError):
    """Target density is not admissible (non-positive cells, bad mass)."""


class PositivityLossError(SwarmCtrlError):
    """State dropped below the positivity floor used in velocity division.

    Indicates plan misconfiguration; the steering construction keeps the
    state uniformly positive, so the floor should never bind.
    """


class PlanError(SwarmCtrlError):
    """Steering plan failed validation (phase durations, ordering)."""


class NumericalError(SwarmCtrlError):
    """Linear solver or time stepper failed to produce finite values."""


class FitError(SwarmCtrlError):
    """Decay-rate fit given too few, non-positive or non-finite samples, or
    times that do not span a resolvable interval."""


class GraphError(SwarmCtrlError):
    """Graph structure violates a precondition (self-loop, not strongly
    connected, unknown vertex).  May carry a ``certificate`` attribute
    witnessing the obstruction."""

    def __init__(self, message, certificate=None):
        super().__init__(message)
        self.certificate = certificate


class CertificateError(SwarmCtrlError):
    """Monotone obstruction requested for a strongly connected graph."""


class StepSizeError(SwarmCtrlError):
    """Requested increment too large for the carried probe mass, or a
    particle step violating the exit-rate guard."""


class InteriorityError(SwarmCtrlError):
    """Simplex point on the boundary where an interior point is required."""


class SynthesisError(SwarmCtrlError):
    """Stationary-rate or gain synthesis failed; carries the residual."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class ExpressionError(ConfigurationError):
    """Malformed closed-form density expression."""


class TruncationWarning(UserWarning):
    """Gain schedule truncated before reaching the requested tolerance.

    Carries ``achievable``, the predicted error at the capped schedule
    length.
    """

    def __init__(self, message, achievable):
        super().__init__(message)
        self.achievable = achievable
