"""Exception types shared across the package."""


class TwoBubbleError(Exception):
    """Base class for all package errors."""


class InvalidExponent(TwoBubbleError):
    """Nonlinearity exponent outside the admissible range for the operation."""


class NonConvergence(TwoBubbleError):
    """Shooting bracket could not be established or refined."""


class WindowTooNoisy(TwoBubbleError):
    """Asymptotic fit window dominated by truncation noise."""


class QuadratureFailure(TwoBubbleError):
    """Interaction force rule did not converge, or |z| lies outside its domain."""


class GridTooSmall(TwoBubbleError):
    """Periodic box too small for the requested bubble separation."""


class ResolutionTooLow(TwoBubbleError):
    """Grid spacing cannot resolve exponential tails."""


class CollisionDetected(TwoBubbleError):
    """Bubble separation fell below the validity threshold of the ansatz."""


class StepFailure(TwoBubbleError):
    """Adaptive ODE integration failed."""


class StepTooLarge(TwoBubbleError):
    """Split-step size violates the per-step phase bound."""


class Overflow(TwoBubbleError):
    """Field amplitude exceeded the blow-up guard."""


class NoConvergence(TwoBubbleError):
    """Newton iteration exceeded the iteration budget."""


class OutOfBasin(TwoBubbleError):
    """First Newton step left the trust region of the initial guess."""


class FitLost(TwoBubbleError):
    """Parameter tracking diverged along a trajectory."""


class NoSignChange(TwoBubbleError):
    """Both bracket endpoints produced the same exit sign."""

    def __init__(self, message, records=None):
        super().__init__(message)
        self.records = records


class WindowTooShort(TwoBubbleError):
    """Trajectory window too short for a meaningful regime fit."""


class IoFailure(TwoBubbleError):
    """Registry, run record or snapshot I/O failed."""


class InvalidConfig(TwoBubbleError, ValueError):
    """Experiment configuration with an unknown key or an invalid value."""


class WorkerLost(TwoBubbleError):
    """A shot's propagation worker died before returning its chunk."""
