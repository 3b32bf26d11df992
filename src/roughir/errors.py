"""Exception types shared across the package."""


class RoughIRError(Exception):
    """Base class for all roughir errors."""


class DomainError(RoughIRError, ValueError):
    """A parameter lies outside its mathematical domain."""


class SizeError(RoughIRError, ValueError):
    """An input is too short for the requested operation."""


class RangeError(RoughIRError, ValueError):
    """A value falls outside an attainable range.

    Carries the attainable interval so callers may clamp and warn.
    """

    def __init__(self, message, low=None, high=None):
        super().__init__(message)
        self.low = low
        self.high = high


class InterpolationError(RangeError):
    """A lookup fell outside a precomputed table's grid, whose ends are low and high."""


class ParseError(RoughIRError, ValueError):
    """A text input could not be parsed; carries the offending line number."""

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class SimulationError(RoughIRError, RuntimeError):
    """A simulator produced a non-finite value; carries the failing step."""

    def __init__(self, message, step=None):
        super().__init__(message if step is None else f"step {step}: {message}")
        self.step = step


class FactorizationError(RoughIRError, RuntimeError):
    """A covariance matrix could not be factorized even after jitter retries."""


class ResolutionError(RoughIRError, ValueError):
    """A spectral discretization is too coarse for the requested grid."""
