"""Exception types shared across the package."""

__all__ = ["GenpgdError", "ContractError", "ConfigError", "NumericError", "DivergenceError"]


class GenpgdError(Exception):
    """Base class for all errors raised by this package."""


class ContractError(GenpgdError, ValueError):
    """An input violates a documented precondition or invariant."""


class ConfigError(GenpgdError, ValueError):
    """A configuration value, file, or combination is invalid."""


class NumericError(GenpgdError, ArithmeticError):
    """A computation produced a non-finite intermediate value."""


class DivergenceError(GenpgdError, RuntimeError):
    """An iterative solve blew up.

    Carries the partial trace recorded up to the failing iteration so the
    caller can inspect what went wrong.
    """

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace
