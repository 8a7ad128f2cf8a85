"""Exception types shared across the package."""


class DomainError(ValueError):
    """An input lies outside the mathematical domain of an operation."""


class ConvergenceError(RuntimeError):
    """A numerical routine failed to reach the requested tolerance.

    The message gives the value and the error estimate it had reached.
    """
