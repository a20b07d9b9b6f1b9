"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Invalid configuration: unknown field family, bad grid parameters, ..."""


class SourcePlacementError(ValueError):
    """A Green-function source was placed on (or too close to) the boundary."""


class ConvergenceError(RuntimeError):
    """An iterative solve stopped before reaching the requested residual.

    ``history`` holds the recursive residual norm after each iteration.
    """

    def __init__(self, message, residual=None, iterations=None, history=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations
        self.history = history
