"""Exception types shared across the package."""


class DomainError(ValueError):
    """Inputs violate a mathematical precondition (non-PD matrix, bad shape, ...)."""


class ConfigError(ValueError):
    """A scenario/benchmark configuration is malformed (unknown key, bad value)."""


class DivergenceError(RuntimeError):
    """An iterative estimator diverged.

    Carries the residual trace observed so far in ``trace``.  A step of a
    batch of runs names the batch rows at fault in ``rows`` (None or empty: every row).
    """

    def __init__(self, message, trace=None, rows=None):
        super().__init__(message)
        self.trace = list(trace) if trace is not None else []
        self.rows = rows
