"""Exception types shared across the package."""


class DomainError(ValueError):
    """Inputs violate a mathematical precondition (non-PD matrix, bad shape, ...)."""


class ConfigError(ValueError):
    """A scenario/benchmark configuration is malformed (unknown key, bad value)."""


class DivergenceError(RuntimeError):
    """An iterative estimator diverged.

    A step of a batch of runs names the batch rows at fault in ``rows``
    (None or empty: every row); the driver reports those runs as diverged.
    """

    def __init__(self, message, rows=None):
        super().__init__(message)
        self.rows = rows
