"""Per-run result record shared by all estimators, and the iteration driver
behind every iterative one."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import DivergenceError, DomainError

# ``iterate`` stays out of __all__: outside-in tracers time the public names,
# and the driver's loop belongs to the estimator that runs it
__all__ = ["EstimateReport"]


@dataclass
class EstimateReport:
    """Outcome of one estimator run.

    ``residual_trace`` holds the relative normal-equation residual
    ||(sigma2^{-1} A^H A + D^{-1}) mu - sigma2^{-1} A^H y||_2 /
    ||sigma2^{-1} A^H y||_2 at initialization and after every iteration,
    so its length is always ``iterations + 1``.  ``variances`` and ``nmse``
    are optional: mean-only estimators report neither posterior variances
    nor (on their own) a reconstruction error.
    """

    mu: np.ndarray
    variances: np.ndarray | None
    residual_trace: list
    iterations: int
    converged: bool
    wall_time: float
    nmse: float | None = None
    seed: int | None = None
    config: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.residual_trace) != self.iterations + 1:
            raise ValueError(
                "residual_trace must have length iterations + 1 "
                f"({len(self.residual_trace)} != {self.iterations} + 1)"
            )
        if self.nmse is not None and self.nmse < 0:
            raise ValueError("nmse must be nonnegative")

    def to_dict(self, include_vectors: bool = True) -> dict:
        """JSON-serializable view of the report."""
        out = {
            "iterations": self.iterations,
            "converged": self.converged,
            "wall_time": self.wall_time,
            "nmse": self.nmse,
            "seed": self.seed,
            "config": dict(self.config),
            "final_residual": float(self.residual_trace[-1]),
            "residual_trace": [float(r) for r in self.residual_trace],
        }
        if include_vectors:
            out["mu_re"] = np.real(self.mu).tolist()
            out["mu_im"] = np.imag(self.mu).tolist()
            if self.variances is not None:
                out["variances"] = np.asarray(self.variances).tolist()
        return out


def iterate(step, measure, point, t_max: int, tol: float, config: dict,
            variances) -> EstimateReport:
    """Advance ``point = step(point)`` until the mean settles.

    ``measure(point)`` returns the point's mean and its relative
    normal-equation residual; the residual trace starts at the initial
    point.  Stops when the max relative change of the mean drops below
    ``tol`` (converged) or after ``t_max`` steps.  Raises
    :class:`DivergenceError` when the residual rises for 20 consecutive
    steps, and attaches the trace so far to a :class:`DivergenceError`
    raised inside a step.  ``variances(point)`` gives the report's
    variances (or None) at the final point.
    """
    if t_max < 0:
        raise DomainError("t_max must be nonnegative")
    t_start = time.perf_counter()
    mu, res = measure(point)
    trace = [res]
    converged = False
    rising = 0
    iterations = 0
    while iterations < t_max:
        try:
            point = step(point)
        except DivergenceError as exc:
            exc.trace = trace
            raise
        iterations += 1
        mu_new, res = measure(point)
        trace.append(res)
        if trace[-1] > trace[-2]:
            rising += 1
            if rising >= 20:
                raise DivergenceError(
                    "residual increased for 20 consecutive iterations", trace=trace
                )
        else:
            rising = 0
        change = np.abs(mu_new - mu).max() / max(np.abs(mu_new).max(), 1e-300)
        mu = mu_new
        if change < tol:
            converged = True
            break
    return EstimateReport(
        mu=mu,
        variances=variances(point),
        residual_trace=trace,
        iterations=iterations,
        converged=converged,
        wall_time=time.perf_counter() - t_start,
        config=config,
    )
