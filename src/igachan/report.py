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

# a residual this many times above its running minimum marks a diverging run
DIVERGENCE_FACTOR = 1e6
_EPS = float(np.finfo(np.float64).eps)


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

    def to_dict(self) -> dict:
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
            "mu_re": np.real(self.mu).tolist(),
            "mu_im": np.imag(self.mu).tolist(),
        }
        if self.variances is not None:
            out["variances"] = np.asarray(self.variances).tolist()
        return out


def iterate(model, step, mean, point, t_max: int, tol: float, config: dict,
            variances) -> EstimateReport:
    """Advance ``point = step(point, A^H A mu)`` until the mean settles.

    ``mean(point)`` is the point's mean mu.  The driver applies the model's
    Gram matrix to it once, appends ``model.residual(mu, A^H A mu)`` to the
    residual trace, which starts at the initial point, and hands the product
    to the next step, which may read or ignore it.  Stops when the max
    relative change of the mean drops below ``tol`` (converged) or after
    ``t_max`` steps.  Raises :class:`DivergenceError` when the residual is
    not finite or exceeds ``DIVERGENCE_FACTOR`` times its running minimum
    (floored at machine epsilon), and attaches the trace so far to a
    :class:`DivergenceError` raised inside a step.  A converging run may
    plateau and rise for many steps, but not by that factor, so only a
    run that blows up trips the rule.  ``variances(point)`` gives the
    report's variances (or None) at the final point.
    """
    if t_max < 0:
        raise DomainError("t_max must be nonnegative")
    t_start = time.perf_counter()
    gram, residual = model.gram_apply, model.residual
    mu = mean(point)
    gram_mu = gram(mu)
    trace = [residual(mu, gram_mu)]
    floor = trace[0]
    converged = False
    iterations = 0
    while iterations < t_max:
        try:
            point = step(point, gram_mu)
        except DivergenceError as exc:
            exc.trace = trace
            raise
        iterations += 1
        mu_new = mean(point)
        gram_mu = gram(mu_new)
        res = residual(mu_new, gram_mu)
        trace.append(res)
        if res < floor:
            floor = res
        elif not res <= DIVERGENCE_FACTOR * max(floor, _EPS):  # NaN fails it too
            raise DivergenceError(
                f"residual {res:.3e} exceeds {DIVERGENCE_FACTOR:.0e} times its minimum "
                f"{floor:.3e}", trace=trace
            )
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
