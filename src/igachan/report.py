"""Per-run result record shared by all estimators, the record that describes
an iterative estimator, and :func:`run`, the one driver of every such record;
:func:`igachan.harness.run_algorithm` runs an estimator by name through it.
Every run ends in an :class:`EstimateReport`, a diverged one too."""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Integral
from typing import Callable

import numpy as np

from .errors import DivergenceError, DomainError
from .estimators import ModelBatch

__all__ = ["EstimateReport", "Iterative", "run"]

# a residual this many times above its running minimum marks a diverging run
DIVERGENCE_FACTOR = 1e6
_EPS = float(np.finfo(np.float64).eps)
STOPS = ("converged", "t_max", "diverged")


@dataclass
class EstimateReport:
    """Outcome of one estimator run: what the run itself knows.

    ``residual_trace`` holds the relative normal-equation residual
    ||(sigma2^{-1} A^H A + D^{-1}) mu - sigma2^{-1} A^H y||_2 /
    ||sigma2^{-1} A^H y||_2 at initialization and after every iteration,
    so ``iterations`` is its length less one.  ``stop`` says why the run
    ended: ``"converged"``, ``"t_max"`` or ``"diverged"``; a diverged run
    keeps the :class:`DivergenceError` message in ``divergence`` and the
    trace up to that point.  ``variances`` is None for a mean-only
    estimator.  What a caller measures about the run (its time, its score
    against a truth, the seed of its data) stays with the caller: the CLI
    adds those keys to :meth:`to_dict`'s output.
    """

    mu: np.ndarray
    variances: np.ndarray | None
    residual_trace: list
    stop: str
    config: dict = field(default_factory=dict)
    divergence: str | None = None

    def __post_init__(self):
        if self.stop not in STOPS:
            raise ValueError(f"stop must be one of {STOPS}, got {self.stop!r}")

    @property
    def iterations(self) -> int:
        return len(self.residual_trace) - 1

    @property
    def converged(self) -> bool:
        return self.stop == "converged"

    def to_dict(self) -> dict:
        """JSON-serializable view of the report."""
        out = {
            "iterations": self.iterations,
            "converged": self.converged,
            "stop": self.stop,
            "config": dict(self.config),
            "final_residual": float(self.residual_trace[-1]),
            "residual_trace": [float(r) for r in self.residual_trace],
            "mu_re": np.real(self.mu).tolist(),
            "mu_im": np.imag(self.mu).tolist(),
        }
        if self.variances is not None:
            out["variances"] = np.asarray(self.variances).tolist()
        if self.divergence is not None:
            out["divergence"] = self.divergence
        return out


@dataclass(frozen=True)
class Iterative:
    """An iterative estimator: its name, its default damping ``alpha``, and
    ``start(batch, alpha) -> (point, step)``, the zero-padded starting point
    of a :class:`ModelBatch` and its step (see :func:`run`), whose
    (B, width) mean and variances (or None) ``mean`` and ``variances`` read.
    A point is a (B, ...) array, or a named tuple of (B, ...) arrays and
    Nones, whose rows the driver takes when runs stop.
    """

    name: str
    alpha: float
    start: Callable
    mean: Callable
    variances: Callable


def rows_at_fault(bad) -> list:
    """Batch rows of a (B, N) mask with any entry set; an (N,) mask is one row."""
    return np.flatnonzero(np.atleast_2d(bad).any(axis=-1)).tolist()


def _take(point, keep):
    """Rows ``keep`` of a point: an array, or a named tuple of arrays and Nones."""
    if isinstance(point, np.ndarray):
        return point[keep]
    return point._make(None if x is None else x[keep] for x in point)


def run(estimator: Iterative, models, alpha: float | None = None, t_max: int = 100,
        tol: float = 1e-8) -> list:
    """Run ``estimator`` on every model at damping ``alpha`` (None: its
    own), in lockstep; returns one :class:`EstimateReport` per model, in order
    (none for no models).  ``t_max`` must be a nonnegative integer and ``tol``
    nonnegative, or a stop rule would never fire.

    ``estimator.start`` gives the point, the state of all B runs in
    zero-padded (B, width, ...) arrays as a :class:`ModelBatch` of the models
    pads them, and each step advances it as ``point = step(batch, point,
    A^H A mu)``, ``estimator.mean(point)`` the (B, width) mean mu.  Every
    step, the driver applies each model's Gram matrix to its row once,
    appends ``batch.residuals(mu, A^H A mu)`` to the row's residual trace,
    which starts at the initial point, and hands the product to the next
    step.  A row stops ``"converged"`` when its mean is nonzero and its max
    relative change drops below ``tol`` (a mean that stays zero has settled
    on nothing), or at ``"t_max"`` steps.  It stops ``"diverged"`` when its
    residual is not finite or exceeds ``DIVERGENCE_FACTOR`` times its running
    minimum (floored at machine epsilon), so a run that plateaus and rises
    for many steps does not trip it, or when a step raises
    :class:`DivergenceError` naming its row; the step then runs again on the
    other rows, so a step must not change the point it is given.  A stopped
    row leaves the batch, and the arrays are compressed only then.

    Element-wise arithmetic and the stop rules run once per step over the
    padded arrays; every product or sum over N runs per row, on the unpadded
    view, so each row's result equals its run alone bit for bit.  The driver
    keeps no clock: a caller that wants a run's time measures the call.
    """
    if alpha is None:
        alpha = estimator.alpha
    if not (0 < alpha <= 1):
        raise DomainError("alpha must lie in (0, 1]")
    if not (isinstance(t_max, Integral) and t_max >= 0):
        raise DomainError(f"t_max must be a nonnegative integer, got {t_max!r}")
    if not 0 <= tol < np.inf:  # nan fails too
        raise DomainError(f"tol must be finite and nonnegative, got {tol!r}")
    if not models:
        return []
    config = {"algorithm": estimator.name, "alpha": alpha, "t_max": t_max, "tol": tol}
    batch = ModelBatch(models)
    point, step = estimator.start(batch, alpha)
    mean, variances = estimator.mean, estimator.variances
    reports = [None] * len(batch.models)
    live = list(range(len(batch.models)))
    mu = mean(point)
    gram_mu = batch.gram_apply(mu)
    traces = [[r] for r in batch.residuals(mu, gram_mu)]
    floor = [trace[0] for trace in traces]
    iterations = 0

    def finish(stops, why):
        """Report the rows whose stop is set, and drop them from the batch."""
        nonlocal batch, point, mu, gram_mu, floor, traces, live
        var = variances(point)
        for j, stop in enumerate(stops):
            if stop is not None:
                n = batch.sizes[j]
                reports[live[j]] = EstimateReport(
                    mu=mu[j, :n].copy(), variances=None if var is None else var[j, :n].copy(),
                    residual_trace=traces[j], stop=stop, config=dict(config),
                    divergence=why.get(j))
        keep = [j for j, stop in enumerate(stops) if stop is None]
        live = [live[j] for j in keep]
        if keep:
            batch, point, mu, gram_mu = (batch.take(keep), _take(point, keep), mu[keep],
                                         gram_mu[keep])
            floor, traces = [floor[j] for j in keep], [traces[j] for j in keep]

    if t_max == 0:
        finish(["t_max"] * len(live), {})
    while live:
        try:
            new = step(batch, point, gram_mu)
        except DivergenceError as exc:
            why = dict.fromkeys(exc.rows or range(len(live)), str(exc))
            finish(["diverged" if j in why else None for j in range(len(live))], why)
            continue
        iterations += 1
        point = new
        mu_new = mean(point)
        gram_mu = batch.gram_apply(mu_new)
        # the rules run per row on floats; the max-abs reductions once
        moved = np.abs(mu_new - mu).max(axis=1).tolist()
        size = np.abs(mu_new).max(axis=1).tolist()
        mu = mu_new
        stops, why = [], {}
        for j, res in enumerate(batch.residuals(mu, gram_mu)):
            traces[j].append(res)
            if res < floor[j]:
                floor[j] = res
            elif not res <= DIVERGENCE_FACTOR * max(floor[j], _EPS):  # NaN fails it too
                why[j] = (f"residual {res:.3e} exceeds {DIVERGENCE_FACTOR:.0e} times its "
                          f"minimum {floor[j]:.3e}")
            stops.append("diverged" if j in why
                         else "converged" if size[j] > 0 and moved[j] / size[j] < tol
                         else "t_max" if iterations == t_max else None)
        if stops.count(None) < len(stops):
            finish(stops, why)
    return reports
