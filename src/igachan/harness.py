"""NMSE metric, space-frequency reconstruction, benchmark sweeps, and the
self-validation suite.

A benchmark cell is one (SNR, algorithm) pair: N_sam scenarios and noise
draws are generated from per-trial substreams, every algorithm estimates on
the *same* data, and

    NMSE = (1 / (K N_sam)) sum_k sum_n ||Gbar_kn - G_kn||_F^2 / ||G_kn||_F^2

is averaged into one CSV row per cell.  Scoring builds no space-frequency
matrix: ||Gbar_k - G_k||_F^2 = e_k^H W_k e_k, with e_k user k's coefficient
error and W_k its diagonal block of A^H A (see :class:`Trial`);
:func:`reconstruct_G` and :func:`nmse` are the reference it is tested
against.  Output is deterministic under a fixed (spec, seed): the cells
run in order, each building its N_sam trials on per-trial substreams and
running every algorithm once over all of them in lockstep, with numpy's
BLAS on one thread; a trial's result equals its run alone bit for bit.
Rows appear in (snr, algorithm) order, and the wall-time column is written as
0.0 unless timing is explicitly requested (measured times would break
byte-identical reproducibility).
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass, replace

import numpy as np

from . import ic as _ic
from . import iga as _iga
from .blas import one_blas_thread
from .bscm import (
    BscmScenario,
    ScenarioConfig,
    assemble_dense_A,
    geometry_from_config,
    gram_fits,
)
from .errors import ConfigError, DomainError
from .estimators import MeasurementModel, _mmse_mean, mmse_estimate, modified_mmse_estimate
from .report import EstimateReport, Iterative, run
from .scenario import (
    build_prior,
    extraction_from_powers,
    gen_power_matrices,
    sample_extracted,
    synthesize_ahy,
    synthesize_rx,
    user_slices,
)

# build_trial stays out of __all__: outside-in tracers start a trial at a
# gen_power_matrices call made outside every public function
__all__ = [
    "ALGORITHMS",
    "ESTIMATORS",
    "CSV_HEADER",
    "run_algorithm",
    "BenchmarkSpec",
    "reconstruct_G",
    "nmse",
    "run_benchmark",
    "write_benchmark_csv",
    "benchmark_csv_text",
    "validate_suite",
]

CSV_HEADER = "snr_db,algorithm,nmse,nmse_db,mean_iterations,converged_fraction,wall_time_ms,seed"


def reconstruct_G(h_est, scenario: BscmScenario):
    """Scatter an estimate back to per-user space-frequency matrices.

    Returns the list [Gbar_1, ..., Gbar_K] of (M_r, M_p) matrices obtained by
    transforming each user's beam block through the fast steering path.
    """
    extraction, plan = scenario.extraction, scenario.plan
    h_est = np.asarray(h_est, dtype=np.complex128).reshape(-1)
    if h_est.size != extraction.n:
        raise DomainError(f"estimate has length {h_est.size}, expected {extraction.n}")
    ht = np.zeros(extraction.n_tilde, dtype=np.complex128)
    ht[extraction.indices] = h_est
    grid = ht.reshape(scenario.array.N_r, plan.Q * scenario.ofdm.N_p, order="F")
    return [scenario.beam_to_space_freq(grid[:, plan.user_columns(k)])
            for k in range(1, plan.K + 1)]


def nmse(estimates, truths) -> float:
    """Mean Frobenius-normalized squared error over matched matrix pairs."""
    if len(estimates) != len(truths):
        raise DomainError("estimate/truth lists must have equal length")
    if not truths:
        raise DomainError("need at least one pair")
    total = 0.0
    for gbar, g in zip(estimates, truths):
        gbar = np.asarray(gbar)
        g = np.asarray(g)
        if gbar.shape != g.shape:
            raise DomainError("estimate/truth shapes differ")
        denom = np.linalg.norm(g) ** 2
        if denom == 0.0:
            raise DomainError("truth matrix has zero norm")
        total += np.linalg.norm(gbar - g) ** 2 / denom
    return total / len(truths)


@dataclass(frozen=True)
class Trial:
    """One generated scenario draw: the model every estimator reads and the
    truth it is scored against.  ``model.A`` is a :class:`BscmScenario`.

    ``h`` is the stacked channel on the extracted support, sorted by stacked
    index, so user k's coefficients are one contiguous slice s_k of it.
    User k, with root q and shift p, owns the columns
    A_k = (diag(zc_q o ramp_p) kron I) (U kron V)[:, I_k] of A, I_k its
    extracted beam positions: a unit-modulus row scaling of its
    beam-to-space-frequency transform.  Hence
    ||Gbar_k - G_k||_F^2 = e_k^H W_k e_k with e_k = hbar_k - h_k and
    W_k = A_k^H A_k, the diagonal block of A^H A on s_k, and
    ||G_k||_F^2 = h_k^H W_k h_k.  ``users`` holds (s_k, W_k, ||G_k||_F^2)
    per user.
    """

    model: MeasurementModel
    h: np.ndarray
    users: tuple

    def score(self, mu) -> list:
        """Per-user ||Gbar_k - G_k||_F^2 / ||G_k||_F^2 of an estimate."""
        mu = np.asarray(mu, dtype=np.complex128).reshape(-1)
        if mu.size != self.h.size:
            raise DomainError(f"estimate has length {mu.size}, expected {self.h.size}")
        scores = []
        for s, W, g2 in self.users:
            e = mu[s] - self.h[s]
            scores.append(float(np.vdot(e, W @ e).real) / g2)
        return scores


def sigma2_of_snr(snr_db: float) -> float:
    """Noise variance of an SNR in dB, SNR = 1 / sigma2; inf on overflow."""
    try:
        return 10.0 ** (-snr_db / 10.0)
    except OverflowError:
        return math.inf


def build_trial(geometry, cfg: ScenarioConfig, seed: int, snr_db: float,
                stream: tuple) -> Trial:
    """Draw powers, channels and noise for one trial from substream ``stream``.

    The truth h is drawn on the extraction only (:func:`sample_extracted`).
    Where A^H A fits under ``bscm.DENSE_ENTRY_CAP``, it is formed once, in
    closed form, and the model is built from A^H y = A^H A h + A^H z drawn
    from it (:func:`synthesize_ahy`): no FFT runs and no y is formed.  Above
    the cap, y is synthesized by FFT from the same h and the model forms
    A^H y with one ``rmatvec``.  Both give A^H y the same law.
    """
    array, ofdm, plan = geometry
    sigma2 = sigma2_of_snr(snr_db)
    powers = gen_power_matrices(cfg, seed, stream=stream)
    extraction = extraction_from_powers(powers, array, ofdm, plan)
    d = build_prior(powers, extraction, array, ofdm, plan)
    scn = BscmScenario(array, ofdm, plan, extraction)
    slices = user_slices(extraction, array, plan)
    h = sample_extracted(d, slices, seed, stream=stream)
    if gram_fits(extraction.n):
        G = scn.gram()
        model = MeasurementModel(scn, d, sigma2, ahy=synthesize_ahy(G, h, sigma2, seed, stream))
    else:
        G = None
        model = MeasurementModel(scn, d, sigma2, synthesize_rx(scn, h, sigma2, seed, stream))
    return Trial(model, h, _truth_blocks(scn, h, slices, G))


def _truth_blocks(scn: BscmScenario, h: np.ndarray, slices, G) -> tuple:
    """(slice, W_k, ||G_k||_F^2) per user of the truth h on the extraction.

    W_k is user k's diagonal block of A^H A: a view of ``G`` where the
    caller formed it, else :meth:`BscmScenario.gram_block` (the same
    entries).
    """
    users = []
    for k, s in enumerate(slices, start=1):
        W = scn.gram_block(s) if G is None else G[s, s]
        g2 = float(np.vdot(h[s], W @ h[s]).real)
        if not g2 > 0:
            raise DomainError(f"truth of user {k} has zero norm")
        users.append((s, W, g2))
    return tuple(users)


# -- estimator registry: name -> an iterative record (igachan.report.Iterative)
# or a direct solve model -> mu
ESTIMATORS = {
    # the sweep reads only the mean, so the covariance is never formed
    "mmse": lambda model: _mmse_mean(model)[0],
    "modified_mmse": modified_mmse_estimate,
    "iga": _iga.IGA,
    "ic_iga": _ic.IC_IGA,
    "ic_siga": _ic.IC_SIGA,
}
ALGORITHMS = tuple(ESTIMATORS)


def run_algorithm(name: str, models, alpha: float | None = None, t_max: int = 100,
                  tol: float = 1e-8) -> list:
    """One report per model from the registry's estimator ``name``: the one
    way to run an estimator by name.  A diverged run is a report with stop
    "diverged", never a raise.  An iterative estimator runs the models in
    lockstep; a direct solve ignores ``alpha``, ``t_max`` and ``tol`` and
    reports its mean's residual."""
    estimator = ESTIMATORS.get(name)
    if estimator is None:
        raise DomainError(f"unknown algorithm {name!r}; choose from {ALGORITHMS}")
    if isinstance(estimator, Iterative):
        return run(estimator, models, alpha, t_max, tol)
    reports = []
    for model in models:
        mu = estimator(model)
        reports.append(EstimateReport(
            mu=mu, variances=None, residual_trace=[model.residual(mu, model.gram_apply(mu))],
            stop="converged", config={"algorithm": name}))
    return reports


@dataclass(frozen=True)
class BenchmarkSpec:
    """One benchmark sweep: SNR grid x algorithms x N_sam trials.

    ``alpha`` overrides the damping of every iterative algorithm; None
    keeps each one's own default.
    """

    snr_list_db: tuple
    algorithms: tuple
    n_sam: int
    scenario: ScenarioConfig
    seed: int
    alpha: float | None = None
    t_max: int = 100
    tol: float = 1e-8
    measure_time: bool = False

    def __post_init__(self):
        snrs = tuple(float(s) for s in self.snr_list_db)
        # a normal float sigma2 is finite and positive with a finite 1 / sigma2;
        # nan and +-inf fail too
        if not snrs or not all(sys.float_info.min <= sigma2_of_snr(s) <= sys.float_info.max
                               for s in snrs):
            raise ConfigError("SNR list (--snr) must be non-empty, each giving a noise variance "
                              "10^(-SNR/10) that is finite and positive with a finite "
                              f"reciprocal, got {snrs}")
        object.__setattr__(self, "snr_list_db", snrs)
        algs = tuple(self.algorithms)
        if not algs:
            raise ConfigError("algorithm list (--alg) must be non-empty")
        for a in algs:
            if a not in ALGORITHMS:
                raise ConfigError(f"unknown algorithm {a!r}; choose from {ALGORITHMS}")
        object.__setattr__(self, "algorithms", algs)
        if self.n_sam < 1:
            raise ConfigError("n_sam must be >= 1")
        if self.t_max < 0:
            raise ConfigError("t_max (--max-iter) must be >= 0")
        if not (math.isfinite(self.tol) and self.tol >= 0):
            raise ConfigError(f"tol (--tol) must be finite and >= 0, got {self.tol}")
        if self.alpha is not None and not (0 < self.alpha <= 1):
            raise ConfigError(f"alpha (--alpha) must lie in (0, 1], got {self.alpha}")


def _run_cell(spec: BenchmarkSpec, geometry, snr_index: int) -> list:
    """The CSV rows of one SNR point, one per algorithm, in spec order.

    Builds the cell's trials, trial t on substream (snr_index, t), and runs
    each algorithm once over all of them.  A row's NMSE is the mean of the
    per-user scores of every trial.  A diverged trial is a result, not a
    crash: it scores the zero estimate at ``t_max`` iterations, unconverged.
    Under ``spec.measure_time`` a row's wall time is the algorithm's time
    over the cell divided by N_sam; otherwise it is 0.0.
    """
    snr_db = spec.snr_list_db[snr_index]
    trials = [build_trial(geometry, spec.scenario, spec.seed, snr_db, stream=(snr_index, t))
              for t in range(spec.n_sam)]
    models = [trial.model for trial in trials]
    rows = []
    for alg in spec.algorithms:
        t0 = time.perf_counter()
        reports = run_algorithm(alg, models, spec.alpha, spec.t_max, spec.tol)
        wall_ms = (time.perf_counter() - t0) * 1e3 / len(trials)
        ratios, iters = [], []
        for trial, rep in zip(trials, reports):
            if rep.stop == "diverged":
                ratios += trial.score(np.zeros(trial.model.n, dtype=np.complex128))
                iters.append(spec.t_max)
            else:
                ratios += trial.score(rep.mu)
                iters.append(rep.iterations)
        cell_nmse = float(np.mean(ratios))
        rows.append({
            "snr_db": snr_db,
            "algorithm": alg,
            "nmse": cell_nmse,
            "nmse_db": 10.0 * math.log10(cell_nmse) if cell_nmse > 0 else float("-inf"),
            "mean_iterations": float(np.mean(iters)),
            "converged_fraction": float(np.mean([rep.converged for rep in reports])),
            "wall_time_ms": wall_ms if spec.measure_time else 0.0,
            "seed": spec.seed,
        })
    return rows


def run_benchmark(spec: BenchmarkSpec):
    """Sweep the spec; returns one row dict per (snr, algorithm) cell, the
    rows of :func:`_run_cell` joined in SNR order.

    Cells run in order, each algorithm over a cell's trials in lockstep,
    every trial on its own substream, with numpy's BLAS on the calling
    thread (:func:`igachan.blas.one_blas_thread`); every algorithm in a cell
    sees the same data, so the rows depend only on the spec and seed, and
    not on the host's core count.
    """
    geometry = geometry_from_config(spec.scenario)
    with one_blas_thread():
        return [row for si in range(len(spec.snr_list_db))
                for row in _run_cell(spec, geometry, si)]


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def benchmark_csv_text(rows) -> str:
    """Render rows to the pinned CSV schema (UTF-8, LF terminators)."""
    lines = [CSV_HEADER]
    for row in rows:
        lines.append(",".join(_fmt(row[col]) for col in CSV_HEADER.split(",")))
    return "\n".join(lines) + "\n"


def write_benchmark_csv(rows, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(benchmark_csv_text(rows))


# ---------------------------------------------------------------------------
# validation suite

def _tiny_scenario():
    from .bscm import full_extraction

    cfg = ScenarioConfig(M_z=2, M_x=2, F_z=2, F_x=2, N_c=64, delta_f_hz=30e3,
                         M_p=8, M_g=8, F_p=2, K=4, P=2, seed=3)
    array, ofdm, plan = geometry_from_config(cfg)
    extraction = full_extraction(array, ofdm, plan)
    return cfg, array, ofdm, plan, extraction


def _rand_model(rng, m, n, sigma2=0.5):
    A = (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) / np.sqrt(2)
    d = rng.uniform(0.2, 3.0, n)
    return MeasurementModel(A, d, sigma2, _rand_y(rng, m))


def _rand_y(rng, m):
    return rng.standard_normal(m) + 1j * rng.standard_normal(m)


def _check_gaussian_round_trip():
    from .gaussian import GaussianNatural, expectation_to_natural, natural_to_expectation

    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(5):
        n = 8
        B = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        Prec = B @ B.conj().T + n * np.eye(n)
        theta = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        p = GaussianNatural(theta, -Prec)
        q = expectation_to_natural(natural_to_expectation(p))
        worst = max(worst,
                    np.abs(q.theta - p.theta).max() / np.abs(p.theta).max(),
                    np.abs(q.Theta - p.Theta).max() / np.abs(p.Theta).max())
    return worst <= 1e-12, f"max rel err {worst:.3e} (tol 1e-12)"


def _check_kl_properties():
    from .gaussian import GaussianNatural, kl_divergence

    rng = np.random.default_rng(102)
    n = 6
    B = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Prec = B @ B.conj().T + n * np.eye(n)
    theta = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    p = GaussianNatural(theta, -Prec)
    self_kl = abs(kl_divergence(p, p))
    # scalar CN(0,1) vs CN(0,2): log 2 - 1/2
    p1 = GaussianNatural(np.zeros(1), -np.eye(1))
    p0 = GaussianNatural(np.zeros(1), -0.5 * np.eye(1))
    scalar_err = abs(kl_divergence(p1, p0) - (math.log(2.0) - 0.5))
    ok = self_kl <= 1e-12 and scalar_err <= 1e-12
    return ok, f"self-KL {self_kl:.3e}, scalar closed-form err {scalar_err:.3e} (tol 1e-12)"


def _check_mprojection():
    from .gaussian import GaussianNatural, m_project_to_diag, natural_to_expectation

    rng = np.random.default_rng(103)
    n = 6
    B = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Prec = B @ B.conj().T + n * np.eye(n)
    theta = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    p = GaussianNatural(theta, -Prec)
    proj = m_project_to_diag(p)
    e = natural_to_expectation(p)
    err = max(np.abs(proj.mean - e.mu).max(),
              np.abs(proj.variance - np.real(np.diag(e.Sigma))).max())
    return err <= 1e-12, f"moment preservation err {err:.3e} (tol 1e-12)"


def _check_modified_mmse():
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(10):
        m = int(rng.integers(6, 48))
        n = int(rng.integers(4, min(m, 32) + 1))
        model = _rand_model(rng, m, n)
        mu, _ = mmse_estimate(model)
        hm = modified_mmse_estimate(model)
        worst = max(worst, float(np.linalg.norm(hm - mu) / np.linalg.norm(mu)))
    return worst <= 1e-10, f"max rel err {worst:.3e} (tol 1e-10)"


def _check_belief_oracle():
    rng = np.random.default_rng(105)
    worst = 0.0
    for _ in range(5):
        n = 8
        model = _rand_model(rng, 12, n)
        lam = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        Lam = rng.uniform(0.5, 2.0, n)
        state = _ic.IcState(lam=lam, Lam=Lam)
        mu_vec, r_vec, _ = _ic.ic_beliefs(model, state)
        for j in range(n):
            mu_j, r_j, xi, Xi = _ic.mproj_belief_oracle(model, state, j)
            scale = max(abs(mu_j), abs(r_j), 1.0)
            worst = max(worst, abs(mu_j - mu_vec[j]) / scale, abs(r_j - r_vec[j]) / scale)
            off_xi = np.delete(np.abs(xi), j).max() if n > 1 else 0.0
            off_Xi = np.delete(np.abs(Xi), j).max() if n > 1 else 0.0
            worst = max(worst, off_xi, off_Xi)
    return worst <= 1e-10, f"max deviation {worst:.3e} (tol 1e-10)"


def _check_ic_equilibria():
    rng = np.random.default_rng(106)
    model = _rand_model(rng, 96, 48)
    mu_m, _ = mmse_estimate(model)
    msgs = []
    ok = True
    for kind in ("ic_iga", "ic_siga"):
        (rep,) = run_algorithm(kind, [model], None, 2000, 1e-12)
        err = float(np.linalg.norm(rep.mu - mu_m) / np.linalg.norm(mu_m))
        res = rep.residual_trace[-1]
        ok = ok and err <= 1e-6 and res <= 1e-8
        msgs.append(f"{kind}: rel err {err:.3e} (tol 1e-6), residual {res:.3e} (tol 1e-8)")
    # fixed-point probe: one mean-only step at the MMSE mean stays put
    step = _ic.ic_siga_step(model, mu_m, alpha=1.0)
    fp = float(np.linalg.norm(step - mu_m) / np.linalg.norm(mu_m))
    ok = ok and fp <= 1e-10
    msgs.append(f"fixed point drift {fp:.3e} (tol 1e-10)")
    return ok, "; ".join(msgs)


def _check_iga_framework():
    from .gaussian import GaussianNatural, m_project_to_diag

    rng = np.random.default_rng(107)
    cases = [("gaussian A", _rand_model(rng, 24, 12))]
    # unit-modulus entries, as in the beam-domain A: one shared precision row.
    # At sigma2 = 0.5 IGA's residual stalls near 1e-5 and rises for dozens of
    # consecutive steps before it converges
    phases = np.exp(2j * np.pi * rng.random((24, 12)))
    unit = MeasurementModel(phases, rng.uniform(0.2, 3.0, 12), 2.0, _rand_y(rng, 24))
    cases.append(("unit-modulus A", unit))
    cases.append(("unit-modulus A, sigma2 = 0.5", replace(unit, sigma2=0.5)))
    msgs = []
    ok = True
    for label, model in cases:
        mu_m, _ = mmse_estimate(model)
        (rep,) = run_algorithm("iga", [model], 0.05, 5000, 1e-11)
        scheme = _iga.build_rank1_split(model)
        err = float(np.linalg.norm(rep.mu - mu_m) / np.linalg.norm(mu_m))
        # rank-1 fast projection against the dense gaussian-module path,
        # after a few damped steps so that every parameter is nonzero
        state = _iga.initial_state(scheme)
        for _ in range(3):
            xi_all, Xi_all = _iga.project_all(scheme, state)
            state = _iga.update_points(state, xi_all, Xi_all, 0.3, scheme.lambda_c)
        xi_all, Xi_all = _iga.project_all(scheme, state)
        shape = (scheme.q_count, scheme.dim)
        Lam_q, Xi_all = np.broadcast_to(state.Lam_q, shape), np.broadcast_to(Xi_all, shape)
        worst_proj = 0.0
        for q in range(0, scheme.q_count, 5):
            g = scheme.factors[q]
            P = np.outer(g, g.conj()) + np.diag((Lam_q[q] + scheme.lambda_c).astype(complex))
            proj = m_project_to_diag(GaussianNatural(state.lam_q[q] + scheme.b[q], -P))
            worst_proj = max(worst_proj,
                             np.abs((proj.lam - state.lam_q[q]) - xi_all[q]).max(),
                             np.abs((proj.Lam - scheme.lambda_c - Lam_q[q]) - Xi_all[q]).max())
        ok = ok and err <= 1e-6 and worst_proj <= 1e-10
        msgs.append(f"{label} ({scheme.abs2.shape[0]} precision rows): IGA vs MMSE rel err "
                    f"{err:.3e} (tol 1e-6), rank-1 vs dense projection {worst_proj:.3e} (tol 1e-10)")
    return ok, "; ".join(msgs)


def _check_operator_equivalence():
    rng = np.random.default_rng(108)
    _, array, ofdm, plan, extraction = _tiny_scenario()
    scn = BscmScenario(array, ofdm, plan, extraction)
    A = assemble_dense_A(array, ofdm, plan, extraction)
    s = rng.standard_normal(A.shape[1]) + 1j * rng.standard_normal(A.shape[1])
    b = rng.standard_normal(A.shape[0]) + 1j * rng.standard_normal(A.shape[0])
    fwd = float(np.linalg.norm(scn.matvec(s) - A @ s) / np.linalg.norm(A @ s))
    adj = float(np.linalg.norm(scn.rmatvec(b) - A.conj().T @ b)
                / np.linalg.norm(A.conj().T @ b))
    ip = abs(np.vdot(b, scn.matvec(s)) - np.vdot(scn.rmatvec(b), s))
    ip_rel = ip / abs(np.vdot(b, scn.matvec(s)))
    ok = fwd <= 1e-10 and adj <= 1e-10 and ip_rel <= 1e-10
    return ok, f"forward {fwd:.3e}, adjoint {adj:.3e}, inner product {ip_rel:.3e} (tol 1e-10)"


def _check_closed_form_gram():
    from .bscm import full_extraction

    # the tiny scenario, and two roots with unit fine factors
    unit = ScenarioConfig(M_z=3, M_x=2, F_z=1, F_x=1, N_c=64, M_p=8, M_g=8, F_p=1, K=3, P=2)
    worst = 0.0
    for geometry in (_tiny_scenario()[1:4], geometry_from_config(unit)):
        extraction = full_extraction(*geometry)
        A = assemble_dense_A(*geometry, extraction)
        G = A.conj().T @ A
        G_closed = BscmScenario(*geometry, extraction).gram()
        worst = max(worst, float(np.abs(G_closed - G).max() / np.abs(G).max()))
    return worst <= 1e-12, f"max rel err vs dense A^H A {worst:.3e} (tol 1e-12)"


def _check_split_identities():
    from .estimators import build_modified_form

    rng = np.random.default_rng(109)
    model = _rand_model(rng, 10, 6)
    s = 1.0 / model.sigma2
    theta = s * model.ahy
    K = s * (model.A.conj().T @ model.A)
    prec = K + np.diag(1.0 / model.d)
    scheme = _iga.build_rank1_split(model)
    e1 = np.abs(scheme.b.sum(0) - theta).max() / np.abs(theta).max()
    e2 = np.abs(scheme.precision() - prec).max() / np.abs(prec).max()
    # per-coefficient split of the modified system
    form = build_modified_form(model)
    Bsum = np.zeros((model.n, model.n), dtype=complex)
    bsum = np.zeros(model.n, dtype=complex)
    for j in range(model.n):
        c_j = float(np.real(K[j, j])) + 1.0 / model.d[j]
        kbar = K[:, j].copy()
        kbar[j] = 0.0
        w = kbar / np.sqrt(c_j)
        w[j] = np.sqrt(c_j)
        Bsum += np.outer(w, w.conj())
        bj = (s * np.vdot(model.A[:, j], model.y) / c_j) * kbar
        bj[j] = s * np.vdot(model.A[:, j], model.y)
        bsum += bj
    e3 = np.abs(Bsum - form.system_matrix).max() / np.abs(form.system_matrix).max()
    e4 = np.abs(bsum - form.theta_mod).max() / np.abs(form.theta_mod).max()
    worst = max(e1, e2, e3, e4)
    return worst <= 1e-12, f"max split identity violation {worst:.3e} (tol 1e-12)"


def _check_kl_monte_carlo():
    from .gaussian import GaussianNatural, kl_divergence

    rng = np.random.default_rng(110)
    n = 4
    draws = 200_000
    worst_sigmas = 0.0
    for _ in range(2):
        pts = []
        for _ in range(2):
            B = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            Prec = B @ B.conj().T + n * np.eye(n)
            theta = 0.3 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
            pts.append(GaussianNatural(theta, -Prec))
        p1, p0 = pts
        d_exact = kl_divergence(p1, p0)
        Sigma1 = np.linalg.inv(-p1.Theta)
        mu1 = Sigma1 @ p1.theta
        Lch = np.linalg.cholesky(Sigma1)
        z = (rng.standard_normal((draws, n)) + 1j * rng.standard_normal((draws, n))) / np.sqrt(2)
        x = mu1[None, :] + z @ Lch.T

        def logp(pt, xs):
            quad = np.einsum("ij,jk,ik->i", xs.conj(), pt.Theta, xs).real
            lin = 2 * np.real(xs @ pt.theta.conj())
            from .gaussian import _free_energy
            return lin + quad - _free_energy(pt.theta, pt.Theta)

        samples = logp(p1, x) - logp(p0, x)
        est = samples.mean()
        se = samples.std(ddof=1) / np.sqrt(draws)
        worst_sigmas = max(worst_sigmas, abs(est - d_exact) / se)
    return worst_sigmas <= 5.5, (
        f"max |MC - exact| = {worst_sigmas:.2f} standard errors "
        "(tol 5.5 sigma, false-failure < 1e-7)"
    )


def _check_channel_statistics():
    from .scenario import gen_power_matrices as gpm, sample_channels as sc

    cfg, array, ofdm, plan, _ = _tiny_scenario()
    powers = gpm(cfg, seed=11)
    # empirical variance of one nonzero cell over many redraws
    om = powers[0].omega
    i, j = np.unravel_index(np.argmax(om), om.shape)
    draws = np.empty(10_000, dtype=np.complex128)
    for t in range(draws.size):
        draws[t] = sc(powers[:1], seed=12, stream=(t,))[0].H[i, j]
    emp = float(np.mean(np.abs(draws) ** 2))
    rel = abs(emp - om[i, j]) / om[i, j]
    # |g|^2 is exponential: sd of the mean estimate is om / sqrt(n)
    sigmas = rel * np.sqrt(draws.size)
    return sigmas <= 5.5 and rel <= 0.05, (
        f"entry-variance rel err {rel:.4f} = {sigmas:.2f} sigma (tol 5.5 sigma and 5%)"
    )


def _check_frobenius_energy():
    from .scenario import gen_power_matrices as gpm, sample_channels as sc

    cfg, array, ofdm, plan, extraction = _tiny_scenario()
    scn = BscmScenario(array, ofdm, plan, extraction)
    powers = gpm(cfg, seed=13)
    target = array.M_r * ofdm.M_p
    vals = np.empty(500)
    for t in range(vals.size):
        ch = sc(powers[:1], seed=14, stream=(t,))[0]
        G = scn.beam_to_space_freq(ch.H)
        vals[t] = np.linalg.norm(G) ** 2
    emp = float(vals.mean())
    se = float(vals.std(ddof=1) / np.sqrt(vals.size))
    sigmas = abs(emp - target) / se
    return sigmas <= 5.5, (
        f"E||G||_F^2 = {emp:.1f} vs {target} ({sigmas:.2f} sigma, tol 5.5)"
    )


def _check_noise_statistics():
    _, array, ofdm, plan, extraction = _tiny_scenario()
    scn = BscmScenario(array, ofdm, plan, extraction)
    sigma2 = 0.7
    samples = []
    m = array.M_r * ofdm.M_p
    reps = max(1, 10_000 // m + 1)
    for t in range(reps):
        y = synthesize_rx(scn, np.zeros(extraction.n), sigma2, seed=16, stream=(t,))
        samples.append(np.abs(y) ** 2)
    samples = np.concatenate(samples)
    emp = float(samples.mean())
    sigmas = abs(emp - sigma2) / (sigma2 / np.sqrt(samples.size))
    return sigmas <= 5.5 and abs(emp - sigma2) / sigma2 <= 0.05, (
        f"noise variance {emp:.4f} vs {sigma2} ({sigmas:.2f} sigma, tol 5.5 and 5%)"
    )


def _check_statistic_noise():
    """A^H y drawn from A^H A with h = 0 has E|v^H A^H y|^2 = sigma2 v^H G v,
    on one tiny extraction whose G Cholesky factors and one whose singular
    G it refuses, so both factors of :func:`gram_factor` are drawn from."""
    from .scenario import gen_power_matrices as gpm, synthesize_ahy

    cfg, array, ofdm, plan, _ = _tiny_scenario()
    sigma2, draws = 0.7, 12_500
    rng = np.random.default_rng(111)
    worst_sigmas, worst_rel, factors = 0.0, 0.0, []
    for power_seed in (18, 10):
        extraction = extraction_from_powers(gpm(cfg, seed=power_seed), array, ofdm, plan)
        G = BscmScenario(array, ofdm, plan, extraction).gram()
        try:
            np.linalg.cholesky(G)
            factors.append("cholesky")
        except np.linalg.LinAlgError:
            factors.append("eigh")
        n = extraction.n
        V = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
        stats = np.array([synthesize_ahy(G, np.zeros(n), sigma2, seed=17, stream=(t,))
                          for t in range(draws)])
        emp = np.mean(np.abs(stats @ V.conj()) ** 2, axis=0)
        target = sigma2 * np.einsum("ij,ik,kj->j", V.conj(), G, V).real
        rel = np.abs(emp - target) / target
        # |v^H A^H y|^2 is exponential: sd of the mean estimate is target / sqrt(draws)
        worst_rel = max(worst_rel, float(rel.max()))
        worst_sigmas = max(worst_sigmas, float(rel.max() * np.sqrt(draws)))
    ok = worst_sigmas <= 5.5 and worst_rel <= 0.05 and factors == ["cholesky", "eigh"]
    return ok, (f"factors {'/'.join(factors)}, worst rel err {worst_rel:.4f} = "
                f"{worst_sigmas:.2f} sigma (tol 5.5 sigma and 5%)")


_QUICK_CHECKS = [
    ("gaussian_round_trip", _check_gaussian_round_trip),
    ("kl_properties", _check_kl_properties),
    ("m_projection_moments", _check_mprojection),
    ("modified_mmse_equivalence", _check_modified_mmse),
    ("per_coefficient_belief_oracle", _check_belief_oracle),
    ("ic_equilibria_match_mmse", _check_ic_equilibria),
    ("iga_framework", _check_iga_framework),
    ("fast_operator_equivalence", _check_operator_equivalence),
    ("closed_form_gram", _check_closed_form_gram),
    ("split_identities", _check_split_identities),
]

_FULL_CHECKS = _QUICK_CHECKS + [
    ("kl_monte_carlo", _check_kl_monte_carlo),
    ("channel_entry_statistics", _check_channel_statistics),
    ("space_frequency_energy", _check_frobenius_energy),
    ("noise_statistics", _check_noise_statistics),
    ("statistic_noise_statistics", _check_statistic_noise),
]


def validate_suite(level: str = "quick") -> dict:
    """Run the oracle cross-checks at fixed seeds.

    Prints one line per check with its tolerance and outcome and returns
    {name: (passed, detail)}.  ``level="full"`` adds the statistical checks,
    whose tolerances sit at 5.5 standard errors (false-failure probability
    well below 1e-6 across the suite).
    """
    if level not in ("quick", "full"):
        raise ConfigError(f"unknown validation level {level!r}")
    checks = _QUICK_CHECKS if level == "quick" else _FULL_CHECKS
    results = {}
    for name, fn in checks:
        try:
            ok, detail = fn()
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        results[name] = (ok, detail)
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}", flush=True)
    n_pass = sum(1 for ok, _ in results.values() if ok)
    print(f"{n_pass}/{len(results)} checks passed")
    return results
