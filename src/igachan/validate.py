"""The self-validation suite (``python -m igachan validate``): each check
compares one computation at fixed seeds with an exact oracle, such as the
dense MMSE mean, the belief oracle, the dense m-projection or the assembled
dense A.  Estimators run through :func:`igachan.harness.run_algorithm`, as
the sweep runs them, but the sweep never calls this module."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from . import ic as _ic
from . import iga as _iga
from .bscm import (
    BscmScenario,
    ScenarioConfig,
    assemble_dense_A,
    full_extraction,
    geometry_from_config,
)
from .errors import ConfigError
from .estimators import MeasurementModel, build_modified_form, mmse_estimate, modified_mmse_estimate
from .gaussian import (
    GaussianNatural,
    _free_energy,
    expectation_to_natural,
    kl_divergence,
    m_project_to_diag,
    natural_to_expectation,
)
from .harness import run_algorithm
from .scenario import (
    extraction_from_powers,
    gen_power_matrices,
    sample_channels,
    synthesize_ahy,
    synthesize_rx,
)

__all__ = ["validate_suite"]


def _tiny_scenario():
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
            state = _iga.update_points(state, xi_all, Xi_all, 0.3)
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
    cfg, array, ofdm, plan, _ = _tiny_scenario()
    powers = gen_power_matrices(cfg, seed=11)
    # empirical variance of one nonzero cell over many redraws
    om = powers[0].omega
    i, j = np.unravel_index(np.argmax(om), om.shape)
    draws = np.empty(10_000, dtype=np.complex128)
    for t in range(draws.size):
        draws[t] = sample_channels(powers[:1], seed=12, stream=(t,))[0].H[i, j]
    emp = float(np.mean(np.abs(draws) ** 2))
    rel = abs(emp - om[i, j]) / om[i, j]
    # |g|^2 is exponential: sd of the mean estimate is om / sqrt(n)
    sigmas = rel * np.sqrt(draws.size)
    return sigmas <= 5.5 and rel <= 0.05, (
        f"entry-variance rel err {rel:.4f} = {sigmas:.2f} sigma (tol 5.5 sigma and 5%)"
    )


def _check_frobenius_energy():
    cfg, array, ofdm, plan, extraction = _tiny_scenario()
    scn = BscmScenario(array, ofdm, plan, extraction)
    powers = gen_power_matrices(cfg, seed=13)
    target = array.M_r * ofdm.M_p
    vals = np.empty(500)
    for t in range(vals.size):
        ch = sample_channels(powers[:1], seed=14, stream=(t,))[0]
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
    cfg, array, ofdm, plan, _ = _tiny_scenario()
    sigma2, draws = 0.7, 12_500
    rng = np.random.default_rng(111)
    worst_sigmas, worst_rel, factors = 0.0, 0.0, []
    for power_seed in (18, 10):
        extraction, _ = extraction_from_powers(gen_power_matrices(cfg, seed=power_seed), array,
                                               ofdm, plan)
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
