"""Acceptance criteria, one test per criterion.

Each test prints a PASS/FAIL line with the measured value and its pinned
tolerance before asserting, so `pytest -s tests/test_acceptance.py` doubles
as a human-readable acceptance report.
"""

import time

import numpy as np

from igachan import ic, iga
from igachan.bscm import (
    ArrayConfig,
    BscmScenario,
    OfdmConfig,
    PilotPlan,
    ScenarioConfig,
    assemble_dense_A,
    full_extraction,
)
from igachan.cli import main as cli_main
from igachan.estimators import MeasurementModel, mmse_estimate, modified_mmse_estimate
from igachan.harness import BenchmarkSpec, run_benchmark

from conftest import random_y


def _report(criterion, ok, detail, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {status} {criterion}: {detail} "
          f"[elapsed {elapsed:.2f}s, budget {budget:.0f}s]")
    assert ok, detail
    assert elapsed < budget, f"{criterion} exceeded its {budget:.0f}s budget"


def _conditioned_model(rng, m, n, cond_gram):
    u, _ = np.linalg.qr(rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n)))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    s = np.logspace(0, -0.5 * np.log10(cond_gram), n)
    return MeasurementModel((u * s) @ v.conj().T, rng.uniform(0.2, 3.0, n),
                            float(rng.uniform(0.1, 1.5)), random_y(rng, m))


def _well_conditioned_model(rng, n):
    m = 2 * n
    A = (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) / np.sqrt(2 * m)
    return MeasurementModel(A, rng.uniform(0.2, 3.0, n), 0.5, random_y(rng, m))


def test_criterion_1_modified_mmse_equivalence():
    """50 random instances, M, N <= 64, Gram condition up to 1e6."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for i in range(50):
        m = int(rng.integers(2, 65))
        n = int(rng.integers(1, m + 1))
        cond = 10.0 ** rng.uniform(0, 6)
        model = _conditioned_model(rng, m, n, cond)
        mu, _ = mmse_estimate(model)
        h = modified_mmse_estimate(model)
        worst = max(worst, float(np.linalg.norm(h - mu) / np.linalg.norm(mu)))
    _report("criterion-1 modified-mmse-equivalence", worst <= 1e-10,
            f"worst rel diff {worst:.3e} (tol 1e-10, 50 instances)",
            time.perf_counter() - t0, 5.0)


def test_criterion_2_belief_oracle():
    """Vectorized per-coordinate beliefs vs the dense block-inversion oracle."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(4, 33))
        m = int(rng.integers(n, 2 * n + 1))
        A = (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) / np.sqrt(2 * m)
        model = MeasurementModel(A, rng.uniform(0.2, 3.0, n), 0.5, random_y(rng, m))
        pre = ic.precompute_ic(model)
        lam = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        Lam = rng.uniform(0.3, 3.0, n)
        state = ic.IcState(lam=lam, Lam=Lam, t=0)
        mu_vec, r_vec, _ = ic.ic_beliefs(pre, state)
        for j in range(n):
            mu_j, r_j, xi, Xi = ic.mproj_belief_oracle(model, state, j)
            scale = max(abs(mu_j), r_j, 1.0)
            worst = max(worst,
                        abs(mu_j - mu_vec[j]) / scale,
                        abs(r_j - r_vec[j]) / scale,
                        float(np.abs(np.delete(xi, j)).max()),
                        float(np.abs(np.delete(Xi, j)).max()))
    _report("criterion-2 belief-oracle", worst <= 1e-10,
            f"worst deviation {worst:.3e} (tol 1e-10, 20 states)",
            time.perf_counter() - t0, 10.0)


def test_criterion_3_ic_equilibria():
    """IC-IGA (0.45) and IC-SIGA (0.25) reach the MMSE mean on M = 2N."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(103)
    worst_err = worst_res = 0.0
    for n in (32, 64, 128):
        model = _well_conditioned_model(rng, n)
        mu_mmse, _ = mmse_estimate(model)
        pre = ic.precompute_ic(model)
        for kind, alpha in (("ic_iga", 0.45), ("ic_siga", 0.25)):
            rep = ic.run_estimator(kind, pre, alpha=alpha, t_max=2000, tol=1e-12)
            err = float(np.linalg.norm(rep.mu - mu_mmse) / np.linalg.norm(mu_mmse))
            worst_err = max(worst_err, err)
            worst_res = max(worst_res, rep.residual_trace[-1])
            assert rep.iterations <= 2000
    ok = worst_err <= 1e-6 and worst_res <= 1e-8
    _report("criterion-3 ic-equilibria", ok,
            f"worst mean error {worst_err:.3e} (tol 1e-6), "
            f"worst residual {worst_res:.3e} (tol 1e-8), T <= 2000",
            time.perf_counter() - t0, 30.0)


def test_criterion_4_framework_iga():
    """Rank-1-split engine at alpha = 0.05 with the e-condition monitored."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(104)
    worst_err = worst_econd = 0.0
    for n in (16, 64):
        model = _well_conditioned_model(rng, n)
        mu_mmse, _ = mmse_estimate(model)
        scheme = iga.build_rank1_split(model)
        state = iga.initial_state(scheme)
        mu = state.lam0 / (state.Lam0 + scheme.lambda_c)
        for _ in range(20000):
            xi, Xi = iga.project_all(scheme, state)
            state = iga.update_points(state, xi, Xi, alpha=0.05,
                                      lambda_c=scheme.lambda_c)
            worst_econd = max(worst_econd, state.e_condition_residual())
            mu_new = state.lam0 / (state.Lam0 + scheme.lambda_c)
            change = np.abs(mu_new - mu).max() / max(np.abs(mu_new).max(), 1e-300)
            mu = mu_new
            if change < 1e-10:
                break
        worst_err = max(worst_err,
                        float(np.linalg.norm(mu - mu_mmse) / np.linalg.norm(mu_mmse)))
    ok = worst_err <= 1e-6 and worst_econd <= 1e-10
    _report("criterion-4 framework-iga", ok,
            f"worst mean error {worst_err:.3e} (tol 1e-6), "
            f"worst e-condition residual {worst_econd:.3e} (tol 1e-10)",
            time.perf_counter() - t0, 60.0)


def test_criterion_5_operator_equivalence():
    """Fast FFT operators vs dense Kronecker assembly on the tiny config."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(105)
    array = ArrayConfig(M_z=2, M_x=2, F_z=2, F_x=2)
    ofdm = OfdmConfig(N_c=64, delta_f_hz=30e3, M_p=8, M_g=8, F_p=2)
    plan = PilotPlan(K=4, P=2, M_p=8, N_p=ofdm.N_p, N_f=ofdm.N_f)
    assert plan.Q == 2
    scn = BscmScenario(array, ofdm, plan, full_extraction(array, ofdm, plan))
    A = assemble_dense_A(array, ofdm, plan, scn.extraction)
    worst = 0.0
    for _ in range(5):
        s = rng.standard_normal(A.shape[1]) + 1j * rng.standard_normal(A.shape[1])
        b = rng.standard_normal(A.shape[0]) + 1j * rng.standard_normal(A.shape[0])
        fwd = scn.matvec(s)
        adj = scn.rmatvec(b)
        worst = max(
            worst,
            float(np.linalg.norm(fwd - A @ s) / np.linalg.norm(A @ s)),
            float(np.linalg.norm(adj - A.conj().T @ b) / np.linalg.norm(A.conj().T @ b)),
            float(abs(np.vdot(b, fwd) - np.vdot(adj, s)) / abs(np.vdot(b, fwd))),
        )
    _report("criterion-5 operator-equivalence", worst <= 1e-10,
            f"worst forward/adjoint/inner-product deviation {worst:.3e} (tol 1e-10)",
            time.perf_counter() - t0, 5.0)


def test_criterion_6_end_to_end_nmse_parity():
    """IC-IGA and IC-SIGA NMSE within 0.1 dB of MMSE on a synthetic scenario."""
    t0 = time.perf_counter()
    cfg = ScenarioConfig(M_z=4, M_x=4, F_z=2, F_x=2, N_c=2048, delta_f_hz=30e3,
                         M_p=24, M_g=144, F_p=2, K=4, P=4, seed=20260810)
    spec = BenchmarkSpec(snr_list_db=(-10.0, 0.0, 10.0, 30.0),
                         algorithms=("mmse", "ic_iga", "ic_siga"),
                         n_sam=20, scenario=cfg, seed=20260810,
                         t_max=500, tol=1e-10)
    rows = run_benchmark(spec)
    by_key = {(r["snr_db"], r["algorithm"]): r["nmse_db"] for r in rows}
    worst_gap = 0.0
    for snr in spec.snr_list_db:
        for alg in ("ic_iga", "ic_siga"):
            worst_gap = max(worst_gap, abs(by_key[(snr, alg)] - by_key[(snr, "mmse")]))
    _report("criterion-6 nmse-parity", worst_gap <= 0.1,
            f"worst NMSE gap to MMSE {worst_gap:.4f} dB (tol 0.1 dB, "
            f"SNR {spec.snr_list_db}, N_sam 20)",
            time.perf_counter() - t0, 300.0)


def test_criterion_7_orthogonal_pilot_decoupling():
    """Unit fine factors make A's columns orthogonal: one step lands on MMSE."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(107)
    array = ArrayConfig(M_z=2, M_x=2, F_z=1, F_x=1)
    ofdm = OfdmConfig(N_c=64, delta_f_hz=30e3, M_p=8, M_g=8, F_p=1)
    plan = PilotPlan(K=2, P=2, M_p=8, N_p=ofdm.N_p, N_f=ofdm.N_f)
    scn = BscmScenario(array, ofdm, plan, full_extraction(array, ofdm, plan))
    A = assemble_dense_A(array, ofdm, plan, scn.extraction)
    gram = A.conj().T @ A
    assert np.abs(gram - np.diag(np.diag(gram))).max() <= 1e-10
    model = MeasurementModel(A, rng.uniform(0.3, 2.0, A.shape[1]), 0.5,
                             random_y(rng, A.shape[0]))
    mu_mmse, _ = mmse_estimate(model)
    pre = ic.precompute_ic(model)
    state0 = ic.initial_ic_state(A.shape[1])
    assert np.linalg.norm(state0.mu - mu_mmse) > 1e-3  # not there yet
    state1 = ic.ic_iga_step(pre, state0, alpha=1.0)
    err = float(np.linalg.norm(state1.mu - mu_mmse) / np.linalg.norm(mu_mmse))
    _report("criterion-7 orthogonal-pilot-decoupling", err <= 1e-10,
            f"mean error after exactly one iteration {err:.3e} (tol 1e-10)",
            time.perf_counter() - t0, 1.0)


def _median_round_ratio(fn_small, fn_big, steps_small, steps_big, rounds):
    """Ratio of per-iteration times, median over interleaved rounds.

    Adjacent-in-time measurements share the (virtualized) machine state, so
    per-round ratios cancel slow load drift that absolute timings cannot.
    """
    fn_small()
    fn_big()
    ratios = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        for _ in range(steps_small):
            fn_small()
        t_small = (time.perf_counter() - t0) / steps_small
        t0 = time.perf_counter()
        for _ in range(steps_big):
            fn_big()
        t_big = (time.perf_counter() - t0) / steps_big
        ratios.append(t_big / t_small)
    return float(np.median(ratios))


def _dense_step_timer(n, rng):
    # timing-only surrogate: a synthetic Hermitian Gram with the exact
    # per-iteration kernels (L @ v and the Gram product dominate); diagonal
    # dominance keeps the iterate finite over hundreds of timing steps
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    K = (G + G.conj().T) / 2
    np.fill_diagonal(K, 0.0)
    np.fill_diagonal(K, np.abs(K).sum(axis=1) + 1.0)
    kd = np.real(np.diag(K)).copy()
    pre = ic.IcPrecomp(ahy=random_y(rng, n), aha_diag=kd, c=kd + 1.0,
                       d=np.ones(n), sigma2=1.0,
                       gram=lambda x, _K=K: _K @ x, L=np.abs(K) ** 2)
    state = [ic.initial_ic_state(n)]

    def step():
        state[0] = ic.ic_iga_step(pre, state[0], 0.45)

    return step


def _fast_step_timer(f_z, rng):
    array = ArrayConfig(M_z=8, M_x=8, F_z=f_z, F_x=2)
    ofdm = OfdmConfig(N_c=2048, delta_f_hz=30e3, M_p=32, M_g=144, F_p=2)
    plan = PilotPlan(K=1, P=1, M_p=32, N_p=ofdm.N_p, N_f=ofdm.N_f)
    scn = BscmScenario(array, ofdm, plan, full_extraction(array, ofdm, plan))
    pre = ic.precompute_ic(MeasurementModel(scn, np.ones(scn.shape[1]), 1.0,
                                            random_y(rng, scn.shape[0])))
    mu = random_y(rng, scn.shape[1])
    return lambda: ic.ic_siga_step(pre, mu, 0.25), scn.shape[1]


def test_criterion_8_complexity_scaling():
    """Doubling N: ~4x for the dense quadratic kernel, < 4x on the FFT path.

    Sizes are chosen so both working sets stay cache-resident; otherwise the
    measurement reflects the memory hierarchy, not arithmetic complexity.
    One remeasure is allowed for wall-clock noise on shared hosts.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(108)
    dense_small = _dense_step_timer(700, rng)
    dense_big = _dense_step_timer(1400, rng)
    fast_small, n_small = _fast_step_timer(2, rng)
    fast_big, n_big = _fast_step_timer(4, rng)
    assert n_big == 2 * n_small

    dense_factor = _median_round_ratio(dense_small, dense_big, 200, 60, rounds=13)
    if not (3.0 <= dense_factor <= 5.0):
        dense_factor = _median_round_ratio(dense_small, dense_big, 200, 60, rounds=25)
    fast_factor = _median_round_ratio(fast_small, fast_big, 60, 30, rounds=13)
    if not (fast_factor < 4.0):
        fast_factor = _median_round_ratio(fast_small, fast_big, 60, 30, rounds=25)

    ok = (3.0 <= dense_factor <= 5.0) and (fast_factor < 4.0)
    _report("criterion-8 complexity-scaling", ok,
            f"dense per-iteration factor {dense_factor:.2f} (required [3, 5]), "
            f"fast-operator factor {fast_factor:.2f} (required < 4)",
            time.perf_counter() - t0, 120.0)


def test_criterion_9_benchmark_determinism(tmp_path):
    """Repeated `benchmark` CLI runs with one seed emit byte-identical CSV."""
    t0 = time.perf_counter()
    cfg_text = "\n".join([
        "M_z = 2", "M_x = 2", "F_z = 2", "F_x = 2",
        "N_c = 64", "delta_f_hz = 30000", "M_p = 8", "M_g = 8", "F_p = 2",
        "K = 4", "P = 2", "seed = 4242",
    ])
    cfg_path = tmp_path / "scenario.txt"
    cfg_path.write_text(cfg_text, encoding="utf-8")
    args = ["benchmark", "--config", str(cfg_path), "--snr=-10,0,10",
            "--alg", "mmse,iga,ic_iga,ic_siga", "--trials", "3",
            "--max-iter", "200"]
    out1, out2 = tmp_path / "run1.csv", tmp_path / "run2.csv"
    assert cli_main(args + ["--out", str(out1)]) == 0
    assert cli_main(args + ["--out", str(out2)]) == 0
    identical = out1.read_bytes() == out2.read_bytes()
    _report("criterion-9 benchmark-determinism", identical,
            f"two CLI runs, {len(out1.read_bytes())} bytes each, "
            f"byte-identical: {identical}",
            time.perf_counter() - t0, 60.0)
