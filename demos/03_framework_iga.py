"""The generic estimation engine: split, project, exchange beliefs, repeat.

The posterior's natural parameters are split into one rank-1 piece per
received sample.  Each piece owns an auxiliary Gaussian; every iteration
m-projects all auxiliaries onto the diagonal manifold and redistributes the
resulting beliefs.  The linear e-condition holds after every update by
construction, and at the fixed point the target mean solves the MMSE normal
equations.  When every row of |A|^2 is the same, as for the unit-modulus
beam-domain A, all pieces share one precision row.
"""

import numpy as np

from igachan import MeasurementModel, mmse_estimate
from igachan.iga import build_rank1_split, initial_state, project_all, run_iga, update_points

rng = np.random.default_rng(2)

m, n = 32, 16
A = (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) / np.sqrt(2 * m)
model = MeasurementModel(A, d=rng.uniform(0.3, 2.0, n), sigma2=0.5,
                         y=rng.standard_normal(m) + 1j * rng.standard_normal(m))
mu_mmse, _ = mmse_estimate(model)

scheme = build_rank1_split(model)
print(f"split: {scheme.q_count} rank-1 pieces over {scheme.dim} coefficients")
print("precision rows (Gaussian A):", initial_state(scheme).Lam_q.shape)
unit = MeasurementModel(np.exp(2j * np.pi * rng.random((m, n))), d=model.d,
                        sigma2=model.sigma2, y=model.y)
print("precision rows (unit-modulus A):", initial_state(build_rank1_split(unit)).Lam_q.shape)
theta = model.ahy / model.sigma2
print("mean-split identity error:", np.abs(scheme.b.sum(0) - theta).max())

# a few hand-driven iterations, watching both conditions
state = initial_state(scheme)
precision = scheme.precision()
print("\n iter   e-condition   fixed-point residual")
for it in range(1, 6):
    xi, Xi = project_all(scheme, state)
    state = update_points(state, xi, Xi, alpha=0.3, lambda_c=scheme.lambda_c)
    mu = state.lam0 / (state.Lam0 + scheme.lambda_c)
    res = np.linalg.norm(precision @ mu - theta) / np.linalg.norm(theta)
    print(f"  {it:3d}   {state.e_condition_residual():.3e}     {res:.3e}")

# the packaged runner with the usual conservative damping
report = run_iga(scheme, alpha=0.05, t_max=5000, tol=1e-10)
err = np.linalg.norm(report.mu - mu_mmse) / np.linalg.norm(mu_mmse)
print(f"\nrun_iga: {report.iterations} iterations, converged={report.converged}")
print(f"distance to the MMSE mean: {err:.2e}")
print("residual trace (every 200th):",
      [f"{r:.1e}" for r in report.residual_trace[::200]])
