"""Interference-cancellation estimators: one auxiliary point per coefficient.

IC-IGA updates a mean and a precision per coefficient each iteration,
cancelling the current estimate of every other coefficient; IC-SIGA drops
the precision recursion and is exactly damped Jacobi on the MMSE normal
equations.  Both share their fixed point with the exact MMSE mean.
"""

import numpy as np

from igachan import MeasurementModel, mmse_estimate, run_algorithm
from igachan.ic import IcState, ic_beliefs, ic_iga_step, initial_ic_state, mproj_belief_oracle

rng = np.random.default_rng(3)

m, n = 48, 24
A = (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) / np.sqrt(2 * m)
model = MeasurementModel(A, d=rng.uniform(0.3, 2.0, n), sigma2=0.4,
                         y=rng.standard_normal(m) + 1j * rng.standard_normal(m))
mu_mmse, _ = mmse_estimate(model)

# every IC function takes the model: it forms A^H y once, and A^H A,
# diag(A^H A), c and L = |A^H A|.^2 each at their first use
print("c = diag(A^H A) / sigma2 + 1/d lies in [%.3f, %.3f]" % (model.c.min(), model.c.max()))

# the vectorized kernel reproduces the dense block-inversion projection
lam = rng.standard_normal(n) + 1j * rng.standard_normal(n)
Lam = rng.uniform(0.5, 2.0, n)
state = IcState(lam=lam, Lam=Lam)
mu_vec, r_vec, e = ic_beliefs(model, state)
mu_0, r_0, xi, Xi = mproj_belief_oracle(model, state, n=0)
print("coordinate 0: vectorized mean %.6f%+.6fj vs oracle %.6f%+.6fj"
      % (mu_vec[0].real, mu_vec[0].imag, mu_0.real, mu_0.imag))
print("belief support (nonzero entries of xi_0):", int(np.sum(np.abs(xi) > 1e-12)))
print("interference energies e_n are nonnegative:", bool(np.all(e >= 0)))

# the registry runs these same public steps: five hand steps of IC-IGA from
# its start give the mean of a five-step run bit for bit
state = initial_ic_state(n)
for _ in range(5):
    state = ic_iga_step(model, state, alpha=0.45)
(rep,) = run_algorithm("ic_iga", [model], alpha=0.45, t_max=5, tol=0.0)
print("five hand steps equal a five-step run:", bool(np.array_equal(state.mu, rep.mu)))

for kind, alpha in (("ic_iga", 0.45), ("ic_siga", 0.25)):
    (rep,) = run_algorithm(kind, [model], alpha=alpha, t_max=2000, tol=1e-10)
    err = np.linalg.norm(rep.mu - mu_mmse) / np.linalg.norm(mu_mmse)
    extras = "" if rep.variances is None else \
        f", posterior variances in [{rep.variances.min():.3f}, {rep.variances.max():.3f}]"
    print(f"\n{kind}: {rep.iterations} iterations (alpha={alpha}), "
          f"stop={rep.stop}")
    print(f"  distance to MMSE mean {err:.2e}, final residual "
          f"{rep.residual_trace[-1]:.2e}{extras}")
