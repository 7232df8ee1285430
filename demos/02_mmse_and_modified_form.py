"""The exact MMSE estimator and its zero-diagonal rewrite agree on the mean.

The rewrite routes the Gram matrix's off-diagonal part T through a diagonal
weighting Upsilon, giving a different linear system with the same solution.
That equivalence is what licenses the per-coefficient estimators: their
auxiliary decomposition lives on the modified system, not the original one.
"""

import numpy as np

from igachan import MeasurementModel, build_modified_form, mmse_estimate, modified_mmse_estimate

rng = np.random.default_rng(1)

m, n = 24, 12
A = (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) / np.sqrt(2 * m)
model = MeasurementModel(A, d=rng.uniform(0.3, 2.0, n), sigma2=0.25,
                         y=rng.standard_normal(m) + 1j * rng.standard_normal(m))

# every estimator takes the model alone: it carries y and forms A^H y once
mu, Sigma = mmse_estimate(model)
h_mod = modified_mmse_estimate(model)

print("MMSE mean (first 4):        ", np.round(mu[:4], 4))
print("modified-form mean (first 4):", np.round(h_mod[:4], 4))
print("relative difference: %.2e" % (np.linalg.norm(h_mod - mu) / np.linalg.norm(mu)))

form = build_modified_form(model)
print("\nT diagonal (exactly zero):", np.abs(np.diag(form.T)).max())
print("Upsilon range: [%.3f, %.3f]" % (form.Upsilon.min(), form.Upsilon.max()))

gram, prior, T, TUT = form.terms
print("\nsystem matrix summand norms:")
for name, term in [("Gram/sigma2", gram), ("prior precision", np.diag(prior)),
                   ("T", T), ("T Upsilon T^H", TUT)]:
    print(f"  {name:16s} {np.linalg.norm(term):9.3f}")

# estimation never inflates the prior uncertainty
print("\nposterior variances <= prior variances:",
      bool(np.all(np.real(np.diag(Sigma)) <= model.d + 1e-12)))
