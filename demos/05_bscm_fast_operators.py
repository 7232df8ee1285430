"""The planar-array beam-domain measurement model and its FFT fast paths.

A channel lives on an oversampled beam/delay grid; pilots are Zadoff-Chu
roots with cyclic delay shifts; vectorizing the received frame gives
y = A h + z where A is (a column extraction of) a Kronecker product of a
stacked pilot matrix with the steering matrix.  A and A^H never need to be
formed: both apply via FFTs with per-antenna sign corrections, and the Gram
matrix A^H A has a closed form built from circulant per-axis kernels.
"""

import numpy as np

from igachan.bscm import (
    ArrayConfig,
    BscmScenario,
    OfdmConfig,
    PilotPlan,
    assemble_dense_A,
    build_steering,
    full_extraction,
    zc_pilot,
)

array = ArrayConfig(M_z=2, M_x=2, F_z=2, F_x=2)
ofdm = OfdmConfig(N_c=64, delta_f_hz=30e3, M_p=8, M_g=8, F_p=2)
plan = PilotPlan(K=4, P=2, M_p=8, N_p=ofdm.N_p, N_f=ofdm.N_f)
print(f"antennas {array.M_r}, beam grid {array.N_r}, pilots {ofdm.M_p}, "
      f"delay taps {ofdm.N_f}, roots {plan.Q}, shifts/root {plan.P}")

V_z, V_x, V, U = build_steering(array, ofdm)
print("steering entries all unit modulus:", np.abs(np.abs(V) - 1).max())
for k in (1, 2, 3):
    q, p = plan.user_slot(k)
    print(f"user {k}: root {q}, shift {p}, pilot head {np.round(zc_pilot(plan, ofdm, k)[:3], 3)}")

extraction = full_extraction(array, ofdm, plan)
scn = BscmScenario(array, ofdm, plan, extraction)
A = assemble_dense_A(array, ofdm, plan, extraction)
print("\ndense A:", A.shape, "- only viable at desk scale; the operator "
      "applies in O(N log N)")

rng = np.random.default_rng(4)
s = rng.standard_normal(A.shape[1]) + 1j * rng.standard_normal(A.shape[1])
b = rng.standard_normal(A.shape[0]) + 1j * rng.standard_normal(A.shape[0])
print("fast forward vs dense: %.2e"
      % (np.linalg.norm(scn.matvec(s) - A @ s) / np.linalg.norm(A @ s)))
print("fast adjoint vs dense: %.2e"
      % (np.linalg.norm(scn.rmatvec(b) - A.conj().T @ b)
         / np.linalg.norm(A.conj().T @ b)))
print("adjoint identity <As, b> = <s, A^H b>: %.2e"
      % (abs(np.vdot(b, scn.matvec(s)) - np.vdot(scn.rmatvec(b), s))
         / abs(np.vdot(b, scn.matvec(s)))))
print("Gram diagonal is exactly M_r * M_p =", scn.gram_diag()[0])
G = A.conj().T @ A
print("closed-form Gram vs dense A^H A: %.2e"
      % (np.abs(scn.gram() - G).max() / np.abs(G).max()))
