import numpy as np
import pytest

from igachan.bscm import (
    ArrayConfig,
    BscmScenario,
    ExtractionMap,
    OfdmConfig,
    PilotPlan,
    ScenarioConfig,
    assemble_dense_A,
    build_P_matrix,
    build_steering,
    full_extraction,
    geometry_from_config,
    largest_prime_below,
    parse_scenario_config,
    sampled_cosines,
    zc_pilot,
)
from igachan.errors import ConfigError, DomainError


@pytest.fixture(scope="module")
def tiny_parts():
    array = ArrayConfig(M_z=2, M_x=2, F_z=2, F_x=2)
    ofdm = OfdmConfig(N_c=64, delta_f_hz=30e3, M_p=8, M_g=8, F_p=2)
    plan = PilotPlan(K=4, P=2, M_p=8, N_p=ofdm.N_p, N_f=ofdm.N_f)
    return array, ofdm, plan


class TestSteering:
    def test_cosine_grid_endpoints(self):
        u = sampled_cosines(8)
        assert u[0] == -1.0
        assert abs(u[4]) == 0.0  # grid crosses zero at i = N/2 + 1
        assert u[-1] == (2 * 7 - 8) / 8

    def test_first_column_alternating_signs(self, tiny_parts):
        array, ofdm, _ = tiny_parts
        V_z, _, _, _ = build_steering(array, ofdm)
        m = np.arange(array.M_z)
        assert np.abs(V_z[:, 0] - (-1.0) ** m).max() <= 1e-14

    def test_zero_cosine_column_is_ones(self, tiny_parts):
        array, ofdm, _ = tiny_parts
        V_z, _, _, _ = build_steering(array, ofdm)
        i_zero = array.N_z // 2  # 0-based index where u = 0
        assert np.abs(V_z[:, i_zero] - 1.0).max() <= 1e-14

    def test_frequency_steering_is_dft_block(self, tiny_parts):
        array, ofdm, _ = tiny_parts
        _, _, _, U = build_steering(array, ofdm)
        F = np.fft.fft(np.eye(ofdm.N_p))
        assert np.abs(U - F[: ofdm.M_p, : ofdm.N_f]).max() <= 1e-14

    def test_unit_modulus(self, tiny_parts):
        array, ofdm, _ = tiny_parts
        V_z, V_x, V, U = build_steering(array, ofdm)
        for mat in (V_z, V_x, V, U):
            assert np.abs(np.abs(mat) - 1.0).max() <= 1e-14


class TestPilots:
    def test_first_root_is_pure_delay_ramp(self, tiny_parts):
        _, ofdm, plan = tiny_parts
        # users 1..P use root 1 (all-ones ZC); shift p=2 leaves only the ramp
        x = zc_pilot(plan, ofdm, k=2)
        l = np.arange(ofdm.M_p)
        ramp = np.exp(-2j * np.pi * l * ofdm.N_f / ofdm.N_p)
        assert np.abs(x - ramp).max() <= 1e-14

    def test_first_shift_is_pure_root_sequence(self, tiny_parts):
        _, ofdm, plan = tiny_parts
        # user P+1 has root 2, shift 1: no delay modulation
        x = zc_pilot(plan, ofdm, k=3)
        l = np.arange(1, ofdm.M_p + 1)
        zc = np.exp(-1j * np.pi * 1 * l * (l - 1) / plan.N_l)
        assert np.abs(x - zc).max() <= 1e-14

    def test_unit_modulus(self, tiny_parts):
        _, ofdm, plan = tiny_parts
        for k in range(1, plan.K + 1):
            assert np.abs(np.abs(zc_pilot(plan, ofdm, k)) - 1.0).max() <= 1e-14

    def test_largest_prime(self):
        assert largest_prime_below(120) == 113
        assert largest_prime_below(8) == 7
        with pytest.raises(DomainError):
            largest_prime_below(2)

    def test_user_out_of_range(self, tiny_parts):
        _, ofdm, plan = tiny_parts
        with pytest.raises(DomainError):
            zc_pilot(plan, ofdm, k=0)
        with pytest.raises(DomainError):
            zc_pilot(plan, ofdm, k=plan.K + 1)

    def test_plan_invariants(self, tiny_parts):
        _, ofdm, _ = tiny_parts
        with pytest.raises(DomainError, match="alias"):
            PilotPlan(K=64, P=16, M_p=8, N_p=ofdm.N_p, N_f=ofdm.N_f)
        with pytest.raises(DomainError, match="roots"):
            PilotPlan(K=16, P=2, M_p=8, N_p=ofdm.N_p, N_f=ofdm.N_f)


class TestPMatrix:
    def test_single_root_all_ones_gives_partial_dft(self):
        array = ArrayConfig(M_z=2, M_x=2)
        ofdm = OfdmConfig(N_c=64, delta_f_hz=30e3, M_p=8, M_g=8, F_p=2)
        plan = PilotPlan(K=1, P=1, M_p=8, N_p=ofdm.N_p, N_f=ofdm.N_f)
        P = build_P_matrix(plan, ofdm)
        F = np.fft.fft(np.eye(ofdm.N_p))
        assert np.abs(P - F[: ofdm.M_p, :].T).max() <= 1e-13

    def test_shape(self, tiny_parts):
        _, ofdm, plan = tiny_parts
        P = build_P_matrix(plan, ofdm)
        assert P.shape == (plan.Q * ofdm.N_p, ofdm.M_p)

    def test_entrywise_oracle(self, tiny_parts):
        _, ofdm, plan = tiny_parts
        P = build_P_matrix(plan, ofdm)
        for q in range(1, plan.Q + 1):
            l = np.arange(1, ofdm.M_p + 1)
            zc = np.exp(-1j * np.pi * (q - 1) * l * (l - 1) / plan.N_l)
            for r in range(ofdm.N_p):
                row = P[(q - 1) * ofdm.N_p + r]
                expect = zc * np.exp(-2j * np.pi * (l - 1) * r / ofdm.N_p)
                assert np.abs(row - expect).max() <= 1e-13


class TestDenseAssembly:
    def test_full_extraction_equals_kron(self, tiny_parts):
        array, ofdm, plan = tiny_parts
        extraction = full_extraction(array, ofdm, plan)
        A = assemble_dense_A(array, ofdm, plan, extraction)
        P = build_P_matrix(plan, ofdm)
        _, _, V, _ = build_steering(array, ofdm)
        assert np.abs(A - np.kron(P.T, V)).max() <= 1e-13

    def test_kronecker_column_identity(self, tiny_parts):
        array, ofdm, plan = tiny_parts
        extraction = full_extraction(array, ofdm, plan)
        A = assemble_dense_A(array, ofdm, plan, extraction)
        P = build_P_matrix(plan, ofdm)
        _, _, V, _ = build_steering(array, ofdm)
        n_r = array.N_r
        for idx in (0, 7, n_r, 3 * n_r + 5, A.shape[1] - 1):
            j, i = divmod(idx, n_r)
            col = np.kron(P.T[:, j], V[:, i])
            assert np.abs(A[:, idx] - col).max() <= 1e-13

    def test_memory_cap_refusal(self):
        array = ArrayConfig(M_z=8, M_x=16, F_z=2, F_x=2)
        ofdm = OfdmConfig(N_c=2048, delta_f_hz=30e3, M_p=120, M_g=144, F_p=2)
        plan = PilotPlan(K=12, P=12, M_p=120, N_p=ofdm.N_p, N_f=ofdm.N_f)
        extraction = full_extraction(array, ofdm, plan)
        with pytest.raises(DomainError, match="desk-scale cap"):
            assemble_dense_A(array, ofdm, plan, extraction)


class TestFastOperators:
    def test_zero_maps_to_zero(self, tiny_scenario):
        m, n = tiny_scenario.shape
        assert np.all(tiny_scenario.matvec(np.zeros(n)) == 0)
        assert np.all(tiny_scenario.rmatvec(np.zeros(m)) == 0)

    def test_forward_matches_dense(self, tiny_scenario, rng):
        scn = tiny_scenario
        A = assemble_dense_A(scn.array, scn.ofdm, scn.plan, scn.extraction)
        s = rng.standard_normal(A.shape[1]) + 1j * rng.standard_normal(A.shape[1])
        ref = A @ s
        assert np.linalg.norm(scn.matvec(s) - ref) <= 1e-10 * np.linalg.norm(ref)

    def test_adjoint_matches_dense(self, tiny_scenario, rng):
        scn = tiny_scenario
        A = assemble_dense_A(scn.array, scn.ofdm, scn.plan, scn.extraction)
        b = rng.standard_normal(A.shape[0]) + 1j * rng.standard_normal(A.shape[0])
        ref = A.conj().T @ b
        assert np.linalg.norm(scn.rmatvec(b) - ref) <= 1e-10 * np.linalg.norm(ref)

    def test_unit_vector_column_probe(self, tiny_scenario, rng):
        scn = tiny_scenario
        A = assemble_dense_A(scn.array, scn.ofdm, scn.plan, scn.extraction)
        for idx in rng.choice(A.shape[1], size=5, replace=False):
            e = np.zeros(A.shape[1], dtype=complex)
            e[idx] = 1.0
            col = scn.matvec(e)
            assert np.abs(col - A[:, idx]).max() <= 1e-10 * np.abs(A[:, idx]).max()

    def test_adjoint_inner_product_identity(self, tiny_scenario, rng):
        scn = tiny_scenario
        m, n = scn.shape
        s = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        b = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        lhs = np.vdot(b, scn.matvec(s))
        rhs = np.vdot(scn.rmatvec(b), s)
        assert abs(lhs - rhs) <= 1e-10 * abs(lhs)

    def test_partial_extraction(self, tiny_parts, rng):
        array, ofdm, plan = tiny_parts
        nt = plan.Q * ofdm.N_p * array.N_r
        keep = np.sort(rng.choice(nt, size=50, replace=False)).astype(np.int64)
        extraction = ExtractionMap(indices=keep, n_tilde=nt)
        scn = BscmScenario(array, ofdm, plan, extraction)
        A = assemble_dense_A(array, ofdm, plan, extraction)
        s = rng.standard_normal(50) + 1j * rng.standard_normal(50)
        b = rng.standard_normal(A.shape[0]) + 1j * rng.standard_normal(A.shape[0])
        assert np.linalg.norm(scn.matvec(s) - A @ s) <= 1e-10 * np.linalg.norm(A @ s)
        ref = A.conj().T @ b
        assert np.linalg.norm(scn.rmatvec(b) - ref) <= 1e-10 * np.linalg.norm(ref)

    def test_gram_diag(self, tiny_scenario):
        scn = tiny_scenario
        target = float(scn.array.M_r * scn.ofdm.M_p)
        A = assemble_dense_A(scn.array, scn.ofdm, scn.plan, scn.extraction)
        dense_diag = np.real(np.einsum("ij,ij->j", A.conj(), A))
        got = scn.gram_diag()
        assert np.abs(got - target).max() == 0
        assert np.abs(dense_diag - got).max() <= 1e-12 * target

    def test_gram_diag_scales_with_pilot_count(self, tiny_parts):
        array, ofdm, plan = tiny_parts
        ofdm2 = OfdmConfig(N_c=64, delta_f_hz=30e3, M_p=16, M_g=8, F_p=2)
        plan2 = PilotPlan(K=4, P=2, M_p=16, N_p=ofdm2.N_p, N_f=ofdm2.N_f)
        scn1 = BscmScenario(array, ofdm, plan, full_extraction(array, ofdm, plan))
        scn2 = BscmScenario(array, ofdm2, plan2, full_extraction(array, ofdm2, plan2))
        assert scn2.gram_diag()[0] == 2 * scn1.gram_diag()[0]

    def test_dimension_mismatch(self, tiny_scenario):
        with pytest.raises(DomainError):
            tiny_scenario.matvec(np.zeros(3))
        with pytest.raises(DomainError):
            tiny_scenario.rmatvec(np.zeros(3))

    def test_shift_layout_round_trip(self, tiny_scenario):
        # a single beam coefficient round-trips to a gram column whose peak
        # sits at the owning stacked index: users sharing a root stay in
        # their own shifted column block
        scn = tiny_scenario
        n = scn.extraction.n
        for idx in (1, n // 3, n - 2):
            e = np.zeros(n, dtype=complex)
            e[idx] = 1.0
            g = scn.rmatvec(scn.matvec(e))
            assert int(np.argmax(np.abs(g))) == idx
            assert abs(g[idx] - scn.gram_diag()[idx]) <= 1e-10 * abs(g[idx])


class TestScenarioConfigFile:
    def test_defaults_match_standard_setup(self):
        cfg = ScenarioConfig()
        array, ofdm, plan = geometry_from_config(cfg)
        assert array.M_r == 128
        assert ofdm.N_p == 240
        assert ofdm.N_f == 17  # ceil(240 * 144 / 2048)
        assert ofdm.N_p // ofdm.N_f == 14
        assert plan.N_l == 113

    def test_parse_round_trip(self, tmp_path):
        text = "\n".join([
            "# tiny setup",
            "M_z = 2", "M_x = 2", "F_z = 2", "F_x = 2",
            "N_c = 64", "delta_f_hz = 30000", "M_p = 8", "M_g = 8", "F_p = 2",
            "K = 4", "P = 2", "seed = 7",
        ])
        cfg = parse_scenario_config(text)
        assert cfg.M_p == 8 and cfg.seed == 7 and cfg.delta_f_hz == 30000.0
        path = tmp_path / "scenario.txt"
        path.write_text(text, encoding="utf-8")
        from igachan.bscm import load_scenario_config
        assert load_scenario_config(path) == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_scenario_config("M_zz = 4")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_scenario_config("M_z = 4\nM_z = 8")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError, match="cannot parse"):
            parse_scenario_config("M_z = four")

    def test_missing_separator_rejected(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_scenario_config("M_z 4")

    def test_inconsistent_geometry_is_config_error(self):
        cfg = ScenarioConfig(K=64, P=64, M_p=8, N_c=64, M_g=8, F_p=2,
                             M_z=2, M_x=2, F_z=1, F_x=1)
        with pytest.raises(ConfigError):
            geometry_from_config(cfg)
