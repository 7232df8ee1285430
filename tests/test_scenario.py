import numpy as np
import pytest

from igachan.bscm import BscmScenario, ScenarioConfig, geometry_from_config
from igachan.errors import ConfigError, DomainError
from igachan.scenario import (
    BeamChannel,
    PowerMatrix,
    extraction_from_powers,
    gen_power_matrices,
    gram_factor,
    load_channels,
    load_power_matrices,
    sample_channels,
    sample_extracted,
    save_channels,
    save_power_matrices,
    stack_grid,
    substream,
    synthesize_ahy,
    synthesize_rx,
    user_slices,
)


@pytest.fixture(scope="module")
def cfg():
    return ScenarioConfig(M_z=2, M_x=2, F_z=2, F_x=2, N_c=64, delta_f_hz=30e3,
                          M_p=8, M_g=8, F_p=2, K=4, P=2, seed=11)


@pytest.fixture(scope="module")
def parts(cfg):
    return geometry_from_config(cfg)


class TestPowerMatrices:
    def test_normalization(self, cfg):
        for pm in gen_power_matrices(cfg, seed=1):
            assert abs(pm.omega.sum() - 1.0) <= 1e-12
            assert np.all(pm.omega >= 0)

    def test_determinism(self, cfg):
        a = gen_power_matrices(cfg, seed=5)
        b = gen_power_matrices(cfg, seed=5)
        for pa, pb in zip(a, b):
            assert np.array_equal(pa.omega, pb.omega)
        c = gen_power_matrices(cfg, seed=6)
        assert any(not np.array_equal(pa.omega, pc.omega) for pa, pc in zip(a, c))

    def test_support_fraction_under_default_geometry(self):
        cfg = ScenarioConfig()  # standard 512 x 17 grid
        for pm in gen_power_matrices(cfg, seed=2):
            frac = np.count_nonzero(pm.omega) / pm.omega.size
            assert frac <= 0.20

    def test_stream_index_gives_fresh_draws(self, cfg):
        a = gen_power_matrices(cfg, seed=5, stream=(0,))
        b = gen_power_matrices(cfg, seed=5, stream=(1,))
        assert any(not np.array_equal(pa.omega, pb.omega) for pa, pb in zip(a, b))

    def test_validation(self):
        with pytest.raises(DomainError):
            PowerMatrix(np.full((2, 2), 0.5))  # sums to 2


class TestChannels:
    def test_zero_variance_entries_are_exact_zeros(self, cfg):
        powers = gen_power_matrices(cfg, seed=3)
        channels = sample_channels(powers, seed=3)
        for pm, ch in zip(powers, channels):
            assert np.all(ch.H[pm.omega == 0] == 0)

    def test_empirical_entry_variance(self, cfg):
        powers = gen_power_matrices(cfg, seed=4)[:1]
        om = powers[0].omega
        i, j = np.unravel_index(np.argmax(om), om.shape)
        draws = np.array([
            sample_channels(powers, seed=8, stream=(t,))[0].H[i, j]
            for t in range(10_000)
        ])
        emp = float(np.mean(np.abs(draws) ** 2))
        assert abs(emp - om[i, j]) <= 0.05 * om[i, j]
        assert abs(np.mean(draws)) <= 5 * np.sqrt(om[i, j] / draws.size)

    def test_frobenius_energy_matches_power_normalization(self, cfg, parts):
        array, ofdm, plan = parts
        extraction_all, _ = extraction_from_powers(
            gen_power_matrices(cfg, seed=5), array, ofdm, plan)
        scn = BscmScenario(array, ofdm, plan, extraction_all)
        powers = gen_power_matrices(cfg, seed=5)[:1]
        target = array.M_r * ofdm.M_p
        vals = np.array([
            np.linalg.norm(scn.beam_to_space_freq(
                sample_channels(powers, seed=9, stream=(t,))[0].H)) ** 2
            for t in range(500)
        ])
        se = vals.std(ddof=1) / np.sqrt(vals.size)
        assert abs(vals.mean() - target) <= 5 * se


class TestExtractedChannels:
    def test_user_slices_match_the_stacked_layout(self, cfg, parts):
        array, ofdm, plan = parts
        extraction, _ = extraction_from_powers(gen_power_matrices(cfg, seed=6), array, ofdm, plan)
        slices = user_slices(extraction, array, plan)
        assert slices[0].start == 0 and slices[-1].stop == extraction.n
        for k, s in enumerate(slices, start=1):
            cols = plan.user_columns(k)
            pos = extraction.indices[s]
            assert np.all((pos >= cols.start * array.N_r) & (pos < cols.stop * array.N_r))

    def test_draw_on_the_extraction_has_the_prior_variances(self, cfg, parts):
        # |h_i|^2 / d_i is exponential with mean 1 per coordinate, so its
        # mean over R draws has standard error 1 / sqrt(R)
        array, ofdm, plan = parts
        powers = gen_power_matrices(cfg, seed=6)
        extraction, d = extraction_from_powers(powers, array, ofdm, plan)
        slices = user_slices(extraction, array, plan)
        draws = 400
        h = np.array([sample_extracted(d, slices, seed=21, stream=(t,)) for t in range(draws)])
        assert h.shape == (draws, extraction.n)
        ratio = (np.abs(h) ** 2 / d).mean(axis=0)
        assert np.abs(ratio - 1.0).max() <= 5.5 / np.sqrt(draws)
        # the same substream, so a user's draw does not depend on the others'
        alone = sample_extracted(d[slices[1]], [slice(0, 0), slice(0, d[slices[1]].size)],
                                 seed=21, stream=(0,))
        assert np.array_equal(alone, h[0, slices[1]])


class TestStatisticDraw:
    @pytest.fixture(scope="class")
    def singular(self, parts):
        from igachan.bscm import full_extraction

        G = BscmScenario(*parts, full_extraction(*parts)).gram()
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(G)
        return G

    def test_factor_of_a_singular_gram(self, singular):
        F = gram_factor(singular)
        assert np.abs(F @ F.conj().T - singular).max() <= 1e-12 * np.abs(singular).max()

    def test_factor_of_a_regular_gram_is_cholesky(self, rng):
        B = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        G = B @ B.conj().T
        assert np.array_equal(gram_factor(G), np.linalg.cholesky(G))

    def test_noise_free_statistic_is_gram_times_truth(self, singular, rng):
        h = rng.standard_normal(singular.shape[0]) + 1j * rng.standard_normal(singular.shape[0])
        assert np.array_equal(synthesize_ahy(singular, h, 0.0, seed=0), singular @ h)
        with pytest.raises(DomainError):
            synthesize_ahy(singular, h, -1.0, seed=0)


class TestStackingAndPrior:
    def test_prior_layout_round_trip(self, cfg, parts):
        array, ofdm, plan = parts
        powers = gen_power_matrices(cfg, seed=6)
        extraction, d = extraction_from_powers(powers, array, ofdm, plan)
        assert np.all(d > 0)
        # scatter back and compare against each user's power map layout
        flat = np.zeros(extraction.n_tilde)
        flat[extraction.indices] = d
        grid = flat.reshape(array.N_r, plan.Q * ofdm.N_p, order="F")
        for k in range(1, plan.K + 1):
            q, p = plan.user_slot(k)
            start = (q - 1) * ofdm.N_p + (p - 1) * ofdm.N_f
            block = grid[:, start : start + ofdm.N_f]
            assert np.array_equal(block, powers[k - 1].omega)

    def test_constant_power_gives_constant_prior(self, cfg, parts):
        array, ofdm, plan = parts
        flat = np.full((array.N_r, ofdm.N_f), 1.0 / (array.N_r * ofdm.N_f))
        powers = [PowerMatrix(flat) for _ in range(plan.K)]
        extraction, d = extraction_from_powers(powers, array, ofdm, plan)
        assert np.ptp(d) == 0

    def test_extraction_excludes_zero_variance(self, cfg, parts):
        array, ofdm, plan = parts
        powers = gen_power_matrices(cfg, seed=7)
        extraction, _ = extraction_from_powers(powers, array, ofdm, plan)
        om = stack_grid([pm.omega for pm in powers], array, ofdm, plan)
        assert np.all(om[extraction.indices] > 0)
        dropped = np.setdiff1d(np.arange(om.size), extraction.indices)
        assert np.all(om[dropped] <= 1e-12 * om.max())


class TestSynthesis:
    def test_single_coefficient_is_one_column(self, cfg, parts):
        from igachan.bscm import assemble_dense_A, full_extraction

        array, ofdm, plan = parts
        extraction = full_extraction(array, ofdm, plan)
        scn = BscmScenario(array, ofdm, plan, extraction)
        A = assemble_dense_A(array, ofdm, plan, extraction)
        channels = [BeamChannel(np.zeros((array.N_r, ofdm.N_f), dtype=complex))
                    for _ in range(plan.K)]
        value = 0.7 - 0.2j
        H1 = channels[2].H.copy()
        H1[5, 1] = value
        channels[2] = BeamChannel(H1)
        ht = stack_grid([ch.H for ch in channels], array, ofdm, plan)
        idx = int(np.flatnonzero(ht)[0])
        y = synthesize_rx(scn, ht, sigma2=0.0, seed=0)
        assert np.abs(y - A[:, idx] * value).max() <= 1e-12

    def test_fast_path_matches_literal_matrix_model(self, cfg, parts, rng):
        # y from the operator equals the per-user space-frequency sum
        # sum_k V H_k U^T diag(x_k), vectorized column-major
        from igachan.bscm import build_steering, full_extraction, zc_pilot

        array, ofdm, plan = parts
        extraction = full_extraction(array, ofdm, plan)
        scn = BscmScenario(array, ofdm, plan, extraction)
        powers = gen_power_matrices(cfg, seed=8)
        channels = sample_channels(powers, seed=8)
        _, _, V, U = build_steering(array, ofdm)
        Y = np.zeros((array.M_r, ofdm.M_p), dtype=complex)
        for k in range(1, plan.K + 1):
            G_k = V @ channels[k - 1].H @ U.T
            Y += G_k @ np.diag(zc_pilot(plan, ofdm, k))
        y_ref = Y.reshape(-1, order="F")
        y = synthesize_rx(scn, stack_grid([ch.H for ch in channels], array, ofdm, plan), sigma2=0.0, seed=0)
        assert np.linalg.norm(y - y_ref) <= 1e-10 * np.linalg.norm(y_ref)

    def test_uneven_root_occupancy(self, rng):
        # K not a multiple of P: the last root carries fewer users and its
        # spare shift block stays empty, but the model still matches the
        # literal per-user sum
        from igachan.bscm import (
            ScenarioConfig, build_steering, full_extraction, geometry_from_config,
            zc_pilot,
        )

        cfg3 = ScenarioConfig(M_z=2, M_x=2, F_z=2, F_x=2, N_c=64, delta_f_hz=30e3,
                              M_p=8, M_g=8, F_p=2, K=3, P=2, seed=5)
        array, ofdm, plan = geometry_from_config(cfg3)
        assert plan.Q == 2 and plan.user_slot(3) == (2, 1)
        scn = BscmScenario(array, ofdm, plan, full_extraction(array, ofdm, plan))
        powers = gen_power_matrices(cfg3, seed=5)
        channels = sample_channels(powers, seed=5)
        _, _, V, U = build_steering(array, ofdm)
        Y = np.zeros((array.M_r, ofdm.M_p), dtype=complex)
        for k in range(1, plan.K + 1):
            Y += (V @ channels[k - 1].H @ U.T) @ np.diag(zc_pilot(plan, ofdm, k))
        y_ref = Y.reshape(-1, order="F")
        y = synthesize_rx(scn, stack_grid([ch.H for ch in channels], array, ofdm, plan), sigma2=0.0, seed=0)
        assert np.linalg.norm(y - y_ref) <= 1e-10 * np.linalg.norm(y_ref)

    def test_noise_statistics(self, cfg, parts):
        array, ofdm, plan = parts
        from igachan.bscm import full_extraction

        scn = BscmScenario(array, ofdm, plan, full_extraction(array, ofdm, plan))
        zero = np.zeros(scn.extraction.n)
        sigma2 = 0.6
        samples = np.concatenate([
            np.abs(synthesize_rx(scn, zero, sigma2, seed=10, stream=(t,))) ** 2
            for t in range(320)
        ])
        assert samples.size >= 10_000
        emp = samples.mean()
        assert abs(emp - sigma2) <= 0.05 * sigma2

    def test_negative_noise_rejected(self, cfg, parts):
        array, ofdm, plan = parts
        from igachan.bscm import full_extraction

        scn = BscmScenario(array, ofdm, plan, full_extraction(array, ofdm, plan))
        zero = np.zeros(scn.extraction.n)
        with pytest.raises(DomainError):
            synthesize_rx(scn, zero, -1.0, seed=0)


class TestSubstreams:
    def test_purpose_separation(self):
        a = substream(1, "powers").standard_normal(4)
        b = substream(1, "channels").standard_normal(4)
        assert not np.array_equal(a, b)

    def test_reproducible(self):
        a = substream(42, "noise", 3).standard_normal(4)
        b = substream(42, "noise", 3).standard_normal(4)
        assert np.array_equal(a, b)

    def test_unknown_purpose(self):
        with pytest.raises(ConfigError):
            substream(1, "weights")

    @pytest.mark.parametrize("seed, indices", [(2.5, ()), (2**64, ()), (-1, ()),
                                               (1, (2.5,)), (1, (0, -1))],
                             ids=["2.5", "2^64", "-1", "index-2.5", "index--1"])
    def test_a_seed_or_index_that_is_no_u64_is_refused(self, seed, indices):
        # 2.5 drew seed 2's stream
        with pytest.raises(ConfigError, match=r"in \[0, 2\^64\)"):
            substream(seed, "noise", *indices)


class TestSerialization:
    def test_power_round_trip(self, cfg, tmp_path):
        powers = gen_power_matrices(cfg, seed=12)
        path = tmp_path / "powers.bin"
        save_power_matrices(path, powers)
        loaded = load_power_matrices(path)
        assert len(loaded) == len(powers)
        for a, b in zip(powers, loaded):
            assert np.array_equal(a.omega, b.omega)

    def test_channel_round_trip(self, cfg, tmp_path):
        powers = gen_power_matrices(cfg, seed=13)
        channels = sample_channels(powers, seed=13)
        path = tmp_path / "channels.bin"
        save_channels(path, channels)
        loaded = load_channels(path)
        for a, b in zip(channels, loaded):
            assert np.array_equal(a.H, b.H)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
        with pytest.raises(ConfigError, match="magic"):
            load_power_matrices(path)

    def test_kind_mismatch(self, cfg, tmp_path):
        powers = gen_power_matrices(cfg, seed=14)
        path = tmp_path / "powers.bin"
        save_power_matrices(path, powers)
        with pytest.raises(ConfigError, match="kind"):
            load_channels(path)

    @pytest.mark.parametrize("cut", [4, 13, 24 + 8, -1])
    def test_truncated_file(self, cfg, tmp_path, cut):
        # cuts inside the magic, the header fields and the payload
        powers = gen_power_matrices(cfg, seed=15)
        for save, load, data in ((save_power_matrices, load_power_matrices, powers),
                                 (save_channels, load_channels,
                                  sample_channels(powers, seed=15))):
            path = tmp_path / "cut.bin"
            save(path, data)
            full = path.read_bytes()
            path.write_bytes(full[:cut])
            expected = 24 if len(full[:cut]) < 24 else len(full)
            with pytest.raises(ConfigError, match=rf"cut\.bin.*expected {expected}\b"):
                load(path)
