import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrwalk import InvalidParameterError, generate_coin_phases
from corrwalk.noise import CoinPhases, derive_seed, generate_fbm_trace, squash_to_phase

from _oracles import direct_fbm_trace, periodogram_slope

TWO_PI = 2.0 * np.pi


class TestFbmTrace:
    def test_rejects_zero_length(self):
        with pytest.raises(InvalidParameterError):
            generate_fbm_trace(0, 1.0, 1)

    def test_rejects_negative_nu(self):
        with pytest.raises(InvalidParameterError):
            generate_fbm_trace(100, -0.5, 1)

    @pytest.mark.parametrize("n, nu, match", [(True, 1.0, "length"), (4, True, "nu"), (4, "x", "nu")])
    def test_rejects_bool_or_non_number(self, n, nu, match):
        with pytest.raises(InvalidParameterError, match=match):
            generate_fbm_trace(n, nu, 1)

    def test_rejects_out_of_range_seed(self):
        with pytest.raises(InvalidParameterError):
            generate_fbm_trace(100, 0.0, 2**64)
        with pytest.raises(InvalidParameterError):
            generate_fbm_trace(100, 0.0, -1)

    def test_rejects_exponent_whose_amplitudes_overflow(self):
        # (2*pi/M)**(1 - nu) overflows a float64 at M = 4000, nu = 140.
        with pytest.raises(InvalidParameterError, match="nu = 140.0.*length 4000"):
            generate_fbm_trace(4000, 140.0, 1)

    @pytest.mark.parametrize("n", [2_000, 32_000, 160_000])
    def test_paper_lengths_accept_exponents_up_to_4(self, n):
        assert np.isfinite(generate_fbm_trace(n, 4.0, 1)).all()

    def test_two_point_trace_closed_form(self):
        # Single-mode sum: value at j is sqrt(pi) * cos(pi*j + mu_1).
        mu1 = np.random.default_rng(99).uniform(0.0, TWO_PI, 1)[0]
        expected = np.sqrt(np.pi) * np.cos(np.pi * np.arange(1, 3) + mu1)
        np.testing.assert_allclose(generate_fbm_trace(2, 0.0, 99), expected, atol=1e-12)

    def test_sample_mean_near_zero_over_seeds(self):
        # Expected value frozen from the mode-sum structure: every mode has
        # zero mean over a full period, so the per-trace sample mean is ~0.
        means = [
            generate_fbm_trace(1000, 0.0, s).mean()
            for s in range(100)
        ]
        assert abs(np.mean(means)) < 0.2
        assert max(abs(m) for m in means) < 0.2

    @pytest.mark.parametrize("nu", [0.5, 1.0, 2.0, 3.0])
    def test_periodogram_slope_matches_exponent(self, nu):
        slopes = [
            periodogram_slope(generate_fbm_trace(4096, nu, s))
            for s in range(50)
        ]
        assert abs(np.mean(slopes) + nu) < 0.3

    def test_lag1_autocorrelation_uncorrelated(self):
        acs = []
        for s in range(100):
            v = generate_fbm_trace(1000, 0.0, s)
            v = v - v.mean()
            acs.append(np.dot(v[:-1], v[1:]) / np.dot(v, v))
        assert abs(np.mean(acs)) < 0.1

    def test_deterministic_for_fixed_seed(self):
        np.testing.assert_array_equal(generate_fbm_trace(512, 1.5, 777), generate_fbm_trace(512, 1.5, 777))

    @pytest.mark.parametrize("nu", [0.0, 0.5, 2.0, 4.0])
    @pytest.mark.parametrize("length", [2, 64, 1024])
    def test_fft_matches_direct_reference(self, nu, length):
        np.testing.assert_allclose(
            generate_fbm_trace(length, nu, 31337), direct_fbm_trace(length, nu, 31337), atol=1e-10
        )


class TestSquashToPhase:
    def test_zero_maps_to_pi(self):
        seq = squash_to_phase(np.zeros(5))
        np.testing.assert_allclose(seq, np.pi, atol=1e-15)

    def test_saturation_limits_stay_half_open(self):
        seq = squash_to_phase(np.array([-1e6, 1e6]))
        assert 0.0 < seq[0] < 1e-6 or seq[0] == 0.0
        assert seq[0] >= 0.0
        assert seq[1] < TWO_PI

    def test_known_value(self):
        x = np.arctanh(0.5)
        seq = squash_to_phase(np.array([x]))
        np.testing.assert_allclose(seq[0], 1.5 * np.pi, rtol=1e-12)

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidParameterError):
            squash_to_phase(np.array([0.0, np.nan]))
        with pytest.raises(InvalidParameterError):
            squash_to_phase(np.array([np.inf]))

    def test_rejects_empty(self):
        with pytest.raises(InvalidParameterError):
            squash_to_phase(np.array([]))

    @given(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0))
    @settings(max_examples=200, deadline=None)
    def test_monotone_increasing(self, x, y):
        # Separations below double-precision resolution of tanh(x) + 1
        # cannot stay strict; restrict to resolvable pairs.
        if abs(x - y) < 1e-12:
            return
        lo, hi = min(x, y), max(x, y)
        seq = squash_to_phase(np.array([lo, hi]))
        assert seq[0] < seq[1]

    @given(st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=64))
    @settings(max_examples=200, deadline=None)
    def test_output_always_in_range(self, xs):
        seq = squash_to_phase(np.array(xs))
        assert np.all(seq >= 0.0)
        assert np.all(seq < TWO_PI)


class TestCoinPhases:
    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidParameterError):
            CoinPhases(theta=np.array([0.0, TWO_PI]), phi=np.zeros(2))
        with pytest.raises(InvalidParameterError):
            CoinPhases(theta=np.zeros(2), phi=np.array([-0.1]))

    def test_rejects_non_finite_and_2d(self):
        with pytest.raises(InvalidParameterError):
            CoinPhases(theta=np.array([0.0, np.nan]), phi=np.zeros(2))
        with pytest.raises(InvalidParameterError):
            CoinPhases(theta=np.zeros(2), phi=np.zeros((2, 2)))

    def test_values_read_only(self):
        phases = CoinPhases(theta=np.array([1.0, 2.0]), phi=np.array([3.0]))
        assert phases.theta.dtype == np.float64 and phases.phi.dtype == np.float64
        with pytest.raises(ValueError):
            phases.theta[0] = 0.5
        with pytest.raises(ValueError):
            phases.phi[0] = 0.5

    def test_caller_array_stays_writeable_and_is_not_copied(self):
        theta = np.array([1.0, 2.0])
        phases = CoinPhases(theta=theta, phi=np.array([3.0]))
        assert np.shares_memory(phases.theta, theta)
        theta[0] = 0.5
        assert theta.flags.writeable

    def test_lengths(self):
        phases = generate_coin_phases(50, 40, 1.0, 2.0, seed=3)
        assert len(phases.theta) == 50
        assert len(phases.phi) == 40

    def test_deterministic(self):
        a = generate_coin_phases(64, 32, 0.5, 0.5, seed=11)
        b = generate_coin_phases(64, 32, 0.5, 0.5, seed=11)
        np.testing.assert_array_equal(a.theta, b.theta)
        np.testing.assert_array_equal(a.phi, b.phi)

    def test_theta_phi_streams_independent(self):
        phases = generate_coin_phases(64, 64, 0.0, 0.0, seed=21)
        assert not np.array_equal(phases.theta, phases.phi)

    def test_odd_lengths_truncate_even_generation(self):
        odd = generate_coin_phases(63, 31, 1.0, 1.0, seed=8)
        even = generate_coin_phases(64, 32, 1.0, 1.0, seed=8)
        np.testing.assert_array_equal(odd.theta, even.theta[:63])
        np.testing.assert_array_equal(odd.phi, even.phi[:31])

    def test_uncorrelated_values_fill_range(self):
        phases = generate_coin_phases(1000, 1000, 0.0, 0.0, seed=4)
        for values in (phases.theta, phases.phi):
            counts, _ = np.histogram(values, bins=8, range=(0.0, TWO_PI))
            assert np.all(counts > 0)

    def test_correlated_theta_keeps_spectral_slope(self):
        # The squash preserves the asymptotic power law; check the raw trace.
        seed = derive_seed(12, "theta")
        trace = generate_fbm_trace(4096, 2.0, seed)
        assert abs(periodogram_slope(trace) + 2.0) < 0.3

    def test_rejects_non_positive_dimensions(self):
        with pytest.raises(InvalidParameterError):
            generate_coin_phases(0, 10, 0.0, 0.0, seed=1)
        with pytest.raises(InvalidParameterError):
            generate_coin_phases(10, 0, 0.0, 0.0, seed=1)


class TestDeriveSeed:
    def test_deterministic_and_label_sensitive(self):
        assert derive_seed(5, "theta") == derive_seed(5, "theta")
        assert derive_seed(5, "theta") != derive_seed(5, "phi")
        assert derive_seed(5, 1) != derive_seed(5, 2)
        assert derive_seed(5, 1) != derive_seed(6, 1)

    def test_equal_word_lists_give_equal_seeds(self):
        # The packing rule of the docstring: a string is its little-endian
        # UTF-8 integer, an integer its 32-bit words, and trailing zero words
        # drop out of lists of at most four words.
        assert derive_seed(5, "a") == derive_seed(5, 97)
        assert derive_seed(5, "cell", 0, 0) == derive_seed(5, "cell")
        assert derive_seed(5 + 7 * 2**32, 9) == derive_seed(5, 7, 9)
        assert derive_seed(5, 1, 2, 3, 0) != derive_seed(5, 1, 2, 3)

    def test_seeds_of_a_paper_sweep_are_distinct(self):
        # fig6-paper's shape: 81 cells of 5 sizes, the 5000 realizations of
        # one size, and the phase seeds of 100 of them.
        master = 601
        cells = [derive_seed(master, "cell", i, j) for i in range(9) for j in range(9)]
        sizes = [derive_seed(cell, "size", n) for cell in cells for n in (2000, 4000, 8000, 16000, 32000)]
        realizations = [derive_seed(sizes[0], r) for r in range(1, 5001)]
        phases = [derive_seed(seed, label) for seed in realizations[:100] for label in ("theta", "phi")]
        seeds = [master, *cells, *sizes, *realizations, *phases]
        assert len(seeds) == 5687 and len(set(seeds)) == len(seeds)

    def test_output_is_u64(self):
        s = derive_seed(2**64 - 1, "x", 3)
        assert 0 <= s < 2**64

    def test_rejects_bad_labels(self):
        with pytest.raises(InvalidParameterError):
            derive_seed(1, 2.5)
        with pytest.raises(InvalidParameterError):
            derive_seed(1, -3)
        with pytest.raises(InvalidParameterError):
            derive_seed(1, True)
