import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrwalk import (
    CorrelationSpec,
    InvalidParameterError,
    PhaseSequence,
    derive_seed,
    generate_coin_phases,
    generate_fbm_trace,
    squash_to_phase,
)

from _oracles import direct_fbm_trace, periodogram_slope

TWO_PI = 2.0 * np.pi


class TestCorrelationSpec:
    def test_rejects_odd_length(self):
        with pytest.raises(InvalidParameterError):
            CorrelationSpec(nu=1.0, length=101, seed=1)

    def test_rejects_zero_length(self):
        with pytest.raises(InvalidParameterError):
            CorrelationSpec(nu=1.0, length=0, seed=1)

    def test_rejects_negative_nu(self):
        with pytest.raises(InvalidParameterError):
            CorrelationSpec(nu=-0.5, length=100, seed=1)

    def test_rejects_out_of_range_seed(self):
        with pytest.raises(InvalidParameterError):
            CorrelationSpec(nu=0.0, length=100, seed=2**64)
        with pytest.raises(InvalidParameterError):
            CorrelationSpec(nu=0.0, length=100, seed=-1)


class TestFbmTrace:
    def test_two_point_trace_closed_form(self):
        # Single-mode sum: value at j is sqrt(pi) * cos(pi*j + mu_1).
        spec = CorrelationSpec(nu=0.0, length=2, seed=99)
        mu1 = np.random.default_rng(99).uniform(0.0, TWO_PI, 1)[0]
        expected = np.sqrt(np.pi) * np.cos(np.pi * np.arange(1, 3) + mu1)
        np.testing.assert_allclose(generate_fbm_trace(spec), expected, atol=1e-12)

    def test_sample_mean_near_zero_over_seeds(self):
        # Expected value frozen from the mode-sum structure: every mode has
        # zero mean over a full period, so the per-trace sample mean is ~0.
        means = [
            generate_fbm_trace(CorrelationSpec(nu=0.0, length=1000, seed=s)).mean()
            for s in range(100)
        ]
        assert abs(np.mean(means)) < 0.2
        assert max(abs(m) for m in means) < 0.2

    @pytest.mark.parametrize("nu", [0.5, 1.0, 2.0, 3.0])
    def test_periodogram_slope_matches_exponent(self, nu):
        slopes = [
            periodogram_slope(generate_fbm_trace(CorrelationSpec(nu=nu, length=4096, seed=s)))
            for s in range(50)
        ]
        assert abs(np.mean(slopes) + nu) < 0.3

    def test_lag1_autocorrelation_uncorrelated(self):
        acs = []
        for s in range(100):
            v = generate_fbm_trace(CorrelationSpec(nu=0.0, length=1000, seed=s))
            v = v - v.mean()
            acs.append(np.dot(v[:-1], v[1:]) / np.dot(v, v))
        assert abs(np.mean(acs)) < 0.1

    def test_deterministic_for_fixed_seed(self):
        spec = CorrelationSpec(nu=1.5, length=512, seed=777)
        np.testing.assert_array_equal(generate_fbm_trace(spec), generate_fbm_trace(spec))

    @pytest.mark.parametrize("nu", [0.0, 0.5, 2.0, 4.0])
    @pytest.mark.parametrize("length", [2, 64, 1024])
    def test_fft_matches_direct_reference(self, nu, length):
        spec = CorrelationSpec(nu=nu, length=length, seed=31337)
        np.testing.assert_allclose(generate_fbm_trace(spec), direct_fbm_trace(spec), atol=1e-10)

    def test_normalize_flag_rescales(self):
        spec = CorrelationSpec(nu=2.0, length=1024, seed=5)
        trace = generate_fbm_trace(spec, normalize=True)
        assert abs(trace.mean()) < 1e-12
        assert abs(trace.std() - 1.0) < 1e-12


class TestSquashToPhase:
    def test_zero_maps_to_pi(self):
        seq = squash_to_phase(np.zeros(5))
        np.testing.assert_allclose(seq.values, np.pi, atol=1e-15)

    def test_saturation_limits_stay_half_open(self):
        seq = squash_to_phase(np.array([-1e6, 1e6]))
        assert 0.0 < seq.values[0] < 1e-6 or seq.values[0] == 0.0
        assert seq.values[0] >= 0.0
        assert seq.values[1] < TWO_PI

    def test_known_value(self):
        x = np.arctanh(0.5)
        seq = squash_to_phase(np.array([x]))
        np.testing.assert_allclose(seq.values[0], 1.5 * np.pi, rtol=1e-12)

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
        assert seq.values[0] < seq.values[1]

    @given(st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=64))
    @settings(max_examples=200, deadline=None)
    def test_output_always_in_range(self, xs):
        seq = squash_to_phase(np.array(xs))
        assert np.all(seq.values >= 0.0)
        assert np.all(seq.values < TWO_PI)


class TestPhaseSequence:
    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidParameterError):
            PhaseSequence(np.array([0.0, TWO_PI]))
        with pytest.raises(InvalidParameterError):
            PhaseSequence(np.array([-0.1]))

    def test_values_read_only(self):
        seq = PhaseSequence(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            seq.values[0] = 0.5


class TestCoinPhases:
    def test_lengths(self):
        phases = generate_coin_phases(50, 40, 1.0, 2.0, seed=3)
        assert len(phases.theta) == 50
        assert len(phases.phi) == 40

    def test_deterministic(self):
        a = generate_coin_phases(64, 32, 0.5, 0.5, seed=11)
        b = generate_coin_phases(64, 32, 0.5, 0.5, seed=11)
        np.testing.assert_array_equal(a.theta.values, b.theta.values)
        np.testing.assert_array_equal(a.phi.values, b.phi.values)

    def test_theta_phi_streams_independent(self):
        phases = generate_coin_phases(64, 64, 0.0, 0.0, seed=21)
        assert not np.array_equal(phases.theta.values, phases.phi.values)

    def test_odd_lengths_truncate_even_generation(self):
        odd = generate_coin_phases(63, 31, 1.0, 1.0, seed=8)
        even = generate_coin_phases(64, 32, 1.0, 1.0, seed=8)
        np.testing.assert_array_equal(odd.theta.values, even.theta.values[:63])
        np.testing.assert_array_equal(odd.phi.values, even.phi.values[:31])

    def test_uncorrelated_values_fill_range(self):
        phases = generate_coin_phases(1000, 1000, 0.0, 0.0, seed=4)
        for values in (phases.theta.values, phases.phi.values):
            counts, _ = np.histogram(values, bins=8, range=(0.0, TWO_PI))
            assert np.all(counts > 0)

    def test_correlated_theta_keeps_spectral_slope(self):
        # The squash preserves the asymptotic power law; check the raw trace.
        seed = derive_seed(12, "theta")
        trace = generate_fbm_trace(CorrelationSpec(nu=2.0, length=4096, seed=seed))
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

    def test_output_is_u64(self):
        s = derive_seed(2**64 - 1, "x", 3)
        assert 0 <= s < 2**64

    def test_rejects_bad_labels(self):
        with pytest.raises(InvalidParameterError):
            derive_seed(1, 2.5)
        with pytest.raises(InvalidParameterError):
            derive_seed(1, -3)
