import numpy as np
import pytest

from corrwalk import (
    DegenerateSeriesError,
    InsufficientDataError,
    InvalidParameterError,
    classify_regime,
    dispersion,
    evolve,
    fit_gamma,
    fit_hurst,
    initial_state_symmetric,
    probability_profile,
)
from corrwalk.ensemble import run_realization
from corrwalk.noise import CoinPhases, generate_coin_phases
from corrwalk.observables import (
    TrajectoryStats,
    centred_sums,
    finish_moments,
    longtime_avg_dispersion,
    scaled_windows,
)

from _oracles import initial_state_generic


def make_stats(times, sigma, contact=None):
    times = np.asarray(times)
    return TrajectoryStats(
        mean_position=np.zeros(times.size),
        dispersion=np.asarray(sigma, float),
        boundary_contact_time=contact,
    )


class TestProbabilityProfile:
    def test_initial_delta(self):
        profile = probability_profile(initial_state_symmetric(40))
        assert profile[19] == pytest.approx(1.0, abs=1e-15)
        assert profile.sum() == pytest.approx(1.0, abs=1e-10)

    def test_one_hadamard_step_from_spin_up(self):
        N = 11
        state, _ = initial_state_generic(N, [(6, 1.0, 0.0)])
        hadamard = CoinPhases(theta=np.zeros(1), phi=np.zeros(N))
        profile = probability_profile(evolve(state, hadamard, 1))
        assert profile[4] == pytest.approx(0.5, abs=1e-15)  # site 5
        assert profile[6] == pytest.approx(0.5, abs=1e-15)  # site 7
        assert profile.sum() == pytest.approx(1.0, abs=1e-10)

    def test_non_negative_and_normalized(self):
        rng = np.random.default_rng(0)
        N = 25
        state, _ = initial_state_generic(
            N,
            [(s, complex(*rng.normal(size=2)), complex(*rng.normal(size=2))) for s in range(1, N + 1)],
        )
        profile = probability_profile(state)
        assert np.all(profile >= 0)
        assert profile.sum() == pytest.approx(1.0, abs=1e-10)


class TestDispersion:
    def test_delta_profile(self):
        p = np.zeros(9)
        p[4] = 1.0
        assert dispersion(p) == pytest.approx((5.0, 0.0))

    def test_two_equal_peaks(self):
        p = np.zeros(21)
        p[10 - 4] = 0.5  # site 7 = n0 - 4
        p[10 + 4] = 0.5  # site 15 = n0 + 4
        mean, sigma = dispersion(p)
        assert mean == pytest.approx(11.0)
        assert sigma == pytest.approx(4.0)

    def test_uniform_profile_closed_form(self):
        N = 101
        mean, sigma = dispersion(np.full(N, 1.0 / N))
        assert mean == pytest.approx((N + 1) / 2)
        assert sigma == pytest.approx(np.sqrt((N**2 - 1) / 12.0), rel=1e-12)

    def test_bounded_by_half_span(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            p = rng.random(50)
            p /= p.sum()
            _, sigma = dispersion(p)
            assert 0.0 <= sigma <= (p.size - 1) / 2

    @pytest.mark.parametrize("N", [64, 1000])
    def test_quick_start_matches_run_realization(self, N):
        T, alpha, beta, seed = N // 2, 0.0, 4.0, 7
        phases = generate_coin_phases(T, N, alpha, beta, seed)
        final = evolve(initial_state_symmetric(N), phases, T)
        mean, sigma = dispersion(probability_profile(final))
        stats = run_realization(N, T, alpha, beta, seed)
        assert sigma == pytest.approx(stats.dispersion[T], rel=1e-13, abs=0)
        assert mean == pytest.approx(stats.mean_position[T], rel=1e-13, abs=0)

    def test_rejects_unnormalized(self):
        with pytest.raises(InvalidParameterError):
            dispersion(np.full(10, 0.2))

    def test_rejects_negative(self):
        p = np.full(4, 0.5)
        p[0] = -0.5
        with pytest.raises(InvalidParameterError):
            dispersion(p)

    def test_rejects_nan(self):
        # A NaN sum passes the normalisation check, which compares it with 1.
        with pytest.raises(InvalidParameterError, match="non-finite"):
            dispersion([np.nan, 1.0])


class TestCentredMoments:
    N = 4000
    CENTRE = 2000.0

    def moments(self, p):
        offsets = np.arange(1.0, self.N + 1.0) - self.CENTRE
        mean, sigma = finish_moments(self.CENTRE, *centred_sums(np.atleast_2d(p)[None], offsets, offsets * offsets))
        return (mean[0], sigma[0]) if p.ndim == 1 else (mean, sigma)

    @pytest.mark.parametrize("ratio", [0, 1, 10, 100, 216, 500, 1000, -1000])
    def test_one_pass_error_bounded_under_drifting_mean(self, ratio):
        # A narrow profile (sigma about 1.9 sites) whose mean lies `ratio`
        # dispersions from the centre, against a two-pass longdouble sum.
        sites = np.arange(1.0, self.N + 1.0)
        peak = self.CENTRE + 1.9 * ratio + 0.3
        p = np.exp(-0.5 * ((sites - peak) / 1.9) ** 2)
        p /= p.sum()
        ps, ns = p.astype(np.longdouble), sites.astype(np.longdouble)
        mean_ref = np.sum(ns * ps)
        sigma_ref = np.sqrt(np.sum((ns - mean_ref) ** 2 * ps))
        assert abs(mean_ref - self.CENTRE) / sigma_ref == pytest.approx(abs(ratio), abs=0.2)
        mean, sigma = self.moments(p)
        assert abs(mean - mean_ref) <= 1e-12 * abs(mean_ref)
        assert abs(sigma - sigma_ref) <= 1e-9 * sigma_ref

    @pytest.mark.parametrize("mass", [1.0, 1.0 + 2.0**-52, 1.0 - 2.0**-53])
    def test_zero_variance_far_from_centre(self, mass):
        p = np.zeros(self.N)
        p[int(self.CENTRE) - 1 + 1000] = mass
        mean, sigma = self.moments(p)
        assert mean == pytest.approx(self.CENTRE + 1000, rel=1e-15)
        assert np.isfinite(sigma) and 0.0 <= sigma <= 1e-4

    def test_rows_of_a_batch_equal_rows_alone(self):
        rng = np.random.default_rng(5)
        p = rng.random((8, self.N))
        p /= p.sum(axis=1, keepdims=True)
        mean, sigma = self.moments(p)
        for b in range(8):
            assert (mean[b], sigma[b]) == self.moments(p[b].copy())


class TestFitHurst:
    def test_exact_linear_growth(self):
        t = np.arange(0, 201)
        stats = make_stats(t, 3.0 * t)
        H, err = fit_hurst(stats, window=(10, 200))
        assert H == pytest.approx(1.0, abs=1e-12)
        assert err == pytest.approx(0.0, abs=1e-12)

    def test_constant_series(self):
        t = np.arange(0, 101)
        stats = make_stats(t, np.full(t.size, 7.0))
        H, _ = fit_hurst(stats, window=(5, 100))
        assert H == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("exponent", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_recovers_power_laws(self, exponent):
        t = np.arange(0, 501)
        sigma = 2.7 * np.maximum(t, 1) ** exponent
        H, _ = fit_hurst(make_stats(t, sigma), window=(20, 500))
        assert H == pytest.approx(exponent, abs=1e-10)

    def test_prefactor_invariance(self):
        t = np.arange(0, 301)
        sigma = np.maximum(t, 1) ** 0.6
        H1, _ = fit_hurst(make_stats(t, sigma), window=(10, 300))
        H2, _ = fit_hurst(make_stats(t, 123.456 * sigma), window=(10, 300))
        assert H1 == pytest.approx(H2, abs=1e-12)

    def test_default_window_is_last_four_fifths(self):
        t = np.arange(0, 101)
        sigma = 1.0 * np.maximum(t, 1)
        sigma[:20] = 5.0  # garbage before t = T/5 must be excluded
        H, _ = fit_hurst(make_stats(t, sigma))
        assert H == pytest.approx(1.0, abs=1e-12)

    def test_default_window_respects_contact(self):
        t = np.arange(0, 101)
        sigma = 1.0 * np.maximum(t, 1)
        sigma[61:] = 1e6  # garbage after contact must be excluded
        H, _ = fit_hurst(make_stats(t, sigma, contact=60))
        assert H == pytest.approx(1.0, abs=1e-12)

    def test_explicit_window_past_contact_rejected(self):
        t = np.arange(0, 101)
        stats = make_stats(t, np.maximum(t, 1.0), contact=50)
        with pytest.raises(InvalidParameterError):
            fit_hurst(stats, window=(10, 80))

    def test_too_few_points(self):
        t = np.arange(0, 11)
        stats = make_stats(t, np.maximum(t, 1.0))
        with pytest.raises(InsufficientDataError):
            fit_hurst(stats, window=(7, 10))

    def test_explicit_window_past_last_step_rejected(self):
        t = np.arange(0, 101)
        stats = make_stats(t, 2.0 * np.maximum(t, 1) ** 0.7 * (1.0 + 0.05 * np.sin(t)))
        fit = fit_hurst(stats, window=(10, 100))
        assert (fit.H, fit.stderr) == pytest.approx((0.7013522636161793, 0.0062655317826876816), rel=1e-12)
        with pytest.raises(InvalidParameterError, match="last step, t=100") as refused:
            fit_hurst(stats, window=(10, 101))
        assert refused.value.window == (10, 101)
        with pytest.raises(InvalidParameterError, match="last step, t=32"):
            fit_hurst(run_realization(64, 32, 4.0, 4.0, 5), (5, 10000))
        # A window that ends before step 1 holds no step.
        with pytest.raises(InsufficientDataError, match="contains 0 points"):
            fit_hurst(stats, window=(10, -5))

    def test_zero_sigma_in_window(self):
        t = np.arange(0, 51)
        sigma = np.maximum(t, 1.0)
        sigma[30] = 0.0
        with pytest.raises(DegenerateSeriesError):
            fit_hurst(make_stats(t, sigma), window=(10, 50))

    def test_unrecorded_steps_in_window(self):
        # Mean and sigma are NaN before record_from; the default window
        # (6, 32) starts before step 20.
        stats = run_realization(64, 32, 4.0, 4.0, 5, record_from=20)
        with pytest.raises(DegenerateSeriesError, match="NaN") as refused:
            fit_hurst(stats)
        assert refused.value.window == (6, 32)
        assert fit_hurst(stats, (20, 32)).window == (20, 32)


class TestLongtimeAvgDispersion:
    def test_constant(self):
        stats = make_stats(np.arange(0, 150), np.full(150, 5.0))
        assert longtime_avg_dispersion(stats) == pytest.approx(5.0)

    def test_linear_series(self):
        t = np.arange(0, 201)
        stats = make_stats(t, t.astype(float))
        assert longtime_avg_dispersion(stats, 100) == pytest.approx(150.5)

    def test_short_trajectory_rejected(self):
        stats = make_stats(np.arange(0, 50), np.ones(50))
        with pytest.raises(InsufficientDataError):
            longtime_avg_dispersion(stats, 100)

    def test_unrecorded_steps_in_window(self):
        # Steps 0..19 are NaN: a window of the final 20 steps (13..32) holds
        # 7 of them, and the final 13 steps hold none.
        stats = run_realization(64, 32, 0.0, 0.0, 5, record_from=20)
        with pytest.raises(DegenerateSeriesError, match="NaN"):
            longtime_avg_dispersion(stats, 20)
        assert longtime_avg_dispersion(stats, 13) == pytest.approx(np.mean(stats.dispersion[20:]))

    @pytest.mark.parametrize("window_len", [0, True, 2.5])
    def test_window_not_a_positive_integer_rejected(self, window_len):
        stats = make_stats(np.arange(0, 50), np.ones(50))
        with pytest.raises(InvalidParameterError, match="window_len"):
            longtime_avg_dispersion(stats, window_len)


class TestScaledWindows:
    def test_proportional_to_horizon(self):
        assert scaled_windows(100, [250, 500, 1000, 2000]) == [100, 200, 400, 800]

    def test_shared_horizon_unchanged(self):
        assert scaled_windows(100, [500, 500, 500]) == [100, 100, 100]

    def test_smallest_horizon_keeps_window_in_any_order(self):
        assert scaled_windows(8, [64, 16, 32]) == [32, 8, 16]

    def test_capped_at_recorded_entries(self):
        # The smallest run averages all 11 entries; the longer one cannot
        # average more than its own 21.
        assert scaled_windows(11, [10, 20]) == [11, 21]

    def test_rejects_window_longer_than_shortest_run(self):
        assert scaled_windows(9, [8, 16]) == [9, 17]
        with pytest.raises(InvalidParameterError, match="10 steps exceeds the 9 entries"):
            scaled_windows(10, [16, 8, 32])

    def test_rejects_bad_arguments(self):
        with pytest.raises(InvalidParameterError):
            scaled_windows(0, [10, 20])
        with pytest.raises(InvalidParameterError):
            scaled_windows(5, [])
        with pytest.raises(InvalidParameterError):
            scaled_windows(5, [0, 20])
        # Bools and fractions are not windows or horizons.
        for window_len, horizons in ((True, [10, 20]), (2.5, [10, 20]), (5, [10.5, 20])):
            with pytest.raises(InvalidParameterError):
                scaled_windows(window_len, horizons)

    @pytest.mark.parametrize("H", [1.0, 0.5])
    def test_ideal_power_law_gamma_unbiased(self, H):
        # sigma(t) = t**H exactly, at the T = N // 2 size-scan protocol.
        # The long-time averages must scale as N**H; a fixed 100-step
        # window fits 1.0924 (H = 1) and 0.5474 (H = 0.5) instead.
        sizes = (500, 1000, 2000, 4000)
        horizons = [n // 2 for n in sizes]
        points = []
        for n, T, w in zip(sizes, horizons, scaled_windows(100, horizons)):
            t = np.arange(T + 1)
            points.append((n, longtime_avg_dispersion(make_stats(t, t**H), w)))
        gamma, _ = fit_gamma(points)
        assert abs(gamma - H) <= 2e-3


class TestFitGamma:
    def test_square_root_scaling(self):
        pts = [(n, np.sqrt(n)) for n in (1000, 2000, 4000)]
        gamma, err = fit_gamma(pts)
        assert gamma == pytest.approx(0.5, abs=1e-12)
        assert err == pytest.approx(0.0, abs=1e-12)

    def test_linear_scaling(self):
        pts = [(n, 0.3 * n) for n in (500, 1000, 2000, 4000)]
        gamma, _ = fit_gamma(pts)
        assert gamma == pytest.approx(1.0, abs=1e-12)

    def test_prefactor_invariance(self):
        pts = [(n, n**0.7) for n in (100, 300, 900)]
        scaled = [(n, 55.0 * s) for n, s in pts]
        assert fit_gamma(pts)[0] == pytest.approx(fit_gamma(scaled)[0], abs=1e-12)

    def test_too_few_points(self):
        with pytest.raises(InsufficientDataError):
            fit_gamma([(1000, 30.0), (2000, 42.0)])

    def test_rejects_non_positive(self):
        with pytest.raises(InvalidParameterError):
            fit_gamma([(1000, 30.0), (2000, 0.0), (4000, 60.0)])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(InvalidParameterError, match="finite"):
            fit_gamma([(1000, 30.0), (2000, bad), (4000, 60.0)])


class TestClassifyRegime:
    @pytest.mark.parametrize(
        "gamma,expected",
        [
            (0.05, "localized"),
            (-0.02, "localized"),
            # Each band edge belongs to the band above it.
            (np.nextafter(0.10, 0.0), "localized"),
            (0.10, "subdiffusive"),
            (0.25, "subdiffusive"),
            (np.nextafter(0.40, 0.0), "subdiffusive"),
            (0.40, "diffusive"),
            (0.5, "diffusive"),
            (np.nextafter(0.60, 0.0), "diffusive"),
            (0.60, "superdiffusive"),
            (0.75, "superdiffusive"),
            (np.nextafter(0.90, 0.0), "superdiffusive"),
            (0.90, "ballistic"),
            (1.0, "ballistic"),
            (1.7, "ballistic"),
        ],
    )
    def test_thresholds(self, gamma, expected):
        assert classify_regime(gamma) == expected

    def test_rejects_non_finite(self):
        for gamma in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(InvalidParameterError, match="finite"):
                classify_regime(gamma)


class TestTrajectoryStats:
    def test_length_mismatch_rejected(self):
        # Mean and dispersion must share one shape: (T + 1,) or (B, T + 1).
        for mean_shape, dispersion_shape in (((5,), (4,)), ((2, 5), (5,)), ((2, 5), (3, 5))):
            with pytest.raises(InvalidParameterError, match="share one shape"):
                TrajectoryStats(mean_position=np.zeros(mean_shape), dispersion=np.zeros(dispersion_shape))

    @pytest.mark.parametrize("shape", [(), (0,), (2, 0), (2, 2, 5)])
    def test_not_one_or_a_batch_of_trajectories_rejected(self, shape):
        with pytest.raises(InvalidParameterError, match="T >= 0"):
            TrajectoryStats(mean_position=np.zeros(shape), dispersion=np.zeros(shape))

    @pytest.mark.parametrize(
        "read", [fit_hurst, lambda stats: longtime_avg_dispersion(stats, 5)], ids=["fit_hurst", "longtime_avg"]
    )
    def test_one_trajectory_readers_refuse_a_batch(self, read):
        batch = run_realization(64, 32, 4.0, 4.0, [1, 2, 3])
        with pytest.raises(InvalidParameterError, match=r"batch of shape \(3, 33\)"):
            read(batch)

    def test_negative_dispersion_rejected(self):
        with pytest.raises(InvalidParameterError):
            TrajectoryStats(
                mean_position=np.zeros(3),
                dispersion=np.array([0.0, -1.0, 2.0]),
            )
