"""Acceptance suite at desk scale (N <= 4000, R = 200).

Every test prints one pass/fail line with the measured values before
asserting, so the full report is visible with ``pytest -s``.  The heavy
disorder-averaged ensembles are cached per protocol within the session.
"""

import functools

import numpy as np
import pytest

from _oracles import as_vector, dense_step_unitary, norm, periodogram_slope, windowed_peaks
from corrwalk import (
    EnsembleConfig,
    evolve,
    fit_gamma,
    fit_hurst,
    generate_coin_phases,
    initial_state_symmetric,
    run_ensemble,
    size_scan,
)
from corrwalk.io import write_trajectory_csv
from corrwalk.noise import CoinPhases, derive_seed, generate_fbm_trace, squash_to_phase
from corrwalk.observables import longtime_avg_dispersion

ACCEPT_SEED = 20260810
GAMMA_SIZES = (500, 1000, 2000, 4000)
REALIZATIONS = 200


def report(criterion, description, passed, detail):
    print(f"\n[{'PASS' if passed else 'FAIL'}] acceptance {criterion}: {description} | {detail}")
    return passed


@functools.lru_cache(maxsize=None)
def dispersion_run(alpha, beta, N, T, realizations=REALIZATIONS):
    """Ensemble run used by the long-horizon dispersion criteria."""
    config = EnsembleConfig(
        N=N,
        T=T,
        alpha_t=alpha,
        beta_s=beta,
        realizations=realizations,
        master_seed=derive_seed(ACCEPT_SEED, "run", int(alpha * 2), int(beta * 2), N),
    )
    return run_ensemble(config)


@functools.lru_cache(maxsize=None)
def gamma_cell(alpha, beta):
    """Size scan and exponent fit for one parameter cell."""
    base = EnsembleConfig(
        N=GAMMA_SIZES[0],
        T=GAMMA_SIZES[0] // 2,
        alpha_t=alpha,
        beta_s=beta,
        realizations=REALIZATIONS,
        master_seed=derive_seed(ACCEPT_SEED, "gamma", int(alpha * 2), int(beta * 2)),
    )
    points = size_scan(base, GAMMA_SIZES)
    gamma, stderr = fit_gamma(points)
    return gamma, stderr, points


def test_criterion_01_unitarity():
    # Long run: 1e4 steps at N = 2000 with correlated random phases.
    N, T = 2000, 10_000
    phases = generate_coin_phases(T, N, 1.5, 1.5, seed=derive_seed(ACCEPT_SEED, "unitarity"))
    drift = []
    evolve(
        initial_state_symmetric(N),
        phases,
        T,
        observer=lambda t, s: drift.append(abs(norm(s) - 1.0)),
    )
    max_drift = max(drift)

    # Dense-matrix oracle equivalence at N <= 32, T <= 16.
    rng = np.random.default_rng(derive_seed(ACCEPT_SEED, "oracle"))
    max_dev = 0.0
    for _ in range(20):
        N_small = int(rng.integers(4, 33))
        T_small = int(rng.integers(1, 17))
        theta = rng.uniform(0, 2 * np.pi, T_small)
        phi = rng.uniform(0, 2 * np.pi, N_small)
        vec = as_vector(initial_state_symmetric(N_small))
        for t in range(T_small):
            vec = dense_step_unitary(theta[t], phi) @ vec
        out = evolve(
            initial_state_symmetric(N_small),
            CoinPhases(theta=theta, phi=phi),
            T_small,
        )
        max_dev = max(max_dev, float(np.abs(as_vector(out) - vec).max()))

    ok = max_drift < 1e-9 and max_dev < 1e-10
    assert report(
        "01",
        "unitarity suite",
        ok,
        f"max |norm-1| = {max_drift:.2e} (tol 1e-9), oracle deviation = {max_dev:.2e} (tol 1e-10)",
    )


def test_criterion_02_homogeneous_ballistic():
    N, T = 2000, 1000
    phases = CoinPhases(theta=np.zeros(T), phi=np.zeros(N))
    sites = np.arange(1.0, N + 1)
    sigma = np.zeros(T + 1)

    def observer(t, state):
        p = np.abs(state.up) ** 2 + np.abs(state.down) ** 2
        m = np.dot(sites, p)
        sigma[t] = np.sqrt(np.dot((sites - m) ** 2, p))

    evolve(initial_state_symmetric(N), phases, T, observer=observer)
    from corrwalk.observables import TrajectoryStats

    stats = TrajectoryStats(mean_position=np.zeros(T + 1), dispersion=sigma)
    H, _ = fit_hurst(stats)  # default window [T/5, T]
    ok = abs(H - 1.0) < 0.05
    assert report("02", "homogeneous ballistic dispersion", ok, f"H = {H:.4f} (tol 1.00+/-0.05)")


def test_criterion_03_uncorrelated_diffusive():
    values = {}
    for N in (1000, 2000):
        result = dispersion_run(0.0, 0.0, N, 5 * N)
        values[N], _ = fit_hurst(result.stats)  # default window
    ok = all(abs(H - 0.5) <= 0.10 for H in values.values())
    detail = ", ".join(f"H(N={n}) = {h:.4f}" for n, h in values.items())
    assert report("03", "uncorrelated phases give diffusion", ok, detail + " (tol 0.50+/-0.10)")


def test_criterion_04_temporal_correlation_localizes():
    slopes = {}
    saturation = {}
    for N in (1000, 2000):
        result = dispersion_run(4.0, 0.0, N, 5 * N)
        slopes[N], _ = fit_hurst(result.stats)
        sigma = result.stats.dispersion
        last = float(np.mean(sigma[-100:]))
        prev = float(np.mean(sigma[-200:-100]))
        saturation[N] = abs(last - prev) / prev
    ok = all(h < 0.15 for h in slopes.values()) and all(s < 0.05 for s in saturation.values())
    detail = ", ".join(
        f"H(N={n}) = {slopes[n]:.4f}, window change = {saturation[n] * 100:.2f}%" for n in slopes
    )
    assert report("04", "localization with saturated dispersion", ok, detail + " (tol H<0.15, <5%)")


def test_criterion_05_spatial_correlation_stays_diffusive():
    values = {}
    for N in (1000, 2000):
        result = dispersion_run(0.0, 4.0, N, 5 * N)
        values[N], _ = fit_hurst(result.stats)
    ok = all(abs(H - 0.5) <= 0.10 for H in values.values())
    detail = ", ".join(f"H(N={n}) = {h:.4f}" for n, h in values.items())
    assert report("05", "spatial correlation alone stays diffusive", ok, detail + " (tol 0.50+/-0.10)")


def test_criterion_06_double_correlation_ballistic():
    values = {}
    for N in (1000, 2000):
        result = dispersion_run(4.0, 4.0, N, 5 * N)
        stats = result.stats
        contact = stats.boundary_contact_time
        t_eff = N // 2 if contact is None else min(N // 2, int(contact))
        values[N], _ = fit_hurst(stats, window=(max(10, t_eff // 5), t_eff))
    ok = all(abs(H - 1.0) <= 0.07 for H in values.values())
    detail = ", ".join(f"H(N={n}) = {h:.4f}" for n, h in values.items())
    assert report("06", "double correlation gives ballistic spread", ok, detail + " (tol 1.00+/-0.07)")


def test_criterion_07_gamma_scaling():
    cells = {
        (0.0, 0.0): ("0.5+/-0.1", lambda g: abs(g - 0.5) <= 0.1),
        (0.0, 2.0): ("0.5+/-0.1", lambda g: abs(g - 0.5) <= 0.1),
        (0.0, 4.0): ("0.5+/-0.1", lambda g: abs(g - 0.5) <= 0.1),
        (4.0, 0.0): ("<0.15", lambda g: g < 0.15),
        (4.0, 4.0): ("1.0+/-0.1", lambda g: abs(g - 1.0) <= 0.1),
        (2.0, 0.0): ("0.1..0.5", lambda g: 0.1 < g < 0.5),
    }
    measured = {}
    verdicts = {}
    for (alpha, beta), (tol, check) in cells.items():
        gamma, _, _ = gamma_cell(alpha, beta)
        measured[(alpha, beta)] = gamma
        verdicts[(alpha, beta)] = check(gamma)
    ok = all(verdicts.values())
    detail = "; ".join(
        f"gamma({a:g},{b:g}) = {measured[(a, b)]:.4f} "
        f"[{'ok' if verdicts[(a, b)] else 'OUT'} {cells[(a, b)][0]}]"
        for (a, b) in cells
    )
    assert report("07", "size-scaling exponents", ok, detail)


def test_criterion_08_two_peak_profile():
    N, T = 1000, 500
    config = EnsembleConfig(
        N=N,
        T=T,
        alpha_t=4.0,
        beta_s=4.0,
        realizations=REALIZATIONS,
        master_seed=derive_seed(ACCEPT_SEED, "peaks"),
        snapshot_times=(T,),
    )
    profile = run_ensemble(config).stats.snapshots[T]
    center = N // 2
    # Amplitude only reaches sites with (n - n0 + t) even; detect peaks on
    # that occupied sublattice (the complementary sites are exactly zero).
    sites = np.arange(1, N + 1)
    occupied = ((sites - center + T) % 2) == 0
    values = profile[occupied]
    positions = sites[occupied]
    peaks = windowed_peaks(values, threshold=3.0 * float(np.median(values)), half_width=25)
    peak_sites = positions[peaks]
    if len(peak_sites) == 2:
        midpoint_offset = abs(float(np.mean(peak_sites)) - center)
    else:
        midpoint_offset = float("nan")
    ok = len(peak_sites) == 2 and midpoint_offset <= 5.0
    assert report(
        "08",
        "two-peak delocalized profile",
        ok,
        f"peaks at {[int(s) for s in peak_sites]}, midpoint offset = {midpoint_offset:.1f} "
        "(tol: 2 peaks, <=5 sites)",
    )


def test_criterion_09_spectral_fidelity():
    deviations = {}
    in_range = True
    for nu in (0.5, 1.0, 2.0, 3.0):
        slopes = []
        for s in range(50):
            trace = generate_fbm_trace(4096, nu, derive_seed(ACCEPT_SEED, "spec", s))
            slopes.append(periodogram_slope(trace))
            squashed = squash_to_phase(trace)
            in_range = in_range and bool(
                np.all(squashed >= 0.0) and np.all(squashed < 2 * np.pi)
            )
        deviations[nu] = abs(float(np.mean(slopes)) + nu)
    ok = all(d < 0.3 for d in deviations.values()) and in_range
    detail = ", ".join(f"|slope+{nu}| = {d:.3f}" for nu, d in deviations.items())
    assert report(
        "09",
        "noise spectral fidelity",
        ok,
        detail + f" (tol 0.3); squashed in range: {in_range}",
    )


def test_sweep_corner_regimes():
    """Companion check: the measured exponents classify the corner cells
    of the parameter plane correctly (reuses the criterion-7 scans)."""
    from corrwalk.observables import classify_regime

    expected = {
        (0.0, 0.0): "diffusive",
        (4.0, 0.0): "localized",
        (4.0, 4.0): "ballistic",
    }
    for (alpha, beta), label in expected.items():
        gamma, _, _ = gamma_cell(alpha, beta)
        assert classify_regime(gamma) == label, (alpha, beta, gamma)


def test_criterion_10_schedule_independence(tmp_path):
    N = 1000
    serial = dispersion_run(0.0, 0.0, N, 5 * N)  # cached criterion-3 ensemble
    files = {}
    write_trajectory_csv(tmp_path / "sigma_w1.csv", serial.stats)
    files[1] = (tmp_path / "sigma_w1.csv").read_bytes()
    for workers in (4, 8):
        result = run_ensemble(serial.config, workers=workers)
        path = tmp_path / f"sigma_w{workers}.csv"
        write_trajectory_csv(path, result.stats)
        files[workers] = path.read_bytes()
    ok = files[1] == files[4] == files[8]
    assert report(
        "10",
        "worker-count independence",
        ok,
        f"byte-identical trajectory CSVs for workers 1/4/8: {ok}",
    )
