import json
import multiprocessing
import tracemalloc

import numpy as np
import pytest

from corrwalk import EnsembleConfig, InvalidParameterError, ResourceLimitError, run_ensemble, size_scan
from corrwalk import ensemble
from corrwalk import io as cwio
from corrwalk.ensemble import UPDATE_CAP, _batch_size, _load_cell, phase_diagram_sweep, run_realization, size_configs
from corrwalk.noise import derive_seed, generate_coin_phases
from corrwalk.observables import REGIMES, longtime_avg_dispersion
from corrwalk.walk import initial_state_symmetric

from _oracles import whole_lattice_step


def small_config(**overrides):
    base = dict(
        N=64,
        T=32,
        alpha_t=0.0,
        beta_s=0.0,
        realizations=4,
        master_seed=123,
    )
    base.update(overrides)
    return EnsembleConfig(**base)


class TestConfigValidation:
    def test_rejects_bad_dimensions(self):
        with pytest.raises(InvalidParameterError):
            small_config(N=1)
        with pytest.raises(InvalidParameterError):
            small_config(T=0)
        with pytest.raises(InvalidParameterError):
            small_config(realizations=0)

    @pytest.mark.parametrize("realizations", [2.5, "3", None, True])
    def test_rejects_non_integer_realizations(self, realizations):
        with pytest.raises(InvalidParameterError, match="realizations"):
            small_config(realizations=realizations)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("alpha_t", True),
            ("alpha_t", "0.5"),
            ("beta_s", False),
            ("beta_s", None),
            ("snapshot_times", (2.7,)),
            ("snapshot_times", (True,)),
        ],
    )
    def test_rejects_mistyped_field(self, field, value):
        with pytest.raises(InvalidParameterError, match=field):
            small_config(**{field: value})

    def test_rejects_bad_exponents(self):
        with pytest.raises(InvalidParameterError):
            small_config(alpha_t=-1.0)
        with pytest.raises(InvalidParameterError):
            small_config(beta_s=float("nan"))

    def test_stores_plain_int_and_float_fields(self, tmp_path):
        config = EnsembleConfig(N=np.int64(16), T=np.int32(8), alpha_t=np.float32(0.5), beta_s=np.int64(0),
                                realizations=np.int64(2), master_seed=np.uint64(7))
        for name, kind in [("N", int), ("T", int), ("alpha_t", float), ("beta_s", float),
                           ("realizations", int), ("master_seed", int)]:
            assert type(getattr(config, name)) is kind, name
        cells = phase_diagram_sweep([np.float32(0.5)], [np.int64(0)], (16, 32, 64), realizations=np.int64(2),
                                    master_seed=np.uint64(7), window_len=4, out_dir=tmp_path)
        assert cells == [json.loads((tmp_path / "cells" / "cell_000_000.json").read_text())]

    @pytest.mark.parametrize(
        "call, arguments, message",
        [
            (EnsembleConfig, dict(N=16, T=8, alpha_t=0.0, beta_s=0.0, snapshot_times=5), "snapshot_times"),
            (EnsembleConfig, dict(N=16, T=8, alpha_t=0.0, beta_s=0.0, snapshot_times=None), "snapshot_times"),
            (size_scan, dict(base=EnsembleConfig(N=16, T=8, alpha_t=0.0, beta_s=0.0), sizes=5), "lattice sizes"),
            (phase_diagram_sweep, dict(grid_alpha=0.0, grid_beta=[0.0], sizes=(16, 32, 64), realizations=2,
                                       master_seed=0), "alpha_t grid"),
            (run_realization, dict(N=16, T=8, alpha_t=0.0, beta_s=0.0, seed=np.array(5)), "seed must be an integer"),
        ],
    )
    def test_argument_that_is_no_sequence_refused(self, call, arguments, message):
        with pytest.raises(InvalidParameterError, match=message):
            call(**arguments)

    def test_rejects_exponent_whose_trace_overflows(self):
        with pytest.raises(InvalidParameterError, match="alpha_t = 150.0.*length 4000"):
            EnsembleConfig(N=64, T=4000, alpha_t=150.0, beta_s=0.0, realizations=2)
        with pytest.raises(InvalidParameterError, match="beta_s = 400.0.*length 64"):
            small_config(beta_s=400.0)
        # The longest paper traces: N = 32000 at T = N/2, and T = 5N at N = 8000.
        EnsembleConfig(N=32_000, T=16_000, alpha_t=4.0, beta_s=4.0)
        EnsembleConfig(N=8000, T=40_000, alpha_t=4.0, beta_s=4.0)

    def test_rejects_snapshot_outside_run(self):
        with pytest.raises(InvalidParameterError):
            small_config(snapshot_times=(40,))

    @pytest.mark.parametrize(
        "argument, value",
        [
            ("seed", []),
            ("seed", "abc"),
            ("seed", 3.5),
            ("seed", [1, -1]),
            ("T", "abc"),
            ("T", 8.0),
            ("N", "16"),
            ("alpha_t", -1.0),
            ("beta_s", 400.0),
            ("snapshot_times", (9,)),
            ("snapshot_times", (-1, 3)),
        ],
    )
    def test_run_realization_refuses_a_bad_argument_before_synthesis(self, monkeypatch, argument, value):
        calls = []
        monkeypatch.setattr(ensemble, "generate_coin_phases", lambda *args, **kwargs: calls.append(args))
        arguments = dict(N=64, T=8, alpha_t=0.0, beta_s=0.0, seed=1)
        arguments[argument] = value
        with pytest.raises(InvalidParameterError, match=rf"^{argument}\b"):
            run_realization(**arguments)
        assert not calls


class TestRunEnsemble:
    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("R", [1, 7])
    def test_single_realization_matches_direct_run(self, R, workers):
        # R = 7 runs in uneven batches (4 + 3 serial, 2 + 2 + 2 + 1 on three
        # workers), and T > N/2 takes the walkers to the chain ends.
        config = small_config(N=32, T=24, alpha_t=4.0, beta_s=4.0, realizations=R, snapshot_times=(12, 24))
        result = run_ensemble(config, workers=workers)
        sigma, mean = np.zeros(config.T + 1), np.zeros(config.T + 1)
        snapshots = {t: np.zeros(config.N) for t in config.snapshot_times}
        contacts = []
        for r in range(1, R + 1):
            direct = run_realization(
                config.N,
                config.T,
                config.alpha_t,
                config.beta_s,
                derive_seed(config.master_seed, r),
                snapshot_times=config.snapshot_times,
            )
            sigma += direct.dispersion
            mean += direct.mean_position
            for t in config.snapshot_times:
                snapshots[t] += direct.snapshots[t]
            if direct.boundary_contact_time is not None:
                contacts.append(direct.boundary_contact_time)
        np.testing.assert_array_equal(result.stats.dispersion, sigma / R)
        np.testing.assert_array_equal(result.stats.mean_position, mean / R)
        for t in config.snapshot_times:
            np.testing.assert_array_equal(result.stats.snapshots[t], snapshots[t] / R)
        assert contacts
        assert result.contacted_realizations == len(contacts)
        assert result.stats.boundary_contact_time == min(contacts)

    def test_schedule_independence(self):
        config = small_config(realizations=6, snapshot_times=(8,))
        serial = run_ensemble(config, workers=1)
        pooled2 = run_ensemble(config, workers=2)
        pooled3 = run_ensemble(config, workers=3)
        for other in (pooled2, pooled3):
            np.testing.assert_array_equal(serial.stats.dispersion, other.stats.dispersion)
            np.testing.assert_array_equal(serial.stats.mean_position, other.stats.mean_position)
            np.testing.assert_array_equal(serial.stats.snapshots[8], other.stats.snapshots[8])
            assert serial.stats.boundary_contact_time == other.stats.boundary_contact_time

    def test_averaged_snapshots_normalized(self):
        config = small_config(realizations=5, snapshot_times=(0, 16, 32))
        result = run_ensemble(config)
        for profile in result.stats.snapshots.values():
            assert profile.sum() == pytest.approx(1.0, abs=1e-8)
            assert np.all(profile >= 0)

    def test_dispersion_non_negative(self):
        result = run_ensemble(small_config(realizations=3))
        assert np.all(result.stats.dispersion >= 0)

    def test_seed_disjointness(self):
        config = small_config(realizations=64)
        seeds = [derive_seed(config.master_seed, r) for r in range(1, config.realizations + 1)]
        assert len(set(seeds)) == len(seeds)

    @pytest.mark.parametrize("workers", [0, -2, True, 1.5, "2"])
    def test_bad_worker_count_rejected(self, workers, tmp_path):
        with pytest.raises(InvalidParameterError, match="workers"):
            run_ensemble(small_config(), workers=workers)
        with pytest.raises(InvalidParameterError, match="workers"):
            size_scan(small_config(), sizes=(16, 32, 64), window_len=4, workers=workers)
        with pytest.raises(InvalidParameterError, match="workers"):
            phase_diagram_sweep([0.0], [0.0], (16, 32, 64), realizations=4, master_seed=123, window_len=4,
                                workers=workers, out_dir=tmp_path)
        assert not list(tmp_path.iterdir())
        # A sweep whose every cell file exists has no job to run, and still refuses.
        phase_diagram_sweep([0.0], [0.0], (16, 32, 64), realizations=4, master_seed=123, window_len=4, out_dir=tmp_path)
        cell = tmp_path / "cells" / "cell_000_000.json"
        written = cell.read_bytes()
        with pytest.raises(InvalidParameterError, match="workers"):
            phase_diagram_sweep([0.0], [0.0], (16, 32, 64), realizations=4, master_seed=123, window_len=4,
                                workers=workers, out_dir=tmp_path)
        assert sorted(p.name for p in tmp_path.rglob("*")) == [cell.name, "cells"]
        assert cell.read_bytes() == written

    def test_resource_cap_refusal(self):
        small_config(N=64, T=UPDATE_CAP // 64)
        with pytest.raises(ResourceLimitError, match=f"N\\*T = {UPDATE_CAP + 64} exceeds the cap of {UPDATE_CAP} "):
            small_config(N=64, T=UPDATE_CAP // 64 + 1)
        # N * T of two int64 scalars wraps to 0 in numpy.
        with pytest.raises(ResourceLimitError, match="exceeds the cap"):
            small_config(N=np.int64(2**33), T=np.int64(2**31))

    def test_standard_error_scales_as_inverse_sqrt(self):
        # sigma(T) spread across realizations: SE should fall like 1/sqrt(R)
        # within a factor of 2 between R = 25, 100, 400.
        N, T = 128, 64

        def final_sigmas(R):
            return np.array(
                [
                    run_realization(N, T, 0.0, 0.0, derive_seed(9, r)).dispersion[-1]
                    for r in range(1, R + 1)
                ]
            )

        se = {R: final_sigmas(R).std(ddof=1) / np.sqrt(R) for R in (25, 100, 400)}
        for r_small, r_big in ((25, 100), (100, 400)):
            ratio = se[r_small] / se[r_big]
            assert 1.0 <= ratio <= 4.0  # ideal 2, within a factor of 2

    def test_boundary_contact_flagged(self):
        # Strongly correlated phases spread ballistically and must reach the
        # edges within T = 5N/2 on a small lattice.
        config = small_config(N=32, T=80, alpha_t=4.0, beta_s=4.0, realizations=2)
        result = run_ensemble(config)
        assert result.stats.boundary_contact_time is not None
        assert result.contacted_realizations == 2


class TestBatches:
    def test_batch_rows_match_single_realizations_bit_for_bit(self):
        # T > N/2: the cone reaches the chain ends and contact fires.
        N, T = 48, 60
        seeds = [derive_seed(21, r) for r in range(1, 9)]
        snaps = (0, 12, 30, 60)
        batch = run_realization(N, T, 4.0, 4.0, seeds, snapshot_times=snaps)
        assert batch.dispersion.shape == (8, T + 1)
        assert all(c is not None for c in batch.boundary_contact_time)
        for b, seed in enumerate(seeds):
            alone = run_realization(N, T, 4.0, 4.0, seed, snapshot_times=snaps)
            np.testing.assert_array_equal(batch.dispersion[b], alone.dispersion)
            np.testing.assert_array_equal(batch.mean_position[b], alone.mean_position)
            for t in snaps:
                np.testing.assert_array_equal(batch.snapshots[t][b], alone.snapshots[t])
            assert batch.boundary_contact_time[b] == alone.boundary_contact_time

    @pytest.mark.parametrize("N", [257, 1000])
    def test_batch_rows_bit_for_bit_at_desk_sizes(self, N):
        # Odd and even row lengths: the moment sums must not depend on where
        # a row starts in memory.
        seeds = [derive_seed(22, r) for r in range(1, 5)]
        batch = run_realization(N, 40, 4.0, 4.0, seeds)
        assert batch.snapshots == {}
        for b, seed in enumerate(seeds):
            alone = run_realization(N, 40, 4.0, 4.0, seed)
            np.testing.assert_array_equal(batch.dispersion[b], alone.dispersion)
            np.testing.assert_array_equal(batch.mean_position[b], alone.mean_position)
            assert alone.snapshots == {}

    def test_contact_times_match_whole_lattice_stepping_long_past_contact(self):
        # T = 3N in strong disorder: the rows make contact at different
        # steps, and the observer stops checking once every row has.
        config = small_config(N=100, T=300, realizations=6, master_seed=41)
        seeds = [derive_seed(config.master_seed, r) for r in range(1, config.realizations + 1)]
        expected = []
        for seed in seeds:
            phases = generate_coin_phases(config.T, config.N, 0.0, 0.0, seed)
            state = initial_state_symmetric(config.N)
            contact = None
            for t in range(1, config.T + 1):
                state = whole_lattice_step(state, phases.theta[t - 1], phases.phi)
                up, down = state.up[:: config.N - 1], state.down[:: config.N - 1]
                ends = up.real**2 + up.imag**2 + down.real**2 + down.imag**2
                if contact is None and ends.sum() > ensemble.BOUNDARY_CONTACT_EPS:
                    contact = t
            expected.append(contact)
        assert None not in expected and len(set(expected)) > 3
        assert run_realization(config.N, config.T, 0.0, 0.0, seeds).boundary_contact_time == tuple(expected)
        result = run_ensemble(config)
        assert result.stats.boundary_contact_time == min(expected)
        assert result.contacted_realizations == config.realizations

    def test_traced_peak_of_one_batch(self):
        # The start rows are views, e^{i phi} / sqrt 2 is formed in place, the
        # kernel's scratch holds one sublattice and only the stacked phases
        # live through the evolution, so one batch holds about 12.3 (B, N)
        # complex arrays at its peak (12.6 with the per-row phases instead,
        # 13.1 with whole-row scratch as well, 15.1 with tiled start rows and
        # a temporary phase exponential too).
        N, T, B = 1000, 500, 8
        seeds = [derive_seed(5, r) for r in range(1, B + 1)]
        run_realization(N, T, 4.0, 4.0, seeds, snapshot_times=(50, 200, 500))
        tracemalloc.start()
        try:
            run_realization(N, T, 4.0, 4.0, seeds, snapshot_times=(50, 200, 500))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / (B * N * np.dtype(np.complex128).itemsize) < 14.0

    def test_batch_size_from_lattice_size(self):
        # Two-row batches from N = 2731 to 4096; one walker past 4096.
        table = {2: 4096, 64: 128, 256: 32, 1000: 8, 2000: 4, 2730: 3, 2731: 2, 4000: 2, 4096: 2, 4097: 1, 20000: 1}
        assert {N: _batch_size(N) for N in table} == table

    def test_workers_give_identical_results_with_batches(self, monkeypatch):
        config = small_config(N=40, T=36, alpha_t=4.0, beta_s=4.0, realizations=20, snapshot_times=(10, 36))
        results = []
        # B = 102 (one batch of 20), 10, 3 (the last batch holds 2) and 1.
        for sites in (4096, 400, 120, 40):
            monkeypatch.setattr(ensemble, "BATCH_SITES", sites)
            results += [run_ensemble(config, workers=1), run_ensemble(config, workers=2)]
        serial = results[0]
        for other in results[1:]:
            np.testing.assert_array_equal(serial.stats.dispersion, other.stats.dispersion)
            np.testing.assert_array_equal(serial.stats.mean_position, other.stats.mean_position)
            for t in config.snapshot_times:
                np.testing.assert_array_equal(serial.stats.snapshots[t], other.stats.snapshots[t])
            assert serial.stats.boundary_contact_time == other.stats.boundary_contact_time
            assert serial.contacted_realizations == other.contacted_realizations > 0

    def test_averaged_snapshots_equal_full_lattice_stepping_exactly(self):
        # The profile average as computed before batching and windowing:
        # every realization stepped on the whole lattice, summed in order.
        config = small_config(N=50, T=40, alpha_t=2.0, beta_s=1.0, realizations=7, snapshot_times=(15, 40))
        expected = {t: np.zeros(config.N) for t in config.snapshot_times}
        for r in range(1, config.realizations + 1):
            seed = derive_seed(config.master_seed, r)
            phases = generate_coin_phases(config.T, config.N, config.alpha_t, config.beta_s, seed)
            state = initial_state_symmetric(config.N)
            for t in range(1, config.T + 1):
                state = whole_lattice_step(state, phases.theta[t - 1], phases.phi)
                if t in expected:
                    p = state.up.real * state.up.real
                    p += state.up.imag * state.up.imag
                    p += state.down.real * state.down.real
                    p += state.down.imag * state.down.imag
                    expected[t] += p
        result = run_ensemble(config)
        for t in config.snapshot_times:
            np.testing.assert_array_equal(result.stats.snapshots[t], expected[t] / config.realizations)


class TestRecordFrom:
    def test_matches_full_record_from_its_step_on(self):
        # T > N/2: the cone reaches a chain end near t = 23 and contact
        # fires before k = 40, where the moments start.
        N, T, k = 48, 60, 40
        snaps = (0, 12, 30, 60)
        for seed in (derive_seed(21, 1), [derive_seed(21, r) for r in range(1, 6)]):
            full = run_realization(N, T, 4.0, 4.0, seed, snapshot_times=snaps)
            late = run_realization(N, T, 4.0, 4.0, seed, snapshot_times=snaps, record_from=k)
            np.testing.assert_array_equal(late.dispersion[..., k:], full.dispersion[..., k:])
            np.testing.assert_array_equal(late.mean_position[..., k:], full.mean_position[..., k:])
            assert np.isnan(late.dispersion[..., :k]).all()
            assert np.isnan(late.mean_position[..., :k]).all()
            for t in snaps:
                np.testing.assert_array_equal(late.snapshots[t], full.snapshots[t])
            assert late.boundary_contact_time == full.boundary_contact_time
            assert all(c is not None and c < k for c in np.atleast_1d(full.boundary_contact_time))

    def test_default_records_every_step(self):
        stats = run_realization(32, 24, 2.0, 1.0, 5)
        assert np.isfinite(stats.dispersion).all() and np.isfinite(stats.mean_position).all()
        last = run_realization(32, 24, 2.0, 1.0, 5, record_from=24)
        assert last.dispersion[-1] == stats.dispersion[-1]
        assert np.isnan(last.dispersion[:-1]).all()

    @pytest.mark.parametrize("record_from", [-1, 25, 2.5, True])
    def test_outside_run_rejected(self, record_from):
        with pytest.raises(InvalidParameterError, match="record_from"):
            run_realization(32, 24, 2.0, 1.0, 5, record_from=record_from)

    def test_sweep_matches_scans_that_record_every_step(self, monkeypatch):
        kwargs = dict(sizes=(32, 64, 128), realizations=3, master_seed=123, window_len=8)
        windowed = phase_diagram_sweep([0.0, 4.0], [0.0, 4.0], **kwargs)

        # Every ensemble of the sweep enters the task stream through _tasks.
        full_tasks = ensemble._tasks
        passed = []

        def every_step(config, record_from):
            passed.append(record_from)
            return full_tasks(config, 0)

        monkeypatch.setattr(ensemble, "_tasks", every_step)
        full = phase_diagram_sweep([0.0, 4.0], [0.0, 4.0], **kwargs)
        # T = 16, 32, 64 with windows 8, 16, 32.
        assert passed == [9, 17, 33] * 4
        for key in ("gamma", "stderr", "points"):
            assert [cell[key] for cell in windowed] == [cell[key] for cell in full]


class TestEnsemblePhysics:
    def test_localized_profile_concentrates_at_start(self):
        # Strong temporal correlation with white spatial phases traps the
        # walker around its starting site.
        config = EnsembleConfig(
            N=200, T=100, alpha_t=4.0, beta_s=0.0, realizations=50,
            master_seed=31, snapshot_times=(100,),
        )
        profile = run_ensemble(config).stats.snapshots[100]
        center = 100
        assert abs(int(np.argmax(profile)) + 1 - center) <= 4
        near = profile[center - 21 : center + 20].sum()
        assert near > 0.9

    def test_uncorrelated_profile_single_central_peak(self):
        # Uncorrelated phases in both axes give a single-peak, near-Gaussian
        # averaged profile.  Only sites with (n - n0 + t) even are occupied.
        N, T = 256, 128
        config = EnsembleConfig(
            N=N, T=T, alpha_t=0.0, beta_s=0.0, realizations=60,
            master_seed=77, snapshot_times=(T,),
        )
        profile = run_ensemble(config).stats.snapshots[T]
        center = N // 2
        sites = np.arange(1, N + 1)
        occupied = ((sites - center + T) % 2) == 0
        values = profile[occupied]
        positions = sites[occupied]
        threshold = 3.0 * float(np.median(values))
        peaks = [
            positions[i]
            for i in range(1, values.size - 1)
            if values[i] > threshold
            and values[i] == values[max(0, i - 15) : i + 16].max()
        ]
        assert len(peaks) == 1
        assert abs(int(peaks[0]) - center) <= 10


class TestSizeScan:
    def test_orders_output_by_size(self):
        points = size_scan(small_config(T=16), sizes=(128, 32, 64), window_len=8)
        assert [n for n, _ in points] == [32, 64, 128]
        assert all(s > 0 for _, s in points)

    def test_uses_half_size_time_horizon(self):
        # T = N // 2 leaves T/2 + 1 trajectory entries; window longer than
        # that must be rejected, proving the scan overrode the base T.
        with pytest.raises(Exception, match="entries"):
            size_scan(small_config(), sizes=(8, 16, 32), window_len=10)

    def test_requires_three_sizes(self):
        with pytest.raises(InvalidParameterError):
            size_scan(small_config(), sizes=(64, 128), window_len=8)

    def test_rejects_repeated_sizes(self):
        with pytest.raises(InvalidParameterError, match="distinct"):
            size_scan(small_config(), sizes=(32, 32, 64), window_len=8)
        with pytest.raises(InvalidParameterError, match="distinct"):
            phase_diagram_sweep([0.0], [0.0], (32, 64, 64), realizations=4, master_seed=123, window_len=8)

    @pytest.mark.parametrize("sizes", [[16.9, 32, 64], [True, 32, 64], [16, "32", 64]])
    def test_rejects_non_integer_sizes(self, sizes):
        base = EnsembleConfig(N=16, T=8, alpha_t=0, beta_s=0, realizations=1)
        with pytest.raises(InvalidParameterError, match="integer"):
            size_scan(base, sizes, window_len=2)
        with pytest.raises(InvalidParameterError, match="integer"):
            size_configs(sizes, 2, alpha_t=0, beta_s=0, realizations=1, master_seed=0)

    def test_window_scales_with_horizon(self):
        base = small_config()
        points = size_scan(base, sizes=(32, 64, 128), window_len=8)
        runs = size_configs((32, 64, 128), 8, alpha_t=0.0, beta_s=0.0, realizations=4, master_seed=123)
        assert size_configs(iter((32, 64, 128)), 8, alpha_t=0.0, beta_s=0.0, realizations=4, master_seed=123) == runs
        assert [window for _, window in runs] == [8, 16, 32]
        for (N, sigma_bar), (cfg, window) in zip(points, runs):
            stats = run_ensemble(cfg).stats
            assert (cfg.N, cfg.T) == (N, N // 2)
            assert sigma_bar == longtime_avg_dispersion(stats, window)


class TestPhaseDiagramSweep:
    def test_single_cell_grid(self, tmp_path):
        sweep = phase_diagram_sweep(
            [0.0],
            [0.0],
            (32, 64, 128),
            realizations=8,
            master_seed=123,
            window_len=8,
            out_dir=tmp_path,
        )
        assert len(sweep) == 1
        assert sweep[0]["regime"] in REGIMES
        assert (tmp_path / "cells" / "cell_000_000.json").exists()

    def test_bad_cell_rejected_before_any_cell_is_written(self, tmp_path):
        for grid_alpha, grid_beta, field in [
            ([0.0, -1.0], [0.0], "alpha_t"),
            ([0.0, "0.5"], [0.0], "alpha_t"),
            ([0.0], [0.0, True], "beta_s"),
            ([0.0], [1.0, -0.0, 0.0], "beta_s grid repeats"),
        ]:
            with pytest.raises(InvalidParameterError, match=field):
                phase_diagram_sweep(grid_alpha, grid_beta, [16, 32, 64], realizations=4, master_seed=123, window_len=4,
                                    out_dir=tmp_path)
            assert not list(tmp_path.rglob("*.json"))

    @pytest.mark.parametrize(
        "setting, value, message",
        [
            ("realizations", 0, "realizations"),
            ("realizations", True, "realizations"),
            ("master_seed", -1, "seed"),
            ("master_seed", 2**64, "seed"),
        ],
    )
    def test_bad_run_setting_refused_before_any_cell_is_written(self, tmp_path, setting, value, message):
        settings = {"realizations": 2, "master_seed": 5, setting: value}
        with pytest.raises(InvalidParameterError, match=message):
            phase_diagram_sweep([0.0, 4.0], [0.0], (16, 32, 64), **settings, window_len=4, out_dir=tmp_path)
        assert not list(tmp_path.iterdir())

    def test_numpy_integer_settings_write_the_plain_bytes(self, tmp_path):
        for name, settings in [
            ("plain", dict(realizations=2, master_seed=5)),
            ("numpy", dict(realizations=np.int64(2), master_seed=np.uint64(5))),
        ]:
            phase_diagram_sweep([0.0, 4.0], [0.0], (16, 32, 64), **settings, window_len=4, out_dir=tmp_path / name)
        for cell in ("cell_000_000.json", "cell_001_000.json"):
            plain, numpy = (tmp_path / name / "cells" / cell for name in ("plain", "numpy"))
            assert numpy.read_bytes() == plain.read_bytes()

    def test_resume_skips_completed_cells(self, tmp_path):
        kwargs = dict(
            realizations=4,
            master_seed=123,
            sizes=(32, 64, 128),
            window_len=8,
            out_dir=tmp_path,
        )
        first = phase_diagram_sweep([0.0, 1.0], [0.0], **kwargs)
        cell = tmp_path / "cells" / "cell_001_000.json"
        payload = json.loads(cell.read_text())
        payload["gamma"] = 123.0  # sentinel: resume must trust the file
        cell.write_text(json.dumps(payload))

        second = phase_diagram_sweep([0.0, 1.0], [0.0], **kwargs)
        assert second[1]["gamma"] == 123.0
        assert second[0]["gamma"] == first[0]["gamma"]

    def test_force_recomputes(self, tmp_path):
        kwargs = dict(
            realizations=4,
            master_seed=123,
            sizes=(32, 64, 128),
            window_len=8,
            out_dir=tmp_path,
        )
        first = phase_diagram_sweep([0.0], [0.0], **kwargs)
        cell = tmp_path / "cells" / "cell_000_000.json"
        payload = json.loads(cell.read_text())
        payload["gamma"] = 123.0
        cell.write_text(json.dumps(payload))

        forced = phase_diagram_sweep([0.0], [0.0], force=True, **kwargs)
        assert forced[0]["gamma"] == first[0]["gamma"]

    def test_mismatched_cell_file_rejected(self, tmp_path):
        kwargs = dict(
            realizations=4,
            master_seed=123,
            sizes=(32, 64, 128),
            window_len=8,
            out_dir=tmp_path,
        )
        phase_diagram_sweep([0.0], [0.0], **kwargs)
        with pytest.raises(InvalidParameterError, match="force"):
            phase_diagram_sweep([2.0], [0.0], **kwargs)

    def test_mismatched_sizes_rejected_on_resume(self, tmp_path):
        settings = dict(realizations=4, master_seed=123)
        phase_diagram_sweep([0.0], [0.0], (32, 64, 128), **settings, window_len=8, out_dir=tmp_path)
        with pytest.raises(InvalidParameterError, match="sizes"):
            phase_diagram_sweep([0.0], [0.0], (32, 64, 256), **settings, window_len=8, out_dir=tmp_path)

    def test_cell_records_windows(self, tmp_path):
        settings = dict(realizations=2, master_seed=123)
        phase_diagram_sweep([0.0], [0.0], (32, 64, 128), **settings, window_len=8, out_dir=tmp_path)
        cell = json.loads((tmp_path / "cells" / "cell_000_000.json").read_text())
        assert cell["windows"] == [[32, 8], [64, 16], [128, 32]]

    def test_cell_without_windows_rejected_on_resume(self, tmp_path):
        kwargs = dict(
            realizations=2,
            master_seed=123,
            sizes=(32, 64, 128),
            window_len=8,
            out_dir=tmp_path,
        )
        phase_diagram_sweep([0.0], [0.0], **kwargs)
        cell = tmp_path / "cells" / "cell_000_000.json"
        payload = json.loads(cell.read_text())
        del payload["windows"]  # as written before windows scaled with T
        cell.write_text(json.dumps(payload))
        with pytest.raises(InvalidParameterError, match="cell_000_000.json.*--force"):
            phase_diagram_sweep([0.0], [0.0], **kwargs)

    def test_changed_window_rejected_on_resume(self, tmp_path):
        settings = dict(realizations=2, master_seed=123)
        phase_diagram_sweep([0.0], [0.0], (32, 64, 128), **settings, window_len=8, out_dir=tmp_path)
        with pytest.raises(InvalidParameterError, match="windows"):
            phase_diagram_sweep([0.0], [0.0], (32, 64, 128), **settings, window_len=4, out_dir=tmp_path)

    def test_cells_reproducible_in_memory(self):
        settings = dict(realizations=4, master_seed=123)
        a = phase_diagram_sweep([0.0, 2.0], [1.0], (32, 64, 128), **settings, window_len=8)
        b = phase_diagram_sweep([0.0, 2.0], [1.0], (32, 64, 128), **settings, window_len=8)
        assert a == b

    def test_records_are_the_cell_files_in_grid_order(self, tmp_path):
        kwargs = dict(realizations=2, master_seed=123, sizes=(16, 32, 64), window_len=4)
        files = [tmp_path / "cells" / name for name in ("cell_000_000.json", "cell_001_000.json")]
        computed = phase_diagram_sweep([0.0, 2.0], [1.0], out_dir=tmp_path, **kwargs)
        assert computed == [json.loads(f.read_text()) for f in files]
        resumed = phase_diagram_sweep([0.0, 2.0], [1.0], out_dir=tmp_path, **kwargs)
        assert resumed == [json.loads(f.read_text()) for f in files]
        assert phase_diagram_sweep([0.0, 2.0], [1.0], **kwargs) == computed

    def test_grid_value_whose_trace_overflows_refused_before_any_cell(self, tmp_path):
        # beta_s = 400 is fine at N = 16 and 32 but overflows at N = 64.
        with pytest.raises(InvalidParameterError, match="beta_s = 400.0.*length 64"):
            phase_diagram_sweep([0.0], [0.0, 400.0], (16, 32, 64), realizations=4, master_seed=123, window_len=4,
                                out_dir=tmp_path)
        assert not list(tmp_path.iterdir())

    def test_rejects_empty_grid(self):
        with pytest.raises(InvalidParameterError):
            phase_diagram_sweep([], [0.0], (32, 64, 128), realizations=4, master_seed=123)

    def _one_cell(self, tmp_path, **overrides):
        kwargs = dict(realizations=2, master_seed=123, sizes=(32, 64, 128), window_len=8, out_dir=tmp_path)
        kwargs.update(overrides)
        return phase_diagram_sweep([0.0], [0.0], **kwargs)

    def test_cell_records_its_settings(self, tmp_path):
        self._one_cell(tmp_path)
        cell = json.loads((tmp_path / "cells" / "cell_000_000.json").read_text())
        assert cell["realizations"] == 2
        assert cell["normalize_variance"] is False
        assert cell["master_seed"] == derive_seed(123, "cell", 0, 0)
        assert [p.name for p in (tmp_path / "cells").iterdir()] == ["cell_000_000.json"]

    @pytest.mark.parametrize(
        "changed, edited, key",
        [
            (dict(master_seed=124), {}, "master_seed"),
            (dict(realizations=3), {}, "realizations"),
            # A cell that an earlier version computed from normalised traces.
            ({}, dict(normalize_variance=True), "normalize_variance"),
        ],
    )
    def test_changed_settings_rejected_on_resume(self, tmp_path, changed, edited, key):
        self._one_cell(tmp_path)
        cell = tmp_path / "cells" / "cell_000_000.json"
        cell.write_text(json.dumps({**json.loads(cell.read_text()), **edited}))
        with pytest.raises(InvalidParameterError, match=f"cell_000_000.json.*{key}.*--force"):
            self._one_cell(tmp_path, **changed)

    def test_truncated_cell_reported_by_path(self, tmp_path):
        self._one_cell(tmp_path)
        cell = tmp_path / "cells" / "cell_000_000.json"
        cell.write_bytes(cell.read_bytes()[:40])
        with pytest.raises(InvalidParameterError, match="cell_000_000.json.*--force"):
            self._one_cell(tmp_path)
        forced = self._one_cell(tmp_path, force=True)
        assert json.loads(cell.read_text())["gamma"] == forced[0]["gamma"]


class TestCellFileTypes:
    def _cell(self, tmp_path):
        phase_diagram_sweep([0.0], [0.0], (16, 32, 64), realizations=2, master_seed=123, window_len=4, out_dir=tmp_path)
        return tmp_path / "cells" / "cell_000_000.json"

    # Hand-written cells, each with one result field of the wrong kind.
    @pytest.mark.parametrize("key, value", [("points", 5), ("points", [1, 2, 3]), ("gamma", "x"), ("regime", "nope")])
    def test_mistyped_field_refused_by_path_and_key(self, tmp_path, key, value):
        cell = self._cell(tmp_path)
        payload = json.loads(cell.read_text())
        cell.write_text(json.dumps({**payload, key: value}))
        with pytest.raises(InvalidParameterError, match=f"cell_000_000.json holds {key} = .*--force"):
            _load_cell(cell, {})

    def test_mistyped_cell_refused_before_any_pool_starts(self, tmp_path, monkeypatch):
        kwargs = dict(realizations=2, master_seed=123, sizes=(16, 32, 64), window_len=4, out_dir=tmp_path)
        phase_diagram_sweep([0.0], [0.0, 2.0], **kwargs)
        first, second = sorted((tmp_path / "cells").iterdir())
        first.unlink()
        second.write_text(json.dumps({**json.loads(second.read_text()), "points": 5}))
        pools = []
        monkeypatch.setattr(ensemble, "Pool", lambda *args, **kwargs: pools.append(args))
        with pytest.raises(InvalidParameterError, match="cell_000_001.json holds points"):
            phase_diagram_sweep([0.0], [0.0, 2.0], workers=2, **kwargs)
        assert not pools and not first.exists()


class TestTaskStream:
    SWEEP = dict(grid_alpha=[0.0, 4.0], grid_beta=[0.0, 4.0], realizations=5, master_seed=123,
                 sizes=(16, 32, 64), window_len=4)

    @pytest.mark.parametrize("workers, pools", [(1, 0), (2, 1)])
    def test_one_pool_per_sweep(self, tmp_path, monkeypatch, workers, pools):
        made = []
        real_pool = ensemble.Pool

        def counting(*args, **kwargs):
            made.append(kwargs)
            return real_pool(*args, **kwargs)

        monkeypatch.setattr(ensemble, "Pool", counting)
        phase_diagram_sweep(**self.SWEEP, workers=workers, out_dir=tmp_path)
        assert len(made) == pools
        assert not multiprocessing.active_children()
        # A sweep with every cell already computed starts no pool.
        phase_diagram_sweep(**self.SWEEP, workers=workers, out_dir=tmp_path)
        assert len(made) == pools

    def test_pool_of_spawned_workers_gives_the_serial_bytes(self, monkeypatch):
        # spawn, the default start method on macOS and Windows, starts each
        # worker from a fresh import and sends it every task pickled.
        # N = 64 at R = 300: three batches (128 + 128 + 44).
        config = small_config(realizations=300, snapshot_times=(32,))
        serial = run_ensemble(config)
        monkeypatch.setattr(ensemble, "Pool", multiprocessing.get_context("spawn").Pool)
        spawned = run_ensemble(config, workers=2)
        assert spawned.stats.dispersion.tobytes() == serial.stats.dispersion.tobytes()
        assert spawned.stats.snapshots[32].tobytes() == serial.stats.snapshots[32].tobytes()
        assert not multiprocessing.active_children()

    def test_tasks_generated_as_the_stream_reaches_them(self, monkeypatch):
        real_tasks = ensemble._tasks
        made = []

        def recording(config, record_from):
            made.append(config.N)
            return real_tasks(config, record_from)

        monkeypatch.setattr(ensemble, "_tasks", recording)
        # N = 16 at R = 300: two batches (256 + 44) make up the first job.
        jobs = [(small_config(N=n, T=8, realizations=300), 0) for n in (16, 32, 64)]
        with ensemble._ensembles(jobs, 1) as results:
            next(results)
            assert made == [16]
            assert len(list(results)) == 2
        assert made == [16, 32, 64]

    def test_sweep_files_identical_for_any_worker_count(self, tmp_path):
        files = {}
        for workers in (1, 2, 3):
            out = tmp_path / f"w{workers}"
            cwio.write_sweep_csv(out / "grid.csv", phase_diagram_sweep(**self.SWEEP, workers=workers, out_dir=out))
            files[workers] = {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
        assert len(files[1]) == 1 + 4
        assert files[1] == files[2] == files[3]

    def test_failed_cell_write_stops_the_pool_and_resume_reuses_the_written_cell(self, tmp_path, monkeypatch):
        reference = phase_diagram_sweep(**self.SWEEP, out_dir=tmp_path / "reference")
        real_write = cwio.write_json
        calls = []

        def second_write_fails(path, payload):
            calls.append(path)
            if len(calls) == 2:
                raise OSError(f"cannot write {path}")
            return real_write(path, payload)

        out = tmp_path / "out"
        monkeypatch.setattr(cwio, "write_json", second_write_fails)
        with pytest.raises(OSError, match="cell_000_001.json"):
            phase_diagram_sweep(**self.SWEEP, workers=2, out_dir=out)
        monkeypatch.setattr(cwio, "write_json", real_write)
        assert not multiprocessing.active_children()

        first = out / "cells" / "cell_000_000.json"
        assert [p.name for p in (out / "cells").iterdir()] == [first.name]
        assert first.read_bytes() == (tmp_path / "reference" / "cells" / first.name).read_bytes()
        payload = json.loads(first.read_text())
        payload["gamma"] = 123.0  # sentinel: resume must trust the file
        first.write_text(json.dumps(payload))
        resumed = phase_diagram_sweep(**self.SWEEP, workers=2, out_dir=out)
        assert resumed[0]["gamma"] == 123.0
        assert [cell["gamma"] for cell in resumed[1:]] == [cell["gamma"] for cell in reference[1:]]
        assert not multiprocessing.active_children()
