"""Tests of the benchmark itself: its checks reject corrupted output and
accept correct output, its tracing counts what it should, and the metrics
it prints are the ones ``BENCHMARK.json`` declares.

Run with ``PYTHONPATH=src python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

import checks
import reference
import run
from checks import CheckError

TINY_RUN = dict(N=64, T=32, alpha_t=4.0, beta_s=4.0, realizations=4, snapshot_times=[8, 32])
TINY_SWEEP = dict(grid_alpha=[4.0], grid_beta=[4.0], sizes=[16, 32, 64], realizations=2, sigma_window=8)


def _tiny_workload(config: dict, check, workers=None) -> run.Workload:
    command = "run" if "N" in config else "phase-diagram"
    if command == "run":
        ensembles = (run.Ensemble(config["N"], config["T"], 4.0, 4.0, config["realizations"]),)
    else:
        ensembles = run._sweep(config["grid_alpha"], config["grid_beta"], config["sizes"], config["realizations"])
    return run.Workload("tiny", (command,), ensembles, config, config=config, workers=workers, check=check)


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """One plain and one traced tiny ``corrwalk run``, through the benchmark's launcher."""
    wl = _tiny_workload(TINY_RUN, lambda out, seed: checks.check_run_output(out, 64, 32, (8, 32)))
    work = tmp_path_factory.mktemp("tiny_run")
    (work / "config.json").write_text(json.dumps(TINY_RUN))
    plain = run.run_command(wl, 11, work / "plain", traced=False, timeout=60)
    traced = run.run_command(wl, 11, work / "traced", traced=True, timeout=60)
    return wl, work, plain, traced


def test_benchmark_json_declares_the_printed_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(run._workloads())
    assert spec["command"] == ["python3", "perfbench/run.py"]


def test_printed_metrics_are_exactly_the_declared_ones(tiny_run):
    wl, _, plain, traced = tiny_run
    assert plain.error is None and traced.error is None
    assert set(run.end_to_end(wl, [plain])) == set(run.END_TO_END)
    assert set(run.per_layer([plain], [traced])) == set(run.PER_LAYER)
    assert all(v > 0 for v in run.end_to_end(wl, [plain]).values())


def test_trace_counts_the_work_done(tiny_run):
    wl, work, _, traced = tiny_run
    layers = traced.layers
    N, T, R = 64, 32, 4
    assert layers["noise.calls"] == R
    assert layers["walk.site_updates"] == N * T * R
    # sigma and mean (T + 1 doubles each) plus two N-site snapshots per realization
    assert layers["ensemble.result_bytes"] == R * 8 * (2 * (T + 1) + 2 * N)
    written = sum(p.stat().st_size for p in (work / "traced").iterdir())
    assert layers["io.bytes"] == written
    assert 0 < layers["ensemble.observe_share"] < 1
    assert 0 < layers["ensemble.parallel_efficiency"] <= 1


def test_checks_accept_a_correct_run(tiny_run):
    wl, work, _, _ = tiny_run
    run.check_output(wl, work / "plain", 11)


def test_manifest_check_rejects_another_seed(tiny_run):
    wl, work, _, _ = tiny_run
    with pytest.raises(CheckError, match="master seed"):
        run.check_output(wl, work / "plain", 12)


def _ballistic_profile(N=200, start=100, t=60, where=40):
    """Two bumps at ``start +- where`` on the sites the walker can reach at ``t``."""
    sites = np.arange(1, N + 1)
    p = np.exp(-0.5 * ((np.abs(sites - start) - where) / 4.0) ** 2) + 0.01
    p[((sites - start - t) % 2 != 0) | (np.abs(sites - start) > t)] = 0.0
    return p / p.sum()


def test_profile_check_accepts_a_correct_profile():
    p = _ballistic_profile()
    checks.check_profile(p, 100, 60)
    checks.check_two_peaks(p, 100)


@pytest.mark.parametrize("corrupt", ["wrong_parity", "outside_cone", "scaled"])
def test_profile_check_rejects_a_perturbed_profile(corrupt):
    p = _ballistic_profile()
    if corrupt == "wrong_parity":
        p[100] += 1e-6  # site 101: odd distance from 100 at even t
        p[99] -= 1e-6
    elif corrupt == "outside_cone":
        p[180] += 1e-6  # site 181, distance 81 > 60; parity allowed
        p[99] -= 1e-6
    else:
        p = p * (1 + 1e-6)
    with pytest.raises(CheckError):
        checks.check_profile(p, 100, 60)


def test_two_peak_check_rejects_an_off_centre_or_single_peak():
    sites = np.arange(1, 201)
    shifted = _ballistic_profile()
    shifted[(sites > 100) & (sites < 180)] = np.roll(shifted, 14)[(sites > 100) & (sites < 180)]
    with pytest.raises(CheckError, match="midpoint"):
        checks.check_two_peaks(shifted, 100)
    single = _ballistic_profile(where=0)
    with pytest.raises(CheckError, match="centre"):
        checks.check_two_peaks(single, 100)


def test_trajectory_check():
    T = 20
    t = np.arange(T + 1.0)
    traj = np.column_stack([t, np.full(T + 1, 32.0), 0.7 * t])
    checks.check_trajectory(traj, T)
    outside = traj.copy()
    outside[5, 2] = 5.0 + 1e-6
    with pytest.raises(CheckError, match="light cone"):
        checks.check_trajectory(outside, T)
    with pytest.raises(CheckError, match="rows"):
        checks.check_trajectory(traj[:-1], T)


def test_gamma_cell_band():
    checks.check_gamma_cell({(4.0, 4.0): (1.03, "ballistic")})
    for gamma, regime in ((1.2, "ballistic"), (0.85, "superdiffusive")):
        with pytest.raises(CheckError):
            checks.check_gamma_cell({(4.0, 4.0): (gamma, regime)})


def _sweep_grid():
    g = {(0.0, b): (0.52, "diffusive") for b in (0.0, 2.0, 4.0)}
    g.update({(2.0, 0.0): (0.37, "subdiffusive"), (2.0, 2.0): (0.82, "superdiffusive"),
              (2.0, 4.0): (0.93, "ballistic"), (4.0, 0.0): (0.12, "subdiffusive"),
              (4.0, 2.0): (0.87, "superdiffusive"), (4.0, 4.0): (1.09, "ballistic")})
    return g


def test_sweep_bands():
    checks.check_sweep(_sweep_grid())
    for cell, value in (((0.0, 2.0), (0.65, "superdiffusive")), ((4.0, 4.0), (0.88, "superdiffusive")),
                        ((2.0, 0.0), (0.05, "localized"))):
        grid = _sweep_grid()
        grid[cell] = value
        with pytest.raises(CheckError):
            checks.check_sweep(grid)


def test_grid_reader_accepts_a_sweep_and_rejects_an_edited_gamma(tmp_path):
    wl = _tiny_workload(TINY_SWEEP, None)
    (tmp_path / "config.json").write_text(json.dumps(TINY_SWEEP))
    sample = run.run_command(wl, 5, tmp_path / "out", traced=False, timeout=60)
    assert sample.error is None
    grid = checks.read_grid(tmp_path / "out", 5, [4.0], [4.0], [16, 32, 64])
    assert set(grid) == {(4.0, 4.0)}
    path = tmp_path / "out" / "grid.csv"
    head, rows = checks.read_csv(path)
    rows[0][2] = repr(float(rows[0][2]) + 1e-6)
    path.write_text("\n".join(",".join(r) for r in [head, *rows]) + "\n")
    with pytest.raises(CheckError, match="fit"):
        checks.read_grid(tmp_path / "out", 5, [4.0], [4.0], [16, 32, 64])
    with pytest.raises(CheckError, match="master seed"):
        checks.read_grid(tmp_path / "out", 6, [4.0], [4.0], [16, 32, 64])


def test_reference_agrees_with_run_realization_and_rejects_1e6():
    from corrwalk.ensemble import run_realization
    from corrwalk.noise import derive_seed

    assert reference.derive_seed(7, "cell", 1, 2) == derive_seed(7, "cell", 1, 2)
    seed = reference.derive_seed(3, 2)
    ref = reference.realization(96, 48, 4.0, 2.0, seed)
    stats = run_realization(96, 48, 4.0, 2.0, seed)
    checks.compare_realization(ref, stats, "tiny")
    stats.dispersion[17] += 1e-6
    with pytest.raises(CheckError, match="sigma"):
        checks.compare_realization(ref, stats, "tiny")


def test_benchmark_refuses_a_tree_without_sources(tmp_path):
    import shutil
    import subprocess
    import sys

    shutil.copytree(Path(run.__file__).parent, tmp_path / "perfbench")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "fig2g-desk", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
