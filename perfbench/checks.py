"""Output checks made apart from the program.

Every check rests on a property the method must have (unitarity, parity,
the light cone, the paper's regimes) or on a recomputation written in
``reference.py``; none compares with stored output.  A failed check raises
``CheckError`` with a message naming the file and the property.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

import reference

NORM_TOL = 1e-9
REFERENCE_TOL = 1e-9
# classify_regime's documented bands, which the README of this directory restates.
DIFFUSIVE = (0.40, 0.60)
BALLISTIC_MIN = 0.90


class CheckError(AssertionError):
    """An output does not have a property it must have."""


def _require(condition, message: str) -> None:
    if not condition:
        raise CheckError(message)


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    _require(rows, f"{path}: empty file")
    return rows[0], rows[1:]


def read_columns(path: Path, header: tuple[str, ...]) -> np.ndarray:
    head, rows = read_csv(path)
    _require(tuple(head) == header, f"{path}: header {head}, expected {list(header)}")
    return np.array(rows, dtype=float).reshape(len(rows), len(header))


# --------------------------------------------------------------------------
# single-size run: trajectory and snapshots


def check_trajectory(traj: np.ndarray, T: int, where: str = "trajectory") -> None:
    """``t, mean, sigma`` rows: T + 1 of them, sigma(0) = 0, sigma(t) <= t."""
    _require(traj.shape[0] == T + 1, f"{where}: {traj.shape[0]} rows, expected T + 1 = {T + 1}")
    t, sigma = traj[:, 0], traj[:, 2]
    _require(np.array_equal(t, np.arange(T + 1)), f"{where}: times are not 0..{T}")
    _require(np.all(np.isfinite(traj)), f"{where}: non-finite values")
    _require(abs(sigma[0]) <= NORM_TOL, f"{where}: sigma(0) = {sigma[0]!r}, expected 0")
    over = np.flatnonzero(sigma > t + NORM_TOL)
    _require(over.size == 0, f"{where}: sigma(t) > t (light cone) first at t = {over[:1].tolist()}")


def check_profile(p: np.ndarray, start: int, t: int, where: str = "profile") -> None:
    """A probability profile at time ``t`` of a walker started at site ``start``.

    It sums to 1, and it is exactly zero wherever the walker cannot be:
    on sites whose distance from the start has the wrong parity, and
    outside the light cone ``|n - start| <= t`` (distances wrap around the
    periodic chain).
    """
    N = p.size
    _require(np.all(np.isfinite(p)) and np.all(p >= 0), f"{where}: negative or non-finite values")
    total = float(np.sum(p))
    _require(abs(total - 1.0) <= NORM_TOL, f"{where}: sums to {total!r}, not 1 within {NORM_TOL}")
    sites = np.arange(1, N + 1)
    offset = (sites - start) % N
    distance = np.minimum(offset, N - offset)
    unreachable = ((sites - start - t) % 2 != 0) | (distance > t)
    bad = np.flatnonzero(unreachable & (p != 0.0))
    _require(bad.size == 0, f"{where}: nonzero at unreachable sites {(bad[:5] + 1).tolist()}")


def check_two_peaks(p: np.ndarray, start: int, tol: int = 5, where: str = "profile") -> None:
    """Two peaks, one each side of the start, well above the centre, midway the start."""
    sites = np.arange(1, p.size + 1)
    left = sites < start
    right = sites > start
    n_left = sites[left][np.argmax(p[left])]
    n_right = sites[right][np.argmax(p[right])]
    centre = float(np.max(p[np.abs(sites - start) <= 10]))
    for n in (n_left, n_right):
        _require(p[n - 1] > 2.0 * centre, f"{where}: peak at {n} is not above twice the centre {centre!r}")
    mid = 0.5 * (n_left + n_right)
    _require(abs(mid - start) <= tol, f"{where}: peaks at {n_left}, {n_right}, midpoint {mid} is not within {tol} of {start}")


def check_run_output(out: Path, N: int, T: int, snapshots, two_peak_time=None) -> dict:
    """Checks of a single-size ``corrwalk run``; returns its summary."""
    start = N // 2
    check_trajectory(read_columns(out / f"trajectory_N{N}.csv", ("t", "mean", "sigma")), T,
                     f"trajectory_N{N}.csv")
    for t in snapshots:
        name = f"snapshot_N{N}_t{t}.csv"
        prof = read_columns(out / name, ("n", "P"))
        _require(np.array_equal(prof[:, 0], np.arange(1, N + 1)), f"{name}: sites are not 1..{N}")
        check_profile(prof[:, 1], start, t, name)
        if t == two_peak_time:
            check_two_peaks(prof[:, 1], start, where=name)
    with open(out / "summary.json", encoding="utf-8") as fh:
        return json.load(fh)


def check_hurst(summary: dict, band: tuple[float, float]) -> None:
    entry = summary["results"][0]
    _require(entry["boundary_contact_time"] is None and entry["contacted_realizations"] == 0,
             f"summary.json: boundary contact at t = {entry['boundary_contact_time']}")
    H = entry["hurst"].get("H")
    _require(H is not None and band[0] <= H <= band[1], f"summary.json: H = {H}, outside {list(band)}")


# --------------------------------------------------------------------------
# phase diagrams


def _loglog_slope(points) -> float:
    x = np.log([float(n) for n, _ in points])
    y = np.log([float(s) for _, s in points])
    x -= x.mean()
    return float(np.sum(x * (y - y.mean())) / np.sum(x * x))


def read_grid(out: Path, seed: int, alphas, betas, sizes) -> dict:
    """``grid.csv`` with its cell files, cross-checked: grid order, seeds, sizes, fits.

    Returns ``{(alpha, beta): (gamma, regime)}``.
    """
    head, rows = read_csv(out / "grid.csv")
    _require(head == ["alpha", "beta", "gamma", "stderr", "regime"], f"grid.csv: header {head}")
    cells = [(a, b) for a in alphas for b in betas]
    _require(len(rows) == len(cells), f"grid.csv: {len(rows)} rows, expected {len(cells)}")
    grid = {}
    for index, (row, (a, b)) in enumerate(zip(rows, cells)):
        i, j = divmod(index, len(betas))
        _require((float(row[0]), float(row[1])) == (a, b), f"grid.csv row {index + 1}: cell {row[:2]}, expected {(a, b)}")
        gamma = float(row[2])
        cell_file = out / "cells" / f"cell_{i:03d}_{j:03d}.json"
        with open(cell_file, encoding="utf-8") as fh:
            cell = json.load(fh)
        _require(cell["master_seed"] == reference.derive_seed(seed, "cell", i, j),
                 f"{cell_file.name}: master seed does not follow the documented derivation")
        _require([int(n) for n, _ in cell["points"]] == list(sizes), f"{cell_file.name}: sizes {cell['points']}")
        slope = _loglog_slope(cell["points"])
        _require(abs(slope - gamma) <= 1e-9, f"{cell_file.name}: gamma {gamma!r}, its points fit {slope!r}")
        grid[(a, b)] = (gamma, row[4])
    return grid


def check_gamma_cell(grid: dict, cell=(4.0, 4.0), band=(0.9, 1.1)) -> None:
    gamma, regime = grid[cell]
    _require(band[0] <= gamma <= band[1], f"cell {cell}: gamma = {gamma!r}, outside {list(band)}")
    _require(regime == "ballistic", f"cell {cell}: regime {regime!r}, expected 'ballistic'")


def check_sweep(grid: dict) -> None:
    """alpha_t = 0 row diffusive, (4, 4) ballistic, (4, 0) the lowest gamma."""
    for (a, b), (gamma, regime) in grid.items():
        if a == 0.0:
            _require(DIFFUSIVE[0] <= gamma < DIFFUSIVE[1] and regime == "diffusive",
                     f"cell ({a}, {b}): gamma = {gamma!r} ({regime}), expected diffusive")
    gamma44, regime44 = grid[(4.0, 4.0)]
    _require(gamma44 >= BALLISTIC_MIN and regime44 == "ballistic",
             f"cell (4.0, 4.0): gamma = {gamma44!r} ({regime44}), expected ballistic")
    lowest = min(grid, key=lambda c: grid[c][0])
    _require(lowest == (4.0, 0.0), f"lowest gamma at {lowest}, expected (4.0, 0.0)")


# --------------------------------------------------------------------------
# reference realization


def compare_realization(ref: dict, stats, where: str) -> None:
    """``run_realization``'s output against ``reference.realization`` to 1e-9.

    The tolerance is relative to each value, and absolute below 1: the two
    evaluate the phases in different orders (FFT against the mode sum), and
    the rounding that T unitary steps carry forward grows with the size of
    the mean position and of sigma (about 1e-12 of them at N = 4000).
    """
    for key, values in (("mean", stats.mean_position), ("sigma", stats.dispersion)):
        _require(values.shape == ref[key].shape, f"{where}: {key} has shape {values.shape}")
        diff = float(np.max(np.abs(values - ref[key]) / np.maximum(1.0, np.abs(ref[key]))))
        _require(diff <= REFERENCE_TOL, f"{where}: {key} differs from the reference by {diff:.3g} (relative)")
    _require(stats.boundary_contact_time == ref["contact"],
             f"{where}: contact at {stats.boundary_contact_time}, reference {ref['contact']}")


def check_reference(run_realization, N: int, T: int, alpha: float, beta: float, seed: int) -> None:
    ref = reference.realization(N, T, alpha, beta, seed)
    stats = run_realization(N, T, alpha, beta, seed)
    compare_realization(ref, stats, f"realization N={N} T={T} ({alpha}, {beta}) seed={seed}")
