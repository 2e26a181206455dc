"""Disorder-averaged runs, lattice-size scans, and parameter sweeps.

Realizations are independent work units: realization ``r`` derives its own
coin-phase seed from the master seed, so results are reproducible and the
reduction over realizations is performed in index order regardless of how
many workers computed them.
"""

from __future__ import annotations

import json
import logging
import time
from collections.abc import Sequence
from contextlib import contextmanager
from dataclasses import dataclass, replace
from itertools import chain
from multiprocessing import Pool
from pathlib import Path

import numpy as np

from . import io
from .errors import InvalidParameterError, ResourceLimitError, _exponent, _integer, _is_int, _is_real
from .noise import CoinPhases, _check_seed, _mode_scale, derive_seed, generate_coin_phases
from .observables import (
    RegimeLabel,
    TrajectoryStats,
    centred_sums,
    classify_regime,
    finish_moments,
    fit_gamma,
    longtime_avg_dispersion,
    probability_profile,
    scaled_windows,
)
from .walk import WalkerState, evolve, initial_state_symmetric, light_cone, stepped_columns, support

log = logging.getLogger(__name__)

# First time step at which P_1 + P_N exceeds this is flagged as boundary
# contact; statistics past it include periodic wrap-around.
BOUNDARY_CONTACT_EPS = 1e-8

DEFAULT_UPDATE_CAP = 1_000_000_000

# Most lattice sites (realizations x N) evolved together in one batch.  At
# desk sizes a step costs mostly fixed per-call dispatch, which a batch
# shares.  Past 8192 sites the gain flattens (N = 1000: 5.6, 4.5 and
# 4.6 ms per realization at 4096, 8192 and 16384) while the peak memory
# of a run keeps growing (16384 sites: +8.7 % on ``fig2g-desk``).
BATCH_SITES = 8192


def _run_arguments(N, T, alpha_t, beta_s, snapshot_times, normalize_variance) -> dict:
    """The arguments of one run by name, each checked by the rule of its
    ``EnsembleConfig`` field, with traces that fit in float64
    (``_mode_scale``), and stored as plain ``int``, ``float`` and tuple."""
    N, T = _integer("N", N, 2), _integer("T", T, 1)
    checked = dict(
        N=N, T=T, alpha_t=_exponent("alpha_t", alpha_t), beta_s=_exponent("beta_s", beta_s),
        snapshot_times=tuple(_integer("snapshot_times entry", t, 0, T) for t in snapshot_times),
    )
    if not isinstance(normalize_variance, bool):
        raise InvalidParameterError(f"normalize_variance must be a bool, got {normalize_variance!r}")
    _mode_scale("alpha_t", checked["alpha_t"], T)
    _mode_scale("beta_s", checked["beta_s"], N)
    return checked


@dataclass(frozen=True)
class EnsembleConfig:
    """Parameters of one disorder-averaged run.

    Raises ``InvalidParameterError`` on an invalid field and
    ``ResourceLimitError`` if ``N * T`` exceeds ``update_cap``.
    """

    N: int
    T: int
    alpha_t: float
    beta_s: float
    realizations: int = 200
    master_seed: int = 0
    snapshot_times: tuple[int, ...] = ()
    normalize_variance: bool = False
    update_cap: int = DEFAULT_UPDATE_CAP

    def __post_init__(self) -> None:
        checked = {
            **_run_arguments(self.N, self.T, self.alpha_t, self.beta_s, self.snapshot_times, self.normalize_variance),
            "realizations": _integer("realizations", self.realizations, 1),
            "master_seed": _check_seed(self.master_seed),
            "update_cap": _integer("update_cap", self.update_cap, 1),
        }
        for name, value in checked.items():
            object.__setattr__(self, name, value)
        updates = self.N * self.T
        if updates > self.update_cap:
            raise ResourceLimitError(
                f"N*T = {updates} exceeds the configured cap of {self.update_cap} "
                "amplitude updates per realization; raise update_cap to allow this run"
            )


@dataclass
class EnsembleResult:
    """Averaged trajectory statistics plus run provenance."""

    config: EnsembleConfig
    stats: TrajectoryStats
    contacted_realizations: int
    elapsed_seconds: float


class _StatsRecorder:
    """Per-step observer recording dispersion, mean, snapshots, edge contact.

    Works row by row on a ``(B, N)`` batch.  At step ``t`` it squares the
    columns ``evolve`` covered (``stepped_columns``: whole rows of a batch,
    the light cone of one walker), both parities, and sums only over the light cone ``t``
    steps from the state it was built from: outside it every probability
    is zero.  The sums of mean and dispersion are recorded from step
    ``record_from`` on, centred on the start support (``centred_sums``),
    and ``finish`` turns them into mean and sigma once per run; before
    ``record_from`` both stay NaN.  The profile is formed only at snapshot
    times, and at the chain ends from when the cone reaches them until
    every row has made contact.
    """

    def __init__(self, state, T: int, snapshot_times, record_from: int = 0) -> None:
        B, N = state.up.shape
        self.start = support(state)
        self.centre = (self.start[0] + self.start[1]) / 2 + 1
        # Offsets from the centre and their squares, per float of a (re, im) row.
        offsets = np.repeat(np.arange(1.0, N + 1.0) - self.centre, 2)
        self.offsets = np.stack([offsets, offsets * offsets])
        self.squares = np.empty((2, B, 2 * N))
        # The sums a and b until ``finish``, then mean and sigma.
        self.mean = np.full((B, T + 1), np.nan)
        self.sigma = np.full((B, T + 1), np.nan)
        self.record_from = record_from
        self.snapshot_times = frozenset(int(t) for t in snapshot_times)
        self.snapshots: dict[int, np.ndarray] = {}
        self.contact = np.full(B, -1)
        self.checking = True

    def record(self, t: int, state) -> None:
        shape = state.up.shape
        N = shape[-1]
        cone = light_cone(self.start, t, N)
        # Before the cone reaches a chain end both end sites hold exactly 0;
        # once every row has made contact there is nothing left to check.
        if self.checking and (cone.start == 0 or cone.stop == N):
            # probability_profile's sum over the two end columns.
            up, down = state.up[:, :: N - 1], state.down[:, :: N - 1]
            ends = (up.real**2 + up.imag**2 + down.real**2 + down.imag**2).sum(axis=-1)
            hit = ends > BOUNDARY_CONTACT_EPS
            if hit.any():
                self.contact[hit & (self.contact < 0)] = t
                self.checking = bool((self.contact < 0).any())
        if t in self.snapshot_times:
            self.snapshots[t] = probability_profile(state)
        if t >= self.record_from:
            # squares[0, b] and squares[1, b]: the squared (re, im) floats of up[b] and of down[b].
            stepped = stepped_columns(self.start, t, shape)
            cols = slice(2 * stepped.start, 2 * stepped.stop)
            np.square(state.up[:, stepped].view(np.float64), out=self.squares[0, :, cols])
            np.square(state.down[:, stepped].view(np.float64), out=self.squares[1, :, cols])
            cols = slice(2 * cone.start, 2 * cone.stop)
            centred_sums(self.squares[..., cols], *self.offsets[:, cols], out=(self.mean[:, t], self.sigma[:, t]))

    def finish(self) -> None:
        """Turn the recorded sums into mean and sigma."""
        finish_moments(self.centre, self.mean[:, self.record_from:], self.sigma[:, self.record_from:])


def run_realization(
    N: int,
    T: int,
    alpha_t: float,
    beta_s: float,
    seed: int | Sequence[int],
    snapshot_times=(),
    normalize_variance: bool = False,
    *,
    record_from: int = 0,
) -> TrajectoryStats:
    """Evolve one disorder realization and record its trajectory statistics.

    The walker starts from the symmetric state at site ``N // 2``; fresh
    coin phases are generated from ``seed``.

    ``seed`` may also be a sequence of ``B`` seeds: the realizations are
    then evolved together as ``(B, N)`` arrays, the returned arrays gain a
    leading realization axis and ``boundary_contact_time`` is a tuple with
    one entry per realization.  Row ``b`` is bit for bit what the single
    seed ``seed[b]`` gives.

    Mean and dispersion are recorded from step ``record_from`` on and are
    NaN before it; snapshots and the contact time are exact for any
    ``record_from``.  A caller that reads only the end of the trajectory
    saves the moment work of the steps it does not read.

    Raises
    ------
    InvalidParameterError
        Before any phase synthesis, if an argument breaks the rule
        ``EnsembleConfig`` applies to its field, ``seed`` is neither an
        unsigned 64-bit integer nor a non-empty sequence of them, or
        ``record_from`` lies outside ``[0, T]``.
    """
    checked = _run_arguments(N, T, alpha_t, beta_s, snapshot_times, normalize_variance)
    N, T, alpha_t, beta_s, snapshot_times = checked.values()
    _integer("record_from", record_from, 0, T)
    single = isinstance(seed, (int, np.integer))
    listed = isinstance(seed, (Sequence, np.ndarray)) and not isinstance(seed, str)
    if not (single or listed and len(seed)):
        raise InvalidParameterError(f"seed must be an integer or a non-empty sequence of integers, got {seed!r}")
    seeds = [_check_seed(s) for s in ([seed] if single else seed)]
    rows = [generate_coin_phases(T, N, alpha_t, beta_s, s, normalize=normalize_variance) for s in seeds]
    phases = CoinPhases(theta=np.stack([p.theta for p in rows]), phi=np.stack([p.phi for p in rows]))
    del rows  # Only the stacked copy lives through the evolution.
    start = initial_state_symmetric(N)
    # Read-only views of the one start row: ``evolve`` copies its input.
    shape = (len(seeds), N)
    state = WalkerState(up=np.broadcast_to(start.up, shape), down=np.broadcast_to(start.down, shape))
    recorder = _StatsRecorder(state, T, snapshot_times, record_from)
    recorder.record(0, state)
    evolve(state, phases, T, observer=recorder.record)
    recorder.finish()
    contact = tuple(int(c) if c >= 0 else None for c in recorder.contact)
    row = 0 if single else slice(None)
    return TrajectoryStats(
        mean_position=recorder.mean[row],
        dispersion=recorder.sigma[row],
        snapshots={t: p[row] for t, p in recorder.snapshots.items()},
        boundary_contact_time=contact[0] if single else contact,
    )


def _batch_size(N: int) -> int:
    """Realizations evolved together: at most ``BATCH_SITES`` sites."""
    return max(1, BATCH_SITES // N)


def _tasks(config: EnsembleConfig, record_from: int):
    """One ensemble's batches as stream tasks ``(config, record_from, first, stop)``:
    realizations ``first .. stop - 1`` (1-based), evolved together."""
    R = config.realizations
    B = _batch_size(config.N)
    for first in range(1, R + 1, B):
        yield config, record_from, first, min(first + B, R + 1)


def _run_batch(task) -> TrajectoryStats:
    """Evolve one task's batch; its realization seeds are derived where it runs."""
    config, record_from, first, stop = task
    seeds = [derive_seed(config.master_seed, r) for r in range(first, stop)]
    return run_realization(config.N, config.T, config.alpha_t, config.beta_s, seeds, config.snapshot_times,
                           config.normalize_variance, record_from=record_from)


@contextmanager
def _ensembles(jobs, workers: int | None):
    """Each ``(config, record_from)`` job's ``(stats, contacted)``, in job order.

    Every batch of every job goes through one ordered task stream: serial
    ``map`` for one worker or no job, else the ``imap`` of one pool, which
    lives as long as the ``with`` block and is shut down when it ends, also
    on an error.  Tasks are generated as the stream reaches them and sent
    one at a time, so that few results that finish ahead of their turn
    wait in the parent.  ``_reduce`` takes each job's batches in
    realization order, so the output does not depend on ``workers``,
    which is checked here, also with no job (``None`` is one worker).
    """
    workers = 1 if workers is None else _integer("workers", workers, 1)
    tasks = chain.from_iterable(_tasks(cfg, record_from) for cfg, record_from in jobs)

    def reduced(results):
        return (_reduce(results, cfg) for cfg, _ in jobs)

    if workers == 1 or not jobs:
        yield reduced(map(_run_batch, tasks))
    else:
        with Pool(processes=workers) as pool:
            yield reduced(pool.imap(_run_batch, tasks, chunksize=1))


def run_ensemble(config: EnsembleConfig, workers: int | None = None) -> EnsembleResult:
    """Average trajectories over ``config.realizations`` independent draws.

    Realization ``r`` (1-based) uses coin phases seeded by
    ``derive_seed(master_seed, r)``.  Contiguous runs of realizations are
    evolved together in batches (``run_realization`` with a seed
    sequence) whose size depends on ``N`` only; a realization's row does
    not depend on its batch.  Per-realization results are accumulated
    strictly in realization order, so the output is bit-identical for a
    fixed master seed no matter how many workers are used.

    Raises
    ------
    InvalidParameterError
        If ``workers`` is neither ``None`` nor an integer >= 1.
    """
    started = time.perf_counter()
    with _ensembles([(config, 0)], workers) as results:
        stats, contacted = next(results)
    elapsed = time.perf_counter() - started
    return EnsembleResult(config, stats, contacted, elapsed)


def _reduce(batches, config: EnsembleConfig) -> tuple[TrajectoryStats, int]:
    """Add the rows of the next batches' ``TrajectoryStats`` in realization
    order, until they hold ``config.realizations`` rows."""
    sigma_sum = np.zeros(config.T + 1)
    mean_sum = np.zeros(config.T + 1)
    snap_sums = {t: np.zeros(config.N) for t in config.snapshot_times}
    contact_min: int | None = None
    contacted = 0
    rows = 0

    while rows < config.realizations:
        batch = next(batches)
        rows += len(batch.boundary_contact_time)
        for b, contact in enumerate(batch.boundary_contact_time):
            sigma_sum += batch.dispersion[b]
            mean_sum += batch.mean_position[b]
            if contact is not None:
                contacted += 1
                contact_min = contact if contact_min is None else min(contact_min, contact)
            for t, profile in batch.snapshots.items():
                snap_sums[t] += profile[b]

    R = config.realizations
    sigma_sum /= R
    mean_sum /= R
    stats = TrajectoryStats(
        mean_position=mean_sum,
        dispersion=sigma_sum,
        snapshots={t: total / R for t, total in snap_sums.items()},
        boundary_contact_time=contact_min,
    )
    return stats, contacted


def size_configs(
    base: EnsembleConfig, sizes, window_len: int, horizon=None
) -> list[tuple[EnsembleConfig, int]]:
    """Validated ``(config, window)`` for each lattice size, in the order given.

    Size ``N`` runs ``horizon(N)`` steps (default ``N // 2``) from master
    seed ``derive_seed(base.master_seed, "size", N)`` without snapshots and
    averages its final ``window`` steps (``scaled_windows``); every other
    field comes from ``base``.  Raises ``InvalidParameterError`` on no
    size, a repeated size or one that is not an integer >= 2, an invalid
    config or a ``window_len`` longer than the shortest run, and
    ``ResourceLimitError`` on a size over the update cap.
    """
    _scan_sizes(sizes, least=1)
    configs = [
        replace(
            base,
            N=n,
            T=horizon(n) if horizon is not None else n // 2,
            master_seed=derive_seed(base.master_seed, "size", n),
            snapshot_times=(),
        )
        for n in sizes
    ]
    return list(zip(configs, scaled_windows(window_len, [cfg.T for cfg in configs])))


def _scan_sizes(sizes, least: int = 3) -> tuple[int, ...]:
    """The lattice sizes of a scan in increasing order: at least ``least``
    distinct integers >= 2 (a gamma fit needs 3)."""
    sizes = [_integer("lattice size", n, 2) for n in sizes]
    if len(sizes) < least or len(set(sizes)) < len(sizes):
        raise InvalidParameterError(f"need {least} or more distinct lattice sizes, got {sizes}")
    return tuple(sorted(sizes))


def _grid(name: str, values) -> tuple[float, ...]:
    """A sweep axis: at least one value of exponent ``name``, none repeated."""
    grid = tuple(_exponent(name, v) for v in values)
    if not grid:
        raise InvalidParameterError(f"the {name} grid must hold at least one value")
    if len(set(grid)) < len(grid):
        raise InvalidParameterError(f"the {name} grid repeats a value: {list(grid)}")
    return grid


def size_scan(
    base: EnsembleConfig,
    sizes,
    *,
    window_len: int = 100,
    workers: int | None = None,
) -> list[tuple[int, float]]:
    """Long-time mean dispersion versus lattice size.

    Runs one ensemble per size with ``T = N // 2`` and independent derived
    seeds, and averages the dispersion over a window proportional to the
    horizon: the smallest size uses its final ``window_len`` steps and
    size ``N`` its final ``window_len * T_N // T_min`` (``scaled_windows``).
    Mean and dispersion are recorded only inside each size's window.
    The output is ordered by increasing ``N``.

    Raises
    ------
    InvalidParameterError
        If fewer than 3 sizes are given, ``workers`` is neither ``None`` nor
        an integer >= 1, or as ``size_configs`` does.
    """
    configs = size_configs(base, _scan_sizes(sizes), window_len)
    with _ensembles(_windowed(configs), workers) as results:
        return _scan_points(configs, results)


def _windowed(configs) -> list[tuple[EnsembleConfig, int]]:
    """``(config, record_from)`` jobs that record only each size's window."""
    return [(cfg, cfg.T + 1 - window) for cfg, window in configs]


def _scan_points(configs, results) -> list[tuple[int, float]]:
    """``(N, sigma_bar)`` of each ``(config, window)``, reduced from the next
    entries of ``results``."""
    points = []
    for (cfg, window), (stats, _) in zip(configs, results):
        points.append((cfg.N, longtime_avg_dispersion(stats, window)))
        log.info("size scan N=%d: sigma_bar=%.6g (last %d steps)", cfg.N, points[-1][1], window)
    return points


_REGIMES = [label.value for label in RegimeLabel]

# What each result field of a cell file must hold.
_CELL_FIELDS = {
    "gamma": ("a number", _is_real),
    "stderr": ("a number", _is_real),
    "regime": ("one of " + ", ".join(_REGIMES), lambda v: v in _REGIMES),
    "points": (
        "a list of [N, sigma_bar] pairs",
        lambda v: isinstance(v, list)
        and all(isinstance(p, list) and len(p) == 2 and _is_int(p[0]) and _is_real(p[1]) for p in v),
    ),
}


def _load_cell(path: Path, fingerprint: dict) -> dict:
    """Read a finished cell, refusing a damaged one or one computed with
    other settings: each result field must hold a value of its kind, and
    every key of ``fingerprint`` the same value in the cell, whose
    ``sizes`` are the sizes of its points."""
    redo = "recompute it with --force (force=True) or use a fresh output directory"
    try:
        with open(path, encoding="utf-8") as fh:
            cell = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InvalidParameterError(f"{path} is not a readable cell file ({exc}); {redo}")
    if not isinstance(cell, dict) or not _CELL_FIELDS.keys() <= cell.keys():
        raise InvalidParameterError(f"{path} is not a complete cell file; {redo}")
    for key, (kind, valid) in _CELL_FIELDS.items():
        if not valid(cell[key]):
            raise InvalidParameterError(f"{path} holds {key} = {cell[key]!r}, not {kind}; {redo}")
    found = {**cell, "sizes": [n for n, _ in cell["points"]]}
    for key, expected in fingerprint.items():
        if found.get(key) != expected:
            raise InvalidParameterError(
                f"{path} was computed with {key} = {found.get(key)!r}, not {expected!r}; {redo}"
            )
    return cell


def phase_diagram_sweep(
    grid_alpha,
    grid_beta,
    base: EnsembleConfig,
    sizes,
    *,
    window_len: int = 100,
    workers: int | None = None,
    out_dir: str | Path | None = None,
    force: bool = False,
) -> list[dict]:
    """Fit the size-scaling exponent over an ``(alpha_t, beta_s)`` grid.

    Every cell runs an independent size scan (seeded from the base master
    seed and the cell indices, averaging over ``size_scan``'s horizon-
    proportional windows), fits gamma, and classifies the regime; of
    ``base`` it reads only ``realizations``, ``master_seed``,
    ``normalize_variance`` and ``update_cap``.  Returns
    one record per cell in grid order (alpha outer, beta inner): the dict
    its cell file holds, with the settings it was computed with (alpha,
    beta, derived master seed, realization count, variance normalisation,
    averaging window per size) and its gamma, stderr, regime label and
    ``[N, sigma_bar]`` points.  With ``out_dir`` set, each completed cell
    is written atomically as JSON under ``cells/``, and re-runs reuse
    cells whose files already exist unless ``force`` is true.  A cell file
    that cannot be read, or whose results, sizes or settings differ from
    this sweep's, is refused rather than mixed into the grid.  Every cell's
    configuration is validated, and every existing cell file loaded, before
    any cell is computed or written.  The cells still to compute share one
    task stream (and with ``workers`` > 1 one worker pool); each cell is
    written as soon as its last size is reduced, so an interrupted sweep
    resumes from its finished cells.
    """
    alphas = _grid("alpha_t", grid_alpha)
    betas = _grid("beta_s", grid_beta)
    ordered_sizes = _scan_sizes(sizes)

    records = []
    pending = []
    for i, alpha in enumerate(alphas):
        for j, beta in enumerate(betas):
            # The cell's smallest run, from which ``size_configs`` derives all its runs.
            cell_base = replace(
                base, N=ordered_sizes[0], T=ordered_sizes[0] // 2, alpha_t=alpha, beta_s=beta,
                master_seed=derive_seed(base.master_seed, "cell", i, j), snapshot_times=(),
            )
            configs = size_configs(cell_base, ordered_sizes, window_len)
            cell_file = Path(out_dir, "cells", f"cell_{i:03d}_{j:03d}.json") if out_dir is not None else None
            record = {
                "alpha": alpha,
                "beta": beta,
                "master_seed": cell_base.master_seed,
                "realizations": base.realizations,
                "normalize_variance": base.normalize_variance,
                "windows": [[cfg.N, window] for cfg, window in configs],
            }
            if cell_file is not None and cell_file.exists() and not force:
                record = _load_cell(cell_file, {"sizes": list(ordered_sizes), **record})
                log.info("cell (alpha=%g, beta=%g): reusing %s", alpha, beta, cell_file)
            else:
                pending.append((record, cell_file, configs))
            records.append(record)

    jobs = [job for *_, configs in pending for job in _windowed(configs)]
    with _ensembles(jobs, workers) as results:
        for record, cell_file, configs in pending:
            cell_points = _scan_points(configs, results)
            g, se = fit_gamma(cell_points)
            record.update(
                gamma=g, stderr=se, regime=classify_regime(g).value, points=[[n, s] for n, s in cell_points]
            )
            if cell_file is not None:
                io.write_json(cell_file, record)
            log.info("cell (alpha=%g, beta=%g): gamma=%.4f (%s)", record["alpha"], record["beta"], g, record["regime"])
    return records
