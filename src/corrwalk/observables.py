"""Probability profiles, dispersion, and scaling-exponent fits."""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateSeriesError, InsufficientDataError, InvalidParameterError, _integer
from .walk import WalkerState

# The dynamical regimes by increasing size-scaling exponent, and the edges between their bands.
REGIMES = ("localized", "subdiffusive", "diffusive", "superdiffusive", "ballistic")
REGIME_EDGES = (0.10, 0.40, 0.60, 0.90)

# Steps of the long-time dispersion average (at the smallest size of a scan).
DEFAULT_SIGMA_WINDOW = 100


@dataclass
class TrajectoryStats:
    """Time series of the walker's mean position and dispersion, entry
    ``t`` at step ``t``.

    ``snapshots`` maps each time step asked for to the full probability
    profile recorded there.  ``boundary_contact_time`` is the first step
    at which the probability at the chain ends exceeded the contact
    threshold (None if it never did); statistics past that time include
    wrap-around artefacts.

    A batch of ``B`` realizations (``run_realization`` with a seed
    sequence) carries ``(B, T + 1)`` mean and dispersion arrays, ``(B, N)``
    snapshots and one contact time per realization in a tuple.
    """

    mean_position: np.ndarray
    dispersion: np.ndarray
    snapshots: dict[int, np.ndarray] = field(default_factory=dict)
    boundary_contact_time: int | None | tuple[int | None, ...] = None

    def __post_init__(self) -> None:
        self.mean_position = np.asarray(self.mean_position, dtype=np.float64)
        self.dispersion = np.asarray(self.dispersion, dtype=np.float64)
        if self.mean_position.shape != self.dispersion.shape:
            raise InvalidParameterError("mean_position and dispersion must share one shape")
        if self.dispersion.ndim not in (1, 2) or self.dispersion.shape[-1] == 0:
            raise InvalidParameterError("trajectory must be a (T + 1,) or (B, T + 1) array with T >= 0")
        if np.any(self.dispersion < 0):
            raise InvalidParameterError("dispersion values must be non-negative")


def _one_trajectory(stats: TrajectoryStats) -> TrajectoryStats:
    """``stats`` if it holds one trajectory; a batch raises ``InvalidParameterError``."""
    if stats.dispersion.ndim != 1:
        raise InvalidParameterError(f"expected one trajectory, got a batch of shape {stats.dispersion.shape}")
    return stats


def probability_profile(state: WalkerState) -> np.ndarray:
    """Born-rule site probabilities ``|up_n|^2 + |down_n|^2``."""
    up = state.up
    down = state.down
    return up.real**2 + up.imag**2 + down.real**2 + down.imag**2


def centred_sums(weights, offsets, offsets_sq, out=(None, None)):
    """The sums ``a`` and ``b`` of each row ``weights[:, i]`` times the offsets.

    ``weights`` has shape ``(k, rows, n)``, and along its last axis
    ``offsets`` are the sites minus a centre ``c``, ``offsets_sq`` their
    squares; ``out`` may name the two ``(rows,)`` arrays to write.
    ``finish_moments`` turns the sums into mean and dispersion.  ``einsum``
    row sums, unlike ``np.dot``, do not depend on the other rows.
    """
    a = np.einsum("kij,j->i", weights, offsets, out=out[0])
    b = np.einsum("kij,j->i", weights, offsets_sq, out=out[1])
    return a, b


def finish_moments(centre, a, b):
    """Mean ``c + a`` and sigma ``sqrt(max(b - a**2, 0))`` from ``centred_sums``.

    Written in place over ``a`` and ``b``, which are returned.  The
    variance's rounding error grows as ``((mean - c) / sigma)**2``; a NaN
    sum gives a NaN moment.
    """
    np.subtract(b, a * a, out=b)
    np.maximum(b, 0.0, out=b)
    np.sqrt(b, out=b)
    np.add(a, centre, out=a)
    return a, b


def dispersion(profile) -> tuple[float, float]:
    """Mean site and spread of a probability profile over sites ``1 .. N``.

    Returns ``(mean, sigma)`` with ``mean = sum n P_n`` and
    ``sigma = sqrt(sum (n - mean)^2 P_n)``, by ``centred_sums`` and
    ``finish_moments`` about the most probable site ``c``: as
    ``P_c >= 1/N``, ``|mean - c| <= sigma sqrt(N)``.

    Raises
    ------
    InvalidParameterError
        If the profile has negative or non-finite entries or does not sum
        to 1 within 1e-8.
    """
    p = np.asarray(profile, dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise InvalidParameterError("profile must be a non-empty 1-D array")
    if not np.all((p >= 0) & (p < np.inf)):
        raise InvalidParameterError("profile contains negative or non-finite probabilities")
    total = p.sum()
    if abs(total - 1.0) > 1e-8:
        raise InvalidParameterError(f"profile sums to {total!r}, expected 1 within 1e-8")
    centre = float(np.argmax(p) + 1)
    offsets = np.arange(1.0, p.size + 1.0) - centre
    mean, sigma = finish_moments(centre, *centred_sums(p[None, None], offsets, offsets * offsets))
    return float(mean[0]), float(sigma[0])


def _loglog_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Unweighted OLS slope of log y vs log x, with its standard error."""
    lx = np.log(np.asarray(x, dtype=np.float64))
    ly = np.log(np.asarray(y, dtype=np.float64))
    dx = lx - lx.mean()
    sxx = float(np.dot(dx, dx))
    if sxx == 0.0:
        raise DegenerateSeriesError("all x values coincide; slope is undefined")
    slope = float(np.dot(dx, ly) / sxx)
    resid = ly - ly.mean() - slope * dx
    dof = max(lx.size - 2, 1)
    stderr = float(np.sqrt(np.dot(resid, resid) / dof / sxx))
    return slope, stderr


@dataclass(frozen=True)
class HurstFit:
    """A Hurst fit and the window it used; unpacks as ``(H, stderr)``."""

    H: float
    stderr: float
    window: tuple[int, int]
    fallback: bool = False

    def __iter__(self):
        return iter((self.H, self.stderr))


def fit_hurst(stats: TrajectoryStats, window: tuple[int, int] | None = None) -> HurstFit:
    """Fit ``sigma(t) ~ t**H`` by least squares on the log-log series.

    Parameters
    ----------
    stats : TrajectoryStats
        Recorded trajectory; only entries with ``t >= 1`` can enter the
        fit.
    window : (t_min, t_max), optional
        Inclusive time bounds.  Defaults to ``[T // 5, T_eff]`` where
        ``T`` is the last recorded time and ``T_eff`` caps it at the
        boundary-contact time.  If contact comes so early that the default
        cannot be fitted (strongly ballistic runs), the pre-contact span
        ``[max(1, T_eff // 5), T_eff]`` is fitted instead, as a fallback.
        An explicit window must not extend past boundary contact or the
        last recorded step.

    Returns
    -------
    HurstFit
        ``H``, its ``stderr``, the ``window`` fitted and whether it is the
        ``fallback``; unpacks as ``(H, stderr)``.

    Raises
    ------
    InsufficientDataError
        Fewer than 5 points fall inside the window.
    DegenerateSeriesError
        The window contains non-positive or unrecorded (NaN) dispersion
        values.
    InvalidParameterError
        ``stats`` is a batch, or the window extends past the
        boundary-contact time or the last recorded step.

    A window's error carries the last window tried as ``window``.
    """
    t_last = _one_trajectory(stats).dispersion.size - 1
    contact = stats.boundary_contact_time
    t_eff = t_last if contact is None else min(t_last, int(contact))
    if window is not None:
        windows = [(int(window[0]), int(window[1]))]
    else:
        windows = [(t_last // 5, t_eff), (max(1, t_eff // 5), t_eff)]
    for fallback, (t_min, t_max) in enumerate(windows):
        first = max(t_min, 1)
        sig = stats.dispersion[first : max(first, t_max + 1)]
        if contact is not None and t_max > contact:
            error = InvalidParameterError(
                f"fit window [{t_min}, {t_max}] extends past boundary contact at t={contact}"
            )
        elif t_max > t_last:
            error = InvalidParameterError(f"fit window [{t_min}, {t_max}] extends past the last step, t={t_last}")
        elif sig.size < 5:
            error = InsufficientDataError(
                f"fit window [{t_min}, {t_max}] contains {sig.size} points, need at least 5"
            )
        elif not np.all(sig > 0):
            error = DegenerateSeriesError("dispersion must be recorded (not NaN) and positive inside the fit window")
        else:
            return HurstFit(*_loglog_fit(np.arange(first, first + sig.size), sig), (t_min, t_max), bool(fallback))
    error.window = (t_min, t_max)
    raise error


def longtime_avg_dispersion(stats: TrajectoryStats, window_len: int = DEFAULT_SIGMA_WINDOW) -> float:
    """Arithmetic mean of the dispersion over the final ``window_len`` entries.

    The window is used as given.  Size scans pass a window that grows
    with each size's horizon (see ``scaled_windows``); a fixed window
    would bias the fitted size-scaling exponent upwards.  A batch of
    trajectories raises ``InvalidParameterError``, and a window holding an
    unrecorded (NaN) step ``DegenerateSeriesError``, as in ``fit_hurst``.
    """
    window_len = _integer("window_len", window_len, 1)
    entries = _one_trajectory(stats).dispersion.size
    if entries < window_len:
        raise InsufficientDataError(f"trajectory has {entries} entries, need at least {window_len}")
    window = stats.dispersion[-window_len:]
    if np.isnan(window).any():
        raise DegenerateSeriesError(f"dispersion must be recorded (not NaN) in the final {window_len} steps")
    return float(np.mean(window))


def scaled_windows(window_len: int, horizons) -> list[int]:
    """Long-time averaging window for each horizon of a size scan.

    The shortest horizon ``T_min`` averages its final ``window_len``
    steps; horizon ``T`` averages its final ``window_len * T // T_min``
    steps, so every window covers the same fraction of its run.  For a
    power law ``sigma = c * t**H`` the averages then scale exactly as
    ``T**H`` (up to step discretisation), whereas a fixed window
    averages ``c * (T - window_len / 2)**H`` and biases fitted exponents
    upwards.  Horizons equal to ``T_min`` keep exactly ``window_len``
    (so one shared horizon changes nothing); longer ones are capped at
    their ``T + 1`` recorded entries.

    Raises
    ------
    InvalidParameterError
        If ``window_len`` or a horizon is not a positive integer, or
        the shortest run records fewer than ``window_len`` entries
        (``window_len > T_min + 1``).
    """
    window_len = _integer("window_len", window_len, 1)
    ts = [_integer("horizons entry", t, 1) for t in horizons]
    if not ts:
        raise InvalidParameterError("horizons must hold at least one horizon")
    t_min = min(ts)
    if window_len > t_min + 1:
        raise InvalidParameterError(
            f"averaging window of {window_len} steps exceeds the {t_min + 1} entries "
            f"recorded by the shortest run (T = {t_min})"
        )
    return [window_len if t == t_min else min(window_len * t // t_min, t + 1) for t in ts]


def fit_gamma(points) -> tuple[float, float]:
    """Fit ``sigma_bar ~ N**gamma`` from ``(N, sigma_bar)`` pairs.

    Returns ``(gamma, stderr)`` from an unweighted OLS fit of
    ``log sigma_bar`` vs ``log N``; requires at least 3 points, each
    positive and finite.
    """
    pts = list(points)
    if len(pts) < 3:
        raise InsufficientDataError(f"need at least 3 (N, sigma_bar) points, got {len(pts)}")
    sizes = np.array([p[0] for p in pts], dtype=np.float64)
    sbar = np.array([p[1] for p in pts], dtype=np.float64)
    if not np.all((sizes > 0) & (sizes < np.inf) & (sbar > 0) & (sbar < np.inf)):
        raise InvalidParameterError("all points must be positive and finite for a log-log fit")
    return _loglog_fit(sizes, sbar)


def classify_regime(gamma: float) -> str:
    """The label of a size-scaling exponent: ``REGIMES[i]`` for gamma in the
    half-open band ``[REGIME_EDGES[i - 1], REGIME_EDGES[i])``, so an edge
    belongs to the band above it (0.10 is subdiffusive, 0.90 ballistic)."""
    g = float(gamma)
    if not np.isfinite(g):
        raise InvalidParameterError(f"gamma must be finite, got {gamma}")
    return REGIMES[bisect_right(REGIME_EDGES, g)]
