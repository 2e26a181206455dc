"""Long-range correlated random phase sequences for the coin operator.

A sequence of length ``M`` is synthesised as a sum of ``M/2`` cosine modes
whose amplitudes follow a power law in the mode number, so the trace looks
like fractional Brownian motion with spectrum ``S(k) ~ 1/k**nu``.  A tanh
squash then maps the unbounded trace into phase values in ``[0, 2*pi)``.
``nu = 0`` gives uncorrelated values; increasing ``nu`` gives smoother,
more strongly correlated sequences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, _exponent, _integer

TWO_PI = 2.0 * np.pi

# tanh saturates to exactly +/-1 in double precision, so the squash clamps
# its output just below 2*pi to preserve the half-open range.
_PHASE_SUP = np.nextafter(TWO_PI, 0.0)


def derive_seed(master_seed: int, *labels: int | str) -> int:
    """Derive a 64-bit sub-stream seed from a master seed.

    Labels (integers or short strings such as ``"theta"``/``"phi"``, or a
    realization index) select the sub-stream; the same labels always give
    the same seed.  The master seed and the labels are packed into one
    list of 32-bit words, each integer as its base-``2**32`` digits, least
    significant first (0 as one zero word), and each string as the
    integer whose little-endian bytes are its UTF-8 encoding;
    ``numpy.random.SeedSequence`` hashes that list.  So two calls give the
    same seed when their word lists agree, or differ only by trailing zero
    words while neither holds more than four words:
    ``derive_seed(5, "a") == derive_seed(5, 97)``,
    ``derive_seed(5, "cell", 0, 0) == derive_seed(5, "cell")`` and
    ``derive_seed(5 + 7 * 2**32, 9) == derive_seed(5, 7, 9)``.  Other word
    lists give different seeds unless their 64-bit hashes collide.

    Parameters
    ----------
    master_seed : int
        Unsigned 64-bit master seed.
    *labels : int or str
        Sub-stream selectors, hashed together with the master seed.

    Returns
    -------
    int
        Unsigned 64-bit seed for the selected sub-stream.
    """
    entropy = [_check_seed(master_seed)]
    for label in labels:
        if isinstance(label, str):
            entropy.append(int.from_bytes(label.encode("utf-8"), "little"))
        else:
            entropy.append(_integer("a non-string label", label, 0))
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


def _check_seed(seed) -> int:
    """``seed`` as an ``int`` if it is an unsigned 64-bit integer."""
    return _integer("seed", seed, 0, 2**64 - 1)


def _finite(values, name: str, dims: tuple[int, ...] = (1,)) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim not in dims or arr.size == 0:
        raise InvalidParameterError(f"{name} must be a non-empty {' or '.join(f'{d}-D' for d in dims)} array")
    if not np.all(np.isfinite(arr)):
        raise InvalidParameterError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True)
class CoinPhases:
    """Coin phases for one disorder realization, or a batch of them.

    ``theta`` holds one angle per time step, ``phi`` one angle per lattice
    site, as float64 values in ``[0, 2*pi)``: ``(T',)`` and ``(N,)`` arrays
    for one realization, ``(B, T')`` and ``(B, N)`` for a batch of ``B``,
    one per row, as a ``WalkerState`` holds its walkers.  A ``theta`` and
    ``phi`` whose rows differ are refused.  Both are stored as read-only
    views: no copy is made, and the caller's array stays writeable.
    """

    theta: np.ndarray
    phi: np.ndarray

    def __post_init__(self) -> None:
        for name in ("theta", "phi"):
            view = _finite(getattr(self, name), name, (1, 2)).view()
            if view.min() < 0.0 or view.max() >= TWO_PI:
                raise InvalidParameterError(f"{name} values must lie in [0, 2*pi)")
            view.flags.writeable = False
            object.__setattr__(self, name, view)
        if self.theta.shape[:-1] != self.phi.shape[:-1]:
            raise InvalidParameterError(f"CoinPhases theta {self.theta.shape} and phi {self.phi.shape} differ in rows")


def generate_fbm_trace(n: int, nu: float, seed: int) -> np.ndarray:
    """The first ``n`` values of the correlated trace for ``(nu, seed)``.

    Index ``i`` holds position ``j = i + 1`` of the trace of even length
    ``M``, whose value at ``j = 1 .. M`` is

        sum_{k=1}^{M/2} sqrt((2*pi/M)**(1 - nu) / k**nu) * cos(2*pi*j*k/M + mu_k)

    with the ``mu_k`` drawn independently and uniformly from ``[0, 2*pi)``
    out of the stream seeded by ``seed``.  Deterministic for a fixed seed.
    The sum is evaluated as an inverse DFT of the amplitude-weighted random
    phasors, in O(M log M).  ``M`` is ``n``, padded to ``n + 1`` for an odd
    ``n``: truncating the padded trace preserves its correlation structure.
    Raises ``InvalidParameterError`` unless ``n`` is a positive integer,
    ``nu`` finite and >= 0 (and its amplitudes finite, ``_mode_scale``),
    and ``seed`` an unsigned 64-bit integer.  The trace is not rescaled:
    its variance depends on nu and M (pi/2 at nu = 0).
    """
    n = _integer("trace length", n, 1)
    nu = _exponent("nu", nu)
    scale = _mode_scale("nu", nu, n)
    M = n + n % 2
    rng = np.random.default_rng(_check_seed(seed))
    mode_phases = rng.uniform(0.0, TWO_PI, M // 2)
    k = np.arange(1, M // 2 + 1)
    amps = np.sqrt(scale * k ** (-nu))

    modes = np.zeros(M, dtype=np.complex128)
    modes[1 : M // 2 + 1] = amps * np.exp(1j * mode_phases)
    # ifft(modes)[m] * M = sum_k amps_k * exp(i(2*pi*m*k/M + mu_k)); its
    # real part is the mode sum at position m, and position j = M wraps
    # to m = 0.
    wave = np.fft.ifft(modes).real
    trace = np.concatenate((wave[1:], wave[:1]))
    trace *= M
    return trace[:n]


def _mode_scale(name: str, nu: float, n: int) -> float:
    """``(2*pi/M)**(1 - nu)``, the squared first and largest mode amplitude
    of the trace of length ``n`` (``M`` as in ``generate_fbm_trace``) for
    exponent ``nu``; refused unless it and ``M/2`` times its root, which
    bounds the amplitude sum and so every trace value, are finite in float64."""
    M = n + n % 2
    try:
        scale = (TWO_PI / M) ** (1.0 - nu)
    except OverflowError:
        scale = math.inf
    if not math.isfinite(M // 2 * math.sqrt(scale)):
        raise InvalidParameterError(f"{name} = {nu!r} overflows float64 in a correlated trace of length {n}")
    return scale


def squash_to_phase(trace) -> np.ndarray:
    """Map an unbounded real trace into ``[0, 2*pi)`` via ``pi*(tanh(x) + 1)``.

    The map is strictly monotone increasing and order preserving; the open
    upper end is enforced by clamping the floating-point saturation of
    tanh just below ``2*pi``.

    Raises
    ------
    InvalidParameterError
        If the trace is empty or contains non-finite entries.
    """
    vals = np.pi * (np.tanh(_finite(trace, "trace")) + 1.0)
    np.minimum(vals, _PHASE_SUP, out=vals)
    return vals


def generate_coin_phases(T: int, N: int, alpha_t: float, beta_s: float, seed: int) -> CoinPhases:
    """Generate the temporal and spatial coin-phase sequences for one run.

    ``theta`` is the squashed trace of length ``T`` with exponent
    ``alpha_t``; ``phi`` that of length ``N`` with exponent ``beta_s``
    (``generate_fbm_trace``, which pads odd lengths).  The two mode-phase
    draws are statistically independent: their generators are seeded from
    the unsigned 64-bit ``seed`` through the sub-stream labels ``"theta"``
    and ``"phi"``.
    """
    theta = generate_fbm_trace(T, alpha_t, derive_seed(seed, "theta"))
    phi = generate_fbm_trace(N, beta_s, derive_seed(seed, "phi"))
    return CoinPhases(theta=squash_to_phase(theta), phi=squash_to_phase(phi))

