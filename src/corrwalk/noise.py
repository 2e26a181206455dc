"""Long-range correlated random phase sequences for the coin operator.

A sequence of length ``M`` is synthesised as a sum of ``M/2`` cosine modes
whose amplitudes follow a power law in the mode number, so the trace looks
like fractional Brownian motion with spectrum ``S(k) ~ 1/k**nu``.  A tanh
squash then maps the unbounded trace into phase values in ``[0, 2*pi)``.
``nu = 0`` gives uncorrelated values; increasing ``nu`` gives smoother,
more strongly correlated sequences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError

TWO_PI = 2.0 * np.pi

# tanh saturates to exactly +/-1 in double precision, so the squash clamps
# its output just below 2*pi to preserve the half-open range.
_PHASE_SUP = np.nextafter(TWO_PI, 0.0)


def derive_seed(master_seed: int, *labels: int | str) -> int:
    """Derive an independent 64-bit sub-stream seed from a master seed.

    Labels (integers or short strings such as ``"theta"``/``"phi"``, or a
    realization index) select the sub-stream.  Distinct label tuples give
    statistically independent streams; the same tuple always gives the
    same seed.

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
        elif isinstance(label, (int, np.integer)):
            if label < 0:
                raise InvalidParameterError(f"integer labels must be non-negative, got {label}")
            entropy.append(int(label))
        else:
            raise InvalidParameterError(f"labels must be ints or strings, got {type(label).__name__}")
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


def _check_seed(seed: int) -> int:
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool):
        raise InvalidParameterError(f"seed must be an integer, got {type(seed).__name__}")
    if not 0 <= seed < 2**64:
        raise InvalidParameterError(f"seed must be a 64-bit unsigned integer, got {seed}")
    return int(seed)


@dataclass(frozen=True)
class CorrelationSpec:
    """Recipe for one correlated random sequence.

    Attributes
    ----------
    nu : float
        Power-law exponent of the mode amplitudes, ``nu >= 0``.
    length : int
        Sequence length ``M``; must be even and at least 2 (the mode sum
        runs over ``k = 1 .. M/2``).
    seed : int
        Unsigned 64-bit seed for the mode-phase draws.
    """

    nu: float
    length: int
    seed: int

    def __post_init__(self) -> None:
        if not np.isfinite(self.nu) or self.nu < 0:
            raise InvalidParameterError(f"nu must be a finite non-negative real, got {self.nu}")
        if not isinstance(self.length, (int, np.integer)) or self.length < 2 or self.length % 2:
            raise InvalidParameterError(f"length must be an even integer >= 2, got {self.length}")
        _check_seed(self.seed)


@dataclass(frozen=True)
class PhaseSequence:
    """Immutable 1-D sequence of angles, each in ``[0, 2*pi)``."""

    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.array(self.values, dtype=np.float64, copy=True)
        if vals.ndim != 1 or vals.size == 0:
            raise InvalidParameterError("phase sequence must be a non-empty 1-D array")
        if not np.all(np.isfinite(vals)):
            raise InvalidParameterError("phase sequence contains non-finite values")
        if vals.min() < 0.0 or vals.max() >= TWO_PI:
            raise InvalidParameterError("phase values must lie in [0, 2*pi)")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class CoinPhases:
    """Coin phases for one disorder realization.

    ``theta`` holds one angle per time step, ``phi`` one angle per lattice
    site.
    """

    theta: PhaseSequence
    phi: PhaseSequence


def generate_fbm_trace(spec: CorrelationSpec, *, normalize: bool = False) -> np.ndarray:
    """Synthesise the correlated trace described by ``spec``.

    The trace value at position ``j`` (1-based, ``j = 1 .. M``) is

        sum_{k=1}^{M/2} sqrt((2*pi/M)**(1 - nu) / k**nu) * cos(2*pi*j*k/M + mu_k)

    with the ``mu_k`` drawn independently and uniformly from ``[0, 2*pi)``
    out of the seeded stream.  Deterministic for a fixed seed.  The sum is
    evaluated as an inverse DFT of the amplitude-weighted random phasors,
    in O(M log M).

    Parameters
    ----------
    spec : CorrelationSpec
        Exponent, length, and seed of the sequence.
    normalize : bool
        If true, rescale the trace to zero mean and unit sample variance
        before returning it.  Off by default: the raw mode sum has a nu-
        and M-dependent variance (pi/2 at nu = 0).

    Returns
    -------
    numpy.ndarray
        Real trace of length ``spec.length``; index ``i`` holds position
        ``j = i + 1``.
    """
    M = int(spec.length)
    rng = np.random.default_rng(spec.seed)
    mode_phases = rng.uniform(0.0, TWO_PI, M // 2)
    k = np.arange(1, M // 2 + 1)
    amps = np.sqrt((TWO_PI / M) ** (1.0 - spec.nu) * k ** (-float(spec.nu)))

    modes = np.zeros(M, dtype=np.complex128)
    modes[1 : M // 2 + 1] = amps * np.exp(1j * mode_phases)
    # ifft(modes)[m] * M = sum_k amps_k * exp(i(2*pi*m*k/M + mu_k)); its
    # real part is the mode sum at position m, and position j = M wraps
    # to m = 0.
    wave = np.fft.ifft(modes).real
    wave *= M
    trace = np.empty(M)
    trace[: M - 1] = wave[1:]
    trace[M - 1] = wave[0]

    if normalize:
        trace = (trace - trace.mean()) / trace.std()
    return trace


def squash_to_phase(trace) -> PhaseSequence:
    """Map an unbounded real trace into ``[0, 2*pi)`` via ``pi*(tanh(x) + 1)``.

    The map is strictly monotone increasing and order preserving; the open
    upper end is enforced by clamping the floating-point saturation of
    tanh just below ``2*pi``.

    Raises
    ------
    InvalidParameterError
        If the trace is empty or contains non-finite entries.
    """
    arr = np.asarray(trace, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise InvalidParameterError("trace must be a non-empty 1-D array")
    if not np.all(np.isfinite(arr)):
        raise InvalidParameterError("trace contains non-finite entries")
    vals = np.pi * (np.tanh(arr) + 1.0)
    np.minimum(vals, _PHASE_SUP, out=vals)
    return PhaseSequence(vals)


def generate_coin_phases(
    T: int,
    N: int,
    alpha_t: float,
    beta_s: float,
    seed: int,
    *,
    normalize: bool = False,
) -> CoinPhases:
    """Generate the temporal and spatial coin-phase sequences for one run.

    ``theta`` is built from a trace of length ``T`` with exponent
    ``alpha_t``; ``phi`` from a trace of length ``N`` with exponent
    ``beta_s``.  The two mode-phase draws are statistically independent:
    their generators are seeded from ``seed`` through the sub-stream
    labels ``"theta"`` and ``"phi"``.  Odd lengths are padded as
    ``trace_of_length`` describes.

    Parameters
    ----------
    T, N : int
        Number of time steps and lattice sites (>= 1 each).
    alpha_t, beta_s : float
        Power-law exponents of the temporal and spatial correlations.
    seed : int
        Unsigned 64-bit master seed for this realization.
    normalize : bool
        Rescale both traces to zero mean and unit variance before the
        squash (see ``generate_fbm_trace``).
    """
    theta = trace_of_length(T, alpha_t, derive_seed(seed, "theta"), normalize=normalize)
    phi = trace_of_length(N, beta_s, derive_seed(seed, "phi"), normalize=normalize)
    return CoinPhases(theta=squash_to_phase(theta), phi=squash_to_phase(phi))


def trace_of_length(n: int, nu: float, seed: int, *, normalize: bool = False) -> np.ndarray:
    """The first ``n`` values of the correlated trace for ``(nu, seed)``.

    ``CorrelationSpec`` needs an even length, so an odd ``n`` is padded to
    the next even value and the trace truncated, which preserves the
    correlation structure.  Raises ``InvalidParameterError`` unless ``n``
    is a positive integer.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise InvalidParameterError(f"trace length must be a positive integer, got {n!r}")
    spec = CorrelationSpec(nu=nu, length=n + n % 2, seed=seed)
    return generate_fbm_trace(spec, normalize=normalize)[:n]
