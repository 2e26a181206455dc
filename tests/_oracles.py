"""Independent reference implementations used by the test suite only."""

import numpy as np

from corrwalk import InvalidParameterError
from corrwalk.walk import WalkerState

INV_SQRT2 = 1.0 / np.sqrt(2.0)
TWO_PI = 2.0 * np.pi

# Block width of the literal mode sum; bounds the cosine table at
# block * M/2 doubles.
_DIRECT_BLOCK = 1024


def initial_state_generic(N, amplitudes):
    """Build a normalized state from ``(site, up, down)`` amplitude entries.

    Sites are 1-based; entries for the same site accumulate.  The state is
    rescaled to unit norm and the applied factor returned alongside it.
    Raises ``InvalidParameterError`` on an empty amplitude list, a site
    outside ``[1, N]``, or zero total norm.
    """
    if not isinstance(N, (int, np.integer)) or N < 2:
        raise InvalidParameterError(f"N must be an integer >= 2, got {N}")
    up = np.zeros(N, dtype=np.complex128)
    down = np.zeros(N, dtype=np.complex128)
    empty = True
    for site, amp_up, amp_down in amplitudes:
        empty = False
        if not 1 <= site <= N:
            raise InvalidParameterError(f"site {site} outside [1, {N}]")
        up[site - 1] += amp_up
        down[site - 1] += amp_down
    if empty:
        raise InvalidParameterError("amplitude list is empty")
    norm = np.sqrt(np.vdot(up, up).real + np.vdot(down, down).real)
    if norm == 0.0:
        raise InvalidParameterError("total norm is zero")
    factor = 1.0 / norm
    up *= factor
    down *= factor
    return WalkerState(up=up, down=down), factor


def norm(state):
    """Euclidean norm: a float for one walker, one value per row for a batch."""
    sq = state.up.real**2 + state.up.imag**2 + state.down.real**2 + state.down.imag**2
    norms = np.sqrt(sq.sum(axis=-1))
    return float(norms) if norms.ndim == 0 else norms


def whole_lattice_step(state, theta_t, phi):
    """One step of one walker on the whole periodic lattice.

    It keeps the kernel's arithmetic order: ``x = d e^{i theta}``, then
    ``(u + x) / sqrt 2`` gathered from site ``n + 1`` and
    ``(u - x) (e^{i phi_n} / sqrt 2)`` from site ``n - 1``.  So its
    amplitudes equal those of ``evolve`` bit for bit.
    """
    x = state.down * np.exp(1j * float(theta_t))
    up = np.roll(state.up + x, -1) * INV_SQRT2
    down = np.roll(state.up - x, 1) * (np.exp(1j * phi) * INV_SQRT2)
    return WalkerState(up=up, down=down)


def direct_fbm_trace(n, nu, seed):
    """The trace of ``generate_fbm_trace(n, nu, seed)``, for an even ``n``,
    as the literal O(M^2) mode sum."""
    M = int(n)
    mode_phases = np.random.default_rng(seed).uniform(0.0, TWO_PI, M // 2)
    k = np.arange(1, M // 2 + 1)
    amps = np.sqrt((TWO_PI / M) ** (1.0 - nu) * k ** (-float(nu)))
    trace = np.empty(M)
    positions = np.arange(1, M + 1)
    for lo in range(0, M, _DIRECT_BLOCK):
        j = positions[lo : lo + _DIRECT_BLOCK, None]
        trace[lo : lo + _DIRECT_BLOCK] = np.cos(TWO_PI * j * k / M + mode_phases) @ amps
    return trace


def dense_step_unitary(theta, phi):
    """The one-step map as an explicit 2N x 2N matrix.

    Basis ordering: indices 0..N-1 are spin-up at sites 1..N, indices
    N..2N-1 spin-down.  Entries follow the recurrence coefficients with
    periodic wrapping.
    """
    N = len(phi)
    U = np.zeros((2 * N, 2 * N), dtype=complex)
    for n in range(N):
        src_up = (n + 1) % N
        U[n, src_up] = INV_SQRT2
        U[n, N + src_up] = INV_SQRT2 * np.exp(1j * theta)
        src_down = (n - 1) % N
        U[N + n, src_down] = INV_SQRT2 * np.exp(1j * phi[n])
        U[N + n, N + src_down] = -INV_SQRT2 * np.exp(1j * (theta + phi[n]))
    return U


def as_vector(state):
    return np.concatenate([state.up, state.down])


def periodogram_slope(trace, k_lo=2, k_hi=None):
    """OLS slope of log |DFT|^2 vs log k over wavenumbers [k_lo, k_hi]."""
    trace = np.asarray(trace, float)
    M = trace.size
    if k_hi is None:
        k_hi = M // 8
    spectrum = np.fft.fft(trace)
    k = np.arange(k_lo, k_hi + 1)
    power = np.abs(spectrum[k]) ** 2
    return np.polyfit(np.log(k), np.log(power), 1)[0]


def windowed_peaks(values, threshold, half_width):
    """Indices that are the strict maximum of their +/- half_width window
    and exceed the threshold."""
    values = np.asarray(values, float)
    peaks = []
    for i in range(values.size):
        if values[i] <= threshold:
            continue
        lo = max(0, i - half_width)
        hi = min(values.size, i + half_width + 1)
        window = values[lo:hi]
        if values[i] == window.max() and np.count_nonzero(window == values[i]) == 1:
            peaks.append(i)
    return peaks
