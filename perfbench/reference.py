"""One disorder realization recomputed from the documented rules alone.

Nothing here calls into ``corrwalk``.  Each piece is written from the
package's documentation, so a fault in the program does not repeat itself
in the reference:

* seeds follow the ``derive_seed`` rule: ``SeedSequence([master, *labels])``
  with string labels read as little-endian UTF-8 integers, first 64-bit
  word of ``generate_state``; realization ``r`` (1-based) of a run with
  master seed ``m`` uses ``derive_seed(m, r)``, the coin phases of one
  realization use the labels ``"theta"`` and ``"phi"``, a sweep cell
  ``(i, j)`` uses ``derive_seed(seed, "cell", i, j)`` and each size ``N``
  of a scan ``derive_seed(cell_seed, "size", N)``;
* a phase sequence of length ``M`` is the literal O(M^2) mode sum
  ``sum_k sqrt((2 pi / M)**(1 - nu) / k**nu) cos(2 pi j k / M + mu_k)``,
  evaluated mode by mode (odd lengths are padded to the next even one and
  truncated), squashed with ``pi (tanh(x) + 1)`` just below ``2 pi``;
* one step is the recurrence of ``walk.py``:
  ``up'[n] = (up[n+1] + e^{i theta} down[n+1]) / sqrt 2`` and
  ``down'[n] = e^{i phi_n} (up[n-1] - e^{i theta} down[n-1]) / sqrt 2``,
  periodic, from the walker at site ``N // 2`` with amplitudes
  ``1/sqrt 2`` and ``i/sqrt 2``.

Sums use ``numpy.sum``, never BLAS, so the reference runs on one thread.
"""

from __future__ import annotations

import numpy as np

TWO_PI = 2.0 * np.pi
CONTACT_EPS = 1e-8


def derive_seed(master: int, *labels) -> int:
    entropy = [int(master)]
    for label in labels:
        if isinstance(label, str):
            entropy.append(int.from_bytes(label.encode("utf-8"), "little"))
        else:
            entropy.append(int(label))
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


def phase_sequence(length: int, nu: float, seed: int) -> np.ndarray:
    """Squashed phases of the literal mode sum, ``length`` values."""
    M = max(length + length % 2, 2)
    mu = np.random.default_rng(seed).uniform(0.0, TWO_PI, M // 2)
    j = np.arange(1, M + 1, dtype=np.int64)
    trace = np.zeros(M)
    for k in range(1, M // 2 + 1):
        amp = np.sqrt((TWO_PI / M) ** (1.0 - nu) / float(k) ** nu)
        # (j * k) mod M keeps the argument exact before the division.
        trace += amp * np.cos(TWO_PI * ((j * k) % M) / M + mu[k - 1])
    phases = np.pi * (np.tanh(trace[:length]) + 1.0)
    return np.minimum(phases, np.nextafter(TWO_PI, 0.0))


def realization(N: int, T: int, alpha_t: float, beta_s: float, seed: int) -> dict:
    """Mean position, dispersion and contact time of one realization."""
    theta = phase_sequence(T, alpha_t, derive_seed(seed, "theta"))
    phi = phase_sequence(N, beta_s, derive_seed(seed, "phi"))
    e_phi = np.exp(1j * phi)
    r2 = 1.0 / np.sqrt(2.0)
    up = np.zeros(N, dtype=complex)
    down = np.zeros(N, dtype=complex)
    up[N // 2 - 1] = r2
    down[N // 2 - 1] = 1j * r2
    sites = np.arange(1, N + 1, dtype=float)
    mean = np.empty(T + 1)
    sigma = np.empty(T + 1)
    contact = None
    for t in range(T + 1):
        if t:
            e_theta = np.exp(1j * theta[t - 1])
            up, down = (
                np.roll(up + e_theta * down, -1) * r2,
                e_phi * np.roll(up - e_theta * down, 1) * r2,
            )
        p = np.abs(up) ** 2 + np.abs(down) ** 2
        mean[t] = np.sum(sites * p)
        sigma[t] = np.sqrt(np.sum((sites - mean[t]) ** 2 * p))
        if contact is None and p[0] + p[-1] > CONTACT_EPS:
            contact = t
    return {"mean": mean, "sigma": sigma, "contact": contact}
