"""Walker state on the chain and the coined evolution step.

Sites are labelled ``1 .. N`` and stored 0-based, so ``up[i]`` is the
spin-up amplitude at site ``i + 1``.  One step applies the coin with the
current temporal phase ``theta_t`` and the per-site phases ``phi_n``, then
shifts: spin-up amplitude gathers from site ``n + 1``, spin-down from
``n - 1``, with periodic wrapping at the chain ends.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidParameterError, _integer
from .noise import CoinPhases

INV_SQRT2 = 1.0 / np.sqrt(2.0)


@dataclass
class WalkerState:
    """Two complex amplitude arrays over N sites.

    The arrays have shape ``(N,)`` for one walker or ``(B, N)`` for a
    batch of ``B`` walkers on the same lattice, one walker per row.
    """

    up: np.ndarray
    down: np.ndarray

    def __post_init__(self) -> None:
        self.up = np.asarray(self.up, dtype=np.complex128)
        self.down = np.asarray(self.down, dtype=np.complex128)
        if self.up.ndim not in (1, 2) or self.up.shape != self.down.shape:
            raise InvalidParameterError("up and down must be (N,) or (B, N) arrays of identical shape")
        if self.up.shape[-1] < 2:
            raise InvalidParameterError(f"lattice needs at least 2 sites, got {self.up.shape[-1]}")

    @property
    def lattice_size(self) -> int:
        """Sites held, which one step updates: ``N``, or ``B * N`` for a batch."""
        return self.up.size


def initial_state_symmetric(N: int) -> WalkerState:
    """Walker at site ``N // 2`` with equal-weight internal components.

    The amplitudes are ``1/sqrt(2)`` (spin-up) and ``i/sqrt(2)``
    (spin-down); every other site is zero.
    """
    N = _integer("N", N, 2)
    up = np.zeros(N, dtype=np.complex128)
    down = np.zeros(N, dtype=np.complex128)
    center = N // 2
    up[center - 1] = INV_SQRT2
    down[center - 1] = 1j * INV_SQRT2
    return WalkerState(up=up, down=down)


def support(state: WalkerState) -> tuple[int, int]:
    """First and last 0-based site holding a nonzero amplitude in any row.

    A state with no nonzero amplitude spans the whole lattice.
    """
    occupied = (state.up != 0) | (state.down != 0)
    sites = np.flatnonzero(occupied.reshape(-1, occupied.shape[-1]).any(axis=0))
    if sites.size == 0:
        return 0, occupied.shape[-1] - 1
    return int(sites[0]), int(sites[-1])


def light_cone(start: tuple[int, int], steps: int, N: int) -> slice:
    """Columns that can hold nonzero amplitude ``steps`` steps after ``start``.

    Each step widens the support ``start`` (as from ``support``) by one
    site on either side.  Once that reaches a chain end the periodic wrap
    can carry amplitude anywhere, so the cone is the whole lattice.
    Everything outside cone ``t`` is zero after step ``t`` of ``evolve``.
    """
    lo, hi = start[0] - steps, start[1] + steps
    if lo < 0 or hi >= N:
        return slice(0, N)
    return slice(lo, hi + 1)


def stepped_columns(start: tuple[int, int], t: int, shape: tuple[int, ...]) -> slice:
    """Columns that step ``t`` updates in an array of ``shape``.

    A batch (``B > 1`` rows) steps its whole rows, so that every operand
    is contiguous; the cone columns of a ``(B, N)`` array are a strided
    view, on which numpy's loops cost about twice as much per element at
    ``B >= 4``.  One walker, ``(N,)`` or ``(1, N)``, steps
    ``light_cone(start, t, N)``, which is already contiguous.
    """
    if len(shape) == 2 and shape[0] > 1:
        return slice(0, shape[-1])
    return light_cone(start, t, shape[-1])


def _step_kernel(u, d, exp_theta, exp_phi_scaled, out_up, out_down, scratch) -> None:
    # Along the last axis (sites), row by row:
    # out_up[n]   = (u[n+1] + e^{i theta} d[n+1]) / sqrt(2)
    # out_down[n] = e^{i phi_n} (u[n-1] - e^{i theta} d[n-1]) / sqrt(2)
    # exp_theta holds one factor per row; exp_phi_scaled already carries
    # the 1/sqrt(2) factor.  The shifts are written through flat views,
    # which run on across row ends; one column op per shift then puts each
    # row's wrapped end right.  The operands are contiguous (see
    # ``stepped_columns``), so ``reshape(-1)`` is a view, not a copy.
    np.multiply(d, exp_theta, out=scratch)
    np.add(u, scratch, out=out_down)  # out_down used as a temporary here
    np.multiply(out_down.reshape(-1)[1:], INV_SQRT2, out=out_up.reshape(-1)[:-1])
    np.multiply(out_down[..., 0], INV_SQRT2, out=out_up[..., -1])
    np.subtract(u, scratch, out=scratch)
    np.multiply(scratch.reshape(-1)[:-1], exp_phi_scaled.reshape(-1)[1:], out=out_down.reshape(-1)[1:])
    np.multiply(scratch[..., -1], exp_phi_scaled[..., 0], out=out_down[..., 0])


def evolve(
    state: WalkerState,
    phases: CoinPhases | Sequence[CoinPhases],
    T: int,
    observer: Callable[[int, WalkerState], None] | None = None,
) -> WalkerState:
    """Apply ``T`` steps, using ``theta[t-1]`` for step ``t`` and fixed ``phi``.

    ``phases`` is one ``CoinPhases`` for a ``(N,)`` state, or a sequence
    of them, one per row, for a ``(B, N)`` batch.  Step ``t`` updates the
    columns of ``stepped_columns(support(state), t, shape)``: every column
    of a batch, the light cone of one walker.  Inside the light cone the
    amplitudes are bit for bit those of stepping the whole lattice, and
    outside it they are zeros (some may be ``-0.0``); row ``b`` of a batch
    is bit for bit the walker evolved alone.  A state holds no clock: to
    continue a walk after ``a`` steps, pass ``theta[a:]`` and the same
    ``phi``.

    The observer, if given, is called as ``observer(t, state_t)`` after
    each step ``t = 1 .. T``, on the whole lattice.  The state handed to
    the observer reuses internal buffers: copy the amplitude arrays before
    storing them.

    Raises
    ------
    InvalidParameterError
        If fewer than ``T`` temporal phases are available, the spatial
        sequences do not match the lattice size, a ``(N,)`` state does not
        get one ``CoinPhases``, or a batch does not get one per row.
    """
    T = _integer("T", T, 0)
    shape = state.up.shape
    N = shape[-1]
    batch = state.up.ndim == 2
    if isinstance(phases, CoinPhases) == batch:
        wanted = "a sequence of CoinPhases, one per row" if batch else "one CoinPhases"
        raise InvalidParameterError(f"phases for a state of shape {shape} must be {wanted}")
    rows = list(phases) if batch else [phases]
    if len(rows) != state.up.size // N:
        raise InvalidParameterError(f"a batch of {shape[0]} walkers needs as many CoinPhases, got {len(rows)}")
    for row in rows:
        if len(row.theta) < T:
            raise InvalidParameterError(f"need {T} temporal phases, sequence has {len(row.theta)}")
        if len(row.phi) != N:
            raise InvalidParameterError(f"phi has length {len(row.phi)}, lattice has {N} sites")
    # e^{i phi} / sqrt 2, formed in place in one buffer.
    exp_phi_scaled = np.empty(shape, dtype=np.complex128)
    np.multiply(1j, np.stack([row.phi for row in rows]).reshape(shape), out=exp_phi_scaled)
    np.exp(exp_phi_scaled, out=exp_phi_scaled)
    exp_phi_scaled *= INV_SQRT2
    theta = np.stack([row.theta[:T] for row in rows], axis=-1)
    exp_theta = np.exp(1j * theta).reshape(T, *shape[:-1], 1)

    u = state.up.copy()
    d = state.down.copy()
    # Outside the stepped columns the buffers must hold zeros, as the
    # amplitudes there do.
    buf_u = np.zeros_like(u)
    buf_d = np.zeros_like(d)
    scratch = np.empty_like(u)
    start = support(state)
    current = WalkerState(up=u, down=d) if observer is not None else None

    for t in range(1, T + 1):
        # Columns past the cone stay zero, and the cone is at least one
        # site wider on each side than the support it steps from, so the
        # kernel's periodic wrap inside a cone slice only moves zeros.
        w = stepped_columns(start, t, shape)
        _step_kernel(u[..., w], d[..., w], exp_theta[t - 1], exp_phi_scaled[..., w],
                     buf_u[..., w], buf_d[..., w], scratch[..., w])
        u, buf_u = buf_u, u
        d, buf_d = buf_d, d
        if observer is not None:
            current.up = u
            current.down = d
            observer(t, current)

    return WalkerState(up=u, down=d)
