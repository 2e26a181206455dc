"""Walker state on the chain and the coined evolution step.

Sites are labelled ``1 .. N`` and stored 0-based, so ``up[i]`` is the
spin-up amplitude at site ``i + 1``.  One step applies the coin with the
current temporal phase ``theta_t`` and the per-site phases ``phi_n``, then
shifts: spin-up amplitude gathers from site ``n + 1``, spin-down from
``n - 1``, with periodic wrapping at the chain ends.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

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
        """Nominal site updates per step: the sites held, ``N`` or ``B * N``.

        This counts every site whatever ``evolve`` skips (zeros outside
        the light cone, the parity a sublattice step does not write), so
        that update rates compare across stepping rules.
        """
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
    """Columns that step ``t`` covers in an array of ``shape``.

    A batch (``B > 1`` rows) steps its whole rows, so that each operand's
    rows follow on at one stride (see ``_step_kernel``); the cone columns
    of a ``(B, N)`` array do not, and numpy's loops over them cost about
    twice as much per element at ``B >= 4``.  One walker, ``(N,)`` or
    ``(1, N)``, steps ``light_cone(start, t, N)``.  A sublattice step (see
    ``evolve``) writes only one parity of sites, in the site pairs that
    cover these columns; outside them every amplitude is zero after step
    ``t``.
    """
    if len(shape) == 2 and shape[0] > 1:
        return slice(0, shape[-1])
    return light_cone(start, t, shape[-1])


def _step_kernel(u, d, exp_theta, exp_phi_scaled, out_up, out_down, scratch, up_shifts, down_shifts) -> None:
    # Along the last axis, row by row, with i = k + 1 if up_shifts else k
    # and j = k - 1 if down_shifts else k:
    # out_up[k]   = (u[i] + e^{i theta} d[i]) / sqrt(2)
    # out_down[k] = e^{i phi_k} (u[j] - e^{i theta} d[j]) / sqrt(2)
    # exp_theta holds one factor per row; exp_phi_scaled, the output sites'
    # factors, already carries the 1/sqrt(2).  A shift is written through
    # flat views, which run on across row ends; one column op per shift
    # then puts each row's wrapped end right.  The operands (whole rows of
    # a batch, or one walker) have one stride along and across their rows,
    # so ``reshape(-1)`` is a view, not a copy.
    np.multiply(d, exp_theta, out=scratch)
    if up_shifts:
        np.add(u.reshape(-1)[1:], scratch.reshape(-1)[1:], out=out_up.reshape(-1)[:-1])
        np.add(u[..., 0], scratch[..., 0], out=out_up[..., -1])
    else:
        np.add(u, scratch, out=out_up)
    np.multiply(out_up, INV_SQRT2, out=out_up)
    np.subtract(u, scratch, out=scratch)
    if down_shifts:
        np.multiply(scratch.reshape(-1)[:-1], exp_phi_scaled.reshape(-1)[1:], out=out_down.reshape(-1)[1:])
        np.multiply(scratch[..., -1], exp_phi_scaled[..., 0], out=out_down[..., 0])
    else:
        np.multiply(scratch, exp_phi_scaled, out=out_down)


def evolve(
    state: WalkerState,
    phases: CoinPhases,
    T: int,
    observer: Callable[[int, WalkerState], None] | None = None,
) -> WalkerState:
    """Apply ``T`` steps, using ``theta[..., t-1]`` for step ``t`` and fixed ``phi``.

    ``phases`` takes the state's shape: ``phi`` is ``(N,)`` for a ``(N,)``
    state and ``(B, N)`` for a ``(B, N)`` batch, whose row ``b`` steps with
    ``phases.theta[b]`` and ``phases.phi[b]``.  Step ``t`` covers the
    columns of ``stepped_columns(support(state), t, shape)``: every column
    of a batch, the light cone of one walker.  On an even lattice, a state
    whose nonzero amplitudes all sit on sites of one parity keeps to one
    parity, since each step moves both components one site; each step
    then reads the parity it holds and writes only the other one.  Any
    other state is stepped on whole rows, or on the cone.  Inside the
    light cone the amplitudes are bit for bit those of stepping the whole
    lattice, and outside it they are zeros (some may be ``-0.0``); row
    ``b`` of a batch is bit for bit the walker evolved alone.  A state
    holds no clock: to continue a walk after ``a`` steps, pass
    ``theta[..., a:]`` and the same ``phi``.

    The observer, if given, is called as ``observer(t, state_t)`` after
    each step ``t = 1 .. T``, on the whole lattice.  The state handed to
    the observer reuses internal buffers: copy the amplitude arrays before
    storing them.

    Raises
    ------
    InvalidParameterError
        If ``phases.phi`` does not have the state's shape, or fewer than
        ``T`` temporal phases are available.
    """
    T = _integer("T", T, 0)
    shape = state.up.shape
    N = shape[-1]
    if phases.phi.shape != shape:
        raise InvalidParameterError(f"CoinPhases of shape {phases.phi.shape} cannot step a state of shape {shape}")
    if phases.theta.shape[-1] < T:
        raise InvalidParameterError(f"need {T} temporal phases, theta has {phases.theta.shape[-1]}")
    # Site n is pair n // P, parity n % P: P = 2 steps one sublattice,
    # starting from the parity p that the state holds; P = 1 whole rows.
    P, p = 1, 0
    if N % 2 == 0:
        held = ((state.up != 0) | (state.down != 0)).reshape(-1, 2).any(axis=0)
        if not held.all():
            P, p = 2, int(held[1])
    pairs = (*shape[:-1], N // P, P)
    # e^{i phi} / sqrt 2, formed in place in one buffer; [q] holds the
    # factors of parity q's sites, contiguous.
    exp_phi_scaled = np.empty((P, *pairs[:-1]), dtype=np.complex128)
    np.multiply(1j, np.moveaxis(phases.phi.reshape(pairs), -1, 0), out=exp_phi_scaled)
    np.exp(exp_phi_scaled, out=exp_phi_scaled)
    exp_phi_scaled *= INV_SQRT2
    exp_theta = np.exp(1j * phases.theta[..., :T].T).reshape(T, *shape[:-1], 1)

    # The amplitudes at step t live in states[t % 2].  Outside what a step
    # writes, the buffers it writes must hold zeros, as the amplitudes there
    # do: the columns past the stepped ones, and the parity a sublattice
    # step does not write, which their last write (step t - 2) left zero.
    states = [WalkerState(state.up.copy(), state.down.copy())]
    states.append(WalkerState(np.zeros_like(states[0].up), np.zeros_like(states[0].down)))
    views = [(s.up.reshape(pairs), s.down.reshape(pairs)) for s in states]
    scratch = np.empty(pairs[:-1], dtype=np.complex128)
    start = support(state)

    for t in range(1, T + 1):
        # Columns past the cone stay zero, and the pairs covering the cone
        # reach at least one site past the support it steps from on each
        # side, so the kernel's periodic wrap inside them only moves zeros.
        # Output site P k + q gathers from sites P k + q +- 1: from pair
        # k + 1 (spin-up) or k - 1 (spin-down) where that crosses a pair
        # boundary, else from pair k.
        w = stepped_columns(start, t, shape)
        k = slice(w.start // P, -(-w.stop // P))
        r, q = (p + t - 1) % P, (p + t) % P
        (u, d), (out_up, out_down) = views[(t - 1) % 2], views[t % 2]
        _step_kernel(u[..., k, r], d[..., k, r], exp_theta[t - 1], exp_phi_scaled[q, ..., k],
                     out_up[..., k, q], out_down[..., k, q], scratch[..., k], q == P - 1, q == 0)
        if observer is not None:
            observer(t, states[t % 2])

    return states[T % 2]
