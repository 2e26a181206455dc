import numpy as np
import pytest

from corrwalk import (
    InvalidParameterError,
    evolve,
    generate_coin_phases,
    initial_state_symmetric,
    probability_profile,
)
from corrwalk.noise import CoinPhases
from corrwalk.walk import WalkerState, light_cone, stepped_columns, support

from _oracles import as_vector, dense_step_unitary, initial_state_generic, norm, whole_lattice_step

INV_SQRT2 = 1.0 / np.sqrt(2.0)


class TestInitialStates:
    def test_symmetric_position_and_weights(self):
        state = initial_state_symmetric(1000)
        profile = probability_profile(state)
        assert np.argmax(profile) == 499  # site 500
        assert profile[499] == pytest.approx(1.0, abs=1e-15)
        assert abs(state.up[499]) ** 2 == pytest.approx(0.5, abs=1e-15)
        assert abs(state.down[499]) ** 2 == pytest.approx(0.5, abs=1e-15)
        assert np.count_nonzero(profile) == 1

    def test_smallest_lattice(self):
        state = initial_state_symmetric(2)
        assert norm(state) == pytest.approx(1.0, abs=1e-15)
        assert abs(state.up[0]) > 0  # site 1 = 2 // 2

    def test_delta_initial_condition(self):
        for N in (2, 7, 64):
            profile = probability_profile(initial_state_symmetric(N))
            expected = np.zeros(N)
            expected[N // 2 - 1] = 1.0
            np.testing.assert_allclose(profile, expected, atol=1e-15)

    def test_rejects_small_lattice(self):
        with pytest.raises(InvalidParameterError):
            initial_state_symmetric(1)

    def test_generic_spin_up_delta(self):
        state, factor = initial_state_generic(8, [(3, 1.0, 0.0)])
        assert factor == pytest.approx(1.0)
        assert norm(state) == pytest.approx(1.0, abs=1e-15)
        assert state.up[2] == pytest.approx(1.0)

    def test_generic_matches_symmetric(self):
        N = 16
        state, factor = initial_state_generic(N, [(N // 2, INV_SQRT2, 1j * INV_SQRT2)])
        reference = initial_state_symmetric(N)
        np.testing.assert_allclose(state.up, reference.up, atol=1e-15)
        np.testing.assert_allclose(state.down, reference.down, atol=1e-15)
        assert factor == pytest.approx(1.0, abs=1e-12)

    def test_generic_renormalizes_and_reports_factor(self):
        state, factor = initial_state_generic(8, [(3, 2.0, 0.0)])
        assert factor == pytest.approx(0.5)
        assert state.up[2] == pytest.approx(1.0)
        assert norm(state) == pytest.approx(1.0, abs=1e-15)

    def test_generic_rejects_empty_and_zero_norm(self):
        with pytest.raises(InvalidParameterError):
            initial_state_generic(8, [])
        with pytest.raises(InvalidParameterError):
            initial_state_generic(8, [(3, 0.0, 0.0)])

    def test_generic_rejects_site_out_of_range(self):
        with pytest.raises(InvalidParameterError):
            initial_state_generic(8, [(0, 1.0, 0.0)])
        with pytest.raises(InvalidParameterError):
            initial_state_generic(8, [(9, 1.0, 0.0)])


def zero_phases(T, N):
    return CoinPhases(theta=np.zeros(T), phi=np.zeros(N))


class TestStep:
    def test_delta_spin_up_single_step(self):
        N = 9
        state, _ = initial_state_generic(N, [(5, 1.0, 0.0)])
        out = evolve(state, zero_phases(1, N), 1)
        expected_up = np.zeros(N, complex)
        expected_up[3] = INV_SQRT2  # site 4 = n0 - 1
        expected_down = np.zeros(N, complex)
        expected_down[5] = INV_SQRT2  # site 6 = n0 + 1
        np.testing.assert_allclose(out.up, expected_up, atol=1e-15)
        np.testing.assert_allclose(out.down, expected_down, atol=1e-15)

    def test_norm_preserved_random_phases(self):
        rng = np.random.default_rng(7)
        N = 33
        state, _ = initial_state_generic(
            N, [(int(s), complex(*rng.normal(size=2)), complex(*rng.normal(size=2))) for s in range(1, N + 1)]
        )
        for _ in range(10):
            state = evolve(state, random_phases(rng, 1, N), 1)
            assert norm(state) == pytest.approx(1.0, abs=1e-12)

    def test_homogeneous_profile_symmetric(self):
        N = 128
        state = initial_state_symmetric(N)
        n0 = N // 2
        for t in range(1, N // 2 + 1):
            state = evolve(state, zero_phases(1, N), 1)
            profile = probability_profile(state)
            mirrored = profile[::-1]
            # site n maps to 2*n0 - n, i.e. index i -> 2*(n0-1) - i
            shifted = np.roll(mirrored, 2 * n0 - N - 1)
            np.testing.assert_allclose(profile, shifted, atol=1e-10)

    def test_light_cone_zero_outside(self):
        N = 64
        state = initial_state_symmetric(N)
        n0 = N // 2
        phases = generate_coin_phases(20, N, 1.0, 1.0, seed=3)
        for t in range(1, 21):
            theta_t = phases.theta[t - 1 : t]
            state = evolve(state, CoinPhases(theta=theta_t, phi=phases.phi), 1)
            profile = probability_profile(state)
            sites = np.arange(1, N + 1)
            outside = np.abs(sites - n0) > t
            assert np.all(profile[outside] == 0.0)

    def test_phi_length_mismatch_rejected(self):
        state = initial_state_symmetric(8)
        with pytest.raises(InvalidParameterError):
            evolve(state, zero_phases(1, 7), 1)


class TestEvolve:
    def test_zero_steps_returns_copy(self):
        state = initial_state_symmetric(10)
        out = evolve(state, zero_phases(1, 10), 0)
        np.testing.assert_array_equal(out.up, state.up)
        np.testing.assert_array_equal(out.down, state.down)
        assert out.up is not state.up

    def test_matches_iterated_step(self):
        # An odd ring: the walk wraps it from step 10 on and mixes the parities,
        # and every step equals the whole-lattice step bit for bit.
        N, T = 21, 45
        phases = generate_coin_phases(T, N, 0.7, 1.3, seed=5)
        expected = [initial_state_symmetric(N)]
        for t in range(1, T + 1):
            expected.append(whole_lattice_step(expected[-1], phases.theta[t - 1], phases.phi))

        def observer(t, state):
            np.testing.assert_array_equal(state.up, expected[t].up)
            np.testing.assert_array_equal(state.down, expected[t].down)

        out = evolve(initial_state_symmetric(N), phases, T, observer=observer)
        np.testing.assert_array_equal(out.up, expected[T].up)
        np.testing.assert_array_equal(out.down, expected[T].down)

    @pytest.mark.parametrize("B", [None, 3])
    def test_two_calls_continue_one_walk(self, B):
        # A state holds no clock: the second call is handed the phases from
        # step a + 1 on, and the walk equals one call of a + b steps.
        N, a, b = 48, 7, 12
        rng = np.random.default_rng(31 + (B or 1))
        first = random_phases(rng, a + b, N, B)
        rest = CoinPhases(theta=first.theta[..., a:], phi=first.phi)
        state = tiled(initial_state_symmetric(N), B)
        once = evolve(state, first, a + b)
        twice = evolve(evolve(state, first, a), rest, b)
        np.testing.assert_array_equal(twice.up, once.up)
        np.testing.assert_array_equal(twice.down, once.down)

    def test_read_only_broadcast_state_is_copied_not_written(self):
        # A batch may start from read-only views of one row, as
        # ``run_realization`` builds it; the result equals a tiled start.
        N, T, B = 40, 30, 4
        rng = np.random.default_rng(77)
        phases = random_phases(rng, T, N, B)
        start = initial_state_symmetric(N)
        shared = WalkerState(np.broadcast_to(start.up, (B, N)), np.broadcast_to(start.down, (B, N)))
        assert not shared.up.flags.writeable
        rows = tiled(start, B)
        out = evolve(shared, phases, T)
        expected = evolve(rows, phases, T)
        np.testing.assert_array_equal(out.up, expected.up)
        np.testing.assert_array_equal(out.down, expected.down)
        # The views, and so the row they show, are unchanged.
        np.testing.assert_array_equal(shared.up, rows.up)
        np.testing.assert_array_equal(shared.down, rows.down)

    @pytest.mark.parametrize("draw", range(20))
    def test_matches_dense_oracle(self, draw):
        rng = np.random.default_rng(1000 + draw)
        N = int(rng.integers(4, 33) // 2 * 2)
        T = int(rng.integers(1, 17))
        theta = rng.uniform(0, 2 * np.pi, T)
        phi = rng.uniform(0, 2 * np.pi, N)
        phases = CoinPhases(theta=theta, phi=phi)

        state = initial_state_symmetric(N)
        vec = as_vector(state)
        for t in range(T):
            vec = dense_step_unitary(theta[t], phi) @ vec

        out = evolve(state, phases, T)
        np.testing.assert_allclose(as_vector(out), vec, atol=1e-10)

    @pytest.mark.parametrize("draw", range(20))
    def test_dense_one_step_map_is_unitary(self, draw):
        rng = np.random.default_rng(2000 + draw)
        N = 16
        U = dense_step_unitary(rng.uniform(0, 2 * np.pi), rng.uniform(0, 2 * np.pi, N))
        deviation = np.abs(U.conj().T @ U - np.eye(2 * N)).max()
        assert deviation < 1e-12

    def test_observer_sees_every_step(self):
        N, T = 12, 9
        seen = []
        norms = []

        def observer(t, state):
            seen.append(t)
            norms.append(norm(state))

        evolve(initial_state_symmetric(N), zero_phases(T, N), T, observer=observer)
        assert seen == list(range(1, T + 1))
        assert all(n == pytest.approx(1.0, abs=1e-12) for n in norms)

    def test_norm_conserved_long_run(self):
        N, T = 256, 2000
        phases = generate_coin_phases(T, N, 1.0, 1.0, seed=17)
        drift = []
        evolve(
            initial_state_symmetric(N),
            phases,
            T,
            observer=lambda t, s: drift.append(abs(norm(s) - 1.0)),
        )
        assert max(drift) < 1e-9

    def test_insufficient_theta_rejected(self):
        state = initial_state_symmetric(8)
        with pytest.raises(InvalidParameterError):
            evolve(state, zero_phases(4, 8), 5)

    def test_phi_mismatch_rejected(self):
        state = initial_state_symmetric(8)
        with pytest.raises(InvalidParameterError):
            evolve(state, zero_phases(4, 6), 2)

    @pytest.mark.parametrize("T", [-1, True, 2.0])
    def test_step_count_not_an_integer_rejected(self, T):
        with pytest.raises(InvalidParameterError, match="T"):
            evolve(initial_state_symmetric(8), zero_phases(4, 8), T)


def random_phases(rng, T, N, B=None):
    """Uniform phases for one walker, or ``(B, T)`` and ``(B, N)`` ones for a batch of ``B``."""
    rows = () if B is None else (B,)
    return CoinPhases(theta=rng.uniform(0, 2 * np.pi, (*rows, T)), phi=rng.uniform(0, 2 * np.pi, (*rows, N)))


def row(phases, b):
    """Row ``b`` of a batch's phases, for the walker evolved alone."""
    return CoinPhases(theta=phases.theta[b], phi=phases.phi[b])


def tiled(walker, B):
    """``B`` copies of one walker as a ``(B, N)`` batch; the walker itself for ``B = None``."""
    if B is None:
        return walker
    return WalkerState(np.tile(walker.up, (B, 1)), np.tile(walker.down, (B, 1)))


class TestLightCone:
    def test_cone_widens_by_one_site_per_step(self):
        assert light_cone((10, 12), 0, 40) == slice(10, 13)
        assert light_cone((10, 12), 3, 40) == slice(7, 16)
        assert light_cone((10, 12), 10, 40) == slice(0, 23)

    def test_cone_is_whole_lattice_past_a_chain_end(self):
        assert light_cone((10, 12), 11, 40) == slice(0, 40)
        assert light_cone((0, 3), 1, 40) == slice(0, 40)
        assert light_cone((20, 39), 1, 40) == slice(0, 40)

    def test_a_batch_steps_whole_rows_and_one_walker_its_cone(self):
        assert stepped_columns((10, 12), 3, (40,)) == slice(7, 16)
        assert stepped_columns((10, 12), 3, (1, 40)) == slice(7, 16)
        assert stepped_columns((10, 12), 3, (2, 40)) == slice(0, 40)
        assert stepped_columns((10, 12), 11, (1, 40)) == slice(0, 40)

    def test_support_spans_every_row(self):
        up = np.zeros((2, 12), complex)
        down = np.zeros((2, 12), complex)
        up[0, 4] = 1.0
        down[1, 9] = 1.0
        assert support(WalkerState(up, down)) == (4, 9)
        assert support(initial_state_symmetric(12)) == (5, 5)

    @pytest.mark.parametrize(
        "entries",
        [
            [(10, 0.6, 0.8j)],  # one parity: one sublattice stepped
            [(7, 1.0, 0.5), (9, -0.3j, 0.2), (12, 0.1, 1.0)],  # both parities: the whole cone
            [(1, 0.6, 0.8)],  # on the first site: the full lattice from t = 0
            [(24, 1.0, 1.0j)],  # on the last site
            [(1, 1.0, 0.0), (24, 0.0, 1.0)],
            [(2, 0.6, 0.8j)],  # its first pair block holds site 1 before its cone does
            [(3, 1.0, -0.5)],  # its pair blocks reach one site past its cone
            [(23, 0.3, 0.4j)],  # its last pair block holds site N before its cone does
            # A batch of three, one walker per row, on site 1 and on site N:
            # the periodic wrap crosses the row ends from step 1.
            pytest.param(
                [[(1, 0.6, 0.8j)], [(24, 1.0, -0.5)], [(1, 1.0, 0.0), (24, 0.0, 1.0)]], id="batch-at-chain-ends"
            ),
        ],
    )
    def test_windowed_evolve_matches_dense_oracle_and_full_lattice(self, entries):
        N, T = 24, 30
        rows = entries if isinstance(entries[0], list) else [entries]
        B = len(rows)
        rng = np.random.default_rng(len(entries) + rows[0][0][0])
        phases = random_phases(rng, T, N, B)
        walkers = [initial_state_generic(N, sites)[0] for sites in rows]
        if B == 1:
            state, batch_phases = walkers[0], row(phases, 0)
        else:
            state = WalkerState(np.stack([w.up for w in walkers]), np.stack([w.down for w in walkers]))
            batch_phases = phases

        vecs = [as_vector(w) for w in walkers]
        full = list(walkers)
        seen = {}
        evolve(state, batch_phases, T, observer=lambda t, s: seen.setdefault(t, (s.up.copy(), s.down.copy())))
        for t in range(1, T + 1):
            up, down = (np.atleast_2d(a) for a in seen[t])
            assert up.shape == (B, N)
            for b in range(B):
                theta, phi = phases.theta[b, t - 1], phases.phi[b]
                vecs[b] = dense_step_unitary(theta, phi) @ vecs[b]
                full[b] = whole_lattice_step(full[b], theta, phi)
                np.testing.assert_allclose(np.concatenate([up[b], down[b]]), vecs[b], atol=1e-12)
                # Stepping the light cone, or a batch's whole rows, changes
                # no amplitude's bits.
                np.testing.assert_array_equal(up[b], full[b].up)
                np.testing.assert_array_equal(down[b], full[b].down)

    def test_batch_rows_are_the_walkers_evolved_alone(self):
        N, T, B = 40, 45, 5
        rng = np.random.default_rng(8)
        phases = random_phases(rng, T, N, B)
        start = initial_state_symmetric(N)
        batch = tiled(start, B)
        out = evolve(batch, phases, T)
        assert batch.lattice_size == B * N
        for b in range(B):
            alone = evolve(start, row(phases, b), T)
            np.testing.assert_array_equal(out.up[b], alone.up)
            np.testing.assert_array_equal(out.down[b], alone.down)
        np.testing.assert_allclose(norm(out), np.ones(B), atol=1e-12)

    def test_batch_needs_one_phase_set_per_row(self):
        N = 10
        rng = np.random.default_rng(0)
        batch = WalkerState(np.ones((3, N), complex), np.zeros((3, N), complex))
        with pytest.raises(InvalidParameterError, match="CoinPhases"):
            evolve(batch, random_phases(rng, 4, N, 2), 4)

    @pytest.mark.parametrize(
        "shape, theta_rows, phi_rows",
        [((10,), (2,), (2,)), ((1, 10), (), ()), ((2, 10), (), ()), ((2, 10), (3,), (2,)), ((2, 10), (2,), (1,))],
        ids=["batch-for-a-walker", "walker-for-one-row", "walker-for-two-rows", "theta-rows-differ", "phi-rows-differ"],
    )
    def test_phases_must_match_the_state_shape(self, shape, theta_rows, phi_rows):
        state = WalkerState(np.ones(shape, complex), np.zeros(shape, complex))
        with pytest.raises(InvalidParameterError, match="CoinPhases"):
            evolve(state, CoinPhases(theta=np.zeros((*theta_rows, 4)), phi=np.zeros((*phi_rows, shape[-1]))), 4)


class TestSublattice:
    @pytest.mark.parametrize("B", [None, 2, 8])
    def test_other_parity_is_exactly_zero_after_every_step(self, B):
        # From the symmetric start on an even ring, the sites whose parity
        # differs from that of (start + t) hold exact zeros after step t,
        # also once the walk has wrapped the ring (T > N).
        N, T = 20, 50
        rng = np.random.default_rng(40 + (B or 1))
        phases = random_phases(rng, T, N, B)
        state = tiled(initial_state_symmetric(N), B)
        site = N // 2 - 1
        steps = []

        def observer(t, s):
            steps.append(t)
            other = (site + t + 1) % 2
            assert not np.any(s.up[..., other::2])
            assert not np.any(s.down[..., other::2])
            assert np.any(s.up[..., 1 - other :: 2]) or np.any(s.down[..., 1 - other :: 2])

        evolve(state, phases, T, observer=observer)
        assert steps == list(range(1, T + 1))
