import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cosine_target, random_grids, strongly_connected_graphs
from swarmctrl.control import TargetDensity, stabilizing_velocity
from swarmctrl.ctmc import TransitionGraph, generator
from swarmctrl.errors import InputError, StepSizeError
from swarmctrl.grid import FaceField, build_grid
from swarmctrl.hybrid import SpatialGainSet
from swarmctrl.particles import (
    MAX_EXIT_RATE_DT,
    ParticleEnsemble,
    empirical_density,
    sde_step,
)

G2 = TransitionGraph(2, ((1, 2), (2, 1)))


# ---------------------------------------------------------------------------
# oracle: the per-state particle step that sde_step replaced (boolean
# selection per state, face padding per call, full-array reflection)


def _oracle_cells(domain, positions):
    return tuple(
        np.clip((positions[:, d] / h).astype(np.int64), 0, n - 1)
        for d, (h, n) in enumerate(zip(domain.spacing, domain.cells))
    )


def _oracle_velocity_at(domain, field, positions):
    out = np.zeros_like(positions)
    cell = _oracle_cells(domain, positions)
    frac = [positions[:, d] / h - cell[d] for d, h in enumerate(domain.spacing)]
    for d in range(domain.dim):
        pad = [(0, 0)] * domain.dim
        pad[d] = (1, 1)
        faces = np.pad(field.components[d], pad)
        hi_idx = list(cell)
        hi_idx[d] = cell[d] + 1
        out[:, d] = (1.0 - frac[d]) * faces[cell] + frac[d] * faces[tuple(hi_idx)]
    return out


def _oracle_reflect(domain, positions):
    for d, length in enumerate(domain.lengths):
        x = positions[:, d]
        while True:
            below = x < 0.0
            above = x > length
            if not (below.any() or above.any()):
                break
            x = np.where(below, -x, x)
            x = np.where(above, 2.0 * length - x, x)
        positions[:, d] = x
    return positions


def _oracle_sde_step(ensemble, velocities, diffusion, gains, dt):
    domain = ensemble.domain
    n = ensemble.count
    rng = ensemble.rng
    n_states = len(diffusion)
    noise = rng.standard_normal((n, domain.dim))
    drift = np.zeros((n, domain.dim))
    sigma = np.zeros(n)
    for s in range(1, n_states + 1):
        sel = ensemble.states == s
        if not sel.any():
            continue
        v = velocities[s - 1]
        if v is not None:
            drift[sel] = _oracle_velocity_at(domain, v, ensemble.positions[sel])
        sigma[sel] = math.sqrt(2.0 * float(diffusion[s - 1]) * dt)
    ensemble.positions = _oracle_reflect(
        domain, ensemble.positions + drift * dt + sigma[:, None] * noise
    )
    if gains is not None:
        u_switch = rng.random(n)
        u_edge = rng.random(n)
        cell = 0
        for k, m in zip(_oracle_cells(domain, ensemble.positions), domain.cells):
            cell = cell * m + k
        new_states = ensemble.states.copy()
        for s in range(1, n_states + 1):
            sel = np.flatnonzero(ensemble.states == s)
            out_edges = [(k, j) for k, (i, j) in enumerate(gains.graph.edges) if i == s]
            if sel.size == 0 or not out_edges:
                continue
            rate_rows = np.stack([gains.gains[k].reshape(-1)[cell[sel]] for k, _ in out_edges])
            total = rate_rows.sum(axis=0)
            fire = u_switch[sel] < -np.expm1(-total * dt)
            if not fire.any():
                continue
            cum = np.cumsum(rate_rows, axis=0)
            pick = u_edge[sel][None, :] * total[None, :]
            choice = np.minimum((pick >= cum).sum(axis=0), len(out_edges) - 1)
            targets = np.array([j for _, j in out_edges], dtype=np.int64)
            new_states[sel[fire]] = targets[choice[fire]]
        ensemble.states = new_states
    return ensemble


@st.composite
def switching_setups(draw):
    """A grid, a graph with 2-4 states (sometimes with one state stripped
    of its out-edges), per-edge gains with zeros, per-state velocities
    (some None), diffusions (some zero) and an ensemble that leaves some
    states empty; dt respects the exit-rate guard."""
    domain = draw(random_grids())
    graph = draw(strongly_connected_graphs())
    n = graph.n_vertices
    if draw(st.booleans()):
        sink = draw(st.integers(1, n))
        graph = TransitionGraph(n, tuple(e for e in graph.edges if e[0] != sink))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    fields = []
    for _ in graph.edges:
        kind = draw(st.sampled_from(["zero", "constant", "sparse"]))
        g = rng.uniform(0.0, 20.0, domain.shape)
        if kind == "zero":
            g[:] = 0.0
        elif kind == "constant":
            g[:] = g.flat[0]
        else:
            g[rng.random(domain.shape) < 0.4] = 0.0
        fields.append(g)
    gains = SpatialGainSet(graph, domain, tuple(fields)) if draw(st.booleans()) else None
    velocities = [
        FaceField(domain, tuple(
            rng.uniform(-30.0, 30.0, domain.face_shape(d)) for d in range(domain.dim)
        )) if draw(st.booleans()) else None
        for _ in range(n)
    ]
    diffusion = [draw(st.sampled_from([0.0, 0.3, 4.0])) for _ in range(n)]
    count = draw(st.integers(1, 300))
    occupied = draw(st.lists(st.integers(1, n), min_size=1, max_size=n, unique=True))
    states = rng.choice(occupied, size=count)
    positions = rng.uniform(0.0, 1.0, (count, domain.dim)) * domain.lengths
    positions[: count // 10] = np.asarray(domain.lengths)  # on the upper faces
    seed = draw(st.integers(0, 2**32 - 1))
    dt = 0.02
    if gains is not None:
        exit_rate = np.zeros((n,) + domain.shape)
        for g, (i, _) in zip(fields, graph.edges):
            exit_rate[i - 1] += g
        if exit_rate.max() > 0:
            dt = min(dt, 0.9 * MAX_EXIT_RATE_DT / exit_rate.max())
    return domain, velocities, diffusion, gains, dt, positions, states, seed


class TestEnsemble:
    def test_uniform_creation_inside_domain(self):
        d = build_grid(2, [1.0, 2.0], [8, 8])
        ens = ParticleEnsemble.uniform(d, 500, seed=3)
        assert ens.positions.shape == (500, 2)
        assert ens.positions[:, 1].max() <= 2.0

    def test_positions_outside_rejected(self):
        d = build_grid(1, [1.0], [4])
        with pytest.raises(InputError):
            ParticleEnsemble(
                d,
                np.array([[1.5]]),
                np.array([1]),
                np.random.default_rng(0),
            )


class TestSdeStep:
    @pytest.mark.parametrize(
        "case", ["fewer-velocities", "negative-diffusion", "nan-diffusion", "velocity-grid"]
    )
    def test_per_state_inputs_checked(self, case):
        d = build_grid(1, [1.0], [8])
        velocities, diffusion = [None], [1.0]
        if case == "fewer-velocities":
            velocities, diffusion = [], [1.0, 1.0]
        elif case == "negative-diffusion":
            diffusion = [-1.0]
        elif case == "nan-diffusion":
            diffusion = [math.nan]
        else:
            velocities = [FaceField(build_grid(1, [2.0], [8]), (np.zeros(7),))]
        ens = ParticleEnsemble.uniform(d, 10, seed=0)
        with pytest.raises(InputError):
            sde_step(ens, velocities, diffusion, None, 1e-3)

    def test_no_motion_without_inputs(self):
        d = build_grid(1, [1.0], [16])
        ens = ParticleEnsemble.uniform(d, 100, seed=1)
        before = ens.positions.copy()
        states = ens.states.copy()
        sde_step(ens, [None], [0.0], None, 1e-2)
        np.testing.assert_array_equal(ens.positions, before)
        np.testing.assert_array_equal(ens.states, states)

    def test_mirror_reflection_formula(self):
        d = build_grid(1, [1.0], [16])
        # strong constant drift pushes past the right boundary in one step
        v = FaceField(d, (np.full(15, 5.0),))
        ens = ParticleEnsemble.uniform(d, 1000, seed=2)
        x_old = ens.positions[:, 0].copy()
        sde_step(ens, [v], [0.0], None, 0.2)
        # interior faces carry 5, boundary faces 0: predicted displacement
        # interpolates, but confinement must hold regardless
        assert ens.positions[:, 0].max() <= 1.0
        assert ens.positions[:, 0].min() >= 0.0

    def test_explicit_reflection_of_overshoot(self):
        d = build_grid(1, [1.0], [16])
        rng = np.random.default_rng(0)
        ens = ParticleEnsemble(d, np.array([[0.95]]), np.array([1]), rng)
        # deterministic drift: uniform face velocity 1 -> x = 0.95 + 0.2 > 1
        v = FaceField(d, (np.ones(15),))
        sde_step(ens, [v], [0.0], None, 0.2)
        # particle at 0.95 sees interpolated velocity ~1 inside the cell;
        # overshoot reflects to 2*1 - x
        assert ens.positions[0, 0] == pytest.approx(2.0 * 1.0 - (0.95 + 0.2), abs=0.05)

    def test_confinement_under_noise(self):
        d = build_grid(2, [1.0, 1.0], [8, 8])
        ens = ParticleEnsemble.uniform(d, 2000, seed=4)
        for _ in range(20):
            sde_step(ens, [None], [2.0], None, 5e-3)
            assert ens.positions.min() >= 0.0
            assert ens.positions[:, 0].max() <= 1.0
            assert ens.positions[:, 1].max() <= 1.0

    def test_switch_frequency_matches_rate(self):
        d = build_grid(1, [1.0], [8])
        rate, dt = 2.0, 0.01
        gains = SpatialGainSet.constant(G2, d, [rate, 0.0])
        ens = ParticleEnsemble.uniform(d, 200000, state=1, seed=5)
        switched = 0
        trials = 0
        for _ in range(5):
            at_one = ens.states == 1
            trials += int(at_one.sum())
            sde_step(ens, [None, None], [0.1, 0.1], gains, dt)
            switched += int(((ens.states == 2) & at_one).sum())
        p_hat = switched / trials
        p = 1.0 - np.exp(-rate * dt)
        sigma = np.sqrt(p * (1.0 - p) / trials)
        assert abs(p_hat - p) <= 3.0 * sigma

    def test_rate_guard(self):
        d = build_grid(1, [1.0], [8])
        gains = SpatialGainSet.constant(G2, d, [50.0, 0.0])
        ens = ParticleEnsemble.uniform(d, 10, seed=6)
        with pytest.raises(StepSizeError):
            sde_step(ens, [None, None], [0.1, 0.1], gains, 0.01)
        # just below the limit the step runs
        sde_step(ens, [None, None], [0.1, 0.1], gains, (1 - 1e-12) * MAX_EXIT_RATE_DT / 50.0)

    def test_rate_guard_sums_outgoing_gains(self):
        d = build_grid(1, [1.0], [4])
        g = TransitionGraph(3, ((1, 2), (1, 3), (2, 1), (3, 1)))
        # each edge alone stays below the limit; their sum in cell 0 does not
        first = np.array([40.0, 0.0, 0.0, 0.0])
        second = np.array([25.0, 40.0, 0.0, 0.0])
        gains = SpatialGainSet(g, d, (first, second, np.zeros(4), np.zeros(4)))
        ens = ParticleEnsemble.uniform(d, 10, seed=6)
        dt = 0.002  # 40 * dt = 0.08, (40 + 25) * dt = 0.13
        with pytest.raises(StepSizeError):
            sde_step(ens, [None] * 3, [0.1] * 3, gains, dt)
        # disjoint supports: the per-cell sum, not the sum of maxima, counts
        disjoint = np.array([0.0, 40.0, 0.0, 0.0])
        gains = SpatialGainSet(g, d, (first, disjoint, np.zeros(4), np.zeros(4)))
        sde_step(ens, [None] * 3, [0.1] * 3, gains, dt)

    def test_occupancy_tracks_rate_ode(self):
        d = build_grid(1, [1.0], [8])
        g = TransitionGraph(3, ((1, 2), (2, 3), (3, 1), (2, 1)))
        rates = [1.0, 0.7, 1.3, 0.4]
        gains = SpatialGainSet.constant(g, d, rates)
        ens = ParticleEnsemble.uniform(d, 100000, state=1, seed=9)
        dt = 0.002
        for _ in range(500):
            sde_step(ens, [None] * 3, [0.0] * 3, gains, dt)
        occupancy = np.bincount(ens.states - 1, minlength=3) / ens.count
        ref = scipy.linalg.expm(1.0 * generator(g, rates)) @ np.array([1.0, 0.0, 0.0])
        sigma = np.sqrt(ref * (1.0 - ref) / ens.count)
        assert np.all(np.abs(occupancy - ref) <= 3.0 * sigma)

    def test_identical_seed_bit_identical(self):
        d = build_grid(1, [1.0], [16])
        f = cosine_target(d)
        v = stabilizing_velocity(TargetDensity.create(f), 1.0)
        runs = []
        for _ in range(2):
            ens = ParticleEnsemble.uniform(d, 5000, seed=1234)
            for _ in range(50):
                sde_step(ens, [v], [1.0], None, 1e-3)
            runs.append((ens.positions.copy(), ens.states.copy()))
        np.testing.assert_array_equal(runs[0][0], runs[1][0])
        np.testing.assert_array_equal(runs[0][1], runs[1][1])

    @settings(max_examples=60, deadline=None)
    @given(setup=switching_setups())
    def test_matches_per_state_oracle(self, setup):
        domain, velocities, diffusion, gains, dt, positions, states, seed = setup
        runs = []
        for step in (sde_step, _oracle_sde_step):
            ens = ParticleEnsemble(
                domain, positions.copy(), states.copy(),
                np.random.Generator(np.random.Philox(seed)),
            )
            for _ in range(4):
                step(ens, velocities, diffusion, gains, dt)
            runs.append(ens)
        new, oracle = runs
        assert new.positions.tobytes() == oracle.positions.tobytes()
        assert new.states.tobytes() == oracle.states.tobytes()
        assert new.rng.random() == oracle.rng.random()


class TestEmpiricalDensity:
    def test_single_cell_indicator(self):
        d = build_grid(1, [1.0], [4])
        ens = ParticleEnsemble(
            d,
            np.full((10, 1), 0.6),
            np.ones(10, dtype=np.int64),
            np.random.default_rng(0),
        )
        emp = empirical_density(ens, d, 1)
        expected = np.zeros(4)
        expected[2] = 1.0 / d.cell_volume
        np.testing.assert_allclose(emp.density.fields[0].values, expected)

    def test_total_mass_one(self):
        d = build_grid(1, [1.0], [32])
        ens = ParticleEnsemble.uniform(d, 12345, seed=8)
        emp = empirical_density(ens, d, 1)
        assert emp.density.total_mass() == pytest.approx(1.0, abs=1e-12)

    def test_uniform_sampling_l1(self):
        d = build_grid(1, [1.0], [32])
        ens = ParticleEnsemble.uniform(d, 100000, seed=42)
        emp = empirical_density(ens, d, 1)
        l1 = float(np.sum(np.abs(emp.density.fields[0].values - 1.0)) * d.cell_volume)
        assert l1 <= 0.02
