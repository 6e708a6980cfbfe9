import math
import time
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cosine_target, random_grids, strongly_connected_graphs
from swarmctrl.control import TargetDensity, stabilizing_velocity
from swarmctrl.ctmc import TransitionGraph, generator
from swarmctrl.errors import InputError, NumericalError, StepSizeError
from swarmctrl.grid import FaceField, build_grid
from swarmctrl.hybrid import SpatialGainSet
from swarmctrl.particles import (
    MAX_EXIT_RATE_DT,
    MAX_REFLECT_ROUNDS,
    ParticleEnsemble,
    _bernoulli_indices,
    _reflect,
    empirical_density,
    sde_step,
)

G2 = TransitionGraph(2, ((1, 2), (2, 1)))


# ---------------------------------------------------------------------------
# oracle: the per-state particle step that sde_step replaced (boolean
# selection per state, face padding per call, full-array reflection), with
# the drift step in the affine form x * scale + shift of the particle's
# cell (sde_step's operation order, so the two agree bit for bit) and the
# switching draws of the module's draw contract in plain loops


def _oracle_cells(domain, positions):
    return tuple(
        np.clip((positions[:, d] / h).astype(np.int64), 0, n - 1)
        for d, (h, n) in enumerate(zip(domain.spacing, domain.cells))
    )


def _oracle_drift_step(domain, field, positions, dt):
    """x + dt * v(x) per axis, v interpolated between the cell's faces,
    written as the affine map x * scale + shift of the cell."""
    out = np.empty_like(positions)
    cell = _oracle_cells(domain, positions)
    for d, h in enumerate(domain.spacing):
        pad = [(0, 0)] * domain.dim
        pad[d] = (1, 1)
        faces = np.pad(field.components[d], pad)
        hi_idx = list(cell)
        hi_idx[d] = cell[d] + 1
        v_lo, v_hi = faces[cell], faces[tuple(hi_idx)]
        scale = 1.0 + dt * (v_hi - v_lo) / h
        shift = dt * v_lo - (scale - 1.0) * (cell[d] * h)
        out[:, d] = positions[:, d] * scale + shift
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
    moved = ensemble.positions.copy()
    sigma = np.zeros(n)
    for s in range(1, n_states + 1):
        sel = ensemble.states == s
        if not sel.any():
            continue
        v = velocities[s - 1]
        if v is not None:
            moved[sel] = _oracle_drift_step(domain, v, ensemble.positions[sel], dt)
        sigma[sel] = math.sqrt(2.0 * float(diffusion[s - 1]) * dt)
    ensemble.positions = _oracle_reflect(domain, moved + sigma[:, None] * noise)
    if gains is not None:
        # the draw contract: geometric gaps between Bernoulli(p_max)
        # candidates, one acceptance uniform per candidate, one edge
        # uniform per accepted candidate
        cell = 0
        for k, m in zip(_oracle_cells(domain, ensemble.positions), domain.cells):
            cell = cell * m + k
        out_edges = [[(k, j) for k, (i, j) in enumerate(gains.graph.edges) if i == s]
                     for s in range(1, n_states + 1)]
        p = np.zeros((n_states, domain.cell_count))
        for s, edges in enumerate(out_edges):
            if edges:
                total = np.stack([gains.gains[k].reshape(-1) for k, _ in edges]).sum(axis=0)
                p[s] = -np.expm1(-total * dt)
        p_max = float(p.max())
        candidates = []
        if n and p_max > 0:
            chunk = int(n * p_max + 4.0 * math.sqrt(n * p_max)) + 8
            last = -1
            while last < n:
                for gap in rng.geometric(p_max, size=chunk).tolist():
                    last += gap
                    if last < n:
                        candidates.append(last)
        u_accept = rng.random(len(candidates))
        accepted = np.array(
            [i for i, u in zip(candidates, u_accept)
             if u * p_max < p[ensemble.states[i] - 1, cell[i]]],
            dtype=np.int64,
        )
        u_edge = rng.random(accepted.size)
        new_states = ensemble.states.copy()
        for s in range(1, n_states + 1):
            sel = ensemble.states[accepted] == s
            if not sel.any():
                continue
            fired = accepted[sel]
            edges = out_edges[s - 1]
            rate_rows = np.stack([gains.gains[k].reshape(-1)[cell[fired]] for k, _ in edges])
            total = rate_rows.sum(axis=0)
            cum = np.cumsum(rate_rows, axis=0)
            pick = u_edge[sel][None, :] * total[None, :]
            choice = np.minimum((pick >= cum).sum(axis=0), len(edges) - 1)
            targets = np.array([j for _, j in edges], dtype=np.int64)
            new_states[fired] = targets[choice]
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


@st.composite
def drift_setups(draw):
    """A grid, 1-4 states with face velocities (some None), a step with
    dt * max|v| at most the shortest length, and positions on faces, at 0
    and at the upper boundary besides random ones."""
    domain = draw(random_grids())
    n_states = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vmax = draw(st.sampled_from([1.0, 30.0, 1e3]))
    velocities = [
        FaceField(domain, tuple(
            rng.uniform(-vmax, vmax, domain.face_shape(d)) for d in range(domain.dim)
        )) if draw(st.booleans()) else None
        for _ in range(n_states)
    ]
    count = draw(st.integers(2, 200))
    lengths = np.asarray(domain.lengths)
    positions = rng.uniform(0.0, 1.0, (count, domain.dim)) * lengths
    faces = rng.integers(0, np.asarray(domain.cells) + 1, (count, domain.dim)) * np.asarray(domain.spacing)
    positions = np.where(rng.random((count, domain.dim)) < 0.4, np.minimum(faces, lengths), positions)
    positions[0] = 0.0
    positions[1] = lengths
    states = rng.integers(1, n_states + 1, count)
    dt = min(draw(st.floats(1e-4, 0.1)), lengths.min() / vmax)
    return domain, velocities, dt, positions, states


class TestEnsemble:
    def test_uniform_creation_inside_domain(self):
        d = build_grid(2, [1.0, 2.0], [8, 8])
        ens = ParticleEnsemble.uniform(d, 500, seed=3)
        assert ens.positions.shape == (500, 2)
        assert ens.positions[:, 1].max() <= 2.0

    @pytest.mark.parametrize("x", [1.5, np.nan])
    def test_positions_outside_rejected(self, x):
        d = build_grid(1, [1.0], [4])
        with pytest.raises(InputError):
            ParticleEnsemble(
                d,
                np.array([[x]]),
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

    @pytest.mark.parametrize("dt", [0.0, -1e-3, math.nan, math.inf])
    def test_non_finite_or_nonpositive_dt_rejected(self, dt):
        ens = ParticleEnsemble.uniform(build_grid(1, [1.0], [8]), 10, seed=0)
        before = ens.positions.copy()
        with pytest.raises(InputError):
            sde_step(ens, [None], [1.0], None, dt)
        np.testing.assert_array_equal(ens.positions, before)

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
        gains = SpatialGainSet(G2, d, (rate, 0.0))
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
        gains = SpatialGainSet(G2, d, (50.0, 0.0))
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
        gains = SpatialGainSet(g, d, tuple(rates))
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

    def test_spatial_gains_fire_and_split_per_cell(self):
        # state 1 has two out-edges whose gains vary over the cells; without
        # drift or noise every particle stays in its cell, so each cell is
        # its own Bernoulli experiment: fire with 1 - exp(-R(x) dt), then
        # split in proportion to the gains at x
        d = build_grid(1, [1.0], [4])
        g = TransitionGraph(3, ((1, 2), (1, 3), (2, 1), (3, 1)))
        to_two = np.array([0.0, 4.0, 15.0, 30.0])
        to_three = np.array([0.0, 12.0, 5.0, 10.0])
        gains = SpatialGainSet(g, d, (to_two, to_three, np.zeros(4), np.zeros(4)))
        dt = 2e-3  # R dt <= 0.08
        per_cell, steps = 50000, 5
        cell = np.repeat(np.arange(4), per_cell)
        ens = ParticleEnsemble(
            d, ((cell + 0.5) * 0.25)[:, None], np.ones(cell.size, dtype=np.int64),
            np.random.Generator(np.random.Philox(21)),
        )
        fired, went_two = np.zeros(4), np.zeros(4)
        for _ in range(steps):
            ens.states[:] = 1
            sde_step(ens, [None] * 3, [0.0] * 3, gains, dt)
            fired += np.bincount(cell[ens.states != 1], minlength=4)
            went_two += np.bincount(cell[ens.states == 2], minlength=4)
        trials = per_cell * steps
        rate = to_two + to_three
        p = -np.expm1(-rate * dt)
        assert fired[0] == 0
        sigma = np.sqrt(p * (1.0 - p) / trials)
        assert np.all(np.abs(fired / trials - p) <= 3.0 * sigma)
        share = to_two[1:] / rate[1:]
        sigma = np.sqrt(share * (1.0 - share) / fired[1:])
        assert np.all(np.abs(went_two[1:] / fired[1:] - share) <= 3.0 * sigma)

    def test_zero_gains_draw_only_the_noise(self):
        d = build_grid(2, [1.0, 2.0], [5, 3])
        gains = SpatialGainSet(G2, d, (0.0, 0.0))
        rng = np.random.default_rng(4)
        positions = rng.uniform(0.0, 1.0, (700, 2)) * d.lengths
        states = rng.integers(1, 3, 700)
        ens = ParticleEnsemble(d, positions, states.copy(), np.random.Generator(np.random.Philox(8)))
        twin = np.random.Generator(np.random.Philox(8))
        sde_step(ens, [None, None], [0.5, 1.0], gains, 1e-3)
        twin.standard_normal((700, 2))
        np.testing.assert_array_equal(ens.states, states)
        assert ens.rng.random(4).tobytes() == twin.random(4).tobytes()

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

    @settings(max_examples=60, deadline=None)
    @given(setup=drift_setups())
    def test_affine_step_matches_two_face_form(self, setup):
        # The bound, derived: u = eps / 2, X = |x|, W = dt * max|v| and m
        # cells on the axis; a rounding errs by at most u times its result.
        # Affine form: a = dt * (v_hi - v_lo) / h (three roundings,
        # |a| <= 2W / h) times |x - x_lo| <= h gives 6uW; 1 + a gives
        # u(X + 2W) through x - x_lo; scale - 1, k * h and their product
        # 2uWm each; dt * v_lo uW; the shift u(W + 2Wm); x * scale
        # u(X + 2Wm) (X / h <= m); the sum u(X + W): u(3X + 11W + 10Wm)
        # in all.  Two-face form: f = x / h - k is off by u(m + 1), times
        # dt * |v_hi - v_lo| <= 2W; 1 - f, both products, their sum,
        # dt * (.) and x + (.): u(X + 8W + 2Wm).  Together at most
        # 19u(X + W(1 + m)) < 10 eps (X + W(1 + m)).  dt * max|v| <= L
        # keeps each step in [-L, 2L], where a mirror fold is exact and
        # 1-Lipschitz, so the reflected positions keep the bound.
        domain, velocities, dt, positions, states = setup
        n_states = len(velocities)
        ens = ParticleEnsemble(domain, positions.copy(), states.copy(),
                               np.random.Generator(np.random.Philox(0)))
        sde_step(ens, velocities, [0.0] * n_states, None, dt)
        expected = positions.copy()
        cell = _oracle_cells(domain, positions)
        for d, h in enumerate(domain.spacing):
            pad = [(0, 0)] * domain.dim
            pad[d] = (1, 1)
            hi_idx = list(cell)
            hi_idx[d] = cell[d] + 1
            f = positions[:, d] / h - cell[d]
            for s, v in enumerate(velocities, start=1):
                sel = states == s
                if v is None or not sel.any():
                    continue
                faces = np.pad(v.components[d], pad)
                v_lo, v_hi = faces[cell][sel], faces[tuple(hi_idx)][sel]
                expected[sel, d] += dt * ((1.0 - f[sel]) * v_lo + f[sel] * v_hi)
        _oracle_reflect(domain, expected)
        for d, m in enumerate(domain.cells):
            vmax = max((np.abs(v.components[d]).max(initial=0.0)
                        for v in velocities if v is not None), default=0.0)
            bound = 10.0 * np.finfo(float).eps * (np.abs(positions[:, d]) + dt * vmax * (1 + m))
            assert np.all(np.abs(ens.positions[:, d] - expected[:, d]) <= bound)
        np.testing.assert_array_equal(ens.states, states)


def _three_state_2d_setup(seed):
    """A 2D grid, a 3-state graph with spatial gains near the exit-rate
    guard, per-state velocities (one None) and diffusions (one zero)."""
    domain = build_grid(2, [1.0, 1.5], [7, 5])
    graph = TransitionGraph(3, ((1, 2), (1, 3), (2, 3), (3, 1)))
    rng = np.random.default_rng(seed)
    gains = SpatialGainSet(graph, domain, tuple(
        rng.uniform(0.0, 20.0, domain.shape) for _ in graph.edges
    ))
    velocities = [
        FaceField(domain, tuple(
            rng.uniform(-30.0, 30.0, domain.face_shape(d)) for d in range(domain.dim)
        )) for _ in range(2)
    ] + [None]
    return domain, velocities, [0.3, 4.0, 0.0], gains, 2e-3


def _twin_ensembles(domain, count, seed):
    """Two ensembles with equal positions, states and random streams."""
    rng = np.random.default_rng(seed)
    positions = rng.uniform(0.0, 1.0, (count, domain.dim)) * domain.lengths
    states = rng.integers(1, 4, count)
    return [
        ParticleEnsemble(domain, positions.copy(), states.copy(),
                         np.random.Generator(np.random.Philox(seed)))
        for _ in range(2)
    ]


class TestInPlaceStep:
    @pytest.mark.parametrize(
        "case", ["plain", "switching", "2d-three-states"]
    )
    def test_step_allocates_nothing_of_particle_size(self, case):
        d = build_grid(1, [1.0], [16])
        v = FaceField(d, (np.linspace(-1.0, 1.0, 15),))
        count = 40000
        ens = ParticleEnsemble.uniform(d, count, seed=3)
        if case == "switching":
            gains = SpatialGainSet(G2, d, (2.0, 3.0))
            args = ([v, None], [1.0, 0.5], gains, 2e-3)
        elif case == "2d-three-states":
            domain, velocities, diffusion, gains, dt = _three_state_2d_setup(13)
            ens = _twin_ensembles(domain, count, seed=7)[0]
            args = (velocities, diffusion, gains, dt)
        else:
            args = ([v], [1.0], None, 2e-3)
        sde_step(ens, *args)  # builds the workspace
        tracemalloc.start()
        try:
            sde_step(ens, *args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one float64 array of count entries is 8 * count bytes
        assert peak < 4 * count

    def test_arrays_keep_identity(self):
        d = build_grid(1, [1.0], [8])
        gains = SpatialGainSet(G2, d, (20.0, 20.0))
        ens = ParticleEnsemble.uniform(d, 1000, seed=1)
        positions, states = ens.positions, ens.states
        sde_step(ens, [None, None], [1.0, 1.0], gains, 2e-3)
        assert ens.positions is positions
        assert ens.states is states
        assert (states == 2).any()

    def test_matches_oracle_2d_three_states_switching(self):
        domain, velocities, diffusion, gains, dt = _three_state_2d_setup(11)
        new, oracle = _twin_ensembles(domain, 25000, seed=5)
        initial = new.states.copy()
        for _ in range(5):
            sde_step(new, velocities, diffusion, gains, dt)
            _oracle_sde_step(oracle, velocities, diffusion, gains, dt)
        assert new.positions.tobytes() == oracle.positions.tobytes()
        assert new.states.tobytes() == oracle.states.tobytes()
        assert new.rng.random() == oracle.rng.random()
        assert (new.states != initial).mean() > 0.01  # switching did fire

    def test_workspace_rebuilt_when_count_changes(self):
        domain, velocities, diffusion, gains, dt = _three_state_2d_setup(12)
        new, oracle = _twin_ensembles(domain, 3000, seed=6)
        sde_step(new, velocities, diffusion, gains, dt)
        _oracle_sde_step(oracle, velocities, diffusion, gains, dt)
        for count in (5000, 1200):
            # the caller swaps in arrays of another size between steps
            for ens in (new, oracle):
                rng = np.random.default_rng(count)
                ens.positions = rng.uniform(0.0, 1.0, (count, 2)) * domain.lengths
                ens.states = rng.integers(1, 4, count)
            for _ in range(2):
                sde_step(new, velocities, diffusion, gains, dt)
                _oracle_sde_step(oracle, velocities, diffusion, gains, dt)
            assert new.positions.tobytes() == oracle.positions.tobytes()
            assert new.states.tobytes() == oracle.states.tobytes()
        assert new.rng.random() == oracle.rng.random()


class TestBernoulliIndices:
    @pytest.mark.parametrize("n, p", [(1, 0.5), (1000, 0.002), (40000, 0.095), (50, 0.9)])
    def test_sorted_unique_in_range_with_binomial_count(self, n, p):
        rng = np.random.Generator(np.random.Philox(13))
        counts, index_sum = [], 0
        for _ in range(400):
            idx = _bernoulli_indices(rng, n, p)
            assert idx.dtype == np.int64
            assert np.all(np.diff(idx) > 0)  # sorted and unique
            assert idx.size == 0 or (idx[0] >= 0 and idx[-1] < n)
            counts.append(idx.size)
            index_sum += int(idx.sum())
        sigma = math.sqrt(n * p * (1.0 - p) / len(counts))
        assert abs(np.mean(counts) - n * p) <= 4.0 * sigma
        # every index equally likely: the mean success index is (n - 1) / 2
        total = sum(counts)
        sigma = math.sqrt((n * n - 1) / 12.0 / total)
        assert abs(index_sum / total - (n - 1) / 2.0) <= 4.0 * sigma + 1e-12

    @pytest.mark.parametrize("p", [0.0, 1e-300])
    @pytest.mark.parametrize("n", [0, 1, 40000])
    def test_vanishing_p_gives_no_candidates(self, n, p):
        # at 1e-300 numpy's geometric returns INT64_MAX gaps, whose plain
        # cumulative sum wraps to negative indices
        rng = np.random.Generator(np.random.Philox(2))
        with np.errstate(all="raise"):
            for _ in range(20):
                idx = _bernoulli_indices(rng, n, p)
                assert idx.size == 0 and idx.dtype == np.int64

    def test_nothing_drawn_without_trials(self):
        for n, p in ((0, 0.5), (40000, 0.0)):
            rng, twin = (np.random.Generator(np.random.Philox(3)) for _ in range(2))
            _bernoulli_indices(rng, n, p)
            assert rng.random() == twin.random()

    def test_memory_is_of_candidate_size(self):
        n, p = 40000, 0.095
        rng = np.random.Generator(np.random.Philox(5))
        _bernoulli_indices(rng, n, p)
        tracemalloc.start()
        try:
            idx = _bernoulli_indices(rng, n, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert idx.size > 0
        # one int64 array of n entries is 8 * n bytes
        assert peak < 4 * n


class TestReflect:
    def test_long_excursion_takes_bounded_work(self):
        x = np.array([5.0, -7.25, 3e5])
        start = time.perf_counter()
        _reflect(x, 1e-5)
        elapsed = time.perf_counter() - start
        assert np.all((x >= 0.0) & (x <= 1e-5))
        # the fold repeats every 2 * length: x mod 2L, mirrored in its upper half
        r = np.mod([5.0, -7.25, 3e5], 2e-5)
        np.testing.assert_array_equal(x, np.where(r > 1e-5, 2e-5 - r, r))
        assert elapsed < 1.0  # one fold per round took seconds

    def test_fold_and_closed_form_agree_at_the_cap(self):
        length = 1.0
        # excursions just inside and just past the folds the cap allows
        y = np.array([MAX_REFLECT_ROUNDS - 1.3, -(MAX_REFLECT_ROUNDS - 1.6),
                      MAX_REFLECT_ROUNDS + 2.7, -(MAX_REFLECT_ROUNDS + 5.2)])
        x = y.copy()
        _reflect(x, length)
        r = np.mod(y, 2.0 * length)
        np.testing.assert_allclose(x, np.where(r > length, 2.0 * length - r, r), atol=1e-12)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_positions_raise(self, bad):
        x = np.array([0.5, bad, 2.0])
        with pytest.raises(NumericalError):
            _reflect(x, 1.0)


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
