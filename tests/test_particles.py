import numpy as np
import pytest
import scipy.linalg

from conftest import cosine_target
from swarmctrl.control import TargetDensity, stabilizing_velocity
from swarmctrl.ctmc import TransitionGraph, generator
from swarmctrl.errors import InputError, StepSizeError
from swarmctrl.grid import FaceField, build_grid
from swarmctrl.hybrid import SpatialGainSet
from swarmctrl.particles import ParticleEnsemble, empirical_density, sde_step

G2 = TransitionGraph(2, ((1, 2), (2, 1)))


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
