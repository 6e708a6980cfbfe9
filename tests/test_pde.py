import tracemalloc
import warnings
from unittest import mock

import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cosine_target, random_density, random_grids
from test_grid import assert_bitwise_equal, scipy_two_point_flux_matrix
from swarmctrl import pde
from swarmctrl.control import TargetDensity, stabilizing_velocity
from swarmctrl.errors import (
    CoefficientError,
    ConfigurationError,
    FitError,
    InputError,
    TargetError,
)
from swarmctrl.grid import FaceField, ScalarField, build_grid, mass
from swarmctrl.pde import (
    StepperConfig,
    assemble_advection_diffusion,
    bernoulli,
    clamped_dt,
    evolve_stabilizing,
    evolve_weighted_heat,
    fit_decay_rate,
    make_stepper,
    march,
    step_advection_diffusion,
    weighted_heat_operator,
)

SCHEMES = ["implicit_euler", "crank_nicolson"]


def scipy_make_stepper(matrix, dt, scheme):
    """The scipy-arithmetic stepper that the cached-pattern one replaced
    (identity minus the scaled matrix, then ``tocsc``), kept as the bitwise
    oracle: returns the matrix handed to ``splu`` and the step."""
    eye = sp.identity(matrix.shape[0], format="csr")
    theta = 1.0 if scheme == "implicit_euler" else 0.5
    system = (eye - theta * dt * matrix).tocsc()
    lu = spla.splu(system)
    rhs_op = None if theta == 1.0 else (eye + 0.5 * dt * matrix).tocsr()
    return system, lambda y: lu.solve(y if rhs_op is None else rhs_op @ y)


def test_stepper_config_validation():
    from swarmctrl.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        StepperConfig(dt=-1.0)
    with pytest.raises(ConfigurationError):
        StepperConfig(scheme="leapfrog")
    with pytest.raises(ConfigurationError):
        StepperConfig(advection_flux="quick")


def test_spectral_gap_sparse_branch():
    # above the dense cutoff the shifted Lanczos path takes over; it must
    # stay sparse (a dense n^2 copy at 72x72 cells alone is 215 MB)
    d = build_grid(2, [1.0, 1.0], [72, 72])
    op = weighted_heat_operator(ScalarField.constant(d, 1.0))
    tracemalloc.start()
    try:
        gap = op.spectral_gap()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert gap == pytest.approx(np.pi**2, rel=0.01)
    assert peak <= 50 * 2**20


def test_bernoulli_limits():
    assert bernoulli(np.array([0.0]))[0] == 1.0
    x = np.array([1e-9, -1e-9, 2.0, -2.0])
    vals = bernoulli(x)
    assert vals[0] == pytest.approx(1.0, abs=1e-8)
    assert vals[2] == pytest.approx(2.0 / (np.e**2 - 1.0))
    # B(-x) - B(x) = x
    assert vals[3] - vals[2] == pytest.approx(2.0, abs=1e-12)


def test_bernoulli_large_argument_does_not_overflow():
    # cell Peclet numbers |v| h / D far above 709 must not overflow expm1
    d = build_grid(1, [1.0], [7])
    v = FaceField(d, (np.array([8.0, -8.0, 3.0, -0.5, 8.0, -7.9]),))
    x = np.linspace(700.0, 1e4, 2001)[1:]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for diffusion in (1e-3, 1e-6):
            matrix = assemble_advection_diffusion(d, v, diffusion)
            np.testing.assert_allclose(matrix.sum(axis=0), 0.0, atol=1e-9)
        vals = bernoulli(x)
    np.testing.assert_array_equal(vals, x * np.exp(-x))


class TestStepAdvectionDiffusion:
    def test_uniform_heat_fixed_point(self, unit_grid_128):
        y = ScalarField.constant(unit_grid_128, 1.0)
        y1 = step_advection_diffusion(y, None, 1.0, StepperConfig(dt=1e-2))
        assert np.max(np.abs(y1.values - 1.0)) <= 1e-14

    def test_gibbs_profile_is_exact_equilibrium(self, unit_grid_128):
        f = cosine_target(unit_grid_128)
        target = TargetDensity.create(f)
        v = stabilizing_velocity(target, 1.0)
        y1 = step_advection_diffusion(f, v, 1.0, StepperConfig(dt=1e-3))
        assert np.max(np.abs(y1.values - f.values)) <= 1e-12

    def test_mass_conserved_for_any_velocity(self, unit_grid_128):
        rng = np.random.default_rng(0)
        y = random_density(unit_grid_128, rng)
        cfg = StepperConfig(dt=1e-3)
        for _ in range(20):
            v = FaceField(unit_grid_128, (rng.uniform(-5, 5, 127),))
            y = step_advection_diffusion(y, v, 1.0, cfg)
            assert abs(mass(y) - 1.0) <= 1e-12

    def test_positivity_under_implicit_euler(self, unit_grid_64):
        rng = np.random.default_rng(1)
        values = np.zeros(64)
        values[10] = 1.0
        y = ScalarField(unit_grid_64, values).normalized()
        v = FaceField(unit_grid_64, (rng.uniform(-10, 10, 63),))
        y1 = step_advection_diffusion(y, v, 1.0, StepperConfig(dt=0.5))
        assert np.min(y1.values) >= 0.0

    def test_one_heat_step_strictly_positive_everywhere(self, unit_grid_128):
        # indicator initial state spreads to every cell in a single
        # implicit step (inverse of an irreducible M-matrix is positive)
        values = np.zeros(128)
        values[0] = 1.0
        y = ScalarField(unit_grid_128, values)
        h2 = unit_grid_128.spacing[0] ** 2
        y1 = step_advection_diffusion(y, None, 1.0, StepperConfig(dt=h2))
        assert np.min(y1.values) > 0.0

    def test_negative_state_rejected(self, unit_grid_64):
        y = ScalarField(unit_grid_64, np.linspace(-0.5, 1.0, 64))
        with pytest.raises(InputError):
            step_advection_diffusion(y, None, 1.0)

    def test_crank_nicolson_runs(self, unit_grid_64):
        y = cosine_target(unit_grid_64)
        cfg = StepperConfig(dt=1e-3, scheme="crank_nicolson")
        y1 = step_advection_diffusion(y, None, 1.0, cfg)
        assert abs(mass(y1) - 1.0) <= 1e-12

    def test_2d_mass_and_positivity(self):
        rng = np.random.default_rng(7)
        d = build_grid(2, [1.0, 1.5], [12, 18])
        y = ScalarField(d, rng.random(d.shape)).normalized()
        v = FaceField(
            d,
            (rng.uniform(-3, 3, d.face_shape(0)), rng.uniform(-3, 3, d.face_shape(1))),
        )
        cfg = StepperConfig(dt=5e-3)
        for _ in range(10):
            y = step_advection_diffusion(y, v, 1.0, cfg)
            assert abs(mass(y) - 1.0) <= 1e-12
            assert np.min(y.values) >= -1e-14

    def test_2d_gibbs_equilibrium(self):
        d = build_grid(2, [1.0, 1.0], [16, 16])
        gx, gy = d.center_grids()
        f = ScalarField(d, 1.0 + 0.2 * np.cos(np.pi * gx) * np.cos(np.pi * gy)).normalized()
        target = TargetDensity.create(f)
        v = stabilizing_velocity(target, 1.0)
        y1 = step_advection_diffusion(f, v, 1.0, StepperConfig(dt=1e-2))
        assert np.max(np.abs(y1.values - f.values)) <= 1e-12

    def test_uniform_source_drains_mass(self, unit_grid_64):
        f = cosine_target(unit_grid_64)
        law = stabilizing_velocity(TargetDensity.create(f), 1.0)
        sink = ScalarField.constant(unit_grid_64, -0.5)
        # uniform linear sink drains mass at the configured rate
        dt = 1e-3
        y1 = step_advection_diffusion(f, law, 1.0, StepperConfig(dt=dt), source=sink)
        assert mass(y1) == pytest.approx(1.0 / (1.0 + 0.5 * dt), rel=1e-10)


class TestFixedPatternOperators:
    @settings(max_examples=150, deadline=None)
    @given(random_grids(), st.data())
    def test_operators_and_steps_match_scipy_oracle(self, domain, data):
        # assembly, the matrix handed to splu and four steps are bitwise the
        # scipy-arithmetic ones; upwind (zero diffusion) with zero velocities
        # prunes exact-zero rates and diagonals, dt = 0 prunes every
        # off-diagonal of the system
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        diffusion = data.draw(st.sampled_from([0.0, 0.05, 1.0]))
        flux = data.draw(st.sampled_from(["exponential", "centered"]))
        scheme = data.draw(st.sampled_from(SCHEMES))
        dt = data.draw(st.sampled_from([0.0, 1e-3, 0.05]))
        velocity = None
        if data.draw(st.booleans()):
            comps = [5.0 * rng.standard_normal(domain.face_shape(k)) for k in range(domain.dim)]
            for c in comps:
                c[rng.random(c.shape) < 0.4] = 0.0
            velocity = FaceField(domain, tuple(comps))
        source = None
        if data.draw(st.booleans()):  # a sink, zero in about half the cells
            sink = np.where(rng.random(domain.shape) < 0.5, 0.0, -rng.random(domain.shape))
            source = ScalarField(domain, sink)

        matrix = assemble_advection_diffusion(domain, velocity, diffusion, flux, source)
        with mock.patch.object(pde, "two_point_flux_matrix", scipy_two_point_flux_matrix):
            expected = assemble_advection_diffusion(domain, velocity, diffusion, flux, source)
        assert_bitwise_equal(matrix, expected)

        with mock.patch.object(spla, "splu", wraps=spla.splu) as splu:
            step = make_stepper(matrix, dt, scheme)
        system, oracle_step = scipy_make_stepper(expected, dt, scheme)
        assert_bitwise_equal(splu.call_args.args[0], system)
        y = y_oracle = rng.random(domain.cell_count)
        for _ in range(4):
            y, y_oracle = step(y), oracle_step(y_oracle)
            assert y.tobytes() == y_oracle.tobytes()

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_pruned_diagonal_steps_like_the_oracle(self, scheme):
        # upwind transport out of cell 0 only: cells 1-3 lose no mass, so
        # their diagonal entries are exact zeros and get pruned
        d = build_grid(1, [1.0], [4])
        matrix = assemble_advection_diffusion(d, FaceField(d, (np.array([1.0, 0.0, 0.0]),)), 0.0)
        assert matrix.nnz == 2
        y = np.array([1.0, 2.0, 3.0, 4.0])
        out = make_stepper(matrix, 0.1, scheme)(y)
        assert out.tobytes() == scipy_make_stepper(matrix, 0.1, scheme)[1](y).tobytes()
        assert out.sum() == pytest.approx(y.sum(), rel=1e-15)

    @pytest.mark.parametrize("dt", [-1.0, math.nan, math.inf], ids=["negative", "nan", "inf"])
    def test_bad_dt_rejected(self, unit_grid_64, dt):
        matrix = weighted_heat_operator(ScalarField.constant(unit_grid_64, 1.0)).matrix
        with pytest.raises(ConfigurationError):
            make_stepper(matrix, dt, "implicit_euler")

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_zero_dt_is_identity(self, unit_grid_64, scheme):
        matrix = weighted_heat_operator(ScalarField.constant(unit_grid_64, 1.0)).matrix
        y = random_density(unit_grid_64, np.random.default_rng(0)).flat
        np.testing.assert_array_equal(make_stepper(matrix, 0.0, scheme)(y), y)


class TestMarch:
    @settings(max_examples=40, deadline=None)
    @given(
        random_grids(),
        st.integers(1, 4),
        st.sampled_from(["implicit_euler", "crank_nicolson"]),
        st.floats(1e-3, 0.05),
        st.integers(0, 2**32 - 1),
    )
    def test_stacked_march_equals_column_marches(self, domain, k, scheme, duration, seed):
        # one factorization solving the (cells, k) stack gives every
        # column bitwise what its own march gives, at every step
        rng = np.random.default_rng(seed)
        a = ScalarField(domain, 0.5 + rng.random(domain.shape))
        matrix = weighted_heat_operator(a).matrix
        cfg = StepperConfig(dt=2e-3, scheme=scheme)
        stack = rng.random((domain.cell_count, k))
        stacked = list(march(matrix, stack, duration, domain, cfg))
        for col in range(k):
            single = list(march(matrix, stack[:, col], duration, domain, cfg))
            assert len(single) == len(stacked)
            for y_stack, y_col in zip(stacked, single):
                np.testing.assert_array_equal(y_stack[:, col], y_col)

    def test_step_count_and_zero_duration(self, unit_grid_64):
        cfg = StepperConfig(dt=1e-3)
        matrix = weighted_heat_operator(ScalarField.constant(unit_grid_64, 1.0)).matrix
        y = random_density(unit_grid_64, np.random.default_rng(0)).flat
        n = math.ceil(0.01 / clamped_dt(unit_grid_64, cfg))
        assert len(list(march(matrix, y, 0.01, unit_grid_64, cfg))) == n
        # a zero duration is one identity step: a new array, equal values
        (same,) = march(matrix, y, 0.0, unit_grid_64, cfg)
        assert same is not y
        np.testing.assert_array_equal(same, y)

    def test_negative_duration_rejected(self, unit_grid_64):
        from swarmctrl.errors import ConfigurationError

        y = ScalarField.constant(unit_grid_64, 1.0)
        with pytest.raises(ConfigurationError):
            evolve_weighted_heat(y, y, 1.0, -0.1)


class TestWeightedHeat:
    def test_zero_gain_is_identity(self, unit_grid_64):
        rng = np.random.default_rng(2)
        y = random_density(unit_grid_64, rng)
        y1 = evolve_weighted_heat(y, ScalarField.constant(unit_grid_64, 2.0), 0.0, 1.0)
        np.testing.assert_array_equal(y1.values, y.values)

    def test_reciprocal_weight_is_stationary(self, unit_grid_64):
        # the kernel is spanned by 1/a, so any multiple stays put
        rng = np.random.default_rng(3)
        a = ScalarField(unit_grid_64, 0.5 + rng.random(64))
        y = ScalarField(unit_grid_64, 1.0 / a.values).normalized()
        y1 = evolve_weighted_heat(y, a, 1.0, 0.2, StepperConfig(dt=1e-3))
        assert np.max(np.abs(y1.values - y.values)) <= 1e-12

    def test_cosine_decays_at_spectral_gap(self):
        d = build_grid(1, [1.0], [256])
        x = d.axis_centers(0)
        a = ScalarField.constant(d, 1.0)
        gap = weighted_heat_operator(a).spectral_gap()
        assert gap == pytest.approx(np.pi**2, rel=1e-4)
        y = ScalarField(d, 1.0 + np.cos(np.pi * x))
        times, errors = [], []
        t = 0.0
        cfg = StepperConfig(dt=1e-3)
        for _ in range(8):
            y = evolve_weighted_heat(y, a, 1.0, 0.02, cfg)
            t += 0.02
            times.append(t)
            errors.append(np.max(np.abs(y.values - 1.0)))
        report = fit_decay_rate(times, errors)
        assert report.rate == pytest.approx(gap, rel=0.02)

    def test_weighted_sup_bound_invariant(self, unit_grid_64):
        rng = np.random.default_rng(4)
        a = ScalarField(unit_grid_64, 0.5 + rng.random(64))
        y = ScalarField(unit_grid_64, rng.random(64) / a.values)
        scale = np.max(a.values * y.values)
        y = ScalarField(unit_grid_64, y.values / scale)  # max(a*y) = 1
        cfg = StepperConfig(dt=5e-3)
        for _ in range(50):
            y = evolve_weighted_heat(y, a, 1.5, 5e-3, cfg)
            assert np.max(a.values * y.values) <= 1.0 + 1e-10

    def test_nonpositive_weight_rejected(self, unit_grid_64):
        y = ScalarField.constant(unit_grid_64, 1.0)
        bad = ScalarField(unit_grid_64, np.linspace(0.0, 1.0, 64))
        with pytest.raises(CoefficientError):
            evolve_weighted_heat(y, bad, 1.0, 0.1)


class TestStabilizingFlow:
    def test_target_is_fixed_point(self, unit_grid_128):
        f = cosine_target(unit_grid_128)
        y1 = evolve_stabilizing(f, f, 1.0, 0.3, StepperConfig(dt=1e-3))
        assert np.max(np.abs(y1.values - f.values)) <= 1e-12

    def test_lower_bound_preserved(self, unit_grid_64):
        # state >= floor * reciprocal-weight decomposition survives the flow
        rng = np.random.default_rng(5)
        for trial in range(3):
            a_vals = 0.6 + rng.random(64)
            f = ScalarField(unit_grid_64, 1.0 / a_vals)
            c2 = 0.4 / np.max(a_vals)
            bump = rng.random(64)
            budget = mass(f) - c2 * 1.0
            y_vals = c2 + bump * (budget / mass(ScalarField(unit_grid_64, bump)))
            y = ScalarField(unit_grid_64, y_vals)
            c1 = np.min(a_vals)
            bound = c1 * np.min(y.values) / np.max(a_vals)
            cfg = StepperConfig(dt=2e-3)
            state = y
            for _ in range(10):
                state = evolve_stabilizing(state, f, 1.0, 0.05, cfg)
                assert np.min(state.values) >= bound - 1e-10

    def test_exponential_convergence_to_target(self, unit_grid_64):
        rng = np.random.default_rng(6)
        f = cosine_target(unit_grid_64)
        y = random_density(unit_grid_64, rng)
        times, errors = [], []
        t = 0.0
        for _ in range(10):
            y = evolve_stabilizing(y, f, 1.0, 0.05, StepperConfig(dt=1e-3))
            t += 0.05
            times.append(t)
            errors.append(np.sqrt(np.sum((y.values - f.values) ** 2) / 64))
        assert all(b < a for a, b in zip(errors, errors[1:]))
        report = fit_decay_rate(times, errors)
        assert report.rate > 0
        assert report.residual <= 0.1

    def test_mass_mismatch_rejected(self, unit_grid_64):
        f = cosine_target(unit_grid_64)
        y = ScalarField.constant(unit_grid_64, 0.5)
        with pytest.raises(InputError):
            evolve_stabilizing(y, f, 1.0, 0.1)

    def test_nonpositive_target_rejected(self, unit_grid_64):
        f = ScalarField(unit_grid_64, np.linspace(0.0, 2.0, 64))
        y = ScalarField.constant(unit_grid_64, 1.0)
        with pytest.raises(TargetError):
            evolve_stabilizing(y, f, 1.0, 0.1)


class TestFitDecayRate:
    def test_exact_exponential(self):
        t = np.array([0.0, 0.5, 1.0])
        report = fit_decay_rate(t, np.exp(-2.0 * t))
        assert report.rate == pytest.approx(2.0, abs=1e-10)
        assert report.prefactor == pytest.approx(1.0, abs=1e-10)
        assert report.residual <= 1e-12

    def test_constant_series(self):
        report = fit_decay_rate([0.0, 1.0, 2.0], [0.7, 0.7, 0.7])
        assert report.rate == pytest.approx(0.0, abs=1e-12)

    def test_too_few_samples(self):
        with pytest.raises(FitError):
            fit_decay_rate([0.0, 1.0], [1.0, 0.5])

    def test_nonpositive_errors(self):
        with pytest.raises(FitError):
            fit_decay_rate([0.0, 1.0, 2.0], [1.0, 0.0, 0.5])
