import dataclasses
import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cosine_target, implicit_step, random_density
from swarmctrl import control, grid, pde
from swarmctrl.control import (
    SteeringPlan,
    TargetDensity,
    execute_plan,
    feedback_velocity,
    follow_path,
    path_following_velocity,
    stabilizing_velocity,
    synthesize_steering_plan,
)
from swarmctrl.errors import (
    CompatibilityError,
    InputError,
    PlanError,
    PositivityLossError,
    TargetError,
    TruncationWarning,
)
from swarmctrl.grid import FaceField, ScalarField, build_grid, l2_norm, mass
from swarmctrl.pde import (
    assemble_advection_diffusion,
    fit_decay_rate,
    make_stepper,
    weighted_heat_operator,
)


def centered_step(y, v, dt):
    """One implicit Euler step of y_t = lap(y) - div(v y) with the centered
    flux, the flux the feedback and path laws are exact for."""
    matrix = assemble_advection_diffusion(y.domain, v, 1.0, "centered")
    return ScalarField(y.domain, make_stepper(matrix, dt)(y.flat))


class TestTargetDensity:
    def test_create_validates_mass(self, unit_grid_64):
        with pytest.raises(TargetError):
            TargetDensity.create(ScalarField.constant(unit_grid_64, 2.0))

    def test_create_validates_positivity(self, unit_grid_64):
        f = ScalarField(unit_grid_64, np.linspace(0.0, 2.0, 64))
        with pytest.raises(TargetError):
            TargetDensity.create(ScalarField(unit_grid_64, f.values / mass(f)))

    def test_reciprocal_cached(self, unit_grid_64):
        f = cosine_target(unit_grid_64)
        t = TargetDensity.create(f)
        np.testing.assert_allclose(t.a.values * f.values, 1.0, atol=1e-15)


class TestStabilizingVelocity:
    def test_uniform_target_gives_zero(self, unit_grid_64):
        f = ScalarField.constant(unit_grid_64, 1.0)
        v = stabilizing_velocity(TargetDensity.create(f), 1.0)
        assert v.max_abs() == 0.0

    def test_matches_analytic_gradient_ratio(self):
        d = build_grid(1, [1.0], [256])
        x = d.axis_centers(0)
        f = ScalarField(d, 1.0 + 0.3 * np.cos(np.pi * x))
        target = TargetDensity.create(ScalarField(d, f.values / mass(f)))
        v = stabilizing_velocity(target, 1.0)
        xf = 0.5 * (x[:-1] + x[1:])
        exact = -0.3 * np.pi * np.sin(np.pi * xf) / (1.0 + 0.3 * np.cos(np.pi * xf))
        h = d.spacing[0]
        assert np.max(np.abs(v.components[0] - exact)) <= 2.0 * h**2 * np.max(np.abs(exact)) + 1e-4

    def test_closed_loop_decays(self, unit_grid_64):
        rng = np.random.default_rng(0)
        f = cosine_target(unit_grid_64)
        target = TargetDensity.create(f)
        v = stabilizing_velocity(target, 1.0)
        y = random_density(unit_grid_64, rng)
        dt = 1e-3
        times, errors = [], []
        t = 0.0
        for k in range(300):
            y = implicit_step(y, v, 1.0, dt)
            t += dt
            if k % 30 == 0:
                times.append(t)
                errors.append(l2_norm(ScalarField(unit_grid_64, y.values - f.values)))
        report = fit_decay_rate(times, errors)
        assert report.rate > 0


class TestFeedbackVelocity:
    def test_at_target_matches_gradient_ratio(self):
        d = build_grid(1, [1.0], [256])
        x = d.axis_centers(0)
        raw = ScalarField(d, 1.0 + 0.3 * np.cos(np.pi * x))
        f = ScalarField(d, raw.values / mass(raw))
        target = TargetDensity.create(f)
        v = feedback_velocity(f, target, 0.7, 3)
        xf = 0.5 * (x[:-1] + x[1:])
        exact = -0.3 * np.pi * np.sin(np.pi * xf) / (1.0 + 0.3 * np.cos(np.pi * xf))
        assert np.max(np.abs(v.components[0] - exact)) <= 1e-3

    def test_closed_loop_equals_weighted_heat(self, unit_grid_128):
        # the feedback evaluated at the implicit end state reproduces the
        # open-loop step exactly through a different linear system
        rng = np.random.default_rng(1)
        f = cosine_target(unit_grid_128)
        target = TargetDensity.create(f)
        y = random_density(unit_grid_128, rng)
        alpha, j, dt = 0.4, 3, 1e-3
        open_step = make_stepper(alpha * j * weighted_heat_operator(target.a).matrix, dt)
        for _ in range(5):
            y_open = ScalarField(unit_grid_128, open_step(y.flat))
            v = feedback_velocity(y_open, target, alpha, j)
            y_closed = centered_step(y, v, dt)
            assert np.max(np.abs(y_closed.values - y_open.values)) <= 1e-12
            y = y_open

    def test_zero_gain_cancels_diffusion(self, unit_grid_64):
        rng = np.random.default_rng(2)
        f = cosine_target(unit_grid_64)
        target = TargetDensity.create(f)
        y = random_density(unit_grid_64, rng)
        v = feedback_velocity(y, target, 0.0, 1)
        y1 = centered_step(y, v, 1e-3)
        assert np.max(np.abs(y1.values - y.values)) <= 1e-12

    def test_floor_violation_raises(self, unit_grid_64):
        f = cosine_target(unit_grid_64)
        target = TargetDensity.create(f)
        y = ScalarField(unit_grid_64, np.zeros(64))
        with pytest.raises(PositivityLossError):
            feedback_velocity(y, target, 1.0, 1)

    @pytest.mark.parametrize("cells", [[64], [6, 5]])
    def test_batched_faces_check_every_state(self, cells):
        # a batch of states gives each state's faces bitwise, and one state
        # below the floor anywhere in the batch fails the whole batch
        d = build_grid(len(cells), [1.0] * len(cells), cells)
        rng = np.random.default_rng(3)
        target = TargetDensity.create(random_density(d, rng, floor=0.5))
        states = np.stack([random_density(d, rng).values for _ in range(4)])
        a = target.a.values
        batched = control._feedback_faces(states, a, 2.5, d)
        for k, state in enumerate(states):
            for axis, comp in enumerate(control._feedback_faces(state, a, 2.5, d)):
                assert batched[axis][k].tobytes() == comp.tobytes()
        states[3].flat[7] = 0.0
        control._feedback_faces(states[:3], a, 2.5, d)
        with pytest.raises(PositivityLossError):
            control._feedback_faces(states, a, 2.5, d)


class TestSteeringPlan:
    def test_mass_mismatch_rejected(self, unit_grid_64):
        f = cosine_target(unit_grid_64)
        target = TargetDensity.create(f)
        y0 = ScalarField.constant(unit_grid_64, 0.5)
        with pytest.raises(InputError):
            synthesize_steering_plan(y0, target, 1.0, 1e-2)

    @pytest.mark.parametrize(
        "t_final, tol",
        [(math.nan, 1e-2), (math.inf, 1e-2), (0.0, 1e-2), (1.0, math.nan), (1.0, math.inf),
         (1.0, 0.0)],
        ids=["nan-t_final", "inf-t_final", "zero-t_final", "nan-tol", "inf-tol", "zero-tol"],
    )
    def test_bad_horizon_or_tolerance_rejected(self, unit_grid_64, t_final, tol):
        target = TargetDensity.create(cosine_target(unit_grid_64))
        y0 = ScalarField.constant(unit_grid_64, 1.0)
        with pytest.raises(InputError):
            synthesize_steering_plan(y0, target, t_final, tol)

    def test_plan_structure_and_budget(self, unit_grid_64):
        rng = np.random.default_rng(3)
        f = cosine_target(unit_grid_64)
        target = TargetDensity.create(f)
        y0 = random_density(unit_grid_64, rng)
        plan = synthesize_steering_plan(y0, target, 1.0, 1e-2)
        tags = [p.tag for p in plan.phases]
        assert tags[:3] == ["zero", "stabilize", "smooth"]
        assert all(t == "gain" for t in tags[3:])
        assert sum(p.duration for p in plan.phases) == pytest.approx(1.0, abs=1e-12)
        assert plan.epsilon == pytest.approx(0.1)
        assert plan.alpha >= 1.0 / plan.target.spectral_gap
        # interval lengths follow the 1/j^2 profile
        gains = [p for p in plan.phases if p.tag == "gain"]
        for p, q in zip(gains, gains[1:]):
            assert q.duration == pytest.approx(p.duration * p.j**2 / q.j**2, rel=1e-12)

    def test_start_at_target_returns_within_tolerance(self, unit_grid_64):
        # the free-diffusion phase moves the state off the target; the
        # remaining phases bring it back within the requested tolerance
        f = cosine_target(unit_grid_64)
        target = TargetDensity.create(f)
        plan = synthesize_steering_plan(f, target, 0.5, 1e-2)
        run = execute_plan(plan, f)
        assert run.final_error_l2 <= 1e-2

    def test_truncation_warning_carries_achievable(self, unit_grid_64):
        rng = np.random.default_rng(4)
        f = cosine_target(unit_grid_64)
        target = TargetDensity.create(f)
        y0 = random_density(unit_grid_64, rng)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            plan = synthesize_steering_plan(y0, target, 1.0, 1e-40)
        msgs = [w for w in caught if issubclass(w.category, TruncationWarning)]
        assert len(msgs) == 1
        assert msgs[0].message.achievable > 1e-40
        assert len(plan.intervals) == 40

    def test_duration_mismatch_rejected(self, unit_grid_64):
        f = cosine_target(unit_grid_64)
        target = TargetDensity.create(f)
        plan = synthesize_steering_plan(f, target, 1.0, 1e-2)
        with pytest.raises(PlanError):
            SteeringPlan(
                target=target,
                t_final=2.0,
                epsilon=plan.epsilon,
                alpha=plan.alpha,
                intervals=plan.intervals,
                predicted_error=plan.predicted_error,
            )

    @pytest.mark.parametrize("entry", [0, 1], ids=["epsilon", "interval"])
    @pytest.mark.parametrize("value", [0.0, -0.01], ids=["zero", "negative"])
    def test_nonpositive_duration_rejected(self, unit_grid_64, entry, value):
        # the other entry takes up the difference, so the durations still
        # sum to t_final and only their sign is wrong
        f = cosine_target(unit_grid_64)
        plan = synthesize_steering_plan(f, TargetDensity.create(f), 1.0, 1e-2)
        durations = [plan.epsilon, *plan.intervals]
        durations[1 - entry] += durations[entry] - value
        durations[entry] = value
        with pytest.raises(PlanError):
            dataclasses.replace(plan, epsilon=durations[0], intervals=tuple(durations[1:]))

    def test_uniform_target_plan_leaves_uniform_state(self, unit_grid_64):
        # with a uniform target every phase realizes a zero velocity, so
        # the uniform state passes through the whole plan untouched
        f = ScalarField.constant(unit_grid_64, 1.0)
        target = TargetDensity.create(f)
        plan = synthesize_steering_plan(f, target, 0.5, 1e-2)
        run = execute_plan(plan, f)
        assert run.final_error_l2 <= 1e-12
        assert run.max_velocity <= 1e-12

    def test_bump_steering_with_witness_envelope(self):
        d = build_grid(1, [1.0], [128])
        x = d.axis_centers(0)
        f = ScalarField(d, 1.0 + 0.3 * np.sin(2 * np.pi * x) + 0.7).normalized()
        target = TargetDensity.create(f)
        y0 = ScalarField(d, np.exp(-((x - 0.5) ** 2) / (2 * 0.06**2))).normalized()
        plan = synthesize_steering_plan(y0, target, 1.0, 1e-2)
        run = execute_plan(plan, y0)
        assert run.final_error_l2 <= 1e-2
        assert np.isfinite(run.max_velocity)

        # mass and positivity survive every phase
        for _t, state in run.snapshots:
            assert abs(mass(state) - 1.0) <= 1e-12
            assert np.min(state.values) >= -1e-12

    def test_full_schedule_witness_stays_bounded(self, unit_grid_64):
        # force all 40 gain intervals (unreachable tolerance) and verify
        # the alpha*j feedback velocities never blow up as j grows: the
        # state's distance to the target shrinks like exp(-c*H_j) while
        # the gain grows only linearly in j
        rng = np.random.default_rng(11)
        f = cosine_target(unit_grid_64)
        target = TargetDensity.create(f)
        y0 = random_density(unit_grid_64, rng)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            plan = synthesize_steering_plan(y0, target, 1.0, 1e-40)
        assert len(plan.intervals) == 40
        run = execute_plan(plan, y0)
        witness = [r.max_velocity for r in run.records if r.tag == "gain"]
        assert len(witness) == 40
        assert all(np.isfinite(w) for w in witness)
        peak = max(witness[:5])
        assert max(witness[5:]) <= 1.5 * peak
        assert witness[-1] <= 1.5 * peak

    def test_2d_steering(self):
        d = build_grid(2, [1.0, 1.0], [24, 24])
        gx, gy = d.center_grids()
        f = ScalarField(d, 1.0 + 0.2 * np.cos(np.pi * gx) * np.cos(np.pi * gy)).normalized()
        target = TargetDensity.create(f)
        y0 = ScalarField(
            d, np.exp(-((gx - 0.4) ** 2 + (gy - 0.6) ** 2) / (2 * 0.08**2))
        ).normalized()
        plan = synthesize_steering_plan(y0, target, 0.5, 2e-2)
        run = execute_plan(plan, y0)
        assert run.final_error_l2 <= 2e-2
        assert np.isfinite(run.max_velocity)

        # error envelope: after gain interval j the weighted error sits
        # below twice exp(-alpha*gap*scale*H_j) times the entry error
        gain_records = [r for r in run.records if r.tag == "gain"]
        entry_error = run.records[2].end_error_weighted
        alpha, gap = plan.alpha, plan.target.spectral_gap
        scale = plan.intervals[0]  # = scale/1^2
        harmonic = 0.0
        for r in gain_records:
            harmonic += 1.0 / r.j
            envelope = entry_error * np.exp(-alpha * gap * scale * harmonic)
            assert r.end_error_weighted <= 2.0 * envelope + 1e-13

        # boundedness witness: the gain-phase velocities do not blow up
        witness = [r.max_velocity for r in gain_records]
        assert all(np.isfinite(w) for w in witness)
        assert witness[-1] <= 2.0 * max(witness[:3])

    def test_2d_synthesis_stays_sparse(self):
        # a dense n^2 gap at 64x64 cells alone is 128 MB
        d = build_grid(2, [1.0, 1.0], [64, 64])
        gx, gy = d.center_grids()
        f = ScalarField(d, 1.0 + 0.2 * np.cos(np.pi * gx) * np.cos(np.pi * gy)).normalized()
        target = TargetDensity.create(f)
        y0 = ScalarField(d, np.exp(-((gx - 0.4) ** 2) / 0.02)).normalized()
        tracemalloc.start()
        try:
            plan = synthesize_steering_plan(y0, target, 0.5, 2e-2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert plan.target.spectral_gap > 0
        assert peak <= 16 * 2**20


def witness_by_phase(plan, y0, dt):
    """Per-phase velocity sup-norms from a plain step loop that evaluates
    the public feedback law after every step."""
    target = plan.target
    domain = target.domain
    heat = weighted_heat_operator(target.a).matrix
    y = y0.flat
    out = []
    for phase in plan.phases:
        law = None
        if phase.tag == "zero":
            matrix, sup = assemble_advection_diffusion(domain, None, 1.0), 0.0
        elif phase.tag == "stabilize":
            v = stabilizing_velocity(target, 1.0)
            matrix, sup = assemble_advection_diffusion(domain, v, 1.0), v.max_abs()
        else:
            law = (1.0, 1) if phase.tag == "smooth" else (phase.alpha, phase.j)
            matrix, sup = law[0] * law[1] * heat, 0.0
        n_steps = max(1, math.ceil(phase.duration / dt))
        step = make_stepper(matrix, phase.duration / n_steps)
        for _ in range(n_steps):
            y = step(y)
            if law is not None:
                v = feedback_velocity(ScalarField(domain, y), target, *law)
                sup = max(sup, v.max_abs())
        out.append(sup)
    return out


def count_stepper_calls(monkeypatch):
    """Count factorizations (``make_stepper`` calls) and step calls made
    through ``pde.make_stepper``; returns the live counts."""
    counts = {"factor": 0, "step": 0}
    original = pde.make_stepper

    def counting_make_stepper(*args, **kwargs):
        counts["factor"] += 1
        step = original(*args, **kwargs)

        def counting_step(y):
            counts["step"] += 1
            return step(y)

        return counting_step

    monkeypatch.setattr(pde, "make_stepper", counting_make_stepper)
    return counts


class TestExecutePlan:
    @pytest.mark.parametrize("cells", [[64], [9, 12], [128]])
    def test_witness_matches_public_feedback_law(self, cells):
        d = build_grid(len(cells), [1.0] * len(cells), cells)
        rng = np.random.default_rng(8)
        target = TargetDensity.create(random_density(d, rng, floor=0.5))
        y0 = random_density(d, rng)
        plan = synthesize_steering_plan(y0, target, 0.5, 1e-3)
        dt = 2e-4
        if len(cells) == 1:
            # the witness phases span several blocks of march and end on
            # a ragged one
            rows = pde.BLOCK_BYTES // y0.flat.nbytes
            n_steps = [math.ceil(p.duration / dt) for p in plan.phases[2:]]
            assert any(n > rows and n % rows for n in n_steps)
        run = execute_plan(plan, y0, dt)
        assert [r.max_velocity for r in run.records] == witness_by_phase(plan, y0, dt)

    def test_one_factorization_per_phase_one_step_call_per_step(self, unit_grid_64, monkeypatch):
        # pins the work the benchmark traces as pde.factor_calls and
        # pde.solve_calls: march factors once per phase and calls the step
        # once per time step, whatever the block size
        counts = count_stepper_calls(monkeypatch)
        rng = np.random.default_rng(9)
        target = TargetDensity.create(random_density(unit_grid_64, rng, floor=0.5))
        y0 = random_density(unit_grid_64, rng)
        plan = synthesize_steering_plan(y0, target, 0.5, 1e-3)
        dt = 2e-3
        execute_plan(plan, y0, dt)
        assert counts["factor"] == len(plan.phases)
        assert counts["step"] == sum(max(1, math.ceil(p.duration / dt)) for p in plan.phases)

    def test_step_count_does_not_grow_with_the_grid(self, monkeypatch):
        # steps of dt whatever the grid: on 4096 cells, steps of min(dt, h^2)
        # would make about dt / h^2 = 1.7e4 times as many step calls
        counts = count_stepper_calls(monkeypatch)
        d = build_grid(1, [1.0], [4096])
        x = d.axis_centers(0)
        target = TargetDensity.create(
            ScalarField(d, 1.7 + 0.3 * np.sin(2 * np.pi * x)).normalized()
        )
        y0 = ScalarField(d, np.exp(-((x - 0.5) ** 2) / 0.005)).normalized()
        plan = synthesize_steering_plan(y0, target, 1.0, 1e-3)
        dt = 1e-3
        run = execute_plan(plan, y0, dt)
        assert run.final_error_l2 <= 1e-3
        assert counts["step"] == sum(max(1, math.ceil(p.duration / dt)) for p in plan.phases)
        assert counts["step"] <= 1.0 / dt + len(plan.phases)

    def test_plan_assembles_two_operators(self, unit_grid_64, monkeypatch):
        # the weighted-heat generator serves its gap and every smoothing and
        # gain phase; the relaxation generator serves its gap and the
        # stabilize phase; the zero phase's heat generator is the other
        # advection-diffusion assembly
        calls = {"divergence_form_operator": 0, "assemble_advection_diffusion": 0}

        def counting(name, original):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapper

        importers = {"divergence_form_operator": (grid, pde), "assemble_advection_diffusion": (pde, control)}
        for name, modules in importers.items():
            wrapper = counting(name, getattr(modules[0], name))
            for module in modules:
                monkeypatch.setattr(module, name, wrapper)
        rng = np.random.default_rng(6)
        target = TargetDensity.create(cosine_target(unit_grid_64))
        y0 = random_density(unit_grid_64, rng)
        plan = synthesize_steering_plan(y0, target, 1.0, 1e-3)
        assert len(plan.intervals) > 1
        execute_plan(plan, y0)
        assert calls == {"divergence_form_operator": 1, "assemble_advection_diffusion": 2}

    @pytest.mark.parametrize("alpha", [-1.0, math.nan, math.inf])
    def test_bad_gain_rejected(self, unit_grid_64, alpha):
        f = cosine_target(unit_grid_64)
        plan = synthesize_steering_plan(f, TargetDensity.create(f), 1.0, 1e-2)
        with pytest.raises(InputError):
            dataclasses.replace(plan, alpha=alpha)


class TestPathFollowing:
    def test_static_path_is_stationary(self, unit_grid_128):
        f = cosine_target(unit_grid_128)
        zero = ScalarField.constant(unit_grid_128, 0.0)
        v = path_following_velocity(f, zero)
        y1 = centered_step(f, v, 1e-3)
        assert np.max(np.abs(y1.values - f.values)) <= 1e-12

    def test_nonzero_mean_rate_rejected(self, unit_grid_64):
        f = cosine_target(unit_grid_64)
        with pytest.raises(CompatibilityError):
            path_following_velocity(f, ScalarField.constant(unit_grid_64, 1.0))

    def test_nonpositive_path_rejected(self, unit_grid_64):
        g = ScalarField(unit_grid_64, np.zeros(64))
        with pytest.raises(TargetError):
            path_following_velocity(g, ScalarField.constant(unit_grid_64, 0.0))

    @pytest.mark.parametrize(
        "t_final, n_steps",
        [(1.0, 0), (1.0, -3), (1.0, 2.5), (-1.0, 10), (math.nan, 10), (math.inf, 10)],
        ids=["zero-steps", "negative-steps", "fractional-steps", "negative-t_final",
             "nan-t_final", "inf-t_final"],
    )
    def test_bad_horizon_rejected(self, unit_grid_64, t_final, n_steps):
        f = cosine_target(unit_grid_64)
        zero = ScalarField.constant(unit_grid_64, 0.0)
        with pytest.raises(InputError):
            follow_path(lambda t: f, lambda t: zero, t_final, n_steps=n_steps)

    def test_linear_interpolation_tracking(self):
        d = build_grid(1, [1.0], [128])
        x = d.axis_centers(0)
        g0 = ScalarField(d, 1.0 + 0.3 * np.cos(np.pi * x)).normalized()
        g1 = ScalarField(d, 1.0 + 0.4 * np.sin(2 * np.pi * x) + 0.2).normalized()

        def gamma(t):
            return ScalarField(d, (1 - t) * g0.values + t * g1.values)

        def dgamma(_t):
            return ScalarField(d, g1.values - g0.values)

        res = follow_path(gamma, dgamma, 1.0, n_steps=400)
        assert res.sup_error <= 1e-6
        assert np.isfinite(res.max_velocity)


def check_path_step(domain, flux, diffusion, dt, rng):
    """One ``follow_path`` step, with its generator replaced by a random
    one, against a dense Crank-Nicolson solve of (I - dt/2 A) y1 =
    (I + dt/2 A) y; the generator's columns sum to zero, so the step also
    conserves mass to roundoff."""
    comps = tuple(5.0 * rng.standard_normal(domain.face_shape(k)) for k in range(domain.dim))
    matrix = assemble_advection_diffusion(domain, FaceField(domain, comps), diffusion, flux)
    y = rng.random(domain.cell_count)
    y[rng.random(y.size) < 0.3] = 0.0
    start = ScalarField(domain, y)
    positive = ScalarField.constant(domain, 1.0)  # the law needs a positive path
    zero = ScalarField.constant(domain, 0.0)
    with mock.patch.object(control, "assemble_advection_diffusion", lambda *args: matrix):
        res = follow_path(lambda t: start if t == 0.0 else positive, lambda t: zero, dt, 1)
    out = res.final_state.flat
    dense = matrix.toarray()
    eye = np.eye(domain.cell_count)
    expected = np.linalg.solve(eye - 0.5 * dt * dense, (eye + 0.5 * dt * dense) @ y)
    assert np.max(np.abs(out - expected)) <= 1e-12 * np.max(np.abs(expected))
    eps = np.finfo(float).eps
    assert abs(out.sum() - y.sum()) <= 4 * domain.cell_count * eps * np.abs(out).sum()


class TestPathStep:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(2, 512),
        st.sampled_from(["exponential", "centered"]),
        st.sampled_from([0.0, 0.05, 1.0]),
        st.sampled_from([1e-3, 1e-2]),
        st.integers(0, 2**32 - 1),
    )
    def test_step_matches_dense_crank_nicolson(self, cells, flux, diffusion, dt, seed):
        check_path_step(build_grid(1, [1.0], [cells]), flux, diffusion, dt, np.random.default_rng(seed))

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.integers(2, 24), min_size=2, max_size=2),
        st.sampled_from(["exponential", "centered"]),
        st.sampled_from([0.0, 0.05, 1.0]),
        st.sampled_from([1e-3, 1e-2]),
        st.integers(0, 2**32 - 1),
    )
    def test_2d_step_matches_dense_crank_nicolson(self, cells, flux, diffusion, dt, seed):
        domain = build_grid(2, [1.0, 1.5], cells)
        check_path_step(domain, flux, diffusion, dt, np.random.default_rng(seed))


def plain_follow_path(gamma, dgamma_dt, t_final, n_steps):
    """The per-step path-following loop that the blocked one replaced, kept
    as its oracle: one velocity, assembly, factorization and finiteness
    check per step."""
    start = gamma(0.0)
    domain = start.domain
    dt = t_final / n_steps
    y = start.flat.copy()
    times, errors, max_v = [0.0], [0.0], 0.0
    for k in range(n_steps):
        t_mid = (k + 0.5) * dt
        v = path_following_velocity(gamma(t_mid), dgamma_dt(t_mid))
        max_v = max(max_v, v.max_abs())
        matrix = assemble_advection_diffusion(domain, v, 1.0, "centered")
        y = 2.0 * make_stepper(matrix, 0.5 * dt)(y) - y
        assert np.all(np.isfinite(y))
        t = (k + 1) * dt
        times.append(t)
        errors.append(l2_norm(ScalarField(domain, y - gamma(t).flat)))
    return np.asarray(times), np.asarray(errors), max_v, y


@st.composite
def smooth_paths(draw):
    """A grid, a path gamma(t) = (1 - s(t)) g0 + s(t) g1 between two random
    positive unit-mass cosine profiles with a smooth monotone s, its time
    derivative, and a step count that is not a multiple of the block rows."""
    dim = draw(st.integers(1, 2))
    cells = [draw(st.integers(16, 300))] if dim == 1 else draw(
        st.lists(st.integers(6, 24), min_size=2, max_size=2)
    )
    domain = build_grid(dim, [1.0] * dim, cells)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = domain.center_grids()
    g0, g1 = (
        ScalarField(
            domain,
            1.0 + sum(rng.uniform(-0.3, 0.3) * np.cos(rng.integers(1, 4) * np.pi * xd) for xd in x),
        ).normalized()
        for _ in range(2)
    )
    c = draw(st.floats(0.0, 0.15))

    def gamma(t):
        s = t + c * np.sin(2 * np.pi * t)
        return ScalarField(domain, (1 - s) * g0.values + s * g1.values)

    def dgamma_dt(t):
        return ScalarField(domain, (1 + 2 * np.pi * c * np.cos(2 * np.pi * t)) * (g1.values - g0.values))

    rows = pde.BLOCK_BYTES // (8 * domain.cell_count)
    n_steps = rows * draw(st.integers(0, 2)) + draw(st.integers(1, rows - 1))
    return domain, gamma, dgamma_dt, n_steps


class TestBlockedPathFollowing:
    @settings(max_examples=12, deadline=None)
    @given(smooth_paths())
    def test_blocks_match_plain_step_loop(self, path):
        domain, gamma, dgamma_dt, n_steps = path
        res = follow_path(gamma, dgamma_dt, 1.0, n_steps=n_steps)
        times, errors, max_v, y = plain_follow_path(gamma, dgamma_dt, 1.0, n_steps)
        assert res.times.tobytes() == times.tobytes()
        if domain.dim == 1:
            assert res.max_velocity == max_v
        else:
            assert res.max_velocity == pytest.approx(max_v, rel=1e-12)
        np.testing.assert_allclose(res.errors, errors, rtol=0, atol=1e-12)
        np.testing.assert_allclose(res.final_state.flat, y, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n_steps", [1, 127, 128, 300])
    def test_one_velocity_call_per_block(self, monkeypatch, n_steps):
        # 128 cells: 128 steps per block, so ceil(n_steps / 128) calls
        calls = []

        def counting(gamma, dgamma_dt):
            calls.append(len(gamma))
            return path_following_velocity(gamma, dgamma_dt)

        monkeypatch.setattr(control, "path_following_velocity", counting)
        d = build_grid(1, [1.0], [128])
        f = cosine_target(d)
        zero = ScalarField.constant(d, 0.0)
        follow_path(lambda t: f, lambda t: zero, 1.0, n_steps=n_steps)
        assert len(calls) == math.ceil(n_steps / 128)
        assert sum(calls) == n_steps

