"""Acceptance suite: one test per criterion, each printing a pass/fail
line with the measured value and its pinned tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the report.
"""

import math
import time

import numpy as np
import pytest

from conftest import implicit_step, march_to_end
from swarmctrl.control import (
    TargetDensity,
    execute_plan,
    follow_path,
    stabilizing_velocity,
    synthesize_steering_plan,
)
from swarmctrl.ctmc import (
    PiecewiseConstantControl,
    TransitionGraph,
    breakpoint_states,
    generator,
    is_strongly_connected,
    local_step_control,
    monotone_certificate,
    propagate,
    spectrum_check,
    synthesize_stationary_rates,
    transfer_control,
)
from swarmctrl.grid import (
    FaceField,
    ScalarField,
    build_grid,
    divergence_form_operator,
    l2_norm,
    mass,
)
from swarmctrl.hybrid import (
    HybridTarget,
    SpatialGainSet,
    SplitStepper,
    StackedDensity,
    coupled_spectrum,
    execute_hybrid_plan,
    hybrid_steering_plan,
    mass_trajectory_consistency,
    stabilizing_gains,
    stabilizing_velocities,
    zero_mass_stabilizing_gains,
)
from swarmctrl.particles import ParticleEnsemble, empirical_density, sde_step
from swarmctrl.pde import (
    fit_decay_rate,
    march,
    weighted_heat_operator,
)


def report(number, name, value, tol, ok, unit=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance #{number:>2}] {name}: {value:.3e}{unit} (tol {tol:.3e}) -> {status}")
    return ok


def test_01_mass_conservation():
    start = time.monotonic()
    rng = np.random.default_rng(101)
    d = build_grid(1, [1.0], [128])
    y = ScalarField(d, rng.random(128)).normalized()
    dt = 1e-3
    worst = 0.0
    for _ in range(1000):
        v = FaceField(d, (rng.uniform(-4.0, 4.0, 127),))
        y = implicit_step(y, v, 1.0, dt)
        worst = max(worst, abs(math.fsum(y.flat) * d.cell_volume - 1.0))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-12 and elapsed < 5.0
    assert report(1, "mass conservation over 1000 steps", worst, 1e-12, ok)
    assert elapsed < 5.0, f"runtime {elapsed:.1f}s over budget"


def test_02_heat_decay_rate():
    start = time.monotonic()
    d = build_grid(1, [1.0], [256])
    x = d.axis_centers(0)
    heat = weighted_heat_operator(ScalarField.constant(d, 1.0))
    gap = heat.spectral_gap()
    y = ScalarField(d, 1.0 + 0.5 * np.cos(np.pi * x))
    dt = 1e-3
    times, errors = [], []
    t = 0.0
    for _ in range(8):
        y = march_to_end(heat.matrix, y, 0.02, dt)
        t += 0.02
        times.append(t)
        errors.append(np.max(np.abs(y.values - 1.0)))
    fit = fit_decay_rate(times, errors)
    rel = abs(fit.rate - gap) / gap
    elapsed = time.monotonic() - start
    ok = rel <= 0.02 and elapsed < 10.0
    assert report(2, "heat decay rate vs spectral gap (rel dev)", rel, 0.02, ok)
    assert elapsed < 10.0, f"runtime {elapsed:.1f}s over budget"


def test_03_weighted_sup_bound_invariance():
    rng = np.random.default_rng(103)
    d = build_grid(1, [1.0], [64])
    dt = 5e-3
    worst = -np.inf
    for _ in range(10):
        a = ScalarField(d, 0.5 + rng.random(64))
        raw = rng.random(64) / a.values
        raw /= np.max(a.values * raw)  # max(a*y0) = 1
        # every state of 500 steps of the flow with gain 1.2
        for block in march(1.2 * weighted_heat_operator(a).matrix, raw, 500 * dt, dt):
            worst = max(worst, float(np.max(a.values * block)) - 1.0)
    ok = worst <= 1e-10
    assert report(3, "weighted sup bound excess over 500 steps x 10", worst, 1e-10, ok)


def test_04_lower_bound_preservation():
    rng = np.random.default_rng(104)
    d = build_grid(1, [1.0], [64])
    dt = 2e-3
    worst = np.inf
    for _ in range(10):
        a_vals = 0.6 + rng.random(64)
        f = ScalarField(d, 1.0 / a_vals)
        c2 = 0.5 * mass(f)  # uniform floor below the mean of f
        bump = rng.random(64)
        budget = mass(f) - c2
        y = ScalarField(d, c2 + bump * budget / mass(ScalarField(d, bump)))
        c1, amax = float(np.min(a_vals)), float(np.max(a_vals))
        bound = c1 * float(np.min(y.values)) / amax
        relax = TargetDensity.create(f.normalized()).relaxation_operator.matrix
        state = y
        for _ in range(12):
            state = march_to_end(relax, state, 0.05, dt)
            worst = min(worst, float(np.min(state.values)) - (bound - 1e-10))
    ok = worst >= 0.0
    assert report(4, "relaxation lower-bound margin (min over runs)", worst, 0.0, ok)


def test_05_local_step_exactness():
    rng = np.random.default_rng(105)
    g = TransitionGraph(4, ((1, 2), (2, 3), (3, 4), (4, 1)))
    worst_end = 0.0
    worst_bp = 0.0
    for _ in range(100):
        mu0 = 0.05 + rng.random(4)
        mu0 /= mu0.sum()
        rho = 0.5 * float(np.min(mu0)) - 1e-9
        dmu = rng.uniform(-1.0, 1.0, 4)
        dmu -= dmu.mean()
        dmu *= (rho / 4.0) / max(np.max(np.abs(dmu)), 1e-12) * rng.random()
        ctrl, cert = local_step_control(g, mu0, mu0 + dmu, 1.0)
        traj = propagate(mu0, ctrl)
        worst_end = max(worst_end, float(np.max(np.abs(traj[-1] - (mu0 + dmu)))))
        predicted = breakpoint_states(mu0, cert)
        worst_bp = max(worst_bp, float(np.max(np.abs(traj - predicted))))
    ok = worst_end <= 1e-10 and worst_bp <= 1e-10
    assert report(5, "local-step endpoint error (100 random)", worst_end, 1e-10, ok)
    assert report(5, "local-step breakpoint closed forms", worst_bp, 1e-10, ok)


def test_06_global_transfer():
    rng = np.random.default_rng(106)
    graphs = [
        TransitionGraph(4, ((1, 2), (2, 3), (3, 4), (4, 1))),
        TransitionGraph(6, ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1), (3, 1), (5, 2))),
    ]
    worst = 0.0
    for g in graphs:
        for _ in range(25):
            mu0 = 0.04 + rng.random(g.n_vertices)
            mu0 /= mu0.sum()
            mu1 = 0.04 + rng.random(g.n_vertices)
            mu1 /= mu1.sum()
            ctrl = transfer_control(g, mu0, mu1, 1.0)
            assert np.all(ctrl.rates >= 0.0) and np.isfinite(ctrl.rates).all()
            traj = propagate(mu0, ctrl)
            worst = max(worst, float(np.max(np.abs(traj[-1] - mu1))))
    ok = worst <= 1e-9
    assert report(6, "global transfer endpoint error (50 pairs)", worst, 1e-9, ok)


def test_07_monotone_obstruction():
    rng = np.random.default_rng(107)
    built = 0
    worst_drop = 0.0
    while built < 10:
        n = int(rng.integers(2, 7))
        edges = tuple(
            (i, j)
            for i in range(1, n + 1)
            for j in range(1, n + 1)
            if i != j and rng.random() < 0.35
        )
        try:
            g = TransitionGraph(n, edges)
        except Exception:
            continue
        if is_strongly_connected(g) or g.n_edges == 0:
            continue
        built += 1
        cert = monotone_certificate(g)
        mu = 0.05 + rng.random(n)
        mu /= mu.sum()
        ctrl = PiecewiseConstantControl(
            g, np.linspace(0.0, 1.0, 11), rng.uniform(0.0, 3.0, (10, g.n_edges))
        )
        traj = propagate(mu, ctrl)
        values = [cert.value(s) for s in traj]
        for a, b in zip(values, values[1:]):
            worst_drop = max(worst_drop, a - b)
    ok = worst_drop <= 1e-12
    assert report(7, "monotone output worst per-step drop (10 graphs)", worst_drop, 1e-12, ok)


def test_08_scalar_steering_end_to_end():
    start = time.monotonic()
    d = build_grid(1, [1.0], [256])
    x = d.axis_centers(0)
    f = ScalarField(d, 1.0 + 0.3 * np.sin(2 * np.pi * x) + 0.7).normalized()
    target = TargetDensity.create(f)
    y0 = ScalarField(d, np.exp(-((x - 0.5) ** 2) / (2 * 0.05**2))).normalized()
    plan = synthesize_steering_plan(y0, target, 1.0, 1e-2)
    run = execute_plan(plan, y0)
    elapsed = time.monotonic() - start
    ok = run.final_error_l2 <= 1e-2 and np.isfinite(run.max_velocity) and elapsed < 60.0
    assert report(8, "steering final L2 error", run.final_error_l2, 1e-2, ok)
    print(f"[acceptance # 8] velocity sup-norm witness: {run.max_velocity:.3e} (finite)")
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s over budget"


def test_09_path_following():
    start = time.monotonic()
    d = build_grid(1, [1.0], [256])
    x = d.axis_centers(0)
    g0 = ScalarField(d, 1.0 + 0.3 * np.cos(np.pi * x)).normalized()
    g1 = ScalarField(d, 1.0 + 0.4 * np.sin(2 * np.pi * x) + 0.2).normalized()

    def gamma(t):
        return ScalarField(d, (1 - t) * g0.values + t * g1.values)

    def dgamma(_t):
        return ScalarField(d, g1.values - g0.values)

    res = follow_path(gamma, dgamma, 1.0, n_steps=1000)
    elapsed = time.monotonic() - start
    ok = res.sup_error <= 1e-3 and elapsed < 60.0
    assert report(9, "path tracking sup L2 error", res.sup_error, 1e-3, ok)
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s over budget"


def test_10_mass_ode_consistency():
    # The splitting composes exact reaction exponentials with transport
    # substeps whose columns sum to zero, so the per-state mass vector
    # reproduces the rate ODE exactly (deviation at roundoff for every
    # dt).  The O(dt^2) bound is therefore satisfied trivially and the
    # dt-halving ratio is noise; the ratio clause applies only above a
    # 1e-12 roundoff floor.  See notes on the structure-preserving
    # splitting in the README.
    rng = np.random.default_rng(110)
    d = build_grid(1, [1.0], [64])
    g = TransitionGraph(2, ((1, 2), (2, 1)))
    rates = [1.0, 0.5]
    deviations = []
    for dt in (1e-3, 5e-4):
        arrays = [0.2 + rng.random(64) for _ in range(2)]
        total = sum(a.sum() for a in arrays) * d.cell_volume
        state = StackedDensity(tuple(ScalarField(d, a / total) for a in arrays))
        gains = SpatialGainSet(g, d, tuple(rates))
        stepper = SplitStepper(d, [None, None], [1.0, 0.7], gains, dt)
        times = [0.0]
        masses = [state.mass_vector()]
        for k in range(int(round(0.2 / dt))):
            state = stepper.step(state)
            times.append((k + 1) * dt)
            masses.append(state.mass_vector())
        rep = mass_trajectory_consistency(times, masses, g, rates)
        deviations.append(rep.max_deviation)
        assert rep.max_deviation <= 1.0 * dt**2
    floor = 1e-12
    if max(deviations) > floor:
        ratio = deviations[0] / deviations[1]
        ok = 3.5 <= ratio <= 4.5
        assert report(10, "mass/ODE deviation ratio dt vs dt/2", ratio, 4.5, ok)
    else:
        ok = True
        report(10, "mass/ODE deviation (exact branch, both dt)", max(deviations), floor, ok)
    assert ok


def test_11_spectral_certificates():
    start = time.monotonic()
    rng = np.random.default_rng(111)
    worst = -np.inf
    built = 0
    while built < 100:
        n = int(rng.integers(2, 9))
        edges = tuple(
            (i, j)
            for i in range(1, n + 1)
            for j in range(1, n + 1)
            if i != j and rng.random() < 0.5
        )
        if not edges:
            continue
        built += 1
        g = TransitionGraph(n, edges)
        rates = rng.uniform(0.0, 5.0, g.n_edges)
        worst = max(worst, spectrum_check(g, rates).max_real_part)
    ok_a = worst <= 1e-10
    assert report(11, "rate-matrix spectra max real part (100 sets)", worst, 1e-10, ok_a)

    d = build_grid(1, [1.0], [128])
    x = d.axis_centers(0)
    g2 = TransitionGraph(2, ((1, 2), (2, 1)))
    f1 = ScalarField(d, 0.4 * np.ones(128))
    f2 = ScalarField(d, 0.6 * (1.0 + 0.3 * np.cos(np.pi * x)))
    target = HybridTarget.create([f1, f2])
    rates = synthesize_stationary_rates(g2, target.mass_vector())
    gains = stabilizing_gains(g2, target, rates)
    rep = coupled_spectrum(target, [1.0, 1.0], gains)
    stacked = np.stack([f.flat for f in target.fields])
    vec_err = float(np.max(np.abs(rep.zero_vector - stacked)))
    elapsed = time.monotonic() - start
    ok_b = rep.max_real_part <= 1e-8 and rep.zero_simple and vec_err <= 1e-8 and elapsed < 30.0
    assert report(11, "coupled generator max real part", rep.max_real_part, 1e-8, ok_b)
    assert report(11, "coupled zero-eigenvector deviation", vec_err, 1e-8, ok_b)
    assert rep.zero_simple
    assert elapsed < 30.0, f"runtime {elapsed:.1f}s over budget"


def test_12_hybrid_stabilization():
    rng = np.random.default_rng(112)
    d = build_grid(1, [1.0], [64])
    x = d.axis_centers(0)
    g = TransitionGraph(2, ((1, 2), (2, 1)))
    f1 = ScalarField(d, 0.4 * (1.0 + 0.2 * np.sin(np.pi * x)))
    f1 = ScalarField(d, 0.4 * f1.values / mass(f1))
    f2 = ScalarField(d, 0.6 * (1.0 + 0.3 * np.cos(np.pi * x)))
    f2 = ScalarField(d, 0.6 * f2.values / mass(f2))
    target = HybridTarget.create([f1, f2])
    rates = synthesize_stationary_rates(g, target.mass_vector())
    gains = stabilizing_gains(g, target, rates)
    vels = stabilizing_velocities(target, [1.0, 1.0])
    dt = 0.01
    stepper = SplitStepper(d, vels, [1.0, 1.0], gains, dt)
    worst_final = 0.0
    worst_rate = np.inf
    for _ in range(5):
        arrays = [0.2 + rng.random(64) for _ in range(2)]
        total = sum(a.sum() for a in arrays) * d.cell_volume
        state = StackedDensity(tuple(ScalarField(d, a / total) for a in arrays))
        times, errors = [], []
        t = 0.0
        for k in range(2000):
            state = stepper.step(state)
            t += dt
            if k % 25 == 0:
                err = math.sqrt(
                    sum(
                        float(np.sum((a.values - b.values) ** 2))
                        for a, b in zip(state.fields, target.fields)
                    )
                    * d.cell_volume
                )
                times.append(t)
                errors.append(err)
        final = math.sqrt(
            sum(
                float(np.sum((a.values - b.values) ** 2))
                for a, b in zip(state.fields, target.fields)
            )
            * d.cell_volume
        )
        worst_final = max(worst_final, final)
        window = [(tt, e) for tt, e in zip(times, errors) if e > 1e-12][:20]
        fit = fit_decay_rate([w[0] for w in window], [w[1] for w in window])
        worst_rate = min(worst_rate, fit.rate)
    ok = worst_final <= 1e-6 and worst_rate > 0
    assert report(12, "hybrid stabilization error at t=20 (5 starts)", worst_final, 1e-6, ok)
    assert report(12, "hybrid stabilization fitted rate (min)", worst_rate, 0.0, worst_rate > 0)


def test_13_zero_mass_stabilization():
    rng = np.random.default_rng(113)
    d = build_grid(1, [1.0], [64])
    x = d.axis_centers(0)
    g = TransitionGraph(3, ((1, 2), (2, 1), (1, 3), (3, 1)))
    target = HybridTarget.create(
        [
            ScalarField(d, 0.5 * (1.0 + 0.2 * np.cos(np.pi * x))),
            ScalarField(d, 0.5 * np.ones(64)),
            ScalarField(d, np.zeros(64)),
        ]
    )
    gains = zero_mass_stabilizing_gains(g, target)
    vels = stabilizing_velocities(target, [1.0, 1.0, 1.0])
    stepper = SplitStepper(d, vels, [1.0, 1.0, 1.0], gains, 0.01)
    arrays = [0.2 + rng.random(64) for _ in range(3)]
    total = sum(a.sum() for a in arrays) * d.cell_volume
    state = StackedDensity(tuple(ScalarField(d, a / total) for a in arrays))
    times, transient = [], []
    t = 0.0
    for k in range(600):
        state = stepper.step(state)
        t += 0.01
        if k % 25 == 0:
            times.append(t)
            transient.append(mass(state.fields[2]))
    fit = fit_decay_rate(times, transient)
    # oracle: eigenvalues of the off-support block D*lap - drain*I
    drain = float(np.max(gains.gains[g.edges.index((3, 1))]))
    ones = ScalarField.constant(d, 1.0)
    block = divergence_form_operator(ones).matrix.toarray() - drain * np.eye(64)
    bound = -float(np.max(np.linalg.eigvals(block).real))
    rel = abs(fit.rate - bound) / bound
    ok = rel <= 0.10
    assert report(13, "transient mass decay vs block bound (rel dev)", rel, 0.10, ok)


def test_14_hybrid_steering_end_to_end():
    start = time.monotonic()
    d = build_grid(1, [1.0], [128])
    x = d.axis_centers(0)
    g = TransitionGraph(2, ((1, 2), (2, 1)))
    f1 = ScalarField(d, 0.4 * np.ones(128))
    f2 = ScalarField(d, 0.6 * (1.0 + 0.3 * np.cos(np.pi * x)))
    target = HybridTarget.create([f1, f2])
    y1 = ScalarField(d, np.exp(-((x - 0.3) ** 2) / (2 * 0.06**2))).normalized()
    y2 = ScalarField(d, np.zeros(128))
    stack = StackedDensity((y1, y2))
    plan = hybrid_steering_plan(g, stack, target, 2.0, 1e-2)
    run = execute_hybrid_plan(plan, stack)
    worst = float(np.max(run.per_state_error_l2))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-2 and elapsed < 120.0
    assert report(14, "hybrid steering per-state final L2 error", worst, 1e-2, ok)
    assert elapsed < 120.0, f"runtime {elapsed:.1f}s over budget"


def test_15_particle_mean_field_agreement():
    d = build_grid(1, [1.0], [32])
    x = d.axis_centers(0)
    f = ScalarField(d, 1.0 + 0.3 * np.cos(np.pi * x)).normalized()
    target = TargetDensity.create(f)
    v = stabilizing_velocity(target, 1.0)
    y0 = ScalarField.constant(d, 1.0)
    y_pde = march_to_end(target.relaxation_operator.matrix, y0, 1.0, 1e-3)

    def run(seed):
        ens = ParticleEnsemble.uniform(d, 100000, state=1, seed=seed)
        for _ in range(1000):
            sde_step(ens, [v], [1.0], None, 1e-3)
        return ens

    ens = run(2024)
    emp = empirical_density(ens, d, 1)
    l1 = float(np.sum(np.abs(emp.density.fields[0].values - y_pde.values)) * d.cell_volume)
    ok = l1 <= 0.05
    assert report(15, "particle/mean-field L1 distance", l1, 0.05, ok)

    twin = run(2024)
    identical = np.array_equal(ens.positions, twin.positions) and np.array_equal(
        ens.states, twin.states
    )
    print(f"[acceptance #15] identical-seed reproducibility: {'PASS' if identical else 'FAIL'}")
    assert identical
