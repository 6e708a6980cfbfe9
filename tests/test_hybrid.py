import math
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cosine_target, random_grids, strongly_connected_graphs
from swarmctrl import control, hybrid, pde
from swarmctrl.ctmc import (
    TransitionGraph,
    generator,
    propagate,
    synthesize_stationary_rates,
)
from swarmctrl.errors import GraphError, SynthesisError, TargetError
from swarmctrl.grid import ScalarField, build_grid, mass
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
from swarmctrl.pde import (
    fit_decay_rate,
    make_stepper,
    weighted_heat_operator,
)

BIG2 = TransitionGraph(2, ((1, 2), (2, 1)))


def two_state_target(domain, masses=(0.4, 0.6)):
    x = domain.axis_centers(0)
    f1 = ScalarField(domain, masses[0] * np.ones(domain.shape))
    f2 = ScalarField(domain, masses[1] * (1.0 + 0.3 * np.cos(np.pi * x)))
    return HybridTarget.create([f1, f2])


def random_stack(domain, n_states, rng):
    arrays = [0.2 + rng.random(domain.shape) for _ in range(n_states)]
    total = sum(a.sum() for a in arrays) * domain.cell_volume
    return StackedDensity(tuple(ScalarField(domain, a / total) for a in arrays))


def stack_error(state, target):
    return np.sqrt(
        sum(
            float(np.sum((a.values - b.values) ** 2))
            for a, b in zip(state.fields, target.fields)
        )
        * state.domain.cell_volume
    )


class TestSplitStep:
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_zero_velocity_step_is_heat_then_ctmc(self, data):
        # unit diffusion, no drift, spatially constant gains: transport acts
        # on cells and reaction on states, so the two commute and one split
        # step is expm(dt Q) applied after one heat step of every state
        d = data.draw(random_grids())
        g = data.draw(strongly_connected_graphs())
        n = g.n_vertices
        rates = data.draw(st.lists(st.floats(0.0, 5.0), min_size=g.n_edges, max_size=g.n_edges))
        dt = data.draw(st.floats(1e-3, 0.1))
        stack = random_stack(d, n, np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))))
        gains = SpatialGainSet(g, d, tuple(rates))
        out = SplitStepper(d, [None] * n, [1.0] * n, gains, dt).step(stack).as_array()
        heat = make_stepper(weighted_heat_operator(ScalarField.constant(d, 1.0)).matrix, dt)
        heated = np.stack([heat(f.flat) for f in stack.fields])
        ref = scipy.linalg.expm(dt * generator(g, rates)) @ heated
        assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_zero_gains_decouple(self, unit_grid_64):
        rng = np.random.default_rng(0)
        stack = random_stack(unit_grid_64, 2, rng)
        gains = SpatialGainSet(BIG2, unit_grid_64, (0.0, 0.0))
        out = SplitStepper(unit_grid_64, [None, None], [1.0, 0.5], gains, 1e-2).step(stack)
        # per-state masses unchanged without reaction
        np.testing.assert_allclose(
            out.mass_vector(), stack.mass_vector(), atol=1e-13
        )

    def test_pure_reaction_matches_dense_exponential(self, unit_grid_64):
        rng = np.random.default_rng(1)
        stack = random_stack(unit_grid_64, 2, rng)
        x = unit_grid_64.axis_centers(0)
        gains = SpatialGainSet(
            BIG2, unit_grid_64, (1.0 + 0.5 * np.sin(np.pi * x), 0.7 + 0.1 * x)
        )
        dt = 0.05
        out = SplitStepper(unit_grid_64, [None, None], [0.0, 0.0], gains, dt).step(stack)
        arr = stack.as_array()
        expected = np.empty_like(arr)
        for c in range(unit_grid_64.cell_count):
            q = np.array(
                [
                    [-gains.gains[0].flat[c], gains.gains[1].flat[c]],
                    [gains.gains[0].flat[c], -gains.gains[1].flat[c]],
                ]
            )
            expected[:, c] = scipy.linalg.expm(dt * q) @ arr[:, c]
        assert np.max(np.abs(out.as_array() - expected)) <= 1e-12

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_per_cell_propagators_match_expm_loop(self, data):
        # one batched expm over the (cells, N, N) stack is the per-cell
        # loop it replaced, bit for bit
        d = data.draw(random_grids())
        g = data.draw(strongly_connected_graphs())
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        gains = SpatialGainSet(
            g, d, tuple(10.0 ** rng.uniform(-3, 2, d.shape) for _ in range(g.n_edges))
        )
        dt_half = data.draw(st.floats(1e-4, 0.5))
        mats = generator(g, np.stack([k.reshape(-1) for k in gains.gains]))
        loop = np.stack([scipy.linalg.expm(dt_half * m) for m in mats])
        batched = hybrid._reaction_propagators(gains, dt_half, g.n_vertices)
        assert batched.tobytes() == loop.tobytes()

    def test_total_mass_conserved(self, unit_grid_64):
        rng = np.random.default_rng(2)
        stack = random_stack(unit_grid_64, 3, rng)
        g = TransitionGraph(3, ((1, 2), (2, 3), (3, 1)))
        x = unit_grid_64.axis_centers(0)
        gains = SpatialGainSet(
            g, unit_grid_64, tuple(0.5 + rng.random(64) for _ in range(3))
        )
        target = cosine_target(unit_grid_64)
        from swarmctrl.control import TargetDensity, stabilizing_velocity

        v = stabilizing_velocity(TargetDensity.create(target), 1.0)
        stepper = SplitStepper(unit_grid_64, [v, None, v], [1.0, 0.3, 0.2], gains, 5e-3)
        state = stack
        for _ in range(20):
            state = stepper.step(state)
            assert abs(state.total_mass() - 1.0) <= 1e-12
            assert min(np.min(f.values) for f in state.fields) >= -1e-13


class TestMassConsistency:
    def test_zero_rates_constant_masses(self, unit_grid_64):
        rng = np.random.default_rng(3)
        stack = random_stack(unit_grid_64, 2, rng)
        state = stack
        times = [0.0]
        masses = [stack.mass_vector()]
        gains = SpatialGainSet(BIG2, unit_grid_64, (0.0, 0.0))
        stepper = SplitStepper(unit_grid_64, [None, None], [1.0, 1.0], gains, 1e-2)
        for k in range(5):
            state = stepper.step(state)
            times.append((k + 1) * 1e-2)
            masses.append(state.mass_vector())
        report = mass_trajectory_consistency(times, masses, BIG2, [0.0, 0.0])
        assert report.max_deviation <= 1e-14

    def test_constant_rates_track_ode_exactly(self, unit_grid_64):
        # exact reaction exponentials + mass-conserving transport make the
        # mass vector follow the rate ODE to roundoff at ANY dt, so the
        # second-order ratio check degenerates; assert the O(dt^2) bound
        # with the roundoff floor branch
        rng = np.random.default_rng(4)
        rates = [1.0, 0.4]
        deviations = []
        for dt in (1e-3, 5e-4):
            stack = random_stack(unit_grid_64, 2, rng)
            gains = SpatialGainSet(BIG2, unit_grid_64, tuple(rates))
            stepper = SplitStepper(unit_grid_64, [None, None], [1.0, 0.5], gains, dt)
            state = stack
            times = [0.0]
            masses = [stack.mass_vector()]
            for k in range(int(round(0.1 / dt))):
                state = stepper.step(state)
                times.append((k + 1) * dt)
                masses.append(state.mass_vector())
            report = mass_trajectory_consistency(times, masses, BIG2, rates)
            deviations.append(report.max_deviation)
            assert report.max_deviation <= 1.0 * dt**2
        floor = 1e-12
        if deviations[0] > floor:
            assert 3.5 <= deviations[0] / deviations[1] <= 4.5
        else:
            assert max(deviations) <= floor


def test_target_fields_on_different_grids_rejected():
    coarse = ScalarField.constant(build_grid(1, [1.0], [8]), 0.5)
    fine = ScalarField.constant(build_grid(1, [1.0], [16]), 0.5)
    with pytest.raises(TargetError, match="different grids"):
        HybridTarget.create([coarse, fine])


class TestStabilizingGains:
    def test_uniform_target_constant_gains(self, unit_grid_64):
        f = [
            ScalarField.constant(unit_grid_64, 0.4),
            ScalarField.constant(unit_grid_64, 0.6),
        ]
        target = HybridTarget.create(f)
        rates = synthesize_stationary_rates(BIG2, target.mass_vector())
        gains = stabilizing_gains(BIG2, target, rates)
        assert all(np.ptp(g) == 0.0 for g in gains.gains)
        # flux-circulation form: q_e * mass_S / f_S
        masses = target.mass_vector()
        for g, q, (i, _) in zip(gains.gains, rates, BIG2.edges):
            expected = q * masses[i - 1] / f[i - 1].values[0]
            np.testing.assert_allclose(g, expected)

    def test_target_is_fixed_point(self, unit_grid_64):
        target = two_state_target(unit_grid_64)
        rates = synthesize_stationary_rates(BIG2, target.mass_vector())
        gains = stabilizing_gains(BIG2, target, rates)
        vels = stabilizing_velocities(target, [1.0, 1.0])
        state = StackedDensity(tuple(f.copy() for f in target.fields))
        stepper = SplitStepper(unit_grid_64, vels, [1.0, 1.0], gains, 1e-2)
        for _ in range(5):
            state = stepper.step(state)
            err = max(
                np.max(np.abs(a.values - b.values))
                for a, b in zip(state.fields, target.fields)
            )
            assert err <= 1e-12

    def test_random_starts_converge(self, unit_grid_64):
        rng = np.random.default_rng(5)
        target = two_state_target(unit_grid_64)
        rates = synthesize_stationary_rates(BIG2, target.mass_vector())
        gains = stabilizing_gains(BIG2, target, rates)
        vels = stabilizing_velocities(target, [1.0, 1.0])
        stepper = SplitStepper(unit_grid_64, vels, [1.0, 1.0], gains, 1e-2)
        state = random_stack(unit_grid_64, 2, rng)
        times, errors = [], []
        t = 0.0
        for k in range(600):
            state = stepper.step(state)
            t += 1e-2
            if k % 40 == 0:
                times.append(t)
                errors.append(stack_error(state, target))
        report = fit_decay_rate(times, errors)
        assert report.rate > 0
        assert errors[-1] <= 1e-4

    def test_zero_mass_state_redirects(self, unit_grid_64):
        f = [
            ScalarField(unit_grid_64, np.ones(64)),
            ScalarField(unit_grid_64, np.zeros(64)),
        ]
        target = HybridTarget.create(f)
        with pytest.raises(SynthesisError):
            stabilizing_gains(BIG2, target, np.array([1.0, 1.0]))


class TestZeroMassGains:
    def graph3(self):
        return TransitionGraph(3, ((1, 2), (2, 1), (1, 3), (3, 1)))

    def target3(self, domain):
        x = domain.axis_centers(0)
        return HybridTarget.create(
            [
                ScalarField(domain, 0.5 * (1.0 + 0.2 * np.cos(np.pi * x))),
                ScalarField(domain, 0.5 * np.ones(domain.shape)),
                ScalarField(domain, np.zeros(domain.shape)),
            ]
        )

    def test_full_support_reduces_to_plain_gains(self, unit_grid_64):
        target = two_state_target(unit_grid_64)
        gains = zero_mass_stabilizing_gains(BIG2, target)
        rates = synthesize_stationary_rates(BIG2, target.mass_vector())
        direct = stabilizing_gains(BIG2, target, rates)
        for a, b in zip(gains.gains, direct.gains):
            np.testing.assert_allclose(a, b)

    def test_blocked_edges_and_drain(self, unit_grid_64):
        g = self.graph3()
        target = self.target3(unit_grid_64)
        gains = zero_mass_stabilizing_gains(g, target)
        by_edge = dict(zip(g.edges, gains.gains))
        assert np.max(by_edge[(1, 3)]) == 0.0  # support -> off-support blocked
        assert np.min(by_edge[(3, 1)]) > 0.0   # drain edge active

    def test_transient_mass_decays_at_block_rate(self, unit_grid_64):
        rng = np.random.default_rng(6)
        g = self.graph3()
        target = self.target3(unit_grid_64)
        gains = zero_mass_stabilizing_gains(g, target)
        vels = stabilizing_velocities(target, [1.0, 1.0, 1.0])
        stepper = SplitStepper(unit_grid_64, vels, [1.0, 1.0, 1.0], gains, 1e-2)
        state = random_stack(unit_grid_64, 3, rng)
        times, transient = [], []
        t = 0.0
        for k in range(400):
            state = stepper.step(state)
            t += 1e-2
            if k % 20 == 0:
                times.append(t)
                transient.append(mass(state.fields[2]))
        report = fit_decay_rate(times, transient)
        # off-support block is D*lap - drain*I; its spectral bound is the
        # drain rate (gain 1 on the only outgoing edge)
        drain = np.max(gains.gains[g.edges.index((3, 1))])
        assert report.rate == pytest.approx(drain, rel=0.10)

    def test_one_state_support_is_drained_into(self, unit_grid_64):
        # no support-internal edge to synthesize rates for: the drain gains
        # alone stabilize, so the coupled generator has a simple zero
        # eigenvalue at the target and the drain rate 1 as its gap
        empty = ScalarField.constant(unit_grid_64, 0.0)
        target = HybridTarget.create([cosine_target(unit_grid_64), empty])
        gains = zero_mass_stabilizing_gains(BIG2, target)
        by_edge = dict(zip(BIG2.edges, gains.gains))
        assert np.max(by_edge[(1, 2)]) == 0.0
        np.testing.assert_array_equal(by_edge[(2, 1)], 1.0)
        report = coupled_spectrum(target, [1.0, 1.0], gains)
        assert report.zero_simple
        assert report.gap == pytest.approx(1.0, rel=1e-8)
        stacked = np.stack([f.flat for f in target.fields])
        assert np.max(np.abs(report.zero_vector - stacked)) <= 1e-8

    def test_disconnected_support_rejected(self, unit_grid_64):
        g = TransitionGraph(3, ((1, 3), (3, 1), (2, 3), (3, 2)))
        x = unit_grid_64.axis_centers(0)
        target = HybridTarget.create(
            [
                ScalarField(unit_grid_64, 0.5 * np.ones(64)),
                ScalarField(unit_grid_64, 0.5 * np.ones(64)),
                ScalarField(unit_grid_64, np.zeros(64)),
            ]
        )
        with pytest.raises(SynthesisError):
            zero_mass_stabilizing_gains(g, target)

    def test_trapped_zero_mass_states_named(self, unit_grid_64):
        # 3 is a sink and 4 leads only into it, so their mass could never
        # drain; 5 drains through 1, and the support {1, 2} is a cycle
        g = TransitionGraph(5, ((1, 2), (2, 1), (1, 3), (4, 3), (5, 1), (2, 5)))
        half = ScalarField(unit_grid_64, 0.5 * np.ones(64))
        empty = ScalarField.constant(unit_grid_64, 0.0)
        target = HybridTarget.create([half, half, empty, empty, empty])
        with pytest.raises(SynthesisError, match=r"states \[3, 4\] have no path") as info:
            zero_mass_stabilizing_gains(g, target)
        assert info.value.residual is None
        # with a way out of 3 every zero-mass state drains
        g = TransitionGraph(5, g.edges + ((3, 2),))
        gains = zero_mass_stabilizing_gains(g, target)
        np.testing.assert_array_equal(gains.gains[g.edges.index((4, 3))], 1.0)


@st.composite
def stabilized_configurations(draw):
    """A strongly connected 2-4-state graph, a 1D or 2D grid with at most 600
    unknowns over all states, smooth positive per-state targets of random
    mass and per-state diffusion constants."""
    graph = draw(strongly_connected_graphs())
    n = graph.n_vertices
    dim = draw(st.integers(1, 2))
    per_state = 600 // n
    high = per_state if dim == 1 else math.isqrt(per_state)
    cells = draw(st.lists(st.integers(2, high), min_size=dim, max_size=dim))
    lengths = draw(st.lists(st.floats(0.2, 5.0), min_size=dim, max_size=dim))
    domain = build_grid(dim, lengths, cells)
    fields = []
    for _ in range(n):
        values = np.ones(domain.shape)
        for length, x in zip(lengths, domain.center_grids()):
            amplitude = draw(st.floats(-0.45, 0.45))
            mode = draw(st.integers(1, 3))
            phase = draw(st.floats(0.0, 2 * np.pi))
            values = values + amplitude * np.cos(mode * np.pi * x / length + phase)
        fields.append(draw(st.floats(0.05, 1.0)) * values)
    total = sum(f.sum() for f in fields) * domain.cell_volume
    target = HybridTarget.create([ScalarField(domain, f / total) for f in fields])
    diffusion = draw(st.lists(st.floats(0.1, 2.0), min_size=n, max_size=n))
    return graph, target, diffusion


class TestCoupledSpectrum:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(stabilized_configurations())
    def test_matches_dense_oracle(self, case):
        graph, target, diffusion = case
        rates = synthesize_stationary_rates(graph, target.mass_vector())
        gains = stabilizing_gains(graph, target, rates)
        report = coupled_spectrum(target, diffusion, gains)
        matrix = hybrid._coupled_generator(target, diffusion, gains)
        vals, vecs = scipy.linalg.eig(matrix.toarray())
        tol = 1e-9 * float(np.max(np.abs(matrix.diagonal())))
        k = hybrid.SPECTRUM_EIGENVALUES
        # the reported eigenvalues are the k nearest the shift, by decreasing
        # real part; a conjugate pair cut at the k-th place may come with
        # either sign of its imaginary part
        sigma = 1e-6 * float(np.max(np.abs(matrix.diagonal())))
        nearest = vals[np.argsort(np.abs(vals - sigma), kind="stable")[:k]]
        nearest = nearest[np.argsort(-nearest.real, kind="stable")]
        assert report.eigenvalues.shape == (k,)
        np.testing.assert_allclose(report.eigenvalues.real, nearest.real, rtol=0, atol=tol)
        np.testing.assert_allclose(
            np.abs(report.eigenvalues.imag), np.abs(nearest.imag), rtol=0, atol=tol
        )
        # max real part, gap and simplicity as defined on the dense spectrum
        rightmost = np.argsort(-vals.real, kind="stable")
        assert report.max_real_part == pytest.approx(vals[rightmost[0]].real, abs=tol)
        assert report.gap == pytest.approx(-vals[rightmost[1]].real, abs=tol)
        assert report.zero_simple
        # the zero vector: the dense eigenvector of the zero eigenvalue at unit mass
        dense_zero = vecs[:, rightmost[0]].real
        dense_zero = dense_zero / (np.sum(dense_zero) * target.domain.cell_volume)
        scale = float(np.max(np.abs(dense_zero)))
        assert np.max(np.abs(report.zero_vector.reshape(-1) - dense_zero)) <= 1e-8 * scale
        stacked = np.stack([f.flat for f in target.fields]).reshape(-1)
        assert np.max(np.abs(report.zero_vector.reshape(-1) - stacked)) <= 1e-8 * scale

    def test_blocks_are_the_split_step_generators(self):
        # the certified generator is the one the split step advances: each
        # diagonal block is, bit for bit, the transport generator that
        # SplitStepper factors (zero velocity off the support)
        d = build_grid(2, [1.0, 1.5], [6, 5])
        gx, gy = d.center_grids()
        fields = [
            1.0 + 0.3 * np.cos(np.pi * gx) * np.cos(np.pi * gy / 1.5),
            np.zeros(d.shape),
            0.5 + gx * gy,
        ]
        total = sum(f.sum() for f in fields) * d.cell_volume
        target = HybridTarget.create([ScalarField(d, f / total) for f in fields])
        graph = TransitionGraph(3, ((1, 2), (2, 1), (1, 3), (3, 1), (2, 3)))
        gains = zero_mass_stabilizing_gains(graph, target)
        diffusion = [1.0, 0.3, 0.5]
        with mock.patch.object(hybrid, "make_stepper", wraps=pde.make_stepper) as spy:
            SplitStepper(d, stabilizing_velocities(target, diffusion), diffusion, gains, 1e-2)
        stepped = [call.args[0] for call in spy.call_args_list]
        assert len(stepped) == 3
        generator = hybrid._coupled_generator(target, diffusion, None).tocsr()
        n = d.cell_count
        for k, matrix in enumerate(stepped):
            block = generator[k * n:(k + 1) * n, k * n:(k + 1) * n]
            assert block.toarray().tobytes() == matrix.toarray().tobytes()

    def test_budget_at_3x1024_unknowns(self):
        # the benchmark's three-state graph on 1024 cells: one sparse LU and
        # a few Arnoldi steps, where a dense solve would hold the 3072^2
        # matrix (75 MB) and take tens of seconds
        d = build_grid(1, [1.0], [1024])
        x = d.axis_centers(0)
        graph = TransitionGraph(3, ((1, 2), (2, 3), (3, 1), (2, 1)))
        fields = [
            0.3 * (1.0 + 0.25 * np.cos(np.pi * x)),
            0.3 * (1.0 + 0.25 * np.cos(2 * np.pi * x)),
            0.4 * (1.0 - 0.25 * np.cos(np.pi * x)),
        ]
        target = HybridTarget.create([ScalarField(d, f) for f in fields])
        gains = stabilizing_gains(
            graph, target, synthesize_stationary_rates(graph, target.mass_vector())
        )
        start = time.perf_counter()
        report = coupled_spectrum(target, [1.0] * 3, gains)
        elapsed = time.perf_counter() - start
        tracemalloc.start()
        try:
            coupled_spectrum(target, [1.0] * 3, gains)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 1.0
        assert peak < 20e6
        stacked = np.stack(fields)
        assert np.max(np.abs(report.zero_vector - stacked)) <= 1e-8 * np.max(stacked)
        assert report.max_real_part <= 1e-8
        assert report.zero_simple

    def test_single_state_reduces_to_scalar(self, unit_grid_64):
        report = coupled_spectrum(HybridTarget.create([cosine_target(unit_grid_64)]), [1.0], None)
        assert report.max_real_part <= 1e-8
        assert np.max(np.abs(report.eigenvalues.imag)) <= 1e-8
        assert report.zero_simple

    def test_zero_generator(self, unit_grid_64):
        # no diffusion and no gains: every eigenvalue is zero, and the shift
        # still leaves the shifted generator invertible
        half = ScalarField.constant(unit_grid_64, 0.5)
        report = coupled_spectrum(HybridTarget.create([half, half]), [0.0, 0.0], None)
        np.testing.assert_array_equal(report.eigenvalues, 0.0)
        # a multiple zero eigenvalue (gap 0) is not simple
        assert not report.zero_simple

    def test_uniform_two_state_gap(self):
        d = build_grid(1, [1.0], [128])
        f = [ScalarField.constant(d, 0.5), ScalarField.constant(d, 0.5)]
        target = HybridTarget.create(f)
        gains = stabilizing_gains(BIG2, target, np.array([1.0, 1.0]))
        report = coupled_spectrum(target, [1.0, 1.0], gains)
        assert report.gap == pytest.approx(min(np.pi**2, 2.0), rel=0.02)

    def test_constant_gains_embed_rate_matrix_spectrum(self):
        # with spatially constant weights the mass-level rate matrix sits
        # inside the coupled spectrum (the spatially flat modes), so the
        # scalar spectrum check is reproduced by the assembled generator
        from swarmctrl.ctmc import spectrum_check

        d = build_grid(1, [1.0], [32])
        f = [ScalarField.constant(d, 0.4), ScalarField.constant(d, 0.6)]
        target = HybridTarget.create(f)
        rates = synthesize_stationary_rates(BIG2, target.mass_vector())
        gains = stabilizing_gains(BIG2, target, rates)
        assert all(np.ptp(g) == 0.0 for g in gains.gains)
        constants = [float(g.reshape(-1)[0]) for g in gains.gains]
        mass_level = spectrum_check(BIG2, constants)
        coupled = coupled_spectrum(target, [1.0, 1.0], gains)
        for lam in mass_level.eigenvalues:
            dist = np.min(np.abs(coupled.eigenvalues - lam))
            assert dist <= 1e-8

    def test_zero_vector_matches_target(self, unit_grid_64):
        target = two_state_target(unit_grid_64)
        rates = synthesize_stationary_rates(BIG2, target.mass_vector())
        gains = stabilizing_gains(BIG2, target, rates)
        report = coupled_spectrum(target, [1.0, 1.0], gains)
        assert report.max_real_part <= 1e-8
        assert report.zero_simple
        stacked = np.stack([f.flat for f in target.fields])
        assert np.max(np.abs(report.zero_vector - stacked)) <= 1e-8

    def test_zero_mass_block_strictly_stable(self, unit_grid_64):
        g = TransitionGraph(3, ((1, 2), (2, 1), (1, 3), (3, 1)))
        x = unit_grid_64.axis_centers(0)
        target = HybridTarget.create(
            [
                ScalarField(unit_grid_64, 0.5 * (1.0 + 0.2 * np.cos(np.pi * x))),
                ScalarField(unit_grid_64, 0.5 * np.ones(64)),
                ScalarField(unit_grid_64, np.zeros(64)),
            ]
        )
        gains = zero_mass_stabilizing_gains(g, target)
        # assemble only the off-support block: drain shifts the spectrum
        drain = np.max(gains.gains[g.edges.index((3, 1))])
        from swarmctrl.grid import divergence_form_operator

        ones = ScalarField.constant(unit_grid_64, 1.0)
        block = divergence_form_operator(ones).matrix.toarray() - drain * np.eye(64)
        vals = np.linalg.eigvals(block)
        assert np.max(vals.real) <= -drain + 1e-10


class TestHybridSteering:
    def test_non_sc_rejected_with_certificate(self, unit_grid_64):
        g = TransitionGraph(2, ((1, 2),))
        target = two_state_target(unit_grid_64)
        rng = np.random.default_rng(7)
        stack = random_stack(unit_grid_64, 2, rng)
        with pytest.raises(GraphError) as info:
            hybrid_steering_plan(g, stack, target, 1.0, 1e-2)
        assert info.value.certificate is not None

    def test_already_at_target_stays_within_tolerance(self, unit_grid_64):
        target = two_state_target(unit_grid_64)
        stack = StackedDensity(tuple(f.copy() for f in target.fields))
        plan = hybrid_steering_plan(BIG2, stack, target, 1.0, 2e-2)
        run = execute_hybrid_plan(plan, stack)
        assert np.max(run.per_state_error_l2) <= 2e-2

    def test_concentrated_start_end_to_end(self):
        d = build_grid(1, [1.0], [64])
        x = d.axis_centers(0)
        target = two_state_target(d)
        y1 = ScalarField(d, np.exp(-((x - 0.3) ** 2) / (2 * 0.06**2))).normalized()
        y2 = ScalarField(d, np.zeros(64))
        stack = StackedDensity((y1, y2))
        plan = hybrid_steering_plan(BIG2, stack, target, 2.0, 1e-2)
        run = execute_hybrid_plan(plan, stack)
        assert np.max(np.abs(run.switch_state.mass_vector() - target.mass_vector())) <= 1e-9
        mass_ode = propagate(stack.mass_vector(), plan.mass_control)[-1]
        np.testing.assert_allclose(run.switch_state.mass_vector(), mass_ode, rtol=0, atol=1e-12)
        assert np.max(run.per_state_error_l2) <= 1e-2
        assert np.isfinite(run.max_velocity)

    def test_stage_one_builds_no_split_stepper(self, monkeypatch):
        # stage 1 factors one heat step for the whole (cells, n_states)
        # stack; stage 2 starts at the first steering synthesis
        counts = {"split": 0, "factor": 0, "stage_one_factor": None}
        original_make_stepper = pde.make_stepper

        def counting_make_stepper(*args, **kwargs):
            counts["factor"] += 1
            return original_make_stepper(*args, **kwargs)

        for module in (pde, hybrid, control):
            monkeypatch.setattr(module, "make_stepper", counting_make_stepper)
        original_init = SplitStepper.__init__

        def counting_init(self, *args, **kwargs):
            counts["split"] += 1
            original_init(self, *args, **kwargs)

        monkeypatch.setattr(SplitStepper, "__init__", counting_init)
        original_synthesize = control.synthesize_steering_plan

        def marking_synthesize(*args, **kwargs):
            if counts["stage_one_factor"] is None:
                counts["stage_one_factor"] = counts["factor"]
            return original_synthesize(*args, **kwargs)

        monkeypatch.setattr(control, "synthesize_steering_plan", marking_synthesize)
        d = build_grid(1, [1.0], [32])
        stack = random_stack(d, 2, np.random.default_rng(5))
        # a mass transfer long enough for several segments of the rate plan
        target = two_state_target(d, masses=(0.05, 0.95))
        plan = hybrid_steering_plan(BIG2, stack, target, 1.0, 5e-2)
        assert plan.mass_control.n_intervals > 2
        execute_hybrid_plan(plan, stack)
        assert counts["split"] == 0
        assert counts["stage_one_factor"] == 1
