import io
import math
import time

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import strongly_connected_graphs
from swarmctrl.cli import _control_lines, _write_csv
from swarmctrl.ctmc import (
    PiecewiseConstantControl,
    TransitionGraph,
    breakpoint_states,
    find_covering_closed_walk,
    generator,
    is_strongly_connected,
    local_step_control,
    monotone_certificate,
    propagate,
    read_edge_list,
    spectrum_check,
    synthesize_stationary_rates,
    transfer_control,
    transition_matrix,
    validate_covering_closed_walk,
    validate_distribution,
)
from swarmctrl.errors import (
    CertificateError,
    GraphError,
    InputError,
    InteriorityError,
    StepSizeError,
)

CYCLE3 = TransitionGraph(3, ((1, 2), (2, 3), (3, 1)))
CYCLE4 = TransitionGraph(4, ((1, 2), (2, 3), (3, 4), (4, 1)))
BIPATH3 = TransitionGraph(3, ((1, 2), (2, 1), (2, 3), (3, 2)))


def interior_point(rng, n, floor=0.05):
    mu = floor + rng.random(n)
    return mu / mu.sum()


def edge_matrix(edge, n):
    """Generator of a single edge at unit rate."""
    return generator(TransitionGraph(n, (edge,)), [1.0])


def zero_sum_increment(rng, n, limit):
    d = rng.uniform(-1.0, 1.0, n)
    d -= d.mean()
    scale = limit / max(np.max(np.abs(d)), 1e-12)
    return d * scale * rng.random()


class TestRateMatrices:
    def test_edge_matrix_entries(self):
        q = edge_matrix((1, 2), 3)
        expected = np.zeros((3, 3))
        expected[0, 0] = -1.0
        expected[1, 0] = 1.0
        np.testing.assert_array_equal(q, expected)

    def test_column_sums_zero(self):
        q = edge_matrix((2, 3), 4)
        np.testing.assert_array_equal(q.sum(axis=0), np.zeros(4))

    def test_exponential_at_log_two(self):
        q = edge_matrix((1, 2), 2)
        p = scipy.linalg.expm(np.log(2.0) * q)
        np.testing.assert_allclose(p, [[0.5, 0.0], [0.5, 1.0]], atol=1e-14)

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError):
            edge_matrix((2, 2), 3)

    def test_per_cell_generator_stacks_single_generators(self):
        rng = np.random.default_rng(11)
        rates = rng.random((BIPATH3.n_edges, 5))
        stacked = generator(BIPATH3, rates)
        assert stacked.shape == (5, 3, 3)
        for c in range(5):
            np.testing.assert_array_equal(stacked[c], generator(BIPATH3, rates[:, c]))
        for bad in (rates[:3], rates[..., None], -rates):
            with pytest.raises(InputError):
                generator(BIPATH3, bad)

    def test_two_edge_product_closed_form(self):
        # product exp(t Q_(2,3)) exp(s Q_(1,2)) on three vertices
        s, t = 0.7, 1.3
        qa = edge_matrix((1, 2), 3)
        qb = edge_matrix((2, 3), 3)
        product = scipy.linalg.expm(t * qb) @ scipy.linalg.expm(s * qa)
        es, et = np.exp(-s), np.exp(-t)
        expected = np.array(
            [
                [es, 0.0, 0.0],
                [et * (1 - es), et, 0.0],
                [(1 - et) * (1 - es), 1 - et, 1.0],
            ]
        )
        np.testing.assert_allclose(product, expected, atol=1e-14)


class TestConnectivity:
    def test_cycle_strongly_connected(self):
        assert is_strongly_connected(CYCLE3)

    def test_chain_not_strongly_connected(self):
        chain = TransitionGraph(3, ((1, 2), (2, 3)))
        assert not is_strongly_connected(chain)

    def test_single_vertex_vacuous(self):
        assert is_strongly_connected(TransitionGraph(1, ()))

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_random_digraph_connectivity_and_certificates(self, data):
        n = data.draw(st.integers(1, 7))
        pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
        edges = data.draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
        g = TransitionGraph(n, tuple(edges))
        # transitive-closure oracle: reach[i, j] when j is reachable from i
        reach = np.eye(n, dtype=bool)
        for i, j in edges:
            reach[i - 1, j - 1] = True
        for k in range(n):
            reach |= reach[:, [k]] & reach[[k], :]
        assert is_strongly_connected(g) == bool(reach.all())
        if reach.all():
            return
        cert = monotone_certificate(g)
        source, sink = cert.source_set, cert.sink_set
        assert source and sink and not (source & sink)
        assert all(j in sink for i, j in edges if i in sink)        # closed forward
        assert all(i in source for i, j in edges if j in source)    # closed backward
        if not edges:
            return
        weights = data.draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n))
        mu = np.array(weights) / sum(weights)
        rates = data.draw(
            st.lists(
                st.lists(st.floats(0.0, 3.0), min_size=len(edges), max_size=len(edges)),
                min_size=1,
                max_size=4,
            )
        )
        ctrl = PiecewiseConstantControl(g, np.linspace(0.0, 1.0, len(rates) + 1), rates)
        values = [cert.value(state) for state in propagate(mu, ctrl)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


class TestMonotoneCertificate:
    def test_chain_certificate(self):
        chain = TransitionGraph(2, ((1, 2),))
        cert = monotone_certificate(chain)
        assert cert.source_set == frozenset({1})
        assert cert.sink_set == frozenset({2})
        assert cert.value(np.array([1.0, 0.0])) == -1.0

    def test_strongly_connected_rejected(self):
        with pytest.raises(CertificateError):
            monotone_certificate(CYCLE3)

    def test_output_nondecreasing_under_random_controls(self):
        rng = np.random.default_rng(0)
        graphs = [
            TransitionGraph(2, ((1, 2),)),
            TransitionGraph(3, ((1, 2), (2, 3))),
            TransitionGraph(4, ((1, 2), (2, 1), (2, 3), (3, 4), (4, 3))),
        ]
        for g in graphs:
            cert = monotone_certificate(g)
            mu = interior_point(rng, g.n_vertices)
            ctrl = PiecewiseConstantControl(
                g,
                np.linspace(0.0, 1.0, 9),
                rng.uniform(0.0, 3.0, (8, g.n_edges)),
            )
            traj = propagate(mu, ctrl)
            values = [cert.value(state) for state in traj]
            for a, b in zip(values, values[1:]):
                assert b >= a - 1e-12


class TestCoveringWalk:
    def test_cycle_walk_is_cycle(self):
        walk = find_covering_closed_walk(CYCLE3, 1)
        assert walk == [(1, 2), (2, 3), (3, 1)]

    def test_bidirected_path_walk(self):
        walk = find_covering_closed_walk(BIPATH3, 1)
        assert walk == [(1, 2), (2, 3), (3, 2), (2, 1)]

    def test_disconnected_rejected(self):
        chain = TransitionGraph(3, ((1, 2), (2, 3)))
        with pytest.raises(GraphError):
            find_covering_closed_walk(chain, 1)

    def test_length_bound(self):
        rng = np.random.default_rng(1)
        for n in (4, 5, 6):
            edges = [(i, i + 1) for i in range(1, n)] + [(n, 1)]
            extra = [(j, i) for i, j in edges if rng.random() < 0.5]
            g = TransitionGraph(n, tuple(edges + extra))
            walk = find_covering_closed_walk(g, 1)
            validate_covering_closed_walk(g, 1, walk)
            assert len(walk) <= n * (n - 1)


class TestLocalStep:
    def test_zero_increment_returns_start(self):
        mu0 = np.array([1.0, 1.0, 1.0]) / 3.0
        ctrl, cert = local_step_control(CYCLE3, mu0, mu0, 1.0)
        traj = propagate(mu0, ctrl)
        np.testing.assert_allclose(traj[-1], mu0, atol=1e-12)
        assert cert.rho > 0

    def test_cycle_example_endpoint(self):
        mu0 = np.array([1.0, 1.0, 1.0]) / 3.0
        dmu = np.array([0.05, -0.05, 0.0])
        ctrl, _ = local_step_control(CYCLE3, mu0, mu0 + dmu, 1.0)
        traj = propagate(mu0, ctrl)
        np.testing.assert_allclose(
            traj[-1], [0.05 + 1 / 3, 1 / 3 - 0.05, 1 / 3], atol=1e-10
        )
        assert np.all(ctrl.rates >= 0.0)
        assert np.isfinite(ctrl.rates).all()

    def test_oversized_increment_rejected(self):
        mu0 = np.array([1.0, 1.0, 1.0]) / 3.0
        dmu = np.array([0.2, -0.2, 0.0])  # 1-norm 0.4 > rho = 1/6
        with pytest.raises(StepSizeError):
            local_step_control(CYCLE3, mu0, mu0 + dmu, 1.0)

    def test_breakpoints_match_closed_forms(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            mu0 = interior_point(rng, 4)
            rho = 0.5 * mu0.min() - 1e-9
            dmu = zero_sum_increment(rng, 4, rho / 4)
            ctrl, cert = local_step_control(CYCLE4, mu0, mu0 + dmu, 1.0)
            traj = propagate(mu0, ctrl)
            predicted = breakpoint_states(mu0, cert)
            assert np.max(np.abs(traj - predicted)) <= 1e-10

    def test_repeated_visit_walk_exact(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            mu0 = interior_point(rng, 3)
            rho = 0.5 * mu0.min() - 1e-9
            dmu = zero_sum_increment(rng, 3, rho / 3)
            ctrl, cert = local_step_control(BIPATH3, mu0, mu0 + dmu, 0.7)
            # every covering walk of the path 1-2-3 passes vertex 2 twice
            sources = [src for src, _ in cert.walk]
            assert len(sources) > len(set(sources))
            traj = propagate(mu0, ctrl)
            assert np.max(np.abs(traj[-1] - (mu0 + dmu))) <= 1e-10
            predicted = breakpoint_states(mu0, cert)
            assert np.max(np.abs(traj - predicted)) <= 1e-10

    def test_exhaustive_small_grid(self):
        # all zero-sum increments on a coarse component mesh, N = 3
        mu0 = np.array([0.3, 0.3, 0.4])
        rho = 0.5 * 0.3 - 1e-9
        mesh = np.linspace(-rho / 3, rho / 3, 5)
        for d1 in mesh:
            for d2 in mesh:
                dmu = np.array([d1, d2, -(d1 + d2)])
                if np.sum(np.abs(dmu)) > rho:
                    continue
                ctrl, _ = local_step_control(CYCLE3, mu0, mu0 + dmu, 1.0)
                traj = propagate(mu0, ctrl)
                assert np.max(np.abs(traj[-1] - (mu0 + dmu))) <= 1e-10


class TestPropagate:
    def test_zero_control_constant(self):
        mu0 = np.array([0.2, 0.3, 0.5])
        ctrl = PiecewiseConstantControl(CYCLE3, np.array([0.0, 1.0]), np.zeros((1, 3)))
        traj = propagate(mu0, ctrl)
        np.testing.assert_array_equal(traj[0], traj[1])

    def test_single_edge_exponential_decay(self):
        g = TransitionGraph(2, ((1, 2),))
        rate, duration = 1.7, 0.9
        ctrl = PiecewiseConstantControl(
            g, np.array([0.0, duration]), np.array([[rate]])
        )
        mu0 = np.array([0.6, 0.4])
        traj = propagate(mu0, ctrl)
        assert traj[-1][0] == pytest.approx(0.6 * np.exp(-rate * duration), abs=1e-14)

    @settings(max_examples=20, deadline=None)
    @given(
        rates=st.lists(
            st.lists(st.floats(0.0, 5.0), min_size=3, max_size=3),
            min_size=1,
            max_size=4,
        )
    )
    def test_simplex_invariance(self, rates):
        rates = np.array(rates)
        ctrl = PiecewiseConstantControl(
            CYCLE3, np.linspace(0.0, 1.0, rates.shape[0] + 1), rates
        )
        mu0 = np.array([0.5, 0.25, 0.25])
        traj = propagate(mu0, ctrl)
        sums = traj.sum(axis=1)
        assert np.max(np.abs(sums - 1.0)) <= 1e-12
        assert traj.min() >= -1e-12

    @settings(max_examples=20, deadline=None)
    @given(
        rates=st.lists(
            st.lists(st.floats(0.0, 5.0), min_size=3, max_size=3),
            min_size=0,
            max_size=4,
        )
    )
    def test_transition_matrix_columns_propagate_unit_vectors(self, rates):
        rates = np.array(rates).reshape(-1, 3)
        ctrl = PiecewiseConstantControl(
            CYCLE3, np.linspace(0.0, 1.0, rates.shape[0] + 1), rates
        )
        p = transition_matrix(ctrl)
        for j in range(3):
            end = propagate(np.eye(3)[j], ctrl)[-1]
            np.testing.assert_allclose(p[:, j], end, rtol=0, atol=1e-14)
        np.testing.assert_allclose(p.sum(axis=0), 1.0, rtol=0, atol=1e-12)


class TestGlobalTransfer:
    def test_identical_endpoints_full_duration(self):
        # one zero-increment local step: the carried mass circulates once
        mu = np.array([0.25, 0.25, 0.5])
        for graph, duration in ((CYCLE3, 1.0), (CYCLE3, 0.3), (BIPATH3, 7.0)):
            ctrl = transfer_control(graph, mu, mu, duration)
            assert ctrl.n_intervals == len(find_covering_closed_walk(graph, 1))
            assert ctrl.breakpoints[0] == 0.0
            assert abs(math.fsum(np.diff(ctrl.breakpoints)) - duration) <= 1e-12
            assert np.max(np.abs(propagate(mu, ctrl)[-1] - mu)) <= 1e-12
            assert ctrl.max_rate() > 0

    def test_two_state_segment_count(self):
        g = TransitionGraph(2, ((1, 2), (2, 1)))
        mu0 = np.array([0.5, 0.5])
        mu1 = np.array([0.25, 0.75])
        ctrl = transfer_control(g, mu0, mu1, 1.0)
        # rho = 1/4 at the start and L = 1/2: the first segment moves 1/4
        # to (3/8, 5/8), whose rho = 5/16 covers the remaining 1/4, so
        # 2 segments of a walk of length 2
        assert ctrl.n_intervals == 4
        traj = propagate(mu0, ctrl)
        assert np.max(np.abs(traj[-1] - mu1)) <= 1e-9

    def test_random_pairs_endpoint_error(self):
        rng = np.random.default_rng(4)
        for g in (CYCLE4, BIPATH3):
            for _ in range(10):
                mu0 = interior_point(rng, g.n_vertices)
                mu1 = interior_point(rng, g.n_vertices)
                ctrl = transfer_control(g, mu0, mu1, 1.0)
                traj = propagate(mu0, ctrl)
                assert np.max(np.abs(traj[-1] - mu1)) <= 1e-9
                assert np.all(ctrl.rates >= 0.0)
                assert np.isfinite(ctrl.rates).all()

    def test_boundary_target_rejected(self):
        # any start is accepted, but every state the target empties would
        # need an infinite rate at its first exit
        mu0 = np.array([0.4, 0.3, 0.3])
        mu1 = np.array([1.0, 0.0, 0.0])
        with pytest.raises(InteriorityError):
            transfer_control(CYCLE3, mu0, mu1, 1.0)

    def test_non_sc_graph_rejected_with_certificate(self):
        chain = TransitionGraph(3, ((1, 2), (2, 3)))
        mu = np.array([0.4, 0.3, 0.3])
        with pytest.raises(GraphError) as info:
            transfer_control(chain, mu, mu[::-1].copy(), 1.0)
        assert info.value.certificate is not None

    def test_transfer_control_preconditions_boundary(self):
        mu0 = np.array([1.0, 0.0, 0.0])
        mu1 = np.array([0.4, 0.3, 0.3])
        ctrl = transfer_control(CYCLE3, mu0, mu1, 1.0)
        traj = propagate(mu0, ctrl)
        assert np.max(np.abs(traj[-1] - mu1)) <= 1e-9
        assert ctrl.total_duration == pytest.approx(1.0, abs=1e-12)
        # L = 1.2 on N = 3 states: at most 1 + ceil(7.2) = 9 segments of
        # the 3-edge cycle
        assert ctrl.n_intervals <= (1 + math.ceil(2 * 3 * 1.2)) * 3

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_transfer_interval_bound(self, data):
        graph = data.draw(strongly_connected_graphs(max_states=6))
        n = graph.n_vertices
        # log-uniform weights put both ends' minima anywhere down to 1e-300
        weights = st.lists(
            st.floats(-300.0, 0.0).map(lambda e: 10.0**e), min_size=n, max_size=n
        )
        mu0 = np.array(data.draw(weights))
        if data.draw(st.booleans()):
            # boundary start: empty a proper subset of the states
            empty = data.draw(
                st.lists(st.booleans(), min_size=n, max_size=n).filter(lambda z: not all(z))
            )
            mu0[np.array(empty)] = 0.0
        mu0 /= mu0.sum()
        mu1 = np.array(data.draw(weights))
        mu1 /= mu1.sum()
        duration = data.draw(st.floats(0.05, 10.0))

        # interior and boundary starts take the same plan
        ctrl = transfer_control(graph, mu0, mu1, duration)
        traj = propagate(mu0, ctrl)
        error = np.abs(traj[-1] - mu1)
        assert np.max(error) <= 1e-12
        assert np.all(error <= 1e-9 * mu1)
        assert np.all(ctrl.rates >= 0.0) and np.isfinite(ctrl.rates).all()
        assert ctrl.breakpoints[0] == 0.0
        assert abs(math.fsum(np.diff(ctrl.breakpoints)) - duration) <= 1e-12

        # the bound derived in transfer_control, counted from mu0
        length = float(np.sum(np.abs(mu1 - mu0)))
        walk = max(len(find_covering_closed_walk(graph, v)) for v in range(1, n + 1))
        assert ctrl.n_intervals <= (1 + math.ceil(2 * n * length)) * walk

        # rate bound.  An exit leaves its source at its endpoint value e and
        # the interval's rate-time product is log1p(c/e), with c the carried
        # mass after it.  Every e is at least min(mu1)/(4N): a waypoint
        # (1 - theta)*w + theta*mu1 has theta = rho/|mu1 - w|_1 >= 1/(4N),
        # since rho >= 1/(2N) and the distance is at most 2, and the walk's
        # start vertex keeps e >= rho/2 >= 1/(4N).  The carried mass is at
        # most 3*rho/2 <= 3/4.  So rate*length <= log1p(3N/min(mu1)),
        # whatever mu0, and it grows like log(1/min(mu1)).
        products = ctrl.rates.max(axis=1) * np.diff(ctrl.breakpoints)
        assert np.max(products) <= math.log1p(3 * n / mu1.min())

    def test_interval_count_does_not_depend_on_target_minimum(self):
        # uniform start to (1 - 2m, m, m): the same plan length at every m,
        # down to the smallest positive double
        mu0 = np.full(3, 1.0 / 3.0)
        counts = set()
        for m in (1e-2, 1e-6, 1e-20, 1e-100, 1e-300, 5e-324):
            mu1 = np.array([1.0 - 2.0 * m, m, m])
            start = time.perf_counter()
            ctrl = transfer_control(CYCLE3, mu0, mu1, 1.0)
            elapsed = time.perf_counter() - start
            if m == 1e-6:
                assert elapsed < 0.1
            counts.add(ctrl.n_intervals)
            assert np.max(np.abs(propagate(mu0, ctrl)[-1] - mu1)) <= 1e-12
        assert len(counts) == 1

    @pytest.mark.parametrize("m", [1e-300, 5e-324])
    def test_vertex_start_to_tiny_target(self, m):
        # every waypoint gives the empty state 3 about m/4; at the smallest
        # subnormal that rounds to zero unless floored, and the next step
        # would then need an infinite rate
        mu0 = np.array([0.0, 1.0, 0.0])
        mu1 = np.array([1.0 - 2.0 * m, m, m])
        ctrl = transfer_control(CYCLE3, mu0, mu1, 1.0)
        assert np.all(ctrl.rates >= 0.0) and np.isfinite(ctrl.rates).all()
        error = np.abs(propagate(mu0, ctrl)[-1] - mu1)
        assert np.max(error) <= 1e-12 and np.all(error <= 1e-9 * mu1)

    @pytest.mark.parametrize("t_final", [0.5, 0.1])
    def test_boundary_start_on_short_horizon(self, t_final):
        # a vertex start on a directed 7-cycle: six empty states, met
        # exactly within the full horizon however short
        cycle7 = TransitionGraph(7, tuple((i, i % 7 + 1) for i in range(1, 8)))
        mu0 = np.zeros(7)
        mu0[0] = 1.0
        mu1 = np.full(7, 1.0 / 7.0)
        ctrl = transfer_control(cycle7, mu0, mu1, t_final)
        traj = propagate(mu0, ctrl)
        assert np.max(np.abs(traj[-1] - mu1)) <= 1e-9
        assert abs(math.fsum(np.diff(ctrl.breakpoints)) - t_final) <= 1e-12


class TestValidateDistribution:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_rejected(self, bad):
        with pytest.raises(InputError):
            validate_distribution(np.array([bad, 0.5, 0.5]))
        with pytest.raises(InputError):
            transfer_control(CYCLE3, np.array([bad, 0.5, 0.5]), np.array([0.4, 0.3, 0.3]), 1.0)


@pytest.mark.parametrize("duration", [0.0, -1.0, math.nan, math.inf])
def test_non_finite_or_nonpositive_duration_rejected(duration):
    mu0, mu1 = np.array([0.6, 0.2, 0.2]), np.array([0.2, 0.3, 0.5])
    with pytest.raises(InputError):
        transfer_control(CYCLE3, mu0, mu1, duration)
    with pytest.raises(InputError):
        transfer_control(CYCLE3, np.array([1.0, 0.0, 0.0]), mu1, duration)
    with pytest.raises(InputError):
        local_step_control(CYCLE3, mu0, mu0, duration)
    with pytest.raises(InputError):
        PiecewiseConstantControl(CYCLE3, np.array([0.0, duration]), np.zeros((1, 3)))


class TestStationaryRates:
    def test_two_state_detailed_balance_values(self):
        g = TransitionGraph(2, ((1, 2), (2, 1)))
        rates = synthesize_stationary_rates(g, np.array([1 / 3, 2 / 3]))
        np.testing.assert_allclose(rates, [2.0, 1.0], atol=1e-14)
        q = generator(g, rates)
        assert np.max(np.abs(q @ np.array([1 / 3, 2 / 3]))) <= 1e-14

    def test_uniform_cycle_rates_equal(self):
        rates = synthesize_stationary_rates(CYCLE4, np.full(4, 0.25))
        np.testing.assert_allclose(rates, rates[0])
        assert rates[0] > 0

    def test_three_state_bidirected_spectrum(self):
        g = TransitionGraph(3, ((1, 2), (2, 1), (2, 3), (3, 2)))
        mu = np.array([0.2, 0.3, 0.5])
        rates = synthesize_stationary_rates(g, mu)
        assert np.max(np.abs(generator(g, rates) @ mu)) <= 1e-12
        report = spectrum_check(g, rates)
        assert report.max_real_part <= 1e-10
        assert report.gap > 0

    def test_directed_graph_min_rate(self):
        g = TransitionGraph(3, ((1, 2), (2, 3), (3, 1), (1, 3)))
        mu = np.array([0.6, 0.2, 0.2])
        rates = synthesize_stationary_rates(g, mu)
        assert rates.min() >= 1e-3
        assert np.max(np.abs(generator(g, rates) @ mu)) <= 1e-12

    def test_skewed_equilibrium_activates_rate_floor(self):
        # the unconstrained minimum-norm solution is infeasible here, so
        # the circulation blend must lift every rate above the floor
        g = TransitionGraph(4, ((1, 2), (2, 3), (3, 4), (4, 1), (1, 3), (2, 4)))
        mu = np.array([0.94, 0.02, 0.02, 0.02])
        rates = synthesize_stationary_rates(g, mu)
        assert rates.min() >= 1e-3
        assert np.max(np.abs(generator(g, rates) @ mu)) <= 1e-12
        report = spectrum_check(g, rates)
        assert report.max_real_part <= 1e-10
        assert report.gap > 0

    def test_non_sc_rejected(self):
        chain = TransitionGraph(2, ((1, 2),))
        with pytest.raises(GraphError):
            synthesize_stationary_rates(chain, np.array([0.5, 0.5]))


class TestSpectrumCheck:
    def test_single_edge_eigenvalues(self):
        g = TransitionGraph(2, ((1, 2),))
        report = spectrum_check(g, [3.0])
        np.testing.assert_allclose(sorted(report.eigenvalues.real), [-3.0, 0.0])
        assert report.gap == pytest.approx(3.0)

    def test_zero_rates_all_zero(self):
        report = spectrum_check(CYCLE3, np.zeros(3))
        np.testing.assert_allclose(report.eigenvalues, 0.0)
        assert report.gap == pytest.approx(0.0)

    def test_random_rates_stay_stable(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = rng.integers(2, 9)
            edges = [
                (i, j)
                for i in range(1, n + 1)
                for j in range(1, n + 1)
                if i != j and rng.random() < 0.5
            ]
            if not edges:
                continue
            g = TransitionGraph(int(n), tuple(edges))
            rates = rng.uniform(0.0, 4.0, g.n_edges)
            assert spectrum_check(g, rates).max_real_part <= 1e-10


class TestTextInterfaces:
    def test_edge_list_round_trip(self):
        text = "# demo\n1 2\n2 3\n3 1\n"
        g = read_edge_list(io.StringIO(text))
        assert g.n_vertices == 3
        assert g.edges == ((1, 2), (2, 3), (3, 1))

    def test_bad_line_rejected(self):
        with pytest.raises(GraphError):
            read_edge_list(io.StringIO("1 2 3\n"))

    def test_control_csv_format(self, tmp_path):
        mu = np.array([1 / 3, 1 / 3, 1 / 3])
        ctrl, _ = local_step_control(CYCLE3, mu, mu, 1.0)
        out = tmp_path / "control.csv"
        _write_csv(out, "t_start,t_end,edge,rate", _control_lines(ctrl))
        lines = out.read_text().splitlines()
        assert lines[0] == "t_start,t_end,edge,rate"
        assert len(lines) == 1 + ctrl.n_intervals * CYCLE3.n_edges
        assert "->" in lines[1]
