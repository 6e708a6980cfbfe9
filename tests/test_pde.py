import tracemalloc
import warnings
from unittest import mock

import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cosine_target, implicit_step, march_to_end, random_density, random_grids
from test_grid import assert_bitwise_equal, scipy_two_point_flux_matrix
from swarmctrl import pde
from swarmctrl.control import TargetDensity, stabilizing_velocity
from swarmctrl.errors import (
    CoefficientError,
    ConfigurationError,
    FitError,
    NumericalError,
    TargetError,
)
from swarmctrl.grid import FaceField, ScalarField, build_grid, mass
from swarmctrl.pde import (
    assemble_advection_diffusion,
    bernoulli,
    fit_decay_rate,
    make_stepper,
    march,
    weighted_heat_operator,
)

def scipy_make_stepper(matrix, dt):
    """The scipy-arithmetic stepper, kept as the bitwise oracle: identity
    minus the scaled matrix, then ``tocsc``.  When no entry of ``matrix``
    lies off the three central diagonals, the system's bands go into LAPACK
    band storage and ``dgbtrf``/``dgbtrs`` factor and solve; every other
    system goes to ``splu`` with the minimum degree ordering of A^T + A.
    Returns the system, its band storage (None when ``splu`` factors it) and
    the step."""
    n = matrix.shape[0]
    eye = sp.identity(n, format="csr")
    system = (eye - dt * matrix).tocsc()
    pattern = matrix.tocoo()
    if np.all(np.abs(pattern.row - pattern.col) <= 1):
        coo = system.tocoo()
        ab = np.zeros((4, n), order="F")
        ab[2 + coo.row - coo.col, coo.col] = coo.data
        lu, piv, _ = lapack.dgbtrf(ab, 1, 1)

        def solve(y):
            return lapack.dgbtrs(lu, 1, 1, y, piv)[0]
    else:
        ab = None
        solve = spla.splu(system, permc_spec="MMD_AT_PLUS_A").solve
    return system, ab, solve


def recording(fn, calls):
    """``fn`` wrapped to append a copy of its first argument to ``calls``
    (``dgbtrf`` overwrites the band storage it is handed)."""
    def wrapper(first, *args, **kwargs):
        calls.append(first.copy())
        return fn(first, *args, **kwargs)
    return wrapper


@pytest.mark.parametrize(
    "dt", [0.0, -1.0, math.nan, math.inf], ids=["zero", "negative", "nan", "inf"]
)
def test_march_rejects_bad_dt(unit_grid_64, dt):
    matrix = weighted_heat_operator(ScalarField.constant(unit_grid_64, 1.0)).matrix
    y = ScalarField.constant(unit_grid_64, 1.0).flat
    with pytest.raises(ConfigurationError, match="dt must be finite and positive"):
        list(march(matrix, y, 0.01, dt))


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
        y1 = implicit_step(y, None, 1.0, 1e-2)
        assert np.max(np.abs(y1.values - 1.0)) <= 1e-14

    def test_gibbs_profile_is_exact_equilibrium(self, unit_grid_128):
        f = cosine_target(unit_grid_128)
        target = TargetDensity.create(f)
        v = stabilizing_velocity(target, 1.0)
        y1 = implicit_step(f, v, 1.0, 1e-3)
        assert np.max(np.abs(y1.values - f.values)) <= 1e-12

    def test_mass_conserved_for_any_velocity(self, unit_grid_128):
        rng = np.random.default_rng(0)
        y = random_density(unit_grid_128, rng)
        dt = 1e-3
        for _ in range(20):
            v = FaceField(unit_grid_128, (rng.uniform(-5, 5, 127),))
            y = implicit_step(y, v, 1.0, dt)
            assert abs(mass(y) - 1.0) <= 1e-12

    def test_positivity_under_implicit_euler(self, unit_grid_64):
        rng = np.random.default_rng(1)
        values = np.zeros(64)
        values[10] = 1.0
        y = ScalarField(unit_grid_64, values).normalized()
        v = FaceField(unit_grid_64, (rng.uniform(-10, 10, 63),))
        y1 = implicit_step(y, v, 1.0, 0.5)
        assert np.min(y1.values) >= 0.0

    def test_one_heat_step_strictly_positive_everywhere(self, unit_grid_128):
        # indicator initial state spreads to every cell in a single
        # implicit step (inverse of an irreducible M-matrix is positive)
        values = np.zeros(128)
        values[0] = 1.0
        y = ScalarField(unit_grid_128, values)
        h2 = unit_grid_128.spacing[0] ** 2
        y1 = implicit_step(y, None, 1.0, h2)
        assert np.min(y1.values) > 0.0

    def test_2d_mass_and_positivity(self):
        rng = np.random.default_rng(7)
        d = build_grid(2, [1.0, 1.5], [12, 18])
        y = ScalarField(d, rng.random(d.shape)).normalized()
        v = FaceField(
            d,
            (rng.uniform(-3, 3, d.face_shape(0)), rng.uniform(-3, 3, d.face_shape(1))),
        )
        dt = 5e-3
        for _ in range(10):
            y = implicit_step(y, v, 1.0, dt)
            assert abs(mass(y) - 1.0) <= 1e-12
            assert np.min(y.values) >= -1e-14

    def test_2d_gibbs_equilibrium(self):
        d = build_grid(2, [1.0, 1.0], [16, 16])
        gx, gy = d.center_grids()
        f = ScalarField(d, 1.0 + 0.2 * np.cos(np.pi * gx) * np.cos(np.pi * gy)).normalized()
        target = TargetDensity.create(f)
        v = stabilizing_velocity(target, 1.0)
        y1 = implicit_step(f, v, 1.0, 1e-2)
        assert np.max(np.abs(y1.values - f.values)) <= 1e-12


def path_stepper(matrix, dt):
    """The Crank-Nicolson step of ``control.follow_path``: one implicit Euler
    solve of dt/2, extrapolated, 2 (I - dt/2 L)^-1 y - y."""
    half = make_stepper(matrix, 0.5 * dt)
    return lambda y: 2.0 * half(y) - y


# the two step forms built on make_stepper's one factorization
STEPS = {"implicit_euler": make_stepper, "crank_nicolson": path_stepper}


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
        dt = data.draw(st.sampled_from([0.0, 1e-3, 0.05]))
        velocity = None
        if data.draw(st.booleans()):
            comps = [5.0 * rng.standard_normal(domain.face_shape(k)) for k in range(domain.dim)]
            for c in comps:
                c[rng.random(c.shape) < 0.4] = 0.0
            velocity = FaceField(domain, tuple(comps))

        matrix = assemble_advection_diffusion(domain, velocity, diffusion, flux)
        with mock.patch.object(pde, "two_point_flux_matrix", scipy_two_point_flux_matrix):
            expected = assemble_advection_diffusion(domain, velocity, diffusion, flux)
        assert_bitwise_equal(matrix, expected)

        factored = []
        with mock.patch.object(lapack, "dgbtrf", recording(lapack.dgbtrf, factored)), \
                mock.patch.object(spla, "splu", wraps=spla.splu) as splu:
            step = make_stepper(matrix, dt)
        system, ab, oracle_step = scipy_make_stepper(expected, dt)
        if ab is None:
            assert not factored
            assert_bitwise_equal(splu.call_args.args[0], system)
            assert splu.call_args.kwargs["permc_spec"] == "MMD_AT_PLUS_A"
        else:
            assert not splu.called
            assert factored[0].tobytes() == ab.tobytes()
        y = y_oracle = rng.random(domain.cell_count)
        for _ in range(4):
            y, y_oracle = step(y), oracle_step(y_oracle)
            assert y.tobytes() == y_oracle.tobytes()

    def test_pruned_diagonal_steps_like_the_oracle(self):
        # upwind transport out of cell 0 only: cells 1-3 lose no mass, so
        # their diagonal entries are exact zeros and get pruned
        d = build_grid(1, [1.0], [4])
        matrix = assemble_advection_diffusion(d, FaceField(d, (np.array([1.0, 0.0, 0.0]),)), 0.0)
        assert matrix.nnz == 2
        y = np.array([1.0, 2.0, 3.0, 4.0])
        out = make_stepper(matrix, 0.1)(y)
        assert out.tobytes() == scipy_make_stepper(matrix, 0.1)[2](y).tobytes()
        assert out.sum() == pytest.approx(y.sum(), rel=1e-15)

    def test_2d_stepper_orders_for_low_fill(self):
        # the minimum degree ordering of A^T + A suits the structurally
        # symmetric 2D pattern: 62,670 L+U nonzeros on 48x48, 106,036 under COLAMD
        d = build_grid(2, [1.0, 1.0], [48, 48])
        matrix = weighted_heat_operator(ScalarField.constant(d, 1.0)).matrix
        lu = make_stepper(matrix, 1e-3).__self__
        assert lu.L.nnz + lu.U.nnz <= 70_000

    @pytest.mark.parametrize("scheme", STEPS)
    def test_only_non_tridiagonal_steppers_call_splu(self, unit_grid_128, scheme):
        # 1D systems go to the banded LU; 2D ones to SuperLU with MMD on A^T + A
        rng = np.random.default_rng(3)
        velocity = FaceField(unit_grid_128, (rng.standard_normal(127),))
        matrix_1d = assemble_advection_diffusion(unit_grid_128, velocity, 0.05, "centered")
        d = build_grid(2, [1.0, 1.0], [6, 5])
        matrix_2d = weighted_heat_operator(ScalarField.constant(d, 1.0)).matrix
        with mock.patch.object(spla, "splu", wraps=spla.splu) as splu:
            STEPS[scheme](matrix_1d, 1e-2)
            assert not splu.called
            STEPS[scheme](matrix_2d, 1e-2)
        assert splu.call_count == 1
        assert splu.call_args.kwargs["permc_spec"] == "MMD_AT_PLUS_A"

    @pytest.mark.parametrize("dt", [-1.0, math.nan, math.inf], ids=["negative", "nan", "inf"])
    def test_bad_dt_rejected(self, unit_grid_64, dt):
        matrix = weighted_heat_operator(ScalarField.constant(unit_grid_64, 1.0)).matrix
        with pytest.raises(ConfigurationError):
            make_stepper(matrix, dt)

    @pytest.mark.parametrize("scheme", STEPS)
    def test_unfactorable_system_is_numerical_error(self, scheme):
        # a system step of 1 cancels the identity: every entry of I - 1*I is
        # an exact zero, so the banded LU meets an exactly zero pivot; the
        # Crank-Nicolson step factors the system of dt/2
        matrix = sp.identity(4, format="csr")
        dt = 1.0 if scheme == "implicit_euler" else 2.0
        with pytest.raises(NumericalError, match="cannot be factored"):
            STEPS[scheme](matrix, dt)

    @pytest.mark.parametrize("case", ["superlu-singular", "banded-non-finite"])
    def test_unfactorable_pattern_is_numerical_error(self, case):
        # SuperLU: the identity plus one entry off the band, cancelled as
        # above; banded: an overflowed entry leaves an infinite pivot in the
        # factor, which LAPACK does not flag
        if case == "superlu-singular":
            matrix = sp.csr_matrix(np.eye(4) + np.eye(4, k=3))
            dt = 1.0
        else:
            matrix = sp.csr_matrix(np.diag([np.inf, 1.0, 1.0]) + np.eye(3, k=1))
            dt = 1e-2
        with pytest.raises(NumericalError, match="cannot be factored"):
            make_stepper(matrix, dt)

    @pytest.mark.parametrize("scheme", STEPS)
    def test_zero_dt_is_identity(self, unit_grid_64, scheme):
        # for Crank-Nicolson, 2*y - y is y exactly
        matrix = weighted_heat_operator(ScalarField.constant(unit_grid_64, 1.0)).matrix
        y = random_density(unit_grid_64, np.random.default_rng(0)).flat
        np.testing.assert_array_equal(STEPS[scheme](matrix, 0.0)(y), y)


class TestBandedStep:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(2, 512),
        st.sampled_from(["exponential", "centered"]),
        st.sampled_from([0.0, 0.05, 1.0]),
        st.sampled_from([1e-3, 1e-2]),
        st.integers(0, 2**32 - 1),
    )
    def test_step_matches_dense_solve(self, cells, flux, diffusion, dt, seed):
        # one banded step equals a dense solve of the same system; implicit
        # Euler with the exponential-fitted flux (an M-matrix step) also
        # conserves mass to roundoff and keeps non-negative states
        # non-negative, exactly
        rng = np.random.default_rng(seed)
        domain = build_grid(1, [1.0], [cells])
        velocity = FaceField(domain, (5.0 * rng.standard_normal(cells - 1),))
        matrix = assemble_advection_diffusion(domain, velocity, diffusion, flux)
        y = rng.random(cells)
        y[rng.random(cells) < 0.3] = 0.0
        expected = np.linalg.solve(np.eye(cells) - dt * matrix.toarray(), y)
        out = make_stepper(matrix, dt)(y)
        assert np.max(np.abs(out - expected)) <= 1e-12 * np.max(np.abs(expected))
        if flux == "exponential":
            eps = np.finfo(float).eps
            assert abs(out.sum() - y.sum()) <= 4 * cells * eps * y.sum()
            assert out.min() >= 0.0


def plain_march(matrix, y, duration, dt):
    """The states after each step of a plain implicit Euler ``make_stepper`` loop."""
    n_steps = max(1, math.ceil(duration / dt))
    step = make_stepper(matrix, duration / n_steps)
    states = []
    for _ in range(n_steps):
        y = step(y)
        states.append(y)
    return states


class TestMarch:
    @settings(max_examples=40, deadline=None)
    @given(
        random_grids(),
        st.integers(1, 4),
        st.floats(1e-3, 0.05),
        st.integers(0, 2**32 - 1),
    )
    def test_stacked_march_equals_column_marches(self, domain, k, duration, seed):
        # one factorization solving the (cells, k) stack gives every
        # column bitwise what its own march gives, at every step
        rng = np.random.default_rng(seed)
        a = ScalarField(domain, 0.5 + rng.random(domain.shape))
        matrix = weighted_heat_operator(a).matrix
        dt = 2e-3
        stack = rng.random((domain.cell_count, k))
        stacked = np.concatenate(list(march(matrix, stack, duration, dt)))
        for col in range(k):
            single = np.concatenate(list(march(matrix, stack[:, col], duration, dt)))
            np.testing.assert_array_equal(stacked[:, :, col], single)

    @settings(max_examples=60, deadline=None)
    @given(
        random_grids(),
        st.sampled_from([None, 1, 3]),
        st.sampled_from([0.0, 1e-3, 0.02, 0.3]),
        st.floats(2e-4, 5e-3),
        st.integers(0, 2**32 - 1),
    )
    def test_blocks_match_plain_step_loop(self, domain, k, duration, dt, seed):
        rng = np.random.default_rng(seed)
        a = ScalarField(domain, 0.5 + rng.random(domain.shape))
        matrix = weighted_heat_operator(a).matrix
        y = rng.random(domain.cell_count if k is None else (domain.cell_count, k))
        blocks = list(march(matrix, y, duration, dt))
        expected = plain_march(matrix, y, duration, dt)
        n_steps = max(1, math.ceil(duration / dt))
        assert len(expected) == n_steps
        # every block is full but the last, and within the byte budget
        # unless one state alone exceeds it
        rows = max(1, pde.BLOCK_BYTES // y.nbytes)
        assert [len(b) for b in blocks[:-1]] == [rows] * (len(blocks) - 1)
        assert 1 <= len(blocks[-1]) <= rows
        assert sum(len(b) for b in blocks) == n_steps
        for block in blocks:
            assert block.flags.c_contiguous and block.shape[1:] == y.shape
            assert block.nbytes <= pde.BLOCK_BYTES or len(block) == 1
        assert np.concatenate(blocks).tobytes() == np.stack(expected).tobytes()
        if duration == 0.0:
            # one identity step: a new array, equal values
            (block,) = blocks
            assert len(block) == 1 and not np.shares_memory(block, y)
            np.testing.assert_array_equal(block[0], y)

    def test_block_budget_on_large_state(self):
        # a square grid with one cell more per side than fits the budget in
        # one state, so each block holds one state
        side = math.isqrt(pde.BLOCK_BYTES // 8) + 1
        d = build_grid(2, [1.0, 1.0], [side, side])
        assert d.cell_count * 8 > pde.BLOCK_BYTES
        matrix = weighted_heat_operator(ScalarField.constant(d, 1.0)).matrix
        y = random_density(d, np.random.default_rng(1)).flat
        dt = 1e-3
        blocks = list(march(matrix, y, 4.5 * dt, dt))
        assert [b.shape for b in blocks] == [(1, d.cell_count)] * 5

    def test_non_finite_state_raises(self, unit_grid_64):
        matrix = weighted_heat_operator(ScalarField.constant(unit_grid_64, 1.0)).matrix
        y = random_density(unit_grid_64, np.random.default_rng(0)).flat.copy()
        y[5] = np.inf
        with pytest.raises(NumericalError, match="non-finite"):
            list(march(matrix, y, 0.01, 1e-3))

    def test_negative_duration_rejected(self, unit_grid_64):
        matrix = weighted_heat_operator(ScalarField.constant(unit_grid_64, 1.0)).matrix
        y = ScalarField.constant(unit_grid_64, 1.0).flat
        with pytest.raises(ConfigurationError):
            list(march(matrix, y, -0.1, 1e-3))


@st.composite
def oracle_grids(draw):
    """1D grids of 8-128 cells and 2D grids of 3-16 cells per side."""
    dim = draw(st.integers(1, 2))
    low, high = (8, 128) if dim == 1 else (3, 16)
    cells = draw(st.lists(st.integers(low, high), min_size=dim, max_size=dim))
    lengths = draw(st.lists(st.floats(0.5, 3.0), min_size=dim, max_size=dim))
    return build_grid(dim, lengths, cells)


class TestMarchOracle:
    """``march`` against the exact flow exp(tA) y0 (``expm_multiply``).

    Why the bound holds.  A is a generator: its off-diagonal entries are
    non-negative and its columns sum to zero.  So E(s) = exp(sA) and
    R = (I - tau*A)^-1 are non-negative with unit column sums, and both are
    contractions in the l1 norm, for every vector.  With n steps of
    tau = t / n,

        R^n y0 - E(t) y0 = sum_k R^(n-1-k) (R - E(tau)) E(k*tau) y0,

    and, integrating by parts,

        R - E(tau) = R (I - (I - tau*A) E(tau)) = R int_0^tau r A^2 E(r) dr.

    A commutes with E(r), so the local error at x = E(k*tau) y0 is at most
    int_0^tau r dr * |A^2 x|_1 = tau^2/2 * |E(k*tau) A^2 y0|_1 <= tau^2/2 *
    |A^2 y0|_1.  Summing n of them:

        |R^n y0 - E(t) y0|_1 <= t * tau / 2 * |A^2 y0|_1.

    The leading term of the error is linear in tau, so halving dt halves it.
    """

    @settings(max_examples=30, deadline=None)
    @given(
        oracle_grids(),
        st.sampled_from(["weighted_heat", "relaxation"]),
        st.integers(9, 12),
        st.integers(48, 96),
        st.integers(0, 2**32 - 1),
    )
    def test_end_state_error_is_first_order(self, domain, kind, k, n, seed):
        rng = np.random.default_rng(seed)
        w = ScalarField(domain, 0.5 + 1.5 * rng.random(domain.shape))
        if kind == "weighted_heat":
            op = weighted_heat_operator(w)
        else:
            op = TargetDensity.create(w.normalized()).relaxation_operator
        matrix = op.matrix
        off = matrix - sp.diags(matrix.diagonal())
        assert off.min() >= 0
        col_sums = np.asarray(matrix.sum(axis=0)).ravel()
        np.testing.assert_allclose(col_sums, 0.0, atol=1e-12 * abs(matrix).max())
        y0 = 0.1 + rng.random(domain.cell_count)
        # dyadic dt and t = n*dt, so t / dt and t / (dt/2) are exact integers
        dt = 2.0**-k
        t = n * dt
        exact = spla.expm_multiply(t * matrix, y0)
        errors = []
        for step in (dt, dt / 2):
            blocks = list(march(matrix, y0, t, step))
            assert sum(len(b) for b in blocks) == round(t / step)
            errors.append(float(np.sum(np.abs(blocks[-1][-1] - exact))))
        bound = t * dt / 2 * float(np.sum(np.abs(matrix @ (matrix @ y0))))
        assert errors[0] <= bound
        assert 1.8 <= errors[0] / errors[1] <= 2.2


class TestWeightedHeat:
    """The flow y_t = gain * div(grad(a y)): ``march`` of gain times the
    weighted-heat generator."""

    def test_reciprocal_weight_is_stationary(self, unit_grid_64):
        # the kernel is spanned by 1/a, so any multiple stays put
        rng = np.random.default_rng(3)
        a = ScalarField(unit_grid_64, 0.5 + rng.random(64))
        y = ScalarField(unit_grid_64, 1.0 / a.values).normalized()
        y1 = march_to_end(weighted_heat_operator(a).matrix, y, 0.2, 1e-3)
        assert np.max(np.abs(y1.values - y.values)) <= 1e-12

    def test_cosine_decays_at_spectral_gap(self):
        d = build_grid(1, [1.0], [256])
        x = d.axis_centers(0)
        op = weighted_heat_operator(ScalarField.constant(d, 1.0))
        gap = op.spectral_gap()
        assert gap == pytest.approx(np.pi**2, rel=1e-4)
        y = ScalarField(d, 1.0 + np.cos(np.pi * x))
        times, errors = [], []
        t = 0.0
        dt = 1e-3
        for _ in range(8):
            y = march_to_end(op.matrix, y, 0.02, dt)
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
        dt = 5e-3
        matrix = 1.5 * weighted_heat_operator(a).matrix
        for _ in range(50):
            y = march_to_end(matrix, y, 5e-3, dt)
            assert np.max(a.values * y.values) <= 1.0 + 1e-10

    def test_nonpositive_weight_rejected(self, unit_grid_64):
        bad = ScalarField(unit_grid_64, np.linspace(0.0, 1.0, 64))
        with pytest.raises(CoefficientError):
            weighted_heat_operator(bad)


class TestStabilizingFlow:
    """The flow y_t = lap(y) - div(y grad(f)/f): ``march`` of the relaxation
    generator."""

    def test_target_is_fixed_point(self, unit_grid_128):
        f = cosine_target(unit_grid_128)
        y1 = march_to_end(TargetDensity.create(f).relaxation_operator.matrix, f, 0.3, 1e-3)
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
            dt = 2e-3
            matrix = TargetDensity.create(f.normalized()).relaxation_operator.matrix
            state = y
            for _ in range(10):
                state = march_to_end(matrix, state, 0.05, dt)
                assert np.min(state.values) >= bound - 1e-10

    def test_exponential_convergence_to_target(self, unit_grid_64):
        rng = np.random.default_rng(6)
        f = cosine_target(unit_grid_64)
        y = random_density(unit_grid_64, rng)
        matrix = TargetDensity.create(f).relaxation_operator.matrix
        times, errors = [], []
        t = 0.0
        for _ in range(10):
            y = march_to_end(matrix, y, 0.05, 1e-3)
            t += 0.05
            times.append(t)
            errors.append(np.sqrt(np.sum((y.values - f.values) ** 2) / 64))
        assert all(b < a for a, b in zip(errors, errors[1:]))
        report = fit_decay_rate(times, errors)
        assert report.rate > 0
        assert report.residual <= 0.1

    def test_nonpositive_target_rejected(self, unit_grid_64):
        f = ScalarField(unit_grid_64, np.linspace(0.0, 2.0, 64))
        with pytest.raises(TargetError):
            TargetDensity.create(f)


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

    @pytest.mark.parametrize(
        "times, errors",
        [
            ([0.0, np.nan, 2.0], [1.0, 0.5, 0.25]),
            ([0.0, 1.0, np.inf], [1.0, 0.5, 0.25]),
            ([0.0, 1.0, 2.0], [1.0, np.inf, 0.25]),
            ([1.0, 1.0, 1.0], [1.0, 0.5, 0.25]),
            # t*t underflows: numpy's polyfit would divide by a zero column norm
            ([0.0, 5e-301, 1e-300], [1.0, 0.5, 0.25]),
            ([0.0, 1e200, 2e200], [1.0, 0.5, 0.25]),
        ],
        ids=["nan-time", "inf-time", "inf-error", "zero-span", "tiny-span", "huge-times"],
    )
    def test_degenerate_samples_raise_fit_error(self, times, errors):
        with pytest.raises(FitError):
            fit_decay_rate(times, errors)

    def test_solver_failure_is_fit_error(self):
        failure = np.linalg.LinAlgError("SVD did not converge")
        with mock.patch.object(np, "polyfit", side_effect=failure):
            with pytest.raises(FitError, match="SVD did not converge"):
                fit_decay_rate([0.0, 1.0, 2.0], [1.0, 0.5, 0.25])
