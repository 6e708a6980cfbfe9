import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import gap_grids, random_grids
from swarmctrl import grid
from swarmctrl.control import TargetDensity
from swarmctrl.errors import (
    CoefficientError,
    CompatibilityError,
    ConfigurationError,
    NumericalError,
)
from swarmctrl.grid import (
    FaceField,
    ScalarField,
    build_grid,
    divergence_form_operator,
    mass,
    neumann_heat_gap,
    neumann_laplacian,
    neumann_poisson_solve,
)
from swarmctrl.pde import assemble_advection_diffusion, weighted_heat_operator


class TestBuildGrid:
    def test_1d_spacing_and_centers(self):
        d = build_grid(1, [1.0], [4])
        assert d.spacing == (0.25,)
        np.testing.assert_allclose(d.axis_centers(0), [0.125, 0.375, 0.625, 0.875])

    def test_2d_counts(self):
        d = build_grid(2, [1.0, 2.0], [2, 4])
        assert d.spacing == (0.5, 0.5)
        assert d.cell_count == 8

    def test_zero_cells_rejected(self):
        with pytest.raises(ConfigurationError):
            build_grid(1, [1.0], [0])

    def test_bad_dim_rejected(self):
        with pytest.raises(ConfigurationError):
            build_grid(3, [1.0, 1.0, 1.0], [4, 4, 4])

    def test_negative_length_rejected(self):
        with pytest.raises(ConfigurationError):
            build_grid(1, [-1.0], [4])


class TestMass:
    def test_unit_integral(self):
        d = build_grid(1, [1.0], [128])
        assert mass(ScalarField.constant(d, 1.0)) == pytest.approx(1.0, abs=1e-14)

    def test_constant_two_on_longer_domain(self):
        d = build_grid(1, [2.0], [100])
        assert mass(ScalarField.constant(d, 2.0)) == pytest.approx(4.0, abs=1e-13)

    def test_matches_compensated_summation(self):
        rng = np.random.default_rng(1)
        d = build_grid(2, [1.0, 1.5], [17, 23])
        f = ScalarField(d, rng.random(d.shape))
        oracle = math.fsum(v * d.cell_volume for v in f.flat)
        assert mass(f) == pytest.approx(oracle, abs=1e-14)


class TestDivergenceFormOperator:
    def test_unit_coefficients_stencil(self):
        d = build_grid(1, [3.0], [3])  # h = 1
        op = divergence_form_operator(ScalarField.constant(d, 1.0))
        expected = np.array([[-1.0, 1.0, 0.0], [1.0, -2.0, 1.0], [0.0, 1.0, -1.0]])
        np.testing.assert_allclose(op.matrix.toarray(), expected)

    def test_kernel_is_reciprocal_coefficient(self):
        # a*(1/a) rounds per cell, so "exact" means a few ulps of the
        # assembled conductances
        rng = np.random.default_rng(2)
        d = build_grid(1, [1.0], [40])
        a = ScalarField(d, 0.5 + rng.random(40))
        op = divergence_form_operator(a)
        u = ScalarField(d, 1.0 / a.values)
        scale = np.max(np.abs(op.matrix.diagonal()))
        assert np.max(np.abs(op.matrix @ u.flat)) <= 1e-14 * scale

    def test_column_sums_vanish_2d(self):
        rng = np.random.default_rng(3)
        d = build_grid(2, [1.0, 2.0], [6, 9])
        a = ScalarField(d, 0.5 + rng.random(d.shape))
        op = divergence_form_operator(a)
        colsums = np.asarray(op.matrix.sum(axis=0)).ravel()
        scale = np.max(np.abs(op.matrix.diagonal()))
        assert np.max(np.abs(colsums)) <= 1e-14 * scale

    def test_nonpositive_coefficient_rejected(self):
        d = build_grid(1, [1.0], [8])
        bad = ScalarField(d, np.linspace(-0.1, 1.0, 8))
        with pytest.raises(CoefficientError):
            divergence_form_operator(bad)

    def test_offdiagonals_nonnegative(self):
        rng = np.random.default_rng(4)
        d = build_grid(2, [1.0, 1.0], [5, 7])
        a = ScalarField(d, 0.5 + rng.random(d.shape))
        m = divergence_form_operator(a).matrix.toarray()
        off = m - np.diag(np.diag(m))
        assert np.min(off) >= 0.0

    def test_discrete_divergence_theorem(self):
        # sum of (L u) * cellvol telescopes to zero for any u
        rng = np.random.default_rng(5)
        d = build_grid(2, [1.0, 1.0], [8, 8])
        a = ScalarField(d, 0.5 + rng.random(d.shape))
        op = divergence_form_operator(a)
        u = ScalarField(d, rng.standard_normal(d.shape))
        total = abs(mass(ScalarField(d, op.matrix @ u.flat)))
        assert total <= 1e-12 * np.max(np.abs(u.values))

    def test_weighted_self_adjointness(self):
        # diag(a) L symmetric: self-adjointness in the a-weighted product
        rng = np.random.default_rng(6)
        d = build_grid(1, [1.0], [50])
        a = ScalarField(d, 0.5 + rng.random(50))
        op = divergence_form_operator(a)
        m = np.diag(a.flat) @ op.matrix.toarray()
        assert np.max(np.abs(m - m.T)) <= 1e-12

    def test_symmetrized_form_matches_similarity(self):
        rng = np.random.default_rng(7)
        d = build_grid(1, [1.0], [30])
        a = ScalarField(d, 0.5 + rng.random(30))
        op = divergence_form_operator(a)
        sa = np.sqrt(a.flat)
        direct = (op.matrix.toarray() * (1.0 / sa)[None, :]) * sa[:, None]
        assert np.max(np.abs(direct - direct.T)) <= 1e-12
        np.testing.assert_array_equal(op.symmetrized().toarray(), 0.5 * (direct + direct.T))

    def test_negated_spectrum_nonnegative(self):
        rng = np.random.default_rng(8)
        d = build_grid(2, [1.0, 1.0], [12, 12])
        a = ScalarField(d, 0.5 + rng.random(d.shape))
        op = divergence_form_operator(a)
        vals = np.linalg.eigvals(-op.matrix.toarray())
        assert np.min(vals.real) >= -1e-10

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_conservation_property(self, data):
        # both public entry points of the shared two-point-flux builder:
        # column sums vanish, off-diagonals are non-negative for the
        # monotone fluxes (exponential, and upwind at zero diffusion), and
        # the divergence form keeps u = 1/a in its kernel
        d = data.draw(random_grids())
        a = ScalarField(d, data.draw(hnp.arrays(float, d.shape, elements=st.floats(0.2, 5.0))))
        v = FaceField(
            d,
            tuple(
                data.draw(hnp.arrays(float, d.face_shape(k), elements=st.floats(-10.0, 10.0)))
                for k in range(d.dim)
            ),
        )
        diffusion = data.draw(st.one_of(st.just(0.0), st.floats(0.05, 2.0)))
        flux = data.draw(st.sampled_from(["exponential", "centered"]))
        op = divergence_form_operator(a)
        adv = assemble_advection_diffusion(d, v, diffusion, flux)
        monotone = flux == "exponential" or diffusion == 0.0
        for m, check_sign in ((op.matrix, True), (adv, monotone)):
            colsums = np.asarray(m.sum(axis=0)).ravel()
            scale = max(1.0, np.max(np.abs(m.diagonal())))
            assert np.max(np.abs(colsums)) <= 1e-14 * scale
            if check_sign:
                assert (m - sp.diags(m.diagonal())).min() >= 0.0
        u = ScalarField(d, 1.0 / a.values)
        scale = max(1.0, np.max(np.abs(op.matrix.diagonal())))
        assert np.max(np.abs(op.matrix @ u.flat)) <= 1e-14 * scale


class TestRelaxationOperator:
    """``TargetDensity.relaxation_operator``: the exponential-fitted flux of
    the stabilizing velocity grad(f)/f, the one generator of the
    stabilizing flow."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_kernel_signs_and_reversibility(self, data):
        # f is in the kernel, columns sum to zero and the off-diagonals are
        # non-negative (an M-matrix step); diag(1/f) L is symmetric, since
        # the flux is reversible with respect to f, which the spectral
        # gap's symmetrizer a = 1/f relies on
        d = data.draw(random_grids())
        values = data.draw(hnp.arrays(float, d.shape, elements=st.floats(0.2, 5.0)))
        f = ScalarField(d, values).normalized()
        op = TargetDensity.create(f).relaxation_operator
        m = op.matrix
        scale = float(np.max(np.abs(m.diagonal())))
        assert np.max(np.abs(m @ f.flat)) <= 1e-14 * scale * np.max(f.values)
        assert np.max(np.abs(np.asarray(m.sum(axis=0)).ravel())) <= 1e-14 * scale
        assert (m - sp.diags(m.diagonal())).min() >= 0.0
        np.testing.assert_array_equal(op.a_values, 1.0 / f.values)
        weighted = m.multiply(op.a_values.reshape(-1)[:, None]).toarray()
        assert np.max(np.abs(weighted - weighted.T)) <= 1e-14 * scale * np.max(op.a_values)


# ---------------------------------------------------------------------------
# oracle: the scipy-arithmetic assembly that the cached-pattern builder
# replaced (COO to CSR, column sums through scipy, sparse sum with the
# diagonal)


def scipy_two_point_flux_matrix(domain, face_rates):
    n = domain.cell_count
    rows, cols, data = [], [], []
    for axis, (to_right, to_left) in enumerate(face_rates):
        left, right = domain.face_pairs(axis)
        rows += [right, left]
        cols += [left, right]
        data += [to_right, to_left]
    off_diag = sp.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)
    ).tocsr()
    diagonal = -np.asarray(off_diag.sum(axis=0)).ravel()
    return (off_diag + sp.diags(diagonal)).tocsr()


def assert_bitwise_equal(a, b):
    """Same format, and the same dtypes and bytes in data, indices and indptr."""
    assert a.format == b.format
    for name in ("data", "indices", "indptr"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype, name
        assert x.tobytes() == y.tobytes(), name


@st.composite
def flux_cases(draw):
    """A random grid and face rates of both signs over six decades with a
    drawn share of exact zeros."""
    domain = draw(random_grids())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    zero_share = draw(st.sampled_from([0.0, 0.3, 1.0]))

    def values(size):
        x = rng.standard_normal(size) * 10.0 ** rng.uniform(-3.0, 3.0, size)
        x[rng.random(size) < zero_share] = 0.0
        return x

    sizes = [math.prod(domain.face_shape(axis)) for axis in range(domain.dim)]
    return domain, [(values(m), values(m)) for m in sizes]


class TestTwoPointFluxMatrix:
    @settings(max_examples=200, deadline=None)
    @given(flux_cases())
    def test_matches_scipy_oracle(self, case):
        # the cached pattern gives scipy's arrays bit for bit: column sums
        # in the same order, exact zeros (rates, diagonals) pruned the same
        domain, rates = case
        assert_bitwise_equal(
            grid.two_point_flux_matrix(domain, rates), scipy_two_point_flux_matrix(domain, rates)
        )

    def test_pattern_built_once_per_grid(self):
        d = build_grid(2, [1.0, 2.0], [5, 4])
        assert grid._flux_pattern(d) is grid._flux_pattern(build_grid(2, [1.0, 2.0], [5, 4]))


def dense_gap(op):
    return float(np.linalg.eigvalsh(-op.symmetrized().toarray())[1])


class TestSpectralGap:
    @settings(max_examples=30, deadline=None)
    @given(domain=gap_grids(), seed=st.integers(0, 2**32 - 1))
    def test_gap_matches_dense_oracle(self, domain, seed):
        rng = np.random.default_rng(seed)
        a = ScalarField(domain, 0.2 + rng.random(domain.shape))
        f = ScalarField(domain, 0.2 + rng.random(domain.shape)).normalized()
        for op in (weighted_heat_operator(a), TargetDensity.create(f).relaxation_operator):
            assert op.spectral_gap() == pytest.approx(dense_gap(op), rel=1e-8)

    @settings(max_examples=30, deadline=None)
    @given(domain=gap_grids())
    def test_neumann_heat_gap_closed_form(self, domain):
        oracle = dense_gap(neumann_laplacian(domain))
        assert neumann_heat_gap(domain) == pytest.approx(oracle, rel=1e-8)

    def test_sparse_gap_repeats_bitwise(self):
        # ARPACK draws a fresh random start vector unless given one
        d = build_grid(2, [1.0, 1.0], [72, 72])
        assert d.cell_count > grid.DENSE_GAP_CELLS
        op = weighted_heat_operator(ScalarField.constant(d, 1.0))
        gaps = [op.spectral_gap() for _ in range(3)]
        assert gaps[0] == gaps[1] == gaps[2]


class TestPoisson:
    def test_zero_rhs_gives_zero(self):
        d = build_grid(1, [1.0], [32])
        phi = neumann_poisson_solve(ScalarField.constant(d, 0.0))
        assert np.max(np.abs(phi.values)) <= 1e-14

    def test_cosine_analytic_solution(self):
        d = build_grid(1, [1.0], [256])
        x = d.axis_centers(0)
        rhs = ScalarField(d, np.cos(np.pi * x))
        phi = neumann_poisson_solve(rhs)
        exact = np.cos(np.pi * x) / np.pi**2
        exact -= exact.mean()
        assert np.max(np.abs(phi.values - exact)) <= 5e-6

    def test_second_order_convergence(self):
        errs = []
        for n in (64, 128):
            d = build_grid(1, [1.0], [n])
            x = d.axis_centers(0)
            phi = neumann_poisson_solve(ScalarField(d, np.cos(np.pi * x)))
            exact = np.cos(np.pi * x) / np.pi**2
            exact -= exact.mean()
            errs.append(np.max(np.abs(phi.values - exact)))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)

    def test_nonzero_mean_rejected(self):
        d = build_grid(1, [1.0], [32])
        with pytest.raises(CompatibilityError):
            neumann_poisson_solve(ScalarField.constant(d, 1.0))

    def test_unfactorable_system_is_numerical_error(self):
        # at h = 1e-154 the face conductances 1/h^2 = 1e308 are finite, but
        # the diagonal -2/h^2 overflows and SuperLU meets an exactly singular
        # factor
        d = build_grid(1, [8e-154], [8])
        with pytest.raises(NumericalError, match="cannot be factored"):
            neumann_poisson_solve(ScalarField.constant(d, 0.0))

    def test_repeat_solve_does_not_reassemble(self, monkeypatch):
        d = build_grid(1, [1.0], [24])
        rhs = ScalarField(d, np.cos(np.pi * d.axis_centers(0)))
        first = neumann_poisson_solve(rhs)
        calls = []
        assemble = grid.divergence_form_operator

        def counting(*args, **kwargs):
            calls.append(args)
            return assemble(*args, **kwargs)

        monkeypatch.setattr(grid, "divergence_form_operator", counting)
        second = neumann_poisson_solve(rhs)
        assert calls == []
        np.testing.assert_array_equal(second.values, first.values)

    @pytest.mark.parametrize("cells", [[128], [512], [12, 10]], ids=["128", "512", "12x10"])
    def test_sequence_solves_like_single_fields(self, cells):
        # one multi-column solve gives each right-hand side what its own
        # solve gives, bitwise in 1D
        d = build_grid(len(cells), [1.0] * len(cells), cells)
        rng = np.random.default_rng(4)
        rhs = [ScalarField(d, v - v.mean()) for v in rng.standard_normal((5, *cells))]
        stacked = neumann_poisson_solve(rhs)
        assert len(stacked) == 5
        for field, phi in zip(rhs, stacked):
            single = neumann_poisson_solve(field).values
            if len(cells) == 1:
                assert phi.values.tobytes() == single.tobytes()
            else:
                np.testing.assert_allclose(phi.values, single, rtol=0, atol=1e-14)

    def test_sequence_checks_every_field(self):
        d = build_grid(1, [1.0], [32])
        zero = ScalarField.constant(d, 0.0)
        with pytest.raises(CompatibilityError):
            neumann_poisson_solve([zero, ScalarField.constant(d, 1.0), zero])
        with pytest.raises(ConfigurationError):
            neumann_poisson_solve([zero, ScalarField.constant(build_grid(1, [2.0], [32]), 0.0)])

    def test_2d_solution_zero_mean(self):
        d = build_grid(2, [1.0, 1.0], [16, 16])
        gx, gy = d.center_grids()
        rhs = ScalarField(d, np.cos(np.pi * gx) * np.cos(np.pi * gy))
        phi = neumann_poisson_solve(rhs)
        assert abs(np.sum(phi.values)) <= 1e-9
        lap = neumann_laplacian(d)
        residual = (-lap.matrix) @ phi.flat - rhs.flat
        assert np.max(np.abs(residual)) <= 1e-10


class TestFields:
    def test_face_field_shape_validation(self):
        d = build_grid(1, [1.0], [8])
        with pytest.raises(ConfigurationError):
            FaceField(d, (np.zeros(8),))  # needs n-1 faces

    def test_nonfinite_rejected(self):
        d = build_grid(1, [1.0], [4])
        with pytest.raises(CoefficientError):
            ScalarField(d, np.array([1.0, np.nan, 0.0, 0.0]))

    def test_normalized(self):
        d = build_grid(1, [2.0], [10])
        f = ScalarField.constant(d, 3.0).normalized()
        assert mass(f) == pytest.approx(1.0, abs=1e-14)
