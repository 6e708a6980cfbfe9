"""Rectangular-domain discretization and divergence-form operator assembly.

Cell-centered finite volumes on an axis-aligned box with zero-flux
boundaries.  Every generator is a conservative two-point-flux matrix
(:func:`two_point_flux_matrix`).  The weighted-heat one discretizes
``u -> div(grad(a u))``: ``a`` is differenced exactly through ``g = a*u``,
which makes ``u = 1/a`` an exact kernel element, keeps all off-diagonal
entries non-negative, and telescopes fluxes so that column sums vanish
identically.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import math
from typing import Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import (
    CoefficientError,
    CompatibilityError,
    ConfigurationError,
    NumericalError,
)

__all__ = [
    "RectDomain",
    "ScalarField",
    "FaceField",
    "SparseOperator",
    "build_grid",
    "mass",
    "l2_norm",
    "weighted_norm",
    "two_point_flux_matrix",
    "divergence_form_operator",
    "neumann_laplacian",
    "neumann_heat_gap",
    "neumann_poisson_solve",
    "face_log_difference",
]

# spectral gaps up to this many cells use dense eigvalsh: ARPACK needs k = 2 < n, and is no faster
DENSE_GAP_CELLS = 256


@dataclasses.dataclass(frozen=True)
class RectDomain:
    """Axis-aligned box split into a uniform cell-centered grid.

    ``lengths[k]`` is the extent along axis ``k`` and ``cells[k]`` the cell
    count; spacing is derived.  Zero-flux boundaries are structural: no
    face unknowns exist on the boundary.
    """

    lengths: tuple[float, ...]
    cells: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.lengths)

    @property
    def spacing(self) -> tuple[float, ...]:
        return tuple(l / n for l, n in zip(self.lengths, self.cells))

    @property
    def shape(self) -> tuple[int, ...]:
        return self.cells

    @property
    def cell_count(self) -> int:
        return int(np.prod(self.cells))

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    def axis_centers(self, axis: int) -> np.ndarray:
        h = self.spacing[axis]
        return (np.arange(self.cells[axis]) + 0.5) * h

    def center_grids(self) -> list[np.ndarray]:
        """Cell-center coordinate arrays, each shaped like the grid."""
        axes = [self.axis_centers(d) for d in range(self.dim)]
        return list(np.meshgrid(*axes, indexing="ij"))

    def face_pairs(self, axis: int) -> tuple[np.ndarray, np.ndarray]:
        """Flat cell indices (left, right) across each interior face of
        the given axis, in the same C order as raveled face arrays."""
        idx = np.arange(self.cell_count).reshape(self.cells)
        lo = [slice(None)] * self.dim
        hi = [slice(None)] * self.dim
        lo[axis] = slice(None, -1)
        hi[axis] = slice(1, None)
        return idx[tuple(lo)].ravel(), idx[tuple(hi)].ravel()

    def face_shape(self, axis: int) -> tuple[int, ...]:
        s = list(self.cells)
        s[axis] -= 1
        return tuple(s)


def build_grid(dim: int, lengths: Sequence[float], cells: Sequence[int]) -> RectDomain:
    """Validate and construct a rectangular grid (1D or 2D)."""
    if dim not in (1, 2):
        raise ConfigurationError(f"dimension must be 1 or 2, got {dim}")
    if len(lengths) != dim or len(cells) != dim:
        raise ConfigurationError(
            f"expected {dim} lengths and cell counts, got {len(lengths)}/{len(cells)}"
        )
    lengths = tuple(float(l) for l in lengths)
    cells_t = tuple(int(n) for n in cells)
    if any(n < 2 for n in cells_t):
        raise ConfigurationError(f"need at least 2 cells per axis, got {cells_t}")
    domain = RectDomain(lengths=lengths, cells=cells_t)
    # every operator divides by h^2 and every mass multiplies by the cell
    # volume: a box where one of them leaves the normal floats is degenerate
    spacing = np.array(domain.spacing)
    with np.errstate(all="ignore"):
        scales = np.concatenate([spacing, 1.0 / spacing**2, [domain.cell_volume]])
    if not np.all((scales >= np.finfo(float).tiny) & (scales < math.inf)):
        raise ConfigurationError(
            f"lengths {lengths} over cells {cells_t} give a degenerate grid: the spacings, "
            "their inverse squares and the cell volume must be positive normal floats"
        )
    return domain


@dataclasses.dataclass(eq=False)
class ScalarField:
    """One real value per cell on a :class:`RectDomain`."""

    domain: RectDomain
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.domain.shape:
            if self.values.size == self.domain.cell_count:
                self.values = self.values.reshape(self.domain.shape)
            else:
                raise ConfigurationError(
                    f"field shape {self.values.shape} does not match grid {self.domain.shape}"
                )
        if not np.all(np.isfinite(self.values)):
            raise CoefficientError("field contains non-finite values")

    @classmethod
    def constant(cls, domain: RectDomain, value: float) -> "ScalarField":
        return cls(domain, np.full(domain.shape, float(value)))

    @property
    def flat(self) -> np.ndarray:
        return self.values.reshape(-1)

    def copy(self) -> "ScalarField":
        return ScalarField(self.domain, self.values.copy())

    def normalized(self) -> "ScalarField":
        """Rescale to unit mass."""
        m = mass(self)
        if m <= 0:
            raise CoefficientError("cannot normalize a field with non-positive mass")
        return ScalarField(self.domain, self.values / m)


def mass(field: ScalarField) -> float:
    """Total integral: sum of cell values times cell volume."""
    return float(np.sum(field.values)) * field.domain.cell_volume


def l2_norm(field: ScalarField) -> float:
    return math.sqrt(float(np.sum(field.values**2)) * field.domain.cell_volume)


def weighted_norm(field: ScalarField, weight: ScalarField) -> float:
    """Discrete weighted L2 norm with cellwise weight (used with weight = a)."""
    return math.sqrt(
        float(np.sum(field.values**2 * weight.values)) * field.domain.cell_volume
    )


@dataclasses.dataclass(eq=False)
class FaceField:
    """Velocity-like quantity on interior faces, one array per axis.

    Boundary faces carry no value: the zero-flux condition is structural.
    Component ``d`` has the grid shape with one fewer entry along axis
    ``d`` (the shape of ``np.diff`` along that axis).
    """

    domain: RectDomain
    components: tuple[np.ndarray, ...]

    def __post_init__(self):
        comps = []
        for d, c in enumerate(self.components):
            c = np.asarray(c, dtype=float)
            if c.shape != self.domain.face_shape(d):
                raise ConfigurationError(
                    f"axis-{d} face array has shape {c.shape}, expected {self.domain.face_shape(d)}"
                )
            if not np.all(np.isfinite(c)):
                raise CoefficientError("face field contains non-finite values")
            comps.append(c)
        self.components = tuple(comps)

    def max_abs(self) -> float:
        vals = [float(np.max(np.abs(c))) if c.size else 0.0 for c in self.components]
        return max(vals) if vals else 0.0


def face_log_difference(field: ScalarField, axis: int) -> np.ndarray:
    """(log u_R - log u_L) / h; requires a strictly positive field.

    This is the face evaluation of grad(u)/u that makes Gibbs-type
    profiles exact equilibria of the exponential-fitted flux.
    """
    if np.min(field.values) <= 0:
        raise CoefficientError("log-difference requires a strictly positive field")
    return np.diff(np.log(field.values), axis=axis) / field.domain.spacing[axis]


@dataclasses.dataclass(eq=False)
class SparseOperator:
    """Assembled zero-flux generator with its symmetrizing weight.

    ``matrix`` maps flat cell vectors to flat cell vectors and has the
    kernel ``1/a``: the weighted heat ``u -> div(grad(a u))``, or the
    exponential-fitted flow toward a target ``f = 1/a``.  Either is
    reversible with respect to ``1/a``, so ``diag(a) @ matrix`` is
    symmetric.  Treat instances as immutable after assembly; they are safe
    to share across threads.
    """

    domain: RectDomain
    matrix: sp.csr_matrix
    a_values: np.ndarray

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def symmetrized(self) -> sp.csr_matrix:
        """Sparse symmetric similarity transform diag(sqrt(a)) L diag(1/sqrt(a)).

        The assembled operator is self-adjoint in the a-weighted inner
        product; this conjugation exposes that symmetry for
        eigendecomposition.
        """
        sa = np.sqrt(self.a_values.reshape(-1))
        s = self.matrix.multiply(1.0 / sa[None, :]).multiply(sa[:, None])
        return (0.5 * (s + s.T)).tocsr()

    def spectral_gap(self) -> float:
        """Smallest nonzero eigenvalue of -L (the decay rate of the flow)."""
        n = self.n
        if n <= DENSE_GAP_CELLS:
            return float(np.linalg.eigvalsh(-self.symmetrized().toarray())[1])
        # shift-invert Lanczos; the shift sits just below zero so the
        # factorization never touches the singular point, and the seeded
        # start vector (never the kernel) makes reruns bitwise repeatable
        s = -self.symmetrized()
        sigma = -1e-6 * float(np.max(np.abs(s.diagonal())))
        v0 = np.random.default_rng(0).standard_normal(n)
        vals = spla.eigsh(s, k=2, sigma=sigma, which="LM", v0=v0, return_eigenvectors=False)
        return float(np.sort(vals)[1])


@functools.lru_cache(maxsize=16)
def _pattern(n: int, dtype: np.dtype, indptr: bytes, indices: bytes):
    """Columns, builder and band slots of the ``csr_matrix`` or ``csc_matrix`` on a CSR
    structure (raw bytes) plus the diagonal: weights per entry, then per diagonal, sum into
    slots, exact zeros drop, and the canonical arrays fill a copy of an empty matrix (no
    re-check).  When no entry lies off the three central diagonals (every 1D grid), each
    weight's flat index into LAPACK band storage with one sub- and one superdiagonal
    (``(4, n)``, Fortran order, entry (i, j) in row 2 + i - j) is returned too, else None."""
    rows = np.repeat(np.arange(n), np.diff(np.frombuffer(indptr, dtype)))
    keys = np.append(rows * n + np.frombuffer(indices, dtype), np.arange(n) * (n + 1))
    order = np.argsort(keys, kind="stable")  # np.unique's quicksort costs ~0.4 MB more RSS
    first = np.diff(keys[order], prepend=-1) != 0
    slots = (np.cumsum(first, dtype=np.int32) - 1)[np.argsort(order, kind="stable")]
    r, c = (a.astype(np.int32) for a in np.divmod(keys[order][first], n))
    to_csc = np.lexsort((r, c)).astype(np.int32)
    layouts = {sp.csr_matrix: (slice(None), r, c), sp.csc_matrix: (to_csc, c[to_csc], r[to_csc])}
    empty = {container: container((n, n)) for container in layouts}

    def build(weights: np.ndarray, container=sp.csr_matrix):
        order, major, minor = layouts[container]
        data = np.bincount(slots, weights, c.size)[order]
        keep = data != 0
        out = copy.copy(empty[container])
        out.data, out.indices = data[keep], minor[keep]
        out.indptr = np.searchsorted(major[keep], np.arange(n + 1)).astype(np.int32)
        return out

    band = None
    if np.all(np.abs(r - c) <= 1):
        row, col = np.divmod(keys, n)
        band = 4 * col + 2 + row - col
    return c, build, band


@functools.lru_cache(maxsize=16)
def _flux_pattern(domain: RectDomain):
    """CSR position of each face rate (in ``face_rates`` order), columns and builder of the
    structure shared by every two-point-flux matrix on the grid: faces both ways, diagonal."""
    n = domain.cell_count
    pairs = [domain.face_pairs(axis) for axis in range(domain.dim)]
    rows = np.concatenate([np.arange(n)] + [p for left, right in pairs for p in (right, left)])
    cols = np.concatenate([np.arange(n)] + [p for left, right in pairs for p in (left, right)])
    full = sp.csr_matrix((np.arange(1.0, rows.size + 1), (rows, cols)), shape=(n, n))
    cols, build, _ = _pattern(n, full.indices.dtype, full.indptr.tobytes(), full.indices.tobytes())
    return np.argsort(full.data, kind="stable")[n:].astype(np.int32), cols, build


def two_point_flux_matrix(
    domain: RectDomain, face_rates: Sequence[tuple[np.ndarray, np.ndarray]]
) -> sp.csr_matrix:
    """Conservative generator from per-axis face transfer rates.

    ``face_rates[axis] = (to_right, to_left)`` holds, for each interior
    face of that axis (ordered as :meth:`RectDomain.face_pairs`), the
    rate moving mass from the left cell to the right one and back.  The
    rates become the off-diagonal entries and the diagonal cancels each
    column sum, so ``1^T L = 0`` holds in floating point (mass is
    conserved) and non-negative rates give an M-matrix sign pattern.
    """
    position, cols, build = _flux_pattern(domain)
    off_diag = np.bincount(position, np.concatenate(face_rates, axis=None), cols.size)
    diagonal = -np.bincount(cols, off_diag, domain.cell_count)
    return build(np.append(off_diag, diagonal))


def divergence_form_operator(a: ScalarField) -> SparseOperator:
    """Assemble the conservative discretization of div(grad(a u)), the
    weighted-heat generator.

    Precondition: ``a`` strictly positive cellwise.
    """
    domain = a.domain
    if np.min(a.values) <= 0:
        raise CoefficientError(f"coefficient a must be positive, min = {np.min(a.values)}")

    a_flat = a.flat
    face_rates = []
    for axis in range(domain.dim):
        h = domain.spacing[axis]
        left, right = domain.face_pairs(axis)
        # a degenerate box overflows here; the factorization reports it
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            coef = np.float64(1.0) / (h * h)
            # flux = (a_R u_R - a_L u_L)/h leaving the left cell
            face_rates.append((coef * a_flat[left], coef * a_flat[right]))
    matrix = two_point_flux_matrix(domain, face_rates)
    return SparseOperator(domain, matrix, a.values.copy())


def neumann_laplacian(domain: RectDomain) -> SparseOperator:
    return divergence_form_operator(ScalarField.constant(domain, 1.0))


def neumann_heat_gap(domain: RectDomain) -> float:
    """Closed-form spectral gap of the zero-flux Laplacian: min over axes of (4/h^2) sin^2(pi/(2n))."""
    axes = zip(domain.spacing, domain.cells)
    return min(4.0 / (h * h) * math.sin(math.pi / (2 * n)) ** 2 for h, n in axes)


@functools.lru_cache(maxsize=16)
def _poisson_factorization(domain: RectDomain):
    """Negated zero-flux Laplacian -L and the LU of the bordered system
    [[-L, m], [m^T, 0]] enforcing zero mean.

    The border vector is the mass functional, which spans the kernel of
    the zero-flux Laplacian; the bordered matrix is nonsingular and its
    solution is the unique zero-mean solution.
    """
    neg_lap = -neumann_laplacian(domain).matrix
    n = domain.cell_count
    m = np.full((n, 1), domain.cell_volume)
    bordered = sp.bmat(
        [[neg_lap, sp.csr_matrix(m)], [sp.csr_matrix(m.T), None]], format="csc"
    )
    try:
        return neg_lap, spla.splu(bordered)
    except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
        raise NumericalError(f"zero-flux Poisson system cannot be factored: {exc}") from exc


def neumann_poisson_solve(
    rhs: ScalarField | Sequence[ScalarField],
) -> ScalarField | list[ScalarField]:
    """Solve -lap(phi) = rhs with zero-flux boundary, zero-mean phi.

    Every right-hand side must have zero mass (the discrete solvability
    condition); tolerance 1e-10.  A sequence of fields on one grid is
    solved as the columns of one multi-column solve, and the list of their
    solutions is returned.
    """
    fields = [rhs] if isinstance(rhs, ScalarField) else list(rhs)
    domain = fields[0].domain
    if any(f.domain != domain for f in fields):
        raise ConfigurationError("right-hand sides live on different grids")
    b = np.stack([f.flat for f in fields])
    masses = np.sum(b, axis=1) * domain.cell_volume
    m = float(masses[np.argmax(np.abs(masses))])
    if abs(m) > 1e-10:
        raise CompatibilityError(
            f"zero-flux Poisson problem needs a zero-mass right-hand side, got mass {m:.3e}"
        )
    neg_lap, lu = _poisson_factorization(domain)
    sol = lu.solve(np.append(b, np.zeros((len(fields), 1)), axis=1).T)
    phi = sol[:-1]
    if not np.all(np.isfinite(phi)):
        raise NumericalError("Poisson solve produced non-finite values")
    residual = np.max(np.abs(neg_lap @ phi - b.T), axis=0)
    scale = np.maximum(1.0, np.max(np.abs(b), axis=1))
    if np.any(residual > 1e-9 * scale):
        raise NumericalError(f"Poisson residual {np.max(residual):.3e} above tolerance")
    solutions = [ScalarField(domain, column) for column in phi.T]
    return solutions[0] if isinstance(rhs, ScalarField) else solutions
