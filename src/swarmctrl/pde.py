"""Time integration of the forward equation and its two generators.

The generators are the weighted heat div(grad(a y)) and
:func:`assemble_advection_diffusion`; the stabilizing flow toward a target
is the latter with the feedback velocity D grad(f)/f
(``control.TargetDensity.relaxation_operator``).  Two entry points evolve
a state: :func:`march` runs a fixed generator (times a gain, if any) over a
duration in equal steps, and :func:`make_stepper` is the prefactorized
one-step map beneath it, which path following and the hybrid splitting
call directly.

The advective flux is exponential-fitted by default (Scharfetter-Gummel
form), so a density whose face velocity is the log-gradient of a positive
profile is an exact discrete steady state.  Implicit Euler with this flux
is an M-matrix method: it conserves mass exactly (conservative flux,
columns of the generator sum to zero) and maps non-negative states to
non-negative states for every step size.  It is the only step here:
path following (``control.follow_path``) takes Crank-Nicolson steps with
the centered flux, each one implicit Euler solve of half the step,
extrapolated.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Iterator, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from .errors import (
    CoefficientError,
    ConfigurationError,
    FitError,
    NumericalError,
)
from .grid import (
    FaceField,
    RectDomain,
    ScalarField,
    SparseOperator,
    _pattern,
    divergence_form_operator,
    two_point_flux_matrix,
)

__all__ = [
    "ConvergenceReport",
    "fit_decay_rate",
    "assemble_advection_diffusion",
    "weighted_heat_operator",
    "make_stepper",
    "march",
    "bernoulli",
]

FLUXES = ("exponential", "centered")
# byte budget of one block of step states yielded by :func:`march`: 7 states of
# 48x48 cells, so the per-block witness and finiteness scan amortize in 2D too
BLOCK_BYTES = 128 * 1024


@dataclasses.dataclass
class ConvergenceReport:
    """Log-linear fit of an error series: err(t) ~ prefactor * exp(-rate*t)."""

    rate: float
    prefactor: float
    residual: float


def bernoulli(x: np.ndarray) -> np.ndarray:
    """B(x) = x / (exp(x) - 1), with the removable singularity filled in."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    small = np.abs(x) < 1e-5
    large = x > 700.0  # B = x exp(-x) there: 1 - exp(-x) rounds to 1, expm1 overflows near 710
    mid = ~(small | large)
    xs = x[small]
    out[small] = 1.0 - xs / 2.0 + xs * xs / 12.0
    xl = x[large]
    out[large] = xl * np.exp(-xl)
    xm = x[mid]
    out[mid] = xm / np.expm1(xm)
    return out


def assemble_advection_diffusion(
    domain: RectDomain,
    velocity: FaceField | None,
    diffusion: float,
    flux: str = "exponential",
) -> sp.csr_matrix:
    """Generator L with y' = L y discretizing D*lap(y) - div(v y).

    Off-diagonal entries are non-negative for the exponential-fitted flux
    and columns sum to zero exactly (conservative assembly), so I - dt*L
    is an M-matrix and implicit Euler preserves mass and positivity.
    """
    if diffusion < 0 or not math.isfinite(diffusion):
        raise CoefficientError(f"diffusion must be non-negative, got {diffusion}")
    if flux not in FLUXES:
        raise ConfigurationError(f"unknown advection flux {flux!r}")
    face_rates = []
    for axis in range(domain.dim):
        h = domain.spacing[axis]
        if velocity is None:
            vf = np.zeros(math.prod(domain.face_shape(axis)))
        else:
            vf = velocity.components[axis].reshape(-1)
        if diffusion > 0:
            if flux == "exponential":
                p = vf * h / diffusion
                c_left = (diffusion / h) * bernoulli(-p)
                c_right = (diffusion / h) * bernoulli(p)
            else:
                c_left = diffusion / h + 0.5 * vf
                c_right = diffusion / h - 0.5 * vf
        else:
            # pure advection: upwind (the vanishing-diffusion limit of the
            # exponential-fitted flux)
            c_left = np.maximum(vf, 0.0)
            c_right = -np.minimum(vf, 0.0)
        # face flux out of the left cell: F = c_left*u_L - c_right*u_R; a
        # degenerate box overflows here and the factorization reports it
        with np.errstate(over="ignore"):
            face_rates.append((c_left / h, c_right / h))
    return two_point_flux_matrix(domain, face_rates)


def weighted_heat_operator(a: ScalarField) -> SparseOperator:
    """Generator of y_t = div(grad(a y)) (zero-flux)."""
    return divergence_form_operator(a)


def make_stepper(matrix: sp.csr_matrix, dt: float) -> Callable[[np.ndarray], np.ndarray]:
    """Prefactorized implicit Euler step y -> (I - dt*matrix)^-1 y for
    y' = matrix @ y; ``dt = 0`` is the identity.  I - dt*matrix fills the
    cached pattern of the canonical CSR ``matrix`` plus its diagonal.

    A tridiagonal pattern (every 1D grid) goes into LAPACK band storage and is
    factored by the banded LU with partial pivoting (``dgbtrf``), with no sparse
    matrix built for the system; the step is ``dgbtrs``.  Every other pattern is
    factored by SuperLU with the minimum degree ordering of A^T + A:
    two-point-flux patterns are structurally symmetric, and on 48x48 cells that
    ordering gives L+U about 40 % fewer nonzeros than COLAMD.  Partial pivoting
    stays on in both (centered fluxes at high Peclet number are not diagonally
    dominant).  The step maps a ``(cells,)`` array or the columns of a
    ``(cells, k)`` array.

    The step does not scan its output: the caller checks finiteness where it
    holds the states (see :func:`_require_finite`).  A system that cannot be
    factored (an exactly zero pivot, or a non-finite factor from an overflowed
    generator) raises NumericalError."""
    if not (dt >= 0 and math.isfinite(dt)):
        raise ConfigurationError(f"dt must be finite and non-negative, got {dt}")
    n = matrix.shape[0]
    _, build, band = _pattern(
        n, matrix.indices.dtype, matrix.indptr.tobytes(), matrix.indices.tobytes()
    )
    system = np.append(-dt * matrix.data, np.ones(n))
    if band is not None:
        ab = np.bincount(band, system, 4 * n).reshape((4, n), order="F")
        lu, piv, info = lapack.dgbtrf(ab, 1, 1, overwrite_ab=1)
        # LAPACK flags an exactly zero pivot, not a NaN one
        if info != 0 or not np.all(np.isfinite(lu)):
            reason = f"pivot {info} is exactly zero" if info > 0 else "non-finite factor"
            raise NumericalError(f"implicit system cannot be factored: {reason}")
        return lambda y: lapack.dgbtrs(lu, 1, 1, y, piv)[0]
    try:
        return spla.splu(build(system, sp.csc_matrix), permc_spec="MMD_AT_PLUS_A").solve
    except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
        raise NumericalError(f"implicit system cannot be factored: {exc}") from exc


def _require_finite(states: np.ndarray) -> None:
    """Raise NumericalError unless every value of ``states`` is finite; a NaN
    or Inf carries through the linear solves, so one scan covers the steps
    before it."""
    if not np.all(np.isfinite(states)):
        raise NumericalError("implicit step produced non-finite values")


def march(
    matrix: sp.csr_matrix,
    y: np.ndarray,
    duration: float,
    dt: float,
) -> Iterator[np.ndarray]:
    """Yield the states after max(1, ceil(duration / dt)) equal implicit
    Euler steps of y' = matrix @ y, in blocks of consecutive steps; each
    step is duration / n_steps <= dt, whatever the grid.  Implicit Euler
    with the exponential-fitted flux is an M-matrix step for every dt, so
    no step is capped for stability.

    One factorization serves every step and every column of a raw
    ``(cells,)`` or ``(cells, k)`` array ``y``.  Each block is a new
    C-ordered array of shape ``(rows, *y.shape)``, holding the states
    after the next ``rows`` steps, with rows <= max(1, BLOCK_BYTES //
    y.nbytes); only the last block may be shorter.  Finiteness is checked
    once per block, so a NumericalError comes at most one block late."""
    if not 0 < dt < math.inf:
        raise ConfigurationError(f"dt must be finite and positive, got {dt}")
    if duration < 0:
        raise ConfigurationError(f"duration must be non-negative, got {duration}")
    n_steps = max(1, int(math.ceil(duration / dt)))
    step = make_stepper(matrix, duration / n_steps)
    rows = max(1, BLOCK_BYTES // y.nbytes)
    for start in range(0, n_steps, rows):
        block = np.empty((min(rows, n_steps - start),) + y.shape)
        for row in block:
            y = step(y)
            row[...] = y
        _require_finite(block)
        yield block


def fit_decay_rate(times: Sequence[float], errors: Sequence[float]) -> ConvergenceReport:
    """Least-squares fit of log(err) vs t; returns (rate, prefactor, residual).

    Raises FitError for fewer than 3 samples, non-finite or non-positive
    values, and times whose span the fit cannot resolve."""
    t = np.asarray(times, dtype=float)
    e = np.asarray(errors, dtype=float)
    if t.shape != e.shape or t.ndim != 1:
        raise FitError("times and errors must be 1D arrays of equal length")
    if t.size < 3:
        raise FitError(f"need at least 3 samples, got {t.size}")
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(e))):
        raise FitError("times and errors must be finite")
    if np.any(e <= 0):
        raise FitError("errors must be strictly positive for a log-linear fit")
    # polyfit scales the time column by its 2-norm, so t*t must neither
    # underflow to zero nor overflow
    with np.errstate(over="ignore", under="ignore"):
        resolvable = np.ptp(t) > 0 and 0 < np.dot(t, t) < math.inf
    if not resolvable:
        raise FitError(
            f"times must span a resolvable interval, got {float(t.min())!r} .. {float(t.max())!r}"
        )
    log_e = np.log(e)
    try:
        slope, intercept = np.polyfit(t, log_e, 1)
    except np.linalg.LinAlgError as exc:
        raise FitError(f"log-linear fit failed: {exc}") from exc
    fit = slope * t + intercept
    residual = float(np.sqrt(np.mean((fit - log_e) ** 2)))
    rate = float(-slope)
    prefactor = float(np.exp(intercept))
    if not (math.isfinite(rate) and math.isfinite(prefactor)):
        raise FitError("fit produced non-finite parameters")
    return ConvergenceReport(rate=rate, prefactor=prefactor, residual=residual)
