"""Time integration of the forward equation and the two relaxation flows.

The advective flux is exponential-fitted by default (Scharfetter-Gummel
form), so a density whose face velocity is the log-gradient of a positive
profile is an exact discrete steady state.  Implicit Euler with this flux
is an M-matrix method: it conserves mass exactly (conservative flux,
columns of the generator sum to zero) and maps non-negative states to
non-negative states for every step size.  It is the only scheme of the
fixed-operator evolutions here; Crank-Nicolson with the centered flux
serves only path following (``control.follow_path``).
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Iterator, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import (
    CoefficientError,
    ConfigurationError,
    FitError,
    InputError,
    NumericalError,
    TargetError,
)
from .grid import (
    FaceField,
    RectDomain,
    ScalarField,
    SparseOperator,
    _pattern,
    divergence_form_operator,
    mass,
    two_point_flux_matrix,
)

__all__ = [
    "StepperConfig",
    "ConvergenceReport",
    "step_advection_diffusion",
    "evolve_weighted_heat",
    "evolve_stabilizing",
    "fit_decay_rate",
    "assemble_advection_diffusion",
    "weighted_heat_operator",
    "relaxation_operator",
    "make_stepper",
    "march",
    "bernoulli",
]

SCHEMES = ("implicit_euler", "crank_nicolson")
FLUXES = ("exponential", "centered")
# byte budget of one block of step states yielded by :func:`march`: 7 states of
# 48x48 cells, so the per-block witness and finiteness scan amortize in 2D too
BLOCK_BYTES = 128 * 1024


@dataclasses.dataclass
class StepperConfig:
    """Time-stepping knob of every fixed-operator evolution (implicit Euler).

    ``dt`` is the step: :func:`march` covers a duration with
    ceil(duration / dt) equal steps, whatever the grid.  Implicit Euler
    with the exponential-fitted flux is an M-matrix step for every dt, so
    no step is capped for stability.
    """

    dt: float = 1e-3

    def __post_init__(self):
        if not 0 < self.dt < math.inf:
            raise ConfigurationError(f"dt must be finite and positive, got {self.dt}")


@dataclasses.dataclass
class ConvergenceReport:
    """Log-linear fit of an error series: err(t) ~ prefactor * exp(-rate*t)."""

    rate: float
    prefactor: float
    residual: float
    n_samples: int


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
        # face flux out of the left cell: F = c_left*u_L - c_right*u_R
        face_rates.append((c_left / h, c_right / h))
    return two_point_flux_matrix(domain, face_rates)


def weighted_heat_operator(a: ScalarField) -> SparseOperator:
    """Generator of y_t = div(grad(a y)) (zero-flux)."""
    return divergence_form_operator(a, None)


def relaxation_operator(f: ScalarField) -> SparseOperator:
    """Generator of y_t = div(f grad(y / f)): relaxes toward f."""
    if np.min(f.values) <= 0:
        raise TargetError(f"target has non-positive cells, min = {np.min(f.values)}")
    a = ScalarField(f.domain, 1.0 / f.values)
    return divergence_form_operator(a, f)


def make_stepper(matrix: sp.csr_matrix, dt: float, scheme: str) -> Callable[[np.ndarray], np.ndarray]:
    """Prefactorized single-step map for y' = matrix @ y (theta = 1 or 1/2);
    ``dt = 0`` is the identity.  I - theta*dt*matrix and I + dt/2*matrix fill the
    cached pattern of the canonical CSR ``matrix`` plus its diagonal.

    SuperLU orders columns with COLAMD (an ordering for A^T A) on tridiagonal
    patterns, where no ordering gives fill, and with the minimum degree ordering
    of A^T + A on every other pattern: two-point-flux patterns are structurally
    symmetric, and on 48x48 cells that ordering gives L+U about 40 % fewer
    nonzeros.  Partial pivoting stays on (centered fluxes at high Peclet number
    are not diagonally dominant).

    The step does not scan its output: the caller checks finiteness where it
    holds the states (see :func:`_require_finite`)."""
    if scheme not in SCHEMES:
        raise ConfigurationError(f"unknown scheme {scheme!r}")
    if not (dt >= 0 and math.isfinite(dt)):
        raise ConfigurationError(f"dt must be finite and non-negative, got {dt}")
    n = matrix.shape[0]
    _, build, tridiagonal = _pattern(
        n, matrix.indices.dtype, matrix.indptr.tobytes(), matrix.indices.tobytes()
    )
    theta = 1.0 if scheme == "implicit_euler" else 0.5
    lu = spla.splu(
        build(np.append(-theta * dt * matrix.data, np.ones(n)), sp.csc_matrix),
        permc_spec="COLAMD" if tridiagonal else "MMD_AT_PLUS_A",
    )
    rhs_op = None if theta == 1.0 else build(np.append(0.5 * dt * matrix.data, np.ones(n)))

    if rhs_op is None:
        return lu.solve
    return lambda y: lu.solve(rhs_op @ y)


def _require_finite(states: np.ndarray, scheme: str) -> None:
    """Raise NumericalError unless every value of ``states`` is finite; a NaN
    or Inf carries through the linear solves, so one scan covers the steps
    before it."""
    if not np.all(np.isfinite(states)):
        raise NumericalError(f"{scheme} step produced non-finite values")


def step_advection_diffusion(
    y: ScalarField,
    velocity: FaceField | None,
    diffusion: float,
    cfg: StepperConfig | None = None,
) -> ScalarField:
    """One implicit Euler step of y_t = D lap(y) - div(v y) with zero-flux
    boundary and the exponential-fitted flux: conserves mass to roundoff and
    preserves non-negativity.
    """
    cfg = cfg or StepperConfig()
    if np.min(y.values) < -1e-9:
        raise InputError(f"state has negative cells, min = {np.min(y.values):.3e}")
    matrix = assemble_advection_diffusion(y.domain, velocity, diffusion)
    out = make_stepper(matrix, cfg.dt, "implicit_euler")(y.flat)
    _require_finite(out, "implicit_euler")
    return ScalarField(y.domain, out)


def march(
    matrix: sp.csr_matrix,
    y: np.ndarray,
    duration: float,
    cfg: StepperConfig,
) -> Iterator[np.ndarray]:
    """Yield the states after max(1, ceil(duration / cfg.dt)) equal implicit
    Euler steps of y' = matrix @ y, in blocks of consecutive steps; each
    step is duration / n_steps <= cfg.dt, whatever the grid.

    One factorization serves every step and every column of a raw
    ``(cells,)`` or ``(cells, k)`` array ``y``.  Each block is a new
    C-ordered array of shape ``(rows, *y.shape)``, holding the states
    after the next ``rows`` steps, with rows <= max(1, BLOCK_BYTES //
    y.nbytes); only the last block may be shorter.  Finiteness is checked
    once per block, so a NumericalError comes at most one block late."""
    if duration < 0:
        raise ConfigurationError(f"duration must be non-negative, got {duration}")
    n_steps = max(1, int(math.ceil(duration / cfg.dt)))
    step = make_stepper(matrix, duration / n_steps, "implicit_euler")
    rows = max(1, BLOCK_BYTES // y.nbytes)
    for start in range(0, n_steps, rows):
        block = np.empty((min(rows, n_steps - start),) + y.shape)
        for row in block:
            y = step(y)
            row[...] = y
        _require_finite(block, "implicit_euler")
        yield block


def evolve_weighted_heat(
    y: ScalarField,
    a: ScalarField,
    gain: float,
    duration: float,
    cfg: StepperConfig | None = None,
) -> ScalarField:
    """Flow of y_t = gain * div(grad(a y)) for the given duration.

    Conserves mass, preserves non-negativity, and keeps max(a*y) bounded
    by its initial value (discrete maximum principle).  ``gain = 0`` is
    the identity.
    """
    cfg = cfg or StepperConfig()
    if gain < 0 or not math.isfinite(gain):
        raise CoefficientError(f"gain must be non-negative, got {gain}")
    if gain == 0:
        return y.copy()
    for block in march(gain * weighted_heat_operator(a).matrix, y.flat, duration, cfg):
        pass
    return ScalarField(y.domain, block[-1].copy())


def evolve_stabilizing(
    y: ScalarField,
    f: ScalarField,
    diffusion: float,
    duration: float,
    cfg: StepperConfig | None = None,
) -> ScalarField:
    """Flow of y_t = D div(f grad(y/f)): fixes f exactly and relaxes to it.

    Requires a strictly positive f with the same mass as y (the flow
    conserves mass, so only then does y -> f make sense).
    """
    cfg = cfg or StepperConfig()
    if np.min(f.values) <= 0:
        raise TargetError(f"target has non-positive cells, min = {np.min(f.values)}")
    if diffusion <= 0 or not math.isfinite(diffusion):
        raise CoefficientError(f"diffusion must be positive, got {diffusion}")
    mf, my = mass(f), mass(y)
    if abs(mf - my) > 1e-9 * max(1.0, abs(mf)):
        raise InputError(f"mass mismatch: mass(f) = {mf!r}, mass(y) = {my!r}")
    for block in march(diffusion * relaxation_operator(f).matrix, y.flat, duration, cfg):
        pass
    return ScalarField(y.domain, block[-1].copy())


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
    return ConvergenceReport(rate=rate, prefactor=prefactor, residual=residual, n_samples=t.size)
