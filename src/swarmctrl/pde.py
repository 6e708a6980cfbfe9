"""Time integration of the forward equation and the two relaxation flows.

The advective flux is exponential-fitted by default (Scharfetter-Gummel
form), so a density whose face velocity is the log-gradient of a positive
profile is an exact discrete steady state.  Implicit Euler with this flux
is an M-matrix method: it conserves mass exactly (conservative flux,
columns of the generator sum to zero) and maps non-negative states to
non-negative states for every step size.
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
    "clamped_dt",
    "bernoulli",
]

SCHEMES = ("implicit_euler", "crank_nicolson")
FLUXES = ("exponential", "centered")


@dataclasses.dataclass
class StepperConfig:
    """Time-stepping knobs.

    ``dt`` is an upper bound; evolution helpers additionally clamp it to
    the squared grid spacing for accuracy (never needed for stability:
    both schemes are unconditionally stable).
    """

    dt: float = 1e-3
    scheme: str = "implicit_euler"
    advection_flux: str = "exponential"

    def __post_init__(self):
        if self.dt <= 0:
            raise ConfigurationError(f"dt must be positive, got {self.dt}")
        if self.scheme not in SCHEMES:
            raise ConfigurationError(f"unknown scheme {self.scheme!r}, options {SCHEMES}")
        if self.advection_flux not in FLUXES:
            raise ConfigurationError(
                f"unknown advection flux {self.advection_flux!r}, options {FLUXES}"
            )


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
    source: ScalarField | None = None,
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
    return two_point_flux_matrix(domain, face_rates, None if source is None else source.flat)


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
    cached pattern of the canonical CSR ``matrix`` plus its diagonal."""
    if scheme not in SCHEMES:
        raise ConfigurationError(f"unknown scheme {scheme!r}")
    if not (dt >= 0 and math.isfinite(dt)):
        raise ConfigurationError(f"dt must be finite and non-negative, got {dt}")
    n = matrix.shape[0]
    _, build = _pattern(n, matrix.indices.dtype, matrix.indptr.tobytes(), matrix.indices.tobytes())
    theta = 1.0 if scheme == "implicit_euler" else 0.5
    lu = spla.splu(build(np.append(-theta * dt * matrix.data, np.ones(n)), sp.csc_matrix))
    rhs_op = None if theta == 1.0 else build(np.append(0.5 * dt * matrix.data, np.ones(n)))

    def step(y: np.ndarray) -> np.ndarray:
        out = lu.solve(y if rhs_op is None else rhs_op @ y)
        if not np.all(np.isfinite(out)):
            raise NumericalError(f"{scheme} step produced non-finite values")
        return out

    return step


def clamped_dt(domain: RectDomain, cfg: StepperConfig) -> float:
    """Effective step size min(configured dt, h^2); accuracy, not stability."""
    h = min(domain.spacing)
    return min(cfg.dt, h * h)


def step_advection_diffusion(
    y: ScalarField,
    velocity: FaceField | None,
    diffusion: float,
    cfg: StepperConfig | None = None,
    source: ScalarField | None = None,
) -> ScalarField:
    """One time step of y_t = D lap(y) - div(v y) with zero-flux boundary.

    Mass is conserved to roundoff for any velocity; implicit Euler with
    the exponential-fitted flux additionally preserves non-negativity.
    """
    cfg = cfg or StepperConfig()
    if np.min(y.values) < -1e-9:
        raise InputError(f"state has negative cells, min = {np.min(y.values):.3e}")
    matrix = assemble_advection_diffusion(
        y.domain, velocity, diffusion, cfg.advection_flux, source
    )
    step = make_stepper(matrix, cfg.dt, cfg.scheme)
    return ScalarField(y.domain, step(y.flat))


def march(
    matrix: sp.csr_matrix,
    y: np.ndarray,
    duration: float,
    domain: RectDomain,
    cfg: StepperConfig,
) -> Iterator[np.ndarray]:
    """Yield the state after each of max(1, ceil(duration / clamped_dt)) equal
    steps of y' = matrix @ y; one factorization serves every step and every
    column of a raw ``(cells,)`` or ``(cells, k)`` array ``y``."""
    if duration < 0:
        raise ConfigurationError(f"duration must be non-negative, got {duration}")
    n_steps = max(1, int(math.ceil(duration / clamped_dt(domain, cfg))))
    step = make_stepper(matrix, duration / n_steps, cfg.scheme)
    for _ in range(n_steps):
        y = step(y)
        yield y


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
    for state in march(gain * weighted_heat_operator(a).matrix, y.flat, duration, y.domain, cfg):
        pass
    return ScalarField(y.domain, state)


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
    for state in march(diffusion * relaxation_operator(f).matrix, y.flat, duration, y.domain, cfg):
        pass
    return ScalarField(y.domain, state)


def fit_decay_rate(times: Sequence[float], errors: Sequence[float]) -> ConvergenceReport:
    """Least-squares fit of log(err) vs t; returns (rate, prefactor, residual)."""
    t = np.asarray(times, dtype=float)
    e = np.asarray(errors, dtype=float)
    if t.shape != e.shape or t.ndim != 1:
        raise FitError("times and errors must be 1D arrays of equal length")
    if t.size < 3:
        raise FitError(f"need at least 3 samples, got {t.size}")
    if np.any(e <= 0):
        raise FitError("errors must be strictly positive for a log-linear fit")
    log_e = np.log(e)
    slope, intercept = np.polyfit(t, log_e, 1)
    fit = slope * t + intercept
    residual = float(np.sqrt(np.mean((fit - log_e) ** 2)))
    rate = float(-slope)
    prefactor = float(np.exp(intercept))
    if not (math.isfinite(rate) and math.isfinite(prefactor)):
        raise FitError("fit produced non-finite parameters")
    return ConvergenceReport(rate=rate, prefactor=prefactor, residual=residual, n_samples=t.size)
