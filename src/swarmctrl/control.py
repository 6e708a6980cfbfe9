"""Velocity-control synthesis: stabilization, finite-time steering, and
path following for the scalar forward equation.

The steering construction runs three preparation phases (free diffusion,
relaxation toward the target, a unit-gain smoothing flow) and then a gain
schedule with interval lengths proportional to 1/j^2 and gains
proportional to j.  Each gain interval contributes gain*length ~ 1/j of
effective relaxation time, and the divergence of the harmonic series
drives the error to zero within the fixed total duration while the
synthesized velocities stay bounded.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import warnings
from typing import Callable, Sequence

import numpy as np

from .errors import (
    InputError,
    PlanError,
    PositivityLossError,
    TargetError,
    TruncationWarning,
)
from .grid import (
    FaceField,
    RectDomain,
    ScalarField,
    SparseOperator,
    face_log_difference,
    l2_norm,
    mass,
    neumann_heat_gap,
    neumann_poisson_solve,
    weighted_norm,
)
from .pde import (
    BLOCK_BYTES,
    _require_finite,
    assemble_advection_diffusion,
    make_stepper,
    march,
    weighted_heat_operator,
)

__all__ = [
    "TargetDensity",
    "GainSchedule",
    "Phase",
    "SteeringPlan",
    "PhaseRecord",
    "PlanExecution",
    "stabilizing_velocity",
    "feedback_velocity",
    "synthesize_steering_plan",
    "execute_plan",
    "path_following_velocity",
    "follow_path",
    "PathTrackingResult",
]

POSITIVITY_FLOOR = 1e-12
MAX_GAIN_INTERVALS = 40


@dataclasses.dataclass(eq=False)
class TargetDensity:
    """Unit-mass target bounded below by a positive constant.

    Caches ``a = 1/f``, the weighted-heat generator built from it (every
    smoothing and gain phase of a plan scales this one operator), the
    stabilizing-flow generator and the measured spectral gaps that size
    steering gains.
    """

    f: ScalarField
    a: ScalarField

    @classmethod
    def create(cls, f: ScalarField) -> "TargetDensity":
        fmin = float(np.min(f.values))
        if fmin <= 0:
            raise TargetError(f"target must be positive, min = {fmin}")
        m = mass(f)
        if abs(m - 1.0) > 1e-12:
            raise TargetError(f"target mass must be 1, got {m!r}")
        return cls(f=f, a=ScalarField(f.domain, 1.0 / f.values))

    @property
    def domain(self) -> RectDomain:
        return self.f.domain

    @functools.cached_property
    def heat_operator(self) -> SparseOperator:
        """Weighted-heat generator div(grad(a y)), assembled once."""
        return weighted_heat_operator(self.a)

    @functools.cached_property
    def spectral_gap(self) -> float:
        """Smallest nonzero eigenvalue of the weighted-heat generator."""
        return self.heat_operator.spectral_gap()

    @functools.cached_property
    def relaxation_operator(self) -> SparseOperator:
        """Generator of the stabilizing flow y_t = lap(y) - div(v y) with the
        feedback velocity v = grad(f)/f and the exponential-fitted flux,
        assembled once; f is its kernel, and the flux is reversible with
        respect to f, so its spectrum is real."""
        matrix = assemble_advection_diffusion(self.domain, stabilizing_velocity(self, 1.0), 1.0)
        return SparseOperator(self.domain, matrix)

    @functools.cached_property
    def relaxation_gap(self) -> float:
        """Smallest nonzero eigenvalue of the stabilizing-flow generator."""
        return self.relaxation_operator.spectral_gap()


def stabilizing_velocity(target: TargetDensity, diffusion: float = 1.0) -> FaceField:
    """v = D * grad(f)/f evaluated at faces as a log-difference.

    The log form makes the target an exact steady state of the
    exponential-fitted flux; it agrees with the analytic gradient ratio
    to second order in the spacing.
    """
    comps = tuple(
        diffusion * face_log_difference(target.f, axis)
        for axis in range(target.domain.dim)
    )
    return FaceField(target.domain, comps)


def feedback_velocity(
    y: ScalarField, target: TargetDensity, alpha: float, j: int
) -> FaceField:
    """State feedback v = grad(y)/y - alpha*j*grad(a y)/y at faces.

    Division uses the arithmetic face mean of y with a 1e-12 floor; the
    steering construction keeps the state uniformly positive, so a floor
    violation signals plan misconfiguration.  Substituting this law into
    the forward equation closes the loop into the weighted-heat flow with
    gain alpha*j.
    """
    beta = _feedback_gain(alpha, j)
    return FaceField(y.domain, _feedback_faces(y.values, target.a.values, beta, y.domain))


def _feedback_gain(alpha: float, j: int) -> float:
    if alpha < 0 or not math.isfinite(alpha):
        raise InputError(f"gain must be non-negative, got {alpha}")
    if j < 1:
        raise InputError(f"interval index must be >= 1, got {j}")
    return alpha * j


def _feedback_faces(y: np.ndarray, a: np.ndarray, beta: float, domain: RectDomain) -> tuple:
    """Per-axis faces of (dy - beta*d(a y)) / max(mean y, floor) on grid-shaped
    states; leading axes of ``y`` before the grid's batch several states, all
    checked against the positivity floor at once."""
    if float(np.min(y)) < POSITIVITY_FLOOR:
        raise PositivityLossError(f"state below positivity floor: min = {np.min(y):.3e}")
    lead = y.ndim - domain.dim
    g = a * y
    comps = []
    for axis, h in enumerate(domain.spacing):
        lo = (slice(None),) * (lead + axis) + (slice(None, -1),)
        hi = (slice(None),) * (lead + axis) + (slice(1, None),)
        # (dy - beta*dg) / max(yb, floor), with the temporaries written in
        # place: the same roundings, a third of the allocations
        yb = y[lo] + y[hi]
        yb *= 0.5
        np.maximum(yb, POSITIVITY_FLOOR, out=yb)
        dy = y[hi] - y[lo]
        dy /= h
        dg = g[hi] - g[lo]
        dg /= h
        dg *= beta
        dy -= dg
        dy /= yb
        comps.append(dy)
    return tuple(comps)


@dataclasses.dataclass
class GainSchedule:
    """Rescaled 1/j^2 interval lengths with gains alpha*j.

    ``alpha >= 1/gap`` always holds; the intervals sum to the allotted
    duration exactly.
    """

    alpha: float
    intervals: tuple[float, ...]
    gap: float
    predicted_error: float

    @property
    def truncation(self) -> int:
        return len(self.intervals)


@dataclasses.dataclass(frozen=True)
class Phase:
    """One plan segment: velocity-law tag plus parameters."""

    tag: str  # zero | stabilize | smooth | gain
    duration: float
    alpha: float = 0.0
    j: int = 0


@dataclasses.dataclass(eq=False)
class SteeringPlan:
    """Open-loop schedule steering an initial density to the target."""

    target: TargetDensity
    t_final: float
    epsilon: float
    phases: tuple[Phase, ...]
    schedule: GainSchedule
    predicted_error: float

    def validate(self) -> None:
        if not self.phases:
            raise PlanError("plan has no phases")
        if any(p.duration <= 0 for p in self.phases):
            raise PlanError("phase durations must be positive")
        total = math.fsum(p.duration for p in self.phases)
        if abs(total - self.t_final) > 1e-12 * max(1.0, self.t_final):
            raise PlanError(
                f"phase durations sum to {total!r}, expected {self.t_final!r}"
            )
        tags = [p.tag for p in self.phases]
        expected_head = ["zero", "stabilize", "smooth"]
        if tags[:3] != expected_head or any(t != "gain" for t in tags[3:]):
            raise PlanError(f"unexpected phase ordering {tags}")

    def to_text(self) -> str:
        lines = [f"t_final {self.t_final!r}", f"epsilon {self.epsilon!r}"]
        for p in self.phases:
            if p.tag == "gain":
                lines.append(f"gain {p.duration!r} alpha={p.alpha!r} j={p.j}")
            else:
                lines.append(f"{p.tag} {p.duration!r}")
        return "\n".join(lines) + "\n"


def synthesize_steering_plan(
    y0: ScalarField,
    target: TargetDensity,
    t_final: float,
    tol: float,
) -> SteeringPlan:
    """Build the three preparation phases plus a truncated gain schedule.

    The truncation index is the smallest J whose predicted terminal error
    (measured spectral gaps, unit prefactor) meets ``tol``; if J_max is
    insufficient a :class:`TruncationWarning` carrying the achievable
    error is issued and the capped schedule returned.
    """
    if not 0 < t_final < math.inf:
        raise InputError(f"final time must be finite and positive, got {t_final}")
    if not 0 < tol < math.inf:
        raise InputError(f"tolerance must be finite and positive, got {tol}")
    if y0.domain != target.domain:
        raise InputError("initial state and target live on different grids")
    m0 = mass(y0)
    if abs(m0 - 1.0) > 1e-9:
        raise InputError(f"initial mass must be 1, got {m0!r}")
    if float(np.min(y0.values)) < -1e-12:
        raise InputError(f"initial state must be non-negative, min = {np.min(y0.values):.3e}")

    eps = min(0.1 * t_final, 0.3)
    gain_window = t_final - eps
    gap = target.spectral_gap
    relax_gap = target.relaxation_gap
    heat_gap = neumann_heat_gap(target.domain)

    err0 = weighted_norm(
        ScalarField(y0.domain, y0.values - target.f.values), target.a
    )
    # contraction bound over the three preparation phases (unit prefactor:
    # the generators are self-adjoint in their weighted inner products and
    # the error component is mass-orthogonal to the kernel)
    prep = math.exp(-(heat_gap + relax_gap + gap) * eps / 3.0)

    chosen = None
    for trunc in range(1, MAX_GAIN_INTERVALS + 1):
        z = math.fsum(1.0 / k**2 for k in range(1, trunc + 1))
        harmonic = math.fsum(1.0 / k for k in range(1, trunc + 1))
        scale = gain_window / z
        alpha = (2.0 / gap) * max(1.0, 1.0 / scale)
        predicted = err0 * prep * math.exp(-gap * alpha * scale * harmonic)
        chosen = (trunc, z, scale, alpha, predicted)
        if predicted <= tol:
            break
    trunc, z, scale, alpha, predicted = chosen
    if predicted > tol:
        warnings.warn(
            TruncationWarning(
                f"gain schedule capped at {MAX_GAIN_INTERVALS} intervals; predicted error "
                f"{predicted:.3e} above tolerance {tol:.3e}",
                achievable=predicted,
            )
        )

    intervals = tuple(scale / j**2 for j in range(1, trunc + 1))
    schedule = GainSchedule(
        alpha=alpha, intervals=intervals, gap=gap, predicted_error=predicted
    )
    phases = [
        Phase("zero", eps / 3.0),
        Phase("stabilize", eps / 3.0),
        Phase("smooth", eps / 3.0),
    ]
    phases += [
        Phase("gain", dur, alpha, j) for j, dur in enumerate(intervals, start=1)
    ]
    plan = SteeringPlan(
        target=target,
        t_final=t_final,
        epsilon=eps,
        phases=tuple(phases),
        schedule=schedule,
        predicted_error=predicted,
    )
    plan.validate()
    return plan


@dataclasses.dataclass
class PhaseRecord:
    tag: str
    j: int
    duration: float
    max_velocity: float
    end_error_l2: float
    end_error_weighted: float


@dataclasses.dataclass(eq=False)
class PlanExecution:
    snapshots: list[tuple[float, ScalarField]]
    records: list[PhaseRecord]
    final_error_l2: float
    final_error_weighted: float
    max_velocity: float

    @property
    def final_state(self) -> ScalarField:
        return self.snapshots[-1][1]


def _phase_operator(plan: SteeringPlan, phase: Phase):
    """Generator, feedback gain (None if open loop) and constant velocity bound of a phase."""
    target = plan.target
    if phase.tag == "zero":
        return assemble_advection_diffusion(target.domain, None, 1.0), None, 0.0
    if phase.tag == "stabilize":
        return target.relaxation_operator.matrix, None, stabilizing_velocity(target, 1.0).max_abs()
    if phase.tag == "smooth":
        return target.heat_operator.matrix, 1.0, 0.0  # unit gain
    if phase.tag == "gain":
        beta = _feedback_gain(phase.alpha, phase.j)
        return beta * target.heat_operator.matrix, beta, 0.0
    raise PlanError(f"unknown phase tag {phase.tag!r}")


def execute_plan(
    plan: SteeringPlan,
    y0: ScalarField,
    dt: float = 1e-3,
) -> PlanExecution:
    """Run the plan phase by phase, reporting the velocity sup-norm.

    Each phase is marched in steps of at most ``dt`` (see :func:`march`).
    Gain and smoothing phases advance the closed loop through the
    equivalent weighted-heat flow and reconstruct the feedback velocity
    at each step's end state as the boundedness witness.  The witness runs
    once per block of step states from :func:`march`, so a state below the
    positivity floor is reported at most one block late.
    """
    plan.validate()
    target = plan.target
    domain = target.domain
    if y0.domain != domain:
        raise InputError("initial state and plan target live on different grids")

    y = y0.flat
    t = 0.0
    snapshots: list[tuple[float, ScalarField]] = [(0.0, y0.copy())]
    records: list[PhaseRecord] = []
    for phase in plan.phases:
        matrix, beta, max_v = _phase_operator(plan, phase)
        for block in march(matrix, y, phase.duration, dt):
            if beta is not None:
                states = block.reshape(block.shape[:1] + domain.shape)
                faces = _feedback_faces(states, target.a.values, beta, domain)
                max_v = max([max_v] + [float(np.max(np.abs(c))) for c in faces if c.size])
        y = block[-1].copy()  # the snapshot keeps one state, not the block
        t += phase.duration
        state = ScalarField(domain, y)
        diff = ScalarField(domain, state.values - target.f.values)
        records.append(
            PhaseRecord(
                tag=phase.tag,
                j=phase.j,
                duration=phase.duration,
                max_velocity=max_v,
                end_error_l2=l2_norm(diff),
                end_error_weighted=weighted_norm(diff, target.a),
            )
        )
        snapshots.append((t, state))

    return PlanExecution(
        snapshots=snapshots,
        records=records,
        final_error_l2=records[-1].end_error_l2,
        final_error_weighted=records[-1].end_error_weighted,
        max_velocity=max(r.max_velocity for r in records),
    )


def path_following_velocity(
    gamma: ScalarField | Sequence[ScalarField],
    dgamma_dt: ScalarField | Sequence[ScalarField],
) -> FaceField | list[FaceField]:
    """Velocity tracking a prescribed positive density path.

    Solves the zero-flux Poisson problem -lap(phi) = dgamma/dt (the path
    must conserve mass, so the right side has zero mean) and returns the
    face field (grad(gamma) + grad(phi)) / gamma.  Under the centered
    advective flux the discrete closed loop reproduces the path's exact
    time derivative at the path itself.  Sequences of path states and
    rates on one grid give the list of their velocities, from one
    multi-column Poisson solve.
    """
    single = isinstance(gamma, ScalarField)
    gammas = [gamma] if single else list(gamma)
    domain = gammas[0].domain
    g = np.stack([f.values for f in gammas])
    if float(np.min(g)) <= 0:
        raise TargetError(f"path density must be positive, min = {np.min(g):.3e}")
    phis = neumann_poisson_solve([dgamma_dt] if single else dgamma_dt)
    phi = np.stack([p.values for p in phis])
    comps = []
    for axis, h in enumerate(domain.spacing):
        lo = (slice(None),) * (axis + 1) + (slice(None, -1),)
        hi = (slice(None),) * (axis + 1) + (slice(1, None),)
        dg = np.diff(g, axis=axis + 1) / h
        dphi = np.diff(phi, axis=axis + 1) / h
        comps.append((dg + dphi) / (0.5 * (g[lo] + g[hi])))
    velocities = [FaceField(domain, tuple(c[i] for c in comps)) for i in range(len(gammas))]
    return velocities[0] if single else velocities


@dataclasses.dataclass(eq=False)
class PathTrackingResult:
    times: np.ndarray
    errors: np.ndarray  # L2 distance to the prescribed path at each step
    sup_error: float
    max_velocity: float
    final_state: ScalarField


def follow_path(
    gamma: Callable[[float], ScalarField],
    dgamma_dt: Callable[[float], ScalarField],
    t_final: float,
    n_steps: int = 1000,
) -> PathTrackingResult:
    """Track gamma(t) with the path-following law from y0 = gamma(0).

    Uses Crank-Nicolson with the velocity sampled at interval midpoints
    (second order in dt) and the centered advective flux that the law's
    discrete identity is built on; each step is one implicit Euler solve
    of half the step, extrapolated.  The law does not depend on the state,
    so the velocities and reference states of a block of steps (as many
    states as fit in ``BLOCK_BYTES``, like :func:`march`) come from one
    call each; finiteness is checked once per block.
    """
    if not isinstance(n_steps, (int, np.integer)) or n_steps < 1 or not 0 < t_final < math.inf:
        raise InputError(f"need integer n_steps >= 1, finite t_final > 0: {n_steps!r}, {t_final!r}")
    start = gamma(0.0)
    domain = start.domain
    dt = t_final / n_steps
    y = start.flat.copy()
    errors = [np.zeros(1)]
    max_v = 0.0
    rows = max(1, BLOCK_BYTES // y.nbytes)
    for first in range(0, n_steps, rows):
        steps = range(first, min(first + rows, n_steps))
        mids = [(k + 0.5) * dt for k in steps]
        velocities = path_following_velocity(
            [gamma(t) for t in mids], [dgamma_dt(t) for t in mids]
        )
        block = np.empty((len(steps), y.size))
        for row, v in zip(block, velocities):
            max_v = max(max_v, v.max_abs())
            matrix = assemble_advection_diffusion(domain, v, 1.0, "centered")
            # Crank-Nicolson: (I - dt/2 L)^-1 (I + dt/2 L) = 2 (I - dt/2 L)^-1 - I
            y = 2.0 * make_stepper(matrix, 0.5 * dt)(y) - y
            row[...] = y
        _require_finite(block)
        refs = np.stack([gamma((k + 1) * dt).flat for k in steps])
        errors.append(np.sqrt(np.sum((block - refs) ** 2, axis=1) * domain.cell_volume))
    errors = np.concatenate(errors)
    return PathTrackingResult(
        times=np.arange(n_steps + 1) * dt,
        errors=errors,
        sup_error=float(np.max(errors)),
        max_velocity=max_v,
        final_state=ScalarField(domain, y),
    )
