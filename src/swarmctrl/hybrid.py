"""Coupled N-state advection-diffusion-reaction system: splitting solver,
combined steering, spatial-gain stabilization, and spectral certificates.

The splitting is symmetric (half reaction, full transport, half
reaction).  Reaction half-steps are exact per-cell matrix exponentials of
an essentially non-negative matrix, so they preserve positivity and move
mass between states exactly as the rate ODE does; the transport substep
conserves each state's mass.  Total mass is therefore conserved exactly
and the per-state mass vector follows the constant-rate ODE without
splitting error.  The spectral certificate (:func:`coupled_spectrum`) is
taken of the generator whose pieces the split step advances: the same
exponential-fitted transport blocks plus the reaction coupling.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Sequence

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from . import control as ctl
from .ctmc import (
    PiecewiseConstantControl,
    SpectrumReport,
    TransitionGraph,
    generator,
    is_strongly_connected,
    monotone_certificate,
    synthesize_stationary_rates,
    transfer_control,
    transition_matrix,
)
from .errors import (
    ConfigurationError,
    GraphError,
    InputError,
    SynthesisError,
    TargetError,
)
from .grid import (
    FaceField,
    RectDomain,
    ScalarField,
    _generator_spectrum,
    l2_norm,
    mass,
    neumann_laplacian,
)
from .pde import _require_finite, assemble_advection_diffusion, make_stepper, march

__all__ = [
    "StackedDensity",
    "HybridTarget",
    "SpatialGainSet",
    "SplitStepper",
    "mass_trajectory_consistency",
    "MassConsistencyReport",
    "stabilizing_gains",
    "zero_mass_stabilizing_gains",
    "stabilizing_velocities",
    "coupled_spectrum",
    "CoupledSpectrumReport",
    "hybrid_steering_plan",
    "execute_hybrid_plan",
    "HybridPlan",
    "HybridExecution",
]

# eigenvalues coupled_spectrum reports: the zero one, the one setting the gap and two more
SPECTRUM_EIGENVALUES = 4


@dataclasses.dataclass(eq=False)
class StackedDensity:
    """One scalar field per discrete state, sharing a grid."""

    fields: tuple[ScalarField, ...]

    def __post_init__(self):
        if not self.fields:
            raise InputError("need at least one state")
        d = self.fields[0].domain
        if any(f.domain != d for f in self.fields):
            raise InputError("stacked fields live on different grids")
        self.fields = tuple(self.fields)

    @property
    def domain(self) -> RectDomain:
        return self.fields[0].domain

    @property
    def n_states(self) -> int:
        return len(self.fields)

    def mass_vector(self) -> np.ndarray:
        return np.array([mass(f) for f in self.fields])

    def total_mass(self) -> float:
        return float(np.sum(self.mass_vector()))

    def as_array(self) -> np.ndarray:
        """(n_states, n_cells) value matrix."""
        return np.stack([f.flat for f in self.fields])

    @staticmethod
    def from_array(domain: RectDomain, arr: np.ndarray) -> "StackedDensity":
        return StackedDensity(tuple(ScalarField(domain, row) for row in arr))


@dataclasses.dataclass(eq=False)
class HybridTarget(StackedDensity):
    """Per-state target fields; states with zero mass form the off-support
    set that stabilization must drain."""

    support: tuple[int, ...]          # 1-based states with positive mass

    @classmethod
    def create(cls, fields: Sequence[ScalarField]) -> "HybridTarget":
        fields = tuple(fields)
        if not fields:
            raise TargetError("need at least one state")
        if any(f.domain != fields[0].domain for f in fields):
            raise TargetError("target fields live on different grids")
        masses = np.array([mass(f) for f in fields])
        if abs(float(np.sum(masses)) - 1.0) > 1e-9:
            raise TargetError(f"target masses must sum to 1, got {np.sum(masses)!r}")
        if any(np.min(f.values) < 0 for f in fields):
            raise TargetError("target fields must be non-negative")
        support = tuple(i + 1 for i, m in enumerate(masses) if m > 0)
        if not support:
            raise TargetError("target has no supported state")
        for i in support:
            f = fields[i - 1]
            if np.min(f.values) <= 0:
                raise TargetError(
                    f"supported state {i} must be positive cellwise, "
                    f"min = {np.min(f.values):.3e}"
                )
        return cls(fields=fields, support=support)

    def full_support(self) -> bool:
        return len(self.support) == self.n_states


@dataclasses.dataclass(eq=False)
class SpatialGainSet:
    """Cellwise non-negative reaction gain per edge."""

    graph: TransitionGraph
    domain: RectDomain
    gains: tuple[np.ndarray, ...]  # one grid-shaped array per edge

    def __post_init__(self):
        if len(self.gains) != self.graph.n_edges:
            raise InputError("one gain field per edge required")
        arrs = []
        for g in self.gains:
            g = np.asarray(g, dtype=float)
            if g.shape == ():
                g = np.full(self.domain.shape, float(g))
            if g.shape != self.domain.shape:
                raise InputError(f"gain shape {g.shape} does not match grid")
            if np.any(g < 0) or not np.all(np.isfinite(g)):
                raise InputError("gains must be finite and non-negative")
            arrs.append(g)
        self.gains = tuple(arrs)


def _reaction_propagators(
    gains: SpatialGainSet | None,
    dt_half: float,
    n_states: int,
) -> np.ndarray | None:
    """exp(dt_half * sum_e K_e(x) Q_e) per cell, shape (cells, N, N)."""
    if gains is None or dt_half == 0.0:
        return None
    if gains.graph.n_vertices != n_states:
        raise InputError("gain graph does not match the number of states")
    mats = generator(gains.graph, np.stack([g.reshape(-1) for g in gains.gains]))
    return scipy.linalg.expm(dt_half * mats)


class SplitStepper:
    """Prefactorized symmetric splitting step for the coupled system; the
    transport substep is implicit Euler with the exponential-fitted flux.

    Reuse across steps requires fixed velocities, gains, and dt.
    """

    def __init__(
        self,
        domain: RectDomain,
        velocities: Sequence[FaceField | None],
        diffusion: Sequence[float],
        gains: SpatialGainSet | None,
        dt: float,
    ):
        if dt <= 0:
            raise ConfigurationError(f"dt must be positive, got {dt}")
        self.domain = domain
        self.dt = dt
        self.n_states = len(diffusion)
        if len(velocities) != self.n_states:
            raise InputError("one velocity field per state required")
        self._transport = []
        for v, d in zip(velocities, diffusion):
            matrix = assemble_advection_diffusion(domain, v, float(d))
            self._transport.append(make_stepper(matrix, dt))
        self._reaction = _reaction_propagators(gains, 0.5 * dt, self.n_states)

    def _react(self, arr: np.ndarray) -> np.ndarray:
        if self._reaction is None:
            return arr
        # per-cell propagator: (cells, N, N) x (N, cells)
        return np.einsum("cij,jc->ic", self._reaction, arr)

    def step(self, state: StackedDensity) -> StackedDensity:
        arr = state.as_array()
        arr = self._react(arr)
        arr = np.stack([self._transport[k](arr[k]) for k in range(self.n_states)])
        _require_finite(arr)
        arr = self._react(arr)
        return StackedDensity.from_array(self.domain, arr)


@dataclasses.dataclass
class MassConsistencyReport:
    deviations: np.ndarray
    max_deviation: float


def mass_trajectory_consistency(
    times: Sequence[float],
    trajectory: Sequence,
    graph: TransitionGraph,
    rates: Sequence[float],
) -> MassConsistencyReport:
    """Compare per-state masses with the constant-rate ODE solution.

    ``trajectory`` holds either stacked densities or mass vectors.  The
    reference is expm(t * generator) applied to the initial mass vector;
    the report carries the infinity-norm deviation per sample.
    """
    times = np.asarray(times, dtype=float)
    if trajectory and isinstance(trajectory[0], StackedDensity):
        trajectory = [s.mass_vector() for s in trajectory]
    masses = np.asarray(trajectory, dtype=float)
    if masses.shape[0] != times.size:
        raise InputError("one mass vector per sample time required")
    q = generator(graph, rates)
    m0 = masses[0]
    devs = np.empty(times.size)
    for k, t in enumerate(times):
        ref = scipy.linalg.expm((t - times[0]) * q) @ m0
        devs[k] = float(np.max(np.abs(masses[k] - ref)))
    return MassConsistencyReport(deviations=devs, max_deviation=float(np.max(devs)))


def stabilizing_velocities(target: HybridTarget, diffusion: Sequence[float]) -> list[FaceField | None]:
    """Per-state transport law D_k grad(f_k)/f_k; zero off the support."""
    out: list[FaceField | None] = []
    for i, f in enumerate(target.fields, start=1):
        if i in target.support:
            td = ctl.TargetDensity.create(ScalarField(target.domain, f.values / mass(f)))
            out.append(ctl.stabilizing_velocity(td, float(diffusion[i - 1])))
        else:
            out.append(None)
    return out


def stabilizing_gains(
    graph: TransitionGraph,
    target: HybridTarget,
    rates: Sequence[float],
) -> SpatialGainSet:
    """Gains K_e(x) = q_e * m_S(e) / f_S(e)(x) fixing a full-support target.

    The per-edge equilibrium fluxes q_e * m_S(e) form a circulation
    because the rates are stationary for the mass vector, so the reaction
    term vanishes at the stacked target; combined with the per-state
    stabilizing velocities the target is an exact fixed point of the
    splitting flow.
    """
    if not target.full_support():
        raise SynthesisError(
            "target has zero-mass states; use zero_mass_stabilizing_gains"
        )
    rates = np.asarray(rates, dtype=float)
    if rates.shape != (graph.n_edges,):
        raise InputError(f"expected {graph.n_edges} rates")
    masses = target.mass_vector()
    residual = float(np.max(np.abs(generator(graph, rates) @ masses)))
    if residual > 1e-9:
        raise SynthesisError(
            f"rates are not stationary for the target masses (residual {residual:.3e})",
            residual=residual,
        )
    gains = []
    for q_e, (i, _) in zip(rates, graph.edges):
        gains.append(q_e * masses[i - 1] / target.fields[i - 1].values)
    return SpatialGainSet(graph, target.domain, tuple(gains))


def zero_mass_stabilizing_gains(
    graph: TransitionGraph,
    target: HybridTarget,
) -> SpatialGainSet:
    """Gains for a target supported on a strict subset of the states.

    Support-internal edges carry the circulation gains of the restricted
    problem.  Edges leaving the support get zero gain: mass may not flow
    from the support into states that must empty, which is exactly the
    block-triangular structure of the induced mass-flow matrix.  All
    other edges get unit gain, which drives the unsupported states to
    zero exponentially.

    Raises `SynthesisError` (with no residual) when the graph admits no
    such gains: the support's own edges are not strongly connected, or
    some unsupported state has no path to the support, so its mass would
    never drain.
    """
    if target.full_support():
        sub_rates = synthesize_stationary_rates(graph, target.mass_vector())
        return stabilizing_gains(graph, target, sub_rates)
    support = set(target.support)
    sub_vertices = sorted(support)
    drained = set(support)  # states with a path to the support
    frontier = list(support)
    while frontier:
        for i in graph.predecessors[frontier.pop()]:
            if i not in drained:
                drained.add(i)
                frontier.append(i)
    trapped = sorted(set(range(1, graph.n_vertices + 1)) - drained)
    if trapped:
        raise SynthesisError(
            f"zero-mass states {trapped} have no path to the support "
            f"{sub_vertices}, so their mass cannot drain"
        )
    relabel = {v: k + 1 for k, v in enumerate(sub_vertices)}
    sub_edges = [
        (relabel[i], relabel[j]) for (i, j) in graph.edges if i in support and j in support
    ]
    subgraph = TransitionGraph(len(sub_vertices), tuple(sub_edges))
    if not is_strongly_connected(subgraph):
        raise SynthesisError("support subgraph is not strongly connected")
    masses = target.mass_vector()
    sub_mass = np.array([masses[v - 1] for v in sub_vertices])
    # a one-state support has no internal edge: the drain gains alone stabilize it
    sub_rates = (
        synthesize_stationary_rates(subgraph, sub_mass / np.sum(sub_mass)) if sub_edges else ()
    )

    sub_index = {e: k for k, e in enumerate(subgraph.edges)}
    gains = []
    for i, j in graph.edges:
        if i in support and j in support:
            q_e = sub_rates[sub_index[(relabel[i], relabel[j])]]
            gains.append(q_e * masses[i - 1] / target.fields[i - 1].values)
        elif i in support:
            gains.append(np.zeros(target.domain.shape))
        else:
            gains.append(np.ones(target.domain.shape))
    return SpatialGainSet(graph, target.domain, tuple(gains))


@dataclasses.dataclass(eq=False)
class CoupledSpectrumReport(SpectrumReport):
    """Right end of the coupled generator's spectrum.

    ``eigenvalues`` holds ``SPECTRUM_EIGENVALUES`` eigenvalues by decreasing
    real part, the ones nearest a shift just right of zero (the rule and
    when they are the rightmost: ``grid._generator_spectrum``).
    ``max_real_part`` is the first one's real part and ``gap`` minus the
    second one's.
    """

    zero_simple: bool
    zero_vector: np.ndarray  # (n_states, n_cells), unit total mass when defined


def _coupled_generator(
    target: HybridTarget,
    diffusion: Sequence[float],
    gains: SpatialGainSet | None,
) -> sp.csc_matrix:
    """Block generator: on the diagonal, each state's transport generator as
    :class:`SplitStepper` assembles it from :func:`stabilizing_velocities`;
    off it, the cellwise reaction coupling."""
    n_states = target.n_states
    velocities = stabilizing_velocities(target, diffusion)
    blocks = [[None] * n_states for _ in range(n_states)]
    for k, v in enumerate(velocities):
        blocks[k][k] = assemble_advection_diffusion(target.domain, v, float(diffusion[k]))
    if gains is not None:
        for g, (i, j) in zip(gains.gains, gains.graph.edges):
            d = sp.diags(g.reshape(-1))
            blocks[i - 1][i - 1] = blocks[i - 1][i - 1] - d
            prev = blocks[j - 1][i - 1]
            blocks[j - 1][i - 1] = d if prev is None else prev + d
    return sp.bmat(blocks, format="csc")


def coupled_spectrum(
    target: HybridTarget,
    diffusion: Sequence[float],
    gains: SpatialGainSet | None,
) -> CoupledSpectrumReport:
    """``SPECTRUM_EIGENVALUES`` eigenvalues at the right end of the
    assembled coupled generator's spectrum (which ones: see
    :class:`CoupledSpectrumReport`) and the eigenvector of the rightmost.

    The generator is the one the stabilizing split step advances: per
    state, D_i lap - div(v_i .) with the stabilizing velocity
    v_i = D_i grad(f_i)/f_i (zero off the support) and the
    exponential-fitted flux, plus the cellwise reaction coupling.  All real
    parts are non-positive; for a full-support stationary configuration the
    zero eigenvector is the stacked target.  The eigensolve is
    ``grid._generator_spectrum``'s.
    """
    domain = target.domain
    vals, vecs = _generator_spectrum(
        _coupled_generator(target, diffusion, gains), SPECTRUM_EIGENVALUES
    )
    max_real = float(vals[0].real)
    gap = float(-vals[1].real) if vals.size > 1 else 0.0
    zero_simple = vals.size > 1 and gap > 0 and abs(vals[0].real) < 0.5 * gap
    vec = vecs[:, 0].real.copy()
    total = float(np.sum(vec)) * domain.cell_volume
    if abs(total) > 1e-12:
        vec /= total
    return CoupledSpectrumReport(
        eigenvalues=vals,
        max_real_part=max_real,
        gap=gap,
        zero_simple=zero_simple,
        zero_vector=vec.reshape(target.n_states, domain.cell_count),
    )


# ---------------------------------------------------------------------------
# steering


@dataclasses.dataclass(eq=False)
class HybridPlan:
    """Two-stage transfer: rate control moves per-state masses, then
    decoupled velocity steering shapes each state."""

    graph: TransitionGraph
    target: HybridTarget
    t_final: float
    mass_control: PiecewiseConstantControl
    shaping_duration: float
    tolerance: float


@dataclasses.dataclass(eq=False)
class HybridExecution:
    plan: HybridPlan
    switch_state: StackedDensity
    final_state: StackedDensity
    per_state_error_l2: np.ndarray
    max_velocity: float


def hybrid_steering_plan(
    graph: TransitionGraph,
    initial: StackedDensity,
    target: HybridTarget,
    t_final: float,
    tolerance: float,
) -> HybridPlan:
    """Plan: zero velocities with rate transfer on [0, t_f/2], then zero
    rates with per-state steering on (t_f/2, t_f]."""
    if t_final <= 0:
        raise InputError(f"final time must be positive, got {t_final}")
    if not is_strongly_connected(graph):
        raise GraphError(
            "hybrid steering requires a strongly connected graph",
            certificate=monotone_certificate(graph),
        )
    if graph.n_vertices != initial.n_states or graph.n_vertices != target.n_states:
        raise InputError("graph size does not match the number of states")
    if not target.full_support():
        raise InputError("steering target must give every state positive mass")
    if abs(initial.total_mass() - 1.0) > 1e-9:
        raise InputError(f"initial total mass must be 1, got {initial.total_mass()!r}")
    mass_control = transfer_control(
        graph, initial.mass_vector(), target.mass_vector(), 0.5 * t_final
    )
    return HybridPlan(
        graph=graph,
        target=target,
        t_final=t_final,
        mass_control=mass_control,
        shaping_duration=0.5 * t_final,
        tolerance=tolerance,
    )


def execute_hybrid_plan(
    plan: HybridPlan,
    initial: StackedDensity,
    dt: float = 1e-3,
) -> HybridExecution:
    """Stage 1 has unit diffusion, zero velocities and spatially constant
    rates, so transport and reaction commute: it is the heat flow of every
    state, marched as one (cells, n_states) stack, followed by the CTMC
    transition matrix of the mass control.  Both stages march in steps of
    at most ``dt``."""
    domain = initial.domain
    n_states = initial.n_states
    if plan.graph.n_vertices != n_states:
        raise InputError("plan graph does not match the number of states")
    heated = initial.as_array().T
    heat = neumann_laplacian(domain).matrix
    for block in march(heat, heated, plan.shaping_duration, dt):
        pass
    transfer = transition_matrix(plan.mass_control)
    switch_state = StackedDensity.from_array(domain, transfer @ block[-1].T)

    # stage 2: zero rates, per-state steering on normalized fields
    target_masses = plan.target.mass_vector()
    final_fields = []
    max_velocity = 0.0
    per_state_tol = plan.tolerance / math.sqrt(n_states)
    for k in range(n_states):
        m_k = target_masses[k]
        norm_target = ctl.TargetDensity.create(
            ScalarField(domain, plan.target.fields[k].values / m_k)
        )
        y_k = switch_state.fields[k].values / m_k
        y_k = np.maximum(y_k, 0.0)  # clip roundoff-level negatives
        y_field = ScalarField(domain, y_k / (np.sum(y_k) * domain.cell_volume))
        sub_plan = ctl.synthesize_steering_plan(
            y_field, norm_target, plan.shaping_duration, per_state_tol
        )
        run = ctl.execute_plan(sub_plan, y_field, dt)
        max_velocity = max(max_velocity, run.max_velocity)
        final_fields.append(ScalarField(domain, run.final_state.values * m_k))
    final = StackedDensity(tuple(final_fields))
    errors = np.array(
        [
            l2_norm(ScalarField(domain, f.values - g.values))
            for f, g in zip(final.fields, plan.target.fields)
        ]
    )
    return HybridExecution(
        plan=plan,
        switch_state=switch_state,
        final_state=final,
        per_state_error_l2=errors,
        max_velocity=max_velocity,
    )
