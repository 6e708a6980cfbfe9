"""Monte Carlo simulation of the reflected switching diffusion.

Positions follow Euler-Maruyama with per-state drift and diffusion;
boundary confinement uses coordinatewise mirror reflection; the discrete
state switches by thinning with at most one switch per step.  The random
stream is a seeded counter-based generator (Philox), so identical seeds
reproduce trajectories bit for bit and the draw order stays fixed even
though particles are otherwise independent.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Sequence

import numpy as np

from .errors import InputError, StepSizeError
from .grid import FaceField, RectDomain
from .hybrid import SpatialGainSet, StackedDensity

__all__ = [
    "ParticleEnsemble",
    "EmpiricalDensity",
    "sde_step",
    "empirical_density",
]

MAX_EXIT_RATE_DT = 0.1


@dataclasses.dataclass(eq=False)
class ParticleEnsemble:
    """Positions in the closed box and 1-based discrete states."""

    domain: RectDomain
    positions: np.ndarray  # (n, dim)
    states: np.ndarray     # (n,), values in 1..n_states
    rng: np.random.Generator

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=float)
        self.states = np.asarray(self.states, dtype=np.int64)
        if self.positions.ndim != 2 or self.positions.shape[1] != self.domain.dim:
            raise InputError(
                f"positions must have shape (n, {self.domain.dim})"
            )
        if self.states.shape != (self.positions.shape[0],):
            raise InputError("one state per particle required")
        for d, length in enumerate(self.domain.lengths):
            x = self.positions[:, d]
            if np.any(x < 0) or np.any(x > length):
                raise InputError(f"positions leave the domain along axis {d}")

    @classmethod
    def uniform(
        cls,
        domain: RectDomain,
        count: int,
        state: int = 1,
        seed: int = 0,
    ) -> "ParticleEnsemble":
        rng = np.random.Generator(np.random.Philox(seed))
        pos = np.column_stack(
            [rng.uniform(0.0, length, size=count) for length in domain.lengths]
        )
        return cls(domain, pos, np.full(count, state, dtype=np.int64), rng)

    @property
    def count(self) -> int:
        return self.positions.shape[0]

    def cell_indices(self) -> np.ndarray:
        """Flat grid cell index of each particle."""
        return _flat_cell_index(self.domain, self.positions)


def _cell_coordinates(domain: RectDomain, positions: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per-axis index of the grid cell holding each position; points on
    the upper boundary belong to the last cell."""
    return tuple(
        np.clip((positions[:, d] / h).astype(np.int64), 0, n - 1)
        for d, (h, n) in enumerate(zip(domain.spacing, domain.cells))
    )


def _flat_cell_index(domain: RectDomain, positions: np.ndarray) -> np.ndarray:
    """C-order flat index of the grid cell holding each position."""
    idx = 0
    for k, n in zip(_cell_coordinates(domain, positions), domain.cells):
        idx = idx * n + k
    return idx


def _padded_faces(domain: RectDomain, field: FaceField, axis: int) -> np.ndarray:
    """Face values with zero boundary faces appended along the axis."""
    comp = field.components[axis]
    pad = [(0, 0)] * domain.dim
    pad[axis] = (1, 1)
    return np.pad(comp, pad)


def _velocity_at(
    domain: RectDomain, field: FaceField, positions: np.ndarray
) -> np.ndarray:
    """Linear interpolation of face velocities within each cell."""
    out = np.zeros_like(positions)
    cell = _cell_coordinates(domain, positions)
    frac = [positions[:, d] / h - cell[d] for d, h in enumerate(domain.spacing)]
    for d in range(domain.dim):
        faces = _padded_faces(domain, field, d)
        lo_idx = list(cell)
        hi_idx = list(cell)
        hi_idx[d] = cell[d] + 1
        v_lo = faces[tuple(lo_idx)]
        v_hi = faces[tuple(hi_idx)]
        out[:, d] = (1.0 - frac[d]) * v_lo + frac[d] * v_hi
    return out


def _reflect(domain: RectDomain, positions: np.ndarray) -> np.ndarray:
    """Coordinatewise mirror reflection, repeated until inside."""
    for d, length in enumerate(domain.lengths):
        x = positions[:, d]
        while True:
            below = x < 0.0
            above = x > length
            if not (below.any() or above.any()):
                break
            x = np.where(below, -x, x)
            x = np.where(above, 2.0 * length - x, x)
        positions[:, d] = x
    return positions


def sde_step(
    ensemble: ParticleEnsemble,
    velocities: Sequence[FaceField | None],
    diffusion: Sequence[float],
    gains: SpatialGainSet | None,
    dt: float,
) -> ParticleEnsemble:
    """Advance the ensemble by one step (in place; returns the ensemble).

    Drift and noise use the particle's current state; switching fires at
    most once per particle with total-rate probability 1 - exp(-R dt) and
    the destination edge drawn proportionally to its gain at the particle
    position.  The guard R*dt <= 0.1 keeps the single-switch error below
    Monte Carlo noise.
    """
    if dt <= 0:
        raise InputError(f"dt must be positive, got {dt}")
    domain = ensemble.domain
    n = ensemble.count
    rng = ensemble.rng
    n_states = len(diffusion)
    if np.any(ensemble.states < 1) or np.any(ensemble.states > n_states):
        raise InputError("particle states out of range")
    if gains is not None and gains.max_total_exit_rate() * dt > MAX_EXIT_RATE_DT:
        raise StepSizeError(
            f"dt {dt} too large: max exit rate {gains.max_total_exit_rate():.3g} "
            f"requires dt <= {MAX_EXIT_RATE_DT / gains.max_total_exit_rate():.3g}"
        )

    # fixed draw order keeps trajectories seed-reproducible: the noise,
    # then the two switching uniforms only when switching is on
    noise = rng.standard_normal((n, domain.dim))

    drift = np.zeros((n, domain.dim))
    sigma = np.zeros(n)
    for s in range(1, n_states + 1):
        sel = ensemble.states == s
        if not sel.any():
            continue
        v = velocities[s - 1]
        if v is not None:
            drift[sel] = _velocity_at(domain, v, ensemble.positions[sel])
        sigma[sel] = math.sqrt(2.0 * float(diffusion[s - 1]) * dt)
    ensemble.positions = _reflect(
        domain, ensemble.positions + drift * dt + sigma[:, None] * noise
    )

    if gains is not None:
        u_switch = rng.random(n)
        u_edge = rng.random(n)
        cells = ensemble.cell_indices()
        new_states = ensemble.states.copy()
        for s in range(1, n_states + 1):
            sel = np.flatnonzero(ensemble.states == s)
            if sel.size == 0:
                continue
            out_edges = [
                (k, j) for k, (i, j) in enumerate(gains.graph.edges) if i == s
            ]
            if not out_edges:
                continue
            rate_rows = np.stack(
                [gains.gains[k].reshape(-1)[cells[sel]] for k, _ in out_edges]
            )
            total = rate_rows.sum(axis=0)
            p_switch = -np.expm1(-total * dt)
            fire = u_switch[sel] < p_switch
            if not fire.any():
                continue
            cum = np.cumsum(rate_rows, axis=0)
            pick = u_edge[sel][None, :] * total[None, :]
            choice = (pick >= cum).sum(axis=0)
            choice = np.minimum(choice, len(out_edges) - 1)
            targets = np.array([j for _, j in out_edges], dtype=np.int64)
            new_states[sel[fire]] = targets[choice[fire]]
        ensemble.states = new_states
    return ensemble


@dataclasses.dataclass(eq=False)
class EmpiricalDensity:
    """Per-state histogram normalized to unit total mass."""

    density: StackedDensity
    count: int

    @property
    def domain(self) -> RectDomain:
        return self.density.domain


def empirical_density(
    ensemble: ParticleEnsemble, grid: RectDomain, n_states: int
) -> EmpiricalDensity:
    """Histogram the ensemble on the grid cells, one field per state."""
    if grid.dim != ensemble.domain.dim:
        raise InputError("grid dimension does not match the ensemble")
    combined = (ensemble.states - 1) * grid.cell_count + _flat_cell_index(grid, ensemble.positions)
    counts = np.bincount(combined, minlength=n_states * grid.cell_count)
    norm = ensemble.count * grid.cell_volume
    arr = counts.reshape(n_states, grid.cell_count).astype(float) / norm
    return EmpiricalDensity(
        density=StackedDensity.from_array(grid, arr), count=ensemble.count
    )
