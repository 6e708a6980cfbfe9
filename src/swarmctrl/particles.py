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


def _cell_coordinates(
    domain: RectDomain, positions: np.ndarray
) -> tuple[list[np.ndarray], tuple[np.ndarray, ...]]:
    """Per-axis positions in units of the cell width, and the index of the
    grid cell holding each position; points on the upper boundary belong
    to the last cell."""
    scaled = [positions[:, d] / h for d, h in enumerate(domain.spacing)]
    cells = tuple(
        np.clip(x.astype(np.int64), 0, n - 1) for x, n in zip(scaled, domain.cells)
    )
    return scaled, cells


def _flat_cell_index(domain: RectDomain, positions: np.ndarray) -> np.ndarray:
    """C-order flat index of the grid cell holding each position."""
    idx = 0
    for k, n in zip(_cell_coordinates(domain, positions)[1], domain.cells):
        idx = idx * n + k
    return idx


def _face_tables(
    domain: RectDomain, velocities: Sequence[FaceField | None], n_states: int
) -> list[np.ndarray]:
    """Per axis, the face velocities of every state with zero boundary
    faces appended along the axis, stacked state-major and flattened;
    ``None`` reads as zero velocity."""
    tables = []
    for d in range(domain.dim):
        shape = list(domain.cells)
        shape[d] += 1
        table = np.zeros([n_states] + shape)
        interior = tuple(slice(1, -1) if k == d else slice(None) for k in range(domain.dim))
        for s in range(n_states):
            if velocities[s] is not None:
                table[s][interior] = velocities[s].components[d]
        tables.append(table.reshape(-1))
    return tables


def _switch_tables(
    gains: SpatialGainSet, n_states: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per state, the cumulative outgoing gains in edge order, shape
    (n_states, width, cells), and the destination of each row.

    States with fewer than ``width`` out-edges repeat their last row and
    destination, so row ``width - 1`` is every state's total exit rate.
    """
    out = [[(k, j) for k, (i, j) in enumerate(gains.graph.edges) if i == s]
           for s in range(1, n_states + 1)]
    width = max(1, max(len(edges) for edges in out))
    cum = np.zeros((n_states, width, gains.domain.cell_count))
    dest = np.zeros((n_states, width), dtype=np.int64)
    for s, edges in enumerate(out):
        if edges:
            rows = np.cumsum([gains.gains[k].reshape(-1) for k, _ in edges], axis=0)
            cum[s, : len(edges)] = rows
            cum[s, len(edges):] = rows[-1]
            dest[s, : len(edges)] = [j for _, j in edges]
            dest[s, len(edges):] = edges[-1][1]
    return cum, dest


def _reflect(x: np.ndarray, length: float) -> None:
    """Mirror reflection into [0, length] in place, repeated until inside;
    only the coordinates that left the interval are touched."""
    out = np.flatnonzero((x < 0.0) | (x > length))
    y = x[out]
    while True:
        below = y < 0.0
        above = y > length
        if not (below.any() or above.any()):
            break
        y = np.where(below, -y, y)
        y = np.where(above, 2.0 * length - y, y)
    x[out] = y


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

    Per-state data (padded face velocities, noise scales, cumulative
    gains) go into small tables of size states x cells; each particle
    reads its entries with one flat gather on (state - 1) * stride + cell,
    so a step costs O(particles) whatever the number of states.
    """
    if not 0 < dt < math.inf:
        raise InputError(f"dt must be finite and positive, got {dt}")
    domain = ensemble.domain
    n = ensemble.count
    rng = ensemble.rng
    n_states = len(diffusion)
    if np.any(ensemble.states < 1) or np.any(ensemble.states > n_states):
        raise InputError("particle states out of range")
    if len(velocities) != n_states or any(v is not None and v.domain != domain for v in velocities):
        raise InputError("need one velocity field (or None) per state, on the ensemble's grid")
    if not all(0 <= D < math.inf for D in diffusion):
        raise InputError(f"diffusions must be finite and non-negative, got {list(diffusion)}")
    if gains is not None:
        if gains.graph.n_vertices != n_states or gains.domain.shape != domain.shape:
            raise InputError("gains do not match the states or the grid")
        cum, dest = _switch_tables(gains, n_states)
        totals = cum[:, -1].reshape(-1)
        max_rate = float(totals.max())
        if max_rate * dt > MAX_EXIT_RATE_DT:
            raise StepSizeError(
                f"dt {dt} too large: max exit rate {max_rate:.3g} "
                f"requires dt <= {MAX_EXIT_RATE_DT / max_rate:.3g}"
            )
    sigma_table = np.array([math.sqrt(2.0 * float(D) * dt) for D in diffusion])
    faces = _face_tables(domain, velocities, n_states)

    # fixed draw order keeps trajectories seed-reproducible: the noise,
    # then the two switching uniforms only when switching is on
    noise = rng.standard_normal((n, domain.dim))

    state0 = ensemble.states - 1
    sigma = sigma_table.take(state0)
    scaled, cells = _cell_coordinates(domain, ensemble.positions)
    positions = np.empty_like(ensemble.positions)
    for d, length in enumerate(domain.lengths):
        # flat index of the cell's lower face in the stacked padded table
        lo = state0
        for k, (c, m) in enumerate(zip(cells, domain.cells)):
            lo = lo * (m + (k == d)) + c
        upper = math.prod(domain.cells[d + 1:])
        frac = scaled[d] - cells[d]
        drift = (1.0 - frac) * faces[d].take(lo) + frac * faces[d].take(lo + upper)
        x = ensemble.positions[:, d] + drift * dt + sigma * noise[:, d]
        _reflect(x, length)
        positions[:, d] = x
    ensemble.positions = positions

    if gains is not None:
        u_switch = rng.random(n)
        u_edge = rng.random(n)
        cell = _flat_cell_index(domain, positions)
        total = totals.take(state0 * domain.cell_count + cell)
        fire = np.flatnonzero(u_switch < -np.expm1(-total * dt))
        s = state0[fire]
        pick = u_edge[fire] * total[fire]
        choice = (pick[:, None] >= cum[s, :, cell[fire]]).sum(axis=1)
        new_states = ensemble.states.copy()
        new_states[fire] = dest[s, np.minimum(choice, dest.shape[1] - 1)]
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
