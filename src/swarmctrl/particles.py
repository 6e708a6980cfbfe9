"""Monte Carlo simulation of the reflected switching diffusion.

Positions follow Euler-Maruyama with per-state drift and diffusion;
boundary confinement uses coordinatewise mirror reflection; the discrete
state switches with at most one switch per step, found by thinning
(Lewis & Shedler 1979): Bernoulli(p_max) candidates, each kept with
probability p / p_max.  The random stream is a seeded counter-based
generator (Philox), so identical seeds reproduce trajectories bit for bit.

Draw contract of one `sde_step` on n particles, in this order:

1. the noise, ``standard_normal`` of shape (n, dim);
2. when switching is on and n * p_max > 0, the geometric gaps between
   Bernoulli(p_max) successes, in chunks of floor(n p + 4 sqrt(n p)) + 8
   until one chunk passes n (see `_bernoulli_indices`);
3. one acceptance uniform per candidate, in index order;
4. one edge uniform per accepted candidate, in index order.

p_max is the largest 1 - exp(-R dt) over the state x cell table of total
exit rates R; the `MAX_EXIT_RATE_DT` guard keeps it at most
1 - exp(-0.1) < 0.0952.  With p_max = 0 a step draws nothing after the
noise.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Sequence

import numpy as np

from .errors import InputError, NumericalError, StepSizeError
from .grid import FaceField, RectDomain
from .hybrid import SpatialGainSet, StackedDensity

__all__ = [
    "ParticleEnsemble",
    "EmpiricalDensity",
    "sde_step",
    "empirical_density",
]

MAX_EXIT_RATE_DT = 0.1
# mirror folds per step before the closed form with period 2*length takes
# over; an excursion of k lengths needs about k folds
MAX_REFLECT_ROUNDS = 64


class _StepWorkspace:
    """Scratch arrays of one ensemble's particle step, reused while the
    ensemble's count and dimension stay the same."""

    def __init__(self, count: int, dim: int):
        self.shape = (count, dim)
        self.noise = np.empty((count, dim))
        self.frac = np.empty((dim, count))  # positions in cell widths, then in-cell fractions
        self.cells = np.empty((dim, count), dtype=np.int64)
        self.weight = np.empty(count)
        self.value = np.empty(count)
        self.index = np.empty(count, dtype=np.int64)
        self.state0 = np.empty(count, dtype=np.int64)
        self.mask = np.empty(count, dtype=bool)  # the reflection's scratch


@dataclasses.dataclass(eq=False)
class ParticleEnsemble:
    """Positions in the closed box and 1-based discrete states."""

    domain: RectDomain
    positions: np.ndarray  # (n, dim)
    states: np.ndarray     # (n,), values in 1..n_states
    rng: np.random.Generator
    _work: _StepWorkspace | None = dataclasses.field(
        default=None, init=False, repr=False, compare=False
    )

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

    def _workspace(self) -> _StepWorkspace:
        """The step's scratch arrays, rebuilt when count or dimension changed."""
        if self._work is None or self._work.shape != self.positions.shape:
            self._work = _StepWorkspace(*self.positions.shape)
        return self._work


def _locate(
    domain: RectDomain, positions: np.ndarray, frac: np.ndarray, cells: np.ndarray
) -> None:
    """Fill ``cells`` (dim, n) with the per-axis index of the grid cell
    holding each position, points on the upper boundary belonging to the
    last cell, and ``frac`` (dim, n) with the position in cell widths
    minus that index."""
    for d, (h, n) in enumerate(zip(domain.spacing, domain.cells)):
        np.divide(positions[:, d], h, out=frac[d])
        np.copyto(cells[d], frac[d], casting="unsafe")
        np.clip(cells[d], 0, n - 1, out=cells[d])
        np.subtract(frac[d], cells[d], out=frac[d])


def _flat_cell_index(domain: RectDomain, positions: np.ndarray) -> np.ndarray:
    """C-order flat index of the grid cell holding each position, points
    on the upper boundary belonging to the last cell."""
    cell = np.zeros(len(positions), dtype=np.int64)
    for d, (h, n) in enumerate(zip(domain.spacing, domain.cells)):
        k = np.clip((positions[:, d] / h).astype(np.int64), 0, n - 1)
        cell = cell * n + k
    return cell


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


def _bernoulli_indices(rng: np.random.Generator, n: int, p: float) -> np.ndarray:
    """Sorted indices of the successes of n independent Bernoulli(p) trials.

    The gaps between successes are geometric, drawn in chunks of
    floor(n p + 4 sqrt(n p)) + 8 until one chunk passes n, so the draws and
    the memory are O(n p), not O(n).  Each gap is clipped to n + 1 before
    the cumulative sum: a clipped gap still passes n from any start, and
    the sum, below (chunk + 1) * (n + 1), cannot wrap for any n under 2**31
    (at p = 1e-300 numpy returns gaps of INT64_MAX).  Draws nothing when
    n * p = 0.
    """
    if n == 0 or p <= 0.0:
        return np.empty(0, dtype=np.int64)
    mean = n * p
    chunk = int(mean + 4.0 * math.sqrt(mean)) + 8
    parts = []
    last = -1  # index of the last success so far
    while last < n:
        gaps = rng.geometric(p, size=chunk)
        np.minimum(gaps, n + 1, out=gaps)
        gaps[0] += last
        last = int(np.cumsum(gaps, out=gaps)[-1])
        parts.append(gaps)
    idx = parts[0] if len(parts) == 1 else np.concatenate(parts)
    return idx[: np.searchsorted(idx, n)]


def _reflect(x: np.ndarray, length: float, mask: np.ndarray | None = None) -> None:
    """Mirror reflection into [0, length] in place; only the coordinates
    that left the interval are touched.

    Each round folds once at the crossed wall.  Points still outside after
    `MAX_REFLECT_ROUNDS` rounds take the closed form (x mod 2 * length,
    mirrored in its upper half), so the work is bounded whatever the
    excursion.  ``mask``, a boolean array shaped like ``x``, is scratch
    space.  Raises `NumericalError` for non-finite coordinates.
    """
    lo = x.min(initial=math.inf)
    hi = x.max(initial=-math.inf)
    if lo >= 0.0 and hi <= length:
        return
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise NumericalError("particle positions are not finite")
    if mask is None:
        mask = np.empty(x.shape, dtype=bool)
    out = np.concatenate((
        np.flatnonzero(np.less(x, 0.0, out=mask)),
        np.flatnonzero(np.greater(x, length, out=mask)),
    ))
    y = x[out]
    for _ in range(MAX_REFLECT_ROUNDS):
        below = y < 0.0
        above = y > length
        if not (below.any() or above.any()):
            break
        y = np.where(below, -y, y)
        y = np.where(above, 2.0 * length - y, y)
    else:
        # the points still outside take the closed form of their unfolded value
        r = np.mod(x[out], 2.0 * length)
        r = np.where(r > length, 2.0 * length - r, r)
        y = np.where((y < 0.0) | (y > length), r, y)
    x[out] = y


def sde_step(
    ensemble: ParticleEnsemble,
    velocities: Sequence[FaceField | None],
    diffusion: Sequence[float],
    gains: SpatialGainSet | None,
    dt: float,
) -> ParticleEnsemble:
    """Advance the ensemble by one step in place and return it.

    ``ensemble.positions`` and ``ensemble.states`` are updated in place, so
    an array a caller holds (for instance the one passed to
    `ParticleEnsemble`) sees the step.  The step works in scratch arrays the
    ensemble keeps between steps (rebuilt when its count or dimension
    changes), so after the first step it allocates nothing of size
    ``count``.  After a `NumericalError` (non-finite positions) the
    ensemble is partly advanced.

    Drift and noise use the particle's current state; switching fires at
    most once per particle with total-rate probability p = 1 - exp(-R dt),
    R the total exit rate at the particle's new position, and the
    destination edge drawn proportionally to its gain there.  The guard
    R*dt <= 0.1 keeps the single-switch error below Monte Carlo noise.

    Per-state data (padded face velocities, noise scales, switching
    probabilities, cumulative gains) go into small tables of size
    states x cells; each particle reads its drift and noise scale with one
    flat gather on (state - 1) * stride + cell, so drift and noise cost
    O(particles) whatever the number of states.  Switching is exact
    thinning: Bernoulli(p_max) candidates, p_max the table's largest p,
    each accepted with probability p / p_max, so the cell lookup and the
    switching gathers run on about particles * p_max candidates only.
    The random draws follow the module's draw contract.
    """
    if not 0 < dt < math.inf:
        raise InputError(f"dt must be finite and positive, got {dt}")
    domain = ensemble.domain
    rng = ensemble.rng
    n_states = len(diffusion)
    states = ensemble.states
    if ensemble.count and (states.min() < 1 or states.max() > n_states):
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

    # every index gathered below is in range (states checked, cells
    # clipped), so take() runs in mode "clip", which writes straight into
    # its output; mode "raise" buffers it
    work = ensemble._workspace()
    positions, noise, frac, cells = ensemble.positions, work.noise, work.frac, work.cells
    state0, index, weight, value = work.state0, work.index, work.weight, work.value

    # the draw order is the module's draw contract: noise first
    rng.standard_normal(out=noise)
    np.subtract(states, 1, out=state0)
    # sigma * noise, folded into the noise (multiplication commutes)
    sigma_table.take(state0, out=weight, mode="clip")
    for d in range(domain.dim):
        np.multiply(noise[:, d], weight, out=noise[:, d])
    _locate(domain, positions, frac, cells)
    for d, length in enumerate(domain.lengths):
        # flat index of the cell's lower face in the stacked padded table
        lo = state0
        for k, m in enumerate(domain.cells):
            lo = np.multiply(lo, m + (k == d), out=index)
            np.add(lo, cells[k], out=lo)
        upper = math.prod(domain.cells[d + 1:])
        # drift = (1 - frac) * lower face + frac * upper face
        drift = np.subtract(1.0, frac[d], out=weight)
        np.multiply(drift, faces[d].take(lo, out=value, mode="clip"), out=drift)
        np.add(lo, upper, out=lo)
        np.multiply(frac[d], faces[d].take(lo, out=value, mode="clip"), out=value)
        np.add(drift, value, out=drift)
        # x + drift * dt + sigma * noise
        np.multiply(drift, dt, out=drift)
        x = positions[:, d]
        np.add(x, drift, out=x)
        np.add(x, noise[:, d], out=x)
        _reflect(x, length, work.mask)

    if gains is not None:
        # exact thinning: Bernoulli(p_max) candidates, each kept with
        # probability p / p_max at its row of the state x cell tables
        p_table = -np.expm1(-totals * dt)
        p_max = float(p_table.max())
        cand = _bernoulli_indices(rng, ensemble.count, p_max)
        s = state0[cand]
        cell = _flat_cell_index(domain, positions[cand])
        key = s * domain.cell_count + cell
        keep = rng.random(cand.size) * p_max < p_table[key]
        fire, s, cell, key = cand[keep], s[keep], cell[keep], key[keep]
        pick = rng.random(fire.size) * totals[key]
        choice = (pick[:, None] >= cum[s, :, cell]).sum(axis=1)
        states[fire] = dest[s, np.minimum(choice, dest.shape[1] - 1)]
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
