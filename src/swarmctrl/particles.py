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
        self.value = np.empty(count)  # gathered table entries
        self.key = np.empty(count, dtype=np.int64)  # flat (state, cell) index
        self.cell = np.empty(count, dtype=np.int64)  # one axis's cell index
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
            if not np.all((0 <= x) & (x <= length)):
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


def _flat_keys(
    domain: RectDomain,
    states: np.ndarray,
    positions: np.ndarray,
    rows: np.ndarray | slice = slice(None),
) -> np.ndarray:
    """(state - 1) * cell_count + C-order flat index of the grid cell
    holding each position, for the particles ``rows``; points on the upper
    boundary belong to the last cell."""
    key = states[rows] - 1
    for d, (h, n) in enumerate(zip(domain.spacing, domain.cells)):
        cell = (positions[rows, d] / h).astype(np.int64)
        key *= n
        key += np.clip(cell, 0, n - 1, out=cell)
    return key


def _affine_tables(
    domain: RectDomain,
    velocities: Sequence[FaceField | None],
    n_states: int,
    dt: float,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per axis, the drift step x + dt * v(x) of every (state, cell) as the
    affine map x * scale + shift, flattened state-major in C order.

    v interpolates linearly between the cell's lower and upper face
    velocities v_lo and v_hi (boundary faces zero, ``None`` reads as zero
    velocity), so with h the spacing and x_lo the lower face,
    scale = 1 + dt * (v_hi - v_lo) / h and
    shift = dt * v_lo - (scale - 1) * x_lo.
    """
    tables = []
    for d, (h, m) in enumerate(zip(domain.spacing, domain.cells)):
        shape = list(domain.cells)
        shape[d] += 1
        faces = np.zeros([n_states] + shape)
        interior = tuple(slice(1, -1) if k == d else slice(None) for k in range(domain.dim))
        for s in range(n_states):
            if velocities[s] is not None:
                faces[s][interior] = velocities[s].components[d]
        lower = np.arange(m)
        v_lo = faces.take(lower, axis=d + 1)
        v_hi = faces.take(lower + 1, axis=d + 1)
        x_lo = (lower * h).reshape([m if k == d else 1 for k in range(domain.dim)])
        scale = 1.0 + dt * (v_hi - v_lo) / h
        shift = dt * v_lo - (scale - 1.0) * x_lo
        tables.append((scale.reshape(-1), shift.reshape(-1)))
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

    Per-state data go into small tables of size states x cells: along
    each axis the drift step x + dt * v(x) is affine on a cell, so every
    (state, cell) stores its map x * scale + shift (see `_affine_tables`)
    and its noise scale.  One flat key (state - 1) * cells + C-order cell
    is computed once per step; each axis then costs two gathers on it, a
    multiply and two adds, so drift and noise cost O(particles) whatever
    the number of states.  Switching is exact thinning: Bernoulli(p_max)
    candidates, p_max the table's largest p, each accepted with
    probability p / p_max, so the cell lookup and the switching gathers
    run on about particles * p_max candidates only.  The random draws
    follow the module's draw contract.
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
    sigma = np.array([math.sqrt(2.0 * float(D) * dt) for D in diffusion])
    steps = _affine_tables(domain, velocities, n_states, dt)

    # every index gathered below is in range (states checked, cells
    # clipped), so take() runs in mode "clip", which writes straight into
    # its output; mode "raise" buffers it
    work = ensemble._workspace()
    positions, noise, value = ensemble.positions, work.noise, work.value

    # the draw order is the module's draw contract: noise first
    rng.standard_normal(out=noise)
    # the flat key (state - 1) * cells + C-order cell, by Horner's rule;
    # with one state the first axis's cell index starts it
    key = np.subtract(states, 1, out=work.key) if n_states > 1 else None
    for d, (h, m) in enumerate(zip(domain.spacing, domain.cells)):
        cell = work.key if key is None else work.cell
        np.divide(positions[:, d], h, out=value)
        # clipped before the cast: numpy clips float64 about twice as fast
        # as int64, and both orders give a finite position the same index
        np.clip(value, 0, m - 1, out=value)
        np.copyto(cell, value, casting="unsafe")
        if key is None:
            key = cell
        else:
            np.multiply(key, m, out=key)
            np.add(key, cell, out=key)
    # sigma * noise, folded into the noise (multiplication commutes)
    if n_states == 1:
        np.multiply(noise, sigma[0], out=noise)
    else:
        np.repeat(sigma, domain.cell_count).take(key, out=value, mode="clip")
        np.multiply(noise, value[:, None], out=noise)
    for d, length in enumerate(domain.lengths):
        # x * scale + shift + sigma * noise
        scale, shift = steps[d]
        x = positions[:, d]
        np.multiply(x, scale.take(key, out=value, mode="clip"), out=x)
        np.add(x, shift.take(key, out=value, mode="clip"), out=x)
        np.add(x, noise[:, d], out=x)
        _reflect(x, length, work.mask)

    if gains is not None:
        # exact thinning: Bernoulli(p_max) candidates, each kept with
        # probability p / p_max at its row of the state x cell tables
        p_table = -np.expm1(-totals * dt)
        p_max = float(p_table.max())
        cand = _bernoulli_indices(rng, ensemble.count, p_max)
        key = _flat_keys(domain, states, positions, cand)
        keep = rng.random(cand.size) * p_max < p_table[key]
        fire, key = cand[keep], key[keep]
        s, cell = np.divmod(key, domain.cell_count)
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
    keys = _flat_keys(grid, ensemble.states, ensemble.positions)
    counts = np.bincount(keys, minlength=n_states * grid.cell_count)
    norm = ensemble.count * grid.cell_volume
    arr = counts.reshape(n_states, grid.cell_count).astype(float) / norm
    return EmpiricalDensity(
        density=StackedDensity.from_array(grid, arr), count=ensemble.count
    )
