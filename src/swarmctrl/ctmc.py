"""Finite-state transfer machinery: rate generators, strong connectivity
and its monotone certificates, exact local and global simplex transfers
with piecewise-constant non-negative rates, and stationary-rate synthesis.

Vertices are labeled 1..N (matching the edge-list file format); matrices
and probability vectors are indexed 0-based.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from collections import deque
from typing import Container, Sequence

import numpy as np
import scipy.linalg

from .errors import (
    CertificateError,
    GraphError,
    InputError,
    InteriorityError,
    StepSizeError,
    SynthesisError,
)

__all__ = [
    "TransitionGraph",
    "PiecewiseConstantControl",
    "LocalStepCertificate",
    "MonotoneCertificate",
    "SpectrumReport",
    "generator",
    "is_strongly_connected",
    "monotone_certificate",
    "find_covering_closed_walk",
    "validate_covering_closed_walk",
    "local_step_control",
    "breakpoint_states",
    "propagate",
    "transition_matrix",
    "transfer_control",
    "synthesize_stationary_rates",
    "spectrum_check",
    "validate_distribution",
    "is_interior",
    "read_edge_list",
]

Edge = tuple[int, int]

MIN_RATE = 1e-3     # smallest stationary rate on a graph that is not bidirected


@dataclasses.dataclass(frozen=True)
class TransitionGraph:
    """Directed graph on vertices 1..n_vertices with no self-loops."""

    n_vertices: int
    edges: tuple[Edge, ...]

    def __post_init__(self):
        if self.n_vertices < 1:
            raise GraphError(f"need at least one vertex, got {self.n_vertices}")
        seen = set()
        for e in self.edges:
            i, j = e
            if not (1 <= i <= self.n_vertices and 1 <= j <= self.n_vertices):
                raise GraphError(f"edge {e} out of vertex range 1..{self.n_vertices}")
            if i == j:
                raise GraphError(f"self-loop {e} not allowed")
            if e in seen:
                raise GraphError(f"duplicate edge {e}")
            seen.add(e)
        object.__setattr__(self, "edges", tuple((int(i), int(j)) for i, j in self.edges))

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @functools.cached_property
    def edge_index(self) -> dict[Edge, int]:
        return {e: k for k, e in enumerate(self.edges)}

    @functools.cached_property
    def successors(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {v: [] for v in range(1, self.n_vertices + 1)}
        for i, j in self.edges:
            out[i].append(j)
        return out

    @functools.cached_property
    def predecessors(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {v: [] for v in range(1, self.n_vertices + 1)}
        for i, j in self.edges:
            out[j].append(i)
        return out

    def is_bidirected(self) -> bool:
        edge_set = set(self.edges)
        return all((j, i) in edge_set for i, j in self.edges)


def generator(graph: TransitionGraph, rates: Sequence[float]) -> np.ndarray:
    """Sum of per-edge matrices weighted by the given rates.

    Rates of shape (n_edges,) give one (N, N) generator; per-cell rates of
    shape (n_edges, n_cells) give one generator per cell, (n_cells, N, N).
    """
    rates = np.asarray(rates, dtype=float)
    if rates.ndim not in (1, 2) or rates.shape[0] != graph.n_edges:
        raise InputError(
            f"expected {graph.n_edges} rates, or ({graph.n_edges}, n_cells) per-cell "
            f"rates, got shape {rates.shape}"
        )
    if np.any(rates < 0) or not np.all(np.isfinite(rates)):
        raise InputError("rates must be finite and non-negative")
    q = np.zeros(rates.shape[1:] + (graph.n_vertices, graph.n_vertices))
    # explicit slices, not an Ellipsis: a scalar index keeps the
    # single-generator updates on numpy's fast scalar path
    cells = (slice(None),) * (rates.ndim - 1)
    for rate, (i, j) in zip(rates, graph.edges):
        q[cells + (i - 1, i - 1)] -= rate
        q[cells + (j - 1, i - 1)] += rate
    return q


def validate_distribution(mu: np.ndarray) -> np.ndarray:
    mu = np.asarray(mu, dtype=float)
    if mu.ndim != 1:
        raise InputError("distribution must be a 1D vector")
    if not np.all(np.isfinite(mu)):
        raise InputError(f"distribution has non-finite entries: {mu}")
    if np.any(mu < -1e-12):
        raise InputError(f"distribution has negative entries, min = {np.min(mu):.3e}")
    if abs(float(np.sum(mu)) - 1.0) > 1e-12:
        raise InputError(f"distribution must sum to 1, got {np.sum(mu)!r}")
    return mu


def is_interior(mu: np.ndarray) -> bool:
    return bool(np.min(np.asarray(mu, dtype=float)) > 0)


# ---------------------------------------------------------------------------
# connectivity


def _bfs(
    adjacency: dict[int, list[int]], start: int, goal: Container[int] = frozenset()
) -> dict[int, int]:
    """Breadth-first parent map from ``start`` (mapped to 0) over
    ``graph.successors`` or ``graph.predecessors``; the search stops at the
    first vertex it finds in ``goal``, which is then the map's last key."""
    parent = {start: 0}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for w in adjacency[v]:
            if w not in parent:
                parent[w] = v
                if w in goal:
                    return parent
                queue.append(w)
    return parent


def _path(parent: dict[int, int], goal: int) -> list[Edge]:
    """Edge list from the search start to ``goal`` along a parent map."""
    path = []
    while parent[goal]:
        path.append((parent[goal], goal))
        goal = parent[goal]
    return path[::-1]


def is_strongly_connected(graph: TransitionGraph) -> bool:
    """Every vertex is reachable from vertex 1 and reaches it."""
    n = graph.n_vertices
    return len(_bfs(graph.successors, 1)) == n and len(_bfs(graph.predecessors, 1)) == n


@dataclasses.dataclass(frozen=True)
class MonotoneCertificate:
    """Obstruction to controllability on a non-strongly-connected graph.

    ``sink_set`` is forward invariant (no edge leaves it) and
    ``source_set`` backward invariant (no edge enters it), so the output
    ``sum(mu over sink_set) - sum(mu over source_set)`` is nondecreasing
    along every trajectory with non-negative rates.
    """

    source_set: frozenset[int]
    sink_set: frozenset[int]

    def value(self, mu: np.ndarray) -> float:
        mu = np.asarray(mu, dtype=float)
        return float(
            sum(mu[v - 1] for v in self.sink_set)
            - sum(mu[v - 1] for v in self.source_set)
        )


def monotone_certificate(graph: TransitionGraph) -> MonotoneCertificate:
    """Produce the nondecreasing output functional for a non-SC graph.

    Pick v1, v2 with no directed path v2 -> v1: the smallest vertex that
    vertex 1 cannot reach with v2 = 1, else v1 = 1 with the smallest vertex
    that cannot reach 1.  The vertices that reach v1 and those reached
    from v2 are then disjoint, since a common one would join v2 to v1.
    """
    vertices = set(range(1, graph.n_vertices + 1))
    unreached = vertices - _bfs(graph.successors, 1).keys()
    if unreached:
        v1, v2 = min(unreached), 1
    else:
        unreaching = vertices - _bfs(graph.predecessors, 1).keys()
        if not unreaching:
            raise CertificateError("graph is strongly connected; no obstruction exists")
        v1, v2 = 1, min(unreaching)
    return MonotoneCertificate(
        frozenset(_bfs(graph.predecessors, v1)), frozenset(_bfs(graph.successors, v2))
    )


def find_covering_closed_walk(graph: TransitionGraph, v0: int) -> list[Edge]:
    """Closed walk from v0 visiting every vertex; length at most N(N-1).

    Greedy construction: repeatedly stitch in a shortest path to the
    nearest unvisited vertex, then return to v0.
    """
    if not (1 <= v0 <= graph.n_vertices):
        raise GraphError(f"vertex {v0} out of range")
    if not is_strongly_connected(graph):
        raise GraphError("covering closed walk requires a strongly connected graph")
    if graph.n_vertices == 1:
        raise GraphError("single-vertex graph admits no closed walk without self-loops")
    walk: list[Edge] = []
    current = v0
    unvisited = set(range(1, graph.n_vertices + 1)) - {v0}
    while unvisited:
        parent = _bfs(graph.successors, current, unvisited)
        found = next(reversed(parent))
        for e in _path(parent, found):
            walk.append(e)
            unvisited.discard(e[1])
        current = found
    walk.extend(_path(_bfs(graph.successors, current, {v0}), v0))
    validate_covering_closed_walk(graph, v0, walk)
    return walk


def validate_covering_closed_walk(
    graph: TransitionGraph, v0: int, walk: Sequence[Edge]
) -> None:
    if not walk:
        raise GraphError("walk is empty")
    edge_set = set(graph.edges)
    for e in walk:
        if e not in edge_set:
            raise GraphError(f"walk uses edge {e} not in the graph")
    if walk[0][0] != v0 or walk[-1][1] != v0:
        raise GraphError(f"walk must start and end at {v0}")
    for a, b in zip(walk, walk[1:]):
        if a[1] != b[0]:
            raise GraphError(f"walk breaks between {a} and {b}")
    visited = {v0} | {e[1] for e in walk}
    if visited != set(range(1, graph.n_vertices + 1)):
        raise GraphError(f"walk misses vertices {set(range(1, graph.n_vertices + 1)) - visited}")
    bound = graph.n_vertices * (graph.n_vertices - 1)
    if len(walk) > bound:
        raise GraphError(f"walk length {len(walk)} exceeds bound {bound}")


# ---------------------------------------------------------------------------
# piecewise-constant controls


@dataclasses.dataclass(eq=False)
class PiecewiseConstantControl:
    """Per-edge rates, constant on each interval between breakpoints."""

    graph: TransitionGraph
    breakpoints: np.ndarray  # shape (K+1,), increasing, starts at 0
    rates: np.ndarray        # shape (K, n_edges), non-negative

    def __post_init__(self):
        self.breakpoints = np.asarray(self.breakpoints, dtype=float)
        self.rates = np.asarray(self.rates, dtype=float).reshape(
            -1, self.graph.n_edges
        )
        if self.breakpoints.ndim != 1 or self.breakpoints.size != self.rates.shape[0] + 1:
            raise InputError("breakpoints must have one more entry than rate rows")
        if not np.all(np.isfinite(self.breakpoints)):
            raise InputError("breakpoints must be finite")
        if np.any(np.diff(self.breakpoints) <= 0):
            raise InputError("breakpoints must be strictly increasing")
        if np.any(self.rates < 0) or not np.all(np.isfinite(self.rates)):
            raise InputError("rates must be finite and non-negative")

    @property
    def n_intervals(self) -> int:
        return self.rates.shape[0]

    @property
    def total_duration(self) -> float:
        return float(self.breakpoints[-1] - self.breakpoints[0])

    @classmethod
    def concatenate(
        cls, pieces: Sequence["PiecewiseConstantControl"]
    ) -> "PiecewiseConstantControl":
        if not pieces:
            raise InputError("nothing to concatenate")
        graph = pieces[0].graph
        bps = [np.zeros(1)]
        rates = []
        offset = 0.0
        for p in pieces:
            if p.graph is not graph and p.graph != graph:
                raise InputError("controls live on different graphs")
            bps.append(offset + (p.breakpoints[1:] - p.breakpoints[0]))
            rates.append(p.rates)
            offset += p.total_duration
        return cls(graph, np.concatenate(bps), np.vstack(rates))

    def max_rate(self) -> float:
        return float(np.max(self.rates)) if self.rates.size else 0.0


def _interval_exponentials(control: PiecewiseConstantControl):
    """expm(dt_k * Q_k) for each interval k, in time order."""
    for k in range(control.n_intervals):
        dt = control.breakpoints[k + 1] - control.breakpoints[k]
        yield scipy.linalg.expm(dt * generator(control.graph, control.rates[k]))


def propagate(mu0: np.ndarray, control: PiecewiseConstantControl) -> np.ndarray:
    """States at every breakpoint: left-ordered product of interval
    matrix exponentials applied to mu0."""
    mu0 = validate_distribution(mu0)
    if mu0.size != control.graph.n_vertices:
        raise InputError("distribution size does not match the graph")
    states = [mu0.copy()]
    mu = mu0.copy()
    for step in _interval_exponentials(control):
        mu = step @ mu
        states.append(mu.copy())
    return np.asarray(states)


def transition_matrix(control: PiecewiseConstantControl) -> np.ndarray:
    """Left-ordered product of the interval exponentials over the whole
    control: column j is the final distribution of a chain started in
    state j, so every column sums to one."""
    p = np.eye(control.graph.n_vertices)
    for step in _interval_exponentials(control):
        p = step @ p
    return p


@dataclasses.dataclass(eq=False)
class LocalStepCertificate:
    """Bookkeeping behind one exact local transfer along a covering walk.

    ``acc[i]`` accumulates the gated per-vertex increments through
    interval i; the residual carried mass on interval i is
    ``rho - acc[i]``.  ``gate[i-1]`` is 1 exactly when edge i is the first
    of the walk leaving its source vertex: there the vertex drops from its
    start value to its endpoint value, which it keeps on every revisit.
    """

    walk: tuple[Edge, ...]
    gate: np.ndarray    # shape (s,), 0/1
    acc: np.ndarray     # shape (s+1,), acc[0] = 0
    rho: float
    delta_mu: np.ndarray
    dt: float
    base: np.ndarray    # mu0 with rho removed at the walk's start vertex


def _carried_mass(mu: np.ndarray) -> tuple[int, float]:
    """Start vertex (1-based) and carried mass of a local step from ``mu``:
    its heaviest vertex and half that vertex's mass, at least 1/(2N)."""
    k = int(np.argmax(mu))
    return k + 1, 0.5 * float(mu[k])


def _first_exits(walk: Sequence[Edge]) -> dict[int, int]:
    """1-based index of the first walk edge leaving each vertex."""
    first: dict[int, int] = {}
    for idx, (src, _) in enumerate(walk, start=1):
        first.setdefault(src, idx)
    return first


def local_step_control(
    graph: TransitionGraph,
    mu0: np.ndarray,
    mu1: np.ndarray,
    duration: float,
) -> tuple[PiecewiseConstantControl, LocalStepCertificate]:
    """Steer mu0 to mu1 exactly in the given duration.

    One edge of a covering closed walk is active per interval: a probe
    mass rho = mu0[v0]/2 leaves the heaviest vertex v0, circulates around
    the walk and back, and each vertex drops to its endpoint value on the
    first interval leaving it and keeps that value on every revisit.  So
    every exit leaves its source at end[src] (mu1, with v0 net of rho),
    each rate is (log(end + carried) - log end)/dt, and the start enters
    only through the increment mu1 - mu0.  For an interior mu1 with
    |mu1 - mu0|_1 <= rho every rate is finite and non-negative, from any
    start: partial sums and entries of a zero-sum increment are at most
    half its 1-norm, so the carried mass stays at least rho/2 and v0
    keeps at least rho/2.  Endpoint coordinates of any size are met to
    roundoff.
    """
    mu0 = validate_distribution(mu0)
    mu1 = validate_distribution(mu1)
    n = graph.n_vertices
    if mu0.size != n or mu1.size != n:
        raise InputError("distribution size does not match the graph")
    if not 0 < duration < math.inf:
        raise InputError(f"duration must be finite and positive, got {duration}")
    if not is_interior(mu1):
        raise InteriorityError(f"need an interior endpoint, min coordinate {np.min(mu1)!r}")
    v0, rho = _carried_mass(mu0)
    delta_mu = mu1 - mu0
    if float(np.sum(np.abs(delta_mu))) > rho * (1 + 1e-12):
        raise StepSizeError(
            f"increment 1-norm {np.sum(np.abs(delta_mu)):.3e} exceeds carried mass {rho:.3e}"
        )
    walk = find_covering_closed_walk(graph, v0)
    s = len(walk)
    dt = duration / s

    first_exit = _first_exits(walk)
    gate = np.array(
        [1.0 if first_exit[src] == idx else 0.0 for idx, (src, _) in enumerate(walk, start=1)]
    )
    acc = np.zeros(s + 1)
    for idx, (src, _) in enumerate(walk, start=1):
        acc[idx] = acc[idx - 1] + gate[idx - 1] * delta_mu[src - 1]

    base = mu0.copy()
    base[v0 - 1] -= rho
    end = mu1.copy()
    end[v0 - 1] -= rho

    rates = np.zeros((s, graph.n_edges))
    for idx, edge in enumerate(walk, start=1):
        numer = end[edge[0] - 1]
        denom = numer + (rho - acc[idx])
        rates[idx - 1, graph.edge_index[edge]] = (math.log(denom) - math.log(numer)) / dt

    control = PiecewiseConstantControl(
        graph, np.linspace(0.0, duration, s + 1), rates
    )
    cert = LocalStepCertificate(
        walk=tuple(walk),
        gate=gate,
        acc=acc,
        rho=rho,
        delta_mu=delta_mu,
        dt=dt,
        base=base,
    )
    return control, cert


def breakpoint_states(mu0: np.ndarray, cert: LocalStepCertificate) -> np.ndarray:
    """Closed-form state at every interval breakpoint of a local step.

    At breakpoint i the walk's carried mass sits on the head vertex and
    every vertex whose first exit has passed holds its final value:
    value(v, i) = base_v + delta_v*[first_exit(v) <= i] + (rho - acc_i)*[v = head_i].
    """
    mu0 = np.asarray(mu0, dtype=float)
    walk = cert.walk
    s = len(walk)
    n = mu0.size
    first_exit = _first_exits(walk)
    states = np.empty((s + 1, n))
    for i in range(s + 1):
        head = walk[0][0] if i == 0 else walk[i - 1][1]
        vals = cert.base.copy()
        for v in range(1, n + 1):
            if first_exit[v] <= i:
                vals[v - 1] += cert.delta_mu[v - 1]
        vals[head - 1] += cert.rho - cert.acc[i]
        states[i] = vals
    return states


def transfer_control(
    graph: TransitionGraph,
    mu0: np.ndarray,
    mu_target: np.ndarray,
    duration: float,
) -> PiecewiseConstantControl:
    """Concatenated local steps along the straight segment mu0 -> target,
    from any start to an interior target.

    From each waypoint w the step carries rho = max(w)/2 (see
    ``local_step_control``) and moves to (1 - theta)*w + theta*target with
    theta = rho/|target - w|_1, or onto the target itself once the rest is
    at most rho.  Every waypoint after mu0 is interior, since theta > 0.
    All segments take equal time.  Equal endpoints give one zero-increment
    step that circulates the carried mass over the whole duration.

    Interval bound.  max(w) >= 1/N, so rho >= 1/(2N), and every step but
    the last moves rho along the segment of length L = |target - mu0|_1
    <= 2.  So there are at most 1 + ceil(2N*L) segments, each as long as
    the covering walk from its start vertex, whatever the coordinates.
    """
    mu0 = validate_distribution(mu0)
    mu_target = validate_distribution(mu_target)
    if not is_strongly_connected(graph):
        raise GraphError(
            "global transfer requires a strongly connected graph",
            certificate=monotone_certificate(graph),
        )
    if not 0 < duration < math.inf:
        raise InputError(f"duration must be finite and positive, got {duration}")
    if not is_interior(mu_target):
        raise InteriorityError("target must be an interior simplex point")
    waypoints = [mu0]
    while True:
        w = waypoints[-1]
        dist = float(np.sum(np.abs(mu_target - w)))
        rho = _carried_mass(w)[1]
        if dist <= rho:
            break
        # a convex combination, not w + theta*(target - w), keeps tiny
        # coordinates exact; the floor keeps theta times a subnormal target
        # coordinate from rounding an empty start coordinate to zero
        theta = rho / dist
        waypoints.append(np.maximum((1.0 - theta) * w + theta * mu_target, 5e-324))
    waypoints.append(mu_target)
    dt = duration / (len(waypoints) - 1)
    return PiecewiseConstantControl.concatenate(
        [local_step_control(graph, a, b, dt)[0] for a, b in zip(waypoints, waypoints[1:])]
    )


# ---------------------------------------------------------------------------
# stationary rates and spectra


def _positive_circulation(graph: TransitionGraph) -> np.ndarray:
    """Strictly positive edge weights with zero divergence at each vertex.

    Every edge of a strongly connected graph lies on a directed cycle;
    summing one unit of flow around a cycle through each edge gives a
    positive integer circulation.
    """
    flow = np.zeros(graph.n_edges)
    for k, (i, j) in enumerate(graph.edges):
        flow[k] += 1.0
        for e in _path(_bfs(graph.successors, j, {i}), i):
            flow[graph.edge_index[e]] += 1.0
    return flow


def synthesize_stationary_rates(
    graph: TransitionGraph,
    mu_eq: np.ndarray,
) -> np.ndarray:
    """Positive rates whose generator has mu_eq as a stationary state.

    Bidirected graphs get detailed-balance rates q_e = mu[T(e)]/min(mu);
    otherwise the minimum-norm-to-1 solution of the stationarity
    constraint is blended with a strictly positive circulation until
    every rate clears ``MIN_RATE``.  The returned rates satisfy
    |generator(q) @ mu_eq|_inf <= 1e-12 and make 0 a simple dominant
    eigenvalue.
    """
    mu_eq = validate_distribution(mu_eq)
    if mu_eq.size != graph.n_vertices:
        raise InputError("distribution size does not match the graph")
    if not is_interior(mu_eq):
        raise InteriorityError("stationary synthesis needs an interior target")
    if not is_strongly_connected(graph):
        raise GraphError(
            "stationary synthesis requires a strongly connected graph",
            certificate=monotone_certificate(graph),
        )

    if graph.is_bidirected():
        scale = float(np.min(mu_eq))
        rates = np.array([mu_eq[j - 1] / scale for (_, j) in graph.edges])
    else:
        # constraint matrix: column e is mu_S(e) * (e_T - e_S)
        n, m = graph.n_vertices, graph.n_edges
        a = np.zeros((n, m))
        for k, (i, j) in enumerate(graph.edges):
            a[i - 1, k] -= mu_eq[i - 1]
            a[j - 1, k] += mu_eq[i - 1]
        ones = np.ones(m)
        # min ||q - 1|| subject to a q = 0: project 1 onto the nullspace
        z, *_ = np.linalg.lstsq(a @ a.T, a @ ones, rcond=None)
        rates = ones - a.T @ z
        if float(np.min(rates)) < MIN_RATE:
            circ = _positive_circulation(graph) / mu_eq[
                np.array([i - 1 for (i, _) in graph.edges])
            ]
            circ *= (1.0 + float(np.max(np.abs(rates)))) / float(np.min(circ))
            # affine blend stays inside the stationarity constraint space;
            # the small margin absorbs the final rounding
            lift = MIN_RATE * (1.0 + 1e-9)
            theta = 0.0
            for qe, ce in zip(rates, circ):
                if qe < lift:
                    theta = max(theta, (lift - qe) / (ce - qe))
            rates = (1.0 - theta) * rates + theta * circ

    residual = float(np.max(np.abs(generator(graph, rates) @ mu_eq)))
    if residual > 1e-12:
        raise SynthesisError(
            f"stationarity residual {residual:.3e} above tolerance", residual=residual
        )
    report = spectrum_check(graph, rates)
    if report.max_real_part > 1e-10 or report.gap <= 0:
        raise SynthesisError(
            f"synthesized rates fail the spectral check (max Re = {report.max_real_part:.3e})",
            residual=residual,
        )
    return rates


@dataclasses.dataclass
class SpectrumReport:
    eigenvalues: np.ndarray
    max_real_part: float
    gap: float  # negated second-largest real part


def spectrum_check(graph: TransitionGraph, rates: Sequence[float]) -> SpectrumReport:
    """Eigenvalues of the rate-weighted generator; all real parts <= 0."""
    q = generator(graph, rates)
    vals = np.linalg.eigvals(q)
    reals = np.sort(vals.real)[::-1]
    gap = float(-reals[1]) if reals.size > 1 else 0.0
    return SpectrumReport(
        eigenvalues=vals, max_real_part=float(reals[0]), gap=gap
    )


# ---------------------------------------------------------------------------
# text interfaces


def read_edge_list(source) -> TransitionGraph:
    """Graph from 'i j' pairs, one per line, 1-based; '#' starts a comment."""
    if hasattr(source, "read"):
        text = source.read()
    else:
        with open(source, "r", encoding="utf-8") as handle:
            text = handle.read()
    edges = []
    max_vertex = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphError(f"line {lineno}: expected 'i j', got {line!r}")
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise GraphError(f"line {lineno}: non-integer vertex in {line!r}") from exc
        edges.append((i, j))
        max_vertex = max(max_vertex, i, j)
    if not edges:
        raise GraphError("edge list is empty")
    return TransitionGraph(max_vertex, tuple(edges))
