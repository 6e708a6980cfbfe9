"""Scenario runner: configs in, CSV artifacts and pass/fail summaries out.

Configs are INI-style key-value sections (see docs/scenario-format.md).
Every run writes ``metadata.json`` (the parameters needed to reproduce it)
and ``summary.json`` (machine-readable checks against the thresholds
declared in the config; thresholds are never hard-coded here).  Numeric
CSV output uses shortest round-trip decimals, so identical configs and
seeds produce byte-identical files.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import io
import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import control as ctl
from . import ctmc, hybrid, particles
from .errors import SwarmCtrlError, ConfigurationError, GraphError, InputError, SynthesisError
from .expressions import evaluate
from .grid import RectDomain, ScalarField, build_grid, l2_norm, mass
from .pde import fit_decay_rate, march

CONTROLLERS = (
    "stabilize",
    "steer-density",
    "path-follow",
    "ctmc-plan",
    "hsdp-steer",
    "hsdp-stabilize",
    "particles",
    "spectrum",
)

USAGE_ERROR = 2
NUMERICAL_ERROR = 1

# largest count x steps a [particles] run may ask for; it bounds both the
# stepping work and the ensemble's size
MAX_PARTICLE_STEPS = 10**9


@dataclasses.dataclass
class Scenario:
    name: str
    controller: str
    seed: int
    config: configparser.ConfigParser
    base_dir: Path


def _load_scenario(path: Path) -> Scenario:
    if not path.is_file():
        raise ConfigurationError(f"config file not found: {path}")
    # no interpolation: a '%' in a value is the value's own text
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
    with open(path, "r", encoding="utf-8") as handle:
        try:
            parser.read_file(handle)
        except configparser.Error as exc:
            raise ConfigurationError(f"malformed config: {' '.join(str(exc).split())}") from exc
    if not parser.has_section("scenario"):
        raise ConfigurationError("config is missing the [scenario] section")
    controller = parser.get("scenario", "controller", fallback=None)
    if controller not in CONTROLLERS:
        raise ConfigurationError(
            f"controller must be one of {CONTROLLERS}, got {controller!r}"
        )
    return Scenario(
        name=parser.get("scenario", "name", fallback=path.stem),
        controller=controller,
        seed=parser.getint("scenario", "seed", fallback=0),
        config=parser,
        base_dir=path.parent,
    )


def _parse(kind, text: str, where: str):
    """kind(text); a malformed value is a ConfigurationError, not a ValueError."""
    try:
        return kind(text)
    except ValueError as exc:
        raise ConfigurationError(f"{where}: expected {kind.__name__}, got {text!r}") from exc


def _number(
    sc: Scenario, section: str, key: str, fallback, kind=float, positive=False, nonnegative=False
):
    """[section] key as ``kind``; with ``positive``, also finite and > 0; with
    ``nonnegative``, also finite and >= 0."""
    raw = sc.config.get(section, key, fallback=None)
    value = fallback if raw is None else _parse(kind, raw, f"[{section}] {key}")
    if positive and not 0 < value < math.inf:
        raise ConfigurationError(f"[{section}] {key} must be finite and positive, got {value}")
    if nonnegative and not 0 <= value < math.inf:
        raise ConfigurationError(f"[{section}] {key} must be finite and non-negative, got {value}")
    return value


def _vector_option(sc: Scenario, key: str, n: int) -> np.ndarray:
    """[run] key: exactly ``n`` whitespace-separated finite, non-negative numbers."""
    raw = sc.config.get("run", key, fallback=None)
    if raw is None:
        raise ConfigurationError(f"[run] needs '{key}'")
    values = np.array([_parse(float, v, f"[run] {key}") for v in raw.split()])
    if values.size != n:
        raise ConfigurationError(f"[run] {key} needs {n} entries")
    if not np.all((0 <= values) & (values < math.inf)):
        raise ConfigurationError(f"[run] {key} entries must be finite and non-negative, got {raw}")
    return values


def _distribution_option(sc: Scenario, key: str, n: int, interior: bool) -> np.ndarray:
    """[run] key as a probability vector of ``n`` entries that sum to 1;
    zeros are allowed unless ``interior`` (boundary starts need them)."""
    values = _vector_option(sc, key, n)
    try:
        ctmc.validate_distribution(values)
    except InputError as exc:
        raise ConfigurationError(f"[run] {key}: {exc}") from exc
    if interior and not ctmc.is_interior(values):
        raise ConfigurationError(f"[run] {key} entries must be positive, got {values}")
    return values


def _build_domain(sc: Scenario) -> RectDomain:
    cfg = sc.config
    if not cfg.has_section("domain"):
        raise ConfigurationError("config is missing the [domain] section")
    dim = _number(sc, "domain", "dim", 1, int)
    lengths = [
        _parse(float, v, "[domain] lengths")
        for v in cfg.get("domain", "lengths", fallback="1.0").split()
    ]
    cells = [
        _parse(int, v, "[domain] cells") for v in cfg.get("domain", "cells", fallback="64").split()
    ]
    return build_grid(dim, lengths, cells)


def _field_from_spec(sc: Scenario, domain: RectDomain, section: str) -> ScalarField:
    """Closed-form expression over x (and y), or a tabulated CSV column; a
    non-finite value is a ConfigurationError."""
    cfg = sc.config
    if not cfg.has_section(section):
        raise ConfigurationError(f"config is missing the [{section}] section")
    if cfg.has_option(section, "expr"):
        grids = domain.center_grids()
        names = {"x": grids[0]}
        if domain.dim > 1:
            names["y"] = grids[1]
        where = f"[{section}] expr"
        with np.errstate(all="ignore"):  # non-finite values are reported below
            values = evaluate(cfg.get(section, "expr"), **names)
        values = np.broadcast_to(values, domain.shape).copy()
    elif cfg.has_option(section, "table"):
        table = sc.base_dir / cfg.get(section, "table")
        if not table.is_file():
            raise ConfigurationError(f"tabulated density not found: {table}")
        where = f"[{section}] table {table}"
        try:
            values = np.loadtxt(table, delimiter=",", ndmin=1)
        except ValueError as exc:
            raise ConfigurationError(f"{where}: {exc}") from exc
        if values.shape not in ((domain.cell_count,), domain.shape):
            raise ConfigurationError(
                f"{where}: table of shape {values.shape} does not match grid {domain.shape}; "
                "give one value per cell as a column, a row or the grid's shape"
            )
    else:
        raise ConfigurationError(f"[{section}] needs either 'expr' or 'table'")
    if not np.all(np.isfinite(values)):
        raise ConfigurationError(f"{where} has non-finite values")
    return ScalarField(domain, values)


def _density(sc: Scenario, domain: RectDomain, section: str) -> ScalarField:
    """[section] scaled to unit mass; a mass that is not finite and positive
    is a ConfigurationError."""
    field = _field_from_spec(sc, domain, section)
    total = mass(field)
    if not 0 < total < math.inf:
        raise ConfigurationError(f"[{section}] has no finite positive mass, got {total}")
    return ScalarField(domain, field.values / total)


def _stacked_fields(
    sc: Scenario, domain: RectDomain, prefix: str, n: int, optional: bool = False
) -> tuple[ScalarField, ...]:
    """[prefix.1] .. [prefix.n] scaled to unit total mass; a missing section
    is a zero field when ``optional`` and an error otherwise."""
    fields = [
        _field_from_spec(sc, domain, f"{prefix}.{k}")
        if not optional or sc.config.has_section(f"{prefix}.{k}")
        else ScalarField.constant(domain, 0.0)
        for k in range(1, n + 1)
    ]
    total = sum(mass(f) for f in fields)
    if not 0 < total < math.inf:
        raise ConfigurationError(f"{prefix} stack has no finite positive mass, got {total}")
    return tuple(ScalarField(domain, f.values / total) for f in fields)


def _stepper_config(sc: Scenario) -> float:
    """[pde] dt, finite and positive.  A ``scheme`` or ``flux`` key is an
    error, not ignored: every evolution has one scheme, so ignoring it would
    run another method than the config asks for."""
    for key in ("scheme", "flux"):
        if sc.config.has_option("pde", key):
            raise ConfigurationError(
                f"[pde] {key} is not supported: every evolution uses implicit Euler"
                " with the exponential-fitted flux"
            )
    return _number(sc, "pde", "dt", 1e-3, positive=True)


def _graph_from_config(sc: Scenario, strongly_connected_for: str = "") -> ctmc.TransitionGraph:
    """[graph] edges or file; a malformed edge list, or one that is not strongly
    connected when ``strongly_connected_for`` names a use that needs it, is a
    ConfigurationError naming the key."""
    cfg = sc.config
    if not cfg.has_section("graph"):
        raise ConfigurationError("config is missing the [graph] section")
    if cfg.has_option("graph", "file"):
        path = sc.base_dir / cfg.get("graph", "file")
        if not path.is_file():
            raise ConfigurationError(f"edge list not found: {path}")
        where, source = f"[graph] file {path}", path
    elif cfg.has_option("graph", "edges"):
        where, source = "[graph] edges", io.StringIO(cfg.get("graph", "edges"))
    else:
        raise ConfigurationError("[graph] needs either 'edges' or 'file'")
    try:
        graph = ctmc.read_edge_list(source)
    except GraphError as exc:
        raise ConfigurationError(f"{where}: {exc}") from exc
    if strongly_connected_for and not ctmc.is_strongly_connected(graph):
        raise ConfigurationError(
            f"{where}: {strongly_connected_for} requires a strongly connected graph, "
            "a directed path from every state to every other"
        )
    return graph


_CSV_BLOCK_ROWS = 4096  # CSV lines formatted per write


def _fmt(value: float) -> str:
    return repr(float(value))


def _write_csv(path: Path, header: str, lines) -> None:
    """``header`` and then ``lines`` (formatted, without newlines), joined and
    written ``_CSV_BLOCK_ROWS`` at a time, so a lazy ``lines`` keeps memory
    at one block whatever the row count."""
    lines = iter(lines)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(header + "\n")
        while block := list(itertools.islice(lines, _CSV_BLOCK_ROWS)):
            handle.write("\n".join(block))
            handle.write("\n")


def _cell_lines(blocks):
    """``prefix,cell,value`` for each ``(prefix, array)`` of ``blocks``, one
    line per entry of the flattened array."""
    for prefix, values in blocks:
        for idx, value in enumerate(np.ravel(values).tolist()):
            yield f"{prefix},{idx},{_fmt(value)}"


def _snapshot_lines(snapshots):
    """``t,cell,value`` lines of ``(t, ScalarField)`` snapshots."""
    return _cell_lines((_fmt(t), field.values) for t, field in snapshots)


def _stacked_lines(snapshots):
    """``t,state,cell,value`` lines of ``(t, StackedDensity)`` snapshots."""
    return _cell_lines(
        (f"{_fmt(t)},{s}", field.values)
        for t, stacked in snapshots
        for s, field in enumerate(stacked.fields, start=1)
    )


def _control_lines(control: ctmc.PiecewiseConstantControl):
    """``t_start,t_end,edge,rate`` lines, one per interval and edge."""
    edges = [f"{i}->{j}" for i, j in control.graph.edges]
    times = control.breakpoints.tolist()
    for t0, t1, rates in zip(times, times[1:], control.rates.tolist()):
        for edge, rate in zip(edges, rates):
            yield f"{_fmt(t0)},{_fmt(t1)},{edge},{_fmt(rate)}"


def _write_particles_csv(path: Path, ens: particles.ParticleEnsemble) -> None:
    """One row per particle: id, state, coordinates (``_fmt`` numbers); the
    arrays become per-column Python lists one block of rows at a time, and
    each row is one ``str.format`` call."""
    row = ("{},{}" + ",{!r}" * ens.domain.dim).format
    lines = itertools.chain.from_iterable(
        map(
            row,
            range(start, ens.count),
            ens.states[start:start + _CSV_BLOCK_ROWS].tolist(),
            *ens.positions[start:start + _CSV_BLOCK_ROWS].T.tolist(),
        )
        for start in range(0, ens.count, _CSV_BLOCK_ROWS)
    )
    _write_csv(path, "id,state," + ",".join(f"x{d}" for d in range(ens.domain.dim)), lines)


def _decay_rate(times, errors) -> dict:
    """``{"decay_rate": ...}`` fitted to the errors above 1e-8 of the first,
    or ``{}`` when fewer than three are.  The relative floor keeps the fit
    clear of the roundoff tail, so the rate is the scheme's, not the
    solver's."""
    floor = 1e-8 * errors[0]
    kept = [(t, e) for t, e in zip(times, errors) if e > floor]
    if len(kept) < 3:
        return {}
    return {"decay_rate": fit_decay_rate([t for t, _ in kept], [e for _, e in kept]).rate}


def _finish(
    sc: Scenario,
    out_dir: Path,
    measured: dict,
    domain: RectDomain | None = None,
    graph: ctmc.TransitionGraph | None = None,
    **extra,
) -> bool:
    """Write ``metadata.json`` (the common keys, ``cells``/``edges`` when a
    domain/graph is given, and ``extra``) and ``summary.json`` (the [check]
    thresholds against ``measured``); True when every check passes."""
    metadata = {
        "scenario": sc.name,
        "controller": sc.controller,
        "seed": sc.seed,
        "measured": {k: float(v) for k, v in measured.items()},
        **extra,
    }
    if domain is not None:
        metadata["cells"] = list(domain.cells)
    if graph is not None:
        metadata["edges"] = [f"{i}->{j}" for i, j in graph.edges]
    checks = _declared_checks(sc, measured)
    ok = all(c["pass"] for c in checks)
    with open(out_dir / "metadata.json", "w", encoding="utf-8") as handle:
        json.dump(metadata, handle, indent=2, sort_keys=True)
        handle.write("\n")
    with open(out_dir / "summary.json", "w", encoding="utf-8") as handle:
        json.dump({"pass": ok, "checks": checks}, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return ok


def _declared_checks(sc: Scenario, measured: dict) -> list[dict]:
    """Pass/fail entries for every threshold listed in [check]; a threshold
    must be finite and non-negative."""
    checks = []
    if sc.config.has_section("check"):
        for name in sc.config.options("check"):
            threshold = _number(sc, "check", name, None, nonnegative=True)
            value = float(measured[name]) if name in measured else None
            passed = value is not None and bool(value <= threshold)
            checks.append({"name": name, "value": value, "threshold": threshold, "pass": passed})
    return checks


# ---------------------------------------------------------------------------
# runners


def _run_stabilize(sc: Scenario, out_dir: Path) -> bool:
    domain = _build_domain(sc)
    dt = _stepper_config(sc)
    target = _density(sc, domain, "target")
    td = ctl.TargetDensity.create(target)
    if sc.config.has_section("initial"):
        y = _density(sc, domain, "initial")
    else:
        y = ScalarField.constant(domain, 1.0 / float(np.prod(domain.lengths)))
    t_final = _number(sc, "run", "t_final", 1.0, positive=True)
    n_snapshots = _number(sc, "run", "snapshots", 6, int, positive=True)
    velocity = ctl.stabilizing_velocity(td, 1.0)
    relax = td.relaxation_operator.matrix  # the flow of that velocity, D = 1

    step_t = t_final / n_snapshots
    snapshots = [(0.0, y)]
    for _ in range(n_snapshots):
        t, y = snapshots[-1]
        for block in march(relax, y.flat, step_t, dt):
            pass
        snapshots.append((t + step_t, ScalarField(domain, block[-1].copy())))
    y = snapshots[-1][1]
    errors = [l2_norm(ScalarField(domain, s.values - target.values)) for _, s in snapshots]

    _write_csv(out_dir / "density.csv", "t,cell,value", _snapshot_lines(snapshots))
    measured = {
        "final_error": errors[-1],
        "mass_drift": abs(mass(y) - 1.0),
        "max_velocity": velocity.max_abs(),
        **_decay_rate([t for t, _ in snapshots], errors),
    }
    return _finish(sc, out_dir, measured, domain=domain, t_final=t_final)


def _run_steer(sc: Scenario, out_dir: Path) -> bool:
    domain = _build_domain(sc)
    dt = _stepper_config(sc)
    target = ctl.TargetDensity.create(_density(sc, domain, "target"))
    y0 = _density(sc, domain, "initial")
    t_final = _number(sc, "run", "t_final", 1.0, positive=True)
    tol = _number(sc, "run", "tolerance", 1e-2, positive=True)
    plan = ctl.synthesize_steering_plan(y0, target, t_final, tol)
    run = ctl.execute_plan(plan, y0, dt)

    with open(out_dir / "plan.txt", "w", encoding="utf-8") as handle:
        handle.write(plan.to_text())
    _write_csv(out_dir / "density.csv", "t,cell,value", _snapshot_lines(run.snapshots))
    measured = {
        "final_error": run.final_error_l2,
        "max_velocity": run.max_velocity,
        "predicted_error": plan.predicted_error,
    }
    return _finish(
        sc, out_dir, measured, domain=domain, t_final=t_final, tolerance=tol,
        gain_intervals=len(plan.intervals), alpha=plan.alpha,
        spectral_gap=plan.target.spectral_gap,
    )


def _run_path(sc: Scenario, out_dir: Path) -> bool:
    domain = _build_domain(sc)
    g0 = _density(sc, domain, "path_start")
    g1 = _density(sc, domain, "path_end")
    t_final = _number(sc, "run", "t_final", 1.0, positive=True)
    n_steps = _number(sc, "run", "steps", 1000, int, positive=True)

    def gamma(t):
        s = t / t_final
        return ScalarField(domain, (1 - s) * g0.values + s * g1.values)

    def dgamma(_t):
        return ScalarField(domain, (g1.values - g0.values) / t_final)

    res = ctl.follow_path(gamma, dgamma, t_final, n_steps=n_steps)
    _write_csv(
        out_dir / "density.csv", "t,cell,value", _snapshot_lines([(t_final, res.final_state)])
    )
    measured = {"tracking_error": res.sup_error, "max_velocity": res.max_velocity}
    return _finish(sc, out_dir, measured, domain=domain, t_final=t_final, steps=n_steps)


def _run_ctmc_plan(sc: Scenario, out_dir: Path) -> bool:
    graph = _graph_from_config(sc, strongly_connected_for="ctmc-plan")
    mu0 = _distribution_option(sc, "mu0", graph.n_vertices, interior=False)
    mu_target = _distribution_option(sc, "mu_target", graph.n_vertices, interior=True)
    duration = _number(sc, "run", "t_final", 1.0, positive=True)
    ctrl = ctmc.transfer_control(graph, mu0, mu_target, duration)
    traj = ctmc.propagate(mu0, ctrl)
    endpoint_error = float(np.max(np.abs(traj[-1] - mu_target)))

    _write_csv(out_dir / "control.csv", "t_start,t_end,edge,rate", _control_lines(ctrl))
    _write_csv(
        out_dir / "trajectory.csv",
        "t," + ",".join(f"mu{v}" for v in range(1, graph.n_vertices + 1)),
        (",".join(map(_fmt, (t, *state))) for t, state in zip(ctrl.breakpoints, traj)),
    )
    measured = {"endpoint_error": endpoint_error, "max_rate": ctrl.max_rate()}
    return _finish(
        sc, out_dir, measured, graph=graph, t_final=duration, intervals=ctrl.n_intervals
    )


def _run_hsdp_steer(sc: Scenario, out_dir: Path) -> bool:
    domain = _build_domain(sc)
    dt = _stepper_config(sc)
    graph = _graph_from_config(sc, strongly_connected_for="hsdp-steer")
    n = graph.n_vertices
    fields = _stacked_fields(sc, domain, "target", n)
    for k, field in enumerate(fields, start=1):
        if not np.min(field.values) > 0:
            raise ConfigurationError(
                f"[target.{k}] must be positive in every cell: steering needs every state's "
                f"target bounded below, got min {np.min(field.values)}"
            )
    target = hybrid.HybridTarget.create(fields)
    initial = hybrid.StackedDensity(_stacked_fields(sc, domain, "initial", n, optional=True))
    t_final = _number(sc, "run", "t_final", 2.0, positive=True)
    tol = _number(sc, "run", "tolerance", 1e-2, positive=True)
    plan = hybrid.hybrid_steering_plan(graph, initial, target, t_final, tol)
    run = hybrid.execute_hybrid_plan(plan, initial, dt)

    _write_csv(
        out_dir / "stacked.csv",
        "t,state,cell,value",
        _stacked_lines(
            [(0.0, initial), (t_final / 2.0, run.switch_state), (t_final, run.final_state)]
        ),
    )
    _write_csv(
        out_dir / "control.csv", "t_start,t_end,edge,rate", _control_lines(plan.mass_control)
    )
    measured = {
        "final_error": float(np.max(run.per_state_error_l2)),
        "max_velocity": run.max_velocity,
        "mass_error_at_switch": float(
            np.max(np.abs(run.switch_state.mass_vector() - target.mass_vector()))
        ),
        "max_rate": plan.mass_control.max_rate(),
    }
    return _finish(
        sc, out_dir, measured, domain=domain, graph=graph, t_final=t_final, tolerance=tol,
        intervals=plan.mass_control.n_intervals,
    )


def _run_hsdp_stabilize(sc: Scenario, out_dir: Path) -> bool:
    domain = _build_domain(sc)
    pde_dt = _stepper_config(sc)
    graph = _graph_from_config(sc)
    n = graph.n_vertices
    fields = _stacked_fields(sc, domain, "target", n)
    for k, field in enumerate(fields, start=1):
        if np.any(field.values) and not np.min(field.values) > 0:
            raise ConfigurationError(
                f"[target.{k}] must be positive in every cell or zero in every cell: a "
                f"stabilized state is positive and a drained one empty, got min "
                f"{np.min(field.values)}"
            )
    target = hybrid.HybridTarget.create(fields)
    diffusion = [_number(sc, "pde", "diffusion", 1.0, nonnegative=True)] * n
    try:
        gains = hybrid.zero_mass_stabilizing_gains(graph, target)
    except (GraphError, SynthesisError) as exc:
        # a residual marks a numerical failure; without one the config's
        # own edges and targets admit no stabilizing gains
        if getattr(exc, "residual", None) is not None:
            raise
        raise ConfigurationError(f"[graph] with the [target.K] masses: {exc}") from exc
    velocities = hybrid.stabilizing_velocities(target, diffusion)
    rng = np.random.Generator(np.random.Philox(sc.seed))
    arrays = [0.2 + rng.random(domain.shape) for _ in range(n)]
    total = sum(a.sum() for a in arrays) * domain.cell_volume
    state = hybrid.StackedDensity(tuple(ScalarField(domain, a / total) for a in arrays))
    t_final = _number(sc, "run", "t_final", 10.0, positive=True)
    n_steps = max(1, int(math.ceil(t_final / (10 * pde_dt))))
    dt = t_final / n_steps
    stepper = hybrid.SplitStepper(domain, velocities, diffusion, gains, dt)
    times, errors = [], []
    t = 0.0
    for k in range(n_steps):
        state = stepper.step(state)
        t += dt
        if k % max(1, n_steps // 40) == 0 or k == n_steps - 1:
            err = math.sqrt(
                sum(
                    float(np.sum((a.values - b.values) ** 2))
                    for a, b in zip(state.fields, target.fields)
                )
                * domain.cell_volume
            )
            times.append(t)
            errors.append(err)

    _write_csv(
        out_dir / "gains.csv",
        "edge,cell,value",
        _cell_lines((f"{i}->{j}", gain) for (i, j), gain in zip(graph.edges, gains.gains)),
    )
    _write_csv(out_dir / "stacked.csv", "t,state,cell,value", _stacked_lines([(t_final, state)]))
    measured = {
        "final_error": errors[-1],
        "total_mass_drift": abs(state.total_mass() - 1.0),
        **_decay_rate(times, errors),
    }
    return _finish(sc, out_dir, measured, domain=domain, graph=graph, t_final=t_final)


def _run_particles(sc: Scenario, out_dir: Path) -> bool:
    domain = _build_domain(sc)
    pde_dt = _stepper_config(sc)
    target = _density(sc, domain, "target")
    td = ctl.TargetDensity.create(target)
    velocity = ctl.stabilizing_velocity(td, 1.0)
    count = _number(sc, "particles", "count", 10000, int, positive=True)
    dt = _number(sc, "particles", "dt", 1e-3, positive=True)
    t_final = _number(sc, "run", "t_final", 1.0, positive=True)
    steps = t_final / dt
    if count * steps > MAX_PARTICLE_STEPS:
        raise ConfigurationError(
            f"[particles] count = {count} times t_final / dt = {steps:.3g} steps "
            f"exceeds {MAX_PARTICLE_STEPS:.0e} particle steps"
        )
    n_steps = round(steps)
    if n_steps < 1 or abs(n_steps * dt - t_final) > 1e-9 * t_final:
        raise ConfigurationError(
            f"[run] t_final = {t_final} is not a whole number of [particles] dt = {dt} steps"
        )
    ens = particles.ParticleEnsemble.uniform(domain, count, state=1, seed=sc.seed)
    for _ in range(n_steps):
        particles.sde_step(ens, [velocity], [1.0], None, dt)
    emp = particles.empirical_density(ens, domain, 1)
    y0 = ScalarField.constant(domain, 1.0 / float(np.prod(domain.lengths)))
    for block in march(td.relaxation_operator.matrix, y0.flat, t_final, pde_dt):
        pass  # the mean-field reference is the last state
    ypde = block[-1].reshape(domain.shape)
    l1 = float(np.sum(np.abs(emp.density.fields[0].values - ypde)) * domain.cell_volume)

    _write_particles_csv(out_dir / "particles.csv", ens)
    _write_csv(
        out_dir / "empirical.csv",
        "t,cell,value",
        _snapshot_lines([(t_final, emp.density.fields[0])]),
    )
    measured = {"l1_distance": l1}
    return _finish(
        sc, out_dir, measured, domain=domain, count=count, dt=dt, t_final=t_final
    )


def _run_spectrum(sc: Scenario, out_dir: Path) -> bool:
    explicit = sc.config.has_option("run", "rates")  # explicit rates may sit on any graph
    graph = _graph_from_config(
        sc, strongly_connected_for="" if explicit else "spectrum with [run] mu_eq"
    )
    if explicit:
        rates = _vector_option(sc, "rates", graph.n_edges)
    else:
        mu_eq = _distribution_option(sc, "mu_eq", graph.n_vertices, interior=True)
        rates = ctmc.synthesize_stationary_rates(graph, mu_eq)
    report = ctmc.spectrum_check(graph, rates)

    _write_csv(
        out_dir / "spectrum.csv",
        "index,real,imag",
        (f"{idx},{_fmt(lam.real)},{_fmt(lam.imag)}" for idx, lam in enumerate(report.eigenvalues)),
    )
    measured = {"max_real_part": report.max_real_part}
    return _finish(
        sc, out_dir, measured, graph=graph, rates=[float(r) for r in rates],
        spectral_gap=float(report.gap),
    )


_RUNNERS = {
    "stabilize": _run_stabilize,
    "steer-density": _run_steer,
    "path-follow": _run_path,
    "ctmc-plan": _run_ctmc_plan,
    "hsdp-steer": _run_hsdp_steer,
    "hsdp-stabilize": _run_hsdp_stabilize,
    "particles": _run_particles,
    "spectrum": _run_spectrum,
}


def run_scenario(
    config_path,
    out_dir=None,
    seed=None,
    verbose: bool = False,
    expected_controller: str | None = None,
) -> int:
    """Execute one scenario; returns the process exit code."""
    try:
        scenario = _load_scenario(Path(config_path))
        if seed is not None:
            scenario.seed = int(seed)
        if scenario.seed < 0:
            raise ConfigurationError(f"seed must be non-negative, got {scenario.seed}")
        if expected_controller is not None and scenario.controller != expected_controller:
            raise ConfigurationError(
                f"config declares controller {scenario.controller!r}, "
                f"invoked as {expected_controller!r}"
            )
        if out_dir is None:
            out_dir = scenario.config.get("scenario", "output", fallback="out")
            out_path = (scenario.base_dir / out_dir).resolve()
        else:
            out_path = Path(out_dir).resolve()
        out_path.mkdir(parents=True, exist_ok=True)
    except (SwarmCtrlError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    try:
        ok = _RUNNERS[scenario.controller](scenario, out_path)
    except SwarmCtrlError as exc:
        print(f"error [{type(exc).__module__}.{type(exc).__name__}]: {exc}", file=sys.stderr)
        return USAGE_ERROR if isinstance(exc, ConfigurationError) else NUMERICAL_ERROR
    if verbose:
        print(f"{scenario.name}: {'pass' if ok else 'FAIL'} (artifacts in {out_path})")
    return 0 if ok else NUMERICAL_ERROR


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="swarmctrl",
        description="Run density-control scenarios and write CSV artifacts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in CONTROLLERS:
        p = sub.add_parser(name, help=f"run a {name} scenario")
        p.add_argument("--config", required=True, help="scenario config file")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", default=None, type=int, help="override the config seed")
        p.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)
    return run_scenario(
        args.config,
        out_dir=args.out,
        seed=args.seed,
        verbose=args.verbose,
        expected_controller=args.command,
    )


if __name__ == "__main__":
    sys.exit(main())
