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
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import control as ctl
from . import ctmc, hybrid, particles
from .errors import SwarmCtrlError, ConfigurationError
from .expressions import evaluate
from .grid import RectDomain, ScalarField, build_grid, l2_norm, mass
from .pde import (
    StepperConfig,
    evolve_stabilizing,
    fit_decay_rate,
    march,
    relaxation_operator,
)

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
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    with open(path, "r", encoding="utf-8") as handle:
        parser.read_file(handle)
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


def _number(sc: Scenario, section: str, key: str, fallback, kind=float):
    raw = sc.config.get(section, key, fallback=None)
    return fallback if raw is None else _parse(kind, raw, f"[{section}] {key}")


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
    """Closed-form expression over x (and y), or a tabulated CSV column."""
    cfg = sc.config
    if not cfg.has_section(section):
        raise ConfigurationError(f"config is missing the [{section}] section")
    if cfg.has_option(section, "expr"):
        grids = domain.center_grids()
        names = {"x": grids[0]}
        if domain.dim > 1:
            names["y"] = grids[1]
        values = evaluate(cfg.get(section, "expr"), **names)
        values = np.broadcast_to(values, domain.shape).copy()
        return ScalarField(domain, values)
    if cfg.has_option(section, "table"):
        table = sc.base_dir / cfg.get(section, "table")
        if not table.is_file():
            raise ConfigurationError(f"tabulated density not found: {table}")
        values = np.loadtxt(table, delimiter=",", ndmin=1)
        return ScalarField(domain, values)
    raise ConfigurationError(f"[{section}] needs either 'expr' or 'table'")


def _stepper_config(sc: Scenario) -> StepperConfig:
    cfg = sc.config
    return StepperConfig(
        dt=_number(sc, "pde", "dt", 1e-3),
        scheme=cfg.get("pde", "scheme", fallback="implicit_euler"),
        advection_flux=cfg.get("pde", "flux", fallback="exponential"),
    )


def _positive(name: str, value):
    if not 0 < value < math.inf:
        raise ConfigurationError(f"{name} must be finite and positive, got {value}")
    return value


def _graph_from_config(sc: Scenario) -> ctmc.TransitionGraph:
    cfg = sc.config
    if not cfg.has_section("graph"):
        raise ConfigurationError("config is missing the [graph] section")
    if cfg.has_option("graph", "file"):
        path = sc.base_dir / cfg.get("graph", "file")
        if not path.is_file():
            raise ConfigurationError(f"edge list not found: {path}")
        return ctmc.read_edge_list(path)
    if cfg.has_option("graph", "edges"):
        import io

        return ctmc.read_edge_list(io.StringIO(cfg.get("graph", "edges")))
    raise ConfigurationError("[graph] needs either 'edges' or 'file'")


_CSV_BLOCK_ROWS = 4096  # particles.csv rows formatted per write


def _fmt(value: float) -> str:
    return repr(float(value))


def _write_density_csv(path: Path, snapshots) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("t,cell,value\n")
        for t, field in snapshots:
            for idx, value in enumerate(field.flat):
                handle.write(f"{_fmt(t)},{idx},{_fmt(value)}\n")


def _write_stacked_csv(path: Path, snapshots) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("t,state,cell,value\n")
        for t, stacked in snapshots:
            for s, field in enumerate(stacked.fields, start=1):
                for idx, value in enumerate(field.flat):
                    handle.write(f"{_fmt(t)},{s},{idx},{_fmt(value)}\n")


def _write_particles_csv(path: Path, ens: particles.ParticleEnsemble) -> None:
    """One row per particle: id, state, coordinates (``_fmt`` numbers).

    Rows are formatted from Python lists a block at a time, so memory
    stays at one block of rows whatever the ensemble size.
    """
    cols = ",".join(f"x{d}" for d in range(ens.domain.dim))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"id,state,{cols}\n")
        for start in range(0, ens.count, _CSV_BLOCK_ROWS):
            block = slice(start, start + _CSV_BLOCK_ROWS)
            rows = zip(
                range(start, ens.count),
                ens.states[block].tolist(),
                ens.positions[block].tolist(),
            )
            handle.write("".join(
                f"{pid},{state},{','.join(map(repr, coords))}\n"
                for pid, state, coords in rows
            ))


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
    """Pass/fail entries for every threshold listed in [check]."""
    checks = []
    if sc.config.has_section("check"):
        for key, raw in sc.config.items("check"):
            name = key.strip()
            threshold = _parse(float, raw, f"[check] {name}")
            if name not in measured:
                checks.append(
                    {"name": name, "value": None, "threshold": threshold, "pass": False}
                )
                continue
            value = float(measured[name])
            checks.append(
                {
                    "name": name,
                    "value": value,
                    "threshold": threshold,
                    "pass": bool(value <= threshold),
                }
            )
    return checks


# ---------------------------------------------------------------------------
# runners


def _run_stabilize(sc: Scenario, out_dir: Path) -> bool:
    domain = _build_domain(sc)
    cfg = _stepper_config(sc)
    target = _field_from_spec(sc, domain, "target").normalized()
    td = ctl.TargetDensity.create(target)
    if sc.config.has_section("initial"):
        y = _field_from_spec(sc, domain, "initial").normalized()
    else:
        y = ScalarField.constant(domain, 1.0 / float(np.prod(domain.lengths)))
    t_final = _number(sc, "run", "t_final", 1.0)
    n_snapshots = _positive("[run] snapshots", _number(sc, "run", "snapshots", 6, int))
    velocity = ctl.stabilizing_velocity(td, 1.0)
    relax = relaxation_operator(target).matrix  # D = 1, assembled once

    times, errors, snapshots = [], [], []
    step_t = t_final / n_snapshots
    t = 0.0
    snapshots.append((t, y.copy()))
    times.append(t)
    errors.append(l2_norm(ScalarField(domain, y.values - target.values)))
    for _ in range(n_snapshots):
        for block in march(relax, y.flat, step_t, domain, cfg):
            pass
        y = ScalarField(domain, block[-1].copy())
        t += step_t
        snapshots.append((t, y.copy()))
        times.append(t)
        errors.append(l2_norm(ScalarField(domain, y.values - target.values)))
    fit = None
    positive = [(tt, e) for tt, e in zip(times, errors) if e > 1e-14]
    if len(positive) >= 3:
        fit = fit_decay_rate([p[0] for p in positive], [p[1] for p in positive])

    _write_density_csv(out_dir / "density.csv", snapshots)
    measured = {
        "final_error": errors[-1],
        "mass_drift": abs(mass(y) - 1.0),
        "max_velocity": velocity.max_abs(),
    }
    if fit is not None:
        measured["decay_rate"] = fit.rate
    return _finish(sc, out_dir, measured, domain=domain, t_final=t_final)


def _run_steer(sc: Scenario, out_dir: Path) -> bool:
    domain = _build_domain(sc)
    cfg = _stepper_config(sc)
    target = ctl.TargetDensity.create(_field_from_spec(sc, domain, "target").normalized())
    y0 = _field_from_spec(sc, domain, "initial").normalized()
    t_final = _number(sc, "run", "t_final", 1.0)
    tol = _number(sc, "run", "tolerance", 1e-2)
    plan = ctl.synthesize_steering_plan(y0, target, t_final, tol)
    run = ctl.execute_plan(plan, y0, cfg)

    with open(out_dir / "plan.txt", "w", encoding="utf-8") as handle:
        handle.write(plan.to_text())
    _write_density_csv(out_dir / "density.csv", run.snapshots)
    measured = {
        "final_error": run.final_error_l2,
        "max_velocity": run.max_velocity,
        "predicted_error": plan.predicted_error,
    }
    return _finish(
        sc,
        out_dir,
        measured,
        domain=domain,
        t_final=t_final,
        tolerance=tol,
        gain_intervals=plan.schedule.truncation,
        alpha=plan.schedule.alpha,
        spectral_gap=plan.schedule.gap,
    )


def _run_path(sc: Scenario, out_dir: Path) -> bool:
    domain = _build_domain(sc)
    g0 = _field_from_spec(sc, domain, "path_start").normalized()
    g1 = _field_from_spec(sc, domain, "path_end").normalized()
    t_final = _positive("[run] t_final", _number(sc, "run", "t_final", 1.0))
    n_steps = _positive("[run] steps", _number(sc, "run", "steps", 1000, int))

    def gamma(t):
        s = t / t_final
        return ScalarField(domain, (1 - s) * g0.values + s * g1.values)

    def dgamma(_t):
        return ScalarField(domain, (g1.values - g0.values) / t_final)

    res = ctl.follow_path(gamma, dgamma, t_final, n_steps=n_steps)
    _write_density_csv(out_dir / "density.csv", [(t_final, res.final_state)])
    measured = {"tracking_error": res.sup_error, "max_velocity": res.max_velocity}
    return _finish(sc, out_dir, measured, domain=domain, t_final=t_final, steps=n_steps)


def _distribution_option(sc: Scenario, key: str, n: int) -> np.ndarray:
    raw = sc.config.get("run", key, fallback=None)
    if raw is None:
        raise ConfigurationError(f"[run] needs '{key}'")
    values = np.array([_parse(float, v, f"[run] {key}") for v in raw.split()])
    if values.size != n:
        raise ConfigurationError(f"'{key}' needs {n} entries")
    return values


def _run_ctmc_plan(sc: Scenario, out_dir: Path) -> bool:
    graph = _graph_from_config(sc)
    mu0 = _distribution_option(sc, "mu0", graph.n_vertices)
    mu_target = _distribution_option(sc, "mu_target", graph.n_vertices)
    duration = _number(sc, "run", "t_final", 1.0)
    ctrl = ctmc.transfer_control(graph, mu0, mu_target, duration)
    traj = ctmc.propagate(mu0, ctrl)
    endpoint_error = float(np.max(np.abs(traj[-1] - mu_target)))

    ctmc.control_to_csv(ctrl, out_dir / "control.csv")
    with open(out_dir / "trajectory.csv", "w", encoding="utf-8") as handle:
        handle.write("t," + ",".join(f"mu{v}" for v in range(1, graph.n_vertices + 1)) + "\n")
        for t, state in zip(ctrl.breakpoints, traj):
            handle.write(_fmt(t) + "," + ",".join(_fmt(v) for v in state) + "\n")
    measured = {"endpoint_error": endpoint_error, "max_rate": ctrl.max_rate()}
    return _finish(
        sc, out_dir, measured, graph=graph, t_final=duration, intervals=ctrl.n_intervals
    )


def _state_targets(sc: Scenario, domain: RectDomain, n: int) -> hybrid.HybridTarget:
    fields = []
    for k in range(1, n + 1):
        fields.append(_field_from_spec(sc, domain, f"target.{k}"))
    total = sum(mass(f) for f in fields)
    fields = [ScalarField(domain, f.values / total) for f in fields]
    return hybrid.HybridTarget.create(fields)


def _run_hsdp_steer(sc: Scenario, out_dir: Path) -> bool:
    domain = _build_domain(sc)
    cfg = _stepper_config(sc)
    graph = _graph_from_config(sc)
    n = graph.n_vertices
    target = _state_targets(sc, domain, n)
    init_fields = []
    for k in range(1, n + 1):
        section = f"initial.{k}"
        if sc.config.has_section(section):
            init_fields.append(_field_from_spec(sc, domain, section))
        else:
            init_fields.append(ScalarField.constant(domain, 0.0))
    total = sum(mass(f) for f in init_fields)
    if total <= 0:
        raise ConfigurationError("initial stack has no mass")
    initial = hybrid.StackedDensity(
        tuple(ScalarField(domain, f.values / total) for f in init_fields)
    )
    t_final = _number(sc, "run", "t_final", 2.0)
    tol = _number(sc, "run", "tolerance", 1e-2)
    plan = hybrid.hybrid_steering_plan(graph, initial, target, t_final, tol)
    run = hybrid.execute_hybrid_plan(plan, initial, cfg)

    _write_stacked_csv(
        out_dir / "stacked.csv",
        [(0.0, initial), (t_final / 2.0, run.switch_state), (t_final, run.final_state)],
    )
    ctmc.control_to_csv(plan.mass_control, out_dir / "control.csv")
    measured = {
        "final_error": float(np.max(run.per_state_error_l2)),
        "max_velocity": run.max_velocity,
        "mass_error_at_switch": float(
            np.max(np.abs(run.switch_state.mass_vector() - target.mass_vector()))
        ),
        "max_rate": plan.mass_control.max_rate(),
    }
    return _finish(
        sc,
        out_dir,
        measured,
        domain=domain,
        graph=graph,
        t_final=t_final,
        tolerance=tol,
        intervals=plan.mass_control.n_intervals,
    )


def _run_hsdp_stabilize(sc: Scenario, out_dir: Path) -> bool:
    domain = _build_domain(sc)
    cfg = _stepper_config(sc)
    graph = _graph_from_config(sc)
    n = graph.n_vertices
    target = _state_targets(sc, domain, n)
    diffusion = [_number(sc, "pde", "diffusion", 1.0)] * n
    if target.full_support():
        rates = ctmc.synthesize_stationary_rates(graph, target.mass_vector())
        gains = hybrid.stabilizing_gains(graph, target, rates)
    else:
        gains = hybrid.zero_mass_stabilizing_gains(graph, target)
    velocities = hybrid.stabilizing_velocities(target, diffusion)
    rng = np.random.Generator(np.random.Philox(sc.seed))
    arrays = [0.2 + rng.random(domain.shape) for _ in range(n)]
    total = sum(a.sum() for a in arrays) * domain.cell_volume
    state = hybrid.StackedDensity(
        tuple(ScalarField(domain, a / total) for a in arrays)
    )
    t_final = _number(sc, "run", "t_final", 10.0)
    if t_final <= 0:
        raise ConfigurationError(f"t_final must be positive, got {t_final}")
    n_steps = int(math.ceil(t_final / (cfg.dt * 10)))
    dt = t_final / n_steps
    stepper = hybrid.SplitStepper(domain, velocities, diffusion, gains, dt, cfg)
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
    positive = [(tt, e) for tt, e in zip(times, errors) if e > 1e-13]
    fit = fit_decay_rate([p[0] for p in positive], [p[1] for p in positive]) if len(positive) >= 3 else None

    with open(out_dir / "gains.csv", "w", encoding="utf-8") as handle:
        handle.write("edge,cell,value\n")
        for (i, j), gain in zip(graph.edges, gains.gains):
            for idx, value in enumerate(gain.reshape(-1)):
                handle.write(f"{i}->{j},{idx},{_fmt(value)}\n")
    _write_stacked_csv(out_dir / "stacked.csv", [(t_final, state)])
    measured = {
        "final_error": errors[-1],
        "total_mass_drift": abs(state.total_mass() - 1.0),
    }
    if fit is not None:
        measured["decay_rate"] = fit.rate
    return _finish(sc, out_dir, measured, domain=domain, graph=graph, t_final=t_final)


def _run_particles(sc: Scenario, out_dir: Path) -> bool:
    domain = _build_domain(sc)
    cfg = _stepper_config(sc)
    target = _field_from_spec(sc, domain, "target").normalized()
    td = ctl.TargetDensity.create(target)
    velocity = ctl.stabilizing_velocity(td, 1.0)
    count = _number(sc, "particles", "count", 10000, int)
    dt = _positive("[particles] dt", _number(sc, "particles", "dt", 1e-3))
    t_final = _number(sc, "run", "t_final", 1.0)
    ens = particles.ParticleEnsemble.uniform(domain, count, state=1, seed=sc.seed)
    n_steps = int(round(t_final / dt))
    for _ in range(n_steps):
        particles.sde_step(ens, [velocity], [1.0], None, dt)
    emp = particles.empirical_density(ens, domain, 1)
    y0 = ScalarField.constant(domain, 1.0 / float(np.prod(domain.lengths)))
    ypde = evolve_stabilizing(y0, target, 1.0, t_final, cfg)
    l1 = float(
        np.sum(np.abs(emp.density.fields[0].values - ypde.values)) * domain.cell_volume
    )

    _write_particles_csv(out_dir / "particles.csv", ens)
    _write_density_csv(out_dir / "empirical.csv", [(t_final, emp.density.fields[0])])
    measured = {"l1_distance": l1}
    return _finish(
        sc, out_dir, measured, domain=domain, count=count, dt=dt, t_final=t_final
    )


def _run_spectrum(sc: Scenario, out_dir: Path) -> bool:
    graph = _graph_from_config(sc)
    raw = sc.config.get("run", "rates", fallback=None)
    if raw is not None:
        rates = np.array([_parse(float, v, "[run] rates") for v in raw.split()])
        if rates.size != graph.n_edges:
            raise ConfigurationError(f"'rates' needs {graph.n_edges} entries")
    else:
        mu_eq = _distribution_option(sc, "mu_eq", graph.n_vertices)
        rates = ctmc.synthesize_stationary_rates(graph, mu_eq)
    report = ctmc.spectrum_check(graph, rates)

    with open(out_dir / "spectrum.csv", "w", encoding="utf-8") as handle:
        handle.write("index,real,imag\n")
        for idx, lam in enumerate(report.eigenvalues):
            handle.write(f"{idx},{_fmt(lam.real)},{_fmt(lam.imag)}\n")
    measured = {"max_real_part": report.max_real_part}
    return _finish(
        sc,
        out_dir,
        measured,
        graph=graph,
        rates=[float(r) for r in rates],
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
