"""One operation in a fresh interpreter, as a user of ``swarmctrl`` runs it.

Usage: ``python child.py SPEC.json RESULT.json SPAWNED``.  The parent
(``run.py``) writes the spec (operation, config, output directory, seed,
trace flag), passes its ``time.monotonic()`` at spawn time and reads the
result.  Times:

- ``setup_s``: from the parent's spawn to loaded inputs, that is interpreter
  start, ``import swarmctrl.cli`` and the scenario load, up to the moment the
  controller starts;
- ``solve_s``: from loaded inputs to written artifacts (the output checks run
  later, in the parent);
- ``rss_mb``: peak resident set of this process when the artifacts are
  written.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def _write_csv(path: Path, header: str, rows) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(header + "\n")
        for row in rows:
            handle.write(",".join(v if isinstance(v, str) else repr(v) for v in row) + "\n")


def _stacked_fields(domain, specs):
    """Per-state fields of a stacked target with unit total mass."""
    from swarmctrl import ScalarField

    from workloads import evaluate

    fields = [evaluate(spec, domain.cells) for spec in specs]
    total = sum(f.sum() for f in fields) * domain.cell_volume
    return [ScalarField(domain, f / total) for f in fields]


def _lib_coupled_spectrum(params, out: Path, marks: dict) -> None:
    import swarmctrl
    from swarmctrl import ctmc, hybrid

    domain = swarmctrl.build_grid(1, [1.0], params["cells"])
    graph = ctmc.TransitionGraph(3, tuple(tuple(e) for e in params["edges"]))
    target = hybrid.HybridTarget.create(_stacked_fields(domain, params["targets"]))
    diffusion = [params["diffusion"]] * graph.n_vertices
    marks["loaded"] = time.monotonic()
    rates = ctmc.synthesize_stationary_rates(graph, target.mass_vector())
    gains = hybrid.stabilizing_gains(graph, target, rates)
    report = hybrid.coupled_spectrum(target, diffusion, gains)
    _write_csv(out / "spectrum.csv", "index,real,imag",
               ((k, float(v.real), float(v.imag)) for k, v in enumerate(report.eigenvalues)))
    _write_csv(out / "zero_vector.csv", "state,cell,value",
               ((s + 1, c, float(v)) for s, row in enumerate(report.zero_vector)
                for c, v in enumerate(row)))


def _lib_switching_particles(params, out: Path, marks: dict) -> None:
    import numpy as np
    import swarmctrl
    from swarmctrl import ctmc, hybrid, particles

    domain = swarmctrl.build_grid(1, [1.0], params["cells"])
    graph = ctmc.TransitionGraph(2, tuple(tuple(e) for e in params["edges"]))
    fields = _stacked_fields(domain, params["targets"])
    target = hybrid.HybridTarget.create(fields)
    # initial ensemble drawn from the stacked target: state by mass, cell
    # by density, uniform within the cell
    rng = np.random.Generator(np.random.Philox(params["seed"]))
    weights = np.concatenate([f.flat for f in fields]) * domain.cell_volume
    picks = rng.choice(weights.size, size=params["count"], p=weights / weights.sum())
    states, cells = np.divmod(picks, domain.cell_count)
    h = domain.spacing[0]
    positions = ((cells + rng.random(params["count"])) * h)[:, None]
    ensemble = particles.ParticleEnsemble(domain, positions, states + 1, rng)
    diffusion = [1.0, 1.0]
    marks["loaded"] = time.monotonic()
    rates = ctmc.synthesize_stationary_rates(graph, target.mass_vector())
    gains = hybrid.stabilizing_gains(graph, target, rates)
    velocities = hybrid.stabilizing_velocities(target, diffusion)
    for _ in range(params["steps"]):
        particles.sde_step(ensemble, velocities, diffusion, gains, params["dt"])
    emp = particles.empirical_density(ensemble, domain, 2)
    _write_csv(out / "empirical.csv", "state,cell,value",
               ((s + 1, c, float(v)) for s, f in enumerate(emp.density.fields)
                for c, v in enumerate(f.flat)))
    _write_csv(out / "particles.csv", "id,state,x0",
               ((k, int(s), float(x)) for k, (s, x) in
                enumerate(zip(ensemble.states, ensemble.positions[:, 0]))))


_LIBRARY = {
    "coupled-spectrum": _lib_coupled_spectrum,
    "switching-particles": _lib_switching_particles,
}


def main(spec_path: str, result_path: str, spawned: float) -> int:
    spec = json.loads(Path(spec_path).read_text())
    op = spec["op"]
    out = Path(spec["out_dir"])
    out.mkdir(parents=True, exist_ok=True)

    t0 = time.monotonic()
    from swarmctrl import cli
    import_s = time.monotonic() - t0

    tracer = None
    if spec["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    marks: dict = {}
    result = {"import_s": import_s, "rc": 1}
    try:
        if op["kind"] == "cli":
            runner = cli._RUNNERS[op["controller"]]

            def timed_runner(scenario, out_dir):
                marks["loaded"] = time.monotonic()
                return runner(scenario, out_dir)

            cli._RUNNERS[op["controller"]] = timed_runner
            rc = cli.run_scenario(spec["config"], out_dir=out, seed=spec["seed"],
                                  expected_controller=op["controller"])
        else:
            _LIBRARY[op["name"]](op["params"], out, marks)
            rc = 0
        end = time.monotonic()
        result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["rc"] = rc
        if "loaded" in marks:
            result["setup_s"] = marks["loaded"] - spawned
            result["solve_s"] = end - marks["loaded"]
    except Exception as exc:  # reported as a failed operation by run.py
        result["error"] = f"{type(exc).__name__}: {exc}"
    if tracer is not None:
        result["layers"] = tracer.summarize()
        with open(spec["spans"], "w", encoding="utf-8") as handle:
            json.dump(tracer.spans, handle)
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2], float(sys.argv[3])))
