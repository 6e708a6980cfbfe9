"""Seeded inputs for the three workloads.

``build(workload, seed)`` returns the workload's operations in run order.
Each operation is a dict that run.py turns into one child process:

- ``kind = "cli"``: a scenario config run through ``swarmctrl.cli``;
- ``kind = "lib"``: a library-only certificate or simulation that the CLI
  does not expose (see ``child.py``).

The seed only perturbs amplitudes, phases and centres, so every seed gives
the same amount of work (steps, factorizations, CTMC intervals) while the
inputs themselves differ.  Densities are kept as term lists ("specs"): the
config expression is rendered from the spec and the output checks evaluate
the same spec with numpy, so the two cannot drift apart.
"""

from __future__ import annotations

import math

import numpy as np

WORKLOADS = ("scalar-1d", "steer-2d", "hybrid-1d")


def _r(rng: np.random.Generator, lo: float, hi: float) -> float:
    """Seeded value in [lo, hi], rounded so configs print without exponents."""
    return round(float(rng.uniform(lo, hi)), 4)


# ---------------------------------------------------------------------------
# density specs: rendered into config expressions, evaluated by the checks


def expression(spec: list) -> str:
    """Config expression of a density spec (a list of terms)."""
    parts = []
    for kind, *p in spec:
        if kind == "const":
            parts.append(repr(p[0]))
        elif kind in ("cos", "sin"):
            parts.append(f"{p[0]!r}*{kind}({p[1]}*pi*x + {p[2]!r})")
        elif kind == "bump":
            parts.append(f"{p[0]!r}*exp(-(x - {p[1]!r})^2 / {p[2]!r})")
        elif kind == "cos2d":
            parts.append(f"{p[0]!r}*cos(pi*x + {p[1]!r})*cos(pi*y + {p[2]!r})")
        elif kind == "bump2d":
            parts.append(
                f"{p[0]!r}*exp(-((x - {p[1]!r})^2 + (y - {p[2]!r})^2) / {p[3]!r})"
            )
        else:
            raise ValueError(f"unknown term {kind!r}")
    return " + ".join(parts)


def evaluate(spec: list, cells) -> np.ndarray:
    """The benchmark's own numpy evaluation of a density spec on the cell
    centres of the unit box (not normalized)."""
    axes = [(np.arange(n) + 0.5) / n for n in cells]
    grids = np.meshgrid(*axes, indexing="ij")
    x = grids[0]
    y = grids[-1]
    out = np.zeros(tuple(cells))
    for kind, *p in spec:
        if kind == "const":
            out = out + p[0]
        elif kind == "cos":
            out = out + p[0] * np.cos(p[1] * np.pi * x + p[2])
        elif kind == "sin":
            out = out + p[0] * np.sin(p[1] * np.pi * x + p[2])
        elif kind == "bump":
            out = out + p[0] * np.exp(-((x - p[1]) ** 2) / p[2])
        elif kind == "cos2d":
            out = out + p[0] * np.cos(np.pi * x + p[1]) * np.cos(np.pi * y + p[2])
        elif kind == "bump2d":
            out = out + p[0] * np.exp(-((x - p[1]) ** 2 + (y - p[2]) ** 2) / p[3])
        else:
            raise ValueError(f"unknown term {kind!r}")
    return out


def normalized(spec: list, cells) -> np.ndarray:
    """Unit-mass discrete density of a spec, as the CLI normalizes it."""
    values = evaluate(spec, cells)
    return values / (values.sum() / math.prod(cells))


# ---------------------------------------------------------------------------
# operations


def _cfg(sections: dict) -> str:
    lines = []
    for name, body in sections.items():
        lines.append(f"[{name}]")
        lines += [f"{key} = {value}" for key, value in body.items()]
        lines.append("")
    return "\n".join(lines)


def _cli(name: str, seed: int, sections: dict, check: dict, controller: str | None = None) -> dict:
    controller = controller or name
    head = {"scenario": {"name": name, "controller": controller, "seed": seed}}
    return {
        "name": name,
        "kind": "cli",
        "controller": controller,
        "config": _cfg({**head, **sections}),
        "check": check,
    }


def _edges(edges) -> str:
    return "\n    ".join(f"{i} {j}" for i, j in edges)


def _domain(cells) -> dict:
    return {
        "dim": len(cells),
        "lengths": " ".join("1.0" for _ in cells),
        "cells": " ".join(str(n) for n in cells),
    }


def _steer(name: str, seed: int, cells, target, initial, t_final: float) -> dict:
    return _cli(
        name, seed,
        {
            "domain": _domain(cells),
            "pde": {"dt": "1e-3"},
            "target": {"expr": expression(target)},
            "initial": {"expr": expression(initial)},
            "run": {"t_final": t_final, "tolerance": "1e-2"},
            "check": {"final_error": "1e-2"},
        },
        {"cells": cells, "target": target, "tolerance": 1e-2},
        controller="steer-density",
    )


def _scalar_1d(seed: int, rng: np.random.Generator) -> list[dict]:
    """Every single-state controller; no CTMC or hybrid code runs."""
    ops = []
    # steer-density on 256 cells: ~16k implicit steps, each followed by the
    # feedback-velocity witness
    target = [["const", 1.7], ["sin", _r(rng, 0.25, 0.35), 2, _r(rng, 0.0, 2 * math.pi)]]
    initial = [["bump", 1.0, _r(rng, 0.45, 0.55), _r(rng, 0.004, 0.006)]]
    ops.append(_steer("steer-density", seed, [256], target, initial, 0.25))
    # stabilize on 128 cells from a bump: ~16k implicit steps, no witness
    target = [["const", 1.0], ["cos", _r(rng, 0.25, 0.35), 1, _r(rng, 0.0, 2 * math.pi)]]
    initial = [["const", 0.5], ["bump", 1.0, _r(rng, 0.3, 0.7), 0.02]]
    ops.append(_cli(
        "stabilize", seed,
        {
            "domain": _domain([128]),
            "pde": {"dt": "1e-3"},
            "target": {"expr": expression(target)},
            "initial": {"expr": expression(initial)},
            "run": {"t_final": 1.0, "snapshots": 8},
            "check": {"final_error": "1e-4", "mass_drift": "1e-10"},
        },
        {"cells": [128], "target": target, "tolerance": 1e-4},
    ))
    # path-follow on 128 cells: a Poisson solve, an assembly and a
    # factorization at each of 1000 steps
    start = [["const", 1.0], ["cos", _r(rng, 0.25, 0.35), 1, _r(rng, 0.0, 2 * math.pi)]]
    end = [["const", 1.2], ["sin", _r(rng, 0.35, 0.45), 2, _r(rng, 0.0, 2 * math.pi)]]
    ops.append(_cli(
        "path-follow", seed,
        {
            "domain": _domain([128]),
            "path_start": {"expr": expression(start)},
            "path_end": {"expr": expression(end)},
            "run": {"t_final": 1.0, "steps": 1000},
            "check": {"tracking_error": "1e-6"},
        },
        {"cells": [128], "target": end, "tolerance": 1e-6},
    ))
    # particles without switching: 300 Euler-Maruyama steps of 40k particles
    target = [["const", 1.0], ["cos", _r(rng, 0.25, 0.35), 1, _r(rng, 0.0, 2 * math.pi)]]
    ops.append(_cli(
        "particles", seed,
        {
            "domain": _domain([16]),
            "pde": {"dt": "1e-3"},
            "target": {"expr": expression(target)},
            "particles": {"count": 40000, "dt": "2e-3"},
            "run": {"t_final": 0.6},
            "check": {"l1_distance": "0.05"},
        },
        {"cells": [16], "target": [target], "tolerance": 0.05},
    ))
    return ops


def _steer_2d(seed: int, rng: np.random.Generator) -> list[dict]:
    """One 48x48 steering run: dense spectral gaps and 2D sparse LU."""
    target = [["const", 1.5], ["cos2d", _r(rng, 0.25, 0.35), _r(rng, 0.0, 0.5), _r(rng, 0.0, 0.5)]]
    initial = [["bump2d", 1.0, _r(rng, 0.35, 0.65), _r(rng, 0.35, 0.65), 0.02]]
    return [_steer("steer-density-2d", seed, [48, 48], target, initial, 1.0)]


# strongly connected and not bidirected
STAB_EDGES = [[1, 2], [2, 3], [3, 1], [2, 1]]
SPECTRUM_EDGES = [[1, 2], [2, 3], [3, 4], [4, 1], [1, 3]]


def _hybrid_1d(seed: int, rng: np.random.Generator) -> list[dict]:
    """CTMC synthesis and propagation, hybrid splitting, coupled spectra."""
    ops = []
    # hsdp-steer from an empty second state (test_14's shape): ~600 CTMC
    # intervals, one SplitStepper per interval.  Cosine terms sum to zero
    # over the cells, so the seed never moves the per-state masses.
    targets = [
        [["const", 0.4]],
        [["const", 0.6], ["cos", round(0.6 * _r(rng, 0.25, 0.35), 6), 1, 0.0]],
    ]
    sections = {
        "domain": _domain([128]),
        "pde": {"dt": "1e-3"},
        "graph": {"edges": _edges([[1, 2], [2, 1]])},
        "target.1": {"expr": expression(targets[0])},
        "target.2": {"expr": expression(targets[1])},
        "initial.1": {"expr": expression([["bump", 1.0, _r(rng, 0.25, 0.35), 0.0072]])},
        "run": {"t_final": 2.0, "tolerance": "1e-2"},
        "check": {"final_error": "1e-2", "mass_error_at_switch": "1e-9"},
    }
    ops.append(_cli(
        "hsdp-steer", seed, sections,
        {"cells": [128], "edges": [[1, 2], [2, 1]], "targets": targets,
         "mu0": [1.0, 0.0], "t_final": 2.0, "tolerance": 1e-2},
    ))
    # ctmc-plan from a near-boundary start on a 3-cycle: ~9.6k intervals
    a, b = _r(rng, 0.19, 0.21), _r(rng, 0.09, 0.11)
    mu0 = [0.001, a, round(1.0 - 0.001 - a, 4)]
    mu_target = [0.8, b, round(0.2 - b, 4)]
    ops.append(_cli(
        "ctmc-plan", seed,
        {
            "graph": {"edges": _edges([[1, 2], [2, 3], [3, 1]])},
            "run": {
                "t_final": 1.0,
                "mu0": " ".join(repr(v) for v in mu0),
                "mu_target": " ".join(repr(v) for v in mu_target),
            },
            "check": {"endpoint_error": "1e-9"},
        },
        {"edges": [[1, 2], [2, 3], [3, 1]], "mu0": mu0, "mu_target": mu_target,
         "t_final": 1.0},
    ))
    # hsdp-stabilize with spatial gains on three states
    stab = [
        [["const", 0.3], ["cos", round(0.3 * _r(rng, 0.2, 0.3), 6), 1, 0.0]],
        [["const", 0.3], ["cos", round(0.3 * _r(rng, 0.2, 0.3), 6), 2, 0.0]],
        [["const", 0.4], ["cos", round(-0.4 * _r(rng, 0.2, 0.3), 6), 1, 0.0]],
    ]
    sections = {
        "domain": _domain([128]),
        "pde": {"dt": "1e-4", "diffusion": "1.0"},
        "graph": {"edges": _edges(STAB_EDGES)},
    }
    for k, spec in enumerate(stab, start=1):
        sections[f"target.{k}"] = {"expr": expression(spec)}
    sections["run"] = {"t_final": 0.3}
    sections["check"] = {"total_mass_drift": "1e-10"}
    ops.append(_cli("hsdp-stabilize", seed, sections, {"cells": [128], "targets": stab}))
    # spectrum of synthesized stationary rates on a graph that is not
    # bidirected (least-squares plus circulation branch)
    raw = [_r(rng, 0.8, 1.2) for _ in range(4)]
    mu_eq = [round(v / sum(raw), 6) for v in raw[:3]]
    mu_eq.append(round(1.0 - sum(mu_eq), 6))
    ops.append(_cli(
        "spectrum", seed,
        {
            "graph": {"edges": _edges(SPECTRUM_EDGES)},
            "run": {"mu_eq": " ".join(repr(v) for v in mu_eq)},
            "check": {"max_real_part": "1e-10"},
        },
        {"edges": SPECTRUM_EDGES, "mu_eq": mu_eq},
    ))
    # library only: dense coupled spectrum of the configuration hsdp-stabilize
    # ran (n = 3 x 128).  The zero eigenvalue carries roundoff of order
    # eps * |A| ~ 1/h^2: ~3e-11 here, but 2e-10 to 4e-10 at 256 cells, above
    # the absolute 1e-10 of its check.
    ops.append({
        "name": "coupled-spectrum",
        "kind": "lib",
        "params": {"cells": [128], "edges": STAB_EDGES, "targets": stab, "diffusion": 1.0},
        "check": {"cells": [128], "targets": stab},
    })
    # library only: switching particle run started from the stationary
    # stacked target (the CLI particle controller never switches)
    amp = _r(rng, 0.2, 0.3)
    targets = [
        [["const", 0.4], ["cos", round(0.4 * amp, 6), 1, 0.0]],
        [["const", 0.6], ["cos", round(-0.6 * amp, 6), 1, 0.0]],
    ]
    ops.append({
        "name": "switching-particles",
        "kind": "lib",
        "params": {"cells": [16], "edges": [[1, 2], [2, 1]], "targets": targets,
                   "count": 40000, "dt": 1e-3, "steps": 150, "seed": seed},
        "check": {"cells": [16], "target": targets, "tolerance": 0.05},
    })
    return ops


_GENERATORS = {"scalar-1d": _scalar_1d, "steer-2d": _steer_2d, "hybrid-1d": _hybrid_1d}


def build(workload: str, seed: int) -> list[dict]:
    """The workload's operations for one seed; the same seed gives the same list."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return _GENERATORS[workload](seed, rng)
