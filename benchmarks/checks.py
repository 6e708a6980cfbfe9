"""Output checks, made apart from the program.

Each check reads the artifacts an operation wrote and compares them with
a closed form, a property the method guarantees, or the benchmark's own
numpy/scipy computation.  Checks run in the parent process after the timed rounds.
``check(op, out_dir)`` returns ``[(name, passed, detail), ...]``; artifacts
that cannot be read give one failed entry rather than an exception.
"""

from __future__ import annotations

import csv
import json
import math
import re
from pathlib import Path

import numpy as np
import scipy.linalg

from workloads import evaluate, normalized

MASS_TOL = 1e-10
TRANSFER_TOL = 1e-9
GAP_RTOL = 1e-8
NP_REPR = re.compile(r"^np\.float64\((.*)\)$")


def _rows(path: Path) -> list[list[str]]:
    """CSV rows without the header.  numpy scalars that ``repr`` wrote as
    ``np.float64(x)`` are read as ``x``: run.py counts that format
    fault on its own, and the checks here look at the numbers."""
    with open(path, encoding="utf-8") as handle:
        rows = list(csv.reader(handle))[1:]
    return [[NP_REPR.sub(r"\1", field) for field in row] for row in rows]


def _snapshots(path: Path, cells) -> list[tuple[float, np.ndarray]]:
    """density.csv (t,cell,value) as [(t, grid-shaped values), ...]."""
    out: dict[float, list[float]] = {}
    for t, _, value in _rows(path):
        out.setdefault(float(t), []).append(float(value))
    return [(t, np.array(v).reshape(cells)) for t, v in out.items()]


def _stacked(path: Path, n_states: int) -> dict[float, np.ndarray]:
    """stacked.csv (t,state,cell,value) as {t: (n_states, n_cells)}."""
    out: dict[float, list[float]] = {}
    for row in _rows(path):
        out.setdefault(float(row[0]), []).append(float(row[-1]))
    return {t: np.array(v).reshape(n_states, -1) for t, v in out.items()}


def _l2(values: np.ndarray, volume: float) -> float:
    return math.sqrt(float(np.sum(values**2)) * volume)


def _stacked_target(specs, cells) -> np.ndarray:
    fields = np.array([evaluate(spec, cells).reshape(-1) for spec in specs])
    return fields / (fields.sum() / math.prod(cells))


def _density_checks(snapshots, volume: float) -> list:
    drift = max(abs(float(v.sum()) * volume - 1.0) for _, v in snapshots)
    low = min(float(v.min()) for _, v in snapshots)
    return [
        ("mass within 1e-10 at every snapshot", drift <= MASS_TOL, f"max drift {drift:.3e}"),
        ("no negative cell", low >= 0.0, f"min value {low:.3e}"),
    ]


def _control_checks(path: Path, edges, mu0, mu_target, duration: float) -> list:
    """Re-propagate control.csv with the benchmark's own interval exponentials."""
    rows = _rows(path)
    n = max(max(e) for e in edges)
    m = len(edges)
    t0 = np.array([float(r[0]) for r in rows[::m]])
    t1 = np.array([float(r[1]) for r in rows[::m]])
    rates = np.array([float(r[3]) for r in rows]).reshape(-1, m)
    labels = [r[2] for r in rows[:m]]
    q = np.zeros((rates.shape[0], n, n))
    for k, (i, j) in enumerate(edges):
        q[:, i - 1, i - 1] -= rates[:, k]
        q[:, j - 1, i - 1] += rates[:, k]
    props = scipy.linalg.expm((t1 - t0)[:, None, None] * q)
    mu = np.array(mu0, dtype=float)
    for p in props:
        mu = p @ mu
    endpoint = float(np.max(np.abs(mu - np.asarray(mu_target))))
    contiguous = bool(t0[0] == 0.0 and np.all(t0[1:] == t1[:-1]))
    total = math.fsum(t1 - t0)
    return [
        ("control edges in graph order", labels == [f"{i}->{j}" for i, j in edges], str(labels)),
        ("re-propagated endpoint within 1e-9 of the target",
         endpoint <= TRANSFER_TOL, f"{endpoint:.3e} over {len(t0)} intervals"),
        ("all rates non-negative", bool(np.all(rates >= 0.0)), f"min {rates.min():.3e}"),
        ("intervals contiguous and sum to the horizon",
         contiguous and abs(total - duration) <= 1e-9, f"sum {total!r}"),
    ]


def _dense_weighted_gap(matrix, a: np.ndarray) -> float:
    """Second-smallest eigenvalue of -L, with L self-adjoint in the
    a-weighted product, from a dense symmetric solve."""
    sa = np.sqrt(a.reshape(-1))
    sym = -(matrix.toarray() * sa[:, None]) / sa[None, :]
    return float(np.linalg.eigvalsh(0.5 * (sym + sym.T))[1])


def _steer(op, out: Path) -> list:
    from swarmctrl.grid import ScalarField, build_grid, neumann_laplacian
    from swarmctrl.pde import weighted_heat_operator

    c = op["check"]
    cells = c["cells"]
    volume = 1.0 / math.prod(cells)
    snaps = _snapshots(out / "density.csv", cells)
    target = normalized(c["target"], cells)
    err = _l2(snaps[-1][1] - target, volume)
    results = _density_checks(snaps, volume)
    results.append(("final L2 error within tolerance", err <= c["tolerance"], f"{err:.3e}"))

    domain = build_grid(len(cells), [1.0] * len(cells), cells)
    heat = neumann_laplacian(domain).spectral_gap()
    closed = min(4.0 * n * n * math.sin(math.pi / (2 * n)) ** 2 for n in cells)
    rel = abs(heat - closed) / closed
    results.append(("Neumann heat gap matches the closed form", rel <= GAP_RTOL, f"rel {rel:.2e}"))
    a = 1.0 / target
    gap = json.loads((out / "metadata.json").read_text())["spectral_gap"]
    dense = _dense_weighted_gap(weighted_heat_operator(ScalarField(domain, a)).matrix, a)
    rel = abs(gap - dense) / dense
    results.append(("weighted heat gap matches a dense solve", rel <= GAP_RTOL, f"rel {rel:.2e}"))
    return results


def _relax(op, out: Path) -> list:
    """stabilize and path-follow: conservative, positive, ends at the target."""
    c = op["check"]
    cells = c["cells"]
    volume = 1.0 / math.prod(cells)
    snaps = _snapshots(out / "density.csv", cells)
    err = _l2(snaps[-1][1] - normalized(c["target"], cells), volume)
    return _density_checks(snaps, volume) + [
        ("final L2 error within tolerance", err <= c["tolerance"], f"{err:.3e}")
    ]


def _histogram(op, out: Path) -> list:
    """particles and switching-particles: empirical.csv near the target."""
    c = op["check"]
    cells = c["cells"]
    emp = np.array([float(r[-1]) for r in _rows(out / "empirical.csv")]).reshape(len(c["target"]), -1)
    l1 = float(np.sum(np.abs(emp - _stacked_target(c["target"], cells)))) / math.prod(cells)
    return [("histogram L1 distance to the target within 0.05",
             l1 <= c["tolerance"], f"{l1:.4f}")]


def _hsdp_steer(op, out: Path) -> list:
    c = op["check"]
    cells = c["cells"]
    volume = 1.0 / math.prod(cells)
    target = _stacked_target(c["targets"], cells)
    stack = _stacked(out / "stacked.csv", len(c["targets"]))
    t_final = c["t_final"]
    errors = [_l2(row, volume) for row in stack[t_final] - target]
    masses = stack[t_final / 2.0].sum(axis=1) * volume
    switch = float(np.max(np.abs(masses - target.sum(axis=1) * volume)))
    drift = max(abs(float(s.sum()) * volume - 1.0) for s in stack.values())
    return [
        ("per-state final L2 error within tolerance",
         max(errors) <= c["tolerance"], " ".join(f"{e:.3e}" for e in errors)),
        ("mass vector at the switch equals the target masses",
         switch <= TRANSFER_TOL, f"{switch:.3e}"),
        ("total mass within 1e-10 at every snapshot", drift <= MASS_TOL, f"{drift:.3e}"),
    ] + _control_checks(out / "control.csv", c["edges"], c["mu0"],
                        target.sum(axis=1) * volume, t_final / 2.0)


def _ctmc_plan(op, out: Path) -> list:
    c = op["check"]
    return _control_checks(out / "control.csv", c["edges"], c["mu0"], c["mu_target"],
                           c["t_final"])


def _hsdp_stabilize(op, out: Path) -> list:
    c = op["check"]
    volume = 1.0 / math.prod(c["cells"])
    (final,) = _stacked(out / "stacked.csv", len(c["targets"])).values()
    drift = abs(float(final.sum()) * volume - 1.0)
    return [
        ("total mass drift within 1e-10", drift <= MASS_TOL, f"{drift:.3e}"),
        ("no negative cell", float(final.min()) >= 0.0, f"{final.min():.3e}"),
    ]


def _spectrum(op, out: Path) -> list:
    c = op["check"]
    rates = np.array(json.loads((out / "metadata.json").read_text())["rates"])
    n = len(c["mu_eq"])
    q = np.zeros((n, n))
    for rate, (i, j) in zip(rates, c["edges"]):
        q[i - 1, i - 1] -= rate
        q[j - 1, i - 1] += rate
    residual = float(np.max(np.abs(q @ np.array(c["mu_eq"]))))
    own = np.sort_complex(np.linalg.eigvals(q))
    rows = _rows(out / "spectrum.csv")
    written = np.sort_complex(np.array([complex(float(r[1]), float(r[2])) for r in rows]))
    match = float(np.max(np.abs(own - written)))
    max_real = float(np.max(own.real))
    return [
        ("synthesized rates positive", bool(np.all(rates > 0)), f"min {rates.min():.3e}"),
        ("mu_eq stationary for the rates", residual <= 1e-12, f"{residual:.3e}"),
        ("eigenvalues match a dense solve", match <= 1e-9, f"{match:.3e}"),
        ("max real part <= 1e-10", max_real <= 1e-10, f"{max_real:.3e}"),
    ]


def _coupled_spectrum(op, out: Path) -> list:
    c = op["check"]
    max_real = max(float(r[1]) for r in _rows(out / "spectrum.csv"))
    vec = np.array([float(r[2]) for r in _rows(out / "zero_vector.csv")])
    target = _stacked_target(c["targets"], c["cells"]).reshape(-1)
    dev = float(np.max(np.abs(vec - target))) / float(np.max(target))
    return [
        ("coupled max real part <= 1e-10", max_real <= 1e-10, f"{max_real:.3e}"),
        ("zero vector is the stacked target", dev <= 1e-8, f"rel {dev:.3e}"),
    ]


_CHECKS = {
    "steer-density": _steer,
    "steer-density-2d": _steer,
    "stabilize": _relax,
    "path-follow": _relax,
    "particles": _histogram,
    "hsdp-steer": _hsdp_steer,
    "ctmc-plan": _ctmc_plan,
    "hsdp-stabilize": _hsdp_stabilize,
    "spectrum": _spectrum,
    "coupled-spectrum": _coupled_spectrum,
    "switching-particles": _histogram,
}


def check(op: dict, out: Path) -> list:
    try:
        return _CHECKS[op["name"]](op, out)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [("artifacts readable", False, f"{type(exc).__name__}: {exc}")]
