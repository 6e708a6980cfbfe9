import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from swarmctrl import cli
from swarmctrl.cli import _CSV_BLOCK_ROWS, _fmt, _write_particles_csv, main, run_scenario
from swarmctrl.ctmc import TransitionGraph, generator, synthesize_stationary_rates
from swarmctrl.grid import build_grid
from swarmctrl.particles import ParticleEnsemble, sde_step

STABILIZE_CFG = """
[scenario]
name = stab-demo
controller = stabilize
seed = 11

[domain]
dim = 1
lengths = 1.0
cells = 64

[pde]
dt = 1e-3

[target]
expr = 1 + 0.3*cos(pi*x)

[run]
t_final = 1.5
snapshots = 6

[check]
final_error = 1e-5
mass_drift = 1e-10
"""

CTMC_CFG = """
[scenario]
name = plan-demo
controller = ctmc-plan
seed = 0

[graph]
edges = 1 2
    2 3
    3 1

[run]
t_final = 1.0
mu0 = 0.6 0.2 0.2
mu_target = 0.2 0.3 0.5

[check]
endpoint_error = 1e-9
"""

STEER_CFG = """
[scenario]
name = steer-demo
controller = steer-density
seed = 0

[domain]
dim = 1
lengths = 1.0
cells = 64

[pde]
dt = 1e-3

[target]
expr = 1.7 + 0.3*sin(2*pi*x)

[initial]
expr = exp(-(x - 0.5)^2 / 0.005)

[run]
t_final = 1.0
tolerance = 1e-2

[check]
final_error = 1e-2
"""

SPECTRUM_CFG = """
[scenario]
name = spectrum-demo
controller = spectrum
seed = 0

[graph]
edges = 1 2
    2 1

[run]
mu_eq = 0.3333333333333333 0.6666666666666666

[check]
max_real_part = 1e-10
"""


def write_cfg(tmp_path, text, name="scenario.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def assert_control_csv_numeric(path):
    lines = path.read_text().splitlines()
    assert lines[0] == "t_start,t_end,edge,rate"
    assert len(lines) > 1
    for line in lines[1:]:
        t_start, t_end, edge, rate = line.split(",")
        assert "->" in edge
        for field in (t_start, t_end, rate):
            float(field)


def test_missing_config_is_usage_error(tmp_path):
    assert run_scenario(tmp_path / "nope.cfg") == 2


def test_bad_controller_is_usage_error(tmp_path):
    path = write_cfg(tmp_path, "[scenario]\ncontroller = bogus\n")
    assert run_scenario(path) == 2


def test_controller_mismatch_is_usage_error(tmp_path):
    path = write_cfg(tmp_path, STABILIZE_CFG)
    assert run_scenario(path, expected_controller="particles") == 2


def test_stabilize_scenario_artifacts(tmp_path):
    path = write_cfg(tmp_path, STABILIZE_CFG)
    out = tmp_path / "out"
    assert run_scenario(path, out_dir=out) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["pass"] is True
    names = {c["name"] for c in summary["checks"]}
    assert names == {"final_error", "mass_drift"}
    assert (out / "density.csv").exists()
    metadata = json.loads((out / "metadata.json").read_text())
    assert metadata["seed"] == 11
    assert "decay_rate" in metadata["measured"]


def test_same_seed_byte_identical(tmp_path):
    path = write_cfg(tmp_path, STABILIZE_CFG)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert run_scenario(path, out_dir=out1) == 0
    assert run_scenario(path, out_dir=out2) == 0
    for name in ("density.csv", "summary.json", "metadata.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_ctmc_plan_scenario(tmp_path):
    path = write_cfg(tmp_path, CTMC_CFG)
    out = tmp_path / "out"
    assert main(["ctmc-plan", "--config", str(path), "--out", str(out)]) == 0
    assert_control_csv_numeric(out / "control.csv")
    # one row per interval and edge of the 3-cycle
    rows = (out / "control.csv").read_text().splitlines()[1:]
    assert len(rows) == json.loads((out / "metadata.json").read_text())["intervals"] * 3
    assert (out / "trajectory.csv").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["pass"] is True


def test_ctmc_plan_equal_endpoints_span_t_final(tmp_path):
    text = CTMC_CFG.replace("mu_target = 0.2 0.3 0.5", "mu_target = 0.6 0.2 0.2")
    out = tmp_path / "out"
    assert run_scenario(write_cfg(tmp_path, text), out_dir=out) == 0
    rows = (out / "trajectory.csv").read_text().splitlines()[1:]
    assert len(rows) == 4  # t = 0 and one breakpoint per edge of the 3-cycle walk
    assert float(rows[-1].split(",")[0]) == 1.0
    metadata = json.loads((out / "metadata.json").read_text())
    assert metadata["intervals"] == 3
    assert metadata["measured"]["endpoint_error"] <= 1e-12


def test_steer_scenario(tmp_path):
    path = write_cfg(tmp_path, STEER_CFG)
    out = tmp_path / "out"
    assert main(["steer-density", "--config", str(path), "--out", str(out)]) == 0
    assert (out / "plan.txt").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["pass"] is True


def test_spectrum_scenario(tmp_path):
    path = write_cfg(tmp_path, SPECTRUM_CFG)
    out = tmp_path / "out"
    assert main(["spectrum", "--config", str(path), "--out", str(out)]) == 0
    metadata = json.loads((out / "metadata.json").read_text())
    np.testing.assert_allclose(metadata["rates"], [2.0, 1.0], atol=1e-12)


PATH_CFG = """
[scenario]
name = path-demo
controller = path-follow
seed = 0

[domain]
dim = 1
lengths = 1.0
cells = 64

[path_start]
expr = 1 + 0.3*cos(pi*x)

[path_end]
expr = 1.2 + 0.4*sin(2*pi*x)

[run]
t_final = 1.0
steps = 200

[check]
tracking_error = 1e-6
"""

HSDP_STEER_CFG = """
[scenario]
name = hsdp-steer-demo
controller = hsdp-steer
seed = 0

[domain]
dim = 1
lengths = 1.0
cells = 32

[pde]
dt = 2e-3

[graph]
edges = 1 2
    2 1

[target.1]
expr = 0.4

[target.2]
expr = 0.6*(1 + 0.3*cos(pi*x))

[initial.1]
expr = exp(-(x - 0.3)^2 / 0.01)

[run]
t_final = 1.0
tolerance = 5e-2

[check]
final_error = 5e-2
mass_error_at_switch = 1e-8
"""

HSDP_STAB_CFG = """
[scenario]
name = hsdp-stab-demo
controller = hsdp-stabilize
seed = 3

[domain]
dim = 1
lengths = 1.0
cells = 32

[pde]
dt = 1e-3
diffusion = 1.0

[graph]
edges = 1 2
    2 1

[target.1]
expr = 0.4

[target.2]
expr = 0.6*(1 + 0.3*cos(pi*x))

[run]
t_final = 8.0

[check]
final_error = 1e-4
total_mass_drift = 1e-10
"""

PARTICLES_CFG = """
[scenario]
name = particles-demo
controller = particles
seed = 21

[domain]
dim = 1
lengths = 1.0
cells = 16

[pde]
dt = 1e-3

[target]
expr = 1 + 0.3*cos(pi*x)

[particles]
count = 20000
dt = 2e-3

[run]
t_final = 0.5

[check]
l1_distance = 0.1
"""


def test_path_follow_scenario(tmp_path):
    path = write_cfg(tmp_path, PATH_CFG)
    out = tmp_path / "out"
    assert main(["path-follow", "--config", str(path), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["pass"] is True


def test_hsdp_steer_scenario(tmp_path):
    path = write_cfg(tmp_path, HSDP_STEER_CFG)
    out = tmp_path / "out"
    assert main(["hsdp-steer", "--config", str(path), "--out", str(out)]) == 0
    assert (out / "stacked.csv").exists()
    assert_control_csv_numeric(out / "control.csv")
    summary = json.loads((out / "summary.json").read_text())
    assert summary["pass"] is True
    # stage 1's rate control: interval count and max rate match control.csv
    metadata = json.loads((out / "metadata.json").read_text())
    rows = [line.split(",") for line in (out / "control.csv").read_text().splitlines()[1:]]
    assert metadata["intervals"] * len(metadata["edges"]) == len(rows)
    assert metadata["measured"]["max_rate"] == max(float(r[3]) for r in rows)


def test_hsdp_stabilize_scenario(tmp_path):
    path = write_cfg(tmp_path, HSDP_STAB_CFG)
    out = tmp_path / "out"
    assert main(["hsdp-stabilize", "--config", str(path), "--out", str(out)]) == 0
    assert (out / "gains.csv").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["pass"] is True
    metadata = json.loads((out / "metadata.json").read_text())
    assert metadata["measured"]["decay_rate"] > 0
    # final_error is the L2 error of the written t_final state
    rows = np.loadtxt(out / "stacked.csv", delimiter=",", skiprows=1)
    assert np.all(rows[:, 0] == 8.0)
    x = (np.arange(32) + 0.5) / 32
    target = np.stack([np.full(32, 0.4), 0.6 * (1 + 0.3 * np.cos(np.pi * x))])
    target /= target.sum() / 32
    expected = np.sqrt(np.sum((rows[:, 3].reshape(2, 32) - target) ** 2) / 32)
    assert metadata["measured"]["final_error"] == pytest.approx(expected, rel=1e-8)


def test_hsdp_stabilize_ends_at_t_final(tmp_path):
    # uniform targets give spatially constant gains, so the per-state
    # masses follow the rate ODE exactly and show when the run ended
    text = (
        HSDP_STAB_CFG.replace("0.6*(1 + 0.3*cos(pi*x))", "0.6")
        .replace("t_final = 8.0", "t_final = 0.305")
        .replace("final_error = 1e-4\n", "")
    )
    path = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert main(["hsdp-stabilize", "--config", str(path), "--out", str(out)]) == 0
    rows = np.loadtxt(out / "stacked.csv", delimiter=",", skiprows=1)
    assert np.all(rows[:, 0] == 0.305)
    masses = rows[:, 3].reshape(2, 32).sum(axis=1) / 32
    # the controller's seeded initial stack: 0.2 + uniform draws per state
    rng = np.random.Generator(np.random.Philox(3))
    m0 = np.array([np.sum(0.2 + rng.random(32)) for _ in range(2)])
    m0 /= m0.sum()
    graph = TransitionGraph(2, ((1, 2), (2, 1)))
    q = generator(graph, synthesize_stationary_rates(graph, np.array([0.4, 0.6])))
    np.testing.assert_allclose(masses, scipy.linalg.expm(0.305 * q) @ m0, rtol=1e-10)


def test_hsdp_stabilize_huge_dt_runs_one_step(tmp_path):
    # 10 * dt overflows to inf: the run takes one split step over t_final
    # and reports its checks, instead of dividing by zero steps
    path = write_cfg(tmp_path, HSDP_STAB_CFG.replace("dt = 1e-3", "dt = 1e308"))
    out = tmp_path / "out"
    assert run_scenario(path, out_dir=out) in (0, 1)
    assert (out / "summary.json").exists()


def test_particles_scenario(tmp_path):
    path = write_cfg(tmp_path, PARTICLES_CFG)
    out = tmp_path / "out"
    assert main(["particles", "--config", str(path), "--out", str(out)]) == 0
    assert (out / "particles.csv").exists()
    assert (out / "empirical.csv").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["pass"] is True


@pytest.mark.parametrize(
    "t_final, dt",
    [("1.0", "0.3"), ("0.5", "3e-3"), ("1e-3", "2e-3")],
    ids=["stops-short", "overshoots", "under-one-step"],
)
def test_particles_horizon_is_whole_steps(tmp_path, capsys, t_final, dt):
    text = PARTICLES_CFG.replace("t_final = 0.5", f"t_final = {t_final}")
    text = text.replace("dt = 2e-3", f"dt = {dt}")
    out = tmp_path / "out"
    assert run_scenario(write_cfg(tmp_path, text), out_dir=out) == 2
    assert "whole number" in capsys.readouterr().err
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize(
    "edits",
    [
        {"dt = 2e-3": "dt = 1e-300"},
        {"count = 20000": "count = 10000000000"},
        {"t_final = 0.5": "t_final = 1e300"},
        {"t_final = 0.5": "t_final = 1e300", "dt = 2e-3": "dt = 1e-300"},
    ],
    ids=["tiny-dt", "huge-count", "long-horizon", "overflowing-step-count"],
)
def test_particles_work_guard(tmp_path, capsys, monkeypatch, edits):
    # the guard must act before any particle exists: a run that got past
    # it stops here instead of stepping or allocating without bound
    def no_ensemble(*args, **kwargs):
        raise AssertionError("ensemble built past the work guard")

    monkeypatch.setattr(ParticleEnsemble, "uniform", no_ensemble)
    text = PARTICLES_CFG
    for key, value in edits.items():
        text = text.replace(key, value)
    out = tmp_path / "out"
    assert run_scenario(write_cfg(tmp_path, text), out_dir=out) == 2
    assert "particle steps" in capsys.readouterr().err
    assert not (out / "summary.json").exists()


def test_particles_work_guard_boundary(tmp_path, monkeypatch):
    path = write_cfg(tmp_path, PARTICLES_CFG)  # 20000 particles x 250 steps
    monkeypatch.setattr(cli, "MAX_PARTICLE_STEPS", 20000 * 250 - 1)
    assert run_scenario(path, out_dir=tmp_path / "over") == 2
    monkeypatch.setattr(cli, "MAX_PARTICLE_STEPS", 20000 * 250)
    assert run_scenario(path, out_dir=tmp_path / "at") == 0


@pytest.mark.parametrize("dim", [1, 2])
def test_particles_csv_matches_row_by_row_format(tmp_path, dim):
    domain = build_grid(dim, [1.0, 2.5][:dim], [16, 5][:dim])
    # more than one block of rows, the last one partial
    ens = ParticleEnsemble.uniform(domain, _CSV_BLOCK_ROWS + 500, seed=7)
    ens.states = np.random.default_rng(3).integers(1, 4, ens.count)
    ens.positions[0] = 0.0
    ens.positions[1] = domain.lengths
    ens.positions[2] = 1e-300
    sde_step(ens, [None] * 3, [0.5] * 3, None, 1e-3)
    _write_particles_csv(tmp_path / "particles.csv", ens)
    # reference: one write per row, every number through _fmt
    lines = ["id,state," + ",".join(f"x{d}" for d in range(dim)) + "\n"]
    for pid in range(ens.count):
        coords = ",".join(_fmt(c) for c in ens.positions[pid])
        lines.append(f"{pid},{ens.states[pid]},{coords}\n")
    assert (tmp_path / "particles.csv").read_bytes() == "".join(lines).encode("utf-8")


def test_failed_check_gives_nonzero_exit(tmp_path):
    failing = STABILIZE_CFG.replace("final_error = 1e-5", "final_error = 1e-30")
    path = write_cfg(tmp_path, failing)
    out = tmp_path / "out"
    assert run_scenario(path, out_dir=out) == 1
    summary = json.loads((out / "summary.json").read_text())
    assert summary["pass"] is False


def test_seed_override(tmp_path):
    path = write_cfg(tmp_path, STABILIZE_CFG)
    out = tmp_path / "out"
    assert run_scenario(path, out_dir=out, seed=99) == 0
    metadata = json.loads((out / "metadata.json").read_text())
    assert metadata["seed"] == 99


def test_config_error_inside_runner_is_usage_error(tmp_path):
    # the stabilize runner finds the missing [target] section only once it runs
    text = STABILIZE_CFG.replace("[target]\nexpr = 1 + 0.3*cos(pi*x)\n", "")
    path = write_cfg(tmp_path, text)
    assert run_scenario(path, out_dir=tmp_path / "out") == 2


@pytest.mark.parametrize(
    "text, old, new",
    [
        (PATH_CFG, "steps = 200", "steps = 0"),
        (PATH_CFG, "steps = 200", "steps = -3"),
        (STABILIZE_CFG, "snapshots = 6", "snapshots = 0"),
        (PARTICLES_CFG, "dt = 2e-3", "dt = 0"),
        (PATH_CFG, "t_final = 1.0", "t_final = -1"),
        (PATH_CFG, "t_final = 1.0", "t_final = inf"),
        (STABILIZE_CFG, "t_final = 1.5", "t_final = nan"),
        (STABILIZE_CFG, "t_final = 1.5", "t_final = inf"),
        (HSDP_STAB_CFG, "t_final = 8.0", "t_final = nan"),
        (STEER_CFG, "t_final = 1.0", "t_final = -1"),
        (STEER_CFG, "tolerance = 1e-2", "tolerance = nan"),
        (CTMC_CFG, "t_final = 1.0", "t_final = 0"),
        (HSDP_STEER_CFG, "tolerance = 5e-2", "tolerance = inf"),
        (PARTICLES_CFG, "count = 20000", "count = -5"),
        (HSDP_STAB_CFG, "diffusion = 1.0", "diffusion = -1"),
        (HSDP_STAB_CFG, "diffusion = 1.0", "diffusion = nan"),
        (HSDP_STAB_CFG, "diffusion = 1.0", "diffusion = inf"),
        (PARTICLES_CFG, "seed = 21", "seed = -1"),
        (HSDP_STAB_CFG, "seed = 3", "seed = -1"),
    ],
    ids=[
        "path-steps-0", "path-steps-negative", "stabilize-snapshots-0", "particles-dt-0",
        "path-t_final-negative", "path-t_final-inf", "stabilize-t_final-nan",
        "stabilize-t_final-inf", "hsdp-stabilize-t_final-nan", "steer-t_final-negative",
        "steer-tolerance-nan", "ctmc-t_final-0", "hsdp-steer-tolerance-inf",
        "particles-count-negative", "hsdp-stabilize-diffusion-negative",
        "hsdp-stabilize-diffusion-nan", "hsdp-stabilize-diffusion-inf",
        "particles-seed-negative", "hsdp-stabilize-seed-negative",
    ],
)
def test_nonpositive_counts_and_steps_rejected(tmp_path, text, old, new):
    assert old in text
    path = write_cfg(tmp_path, text.replace(old, new))
    out = tmp_path / "out"
    assert run_scenario(path, out_dir=out) == 2
    assert not (out / "summary.json").exists()


def test_zero_hsdp_diffusion_accepted(tmp_path):
    # the library allows pure reaction: the value reaches the run, which
    # writes its summary (the 1e-4 final_error check then fails, exit 1)
    path = write_cfg(tmp_path, HSDP_STAB_CFG.replace("diffusion = 1.0", "diffusion = 0"))
    out = tmp_path / "out"
    assert run_scenario(path, out_dir=out) != 2
    assert (out / "summary.json").exists()


@pytest.mark.parametrize(
    "text, old, new",
    [
        (CTMC_CFG, "mu0 = 0.6 0.2 0.2", "mu0 = nan 0.2 0.2"),
        (CTMC_CFG, "mu0 = 0.6 0.2 0.2", "mu0 = 0.6 -0.2 0.2"),
        (CTMC_CFG, "mu_target = 0.2 0.3 0.5", "mu_target = 0.2 0.3 inf"),
        (SPECTRUM_CFG, "mu_eq = 0.3333333333333333 0.6666666666666666", "mu_eq = -1 2"),
        (SPECTRUM_CFG, "mu_eq = 0.3333333333333333 0.6666666666666666", "rates = 1 nan"),
        (SPECTRUM_CFG, "mu_eq = 0.3333333333333333 0.6666666666666666", "rates = -1 1"),
        (CTMC_CFG, "mu0 = 0.6 0.2 0.2", "mu0 = 0.5 0.2 0.2"),
        (CTMC_CFG, "mu_target = 0.2 0.3 0.5", "mu_target = 1 0 0"),
        (SPECTRUM_CFG, "mu_eq = 0.3333333333333333 0.6666666666666666", "mu_eq = 0.5 0.6"),
        (SPECTRUM_CFG, "mu_eq = 0.3333333333333333 0.6666666666666666", "mu_eq = 1 0"),
    ],
    ids=[
        "ctmc-mu0-nan", "ctmc-mu0-negative", "ctmc-mu_target-inf", "spectrum-mu_eq-negative",
        "spectrum-rates-nan", "spectrum-rates-negative", "ctmc-mu0-sum", "ctmc-mu_target-zero",
        "spectrum-mu_eq-sum", "spectrum-mu_eq-zero",
    ],
)
def test_bad_distribution_entries_rejected(tmp_path, capsys, text, old, new):
    # entries must be finite and non-negative; distributions must sum to
    # 1, and targets (mu_target, mu_eq) must be positive
    assert old in text
    path = write_cfg(tmp_path, text.replace(old, new))
    out = tmp_path / "out"
    assert run_scenario(path, out_dir=out) == 2
    key = new.split(" =")[0]
    assert f"ConfigurationError]: [run] {key}" in capsys.readouterr().err
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("threshold", ["nan", "-1", "inf"])
def test_bad_check_threshold_is_usage_error(tmp_path, capsys, threshold):
    # a nan or negative threshold could never pass and inf always would
    path = write_cfg(tmp_path, STABILIZE_CFG.replace("mass_drift = 1e-10", f"mass_drift = {threshold}"))
    out = tmp_path / "out"
    assert run_scenario(path, out_dir=out) == 2
    assert "[check] mass_drift must be finite and non-negative" in capsys.readouterr().err
    assert not (out / "summary.json").exists()


def test_zero_check_threshold_accepted(tmp_path):
    # zero is a valid threshold; the roundoff-level mass drift then fails it
    path = write_cfg(tmp_path, STABILIZE_CFG.replace("mass_drift = 1e-10", "mass_drift = 0"))
    out = tmp_path / "out"
    assert run_scenario(path, out_dir=out) == 1
    checks = json.loads((out / "summary.json").read_text())["checks"]
    assert {c["name"]: c["threshold"] for c in checks}["mass_drift"] == 0.0


def test_zero_distribution_entry_accepted(tmp_path):
    # boundary starts: a zero entry of mu0 reaches the transfer
    path = write_cfg(tmp_path, CTMC_CFG.replace("mu0 = 0.6 0.2 0.2", "mu0 = 0.8 0.2 0"))
    out = tmp_path / "out"
    assert run_scenario(path, out_dir=out) == 0


@pytest.mark.parametrize(
    "text, old, new",
    [
        (PATH_CFG, "steps = 200", "steps = 1.5"),
        (STABILIZE_CFG, "t_final = 1.5", "t_final = soon"),
        (STABILIZE_CFG, "cells = 64", "cells = 6.5"),
        (STABILIZE_CFG, "final_error = 1e-5", "final_error = tiny"),
        (PARTICLES_CFG, "count = 20000", "count = 2e4"),
        (CTMC_CFG, "mu0 = 0.6 0.2 0.2", "mu0 = 0.6 0.2 x"),
        (HSDP_STAB_CFG, "dt = 1e-3", "dt = 1e-3s"),
    ],
    ids=[
        "path-steps", "stabilize-t_final", "domain-cells", "check-threshold",
        "particles-count", "ctmc-mu0", "pde-dt",
    ],
)
def test_malformed_number_is_usage_error(tmp_path, capsys, text, old, new):
    assert old in text
    path = write_cfg(tmp_path, text.replace(old, new))
    out = tmp_path / "out"
    assert run_scenario(path, out_dir=out) == 2
    assert "ConfigurationError" in capsys.readouterr().err
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize(
    "setting",
    ["scheme = implicit_euler", "scheme = crank_nicolson", "flux = centered"],
    ids=["scheme-implicit_euler", "scheme-crank_nicolson", "flux-centered"],
)
@pytest.mark.parametrize("text", [STEER_CFG, HSDP_STAB_CFG], ids=["steer", "hsdp-stabilize"])
def test_removed_pde_keys_rejected(tmp_path, capsys, text, setting):
    # every evolution is implicit Euler with the exponential-fitted flux; a
    # config that still asks for a scheme or flux is an error, not ignored
    path = write_cfg(tmp_path, text.replace("[pde]\n", f"[pde]\n{setting}\n"))
    out = tmp_path / "out"
    assert run_scenario(path, out_dir=out) == 2
    assert f"[pde] {setting.split()[0]}" in capsys.readouterr().err
    assert not (out / "summary.json").exists()


GRAPH_EDGES = re.compile(r"edges = .*\n(?:    .*\n)*")


@pytest.mark.parametrize(
    "edges", ["abc", "", "1 1", "1 2 3", "0"],
    ids=["word", "empty", "self-loop", "three-vertices", "one-vertex"],
)
@pytest.mark.parametrize(
    "text", [CTMC_CFG, SPECTRUM_CFG, HSDP_STEER_CFG], ids=["ctmc-plan", "spectrum", "hsdp-steer"]
)
def test_malformed_graph_edges_is_usage_error(tmp_path, capsys, text, edges):
    assert GRAPH_EDGES.search(text)
    path = write_cfg(tmp_path, GRAPH_EDGES.sub(f"edges = {edges}\n", text))
    out = tmp_path / "out"
    assert run_scenario(path, out_dir=out) == 2
    err = capsys.readouterr().err
    assert "ConfigurationError" in err and "[graph] edges" in err
    assert not (out / "summary.json").exists()


def test_malformed_graph_file_is_usage_error(tmp_path, capsys):
    (tmp_path / "edges.txt").write_text("1 2\n2 1 3\n")
    path = write_cfg(tmp_path, GRAPH_EDGES.sub("file = edges.txt\n", CTMC_CFG))
    out = tmp_path / "out"
    assert run_scenario(path, out_dir=out) == 2
    err = capsys.readouterr().err
    assert "ConfigurationError" in err and "[graph] file" in err and "line 2" in err
    assert not (out / "summary.json").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "text",
    [STABILIZE_CFG, HSDP_STEER_CFG, PATH_CFG, HSDP_STAB_CFG, PARTICLES_CFG],
    ids=["stabilize", "hsdp-steer", "path-follow", "hsdp-stabilize", "particles"],
)
def test_unfactorable_system_is_numerical_error(tmp_path, capsys, text):
    # a 1e-152 box passes build_grid (1/h^2 is still a finite float), but
    # the generators overflow and the factorization fails: one typed error
    # line and exit 1, not a traceback, and no numpy warning from the
    # overflowing assembly before it (100 particles reach the particles
    # controller's PDE reference sooner)
    text = text.replace("lengths = 1.0", "lengths = 1e-152").replace("count = 20000", "count = 100")
    path = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert run_scenario(path, out_dir=out) == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error [swarmctrl.errors.NumericalError]:")
    assert "cannot be factored" in lines[0]
    assert not (out / "summary.json").exists()


def test_malformed_density_table_is_usage_error(tmp_path, capsys):
    (tmp_path / "badtable.csv").write_text("1.0\nabc\n")
    text = STABILIZE_CFG.replace("expr = 1 + 0.3*cos(pi*x)", "table = badtable.csv")
    path = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert run_scenario(path, out_dir=out) == 2
    assert "ConfigurationError" in capsys.readouterr().err
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("shape", [(32, 2), (32,)], ids=["two-columns", "short-column"])
def test_wrong_shape_density_table_is_usage_error(tmp_path, capsys, shape):
    # a two-column table on 64 cells has 64 values, but they interleave x
    # and the density: it is rejected, not reshaped onto the grid
    np.savetxt(tmp_path / "table.csv", np.ones(shape), delimiter=",")
    text = STABILIZE_CFG.replace("expr = 1 + 0.3*cos(pi*x)", "table = table.csv")
    path = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert run_scenario(path, out_dir=out) == 2
    err = capsys.readouterr().err
    assert "ConfigurationError" in err and "[target] table" in err
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize(
    "cells, layout",
    [("64", "column"), ("64", "row"), ("8 6", "column"), ("8 6", "row"), ("8 6", "grid")],
    ids=["1d-column", "1d-row", "2d-column", "2d-row", "2d-grid"],
)
def test_density_table_layouts(tmp_path, cells, layout):
    # one value per cell as a column or a row (cells in C order, x slowest),
    # or in 2D a table of the grid's shape (one row per x cell)
    text = STABILIZE_CFG.replace("expr = 1 + 0.3*cos(pi*x)", "table = density.csv")
    if cells != "64":
        text = text.replace("dim = 1", "dim = 2").replace("lengths = 1.0", "lengths = 1.0 1.0")
        text = text.replace("cells = 64", f"cells = {cells}")
    sc = cli._load_scenario(write_cfg(tmp_path, text))
    domain = cli._build_domain(sc)
    values = 1.0 + np.arange(domain.cell_count).reshape(domain.shape)
    table = {"column": values.reshape(-1, 1), "row": values.reshape(1, -1), "grid": values}[layout]
    np.savetxt(tmp_path / "density.csv", table, delimiter=",")
    field = cli._field_from_spec(sc, domain, "target")
    assert field.values.tobytes() == values.tobytes()


@pytest.mark.parametrize(
    "old, new",
    [
        ("[scenario]", "seed = 3\n[scenario]"),
        ("cells = 64", "cells = 64\ncells = 32"),
        ("expr = 1 + 0.3*cos(pi*x)", "expr = 1 + 0.3*cos(pi*x) % 2"),
    ],
    ids=["key-before-section", "duplicate-option", "percent-sign"],
)
def test_malformed_ini_is_usage_error(tmp_path, capsys, old, new):
    # configparser's own errors, and a '%' that its interpolation would
    # reject, end in one error line at exit 2 (the '%' now reaches the
    # expression parser, which rejects it)
    assert old in STABILIZE_CFG
    path = write_cfg(tmp_path, STABILIZE_CFG.replace(old, new, 1))
    out = tmp_path / "out"
    assert run_scenario(path, out_dir=out) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error")
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize(
    "spelling",
    ["expr", "table", "expr = 1/0", "expr = 10^400", "expr = (-1)^0.5"],
    ids=["expr", "table", "divide-by-zero", "overflow", "complex-power"],
)
def test_non_finite_density_is_usage_error(tmp_path, capfd, spelling):
    if spelling == "expr":
        density = "expr = log(x - 2)"
    elif spelling.startswith("expr ="):
        density = spelling  # scalar arithmetic that Python floats would raise on
    else:
        (tmp_path / "nan.csv").write_text("1.0\n" * 63 + "nan\n")
        density = "table = nan.csv"
    path = write_cfg(tmp_path, STABILIZE_CFG.replace("expr = 1 + 0.3*cos(pi*x)", density))
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's invalid-value warning would escape
        assert run_scenario(path, out_dir=out) == 2
    err = capfd.readouterr().err
    assert "ConfigurationError" in err and "[target]" in err and "non-finite" in err
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("expr", ["0", "-1"], ids=["zero", "negative"])
@pytest.mark.parametrize(
    "text, section",
    [
        (STABILIZE_CFG, "target"),
        (STEER_CFG, "initial"),
        (PATH_CFG, "path_end"),
        (PARTICLES_CFG, "target"),
    ],
    ids=["stabilize", "steer", "path-follow", "particles"],
)
def test_non_positive_density_is_usage_error(tmp_path, capsys, text, section, expr):
    spec = re.compile(rf"(\[{section}\]\n)expr = .*\n")
    assert spec.search(text)
    path = write_cfg(tmp_path, spec.sub(rf"\g<1>expr = {expr}\n", text))
    out = tmp_path / "out"
    assert run_scenario(path, out_dir=out) == 2
    err = capsys.readouterr().err
    assert "ConfigurationError" in err and f"[{section}]" in err and "mass" in err
    assert not (out / "summary.json").exists()


def test_unresolvable_decay_fit_is_typed_error(tmp_path, capfd):
    # snapshot times k * 1.25e-301 square to zero, which numpy's polyfit
    # cannot scale; the fit reports a FitError line, not a LAPACK failure
    path = write_cfg(tmp_path, STABILIZE_CFG.replace("t_final = 1.5", "t_final = 1e-300"))
    out = tmp_path / "out"
    assert main(["stabilize", "--config", str(path), "--out", str(out)]) == 1
    captured = capfd.readouterr()
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error [swarmctrl.errors.FitError]:")
    assert "Traceback" not in captured.err and "DLASCL" not in captured.out + captured.err
    assert not (out / "summary.json").exists()


def test_decay_fit_ignores_roundoff_tail():
    # an exact exponential that levels off at 1e-12 roundoff noise: only
    # errors above 1e-8 of the first enter the fit, so it gives the exact rate
    times = np.linspace(0.0, 3.0, 31)
    noise = 1e-12 * (1.0 + np.random.default_rng(0).random(times.size))
    errors = np.maximum(np.exp(-10.0 * times), noise)
    fitted = cli._decay_rate(times.tolist(), errors.tolist())["decay_rate"]
    assert fitted == pytest.approx(10.0, rel=1e-12)


@pytest.mark.parametrize(
    "text, controller",
    [(PARTICLES_CFG, "particles"), (HSDP_STAB_CFG, "hsdp-stabilize")],
    ids=["particles", "hsdp-stabilize"],
)
def test_negative_seed_flag_is_usage_error(tmp_path, capsys, text, controller):
    path = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    argv = [controller, "--config", str(path), "--out", str(out), "--seed", "-1"]
    assert main(argv) == 2
    assert "seed must be non-negative" in capsys.readouterr().err
    assert not (out / "summary.json").exists()


EXAMPLES = sorted((Path(__file__).resolve().parents[1] / "docs" / "examples").glob("*.cfg"))


@pytest.mark.parametrize("config", EXAMPLES, ids=[p.stem for p in EXAMPLES])
def test_docs_example_runs(tmp_path, config):
    out = tmp_path / "out"
    assert run_scenario(config, out_dir=out) == 0
    assert json.loads((out / "summary.json").read_text())["pass"] is True


@pytest.mark.parametrize("lengths", ["1e-300", "1e300"])
@pytest.mark.parametrize("example", ["steer", "steer-2d"])
def test_degenerate_box_is_usage_error(tmp_path, capsys, example, lengths):
    # 1e-300: 1/h^2 overflows (and in 2D the cell volume underflows to 0);
    # 1e300: 1/h^2 underflows.  Either is a configuration error at the grid,
    # not a library error late in the run
    text = (EXAMPLES[0].parent / f"{example}.cfg").read_text()
    dim = 2 if example == "steer-2d" else 1
    old = "lengths = " + " ".join(["1.0"] * dim)
    assert old in text
    path = write_cfg(tmp_path, text.replace(old, "lengths = " + " ".join([lengths] * dim)))
    out = tmp_path / "out"
    assert run_scenario(path, out_dir=out) == 2
    err = capsys.readouterr().err
    assert err.startswith("error [swarmctrl.errors.ConfigurationError]:")
    assert "degenerate grid" in err
    assert not (out / "summary.json").exists()


def test_hsdp_steer_tiny_target_state(tmp_path):
    # one state's target at 1e-300 of the other's: the rate plan's length
    # does not depend on the target's smallest mass
    example = (EXAMPLES[0].parent / "hsdp-steer.cfg").read_text()
    old = "[target.2]\nexpr = 0.6*(1 + 0.3*cos(pi*x))"
    assert old in example
    path = write_cfg(tmp_path, example.replace(old, "[target.2]\nexpr = 1e-300"))
    out = tmp_path / "out"
    assert run_scenario(path, out_dir=out) == 0
    assert json.loads((out / "summary.json").read_text())["pass"] is True
    # an entry interval, then at most 1 + ceil(2N*L) segments with N = 2 and
    # L <= 2, each a covering walk of length 2
    assert json.loads((out / "metadata.json").read_text())["intervals"] <= 1 + (1 + 8) * 2


def test_hsdp_stabilize_one_state_support(tmp_path):
    # the target empties state 1: the support is one state with no internal
    # edge, and the drain gain 1 on the edge into it sets the decay rate
    example = (EXAMPLES[0].parent / "hsdp-stabilize.cfg").read_text()
    edits = [("[target.1]\nexpr = 0.4", "[target.1]\nexpr = 0"), ("t_final = 4.0", "t_final = 16.0")]
    for old, new in edits:
        assert old in example
        example = example.replace(old, new)
    path = write_cfg(tmp_path, example)
    out = tmp_path / "out"
    assert run_scenario(path, out_dir=out) == 0
    assert json.loads((out / "summary.json").read_text())["pass"] is True
    measured = json.loads((out / "metadata.json").read_text())["measured"]
    assert measured["decay_rate"] == pytest.approx(1.0, rel=1e-3)


@pytest.mark.parametrize(
    "state, expr",
    [("1", "0"), ("2", "0"), ("2", "x - 0.75")],
    ids=["zero-state-1", "zero-state-2", "sign-change"],
)
def test_hsdp_steer_non_positive_target_state_is_usage_error(tmp_path, capsys, state, expr):
    # steering shapes every state onto its target, so each one must be
    # bounded below; a zero-mass or sign-changing state is a config fault
    spec = re.compile(rf"(\[target\.{state}\]\n)expr = .*\n")
    assert spec.search(HSDP_STEER_CFG)
    path = write_cfg(tmp_path, spec.sub(rf"\g<1>expr = {expr}\n", HSDP_STEER_CFG))
    out = tmp_path / "out"
    assert run_scenario(path, out_dir=out) == 2
    err = capsys.readouterr().err
    assert "ConfigurationError" in err and f"[target.{state}]" in err
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize(
    "state, expr",
    [("1", "x - 0.75"), ("2", "abs(x - 0.5) + x - 0.5")],
    ids=["sign-change", "zero-in-some-cells"],
)
def test_hsdp_stabilize_mixed_sign_target_state_is_usage_error(tmp_path, capsys, state, expr):
    # a stabilized state must be positive in every cell and a drained one
    # empty; a field between the two is a config fault, not a TargetError
    example = (EXAMPLES[0].parent / "hsdp-stabilize.cfg").read_text()
    spec = re.compile(rf"(\[target\.{state}\]\n)expr = .*\n")
    assert spec.search(example)
    path = write_cfg(tmp_path, spec.sub(rf"\g<1>expr = {expr}\n", example))
    out = tmp_path / "out"
    assert run_scenario(path, out_dir=out) == 2
    err = capsys.readouterr().err
    assert err.startswith("error [swarmctrl.errors.ConfigurationError]:")
    assert f"[target.{state}]" in err
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize(
    "old, new, names",
    [
        ("edges = 1 2\n    2 1", "edges = 1 2\n    2 1\n    1 3\n\n[target.3]\nexpr = 0",
         "zero-mass states [3] have no path to the support"),
        ("edges = 1 2\n    2 1", "edges = 1 2",
         "strongly connected"),
    ],
    ids=["trapped-zero-mass-state", "full-support-not-strongly-connected"],
)
def test_hsdp_stabilize_graph_without_gains_is_usage_error(tmp_path, capsys, old, new, names):
    # the config's own edges and targets admit no stabilizing gains: a
    # sink state 3 outside the support, or a graph that is not strongly
    # connected, so mass can flow only one way
    example = (EXAMPLES[0].parent / "hsdp-stabilize.cfg").read_text()
    assert old in example
    path = write_cfg(tmp_path, example.replace(old, new))
    out = tmp_path / "out"
    assert run_scenario(path, out_dir=out) == 2
    err = capsys.readouterr().err
    assert err.startswith("error [swarmctrl.errors.ConfigurationError]:")
    assert "[graph]" in err and names in err
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize(
    "example, old, new",
    [
        ("transfer", "edges = 1 2\n    2 3\n    3 1", "edges = 1 2\n    2 3"),
        ("hsdp-steer", "edges = 1 2\n    2 1", "edges = 1 2"),
        ("spectrum", "    3 1\n    1 3\n\n[run]\nrates = 1.0 2.0 0.5 0.25",
         "    1 3\n\n[run]\nmu_eq = 0.2 0.3 0.5"),
    ],
    ids=["ctmc-plan", "hsdp-steer", "spectrum-mu_eq"],
)
def test_graph_not_strongly_connected_is_usage_error(tmp_path, capsys, example, old, new):
    # transfer, hybrid steering and stationary-rate synthesis need a
    # directed path between every two states; spectrum with explicit
    # rates accepts any graph (test_spectrum_accepts_any_graph_with_rates)
    text = (EXAMPLES[0].parent / f"{example}.cfg").read_text()
    assert old in text
    path = write_cfg(tmp_path, text.replace(old, new))
    out = tmp_path / "out"
    assert run_scenario(path, out_dir=out) == 2
    err = capsys.readouterr().err
    assert err.startswith("error [swarmctrl.errors.ConfigurationError]: [graph]")
    assert "strongly connected" in err
    assert not (out / "summary.json").exists()


def test_spectrum_accepts_any_graph_with_rates(tmp_path):
    text = (EXAMPLES[0].parent / "spectrum.cfg").read_text()
    text = text.replace("    3 1\n    1 3\n\n[run]\nrates = 1.0 2.0 0.5 0.25",
                        "    1 3\n\n[run]\nrates = 1.0 2.0 0.25")
    out = tmp_path / "out"
    assert run_scenario(write_cfg(tmp_path, text), out_dir=out) == 0
    assert json.loads((out / "summary.json").read_text())["pass"] is True
