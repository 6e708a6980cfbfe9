"""Benchmark entry point: run one workload for a fixed time and print its metrics.

Usage (from the repository root)::

    python3 benchmarks/run.py --workload scalar-1d --seed 1 --seconds 40 --trace 0

Every repetition of every operation runs in a fresh interpreter
(``child.py``), started one at a time from this process, with BLAS and
OpenMP pinned to one thread.  Whole rounds (each operation once) repeat
for ``--seconds``, to the nearest whole round.  The output checks
(``checks.py``) then run on the first round's artifacts, and every later
repetition must reproduce them byte for byte.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run (``tracing.py``) with
``--trace 1``.  A per-operation report goes to standard error.
"""

from __future__ import annotations

import os

# pin this process's own numpy (used by the checks) like the children
PINNED = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
os.environ.update(PINNED)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import re  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = BENCH / "out"
CHILD_TIMEOUT_S = 60    # the longest operation takes about 6 s
EDGE = re.compile(r"\d+->\d+")

sys.path.insert(0, str(BENCH))
import workloads  # noqa: E402
from tracing import COUNTS, METRICS  # noqa: E402


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _digest(out: Path) -> tuple[dict, int]:
    """sha256 and total size of every artifact in an output directory."""
    hashes, size = {}, 0
    for path in sorted(out.iterdir()) if out.is_dir() else []:
        data = path.read_bytes()
        hashes[path.name] = hashlib.sha256(data).hexdigest()
        size += len(data)
    return hashes, size


def _run_child(op: dict, config: Path, rep_dir: Path, seed: int, trace: bool) -> dict:
    """One repetition in a fresh interpreter; returns the child's result."""
    rep_dir.mkdir(parents=True)
    spec, result = rep_dir / "spec.json", rep_dir / "result.json"
    spec.write_text(json.dumps({
        "op": op, "config": str(config), "out_dir": str(rep_dir / "out"), "seed": seed,
        "trace": trace, "spans": str(rep_dir / "spans.json"),
    }))
    with open(rep_dir / "stderr.txt", "wb") as err:
        cmd = [sys.executable, str(BENCH / "child.py"), str(spec), str(result),
               repr(time.monotonic())]
        try:
            code = subprocess.run(cmd, env=_child_env(), stdout=subprocess.DEVNULL,
                                  stderr=err, timeout=CHILD_TIMEOUT_S, cwd=ROOT).returncode
        except subprocess.TimeoutExpired:
            code = "timeout"
    if code != 0 or not result.is_file():
        return {"rc": code, "error": (rep_dir / "stderr.txt").read_text()[-400:]}
    return json.loads(result.read_text())


def _ok(res: dict) -> bool:
    return res.get("rc") == 0 and "solve_s" in res


def _counts(res: dict) -> dict:
    """The traced work counts of one repetition (empty when untraced)."""
    layers = res.get("layers", {})
    return {name: layers[name] for name in COUNTS if name in layers}


def _another_round(elapsed: float, rounds: int, seconds: float) -> bool:
    """Start another round only if it would end nearer to ``seconds`` than
    stopping now, so a run lasts ``seconds`` give or take half a round."""
    return elapsed + 0.5 * elapsed / rounds < seconds


def _per_run(values: list[float]) -> float:
    """Per-run statistic over an operation's repetitions.  The machine's
    speed drifts by +-15 % from one second to the next; the mean of the
    repetitions averages that drift out better than their median or
    minimum (5-seed spread 5.5 % against 7.4 % and 14 % on hybrid-1d)."""
    return statistics.fmean(values)


def _unparsable(out: Path) -> list[str]:
    """CSV artifacts with a field that is neither a plain number nor an
    edge label (docs/scenario-format.md: floats are shortest round-trip
    decimals)."""
    bad = []
    for path in sorted(out.glob("*.csv")) if out.is_dir() else []:
        with open(path, encoding="utf-8") as handle:
            next(handle)
            for line in handle:
                if not all(_plain(field) for field in line.rstrip("\n").split(",")):
                    bad.append(path.name)
                    break
    return bad


def _plain(field: str) -> bool:
    try:
        float(field)
        return True
    except ValueError:
        return EDGE.fullmatch(field) is not None


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    ops = workloads.build(workload, seed)
    run_dir = RUNS / workload
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    configs = []
    for op in ops:
        path = run_dir / f"{op['name']}.cfg"
        path.write_text(op.get("config", ""))
        configs.append(path)

    # warm the byte-code and file caches once, outside the measurement
    subprocess.run([sys.executable, "-c", "import swarmctrl.cli"], env=_child_env(),
                   cwd=ROOT, check=True, timeout=CHILD_TIMEOUT_S)

    # a round runs every operation once; each operation then gets one
    # verification (round 1: the output checks, later rounds: identity with
    # round 1) and the round one format check of all its CSV artifacts
    results: list[list[dict]] = [[] for _ in ops]
    digests: list[list[tuple]] = [[] for _ in ops]
    unparsable: list[list[str]] = []
    start = time.monotonic()
    rounds = 0
    while rounds == 0 or _another_round(time.monotonic() - start, rounds, seconds):
        bad = []
        for k, op in enumerate(ops):
            rep_dir = run_dir / op["name"] / f"r{rounds + 1}"
            results[k].append(_run_child(op, configs[k], rep_dir, seed, trace))
            digests[k].append(_digest(rep_dir / "out"))
            bad += [f"{op['name']}/{name}" for name in _unparsable(rep_dir / "out")]
            if rounds > 0:
                shutil.rmtree(rep_dir)
        unparsable.append(bad)
        rounds += 1
    elapsed = time.monotonic() - start

    sys.path.insert(0, str(SRC))
    from checks import check  # imports numpy, scipy and swarmctrl only now

    verified = []     # (operation, repetition, passed)
    details = []      # (operation, check, passed, detail)
    for k, op in enumerate(ops):
        content = check(op, run_dir / op["name"] / "r1" / "out")
        details += [(op["name"], *c) for c in content]
        verified.append((op["name"], 1, all(c[1] for c in content)))
        first = (digests[k][0][0], _counts(results[k][0]))
        for rep in range(1, rounds):
            same = (digests[k][rep][0], _counts(results[k][rep])) == first
            verified.append((op["name"], rep + 1, same))

    (run_dir / "results.json").write_text(json.dumps(
        {"seed": seed, "rounds": rounds, "elapsed_s": elapsed,
         "operations": {op["name"]: rs for op, rs in zip(ops, results)}}, indent=1))
    failed_runs = sum(not _ok(r) for rs in results for r in rs)
    failed_checks = sum(not v[2] for v in verified)
    failed_format = sum(bool(bad) for bad in unparsable)
    _report(workload, seed, ops, results, details, verified, unparsable, elapsed)
    print(f"scenario runs: attempted {rounds * len(ops)}, failed {failed_runs}")
    print(f"output checks: attempted {len(verified) + rounds}, "
          f"failed {failed_checks + failed_format} "
          f"({failed_format} of them CSV format checks)")

    good = [r for rs in results for r in rs if _ok(r)]
    metrics = {
        "setup_s": {"value": statistics.median(r["setup_s"] for r in good) if good else 0.0,
                    "unit": "s"},
        "solve_s": {"value": sum(_per_run([r["solve_s"] for r in rs if _ok(r)] or [0.0])
                                 for rs in results), "unit": "s"},
        "peak_rss_mb": {"value": max((r["rss_mb"] for r in good), default=0.0), "unit": "MB"},
    }
    print("  " + "  ".join(f"{k} {v['value']:.4f}" for k, v in metrics.items())
          + ("  (traced)" if trace else ""), file=sys.stderr)
    if trace:
        metrics = _layer_metrics(results, digests)
    return {
        "correct": failed_checks == 0,
        "attempted": rounds * (2 * len(ops) + 1),
        "failed": failed_runs + failed_checks + failed_format,
        "metrics": metrics,
    }


def _layer_metrics(results, digests) -> dict:
    out = {}
    for metric, (_, stat) in METRICS.items():
        per_op = []
        for rs in results:
            values = [r["layers"][metric] for r in rs if _ok(r)]
            if not values:
                continue
            if metric in COUNTS:
                per_op.append(values[0])
            elif stat == "peak_mb":
                per_op.append(max(values))
            else:
                per_op.append(_per_run(values))
        if stat == "peak_mb":
            value = max(per_op, default=0.0)
        else:
            value = sum(per_op)
        unit = "count" if metric in COUNTS else ("MB" if stat == "peak_mb" else "s")
        out[metric] = {"value": value, "unit": unit}
    out["cli.artifact_bytes"] = {"value": sum(d[0][1] for d in digests), "unit": "bytes"}
    good = [r for rs in results for r in rs if _ok(r)]
    out["import_s"] = {"value": statistics.median(r["import_s"] for r in good) if good else 0.0,
                       "unit": "s"}
    return out


def _report(workload, seed, ops, results, details, verified, unparsable, elapsed) -> None:
    err = sys.stderr
    print(f"{workload} seed {seed}: {len(unparsable)} rounds in {elapsed:.1f} s", file=err)
    for op, rs in zip(ops, results):
        solve = " ".join(f"{r['solve_s']:.3f}" if _ok(r) else "FAIL" for r in rs)
        setup = " ".join(f"{r['setup_s']:.3f}" for r in rs if _ok(r))
        rss = max((r["rss_mb"] for r in rs if _ok(r)), default=0.0)
        print(f"  {op['name']:<20} solve_s [{solve}] setup_s [{setup}] rss {rss:.0f} MB",
              file=err)
        for r in rs:
            if not _ok(r):
                print(f"    failed: rc={r.get('rc')} {r.get('error', '')}", file=err)
    for op_name, name, passed, detail in details:
        print(f"  [{'PASS' if passed else 'FAIL'}] {op_name}: {name} ({detail})", file=err)
    for op_name, rep, passed in verified:
        if rep > 1 and not passed:
            print(f"  [FAIL] {op_name}: repetition {rep} differs from repetition 1", file=err)
    bad_rounds = [bad for bad in unparsable if bad]
    if bad_rounds:
        print(f"  [FAIL] CSV numbers not plain decimals in {len(bad_rounds)} of "
              f"{len(unparsable)} rounds: {bad_rounds[0]}", file=err)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "swarmctrl" / "__init__.py").is_file():
        print(f"error: swarmctrl sources not found under {SRC}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
