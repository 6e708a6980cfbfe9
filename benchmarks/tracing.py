"""Per-layer spans recorded from outside ``swarmctrl``.

The tracer replaces public functions of each module with thin wrappers
that record a span (layer name, start, end, parent span).  ``control``,
``hybrid``, ``pde`` and ``cli`` import helpers by name, so every module of
the package that holds the original object gets the wrapper.  Nothing under
``src/`` is edited; the wrappers live only in the traced child process.

Spans stay in memory and are written out once, when the child ends.
``summarize`` turns them into the per-layer metrics of BENCHMARK.json:

- ``<layer>_s`` / ``<layer>_calls``: time and count of the outermost spans
  of that layer (a span nested in a span of the same layer, such as
  ``divergence_form_operator`` inside ``neumann_laplacian``, counts once);
- ``<layer>_self_s``: span time minus the time of its direct child spans.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc

# span layer -> (module, attribute) of what gets wrapped; a dotted
# attribute names a method
TARGETS = {
    "grid.spectral_gap": [("grid", "SparseOperator.spectral_gap")],
    "grid.assemble": [("grid", "divergence_form_operator"), ("grid", "neumann_laplacian")],
    "grid.poisson": [("grid", "neumann_poisson_solve")],
    "pde.assemble": [("pde", "assemble_advection_diffusion")],
    "pde.factor": [("pde", "make_stepper")],
    "control.synthesize": [("control", "synthesize_steering_plan")],
    "control.witness": [("control", "feedback_velocity")],
    "control.execute": [("control", "execute_plan")],
    "control.follow_path": [("control", "follow_path")],
    "ctmc.transfer": [("ctmc", "transfer_control")],
    "ctmc.propagate": [("ctmc", "propagate")],
    "ctmc.stationary": [("ctmc", "synthesize_stationary_rates")],
    "hybrid.stepper_build": [("hybrid", "SplitStepper.__init__")],
    "hybrid.split_step": [("hybrid", "SplitStepper.step")],
    "hybrid.coupled_spectrum": [("hybrid", "coupled_spectrum")],
    "particles.sde_step": [("particles", "sde_step")],
    "cli": [("cli", "run_scenario")],
}

# per-layer metric -> (span layer, statistic)
METRICS = {
    "grid.spectral_gap_s": ("grid.spectral_gap", "time"),
    "grid.spectral_gap_calls": ("grid.spectral_gap", "calls"),
    "grid.spectral_gap_peak_mb": ("grid.spectral_gap", "peak_mb"),
    "grid.assemble_s": ("grid.assemble", "time"),
    "grid.assemble_calls": ("grid.assemble", "calls"),
    "grid.poisson_s": ("grid.poisson", "time"),
    "grid.poisson_calls": ("grid.poisson", "calls"),
    "pde.assemble_s": ("pde.assemble", "time"),
    "pde.assemble_calls": ("pde.assemble", "calls"),
    "pde.factor_s": ("pde.factor", "time"),
    "pde.factor_calls": ("pde.factor", "calls"),
    "pde.solve_s": ("pde.solve", "time"),
    "pde.solve_calls": ("pde.solve", "calls"),
    "control.synthesize_self_s": ("control.synthesize", "self"),
    "control.witness_s": ("control.witness", "time"),
    "control.witness_calls": ("control.witness", "calls"),
    "control.execute_self_s": ("control.execute", "self"),
    "control.follow_path_self_s": ("control.follow_path", "self"),
    "ctmc.transfer_s": ("ctmc.transfer", "time"),
    "ctmc.intervals": ("ctmc.transfer", "intervals"),
    "ctmc.propagate_s": ("ctmc.propagate", "time"),
    "ctmc.expm_calls": ("ctmc.expm", "count"),
    "ctmc.stationary_s": ("ctmc.stationary", "time"),
    "hybrid.stepper_builds": ("hybrid.stepper_build", "calls"),
    "hybrid.stepper_build_s": ("hybrid.stepper_build", "time"),
    "hybrid.split_steps": ("hybrid.split_step", "calls"),
    "hybrid.split_step_s": ("hybrid.split_step", "time"),
    "hybrid.coupled_spectrum_s": ("hybrid.coupled_spectrum", "time"),
    "particles.sde_steps": ("particles.sde_step", "calls"),
    "particles.sde_step_s": ("particles.sde_step", "time"),
    "cli.self_s": ("cli", "self"),
}

# metrics that count work and must repeat exactly from run to run
COUNTS = frozenset(
    name for name, (_, stat) in METRICS.items() if stat in ("calls", "intervals", "count")
)

_EXPM_CALLERS = ("swarmctrl.ctmc", "swarmctrl.hybrid")


class Tracer:
    """Records spans around the wrapped functions of one process."""

    def __init__(self):
        self.spans: list[list] = []      # [layer, start, end, parent index]
        self._stack: list[int] = []
        self.intervals = 0
        self.expm_calls = 0
        self.peak_mb = 0.0

    def _wrap(self, layer: str, fn, after=None, measure_memory: bool = False):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([layer, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            tracing = measure_memory and not tracemalloc.is_tracing()
            if tracing:
                tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
            finally:
                if tracing:
                    self.peak_mb = max(self.peak_mb, tracemalloc.get_traced_memory()[1] / 2**20)
                    tracemalloc.stop()
                stack.pop()
                spans[idx][2] = clock()
            if after is not None:
                result = after(result, outermost=not any(spans[i][0] == layer for i in stack))
            return result

        return wrapper

    def _after_make_stepper(self, step, outermost):
        return self._wrap("pde.solve", step)

    def _after_transfer(self, control, outermost):
        if outermost:
            self.intervals += control.n_intervals
        return control

    def install(self) -> None:
        """Wrap every target in every loaded ``swarmctrl`` module."""
        import scipy.linalg

        package = {
            name: mod for name, mod in sys.modules.items()
            if name == "swarmctrl" or name.startswith("swarmctrl.")
        }
        hooks = {"pde.factor": self._after_make_stepper, "ctmc.transfer": self._after_transfer}
        for layer, targets in TARGETS.items():
            for module, attr in targets:
                owner = package[f"swarmctrl.{module}"]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    original = getattr(cls, meth)
                    setattr(cls, meth, self._wrap(
                        layer, original, measure_memory=layer == "grid.spectral_gap"))
                    continue
                original = getattr(owner, attr)
                wrapper = self._wrap(layer, original, after=hooks.get(layer))
                for mod in package.values():
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, name, wrapper)

        expm = scipy.linalg.expm

        @functools.wraps(expm)
        def counted_expm(*args, **kwargs):
            if sys._getframe(1).f_globals.get("__name__") in _EXPM_CALLERS:
                self.expm_calls += 1
            return expm(*args, **kwargs)

        scipy.linalg.expm = counted_expm

    def summarize(self) -> dict:
        """Per-layer metrics of this process (see METRICS)."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for layer, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        stats: dict[str, dict] = {}
        for idx, (layer, start, end, parent) in enumerate(spans):
            p = parent
            while p >= 0 and spans[p][0] != layer:
                p = spans[p][3]
            if p >= 0:
                continue  # nested in a span of the same layer
            s = stats.setdefault(layer, {"time": 0.0, "calls": 0, "self": 0.0})
            s["time"] += end - start
            s["calls"] += 1
            s["self"] += end - start - child_time[idx]
        out = {}
        for metric, (layer, stat) in METRICS.items():
            if stat == "intervals":
                out[metric] = self.intervals
            elif stat == "count":
                out[metric] = self.expm_calls
            elif stat == "peak_mb":
                out[metric] = self.peak_mb
            else:
                out[metric] = stats.get(layer, {}).get(stat, 0 if stat == "calls" else 0.0)
        return out
