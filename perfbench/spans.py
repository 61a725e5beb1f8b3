"""Span tracer that wraps socchange's public functions from outside the package.

Nothing under ``src/`` is edited: while a ``Tracer`` is installed, every
binding of a traced function is replaced by a wrapper that records a span
(name, start, end, parent). A function brought in with ``from ... import``
has its own binding in the importing module (``socchange.control.
build_time_grid`` besides ``socchange.stepping.build_time_grid``), so each
function is patched in every ``socchange`` module that binds it. Counters
are updated at the same boundaries, from the arguments and results.
"""

from __future__ import annotations

import importlib
import os
import time
from collections import Counter
from contextlib import contextmanager

MODULES = ("socchange", "socchange._kernels", "socchange.charts",
           "socchange.climate", "socchange.control", "socchange.dataio",
           "socchange.dynamics", "socchange.equilibrium", "socchange.cli",
           "socchange.sensitivity", "socchange.stepping")

KERNELS = ("affine_recurrence", "affine_recurrence_const",
           "sensitivity_recurrence", "rk4_piecewise", "controlled_recurrence")

# Floating-point operations per step, counted by hand from the loop bodies in
# socchange/_kernels.py (a 4x4 mat-vec is 16 mul + 12 add = 28). These are
# computed figures, not hardware counter readings.
FLOPS_PER_STEP = {
    "affine_recurrence": 32,         # F c (28) + g (4)
    "affine_recurrence_const": 32,   # same step, constant F and g
    "sensitivity_recurrence": 152,   # s: 28 + 28 + 4 + 28 + 4; c: 28 + 28 + 4
    "rk4_piecewise": 183,            # 4 stages of M y + b (128) + 55 vector ops
    "controlled_recurrence": 119,    # feedback law (59) + F c + Phi b (60)
}


def _kernel_steps(name, args):
    if name == "affine_recurrence":
        return args[0].shape[0]
    if name == "affine_recurrence_const":
        return int(args[3])
    if name == "sensitivity_recurrence":
        return int(args[7])
    if name == "rk4_piecewise":
        return args[0].shape[0] * int(args[3])
    return args[0].shape[0]          # controlled_recurrence


class Tracer:
    """In-memory spans and counters; install() patches, uninstall restores."""

    def __init__(self):
        self.spans: list[list] = []    # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _call(self, name, fn, args, kwargs, after):
        parent = self._stack[-1] if self._stack else -1
        span = [name, 0.0, 0.0, parent]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
        if after is not None:
            after(self.counts, args, result)
        return result

    def span(self, name, fn, after=None):
        """Return fn wrapped so each call records a span."""
        def traced(*args, **kwargs):
            return self._call(name, fn, args, kwargs, after)
        return traced

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def wrap_function(self, fn, name, after=None):
        """Patch every socchange module binding of ``fn``."""
        wrapper = self.span(name, fn, after)
        for modname in MODULES:
            module = importlib.import_module(modname)
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patch(module, attr, wrapper)

    def wrap_classmethod(self, cls, attr, name, after=None):
        func = vars(cls)[attr].__func__
        self._patch(cls, attr, classmethod(self.span(name, func, after)))

    def install(self):
        # importlib, because the package attribute ``socchange.sensitivity``
        # is the function of that name, not the module
        _kernels, charts, climate, control, dataio, equilibrium, sensitivity, \
            stepping = [importlib.import_module(f"socchange.{m}") for m in (
                "_kernels", "charts", "climate", "control", "dataio",
                "equilibrium", "sensitivity", "stepping")]

        def rows_climate(counts, args, result):
            counts["dataio.rows_parsed"] += result.nyears * 12

        def rows_npp(counts, args, result):
            counts["dataio.rows_parsed"] += len(result)

        def written(attr):
            def after(counts, args, result):
                counts["dataio.rows_written"] += getattr(args[1], attr).shape[0]
                counts["dataio.bytes_written"] += os.stat(args[0]).st_size
            return after

        def months(key):
            def after(counts, args, result):
                traj = result[0] if isinstance(result, tuple) else result
                counts[key] += traj.t.shape[0] - 1
            return after

        def calls(key):
            def after(counts, args, result):
                counts[key] += 1
            return after

        def substeps(counts, args, result):
            per_month = round(1.0 / result.meta["dt"])
            counts["sensitivity.substeps"] += result.meta["years"] * 12 * per_month

        def kernel(kname):
            def after(counts, args, result):
                steps = _kernel_steps(kname, args)
                counts[f"kernels.{kname}_calls"] += 1
                counts[f"kernels.{kname}_steps"] += steps
                counts[f"kernels.{kname}_flops_computed"] += (
                    steps * FLOPS_PER_STEP[kname])
            return after

        self.wrap_function(dataio.load_config, "dataio.load_config")
        self.wrap_function(dataio.build_scenario, "scenario.build")
        self.wrap_function(dataio.load_climate, "dataio.parse", rows_climate)
        self.wrap_function(dataio.load_npp, "dataio.load_npp", rows_npp)
        self.wrap_function(dataio.write_trajectory, "dataio.write",
                           written("t"))
        self.wrap_function(dataio.write_sensitivity, "dataio.write",
                           written("t"))
        self.wrap_function(dataio.write_control, "dataio.write", written("f0"))
        self.wrap_classmethod(climate.ClimateSeries, "build", "climate.build")
        self.wrap_function(climate.day_lengths, "climate.day_lengths",
                           calls("climate.day_lengths_calls"))
        self.wrap_function(climate.thornthwaite_pet, "climate.pet")
        self.wrap_function(climate.accumulated_deficit, "climate.deficit")
        self.wrap_classmethod(equilibrium.BaselineState, "from_inputs",
                              "equilibrium.baseline")
        self.wrap_classmethod(equilibrium.BaselineState, "from_active_soc",
                              "equilibrium.baseline")
        brentq = equilibrium.brentq
        counts = self.counts

        def counting_brentq(f, *args, **kwargs):
            def counted(x):
                counts["equilibrium.root_evals"] += 1
                return f(x)
            return brentq(counted, *args, **kwargs)
        self._patch(equilibrium, "brentq", counting_brentq)
        self.wrap_function(stepping.build_time_grid, "stepping.time_grid",
                           calls("stepping.time_grid_calls"))
        self.wrap_function(stepping.simulate, "stepping.simulate",
                           months("stepping.months_stepped"))
        self.wrap_function(stepping.rk4_reference, "stepping.rk4")
        self.wrap_function(control.simulate_controlled,
                           "control.simulate_controlled",
                           months("control.months_stepped"))
        self.wrap_function(sensitivity.sensitivity, "sensitivity.sensitivity",
                           substeps)
        for kname in KERNELS:
            self.wrap_function(getattr(_kernels, kname), f"kernels.{kname}",
                               kernel(kname))
        self.wrap_function(charts.write_line_chart, "charts.write")

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def self_times(self) -> Counter:
        """Self time per span name in ms: duration minus child durations."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Counter = Counter()
        for i, (name, start, end, parent) in enumerate(self.spans):
            out[name] += (end - start - child[i]) * 1000.0
        return out

    def layer_metrics(self) -> dict:
        """Per-layer metric values (ms and counts) from spans and counters."""
        self_ms = self.self_times()
        out = {
            "dataio.load_config_ms": self_ms["dataio.load_config"],
            "dataio.parse_self_ms": self_ms["dataio.parse"],
            "dataio.load_npp_ms": self_ms["dataio.load_npp"],
            "dataio.write_ms": self_ms["dataio.write"],
            "climate.build_self_ms": self_ms["climate.build"],
            "climate.day_lengths_ms": self_ms["climate.day_lengths"],
            "climate.pet_ms": self_ms["climate.pet"],
            "climate.deficit_ms": self_ms["climate.deficit"],
            "equilibrium.baseline_ms": self_ms["equilibrium.baseline"],
            "scenario.build_self_ms": self_ms["scenario.build"],
            "stepping.time_grid_ms": self_ms["stepping.time_grid"],
            "stepping.simulate_self_ms": self_ms["stepping.simulate"],
            "stepping.rk4_self_ms": self_ms["stepping.rk4"],
            "control.simulate_controlled_self_ms":
                self_ms["control.simulate_controlled"],
            "sensitivity.self_ms": self_ms["sensitivity.sensitivity"],
            "charts.write_ms": self_ms["charts.write"],
        }
        for kname in KERNELS:
            out[f"kernels.{kname}_ms"] = self_ms[f"kernels.{kname}"]
        for key in COUNT_METRICS:
            out[key] = self.counts[key]
        out["trace.span_self_ms"] = sum(self_ms.values())
        return out


COUNT_METRICS = (
    "dataio.rows_parsed", "dataio.rows_written", "dataio.bytes_written",
    "climate.day_lengths_calls", "equilibrium.root_evals",
    "stepping.time_grid_calls", "stepping.months_stepped",
    "control.months_stepped", "sensitivity.substeps",
    *(f"kernels.{k}_{c}" for k in KERNELS
      for c in ("calls", "steps", "flops_computed")),
)
