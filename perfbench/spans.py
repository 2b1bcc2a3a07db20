"""Spans around polarcool's layer boundaries, installed from outside the package.

A boundary is wrapped under every name a polarcool module binds it to, so a
call is seen whether the caller imported the function by name (``tuning``
calls ``steady_state`` through its own module namespace) or reaches it
through the defining module. Nothing under ``src/`` is edited: wrappers are
set with ``setattr`` for the traced operations and the originals put back
afterwards. A boundary the package no longer has is reported with zero
calls, so deleting or merging a layer never breaks the benchmark.

Each span is (span id, parent id, op id, boundary, start, end, error). A
span opened on a worker thread with no open span of its own gets the
innermost open span of the operation's thread as its parent, so the pool in
``tuning.sweep`` nests its points under the sweep. Self time is a span's
duration minus the part of it covered by the union of its children.
"""
from __future__ import annotations

import csv
import functools
import importlib
import itertools
import sys
import threading
import time
from collections import defaultdict

BOUNDARIES = (
    "cli.write_csv",
    "config.load_config",
    "tuning.sweep",
    "tuning.optimize_theta",
    "tuning.evaluate_point",
    "tuning.TwoModeSetup.params_at",
    "model.diagonalize_polaritons",
    "model.thermal_occupation",
    "analytics.effective_cooling",
    "dynamics.build_linear_model",
    "dynamics.solve_averages",
    "dynamics.build_drift",
    "dynamics.build_diffusion",
    "steadystate.steady_state",
    "steadystate.check_stability",
    "steadystate.solve_lyapunov",
    "steadystate.extract_occupations",
    "steadystate.integrate_covariance",
    "_kernels.rk4_covariance",
)

# sub-microsecond helpers called several times per point: counted, not timed,
# so their time stays in the caller's self time
COUNT_ONLY = frozenset({"model.thermal_occupation"})

RK4 = "_kernels.rk4_covariance"
# matrix products only: 4 stages x (R V and V R^T) x 2 n^3 flops per RK4 step
RK4_FLOPS_PER_STEP = 16


def metric_prefix(boundary: str) -> str:
    """Metric names may not start with '_', so ``_kernels`` reads ``kernels``."""
    return boundary.lstrip("_")


def _rk4_work(args, kwargs) -> tuple[float, float] | None:
    """(steps, computed GFLOP) of one ``rk4_covariance(R, D, V0, steps, h)`` call."""
    try:
        drift = args[0] if args else kwargs["R"]
        steps = args[3] if len(args) > 3 else kwargs["steps"]
        n = int(drift.shape[0])
    except (IndexError, KeyError, AttributeError, TypeError):
        return None
    return float(steps), RK4_FLOPS_PER_STEP * float(steps) * n ** 3 / 1e9


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit, in a fixed order."""
    units = {}
    for b in BOUNDARIES:
        p = metric_prefix(b)
        units[f"{p}.calls_per_op"] = "count"
        if b not in COUNT_ONLY:
            units[f"{p}.self_us_per_call"] = "us"
        units[f"{p}.errors"] = "count"
    units["kernels.rk4_covariance.steps_per_op"] = "count"
    units["kernels.rk4_covariance.computed_gflop_per_op"] = "GFLOP"
    units["trace.overhead_frac"] = "fraction"
    return units


def _resolve(boundary: str):
    """(owner, attribute, original) of a boundary, or None when it is gone."""
    module_name, *attrs = boundary.split(".")
    try:
        owner = importlib.import_module(f"polarcool.{module_name}")
    except ImportError:
        return None
    for attr in attrs[:-1]:
        owner = getattr(owner, attr, None)
        if owner is None:
            return None
    original = vars(owner).get(attrs[-1])
    if not callable(original):
        return None
    return owner, attrs[-1], original


def _binding_sites(owner, attr: str, original) -> list[tuple[object, str]]:
    """Every (namespace, name) a polarcool module looks the boundary up under."""
    if isinstance(owner, type):
        return [(owner, attr)]
    sites = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "polarcool" or name.startswith("polarcool.")):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                sites.append((module, key))
    return sites


def _covered(intervals, start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, start), min(hi, end)
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class Tracer:
    """Records spans at the boundaries while installed; summarizes them per op."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counted: list[tuple[str, bool]] = []
        self.rk4_work: list[tuple[float, float]] = []
        self.op_id: int | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._op_stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []
        self.absent: list[str] = []
        for boundary in BOUNDARIES:
            found = _resolve(boundary)
            if found is None:
                self.absent.append(boundary)
                continue
            owner, attr, original = found
            wrapper = self._wrap(boundary, original)
            for site, key in _binding_sites(owner, attr, original):
                self._patches.append((site, key, original, wrapper))

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, boundary: str, fn):
        if boundary in COUNT_ONLY:
            return self._wrap_counted(boundary, fn)
        is_rk4 = boundary == RK4

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            elif stack is not self._op_stack and self._op_stack:
                parent = self._op_stack[-1]
            else:
                parent = None
            if is_rk4:
                work = _rk4_work(args, kwargs)
                if work is not None:
                    self.rk4_work.append(work)
            span_id = next(self._ids)
            stack.append(span_id)
            error = False
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                error = True
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((span_id, parent, self.op_id, boundary, start, end, error))

        return traced

    def _wrap_counted(self, boundary: str, fn):
        ok, failed = (boundary, False), (boundary, True)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.counted.append(failed)
                raise
            self.counted.append(ok)
            return result

        return counted

    def install(self) -> None:
        self._op_stack = self._stack()
        for site, key, _, wrapper in self._patches:
            setattr(site, key, wrapper)

    def uninstall(self) -> None:
        for site, key, original, _ in self._patches:
            setattr(site, key, original)

    def summarize(self, n_ops: int) -> dict[str, float]:
        """Per-layer metrics over ``n_ops`` traced operations."""
        children = defaultdict(list)
        for span_id, parent, _, _, start, end, _ in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        calls = dict.fromkeys(BOUNDARIES, 0)
        self_s = dict.fromkeys(BOUNDARIES, 0.0)
        errors = dict.fromkeys(BOUNDARIES, 0)
        for span_id, _, _, boundary, start, end, error in self.spans:
            calls[boundary] += 1
            self_s[boundary] += (end - start) - _covered(children.get(span_id, ()), start, end)
            errors[boundary] += int(error)
        for boundary, error in self.counted:
            calls[boundary] += 1
            errors[boundary] += int(error)
        out: dict[str, float] = {}
        for b in BOUNDARIES:
            p = metric_prefix(b)
            out[f"{p}.calls_per_op"] = calls[b] / n_ops
            if b not in COUNT_ONLY:
                out[f"{p}.self_us_per_call"] = 1e6 * self_s[b] / calls[b] if calls[b] else 0.0
            out[f"{p}.errors"] = errors[b]
        out["kernels.rk4_covariance.steps_per_op"] = sum(w[0] for w in self.rk4_work) / n_ops
        out["kernels.rk4_covariance.computed_gflop_per_op"] = sum(w[1] for w in self.rk4_work) / n_ops
        return out

    def write(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(("span_id", "parent_id", "op_id", "boundary",
                             "start_s", "end_s", "error"))
            writer.writerows(self.spans)
