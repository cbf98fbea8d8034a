"""Layer spans recorded from outside the library.

:meth:`Recorder.installed` wraps the library's public function at each layer
boundary.  Functions are rebound in every ``nonholo`` module that holds them,
since the modules import each other's names directly, and put back on exit;
model callbacks are wrapped by rebuilding the ``SystemSpec`` and
``ModelBundle`` with :func:`dataclasses.replace`
(:meth:`Recorder.wrap_bundle`).  No library file is edited.

Each call records one span ``(name, start, end, parent)`` in memory.  A
span's self time is its duration minus the durations of its direct children;
spans nest strictly because everything runs on one thread.  Exceptions that
leave a span are counted by class against the span's parent, which is how
scan samples skipped for rank or chart reasons are seen.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# (span name, defining module, attribute) for every wrapped library function
FUNCTION_SPANS = (
    ("core_geometry.projection_set", "nonholo.core_geometry", "projection_set"),
    ("reduced_dynamics.coefficient_tensors", "nonholo.reduced_dynamics", "coefficient_tensors"),
    ("reduced_dynamics.theta_I_apply", "nonholo.reduced_dynamics", "theta_I_apply"),
    ("reduced_dynamics.reduced_rhs", "nonholo.reduced_dynamics", "reduced_rhs"),
    ("reduced_dynamics.frame_rhs", "nonholo.reduced_dynamics", "frame_rhs"),
    ("reduced_dynamics.reaction_force", "nonholo.reduced_dynamics", "reaction_force"),
    ("reduced_dynamics.centrifugal_psi", "nonholo.reduced_dynamics", "centrifugal_psi"),
    ("simulate.integrate", "nonholo.simulate", "integrate"),
    ("simulate.rk4_path", "nonholo.simulate", "rk4_path"),
    ("jump_analysis.psi_scan", "nonholo.jump_analysis", "psi_scan"),
    ("jump_analysis.theta_on_III_scan", "nonholo.jump_analysis", "theta_on_III_scan"),
    ("jump_analysis.sufficiency_check", "nonholo.jump_analysis", "sufficiency_check"),
    ("models.closed_rhs", "nonholo.models", "roller_racer_closed_rhs"),
    ("models.averaged_rhs", "nonholo.models", "roller_racer_averaged_rhs"),
)
SPEC_CALLBACK_SPANS = (
    ("models.metric", "metric"),
    ("models.omega", "omega"),
    ("models.metric_inverse", "metric_inverse"),
)
FRAME_SPAN = "models.frame_field"
SCAN_SPANS = ("jump_analysis.psi_scan", "jump_analysis.theta_on_III_scan")
SKIP_PARENTS = SCAN_SPANS + ("jump_analysis.sufficiency_check",)
SKIP_CLASSES = ("RankDeficiency", "ChartDomain", "SingularDenominator")

SPAN_NAMES = tuple(
    sorted(
        [name for name, _, _ in FUNCTION_SPANS]
        + [name for name, _ in SPEC_CALLBACK_SPANS]
        + [FRAME_SPAN]
    )
)
SPAN_STATS = ("calls", "calls_per_unit", "self_us_p50", "self_us_p99", "self_share", "incl_share")
RATIO_NAMES = (
    "reduced_dynamics.projections_per_tensor",
    "simulate.tensors_per_step",
    "jump_analysis.tensors_per_point",
) + tuple(f"jump_analysis.skipped.{cls}" for cls in SKIP_CLASSES)
PER_LAYER_NAMES = tuple(f"{n}.{s}" for n in SPAN_NAMES for s in SPAN_STATS) + RATIO_NAMES + ("trace_overhead",)


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith(("_us_p50", "_us_p99")):
        return "us"
    if name.endswith("_share") or name == "trace_overhead":
        return "ratio"
    if name.endswith(".calls") or ".skipped." in name:
        return "count"
    return "count/unit"


class Recorder:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.escaped: Counter = Counter()  # (parent span name, exception class)
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.names)
            parent = self._stack[-1] if self._stack else -1
            self.names.append(name)
            self.parents.append(parent)
            self.ends.append(0.0)
            self._stack.append(idx)
            self.starts.append(time.perf_counter())
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                parent_name = self.names[parent] if parent >= 0 else ""
                self.escaped[(parent_name, type(exc).__name__)] += 1
                raise
            finally:
                self.ends[idx] = time.perf_counter()
                self._stack.pop()

        return traced

    def wrap_bundle(self, bundle):
        """Copy of ``bundle`` whose spec callbacks and frame field record spans."""
        spec = bundle.spec
        changes = {
            attr: self.wrap(name, getattr(spec, attr))
            for name, attr in SPEC_CALLBACK_SPANS
            if getattr(spec, attr) is not None
        }
        spec = dataclasses.replace(spec, **changes)
        frame = self.wrap(FRAME_SPAN, bundle.frame_field) if bundle.frame_field is not None else None
        return dataclasses.replace(bundle, spec=spec, frame_field=frame)

    @contextlib.contextmanager
    def installed(self):
        """Rebind the library functions to recording wrappers while inside."""
        restore = []
        try:
            for name, module_name, attr in FUNCTION_SPANS:
                original = getattr(sys.modules[module_name], attr)
                traced = self.wrap(name, original)
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name.split(".")[0] == "nonholo" and getattr(mod, attr, None) is original:
                        restore.append((mod, attr, original))
                        setattr(mod, attr, traced)
            yield self
        finally:
            for mod, attr, original in reversed(restore):
                setattr(mod, attr, original)

    def counts(self) -> dict[str, int]:
        """Calls per span name."""
        return dict(Counter(self.names))

    def summary(self, units: int, steps: int, points: int, traced_wall: float) -> dict[str, float]:
        """Per-span stats and layer ratios over every recorded span.

        ``units`` is the workload's unit count, ``steps`` the RK4 steps taken
        by ``integrate`` and ``points`` the attempted scan points, all over the
        traced operations; ``traced_wall`` is their total wall time.
        """
        n = len(self.names)
        starts = np.asarray(self.starts)
        ends = np.asarray(self.ends)
        dur = ends - starts
        child = np.zeros(n)
        parents = np.asarray(self.parents, dtype=int)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        self_time = dur - child

        by_name: dict[str, list[int]] = defaultdict(list)
        for i, name in enumerate(self.names):
            by_name[name].append(i)
        out: dict[str, float] = {}
        for name in SPAN_NAMES:
            idx = np.asarray(by_name.get(name, []), dtype=int)
            calls = int(idx.size)
            out[f"{name}.calls"] = calls
            out[f"{name}.calls_per_unit"] = calls / units
            if calls:
                st = self_time[idx] * 1e6
                out[f"{name}.self_us_p50"] = float(np.percentile(st, 50))
                out[f"{name}.self_us_p99"] = float(np.percentile(st, 99))
                out[f"{name}.self_share"] = float(self_time[idx].sum()) / traced_wall
                outer = [i for i in idx if not self._inside_same(i)]
                out[f"{name}.incl_share"] = float(dur[outer].sum()) / traced_wall
            else:
                for stat in SPAN_STATS[2:]:
                    out[f"{name}.{stat}"] = 0.0

        names = self.names
        tensors = by_name.get("reduced_dynamics.coefficient_tensors", [])
        proj_in_tensor = sum(
            1
            for i in by_name.get("core_geometry.projection_set", [])
            if parents[i] >= 0 and names[parents[i]] == "reduced_dynamics.coefficient_tensors"
        )
        out["reduced_dynamics.projections_per_tensor"] = proj_in_tensor / len(tensors) if tensors else 0.0
        tensors_in = Counter(self._ancestor_of(i, ("simulate.integrate",) + SCAN_SPANS) for i in tensors)
        out["simulate.tensors_per_step"] = tensors_in["simulate.integrate"] / steps if steps else 0.0
        in_scans = sum(tensors_in[s] for s in SCAN_SPANS)
        out["jump_analysis.tensors_per_point"] = in_scans / points if points else 0.0
        for cls in SKIP_CLASSES:
            out[f"jump_analysis.skipped.{cls}"] = sum(self.escaped[(p, cls)] for p in SKIP_PARENTS)
        return out

    def _ancestor_of(self, i: int, names: tuple[str, ...]) -> str:
        p = self.parents[i]
        while p >= 0:
            if self.names[p] in names:
                return self.names[p]
            p = self.parents[p]
        return ""

    def _inside_same(self, i: int) -> bool:
        return self._ancestor_of(i, (self.names[i],)) != ""
