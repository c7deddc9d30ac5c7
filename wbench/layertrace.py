"""Outside-in tracing of the weingarten layers.

``Tracer.install`` replaces each traced function in every ``weingarten``
module that binds it (``rot_r3``, ``parab_h3`` and ``cyclic_r3`` import
``integrate`` and ``find_root`` by name, the package re-exports several) and
patches ``Trajectory.__call__`` on the class. ``uninstall`` puts every
original back. The program itself is not edited.

Each call of a traced function is a span: name, start, end, parent span and
item id. Spans are kept in memory as columns and written out when the run
ends. A span's self time is its duration minus the durations of its child
spans. Counters are taken at the same boundaries.
"""

import dataclasses
import functools
import os
import sys
import time
from array import array
from collections import Counter, defaultdict

import numpy as np

# Span names are "<module>.<function>", except that odekit.dense_eval is
# Trajectory.__call__, patched on the class.
TRACED = (
    "odekit.dense_eval",
    "odekit.integrate",
    "odekit.find_root",
    "geomcore.curvature_field",
    "geomcore.curvatures",
    "rot_r3.integrate_profile",
    "rot_r3.report",
    "rot_r3.structure_report",
    "rot_r3.polyline_self_intersections",
    "rot_r3.revolve",
    "parab_h3.classify",
    "parab_h3.integrate_parabolic",
    "parab_h3.mirror_defect",
    "parab_h3.derivative_identity_residual",
    "cyclic_r3.riemann_example",
    "cyclic_r3.max_curvature_magnitudes",
    "cyclic_r3.trig_coefficients",
    "cyclic_r3.export_residual_csv",
    "meshes.sample_grid_mesh",
    "meshes.write_obj",
    "cli.main",
)


class NamespaceError(RuntimeError):
    """A weingarten module still binds an original that should be traced."""


class Tracer:
    def __init__(self, lib):
        self.lib = lib
        self.names = list(TRACED)
        self._name_id = {n: i for i, n in enumerate(self.names)}
        # span columns
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_item = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()       # work counters: points, steps, rhs calls, ...
        self.top_level_time = 0.0     # summed duration of spans with no parent
        self.item = -1
        self._stack = []              # [span index, child time]
        self._originals = {}          # span name -> original callable
        self._patched = []            # (owner, attribute, original)

    # -- spans --------------------------------------------------------------

    def _enter(self, name_id):
        idx = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_item.append(self.item)
        self.span_end.append(0.0)
        self._stack.append([idx, 0.0])
        self.span_start.append(time.perf_counter())
        return idx

    def _exit(self, idx):
        end = time.perf_counter()
        self.span_end[idx] = end
        _, child = self._stack.pop()
        duration = end - self.span_start[idx]
        name = self.names[self.span_name[idx]]
        self.self_time[name] += duration - child
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][1] += duration
        else:
            self.top_level_time += duration

    def _wrap(self, name, fn, after=None):
        name_id = self._name_id[name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._enter(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(idx)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    # -- counters taken at the boundaries -------------------------------------

    def _traced_integrate(self, fn):
        odekit = self.lib.odekit
        counts = self.counts
        name_id = self._name_id["odekit.integrate"]

        @functools.wraps(fn)
        def integrate(spec, s_end, guard=None):
            rhs = spec.rhs

            def counted_rhs(s, y):
                counts["odekit.rhs_calls"] += 1
                return rhs(s, y)

            spec = dataclasses.replace(spec, rhs=counted_rhs)
            idx = self._enter(name_id)
            try:
                traj = fn(spec, s_end, guard)
            except odekit.StepUnderflowError as exc:
                self._count_trajectory(exc.trajectory)
                raise
            finally:
                self._exit(idx)
            self._count_trajectory(traj)
            return traj

        return integrate

    def _count_trajectory(self, traj):
        odekit = self.lib.odekit
        self.counts["odekit.steps"] += len(traj.s) - 1
        if traj.reason in (odekit.GUARD_STOP, odekit.UNDERFLOW):
            self.counts["odekit.abnormal_stops"] += 1

    def _after(self, name):
        counts = self.counts
        if name == "odekit.dense_eval":
            def after(args, kwargs, result):
                counts["odekit.dense_eval.points"] += 1 if np.ndim(args[1]) == 0 else len(args[1])
        elif name == "geomcore.curvature_field":
            def after(args, kwargs, result):
                counts["geomcore.curvature_field.points"] += len(result.H)
        elif name == "rot_r3.polyline_self_intersections":
            def after(args, kwargs, result):
                counts["rot_r3.polyline_self_intersections.segments"] += len(args[0]) - 1
                counts["rot_r3.polyline_self_intersections.crossings"] += len(result)
        elif name == "meshes.sample_grid_mesh":
            def after(args, kwargs, result):
                counts["meshes.sample_grid_mesh.vertices"] += len(result[0])
        elif name == "meshes.write_obj":
            def after(args, kwargs, result):
                counts["meshes.write_obj.bytes"] += os.path.getsize(args[0])
        else:
            after = None
        return after

    # -- installation -------------------------------------------------------

    def _modules(self):
        return [m for n, m in sorted(sys.modules.items())
                if n == "weingarten" or n.startswith("weingarten.")]

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        replacement = {}
        for name in TRACED:
            if name == "odekit.dense_eval":
                original = self.lib.odekit.Trajectory.__call__
            else:
                module, attr = name.split(".")
                original = getattr(getattr(self.lib, module), attr)
            self._originals[name] = original
            if name == "odekit.integrate":
                replacement[id(original)] = (original, self._traced_integrate(original))
            else:
                replacement[id(original)] = (original, self._wrap(name, original, self._after(name)))
        for mod in self._modules():
            for attr, value in list(vars(mod).items()):
                hit = replacement.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, value))
        traj_cls = self.lib.odekit.Trajectory
        original = traj_cls.__call__
        traj_cls.__call__ = replacement[id(original)][1]
        self._patched.append((traj_cls, "__call__", original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def self_check(self):
        """Raise NamespaceError if any weingarten module or the Trajectory
        class still binds an original that ``install`` should have replaced."""
        originals = {id(fn): name for name, fn in self._originals.items()}
        missed = []
        for mod in self._modules():
            for attr, value in vars(mod).items():
                name = originals.get(id(value))
                if name is not None and self._originals[name] is value:
                    missed.append(f"{mod.__name__}.{attr}")
        if self.lib.odekit.Trajectory.__call__ is self._originals["odekit.dense_eval"]:
            missed.append("weingarten.odekit.Trajectory.__call__")
        if missed:
            raise NamespaceError("unwrapped originals still bound: " + ", ".join(missed))

    # -- output -------------------------------------------------------------

    def save(self, path):
        """Write the spans as columns (names index ``span_names``)."""
        np.savez_compressed(
            path,
            span_names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            item=np.frombuffer(self.span_item, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )

    def layer_metrics(self, n_items, traced_s, untraced_s, artifacts):
        """Per-layer metrics as {name: (value, unit)}. Counts and self times
        are means per traced item; ``artifacts`` is (files, bytes) summed
        over the traced items."""
        per = 1.0 / n_items
        geom_points = self.counts["geomcore.curvature_field.points"] + self.calls["geomcore.curvatures"]
        geom_time = self._inclusive_time(("geomcore.curvature_field", "geomcore.curvatures"))
        m = {}

        def calls(metric, span=None):
            m[metric] = (self.calls[span or metric.rsplit(".", 1)[0]] * per, "count/item")

        def self_s(span):
            m[f"{span}.self_s"] = (self.self_time[span] * per, "s/item")

        def count(metric, unit="count/item"):
            m[metric] = (self.counts[metric] * per, unit)

        calls("odekit.dense_eval.calls")
        count("odekit.dense_eval.points")
        self_s("odekit.dense_eval")
        calls("odekit.integrate.calls")
        self_s("odekit.integrate")
        count("odekit.steps")
        count("odekit.rhs_calls")
        count("odekit.abnormal_stops")
        calls("odekit.integrations_per_item", "odekit.integrate")
        calls("odekit.find_root.calls")
        self_s("odekit.find_root")
        calls("geomcore.curvature_field.calls")
        count("geomcore.curvature_field.points")
        self_s("geomcore.curvature_field")
        calls("geomcore.curvatures.calls")
        self_s("geomcore.curvatures")
        m["geomcore.points_per_s"] = (geom_points / geom_time if geom_time > 0 else 0.0, "1/s")
        calls("rot_r3.polyline_self_intersections.calls")
        count("rot_r3.polyline_self_intersections.segments")
        count("rot_r3.polyline_self_intersections.crossings")
        self_s("rot_r3.polyline_self_intersections")
        self_s("rot_r3.integrate_profile")
        self_s("rot_r3.report")
        self_s("rot_r3.structure_report")
        calls("rot_r3.revolves_per_item", "rot_r3.revolve")
        self_s("parab_h3.classify")
        calls("parab_h3.integrate_parabolic.calls")
        self_s("parab_h3.integrate_parabolic")
        self_s("parab_h3.mirror_defect")
        self_s("parab_h3.derivative_identity_residual")
        self_s("cyclic_r3.riemann_example")
        self_s("cyclic_r3.max_curvature_magnitudes")
        self_s("cyclic_r3.trig_coefficients")
        self_s("cyclic_r3.export_residual_csv")
        calls("meshes.sample_grid_mesh.calls")
        count("meshes.sample_grid_mesh.vertices")
        self_s("meshes.sample_grid_mesh")
        self_s("meshes.write_obj")
        count("meshes.write_obj.bytes", "B/item")
        self_s("cli.main")
        m["artifacts.files"] = (artifacts[0] * per, "count/item")
        m["artifacts.bytes"] = (artifacts[1] * per, "B/item")
        m["trace.overhead_frac"] = (traced_s / untraced_s - 1.0, "frac")
        m["trace.unattributed_frac"] = (1.0 - self.top_level_time / traced_s, "frac")
        return m

    def _inclusive_time(self, names):
        """Summed duration of spans named in ``names`` whose parent is not."""
        ids = np.array([self._name_id[n] for n in names])
        name = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        mine = np.isin(name, ids)
        parent_name = np.where(parent >= 0, name[np.maximum(parent, 0)], -1)
        outer = mine & ~np.isin(parent_name, ids)
        start = np.frombuffer(self.span_start, dtype=np.float64)
        end = np.frombuffer(self.span_end, dtype=np.float64)
        return float(np.sum(end[outer] - start[outer]))
