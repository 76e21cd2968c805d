"""Span tracer that wraps shadowgeom's layer functions from outside.

`Tracer.install()` replaces each traced function at every module
binding site (modules import `frames_at` and friends by name, so one
patch on the defining module is not enough) and each traced method on
its class.  Spans are kept in memory with parent links; `summary()`
folds them into per-layer counters and self times, plus the seconds the
wrappers spent outside the functions they wrap ("trace.wrappers"), and
`write_spans()` dumps them as JSON lines once the traced command has
finished.

Nothing under `src/` is modified: uninstall restores every binding.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time

import numpy as np


def _rows(points) -> int:
    """Leading dimension of a point batch (a single point counts as 1)."""
    a = np.asarray(points)
    return int(a.shape[0]) if a.ndim >= 2 else 1


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _points_rows(index, name="points"):
    return lambda args, kwargs: _rows(_arg(args, kwargs, index, name))


def _jets_name(args, kwargs):
    return f"expr.jets_o{int(_arg(args, kwargs, 2, 'order', 2))}"


def _extract_name(args, kwargs):
    patch = _arg(args, kwargs, 0, "patch")
    if patch.codim == 1 and patch.n == 1:
        return "shadow.extract_1d"
    if patch.codim == 1 and patch.n == 2:
        return "shadow.extract_marching"
    return "shadow.extract_newton"


def _newton_counts(name, args, kwargs, result, extra):
    if name == "shadow.extract_newton" and not result.degenerate:
        extra["seeds"] = int(math.prod(result.resolution))
        extra["kept"] = result.n_points


def _curve_steps(name, args, kwargs, result, extra):
    extra["curve_steps"] = sum(r.steps for r in result)  # calls that returned


def _json_bytes(name, args, kwargs, result, extra):
    extra["bytes"] = len(result.encode("utf-8"))


# (defining module, function, span name or name(args, kwargs), rows, post)
FUNCTIONS = (
    ("shadowgeom.geometry", "frames_at", "geometry.frames_at", _points_rows(1), None),
    ("shadowgeom.geometry", "ambient_tangent_basis", "geometry.ambient_tangent_basis",
     _points_rows(1, "x"), None),
    ("shadowgeom.curvature", "christoffels", "curvature.christoffels",
     _points_rows(1), None),
    ("shadowgeom.shadow", "shadow_system", "shadow.shadow_system", _points_rows(2), None),
    ("shadowgeom.shadow", "smoothness_certificate", "shadow.smoothness_certificate",
     _points_rows(2), None),
    ("shadowgeom.shadow", "extract_shadow_set", _extract_name, None, _newton_counts),
    ("shadowgeom.transport", "holonomy_loop", "transport.holonomy_loop", None, None),
    ("shadowgeom.transport", "geodesic_traces", "transport.geodesic_traces",
     _points_rows(1, "starts"), _curve_steps),
    ("shadowgeom.transport", "construct_parallel_field",
     "transport.construct_parallel_field", None, None),
    ("shadowgeom.helix", "classify_hypersurface_helix",
     "helix.classify_hypersurface_helix", None, None),
    ("shadowgeom.helix", "geodesic_alignment_check", "helix.geodesic_alignment_check",
     None, None),
    ("shadowgeom.helix", "helix_constancy_report", "helix.helix_constancy_report",
     None, None),
    ("shadowgeom.helix", "orthogonal_tgs_check", "helix.nested_checks", None, None),
    ("shadowgeom.helix", "tgs_helix_check", "helix.nested_checks", None, None),
    ("shadowgeom.helix", "minimality_criterion", "helix.nested_checks", None, None),
    ("shadowgeom.scene", "load_scene", "scene.load_scene", None, None),
    ("shadowgeom.reporting", "canonical_json", "reporting.canonical_json", None,
     _json_bytes),
    ("shadowgeom.cli", "run", "cli.run", None, None),
)

# (defining module, class, method, span name or name(args, kwargs), rows);
# args[0] is the instance
METHODS = (
    ("shadowgeom.expr", "ChartExpr", "eval_jets", _jets_name, _points_rows(1)),
    ("shadowgeom.expr", "ChartExpr", "eval_values", "expr.values", _points_rows(1)),
    ("shadowgeom.transport", "TransportField", "values", "transport.field_values",
     _points_rows(1)),
)


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        # span: [name, parent index, start, end, rows, raised, extra]
        self.spans: list = []
        self._stack: list = []
        self._undo: list = []
        self._cost = [0.0]  # wrapper seconds outside the wrapped calls

    def _wrap(self, fn, name, rows_fn, post):
        spans, stack, cost = self.spans, self._stack, self._cost
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = clock()
            label = name if isinstance(name, str) else name(args, kwargs)
            rows = rows_fn(args, kwargs) if rows_fn is not None else 0
            span = [label, stack[-1] if stack else -1, 0.0, 0.0, rows, False, None]
            index = len(spans)
            spans.append(span)
            stack.append(index)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[3] = clock()
                span[5] = True
                raise
            else:
                span[3] = clock()
                if post is not None:
                    span[6] = {}
                    post(label, args, kwargs, result, span[6])
                return result
            finally:
                stack.pop()
                cost[0] += (span[2] - entered) + (clock() - span[3])

        return traced

    def install(self):
        """Wrap every traced function at every binding site in shadowgeom."""
        import shadowgeom.cli  # noqa: F401  (loads every module with a binding)

        mods = [m for k, m in sorted(sys.modules.items())
                if m is not None and (k == "shadowgeom" or k.startswith("shadowgeom."))]
        for mod_name, attr, name, rows_fn, post in FUNCTIONS:
            orig = getattr(sys.modules[mod_name], attr)
            wrapper = self._wrap(orig, name, rows_fn, post)
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapper)
                        self._undo.append((mod, key, orig))
        for mod_name, cls_name, attr, name, rows_fn in METHODS:
            cls = getattr(sys.modules[mod_name], cls_name)
            orig = cls.__dict__[attr]
            setattr(cls, attr, self._wrap(orig, name, rows_fn, None))
            self._undo.append((cls, attr, orig))

    def uninstall(self):
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    def summary(self) -> dict:
        """Per span name: calls, rows, self seconds, raised, summed extras;
        "trace.wrappers" holds the wrappers' own seconds."""
        child = [0.0] * len(self.spans)
        for _name, parent, t0, t1, *_ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict = {}
        for i, (name, _parent, t0, t1, rows, raised, extra) in enumerate(self.spans):
            agg = out.setdefault(name, {"calls": 0, "rows": 0, "self_s": 0.0,
                                        "raised": 0})
            agg["calls"] += 1
            agg["rows"] += rows
            agg["self_s"] += (t1 - t0) - child[i]
            agg["raised"] += int(raised)
            for key, value in (extra or {}).items():
                agg[key] = agg.get(key, 0) + value
        out["trace.wrappers"] = {"calls": len(self.spans), "self_s": self._cost[0]}
        return out

    def write_spans(self, fh):
        """One JSON object per span: id, parent, name, start, end, rows, raised."""
        for i, (name, parent, t0, t1, rows, raised, extra) in enumerate(self.spans):
            rec = {"id": i, "parent": parent, "name": name, "start": t0, "end": t1,
                   "rows": rows, "raised": raised}
            if extra:
                rec.update(extra)
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
