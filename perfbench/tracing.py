"""Outside-in layer tracing: wrap the library's public functions.

Nothing in the library changes.  ``Tracer.install`` replaces each traced
function by a wrapper in every ``hypermet`` module namespace that holds
it, in module-level dicts that hold it (such as ``induced._METRICS``),
and on the class for methods and constructors; ``uninstall`` puts the
originals back.  References the wrappers cannot reach (closures, default
arguments, tuples) are listed by ``blind_spots``.

Each call records a span (name, start, end, parent span, op id).  Spans
stay in memory and are written out at the end; once a name passes
``SPAN_CAP`` calls its spans are dropped and only its per-name totals
(calls, total time, self time) are kept.  A span's self time is its
duration minus the time of the spans it directly contains.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import gzip
import json
import sys
import types
from time import perf_counter

SPAN_CAP = 100_000

# layer name -> (module, attribute path)
LAYERS = {
    "geom.gap": ("geom", "gap"),
    "spaces.canon_point": ("spaces", "AmbientSpace.canon_point"),
    "sets.construct": ("sets", "ClosedSet.points ClosedSet.intervals ClosedSet.balls "
                               "ClosedSet.boxes ClosedSet.segments ClosedSet.ray "
                               "ClosedSet.cloud"),
    "sets.components": ("sets", "ClosedSet.components"),
    "sets.dist_to_set": ("sets", "dist_to_set"),
    "sets.union_sets": ("sets", "union_sets"),
    "sets.is_subset": ("sets", "is_subset"),
    "hypermetrics.excess": ("hypermetrics", "excess"),
    "hypermetrics.hausdorff": ("hypermetrics", "hausdorff"),
    "hypermetrics.set_gap": ("hypermetrics", "set_gap"),
    "hypermetrics.sup_gap_on_ball": ("hypermetrics", "sup_gap_on_ball"),
    "hypermetrics.aw_distance": ("hypermetrics", "aw_distance"),
    "hypermetrics.aw_less_than": ("hypermetrics", "aw_less_than"),
    "hitmiss.hits": ("hitmiss", "hits"),
    "hitmiss.subset_of": ("hitmiss", "subset_of"),
    "hitmiss.misses": ("hitmiss", "misses"),
    "hitmiss.converges": ("hitmiss", "converges"),
    "induced.induced_image": ("induced", "induced_image"),
    "actions.act": ("actions", "act"),
    "actions.group_distance": ("actions", "group_distance"),
    "scenarios.run": ("scenarios", "run"),
    "cli.main": ("cli", "main"),
}


class Tracer:
    def __init__(self, refusals=()):
        self.refusals = tuple(refusals)
        self.calls = dict.fromkeys(LAYERS, 0)
        self.total = dict.fromkeys(LAYERS, 0.0)
        self.self_time = dict.fromkeys(LAYERS, 0.0)
        self.refused = dict.fromkeys(LAYERS, 0)
        # refusals leaving a layer (module) into code outside it
        self.layer_refused = dict.fromkeys({n.split(".")[0] for n in LAYERS}, 0)
        self.spans = {name: [] for name in LAYERS}
        self.op = None
        self._stack = []          # open spans: [id, child time, name]
        self._next_id = 0
        self._undo = []
        self._originals = {}
        self._cells = []          # closure cells of the wrappers
        self.patched_containers = []

    # -- spans --------------------------------------------------------

    def _call(self, name, fn, args, kwargs):
        sid = self._next_id
        self._next_id = sid + 1
        stack = self._stack
        parent = stack[-1] if stack else None
        frame = [sid, 0.0, name]
        stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        except self.refusals:
            self.refused[name] += 1
            layer = name.split(".")[0]
            if parent is None or parent[2].split(".")[0] != layer:
                self.layer_refused[layer] += 1
            raise
        finally:
            t1 = perf_counter()
            stack.pop()
            d = t1 - t0
            self.calls[name] += 1
            self.total[name] += d
            self.self_time[name] += d - frame[1]
            if parent is not None:
                parent[1] += d
            spans = self.spans[name]
            if spans is not None:
                if len(spans) < SPAN_CAP:
                    spans.append((sid, t0, t1, parent[0] if parent else None, self.op))
                else:
                    self.spans[name] = None   # aggregate only from here on

    @contextlib.contextmanager
    def op_span(self, op_id, kind):
        """Root span of one top-level op; its children get parent -1 - op_id."""
        self.op = op_id
        self._stack.append([-1 - op_id, 0.0, "op." + kind])
        try:
            yield
        finally:
            self._stack.pop()
            self.op = None

    # -- installing ---------------------------------------------------

    def _wrap(self, name, fn):
        call = self._call

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return call(name, fn, args, kwargs)
        self._cells.extend(traced.__closure__)
        return traced

    def _replace(self, owner, key, new):
        if isinstance(owner, dict):
            self._undo.append((owner, key, owner[key]))
            owner[key] = new
        else:
            self._undo.append((owner, key, owner.__dict__[key]))
            setattr(owner, key, new)

    def install(self, package="hypermet"):
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == package or n.startswith(package + ".")) and m is not None]
        for name, (mod, paths) in LAYERS.items():
            module = sys.modules[f"{package}.{mod}"]
            for path in paths.split():
                if "." in path:
                    cls_name, attr = path.split(".")
                    cls = getattr(module, cls_name)
                    raw = cls.__dict__[attr]
                    if isinstance(raw, staticmethod):
                        raw = staticmethod(self._wrap(name, raw.__func__))
                    else:
                        raw = self._wrap(name, raw)
                    self._replace(cls, attr, raw)
                    continue
                original = getattr(module, path)
                self._originals[f"{mod}.{path}"] = original
                traced = self._wrap(name, original)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            self._replace(m, key, traced)
                        elif isinstance(value, dict) and not key.startswith("__"):
                            for k, v in list(value.items()):
                                if v is original:
                                    self._replace(value, k, traced)
                                    self.patched_containers.append(
                                        f"{m.__name__}.{key}[{k!r}]")

    def uninstall(self):
        for owner, key, old in reversed(self._undo):
            if isinstance(owner, dict):
                owner[key] = old
            else:
                setattr(owner, key, old)
        self._undo.clear()
        self._originals.clear()
        self._cells.clear()

    def blind_spots(self):
        """References to traced module functions that the installed
        wrappers do not cover: closures, default arguments, containers."""
        ours = {id(entry) for entry in self._undo}
        ours.update(id(cell) for cell in self._cells)
        ours.update((id(self._undo), id(self._originals)))
        out = set()
        for where in list(self._originals):
            original = self._originals[where]
            for ref in gc.get_referrers(original):
                if id(ref) in ours or isinstance(ref, types.FrameType):
                    continue
                if isinstance(ref, dict) and ref.get("__wrapped__") is original:
                    continue   # functools.wraps on the wrapper itself
                out.add(f"{where} is held by a {type(ref).__name__}")
        return sorted(out)

    # -- output -------------------------------------------------------

    def write(self, path, meta):
        names = list(LAYERS)
        doc = {
            "meta": meta,
            "columns": ["span", "start_s", "end_s", "parent", "op"],
            "totals": {n: {"calls": self.calls[n], "total_s": self.total[n],
                           "self_s": self.self_time[n]} for n in names},
            "aggregate_only": [n for n in names if self.spans[n] is None],
            "spans": {n: self.spans[n] for n in names if self.spans[n]},
        }
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh)
