"""Span tracer that wraps compactfix's public functions from outside.

The program is never edited: after `compactfix.cli` is imported, every
public function defined in one of the seven layer modules is replaced by a
timing wrapper at every module attribute it is reachable through (for
example `picard_solve` is looked up via `cli`, `casestudy` and `solver`, and
`classify_ladder` via `compactify` and `funcspace`).  Three methods that
the layer metrics need are wrapped on their class.  Spans stay in memory
and are written once, by `dump`, into a file the caller names; nothing goes
to the program's `--out` directory, so `--no-timestamp` reruns remain
byte-identical.

This module imports only the standard library so that importing it does not
hide any of the program's own import time.
"""

import inspect
import json
import sys
import time
from array import array
from collections import defaultdict

LAYERS = ("cli", "casestudy", "solver", "greenop", "cones", "funcspace",
          "compactify")

# (module, class, method) wrapped on the class itself
METHODS = (("greenop", "GridHammersteinOperator", "__init__"),
           ("greenop", "GridHammersteinOperator", "apply"),
           ("funcspace", "WeightedGridFunction", "face_limit"))

# calls of the first span counted only while the second one is open
NESTED_COUNTS = (("funcspace.quotient_derivative",
                  "solver.asymptotic_profile"),)

# raw spans kept per process; the per-name totals are exact beyond the cap
MAX_SPANS = 200_000

# the problem's forcing term is an input object, wrapped when it is built
NL_EVAL = "greenop.nl_eval"
PROBLEM_LOADERS = ("load_problem", "load_problem_file")


def _apply_t_label(args, kwargs):
    return f"greenop.apply_T[{kwargs.get('method', 'grid')}]"


LABELLERS = {"greenop.apply_T": _apply_t_label}


class Tracer:
    """In-memory span store with per-name calls, busy time and self time.

    Busy time counts each instant once per name, so a function that calls
    itself (directly or through others) is not double counted.  Self time
    is a span's duration minus the time its direct child spans cover.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self._ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.points = defaultdict(int)
        self.nested = defaultdict(int)
        self._open = defaultdict(int)
        self.dropped = 0
        self._stack = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def enter(self, name):
        idx = len(self.span_start)
        if idx < MAX_SPANS:
            self.span_name.append(self._name_id(name))
            self.span_parent.append(self._stack[-1][0] if self._stack else -1)
            self.span_end.append(0.0)
            self.span_start.append(0.0)
        else:
            idx = -1
            self.dropped += 1
        self._open[name] += 1
        start = self.clock()
        if idx >= 0:
            self.span_start[idx] = start
        self._stack.append([idx, name, start, 0.0])

    def exit(self):
        end = self.clock()
        idx, name, start, child = self._stack.pop()
        if idx >= 0:
            self.span_end[idx] = end
        dur = end - start
        self._open[name] -= 1
        self.calls[name] += 1
        self.self_time[name] += dur - child
        if self._open[name] == 0:
            self.busy[name] += dur
        for inner, outer in NESTED_COUNTS:
            if name == inner and self._open[outer]:
                self.nested[f"{inner}<{outer}"] += 1
        if self._stack:
            self._stack[-1][3] += dur

    def wrap(self, name, fn, labeller=None, on_result=None, count_points=None):
        tracer = self

        def traced(*args, **kwargs):
            label = labeller(args, kwargs) if labeller else name
            if count_points is not None:
                tracer.points[label] += count_points(args)
            tracer.enter(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit()
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- installing into the package ---------------------------------------

    def _wrap_nl(self, problem):
        import numpy as np

        nl = getattr(problem, "nl", None)
        if nl is None or hasattr(nl.eval, "__wrapped__"):
            return
        nl.eval = self.wrap(NL_EVAL, nl.eval,
                            count_points=lambda a: int(np.broadcast(*a).size))

    def install(self):
        """Wrap every public layer function wherever compactfix exposes it.

        Call once per process, after `compactfix.cli` is imported.
        """
        mods = {name: sys.modules[f"compactfix.{name}"] for name in LAYERS}
        package_mods = [m for n, m in list(sys.modules.items())
                        if m is not None and n.split(".")[0] == "compactfix"]
        for layer, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                wrapped = self.wrap(
                    name, fn, LABELLERS.get(name),
                    self._wrap_nl if attr in PROBLEM_LOADERS else None)
                for m in package_mods:
                    for key, val in list(vars(m).items()):
                        if val is fn:
                            setattr(m, key, wrapped)
        for layer, cls_name, meth in METHODS:
            cls = getattr(mods[layer], cls_name)
            setattr(cls, meth, self.wrap(f"{layer}.{cls_name}.{meth}",
                                         vars(cls)[meth]))

    # -- output ------------------------------------------------------------

    def summary(self):
        return {"calls": dict(self.calls), "busy_s": dict(self.busy),
                "self_s": dict(self.self_time), "points": dict(self.points),
                "nested_calls": dict(self.nested),
                "spans_kept": len(self.span_start),
                "spans_dropped": self.dropped}

    def dump(self, path, **extra):
        """Write the per-name summary and the kept spans (name, parent,
        start, end) as one JSON document."""
        doc = dict(self.summary(), **extra)
        doc["span_names"] = self.names
        doc["span_columns"] = ["name", "parent", "start", "end"]
        doc["span_rows"] = list(zip(self.span_name, self.span_parent,
                                    self.span_start, self.span_end))
        with open(path, "w") as fh:
            json.dump(doc, fh)
