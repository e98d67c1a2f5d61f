"""Spans and output capture around the public calls of the icmeas package.

The tracer replaces every public function of the package (the names in
``icmeas.__all__`` plus ``cli.main``) with a wrapper, in every icmeas module
that refers to it, so calls the program makes internally are seen too.  The
wrappers do two things during a benchmark op:

- always: hand the call's arguments and result to a per-function ``fact``
  hook, which keeps what the output check needs (a measurement series, a
  detection report, a packet count);
- only when the op is traced: record a span (name, start, end, parent, op).

Outside an op the wrappers call straight through.  Spans stay in memory and
are written by the caller when the run ends.
"""

import importlib
import inspect
import sys
import time

LAYERS = ("trafficgen", "meassim", "analytic", "pdmm", "pad", "harness", "cli")


class Tracer:
    def __init__(self, package, facts, tags):
        self.package = package
        self.fact_hooks = facts
        self.tag_hooks = tags
        self.spans = []  # [name, start, end, parent index, op id]
        self.facts = None  # list of (span name, fact) while an op runs
        self.op = None
        self.timing = False
        self._stack = []
        self._patched = []

    def install(self):
        """Wrap each public function wherever an icmeas module binds it."""
        targets = [getattr(self.package, n) for n in self.package.__all__]
        targets.append(importlib.import_module(self.package.__name__ + ".cli").main)
        wrappers = {}
        for fn in targets:
            if inspect.isfunction(fn) and fn.__module__.startswith(self.package.__name__):
                layer = fn.__module__.rsplit(".", 1)[-1]
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{fn.__name__}", fn))
        for modname, mod in list(sys.modules.items()):
            if modname != self.package.__name__ and not modname.startswith(self.package.__name__ + "."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self):
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def _wrap(self, name, fn):
        fact = self.fact_hooks.get(name)
        tag = self.tag_hooks.get(name)

        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            span_name = name if tag is None else f"{name}.{tag(args, kwargs)}"
            if self.timing:
                span = [span_name, time.perf_counter(), 0.0, self._stack[-1], self.op]
                self._stack.append(len(self.spans))
                self.spans.append(span)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    span[2] = time.perf_counter()
                    self._stack.pop()
            else:
                out = fn(*args, **kwargs)
            if fact is not None:
                self.facts.append((span_name, fact(args, kwargs, out)))
            return out

        traced.__wrapped__ = fn
        return traced

    def run_op(self, op_id, traced, fn, *args):
        """Run fn(*args) as op ``op_id``; returns (result, seconds, facts).

        A traced op opens a root span named ``bench.op`` that every span of
        the op descends from.
        """
        self.op, self.timing, self.facts = op_id, traced, []
        root = len(self.spans)
        if traced:
            self.spans.append(["bench.op", 0.0, 0.0, -1, op_id])
            self._stack = [root]
        try:
            t0 = time.perf_counter()
            try:
                out = fn(*args)
            finally:
                t1 = time.perf_counter()
                if traced:
                    self.spans[root][1:3] = [t0, t1]
            return out, t1 - t0, self.facts
        finally:
            self.op, self.timing, self.facts, self._stack = None, False, None, []


def self_times(spans):
    """Each span's duration minus the durations of its direct children."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def op_breakdown(spans):
    """Per traced op: its wall time, per-name total times and per-layer self.

    Returns {op id: {"op_s", "by_name", "self_by_layer"}}.  Self time of the
    benchmark's own ``bench.op`` span is counted under ``harness``, so the
    layer self times of an op add up to its wall time.
    """
    own = self_times(spans)
    ops = {}
    for s, self_s in zip(spans, own):
        entry = ops.setdefault(s[4], {"op_s": 0.0, "by_name": {}, "self_by_layer": {}})
        if s[0] == "bench.op":
            entry["op_s"] = s[2] - s[1]
            layer = "harness"
        else:
            entry["by_name"][s[0]] = entry["by_name"].get(s[0], 0.0) + (s[2] - s[1])
            layer = s[0].split(".", 1)[0]
        entry["self_by_layer"][layer] = entry["self_by_layer"].get(layer, 0.0) + self_s
    return ops


def check_self_time():
    """Self time on a fixed synthetic tree; returns a list of problems."""
    spans = [
        ["bench.op", 0.0, 10.0, -1, 0],
        ["harness.run_experiment", 1.0, 9.0, 0, 0],
        ["meassim.coalesce.hicv1", 2.0, 5.0, 1, 0],
        ["pdmm.detect_stream", 5.5, 8.0, 1, 0],
        ["pdmm.pearson_chi_square", 6.0, 6.5, 3, 0],
    ]
    problems = []
    if self_times(spans) != [2.0, 2.5, 3.0, 2.0, 0.5]:
        problems.append(f"self_times gave {self_times(spans)}")
    entry = op_breakdown(spans)[0]
    want = {"harness": 4.5, "meassim": 3.0, "pdmm": 2.5}
    if entry["self_by_layer"] != want or entry["op_s"] != 10.0:
        problems.append(f"op_breakdown gave {entry}")
    return problems
