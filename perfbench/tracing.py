"""Spans around the calls into each borrays layer, recorded from outside.

The tracer replaces public functions (and the three ROADMAP stage
boundaries ``homcount._compiled``, ``homcount._orbit_count`` and the
kernel's ``search_homs``) with wrappers that record a span: name, start,
end, parent span and command id.  ``borrays.cli`` imports several of these
functions by name, so every module attribute bound to an original function
is replaced.  A hook whose function no longer exists is reported absent and
its metrics read null; the run goes on.

Spans stay in memory; :meth:`Tracer.write` saves them when the run ends.
"""

import functools
import importlib
import json
import sys
from collections import defaultdict
from statistics import median, median_low
from time import perf_counter

__all__ = ["Tracer", "LAYER_METRICS", "layer_metrics", "self_times"]

# (module, attribute, span name, counts taken from (args, result)).
HOOKS = (
    ("borrays.diagrams", "builtin", "diagrams.builtin", None),
    ("borrays.diagrams", "concat", "diagrams.concat", None),
    ("borrays.presentations", "presentation", "presentations.presentation",
     lambda args, r: {"generators": len(r.generators)}),
    ("borrays.presentations", "abelianization", "presentations.abelianization", None),
    ("borrays.presentations", "tietze_simplify", "presentations.tietze_simplify",
     lambda args, r: {"letters": sum(len(rel) for rel in r.relators)}),
    ("borrays.homcount", "count_classes_burnside", "homcount.burnside", None),
    ("borrays.homcount", "count_classes_enumerate", "homcount.enumerate", None),
    ("borrays.homcount", "count_total", "homcount.count_total", None),
    ("borrays.homcount", "_compiled", "homcount.order", None),
    ("borrays.homcount", "_orbit_count", "homcount.orbit",
     lambda args, r: {"homs": len(args[0])}),
    ("borrays.homcount:_kernel", "search_homs", "kernel.search_homs",
     lambda args, r: {"homs": r[0], "nodes": r[2]}),
    ("borrays.sequences", "equivalence", "sequences.equivalence",
     lambda args, r: {"period_letters": len(args[0].period) + len(args[1].period)}),
    ("borrays.sequences", "achiral", "sequences.achiral",
     lambda args, r: {"period_letters": len(args[0].period)}),
    ("borrays.groupoid", "realized_closure", "groupoid.realized", None),
    ("borrays.groupoid", "excluded_closure", "groupoid.excluded", None),
)
ROOT = "cli.main"


def _resolve(target):
    module, _, attr = target.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, attr) if attr else obj


class Tracer:
    """Installs the hooks and keeps the spans of one run."""

    def __init__(self):
        # Each span: [name, start, end, parent index, command id, counts].
        self.spans = []
        self.absent = []
        self._stack = []
        self._command = -1
        self._bindings = None  # (module, name, original, wrapper), found once

    def install(self):
        """Replace every hooked function, wherever a borrays module binds it."""
        if self._bindings is None:
            self._bindings = self._find_bindings()
        for module, key, _, wrapped in self._bindings:
            setattr(module, key, wrapped)

    def remove(self):
        """Put the original functions back."""
        for module, key, original, _ in self._bindings or ():
            setattr(module, key, original)

    def _find_bindings(self):
        modules = [m for k, m in sys.modules.items()
                   if k == "borrays" or k.startswith("borrays.")]
        bindings = []
        for target, attr, name, counter in HOOKS:
            try:
                original = getattr(_resolve(target), attr)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            wrapped = self._wrap(original, name, counter)
            for module in modules:
                for key, value in vars(module).items():
                    if value is original:
                        bindings.append((module, key, original, wrapped))
        return bindings

    def traced_main(self, main):
        """``main`` as the root span of one command."""
        wrapped = self._wrap(main, ROOT, None)

        def run(argv):
            self._command += 1
            return wrapped(argv)
        return run

    def _wrap(self, fn, name, counter):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, perf_counter(), None, stack[-1] if stack else -1,
                    self._command, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if counter:
                span[5] = counter(args, result)
            return result
        return traced

    def write(self, path, origin):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, command, counts in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": start - origin, "end": end - origin,
                    "parent": parent, "command": command, "counts": counts or {},
                }) + "\n")


# Per-layer metric -> unit.  Times are seconds per pass.
LAYER_METRICS = {
    "kernel.calls": "count",
    "kernel.nodes": "count",
    "kernel.homs": "count",
    "kernel.s": "s",
    "kernel.nodes_per_s": "1/s",
    "kernel.yield": "homs/node",
    "homcount.count_total_s": "s",
    "homcount.burnside_s": "s",
    "homcount.enumerate_s": "s",
    "homcount.orbit_s": "s",
    "homcount.orbit_homs": "count",
    "homcount.order_s": "s",
    "homcount.order_calls": "count",
    "presentations.presentation_s": "s",
    "presentations.generators": "count",
    "presentations.abelianization_s": "s",
    "presentations.tietze_s": "s",
    "presentations.tietze_letters": "count",
    "diagrams.s": "s",
    "diagrams.calls": "count",
    "sequences.equivalence_s": "s",
    "sequences.achiral_s": "s",
    "sequences.period_letters": "count",
    "cli.self_s": "s",
    "groupoid.realized_s": "s",
    "groupoid.excluded_s": "s",
    "trace.overhead_s": "s",
}

# Time metric -> (span names, child spans whose time is taken out).  The
# four homcount stage times partition the layer: burnside_s excludes the
# count_total inside it, enumerate_s the _orbit_count inside it.
_TIMES = {
    "kernel.s": (("kernel.search_homs",), ()),
    "homcount.count_total_s": (("homcount.count_total",), ()),
    "homcount.burnside_s": (("homcount.burnside",), ("homcount.count_total",)),
    "homcount.enumerate_s": (("homcount.enumerate",), ("homcount.orbit",)),
    "homcount.orbit_s": (("homcount.orbit",), ()),
    "homcount.order_s": (("homcount.order",), ()),
    "presentations.presentation_s": (("presentations.presentation",), ()),
    "presentations.abelianization_s": (("presentations.abelianization",), ()),
    "presentations.tietze_s": (("presentations.tietze_simplify",), ()),
    "diagrams.s": (("diagrams.builtin", "diagrams.concat"), ()),
    "sequences.equivalence_s": (("sequences.equivalence",), ()),
    "sequences.achiral_s": (("sequences.achiral",), ()),
    "groupoid.realized_s": (("groupoid.realized",), ()),
    "groupoid.excluded_s": (("groupoid.excluded",), ()),
}
# Count metric -> (span names, count key or None for the number of spans).
_COUNTS = {
    "kernel.calls": (("kernel.search_homs",), None),
    "kernel.nodes": (("kernel.search_homs",), "nodes"),
    "kernel.homs": (("kernel.search_homs",), "homs"),
    "homcount.orbit_homs": (("homcount.orbit",), "homs"),
    "homcount.order_calls": (("homcount.order",), None),
    "presentations.generators": (("presentations.presentation",), "generators"),
    "presentations.tietze_letters": (("presentations.tietze_simplify",), "letters"),
    "diagrams.calls": (("diagrams.builtin", "diagrams.concat"), None),
    "sequences.period_letters": (("sequences.equivalence", "sequences.achiral"),
                                 "period_letters"),
}


def self_times(spans, first, last):
    """Span name -> self time (duration minus child spans) over spans[first:last]."""
    child = defaultdict(float)
    for name, start, end, parent, _, _ in spans[first:last]:
        if parent >= 0:
            child[parent] += end - start
    out = defaultdict(float)
    for i in range(first, last):
        name, start, end = spans[i][:3]
        out[name] += end - start - child[i]
    return dict(out)


def pass_metrics(spans, first, last):
    """Per-layer metrics of the spans of one pass, ``spans[first:last]``."""
    own = range(first, last)
    child_named = defaultdict(float)
    for name, start, end, parent, _, _ in spans[first:last]:
        if parent >= 0:
            child_named[parent, name] += end - start
    metrics = {}
    for metric, (names, excluded) in _TIMES.items():
        total = 0.0
        for i in own:
            name, start, end, parent = spans[i][:4]
            # Only the outermost span of a layer counts, so nesting adds nothing.
            if name in names and not _has_ancestor(spans, parent, names):
                total += end - start - sum(child_named[i, x] for x in excluded)
        metrics[metric] = total
    for metric, (names, key) in _COUNTS.items():
        metrics[metric] = sum(1 if key is None else (spans[i][5] or {}).get(key, 0)
                              for i in own if spans[i][0] in names)
    metrics["cli.self_s"] = self_times(spans, first, last).get(ROOT, 0.0)
    # Ratios read 0 when their base is 0 (no kernel call in the pass).
    kernel_s, nodes = metrics["kernel.s"], metrics["kernel.nodes"]
    metrics["kernel.nodes_per_s"] = nodes / kernel_s if kernel_s else 0.0
    metrics["kernel.yield"] = metrics["kernel.homs"] / nodes if nodes else 0.0
    return metrics


def _has_ancestor(spans, parent, names):
    while parent >= 0:
        if spans[parent][0] in names:
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(spans, pass_starts, absent, overhead_s):
    """Median over traced passes of each per-layer metric."""
    ends = list(pass_starts[1:]) + [len(spans)]
    per_pass = [pass_metrics(spans, start, end) for start, end in zip(pass_starts, ends)]
    absent_metrics = {m for m, (names, _) in {**_TIMES, **_COUNTS}.items()
                      if any(n in absent for n in names)}
    if "kernel.search_homs" in absent:
        absent_metrics |= {"kernel.nodes_per_s", "kernel.yield"}
    out = {}
    for metric in LAYER_METRICS:
        if metric == "trace.overhead_s":
            out[metric] = overhead_s
        elif metric in absent_metrics:
            out[metric] = None
        else:
            mid = median_low if metric in _COUNTS else median
            out[metric] = mid(p[metric] for p in per_pass)
    return out
