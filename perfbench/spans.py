"""Span tracing of the library's layers, installed from outside the library.

``Tracer.installed()`` replaces each target named in layers.json with a
wrapper, on every module attribute and class attribute through which the
library looks it up (``rank_kernel_poly`` lives in ``linalg`` but is called
as ``wheel_ideal.rank_kernel_poly`` and ``current_algebra.rank_kernel_poly``),
and restores the originals on exit.

Wrappers of functions and methods keep a span stack: a span's self time is
its duration minus the durations of the spans it caused.  A generator
(``constraint_rows``) is timed while it is drained, one span per item.
Scalar dunders run 10^5-10^6 times per pass, so they only count calls.

Spans stay in memory, aggregated by (parent span, span) edge with calls,
total and self time -- one record per call would be 10^6 records -- and
``write`` stores them as JSON once the run is over.
"""

import contextlib
import importlib
import json
import os
import sys
from time import perf_counter

import refclock

with open(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "layers.json")) as _fh:
    LAYERS = json.load(_fh)

ROOT_SPAN = "<benchmark>"
PROBE_SPAN = "<speed probe>"


class Tracer:

    def __init__(self):
        self.stack = [[ROOT_SPAN, 0.0]]  # [name, time spent in child spans]
        self.stats = {}   # span name -> [calls, self seconds]
        self.counts = {}  # "name.stat" -> count (rows, terms, hits)
        self.edges = {}   # (parent name, name) -> [calls, total s, self s]
        self._undo = []

    # -- wrappers ------------------------------------------------------

    def _close(self, name, frame, dur):
        """Pop a finished span and charge its time to the parent."""
        stack = self.stack
        stack.pop()
        parent = stack[-1]
        parent[1] += dur
        own = dur - frame[1]
        stat = self.stats[name]
        stat[1] += own
        edge = self.edges.get((parent[0], name))
        if edge is None:
            edge = self.edges[(parent[0], name)] = [0, 0.0, 0.0]
        edge[0] += 1
        edge[1] += dur
        edge[2] += own

    def span(self, name, fn, pre=None, post=None):
        """Time fn as a span.

        pre may rewrite the positional arguments; post sees the result.
        """
        stat = self.stats.setdefault(name, [0, 0.0])
        stack = self.stack
        close = self._close

        def wrapper(*args, **kwargs):
            if pre is not None:
                args = pre(args)
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(name, frame, perf_counter() - t0)
                stat[0] += 1
            if post is not None:
                post(result)
            return result
        return wrapper

    def generator(self, name, fn):
        """A generator function, timed only while an item is being produced."""
        stat = self.stats.setdefault(name, [0, 0.0])
        stack = self.stack
        close = self._close
        rows = name + ".rows"
        self.counts[rows] = 0
        counts = self.counts

        def wrapper(*args, **kwargs):
            stat[0] += 1
            it = fn(*args, **kwargs)
            while True:
                frame = [name, 0.0]
                stack.append(frame)
                t0 = perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    close(name, frame, perf_counter() - t0)
                counts[rows] += 1
                yield item
        return wrapper

    def counter(self, name, fn):
        """Count calls of a binary dunder, without a span."""
        box = self.counts.setdefault(name + ".calls", [0])

        def wrapper(a, b):
            box[0] += 1
            return fn(a, b)
        return wrapper

    # -- the per-target hooks ------------------------------------------

    def _bump(self, key, by=1):
        self.counts[key] = self.counts.get(key, 0) + by

    def _make(self, target, fn):
        name, kind = target["name"], target["kind"]
        if kind == "span":
            return self.span(name, fn)
        if kind == "count":
            return self.counter(name, fn)
        if kind == "generator":
            return self.generator(name, fn)
        if kind == "compute_P":
            normalize = importlib.import_module("wheelmac.partitions").normalize
            self._bump(name + ".hits", 0)

            def pre(args):
                table, lam = args[0], args[1]
                if normalize(lam) in table.entries:
                    self._bump(name + ".hits")
                return args
            return self.span(name, fn, pre=pre)
        if kind == "operator":
            def pre(args):
                self._bump(name + ".terms_in", len(args[0].coeffs))
                return args

            def post(result):
                self._bump(name + ".terms_out", len(result.coeffs))
            self._bump(name + ".terms_in", 0)
            self._bump(name + ".terms_out", 0)
            return self.span(name, fn, pre=pre, post=post)
        if kind == "rows_in":
            key = name + ".rows_in"
            self._bump(key, 0)

            def counted(rows):
                for row in rows:
                    self.counts[key] += 1
                    yield row

            def pre(args):
                return (counted(args[0]),) + args[1:]
            return self.span(name, fn, pre=pre)
        if kind == "rows_out":
            key = name + ".rows"
            self._bump(key, 0)

            def post(result):
                self._bump(key, len(result))
            return self.span(name, fn, post=post)
        raise ValueError("unknown wrapper kind %r" % kind)

    # -- installation --------------------------------------------------

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        # speed probes can fire inside any span: give them a span of their own
        self._patch(refclock, "probe", self.span(PROBE_SPAN, refclock.probe))
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "wheelmac" or n.startswith("wheelmac.")]
        for target in LAYERS["targets"]:
            module_name, _, path = target["patch"].partition(":")
            owner = importlib.import_module("wheelmac." + module_name)
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._make(target, original)
            if cls_path:
                # the class attribute and its aliases (__rmul__ = __mul__)
                for alias, value in list(vars(owner).items()):
                    if value is original:
                        self._patch(owner, alias, wrapper)
            else:
                # every module that imported the function by name
                for module in modules:
                    for alias, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, alias, wrapper)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- results -------------------------------------------------------

    def calls(self, name):
        stat = self.stats.get(name)
        if stat is not None:
            return stat[0]
        box = self.counts.get(name + ".calls")
        return box[0] if box is not None else 0

    def layer_self(self):
        return sum(s[1] for n, s in self.stats.items() if n != PROBE_SPAN)

    def value(self, metric, traced, plain):
        """One per-layer metric.  Self times are scaled to the reference
        speed by the traced pass's mean factor (see run.run_pass)."""
        if metric == "trace.overhead_ratio":
            return traced["wall"] / plain["wall"]
        if metric == "trace.attributed_ratio":
            return self.layer_self() / traced["raw_wall"]
        name, stat = metric.rsplit(".", 1)
        if stat == "calls":
            return self.calls(name)
        if stat == "self_s":
            return self.stats[name][1] * traced["wall"] / traced["raw_wall"]
        if stat == "hit_ratio":
            calls = self.calls(name)
            return self.counts[name + ".hits"] / calls if calls else 0.0
        if stat == "rounds":
            calls = self.calls(name)
            return self.calls("linalg.triangularize") / calls if calls else 0.0
        return self.counts[metric]

    def report(self, workload, traced, plain, emit):
        """Emit every per-layer metric; return the self-check's complaints."""
        for m in LAYERS["metrics"]:
            emit(m["name"], self.value(m["name"], traced, plain), m["unit"])
        problems = []
        for target in LAYERS["targets"]:
            calls = self.calls(target["name"])
            if workload in target["used_on"] and not calls:
                problems.append("trace: %s recorded no calls on %s"
                                % (target["name"], workload))
            if workload in target["zero_on"] and calls:
                problems.append("trace: %s was predicted idle on %s but "
                                "recorded %d calls"
                                % (target["name"], workload, calls))
        # the span stack must unwind, the self times of all spans must add
        # up to the time spent inside top-level spans, and the layers' self
        # times must fit in the traced pass's work time
        inside = self.stack[0][1]
        total_self = sum(s[1] for s in self.stats.values())
        if len(self.stack) != 1:
            problems.append("trace: span stack not empty at the end")
        if abs(total_self - inside) > 1e-6 * max(1.0, inside) \
                or self.layer_self() > traced["raw_wall"]:
            problems.append("trace: self times add up to %.6f s, top-level "
                            "spans to %.6f s, work time is %.6f s"
                            % (total_self, inside, traced["raw_wall"]))
        return problems

    def write(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        edges = [{"parent": p, "span": n, "calls": c, "total_s": tot,
                  "self_s": own}
                 for (p, n), (c, tot, own) in sorted(self.edges.items())]
        counts = {k: (v[0] if isinstance(v, list) else v)
                  for k, v in sorted(self.counts.items())}
        with open(path, "w") as fh:
            json.dump({"edges": edges, "counts": counts}, fh, indent=1)
