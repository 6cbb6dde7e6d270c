#!/usr/bin/env python3
"""wheelmac benchmark: time to a verdict, end to end and layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload theorem --seed 1 --seconds 10 --trace 0

Each workload is a closed loop with one client in one process: the next
verdict is issued when the previous one has returned.  A pass runs the
workload's whole list of verdicts on fresh tables; passes repeat until
``--seconds`` have gone by, and a pass is never cut short.
Every verdict is checked, after the pass clock stopped, against an answer
the timed code did not produce.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one plain
pass and then one pass with span wrappers installed on the library's
layer functions (see spans.py and layers.json), and reports the per-layer
metrics.  The last line of standard output is one JSON object.
"""

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import refclock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_PROBES = 5


def _die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def _load_library():
    """Import wheelmac from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "wheelmac", "__init__.py")):
        _die("no wheelmac sources under %s" % SRC)
    sys.path.insert(0, SRC)
    import wheelmac
    if not os.path.abspath(wheelmac.__file__).startswith(SRC + os.sep):
        _die("imported wheelmac from %s, not from %s" % (wheelmac.__file__, SRC))
    import workloads
    return workloads


def _setup_probe(workload, seed, spawned):
    """Child side of a set-up sample: import, make inputs, report the time."""
    wl = _load_library().WORKLOADS[workload]
    wl.make_inputs(seed)
    print(repr(time.monotonic() - spawned))


def _measure_setup(workload, seed):
    """Median over fresh interpreters of process start to first verdict.

    Each sample is scaled to the reference speed (refclock.py) by probes
    taken just before the child starts and just after it ends.
    """
    samples = []
    for _ in range(SETUP_PROBES):
        before = refclock.probe()
        spawned = time.monotonic()
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(seed), "--setup-probe", repr(spawned)],
            check=True, capture_output=True, text=True, timeout=120)
        after = refclock.probe()
        samples.append(float(out.stdout.split()[-1])
                       / math.sqrt(before * after))
    return statistics.median(samples), samples


def run_pass(wl, inputs, errors, around=contextlib.nullcontext):
    """One pass: time every verdict, then gate the results off the clock.

    ``wall`` and the latencies are work time in reference seconds
    (refclock.py), ``raw_wall`` is plain work time; the speed probes are
    not work time.  ``around()`` is entered just outside the timed loop
    (the traced run installs its wrappers there), so the gate is never
    traced.
    """
    results, failures, timed = [], [], []
    attempted = 0
    timeline = refclock.Timeline()
    with around(), timeline.ticking():
        start = time.perf_counter()
        for key, thunk, counted in wl.verdicts(inputs):
            t0 = time.perf_counter()
            try:
                out = thunk()
            except errors as exc:
                failures.append("%s %r raised %s: %s"
                                % (wl.name, key, type(exc).__name__, exc))
            else:
                results.append((key, out))
            t1 = time.perf_counter()
            timeline.mark()
            attempted += 1
            if counted:
                timed.append((t0, t1))
        end = time.perf_counter()
    failures.extend(wl.gate(inputs, results))
    return {"wall": timeline.work(start, end),
            "raw_wall": timeline.work(start, end, scaled=False),
            "latencies": [timeline.work(a, b) for a, b in timed],
            "attempted": attempted, "failures": failures}


def quantile(values, p):
    """Harrell-Davis estimate of the p-quantile.

    A Beta((n+1)p, (n+1)(1-p))-weighted mean of all order statistics: the
    same quantile as the single order statistic, with a smaller spread
    from run to run, because the neighbours of the p-th value share the
    weight.  The weights are the Beta CDF's increments over [i/n, (i+1)/n],
    integrated numerically on a fine grid.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 64  # per order statistic

    def pdf(x):
        if x <= 0.0 or x >= 1.0:
            return 0.0
        return math.exp(log_norm + (a - 1) * math.log(x)
                        + (b - 1) * math.log(1 - x))

    weights = []
    h = 1.0 / (n * steps)
    for i in range(n):
        lo = i / n
        ys = [pdf(lo + k * h) for k in range(steps + 1)]
        weights.append(h * (sum(ys) - (ys[0] + ys[-1]) / 2))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def _machine():
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return "Python %s (%s), nproc %d, %s" % (
        platform.python_version(), platform.python_implementation(),
        os.cpu_count() or 0, model)


def _metric(metrics, name, value, unit, note=""):
    metrics[name] = {"value": value, "unit": unit}
    print("%-44s %14.6g %-6s %s" % (name, value, unit, note))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", type=float, default=None,
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.setup_probe is not None:
        _setup_probe(args.workload, args.seed, args.setup_probe)
        return 0

    workloads = _load_library()
    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        _die("unknown workload %r (choose from %s)"
             % (args.workload, ", ".join(workloads.WORKLOADS)))
    print("workload %s, seed %d, trace %d; %s"
          % (wl.name, args.seed, args.trace, _machine()))
    inputs = wl.make_inputs(args.seed)
    errors = workloads.VERDICT_ERRORS
    metrics = {}

    if args.trace:
        import spans
        plain = run_pass(wl, inputs, errors)
        tracer = spans.Tracer()
        traced = run_pass(wl, inputs, errors, around=tracer.installed)
        passes = [plain, traced]
        problems = tracer.report(wl.name, traced, plain,
                                 lambda *a: _metric(metrics, *a))
        tracer.write(os.path.join(ROOT, ".bench_trace",
                                  "%s-seed%d.json" % (wl.name, args.seed)))
    else:
        setup_s, setup_samples = _measure_setup(wl.name, args.seed)
        passes = []
        begin = time.perf_counter()
        while not passes or time.perf_counter() - begin < args.seconds:
            passes.append(run_pass(wl, inputs, errors))
        lat = [x for p in passes for x in p["latencies"]]
        count = "(%d samples, %d passes)" % (len(lat), len(passes))
        _metric(metrics, "setup_s", setup_s, "s",
                "(median of %d fresh interpreters)" % len(setup_samples))
        _metric(metrics, "wall_s", statistics.median(p["wall"] for p in passes),
                "s", "(median of %d passes; raw wall %s s)"
                % (len(passes),
                   ", ".join("%.3f" % p["raw_wall"] for p in passes)))
        _metric(metrics, "verdict_p50_s", quantile(lat, 0.5), "s", count)
        _metric(metrics, "verdict_p90_s", quantile(lat, 0.9), "s", count)
        _metric(metrics, "peak_rss_mib",
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "MiB")
        problems = []

    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    print("fail_ratio %d/%d = %.6g" % (len(failures), attempted,
                                       len(failures) / attempted))
    for msg in failures + problems:
        print("FAILED: " + msg, file=sys.stderr)
    correct = not failures and not problems
    if not correct:
        print("FAILED: %d wrong verdicts, %d trace problems"
              % (len(failures), len(problems)), file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
