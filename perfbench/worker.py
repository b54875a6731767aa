"""Runs one workload in this process and prints one JSON line.

Modes:
  setup  build the workload's inputs, report the monotonic time at which the
         first measured call would start, and exit;
  timed  set up, then run experiment units until --seconds have passed;
  trace  run a fixed number of units three times on the same inputs: once
         plain, twice under the tracer. The traced passes must repeat every
         deterministic counter exactly, and all three must produce the same
         output digest.

The goerw under test is the one in ./src of the current directory.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

from calibrate import NOMINAL_S, kernel_seconds

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))


def _run_units(wl, st, seconds=None, units=None):
    """Run units until `units` are done or `seconds` have passed. Returns
    (rescaled unit times, measured unit times, ops, failed); see calibrate."""
    scaled, measured = [], []
    ops = failed = k = 0
    start = time.perf_counter()
    while True:
        wl.prepare(st, k)
        before = kernel_seconds()
        t0 = time.perf_counter()
        o, f = wl.run(st, k)
        t1 = time.perf_counter()
        after = kernel_seconds()
        wl.settle(st, k)
        measured.append(t1 - t0)
        scaled.append((t1 - t0) * NOMINAL_S / ((before + after) / 2))
        ops += o
        failed += f
        k += 1
        if (k >= units) if units is not None else (t1 - start >= seconds):
            return scaled, measured, ops, failed


def _timed(wl, seed, seconds):
    from tracer import patched

    st = wl.setup(seed)
    with patched(wl.observers(st)):
        scaled, measured, ops, failed = _run_units(wl, st, seconds=seconds)
    facts = wl.check(st)
    return {"unit_s": scaled, "measured_unit_s": measured, "ops": ops, "failed": failed,
            "failures": st.failures, "facts": facts,
            "digest": st.digest.hexdigest(),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def _one_pass(wl, seed, units, tr):
    from tracer import patched, replacements

    with patched(replacements(tr) if tr is not None else []):
        st = wl.setup(seed)
        with patched(wl.observers(st)):
            scaled, _, ops, failed = _run_units(wl, st, units=units)
    return st, sum(scaled), ops, failed


def _trace(wl, seed, seconds, spans_path):
    from tracer import Tracer, layer_metrics

    units = max(1, int(seconds * wl.trace_units_per_second))
    plain, plain_s, ops, failed = _one_pass(wl, seed, units, None)
    a, b = Tracer(), Tracer()
    st_a, traced_s, _, _ = _one_pass(wl, seed, units, a)
    st_b, _, _, _ = _one_pass(wl, seed, units, b)
    facts = wl.check(plain)
    failures = list(plain.failures)
    if a.counts != b.counts:
        diff = sorted(k for k in a.counts.keys() | b.counts.keys() if a.counts[k] != b.counts[k])
        failures.append(f"traced counters differ between passes: {diff}")
    digests = {plain.digest.hexdigest(), st_a.digest.hexdigest(), st_b.digest.hexdigest()}
    if len(digests) != 1:
        failures.append("tracing changed the outputs: digests differ")
    os.makedirs(os.path.dirname(spans_path), exist_ok=True)
    a.write_spans(spans_path)
    layers = layer_metrics(a)
    layers["trace.overhead_frac"] = (traced_s / plain_s - 1.0, "ratio")
    return {"units": units, "ops": ops, "failed": failed, "failures": failures,
            "facts": facts, "digest": plain.digest.hexdigest(),
            "counters": dict(sorted(a.counts.items())), "spans": len(a.spans),
            "layers": {k: list(v) for k, v in layers.items()}}


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=("setup", "timed", "trace"), required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--spans", help="where trace mode writes its spans")
    args = p.parse_args()

    import goerw
    import numpy

    if not os.path.abspath(goerw.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        print(f"goerw imported from {goerw.__file__}, not from ./src", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    if args.mode == "setup":
        wl.setup(args.seed)
        out = {"ready": time.monotonic()}
    elif args.mode == "timed":
        out = _timed(wl, args.seed, args.seconds)
    else:
        out = _trace(wl, args.seed, args.seconds, args.spans)
    out["numpy"] = numpy.__version__
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
