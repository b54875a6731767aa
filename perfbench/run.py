"""goerw benchmark: one workload per invocation, from the root of a checkout.

    python3 perfbench/run.py --workload edge-mc --seed 1 --seconds 10 --trace 0

Workloads: edge-mc, cluster, phase-annealed, ruin-tables (see DESIGN.md).

With --trace 0 it reports the end-to-end metrics of one timed run: a single
closed-loop caller in one single-threaded worker process runs fixed-size
experiment units until --seconds have passed. Set-up time is the median of
SETUP_SAMPLES fresh worker processes, each timed from just before it is
spawned to just before its first measured call. Times are rescaled by the
calibration kernel run around them (see calibrate.py); the measured values
are in the info line. With --trace 1 it reports the per-layer metrics of a
separate traced worker.

The last line of stdout is the result: {"correct", "attempted", "failed",
"metrics"}. The line before it holds the seed, machine facts, output digests
and gate details. Exit status is 0 whenever a result is printed, 1 when a
worker fails, 2 when the current directory holds no goerw source tree.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from calibrate import NOMINAL_S, kernel_seconds

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("edge-mc", "cluster", "phase-annealed", "ruin-tables")
SETUP_SAMPLES = 9
DEADLINE_S = 170.0


def machine_facts() -> dict:
    facts = {"nproc": os.cpu_count(), "python": platform.python_version(),
             "cpu": "unknown"}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    facts["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for index in sorted(os.listdir(base)):
            def read(name, index=index):
                with open(os.path.join(base, index, name), encoding="utf-8") as fh:
                    return fh.read().strip()
            if read("type") != "Instruction":
                facts[f"L{read('level')}"] = read("size")
    except OSError:
        pass
    return facts


def spawn(args: list[str], deadline: float) -> tuple[float, dict]:
    """Run one worker to completion; return (monotonic spawn time, its JSON)."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), *args],
                          capture_output=True, text=True, env=env,
                          timeout=max(1.0, deadline - t0))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(1)
    return t0, json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join("src", "goerw", "__init__.py")):
        print("run from the root of a goerw checkout: ./src/goerw is missing",
              file=sys.stderr)
        return 2

    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds)]
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "machine": machine_facts()}

    if args.trace:
        spans = os.path.join(os.getcwd(), "perfbench", "out",
                             f"spans-{args.workload}-seed{args.seed}.tsv")
        _, r = spawn(common + ["--mode", "trace", "--spans", spans], deadline)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in r["layers"].items()}
        info.update(units=r["units"], counters=r["counters"], spans=r["spans"],
                    spans_file=os.path.relpath(spans))
    else:
        # Each sample is one fresh worker that stops where the first
        # measured call would start, rescaled by the kernel run just before
        # its spawn and just after it exits.
        setups, measured_setups = [], []
        for _ in range(SETUP_SAMPLES):
            before = kernel_seconds()
            t0, s = spawn(common + ["--mode", "setup"], deadline)
            after = kernel_seconds()
            measured_setups.append(s["ready"] - t0)
            setups.append(measured_setups[-1] * NOMINAL_S / ((before + after) / 2))
        _, r = spawn(common + ["--mode", "timed"], deadline)
        unit_s = r["unit_s"]
        metrics = {
            "wall_s": {"value": statistics.median(unit_s), "unit": "s"},
            "ops_per_s": {"value": r["ops"] / sum(unit_s), "unit": "ops/s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": r["peak_rss_mb"], "unit": "MiB"},
            "ops_ok_frac": {"value": (r["ops"] - r["failed"]) / r["ops"], "unit": "ratio"},
        }
        info.update(units=len(unit_s), unit_s=unit_s,
                    measured_unit_s=r["measured_unit_s"],
                    setup_samples_s=setups, measured_setup_samples_s=measured_setups)
    info["machine"]["numpy"] = r["numpy"]
    info.update(digest=r["digest"], facts=r["facts"], failures=r["failures"])
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": not r["failures"], "attempted": r["ops"],
                      "failed": r["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
