"""Alternating A/B pairs of the benchmark: a parent checkout against this one.

    python tools/ab_pairs.py --parent DIR --workload W --seeds 4401-4410 \\
        [--seconds 10] [--out FILE]

Run it from the root of the change's checkout; DIR is the root of the
parent's. --seeds takes ranges and single seeds, comma-separated
("4401-4410", "4401,4405-4407"). The whole seed list and the order of every
run are fixed before the first run. For each seed it runs

    python3 perfbench/run.py --workload W --seed S --seconds N --trace 0

once in each tree, from that tree's root, the parent first on odd seeds and
the change first on even ones.

For each end-to-end metric of BENCHMARK.json (read from this checkout) the
summary gives both medians and their quartiles (numpy's linear
percentiles), the ratio change/parent of the medians, the pairs in which the
change is better (a tie counts for neither side), the parent's IQR, and
whether the change's median is worse than the parent's by more than the
metric's bound, taken relative to the parent's median. A run that exits
nonzero or reports correct: false is listed and counted per side, never
dropped; a metric it did not report is left out of that metric's medians
and of its pair.

It prints one line per run to stderr and the summary as JSON to stdout;
--out also writes the plan, every run and the summary to FILE. It lives
outside the tests directory, so tier-1 never collects it;
tests/test_ab_pairs.py tests summarize on canned runs.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import numpy as np

SIDES = ("parent", "change")


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.strip().partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    if not seeds or len(set(seeds)) != len(seeds):
        raise ValueError(f"need distinct seeds, got {text!r}")
    return seeds


def plan(seeds: list[int]) -> list[tuple[int, str]]:
    """(seed, side) in run order: the parent first on odd seeds."""
    return [(s, side) for s in seeds
            for side in (SIDES if s % 2 else SIDES[::-1])]


def run_once(root: str, workload: str, seed: int, seconds: int) -> dict:
    """One timed run in the checkout at root: its exit code, its result
    (None when stdout ends in no JSON line) and its stderr's last line."""
    proc = subprocess.run(
        ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    errors = proc.stderr.strip().splitlines()
    return {"exit": proc.returncode, "result": result,
            "stderr": errors[-1] if errors else ""}


def _quartiles(values: list[float]) -> dict | None:
    if not values:
        return None
    q1, med, q3 = np.percentile(values, [25, 50, 75]).tolist()
    return {"median": med, "q1": q1, "q3": q3}


def summarize(runs: list[dict], end_to_end: list[dict]) -> dict:
    """The A/B summary of runs, each {"seed", "side", "exit", "result"},
    over the metrics of end_to_end (BENCHMARK.json's entries)."""
    by_pair = {(r["seed"], r["side"]): r for r in runs}
    seeds = list(dict.fromkeys(r["seed"] for r in runs))
    counts = {}
    for side in SIDES:
        mine = [r for r in runs if r["side"] == side]
        results = [r["result"] or {} for r in mine]
        counts[side] = {
            "runs": len(mine),
            "nonzero_exit": sum(r["exit"] != 0 for r in mine),
            "incorrect": sum(res.get("correct") is not True for res in results),
            "attempted_ops": sum(res.get("attempted", 0) for res in results),
            "failed_ops": sum(res.get("failed", 0) for res in results),
        }

    def value(seed, side, name):
        run = by_pair.get((seed, side))
        metric = ((run or {}).get("result") or {}).get("metrics", {}).get(name)
        return None if metric is None else metric["value"]

    metrics = {}
    for m in end_to_end:
        name, sign, bound = m["name"], (1 if m["better"] == "higher" else -1), m["bound"]
        per_side = {side: [value(s, side, name) for s in seeds] for side in SIDES}
        stats = {side: _quartiles([v for v in per_side[side] if v is not None])
                 for side in SIDES}
        better = ties = 0
        for p, c in zip(per_side["parent"], per_side["change"]):
            if p is not None and c is not None:
                better += sign * (c - p) > 0
                ties += c == p
        entry = {"better": m["better"], "bound": bound, **stats,
                 "parent_runs": per_side["parent"], "change_runs": per_side["change"],
                 "ratio": None, "change_better_pairs": better, "tied_pairs": ties,
                 "parent_iqr": None, "worse_than_bound": stats["change"] is None}
        if stats["parent"] and stats["change"]:
            p, c = stats["parent"]["median"], stats["change"]["median"]
            entry["ratio"] = c / p if p else None
            entry["parent_iqr"] = stats["parent"]["q3"] - stats["parent"]["q1"]
            entry["worse_than_bound"] = sign * (c - p) < -bound * abs(p)
        metrics[name] = entry
    return {"seeds": seeds, "counts": counts, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="root of the parent's checkout")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, type=parse_seeds)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        end_to_end = json.load(fh)["end_to_end"]
    roots = {"parent": os.path.abspath(args.parent), "change": os.getcwd()}
    order = plan(args.seeds)
    runs = []
    for seed, side in order:
        run = {"seed": seed, "side": side,
               **run_once(roots[side], args.workload, seed, args.seconds)}
        runs.append(run)
        res = run["result"] or {}
        print(f"{args.workload} seed {seed} {side}: exit {run['exit']}, "
              f"correct {res.get('correct')}", file=sys.stderr)
    summary = summarize(runs, end_to_end)
    print(json.dumps(summary, indent=1))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seconds": args.seconds, "order": order,
                       "runs": runs, "summary": summary}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
