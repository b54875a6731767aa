"""Statistical gates for a declared change of the clock kernels' random stream.

    PYTHONPATH=src python tools/stream_gates.py

A change that moves the clock kernels' stream on purpose (trajectories,
edge-MC counts and cluster samples change, the law does not) cannot be
pinned bitwise, so it is checked against the exact ruin product Psi:

- edge MC: edge_connection_probability_mc with TRIALS trials on the
  leftmost and the last edge of every depth of each tree/law pair in PAIRS,
  its z-score against Psi;
- cluster: how often each edge of the CLUSTER tree is in the root cluster
  over SAMPLES samples of sample_ruin_percolation, against Psi. Edges on
  one root path are in the cluster together, so their z-scores are
  correlated.

It prints one line per pair and the worst |z| of each gate, and exits 1 if
any |z| is over BOUND, that of the tier-1 gates. It takes about ten seconds
on one core of a 2-core Xeon. It lives outside the tests directory, so
tier-1 never collects it.
"""

from __future__ import annotations

import math
import sys
import time

from goerw.cli import build_environment, parse_tree_spec
from goerw.environment import Psi
from goerw.percolation import edge_connection_probability_mc, sample_ruin_percolation

BOUND = 4.5
TRIALS = 100_000
SAMPLES = 20_000
# (tree, law, environment seed)
PAIRS = [
    ("regular:d=3,L=5", "alpha:point=1", 0),  # the README percolate recipe
    ("regular:d=3,L=4", "det:lambda=3,mu=0.5", 0),
    ("poly:b=1.5,L=6", "alpha:two=0,3,0.5", 1),
    ("path:L=6", "det:lambda=0.4,mu=2.5", 0),
    ("regular:d=2,L=4", "alpha:two=0.5,4,0.3", 2),
]
CLUSTER = ("regular:d=3,L=7", "alpha:two=0,3,0.5", 12)  # the cluster workload's


def edge_gate() -> float:
    worst = 0.0
    for k, (tree_spec, law, seed) in enumerate(PAIRS):
        env = build_environment(parse_tree_spec(tree_spec), law, seed)
        starts = env.tree.levels.starts
        edges = sorted({v for d in range(1, env.tree.truncation_depth + 1)
                        for v in (starts[d], starts[d + 1] - 1)})
        t0 = time.perf_counter()
        zs = [edge_connection_probability_mc(env, e, TRIALS, 1000 + k).z_score for e in edges]
        top = max(map(abs, zs))
        worst = max(worst, top)
        print(f"edge-mc {tree_spec} {law}: {len(edges)} edges x {TRIALS} trials, "
              f"worst |z| {top:.2f} ({time.perf_counter() - t0:.1f} s)")
    return worst


def cluster_gate() -> float:
    tree_spec, law, seed = CLUSTER
    env = build_environment(parse_tree_spec(tree_spec), law, seed)
    n = env.tree.n_vertices
    hits = [0] * n
    t0 = time.perf_counter()
    for i in range(SAMPLES):
        s = sample_ruin_percolation(env, 2000, i)
        if not s.valid:
            raise SystemExit(f"sample {i} hit the step cap")
        for v in s.root_cluster:
            hits[v] += 1
    zs = []
    for v in range(1, n):
        p = Psi(env, v)
        zs.append((hits[v] / SAMPLES - p) / math.sqrt(max(p * (1 - p), 1e-12) / SAMPLES))
    top = max(map(abs, zs))
    print(f"cluster {tree_spec} {law}: {n - 1} edges x {SAMPLES} samples, "
          f"worst |z| {top:.2f} ({time.perf_counter() - t0:.1f} s)")
    return top


def main() -> int:
    worst = max(edge_gate(), cluster_gate())
    print(f"worst |z| {worst:.2f}, bound {BOUND}: {'pass' if worst <= BOUND else 'FAIL'}")
    return 0 if worst <= BOUND else 1


if __name__ == "__main__":
    sys.exit(main())
