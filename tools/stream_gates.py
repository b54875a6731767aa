"""Statistical gates for a declared change of a random stream: the clock
kernels' or the annealed phase lane's.

    PYTHONPATH=src python tools/stream_gates.py

A change that moves a stream on purpose (trajectories, edge-MC counts,
cluster samples or escape frequencies change, the law does not) cannot be
pinned bitwise, so it is checked against an exact law or the definition:

- edge MC: edge_connection_probability_mc with TRIALS trials on the
  leftmost and the last edge of every depth of each tree/law pair in PAIRS,
  its z-score against Psi;
- cluster: how often each edge of the CLUSTER tree is in the root cluster
  over SAMPLES samples of sample_ruin_percolation, against Psi. Edges on
  one root path are in the cluster together, so their z-scores are
  correlated;
- annealed: the escape frequency of analysis._escape_batch, which walks
  every trial in the one environment of alpha* = 1/m - 1, with ESCAPES
  trials on the ANNEALED shape (the phase-annealed workload's), against
  the loop that draws a fresh environment per trial (the tests'
  conftest.escape_batch_ref) as a two-sample z; and on each EXACT tree
  under the same law, against the exact escape law of the alpha*
  environment (conftest.escape_exact).

It prints one line per pair and the worst |z| of each gate, and exits 1 if
any |z| is over BOUND, that of the tier-1 gates. It takes about a minute
on one core of a 2-core Xeon, most of it the fresh-environment loop. It
lives outside the tests directory, so tier-1 never collects it.
"""

from __future__ import annotations

import math
import os
import sys
import time

from goerw.analysis import K_RETURNS, _escape_batch
from goerw.cli import build_environment, parse_env_spec, parse_family_spec, parse_tree_spec
from goerw.environment import Psi, environment_from_alpha
from goerw.percolation import edge_connection_probability_mc, sample_ruin_percolation

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tests"))
from conftest import annealed_alpha, escape_batch_ref, escape_exact  # noqa: E402

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
ESCAPES = 20_000
ANNEALED = ("poly:b=1.2,L=64", "alpha:two=0,3,0.5", 48)  # tree, law, escape depth
EXACT = [("regular:d=2,L=3", 3), ("poly:b=1.5,L=4", 4)]  # tree, escape depth
HORIZON = 1_000_000


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


def annealed_gate() -> float:
    family_spec, law, E = ANNEALED
    family, _ = parse_family_spec(family_spec)
    _, dist = parse_env_spec(law)
    tree = family.build(E)
    t0 = time.perf_counter()
    runs = [_escape_batch(tree, dist, E, HORIZON, ESCAPES, 1),
            escape_batch_ref(tree, dist, E, HORIZON, ESCAPES, 2, 1)]
    if any(censored for _, _, censored in runs):
        raise SystemExit("an annealed walk hit the horizon")
    (ours, _, _), (theirs, _, _) = runs
    pooled = (ours + theirs) / 2
    top = abs(ours - theirs) / math.sqrt(2 * pooled * (1 - pooled) / ESCAPES)
    print(f"annealed {family_spec} {law} escape depth {E}: one environment {ours:.5f}, "
          f"fresh per trial {theirs:.5f}, {ESCAPES} trials each, |z| {top:.2f} "
          f"({time.perf_counter() - t0:.1f} s)")
    for k, (tree_spec, E) in enumerate(EXACT):
        tree = parse_tree_spec(tree_spec)
        env = environment_from_alpha(tree, [annealed_alpha(dist)] * tree.n_vertices)
        exact = float(escape_exact(env, E, K_RETURNS))
        freq, _, censored = _escape_batch(tree, dist, E, HORIZON, ESCAPES, 3 + k)
        if censored:
            raise SystemExit("an annealed walk hit the horizon")
        z = abs(freq - exact) / math.sqrt(exact * (1 - exact) / ESCAPES)
        top = max(top, z)
        print(f"annealed {tree_spec} {law} escape depth {E}: {freq:.5f} against exact "
              f"{exact:.5f}, {ESCAPES} trials, |z| {z:.2f}")
    return top


def main() -> int:
    worst = max(edge_gate(), cluster_gate(), annealed_gate())
    print(f"worst |z| {worst:.2f}, bound {BOUND}: {'pass' if worst <= BOUND else 'FAIL'}")
    return 0 if worst <= BOUND else 1


if __name__ == "__main__":
    sys.exit(main())
