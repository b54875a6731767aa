"""Ruin percolation: the bond process carried by the walk's path extensions.

Every sample owns one clock table. The edge above vertex v is open when the
extension along v's root path reaches v before returning to the root.
Extensions toward nested targets read the same clocks, so the run toward v
takes the same steps as the run toward any ancestor a until it first hits a.
One run toward v therefore answers every edge on v's root path: the edge
above a is open iff the run's reach (the deepest path index it visits before
its first root return) is at least |a|. A deeper edge can only be open if
every edge above it is, so the open edges form a downward-grown cluster
around the root and membership of an edge in that cluster is the single
event {edge open}. Its probability is exactly the ruin product Psi of the
environment, which is what every Monte Carlo here is checked against. The
connection Monte Carlo runs its trials in lockstep (walk.extension_reach),
bitwise equal to one scalar run per trial. A cluster sample reads one clock
table, so its runs stay scalar; each resumes from the state in which the
run that opened its chain head's parent first arrived there, instead of
restarting at the root, and the table keeps every clock value, so a clock
read by several runs is hashed once. Every run through a vertex reads its
first step from the same uniform of the table (ClockTable.draw), and the
sample reads each head's chain from the tree (Tree.chain).

The concentration experiment samples fresh random environments and asks how
often the exact Psi of a deep edge leaves its polynomial band; under the
annealed mean m the band exponent is m - 2, and the leave frequency should
die out with depth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .environment import (
    AlphaDistribution,
    Environment,
    Psi,
    _conductance,
    _transition_table,
    psi,  # unused here; perfbench/tracer.py patches this name
    sample_random_environment,
)
from .errors import InputError, RefusalError, _enough_trials
from .tree import Tree, _cut_depths
# simulate_extension is not called here; perfbench/tracer.py wraps this name
from .walk import (ClockTable, _extension_run, derive_seed, derive_seeds, extension_reach,
                   simulate_extension)

__all__ = [
    "PercolationSample",
    "ConnectionEstimate",
    "ConcentrationReport",
    "sample_ruin_percolation",
    "edge_connection_probability_mc",
    "adapted_conductance",
    "concentration_experiment",
]

_EXTENSION_CAP = 10_000_000


@dataclass
class PercolationSample:
    """One realization: open status per edge (indexed by child id, entry 0
    unused) and the root cluster as the set of edges whose whole ancestor
    line is open.

    monotone_violations counts open edges under a closed parent. It is 0 by
    construction, since one run decides a whole root path; the coupling
    that makes this exact is checked against one run per edge in
    tests/test_percolation.py (TestOneRunPerPath). runs is the number of
    extension runs (one per chain head), steps the extension steps they
    executed and clocks the distinct clocks the sample's table computed;
    all three depend only on the environment and the seeds."""

    open_edges: list[bool]
    root_cluster: frozenset[int]
    valid: bool
    monotone_violations: int
    runs: int = 0
    steps: int = 0
    clocks: int = 0


def sample_ruin_percolation(env: Environment, master_seed: int,
                            sample_index: int = 0) -> PercolationSample:
    """Draw one percolation sample of every edge of the tree on a single
    clock table, seeded by (master_seed, sample_index).

    The cluster grows depth first from the root. For each undecided child c
    of a cluster vertex x one extension runs toward the end of c's leftmost
    chain, and every chain vertex up to the run's reach is open. The other
    children of those vertices are decided the same way. A subtree under a
    closed edge is never entered: every edge in it is closed too. A capped
    run still opens the chain up to its reach and marks the sample invalid,
    which is exactly what running every edge's own extension would give.

    No run restarts at the root: until its first arrival at x, the run for
    c takes the steps of the run that opened x, on the same clocks, so it
    starts from that run's race states above x, pending times included,
    and step count there (the step cap binds where a restart's would). The
    last of x's children to run takes that snapshot's states, the others a
    copy. The clock table keeps every clock value it has computed, so a
    clock that several runs read is hashed once; a vertex's first step is
    one hash of the table (ClockTable.draw), the same for every run through
    it. Each head's chain and fork depths come from the tree's table
    (Tree.chain). The runs stay scalar: on one clock table the lockstep
    kernel would run each chain as its own lane.
    """
    tree = env.tree
    first = memoryview(tree.levels.first)
    table = ClockTable(derive_seed(master_seed, sample_index))
    pf, mu = _transition_table(env, later=False)[0], memoryview(env.mu)
    open_edges = [False] * tree.n_vertices
    cluster = []
    valid = True
    runs = steps = 0
    # pending chain heads, each with its parent x's snapshot: (a root path
    # through x, the index |x|, race states of indices 1..|x|-1, steps) at
    # the first arrival at x
    stack = [(c, [0], 0, [], 0) for c in range(first[0], first[1])]
    while stack:
        head, above, i, saved, t0 = stack.pop()
        chain, forks = tree.chain(head)
        path = above[:i + 1] + chain
        k = len(path) - 1
        states = [None] * (k + 1)
        # head's left sibling is x's first child: this is the snapshot's last run
        states[1:i] = saved if head == first[above[i]] + 1 else [r.copy() for r in saved]
        want = dict.fromkeys(forks)
        traj = _extension_run(first, pf, mu, table, path, i, states, t0, _EXTENSION_CAP, k, 1,
                              snaps=want)
        runs += 1
        steps += traj.steps - t0
        valid &= traj.stop_reason != "max_steps"
        reach = traj.max_depth
        opened = chain[:reach - i]
        for x in opened:
            open_edges[x] = True
        cluster += opened
        for j in forks:
            if j > reach:
                break
            x = path[j]
            stack.extend((c, path, j, *want[j]) for c in range(first[x] + 1, first[x + 1]))
    return PercolationSample(open_edges, frozenset(cluster), valid, 0, runs, steps,
                             len(table._clock))


@dataclass
class ConnectionEstimate:
    """Monte Carlo estimate of the probability that an edge sits in the root
    cluster, next to the exact ruin product it must match.

    monotone_violations is 0 by construction, since one run per trial
    decides the whole root path; only the benchmark's gates still read it.
    steps is the total extension steps over the trials.
    The coupling that makes this exact is checked against one run per edge
    in tests/test_percolation.py (TestOneRunPerPath)."""

    edge: int
    depth: int
    trials: int
    n_connected: int
    exact: float
    monotone_violations: int
    invalid_runs: int
    steps: int

    @property
    def p_hat(self) -> float:
        return self.n_connected / self.trials

    @property
    def stderr(self) -> float:
        p = self.p_hat
        return math.sqrt(max(p * (1 - p), 1e-12) / self.trials)

    @property
    def z_score(self) -> float:
        se = math.sqrt(max(self.exact * (1 - self.exact), 1e-12) / self.trials)
        return (self.p_hat - self.exact) / se


def edge_connection_probability_mc(env: Environment, edge: int, trials: int,
                                   master_seed: int) -> ConnectionEstimate:
    """Estimate P(edge is root-connected) from one extension toward the edge
    per trial: the edge is root-connected iff that run reaches it, since the
    run's reach decides every edge of the root path at once. A trial whose
    run hits the step cap counts as invalid, not as closed. The runs go in
    lockstep on numpy (walk.extension_reach), with each clock's log taken
    by math.log, so the counts and steps are == those of one scalar run
    per trial.
    """
    _enough_trials(trials)
    d = env.tree.depth[edge]
    reach, capped, steps = extension_reach(
        env, edge, derive_seeds(master_seed, trials), _EXTENSION_CAP)
    return ConnectionEstimate(
        edge=edge,
        depth=d,
        trials=trials,
        n_connected=int((reach == d).sum()),
        exact=Psi(env, edge),
        monotone_violations=0,
        invalid_runs=int(capped.sum()),
        steps=int(steps.sum()),
    )


def adapted_conductance(env: Environment, e: int) -> float:
    """Conductance the percolation literature attaches to edge e, the entry
    of environment._conductance: 1 at depth 1, else P(root connected to the
    edge) over P(edge closed given its parent end is connected), which here
    is Psi(e) / (1 - psi(e)), and +inf where psi is 1."""
    if e == 0:
        raise ValueError("the root names no edge")
    return float(_conductance(env, e, e + 1)[0])


@dataclass
class ConcentrationReport:
    """Per-depth frequency of the exact ruin product leaving its polynomial
    band across freshly sampled environments."""

    depths: list[int]
    n_environments: int
    epsilon: float
    m: float
    violations: list[int]
    frequencies: list[float] = field(init=False)

    def __post_init__(self):
        self.frequencies = [v / self.n_environments for v in self.violations]


def concentration_experiment(tree: Tree, dist: AlphaDistribution, epsilon: float,
                             depths: list[int], env_samples: int,
                             master_seed: int) -> ConcentrationReport:
    """For each sampled environment check, at each probe depth, whether the
    exact Psi of the leftmost edge stays inside

        kappa^{-1} * n^(m - 2 - eps)  <=  Psi  <=  n^(m - 2 + eps)

    where kappa = 1 + the largest alpha among the root's children. Returns
    violation counts per depth, sorted (see tree._cut_depths); the law of
    large numbers in the annealed mean makes these die out as the depth
    grows."""
    if epsilon <= 0:
        raise InputError("epsilon must be positive")
    _enough_trials(env_samples, 1)
    depths = _cut_depths(depths, tree.truncation_depth)
    if len(set(dist.values)) < 2:
        raise RefusalError("concentration over a degenerate alpha law says nothing; use a law "
                           "with at least two distinct alpha values of positive mass")
    m = dist.m

    def upper(d: int) -> float:
        # an end past the float range is +inf: Psi <= 1 never leaves upward
        try:
            return d ** (m - 2.0 + epsilon)
        except OverflowError:
            return math.inf

    edges = [tree.leftmost_at_depth(d) for d in depths]
    his = [upper(d) for d in depths]
    violations = [0] * len(depths)
    for i in range(env_samples):
        env = sample_random_environment(tree, dist, derive_seed(master_seed, i))
        kappa = 1.0 + max(env.alpha[1:tree.levels.first[1]])  # ids of the root's children
        for k, (d, e, hi) in enumerate(zip(depths, edges, his)):
            val = Psi(env, e)
            lo = d ** (m - 2.0 - epsilon) / kappa
            if not (lo <= val <= hi):
                violations[k] += 1
    return ConcentrationReport(depths, env_samples, epsilon, m, violations)
