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
connection Monte Carlo and the quasi-independence statistic run their
trials in lockstep (walk.extension_reach), bitwise equal to one scalar run
per trial. A cluster sample reads one clock table, so its runs stay
scalar; each resumes from the state in which the run that opened its
chain head's parent first arrived there, instead of restarting at the root,
and the table keeps every clock value, so a clock read by several runs is
hashed once.

The cluster is not an independent percolation: nearby edges share clocks
through their common ancestors. It is quasi-independent, with an explicit
constant M = (1+K)^2 exp(2K) built from the environment's resistance-to-
potential ratio, and the statistic that certifies this at desk scale is
computed by rejection conditioning on the common ancestor being reached.

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
    psi,  # unused here; perfbench/tracer.py patches this name
    rt_hypothesis_sup,
    sample_random_environment,
)
from .errors import InputError, RefusalError, _enough_trials
from .tree import Tree, _cut_depths
# simulate_extension is not called here; perfbench/tracer.py wraps this name
from .walk import (ClockTable, StopRule, _extension_run, derive_seed, derive_seeds,
                   extension_reach, simulate_extension)

__all__ = [
    "PercolationSample",
    "ConnectionEstimate",
    "QuasiIndependenceReport",
    "ConcentrationReport",
    "sample_ruin_percolation",
    "edge_connection_probability_mc",
    "adapted_conductance",
    "quasi_independence_constant",
    "quasi_independence_statistic",
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
    extension runs (one per chain head) and steps the extension steps they
    executed; both depend only on the environment and the seeds."""

    open_edges: list[bool]
    root_cluster: frozenset[int]
    valid: bool
    monotone_violations: int
    runs: int = 0
    steps: int = 0


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
    starts from that run's race states above x and step count there (the
    step cap binds where a restart's would). The clock table keeps every
    clock value it has computed, so a clock that several runs read is
    hashed once. The runs stay scalar: on one clock table the lockstep
    kernel would run each chain as its own lane.
    """
    tree = env.tree
    depth, first = tree.depth, memoryview(tree.levels.first)
    table = ClockTable(derive_seed(master_seed, sample_index))
    lam, mu = memoryview(env.lam), memoryview(env.mu)
    open_edges = [False] * tree.n_vertices
    cluster = []
    valid = True
    runs = steps = 0
    # pending chain heads, each with its parent x's snapshot: (root path of
    # x, race states of its indices 1..|x|-1, steps) at the first arrival at x
    stack = [(c, ([0], [], 0)) for c in range(first[0], first[1])]
    while stack:
        head, (prefix, saved, t0) = stack.pop()
        path = prefix + [head]
        while first[path[-1]] < first[path[-1] + 1]:
            path.append(first[path[-1]])
        d = depth[head]
        states = [None] * len(path)
        states[1:d - 1] = [r.copy() for r in saved]
        want = {i: None for i in range(d, len(path) - 1)
                if first[path[i] + 1] - first[path[i]] > 1}
        traj = _extension_run(first, lam, mu, table, path, d - 1, states, t0, StopRule(
            max_steps=_EXTENSION_CAP, hit_depth=len(path) - 1, root_returns=1), snaps=want)
        runs += 1
        steps += traj.steps - t0
        valid &= traj.stop_reason != "max_steps"
        for i in range(d, traj.max_depth + 1):
            x = path[i]
            open_edges[x] = True
            cluster.append(x)
            if i in want:
                snap = (path[:i + 1], *want[i])
                stack.extend((c, snap) for c in range(first[x] + 1, first[x + 1]))
    return PercolationSample(open_edges, frozenset(cluster), valid, 0, runs, steps)


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


def quasi_independence_constant(env: Environment) -> tuple[float, float]:
    """(K, M): K is 2 plus the environment's resistance-to-potential sup,
    and M = (1+K)^2 exp(2K) is the quasi-independence constant."""
    K = 2.0 + rt_hypothesis_sup(env)
    return K, (1.0 + K) ** 2 * math.exp(2.0 * K)


# largest invalid fraction of a quasi-independence report that claims holds
INVALID_LIMIT = 0.01


@dataclass
class QuasiIndependenceReport:
    edge_a: int
    edge_b: int
    ancestor: int            # nearest common ancestor vertex (0 for disjoint)
    trials: int
    kept: int                # samples where the ancestor was root-connected
    invalid_runs: int        # samples left out because a run hit the step cap
    invalid_fraction: float  # invalid_runs / trials
    p_a: float
    p_b: float
    p_joint: float
    K: float
    M: float
    bound: float             # M * p_a * p_b
    sigma_joint: float
    holds: bool              # False whenever invalid_fraction > INVALID_LIMIT
    ratio: float | None      # p_joint / (p_a p_b) when defined
    independence_z: float | None  # only for disjoint pairs (ancestor 0)


def quasi_independence_statistic(env: Environment, edge_a: int, edge_b: int,
                                 trials: int, master_seed: int,
                                 min_conditioned: int = 50) -> QuasiIndependenceReport:
    """Empirical check of the quasi-independence inequality for one pair of
    edges: conditioned on their nearest common ancestor being root-connected,
    the joint connection frequency must stay below M times the product of the
    marginals (plus Monte Carlo noise).

    Conditioning is by rejection, so a pair whose ancestor is rarely reached
    can starve; fewer than min_conditioned kept samples is a refusal, not an
    answer. A sample with a run stopped on the step cap decides nothing: it
    is counted in invalid_runs and left out of kept and the hits; the kept
    samples then lean toward short runs, so holds is False whenever more
    than INVALID_LIMIT of the trials are invalid. For pairs
    in disjoint root subtrees the conditioning is empty and the report also
    carries an exact-independence z score, since extensions that share no
    path vertices read disjoint clock sets.

    Trial i reads the clocks of derive_seeds(master_seed, trials)[i]. Its
    run toward edge_a decides the conditioning and edge_a together; only the
    trials it keeps run toward edge_b. Both go in lockstep, == scalar runs.
    """
    tree = env.tree
    # ids are breadth first: the deepest common vertex has the largest id
    shared = max(set(tree.root_path(edge_a)) & set(tree.root_path(edge_b)))
    if shared in (edge_a, edge_b):
        raise ValueError("edges on the same root path make a degenerate pair")
    ds, da, db = tree.depth[shared], tree.depth[edge_a], tree.depth[edge_b]

    seeds = derive_seeds(master_seed, trials)
    reach_a, capped_a, _ = extension_reach(env, edge_a, seeds, _EXTENSION_CAP)
    reached = ~capped_a & (reach_a >= ds)
    reach_b, capped_b, _ = extension_reach(env, edge_b, seeds[reached], _EXTENSION_CAP)
    ca = reach_a[reached][~capped_b] == da
    cb = reach_b[~capped_b] == db
    kept = ca.size
    invalid = int(capped_a.sum() + capped_b.sum())
    if kept < min_conditioned:
        raise RefusalError(
            f"conditioning on vertex {shared} kept {kept} of {trials} samples "
            f"({invalid} capped), fewer than the required {min_conditioned}; "
            "increase trials"
        )
    p_a, p_b, p_joint = (int(hits.sum()) / kept for hits in (ca, cb, ca & cb))
    K, M = quasi_independence_constant(env)
    bound = M * p_a * p_b
    sigma = math.sqrt(max(p_joint * (1 - p_joint), 1e-12) / kept)
    invalid_fraction = invalid / trials
    holds = invalid_fraction <= INVALID_LIMIT and p_joint <= bound + 3 * sigma
    ratio = p_joint / (p_a * p_b) if p_a > 0 and p_b > 0 else None
    indep_z = None
    if shared == 0 and p_a > 0 and p_b > 0:
        d = p_joint - p_a * p_b
        var = max(p_a * p_b * (1 - p_a) * (1 - p_b), 1e-12) / kept
        indep_z = d / math.sqrt(var)
    return QuasiIndependenceReport(
        edge_a=edge_a, edge_b=edge_b, ancestor=shared, trials=trials,
        kept=kept, invalid_runs=invalid, invalid_fraction=invalid_fraction,
        p_a=p_a, p_b=p_b, p_joint=p_joint, K=K, M=M, bound=bound,
        sigma_joint=sigma, holds=holds, ratio=ratio, independence_z=indep_z,
    )


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
    depths = _cut_depths(depths, tree.truncation_depth)
    if len(dist.values) < 2:
        raise RefusalError(
            "concentration over a degenerate (single-point) alpha law says "
            "nothing; use a distribution with at least two atoms"
        )
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
