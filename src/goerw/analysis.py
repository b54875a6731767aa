"""Closed-form oracles and experiment harnesses built on the walk machinery.

Three groups live here:

  * an exact solver small enough to verify by hand: the biased gambler's
    ruin chain, with a lockstep Monte Carlo of the same chain;
  * a flow-energy check that runs the tree max-flow / energy computation
    behind the transience criterion at a sequence of truncation depths;
  * the phase diagnostic, a directional Monte Carlo escape frequency
    compared with the exact escape law of a matched control configuration.

The gambler solver keeps whatever numeric type it is given, so feeding it
``fractions.Fraction`` biases yields exact rationals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .environment import (
    AlphaDistribution,
    Environment,
    _conductance,
    _potentials,
    _ruin_weights,
    environment_from_alpha,  # unused here; perfbench/tracer.py patches this name
    log_Psi,  # likewise
    sample_random_environment,
)
from .errors import RefusalError
from .tree import (DEFAULT_GAMMAS, Tree, TreeFamily, _cut_dp, branching_ruin_estimate,
                   default_depths, polynomial_family)
from .walk import StopRule, derive_seed, simulate


# ---------------------------------------------------------------------------
# gambler's ruin


@dataclass(frozen=True)
class GamblerChain:
    """Birth-death chain on {0, ..., N} absorbed at both ends.

    From site i the chain steps to i-1 with probability mu[i-1]/(1+mu[i-1])
    and to i+1 otherwise; mu lists the down/up bias ratio at the interior
    sites 1..N-1. Entries may be any numeric type supporting arithmetic
    (floats, Fractions, Decimals).
    """

    N: int
    mu: tuple
    start: int

    def __post_init__(self):
        if self.N < 2:
            raise ValueError("chain needs N >= 2")
        if len(self.mu) != self.N - 1:
            raise ValueError(f"need {self.N - 1} interior biases, got {len(self.mu)}")
        if not 0 <= self.start <= self.N:
            raise ValueError("start must lie in [0, N]")
        for i, m in enumerate(self.mu):
            if not m > 0:
                raise ValueError(f"bias at site {i + 1} must be positive")


def _potential(mu: Sequence, k: int):
    """phi(k) = sum_{j=1}^{k} prod_{h=1}^{j-1} mu_h, with phi(0) = 0."""
    total, term = 0, 1
    for j in range(1, k + 1):
        total = total + term
        if j - 1 < len(mu):
            term = term * mu[j - 1]
    return total


def gambler_ruin_exact(chain: GamblerChain):
    """Probability of absorption at 0 before N, starting from chain.start.

    Evaluates 1 - phi(i)/phi(N) where phi is the cumulative product-sum
    potential of the biases. The arithmetic stays in the input type, so
    Fraction biases give an exact rational answer.
    """
    phi_i = _potential(chain.mu, chain.start)
    phi_N = _potential(chain.mu, chain.N)
    return 1 - phi_i / phi_N


_SWEEP_CAP = 10_000_000


def gambler_ruin_mc(chain: GamblerChain, trials: int, seed: int) -> tuple[float, float]:
    """Monte Carlo estimate of the ruin probability with its binomial
    standard error. All trials advance in lockstep on numpy arrays; a trial
    still unabsorbed after _SWEEP_CAP sweeps is a refusal."""
    if trials < 100:
        raise ValueError("need at least 100 trials")
    rng = np.random.default_rng(seed)
    p_down = np.zeros(chain.N + 1)
    for i in range(1, chain.N):
        m = float(chain.mu[i - 1])
        p_down[i] = m / (1.0 + m)
    pos = np.full(trials, chain.start, dtype=np.int64)
    active = (pos > 0) & (pos < chain.N)
    sweeps = 0
    while active.any():
        sweeps += 1
        if sweeps > _SWEEP_CAP:
            raise RefusalError(f"absorption sweep cap {_SWEEP_CAP} exceeded "
                               f"with {active.sum()} of {trials} trials unabsorbed")
        idx = np.flatnonzero(active)
        u = rng.random(idx.size)
        down = u < p_down[pos[idx]]
        pos[idx] = np.where(down, pos[idx] - 1, pos[idx] + 1)
        active[idx] = (pos[idx] > 0) & (pos[idx] < chain.N)
    p_hat = float(np.mean(pos == 0))
    stderr = math.sqrt(max(p_hat * (1.0 - p_hat), 1.0 / trials) / trials)
    return p_hat, stderr


# ---------------------------------------------------------------------------
# flow-energy check


def tree_max_flow(tree: Tree, capacity: np.ndarray, depth: int) -> tuple[float, np.ndarray]:
    """Max flow from the root to the depth-`depth` vertices with per-edge
    capacities capacity[v] by vertex id (v is the edge's lower endpoint),
    at least through `depth`.

    One bottom-up pass suffices on a tree: the flow through an edge is its
    capacity capped by the total its children can carry, which is the min
    cut DP of tree.min_cutset_sum cut at `depth`. Childless vertices above
    the target depth carry nothing. Its child sums are sequential, so the
    result does not depend on the interpreter. Returns (max flow, per-edge
    flow capacity F indexed by vertex id through `depth`: the ids below
    tree.levels.starts[depth + 1], as _cut_dp sizes it)."""
    if not 1 <= depth <= tree.truncation_depth:
        raise ValueError(f"depth must lie in [1, {tree.truncation_depth}]")
    return _cut_dp(tree, capacity, depth)


def proportional_flow(tree: Tree, F: Sequence[float] | np.ndarray, depth: int,
                      total: float) -> dict[int, float]:
    """Route `total` units from the root along the max-flow profile F,
    splitting at each vertex proportionally to the children's capacities.
    F is indexed by vertex id at least through `depth`, as tree_max_flow
    returns it; theta is read no deeper.

    A vertex above `depth` with a positive inflow gives each child c with
    F[c] > 0 the share inflow * F[c] / s, s the sum of those F[c]; the last
    such child receives the exact remainder of the inflow instead. Both
    sums add one child at a time in id order (Tree.child_sums), so theta
    does not depend on the interpreter: from Python 3.12 the builtin sum()
    compensates. Adding the shares up again can still round, so outflow
    matches inflow to within one ulp per child, not bitwise.

    The splits run level by level on arrays. theta maps each child given a
    share to it, in increasing id order."""
    F = np.asarray(F, dtype=np.float64)
    n = tree.n_vertices
    starts, parent = tree.levels.starts, tree.levels.parent
    pos = F > 0.0
    positive = np.where(pos, F, 0.0)
    # last[c]: c is the last child of its parent with F[c] > 0
    live = np.flatnonzero(pos)
    ends = np.ones(live.size, dtype=bool)
    ends[:-1] = parent[live[1:]] != parent[live[:-1]]
    last = np.zeros(n, dtype=bool)
    last[live[ends]] = True
    theta = np.zeros(n)
    theta[0] = total
    given = np.zeros(n, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):  # in discarded entries
        for d, e, chain in tree.level_runs(0, min(depth, tree.truncation_depth), 1):
            a, b = starts[d + 1], starts[e + 1]  # the levels d + 1 .. e
            if chain:  # each inflow passes whole to the only child, while F > 0
                inflow = theta[starts[d]:a]
                live = np.logical_and.accumulate(pos[a:b].reshape(-1, a - starts[d]), axis=0)
                live &= inflow > 0.0
                theta[a:b] = np.where(live, inflow, 0.0).ravel()
                given[a:b] = live.ravel()
                continue
            up = parent[a:b]
            at = up - starts[d]
            inflow = theta[up]
            live = pos[a:b] & (inflow > 0.0)
            if not live.any():
                break
            share = np.where(live, inflow * F[a:b] / tree.child_sums(positive[a:b], d)[at], 0.0)
            rest = tree.child_sums(np.where(last[a:b], 0.0, share), d)
            theta[a:b] = np.where(live & last[a:b], inflow - rest[at], share)
            given[a:b] = live
    ids = np.flatnonzero(given)
    return dict(zip(ids.tolist(), theta[ids].tolist()))


@dataclass(frozen=True)
class FlowEnergyRow:
    depth: int
    max_flow: float
    flow_total: float
    energy: float
    support_edges: int


@dataclass(frozen=True)
class FlowEnergyReport:
    """Flow values and energies across truncation depths.

    degenerate means the scheme failed to produce a uniformly non-zero
    flow at desk scale: either some depth admits no flow at all, or the
    max flow decayed below half its shallowest value by the deepest cut."""

    gamma: float
    rows: list[FlowEnergyRow]

    @property
    def degenerate(self) -> bool:
        # one row is never below half itself unless it is <= 0
        return (any(r.max_flow <= 0.0 for r in self.rows)
                or self.rows[-1].max_flow < 0.5 * self.rows[0].max_flow)


def flow_energy_check(env: Environment, gamma: float,
                      depths: Sequence[int]) -> FlowEnergyReport:
    """Max flow with edge capacities Psi(e)**gamma and the Dirichlet energy
    sum theta(e)^2 / c(e) of the proportionally routed flow, at each depth,
    c the adapted conductance (environment._conductance).

    The capacities are evaluated only where a cut can read them, on the
    cut depths and at the vertices with two or more children, and are +inf
    elsewhere (see environment._ruin_weights). That leaves F, so the max
    flow, theta and the energy, bitwise those of every capacity evaluated:
    Psi never increases down a root path, and gamma > 1.

    The flow is scaled so the total leaving the root is min(1, max flow).
    Bounded energy across growing depths is the desk-scale signature of the
    transient regime; a flow decaying toward zero is flagged degenerate."""
    if not gamma > 1.0:
        raise ValueError("gamma must exceed 1")
    if not depths:
        raise ValueError("need at least one depth")
    depths = sorted(depths)
    tree = env.tree
    if depths[-1] > tree.truncation_depth:
        raise ValueError(f"depth {depths[-1]} exceeds the tree truncation "
                         f"depth {tree.truncation_depth}")

    # cap and conductance are needed down to the deepest cut only
    m = tree.levels.starts[depths[-1] + 1]
    cap = _ruin_weights(tree, _potentials(env)[3][:m], gamma, depths)
    conductance = _conductance(env, 0, m)
    rows = []
    for L in depths:
        max_flow, F = tree_max_flow(tree, cap, L)
        total = min(1.0, max_flow)
        theta = proportional_flow(tree, F, L, total)
        e = np.fromiter(theta.keys(), dtype=np.int64, count=len(theta))
        t = np.fromiter(theta.values(), dtype=np.float64, count=len(theta))
        e, t = e[t > 0.0], t[t > 0.0]
        # np.cumsum adds in order, as the scalar loop did
        energy = float(np.cumsum(t * t / conductance[e])[-1]) if t.size else 0.0
        rows.append(FlowEnergyRow(depth=L, max_flow=max_flow, flow_total=total,
                                  energy=energy, support_edges=int(t.size)))
    return FlowEnergyReport(gamma=gamma, rows=rows)


# ---------------------------------------------------------------------------
# phase diagnostic


@dataclass(frozen=True)
class PhaseVerdict:
    """Outcome of the escape-frequency comparison.

    The verdict is directional, never a claim about almost-sure behavior:
    `transient-leaning` when the escape frequency clears 0.05 and exceeds
    the control by 3 sigma, `recurrent-leaning` when it sits below
    control + 3 sigma, `inconclusive` otherwise. sigma is the standard
    error of the excited lane's Laplace-smoothed escape frequency: the
    control values are exact (see _escape_law), so they add no variance.

    censored counts the excited runs stopped by the horizon. Such a run
    counts as a non-escape though it never decided, so more than
    CENSORED_LIMIT of the trials censored makes the verdict `inconclusive`.
    The exact control law ignores the horizon, so it censors nothing."""

    family: str
    env_spec: str
    m: float
    br_exact: float
    br_estimate: float | None
    threshold: float
    depth: int
    escape_depth: int
    horizon: int
    trials: int
    k_returns: int
    master_seed: int
    escape_freq: float
    mean_returns: float
    censored: int
    control_family: str
    control_env_spec: str
    control_escape_freq: float
    control_mean_returns: float
    sigma: float
    verdict: str

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


# largest censored fraction of the excited trials that still admits a verdict
CENSORED_LIMIT = 0.01

# a phase-diagnostic run stops at its K_RETURNS-th return to the root
K_RETURNS = 10


def _escape_batch(tree: Tree, dist: AlphaDistribution, escape_depth: int,
                  horizon: int, trials: int, seed_base: int) -> tuple[float, float, int]:
    """Annealed escape frequency: a fresh environment and a fresh walk per
    trial. A point mass gives the same environment whatever the seed, so
    it is built once. Returns the escape frequency, the mean root returns
    and the count of runs stopped by the horizon."""
    stop = StopRule(max_steps=horizon, hit_depth=escape_depth,
                    root_returns=K_RETURNS)
    one_atom = len(dist.values) == 1
    env = sample_random_environment(tree, dist, seed_base) if one_atom else None
    escapes = returns_sum = censored = 0
    for t in range(trials):
        if not one_atom:
            env = sample_random_environment(tree, dist,
                                            derive_seed(seed_base, 1, t, 0))
        traj = simulate(env, stop, derive_seed(seed_base, 1, t, 1),
                        record=False)
        escapes += traj.escaped
        returns_sum += traj.root_returns
        censored += traj.stop_reason == "max_steps"
    return escapes / trials, returns_sum / trials, censored


def _escape_law(sizes: Sequence[int]) -> tuple[float, float]:
    """The escape frequency within K_RETURNS root returns and the mean root
    returns of simple random walk from the root of a spherically symmetric
    tree, stopped on reaching the level of its last size. An excursion
    reaches that level before it returns with probability p = C / s(1),
    C = 1 / sum_{n >= 1} 1/s(n) the effective conductance to it
    (Lyons-Peres ch. 2), so the values are 1 - (1 - p)^K and
    sum_{j=1..K} (1 - p)^j, computed exactly and rounded once."""
    q = 1 - 1 / sum(Fraction(1, s) for s in sizes[1:]) / sizes[1]
    return float(1 - q ** K_RETURNS), float(sum(q ** j for j in range(1, K_RETURNS + 1)))


def phase_diagnostic(tree_family: TreeFamily, dist: AlphaDistribution,
                     epsilon_margin: float, escape_depth: int, horizon: int,
                     trials: int, master_seed: int, depth: int) -> PhaseVerdict:
    """Directional recurrence/transience diagnostic via escape frequencies.

    Runs `trials` annealed simulations on the family's depth-`depth` tree,
    each stopped at the first of: reaching `escape_depth`, returning to the
    root K_RETURNS times, or `horizon` steps. The escape frequency is
    compared against a matched control, simple random walk (the zero
    environment) under the same stop rule without the horizon:

      * excited runs (m < 1) are compared with the same tree, isolating
        the excitation effect;
      * unexcited runs are compared with the thin b = 0.25 polynomial
        tree, a configuration deep in the recurrent regime.

    Every family is spherically symmetric, so the control walks nothing:
    its escape frequency and mean returns are the exact law of
    _escape_law, read from the control family's level sizes.

    Refuses near-critical configurations: the family's exact branching-ruin
    index must sit at least epsilon_margin away from the threshold 2 - m.
    The verdict also carries the family's branching-ruin estimate from min
    cutset sums over the default gamma grid and probe depths of every
    cutset table (tree.DEFAULT_GAMMAS, tree.default_depths).
    """
    if trials < 100:
        raise ValueError("need at least 100 trials")
    if escape_depth < 1:
        raise ValueError("escape depth must be positive")
    if depth < escape_depth:
        raise ValueError("tree depth cannot be below the escape depth")

    m = dist.m
    threshold = 2.0 - m
    br = tree_family.br_index
    gap = abs(br - threshold)
    if gap < epsilon_margin:
        raise RefusalError(
            f"near-critical configuration: |br_r - (2 - m)| = {gap:.4f} is "
            f"below the declared margin {epsilon_margin}; no verdict emitted")

    escape_freq, mean_ret, censored = _escape_batch(
        tree_family.build(depth), dist, escape_depth, horizon, trials, master_seed)

    control_family = tree_family if m < 1.0 else polynomial_family(0.25)
    control_freq, control_ret = _escape_law(control_family.level_sizes(escape_depth))

    x = (escape_freq * trials + 1.0) / (trials + 2.0)  # Laplace-smoothed
    sigma = math.sqrt(x * (1.0 - x) / trials)
    if censored > CENSORED_LIMIT * trials:
        verdict = "inconclusive"
    elif escape_freq >= 0.05 and escape_freq > control_freq + 3.0 * sigma:
        verdict = "transient-leaning"
    elif escape_freq < control_freq + 3.0 * sigma:
        verdict = "recurrent-leaning"
    else:
        verdict = "inconclusive"

    table = branching_ruin_estimate(tree_family, DEFAULT_GAMMAS, default_depths(depth))

    return PhaseVerdict(
        family=tree_family.name, env_spec=dist.spec_string(), m=m,
        br_exact=br, br_estimate=table.estimate, threshold=threshold, depth=depth,
        escape_depth=escape_depth, horizon=horizon, trials=trials,
        k_returns=K_RETURNS, master_seed=master_seed,
        escape_freq=escape_freq, mean_returns=mean_ret, censored=censored,
        control_family=control_family.name,
        control_env_spec=AlphaDistribution.point(0.0).spec_string(),
        control_escape_freq=control_freq, control_mean_returns=control_ret,
        sigma=sigma, verdict=verdict)
