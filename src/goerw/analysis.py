"""Closed-form oracles and experiment harnesses built on the walk machinery.

Three groups live here:

  * exact solvers small enough to verify by hand: the biased gambler's ruin
    chain and the Hoeffding tail bound;
  * a flow-energy check that runs the tree max-flow / energy computation
    behind the transience criterion at a sequence of truncation depths;
  * the phase diagnostic, a directional Monte Carlo comparison of escape
    frequencies against a matched control configuration.

The gambler solver keeps whatever numeric type it is given, so feeding it
``fractions.Fraction`` biases yields exact rationals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .environment import (
    AlphaDistribution,
    Environment,
    environment_from_alpha,
    log_Psi,
    sample_random_environment,
)
from .errors import RefusalError
from .percolation import adapted_conductance
from .tree import Tree, TreeFamily, _cut_dp, branching_ruin_estimate, polynomial_family
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
    total = 0
    term = 1
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


def hoeffding_bound(t: float, ranges: Sequence[tuple[float, float]]) -> float:
    """Two-sided Hoeffding tail bound 2 exp(-2 t^2 / sum (b_i - a_i)^2),
    capped at 1. Degenerate ranges contribute zero width."""
    if t <= 0:
        raise ValueError("t must be positive")
    if not ranges:
        raise ValueError("ranges must be non-empty")
    denom = 0.0
    for a, b in ranges:
        if b < a:
            raise ValueError(f"range ({a}, {b}) has b < a")
        denom += (b - a) ** 2
    if denom == 0.0:
        return 0.0
    return min(1.0, 2.0 * math.exp(-2.0 * t * t / denom))


# ---------------------------------------------------------------------------
# flow-energy check


def tree_max_flow(tree: Tree, capacity: Callable[[int], float],
                  depth: int) -> tuple[float, list[float]]:
    """Max flow from the root to the depth-`depth` vertices with per-edge
    capacities capacity(v) (v is the edge's lower endpoint).

    One bottom-up pass suffices on a tree: the flow through an edge is its
    capacity capped by the total its children can carry, which is the min
    cut DP of tree.min_cutset_sum cut at `depth`. Childless vertices above
    the target depth carry nothing. Returns (max flow, per-edge flow
    capacity F indexed by vertex id)."""
    if not 1 <= depth <= tree.truncation_depth:
        raise ValueError(f"depth must lie in [1, {tree.truncation_depth}]")
    total, F, _ = _cut_dp(tree, capacity, depth)
    return total, F


def proportional_flow(tree: Tree, F: Sequence[float], depth: int,
                      total: float) -> dict[int, float]:
    """Route `total` units from the root along the max-flow profile F,
    splitting at each vertex proportionally to the children's capacities.

    The last positive child at each split receives the exact remainder of
    the inflow. Summing the children's shares in floating point can still
    round, so outflow matches inflow to within one ulp per child, not
    bitwise."""
    theta: dict[int, float] = {}

    def split(amount: float, kids: Sequence[int]) -> None:
        live = [c for c in kids if F[c] > 0.0]
        if not live:
            return
        s = sum(F[c] for c in live)
        assigned = 0.0
        for c in live[:-1]:
            t = amount * F[c] / s
            theta[c] = t
            assigned += t
        theta[live[-1]] = amount - assigned

    if total > 0.0:
        split(total, tree.children[0])
    for v in range(1, tree.n_vertices):
        amt = theta.get(v, 0.0)
        if amt > 0.0 and tree.depth[v] < depth:
            split(amt, tree.children[v])
    return theta


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
        if any(r.max_flow <= 0.0 for r in self.rows):
            return True
        if len(self.rows) >= 2 and self.rows[-1].max_flow < 0.5 * self.rows[0].max_flow:
            return True
        return False


def flow_energy_check(env: Environment, gamma: float,
                      depths: Sequence[int]) -> FlowEnergyReport:
    """Max flow with edge capacities Psi(e)**gamma and the Dirichlet energy
    sum theta(e)^2 / c(e) of the proportionally routed flow, at each depth.

    The flow is scaled so the total leaving the root is min(1, max flow).
    Bounded energy across growing depths is the desk-scale signature of the
    transient regime; a flow decaying toward zero is flagged degenerate."""
    if gamma <= 1.0:
        raise ValueError("gamma must exceed 1")
    if not depths:
        raise ValueError("need at least one depth")
    depths = sorted(depths)
    tree = env.tree
    if depths[-1] > tree.truncation_depth:
        raise ValueError(f"depth {depths[-1]} exceeds the tree truncation "
                         f"depth {tree.truncation_depth}")

    def cap(v: int) -> float:
        return math.exp(gamma * log_Psi(env, v))

    rows = []
    for L in depths:
        max_flow, F = tree_max_flow(tree, cap, L)
        total = min(1.0, max_flow)
        theta = proportional_flow(tree, F, L, total)
        energy = 0.0
        support = 0
        for e, t in theta.items():
            if t > 0.0:
                support += 1
                energy += t * t / adapted_conductance(env, e)
        rows.append(FlowEnergyRow(depth=L, max_flow=max_flow,
                                  flow_total=total, energy=energy,
                                  support_edges=support))
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
    error of the frequency difference with Laplace-smoothed proportions.

    censored and control_censored count each lane's runs stopped by the
    horizon. Such a run counts as a non-escape though it never decided, so
    more than CENSORED_LIMIT of a lane's trials censored makes the verdict
    `inconclusive`."""

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
    control_censored: int
    sigma: float
    verdict: str

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


# largest censored fraction of a lane that still admits a phase verdict
CENSORED_LIMIT = 0.01


def _escape_batch(tree: Tree, dist: AlphaDistribution, escape_depth: int,
                  horizon: int, trials: int, k_returns: int,
                  seed_base: int, lane: int) -> tuple[float, float, int]:
    """Annealed escape frequency: a fresh environment and a fresh walk per
    trial. A point mass needs no per-trial environment. Returns the escape
    frequency, the mean root returns and the count of runs stopped by the
    horizon."""
    stop = StopRule(max_steps=horizon, hit_depth=escape_depth,
                    root_returns=k_returns)
    fixed_env = None
    if len(dist.values) == 1:
        alpha = [float(dist.values[0])] * tree.n_vertices
        fixed_env = environment_from_alpha(tree, alpha, m=dist.m,
                                           dist_spec=dist.spec_string())
    escapes = 0
    returns_sum = 0
    censored = 0
    for t in range(trials):
        if fixed_env is not None:
            env = fixed_env
        else:
            env = sample_random_environment(tree, dist,
                                            derive_seed(seed_base, lane, t, 0))
        traj = simulate(env, stop, derive_seed(seed_base, lane, t, 1),
                        record=False)
        if traj.escaped:
            escapes += 1
        returns_sum += traj.root_returns
        censored += traj.stop_reason == "max_steps"
    return escapes / trials, returns_sum / trials, censored


def _smoothed_diff_sigma(p: float, q: float, n: int) -> float:
    def v(x: float) -> float:
        x = (x * n + 1.0) / (n + 2.0)
        return x * (1.0 - x) / n
    return math.sqrt(v(p) + v(q))


def phase_diagnostic(tree_family: TreeFamily, dist: AlphaDistribution,
                     epsilon_margin: float, escape_depth: int, horizon: int,
                     trials: int, master_seed: int, depth: int | None = None,
                     k_returns: int = 10,
                     gamma_grid: Sequence[float] | None = None) -> PhaseVerdict:
    """Directional recurrence/transience diagnostic via escape frequencies.

    Runs `trials` annealed simulations stopped at the first of: reaching
    `escape_depth`, returning to the root `k_returns` times, or `horizon`
    steps. The escape frequency is compared against a matched control:

      * excited runs (m < 1) use the same tree with the zero environment,
        isolating the excitation effect;
      * unexcited runs use the zero environment on the thin b = 0.25
        polynomial tree, a configuration deep in the recurrent regime.

    Refuses near-critical configurations: the family's exact branching-ruin
    index must sit at least epsilon_margin away from the threshold 2 - m.
    """
    if tree_family.br_index is None:
        raise ValueError("tree family must declare its branching-ruin index")
    if trials < 100:
        raise ValueError("need at least 100 trials")
    if escape_depth < 1:
        raise ValueError("escape depth must be positive")
    if depth is None:
        depth = escape_depth + 16
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

    tree = tree_family.build(depth)
    escape_freq, mean_ret, censored = _escape_batch(
        tree, dist, escape_depth, horizon, trials, k_returns, master_seed, 1)

    zero = AlphaDistribution.point(0.0)
    if m < 1.0:
        control_family = tree_family
        control_tree = tree
    else:
        control_family = polynomial_family(0.25)
        control_tree = control_family.build(depth)
    control_freq, control_ret, control_censored = _escape_batch(
        control_tree, zero, escape_depth, horizon, trials, k_returns,
        master_seed, 2)

    sigma = _smoothed_diff_sigma(escape_freq, control_freq, trials)
    if max(censored, control_censored) > CENSORED_LIMIT * trials:
        verdict = "inconclusive"
    elif escape_freq >= 0.05 and escape_freq > control_freq + 3.0 * sigma:
        verdict = "transient-leaning"
    elif escape_freq < control_freq + 3.0 * sigma:
        verdict = "recurrent-leaning"
    else:
        verdict = "inconclusive"

    if gamma_grid is None:
        gamma_grid = [round(0.1 * g, 10) for g in range(1, 31)]
    probe_depths = [d for d in (8, 16, 32, 64, 128) if d <= depth] or [depth]
    table = branching_ruin_estimate(tree_family, gamma_grid, probe_depths)
    estimate = table.estimate

    return PhaseVerdict(
        family=tree_family.name, env_spec=dist.spec_string(), m=m,
        br_exact=br, br_estimate=estimate, threshold=threshold, depth=depth,
        escape_depth=escape_depth, horizon=horizon, trials=trials,
        k_returns=k_returns, master_seed=master_seed,
        escape_freq=escape_freq, mean_returns=mean_ret, censored=censored,
        control_family=control_family.name,
        control_env_spec=zero.spec_string(),
        control_escape_freq=control_freq, control_mean_returns=control_ret,
        control_censored=control_censored, sigma=sigma, verdict=verdict)
