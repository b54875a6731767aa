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
import operator
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .environment import (
    AlphaDistribution,
    Environment,
    _conductance,
    _ruin_weights,
    environment_from_alpha,  # unused here; perfbench/tracer.py patches this name
    log_Psi,  # likewise
    sample_random_environment,
)
from .errors import InputError, RefusalError, _enough_trials
from .tree import (DEFAULT_GAMMAS, Tree, TreeFamily, _cut_depths, _cut_dp, _cut_tree,
                   branching_ruin_estimate, default_depths, polynomial_family)
from .walk import StopRule, _splitmix, derive_seed, simulate


# ---------------------------------------------------------------------------
# gambler's ruin


@dataclass(frozen=True)
class GamblerChain:
    """Birth-death chain on {0, ..., N} absorbed at both ends.

    From site i the chain steps to i-1 with probability mu[i-1]/(1+mu[i-1])
    and to i+1 otherwise; mu lists the down/up bias ratio at the interior
    sites 1..N-1, each positive and finite, of any numeric type (floats,
    Fractions, Decimals). N is at least 2; a bad value is an InputError.
    """

    N: int
    mu: tuple
    start: int

    def __post_init__(self):
        if self.N < 2:
            raise InputError(f"chain needs at least two sites (N >= 2), got N = {self.N}")
        if len(self.mu) != self.N - 1:
            raise ValueError(f"need {self.N - 1} interior biases, got {len(self.mu)}")
        if not 0 <= self.start <= self.N:
            raise InputError("start must lie in [0, N]")
        for i, m in enumerate(self.mu):
            if not 0 < m < math.inf:  # NaN fails both
                raise InputError(f"bias at site {i + 1} must be positive and finite, got {m}")


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
    standard error. Each m / (1 + m) is taken in the bias's type and rounded
    once, so a Fraction needs no float. All trials advance in lockstep on
    numpy arrays; a trial still unabsorbed after _SWEEP_CAP sweeps is a refusal."""
    _enough_trials(trials)
    if seed < 0:  # numpy's generators take no negative seed
        raise InputError(f"seed must be at least 0, got {seed}")
    rng = np.random.default_rng(seed)
    p_down = np.array([0.0, *(float(m / (1 + m)) for m in chain.mu), 0.0])
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
    cut DP (tree._cut_dp) at the one depth `depth` (see tree._cut_depths);
    childless vertices above it carry nothing. Its child sums are
    sequential, so the result does not depend on the interpreter. Returns
    (max flow, F): F is the per-edge flow capacity by vertex id through
    `depth`, the ids below tree.levels.starts[depth + 1]."""
    (value,), (F,) = _cut_dp(tree, capacity, _cut_depths([depth], tree.truncation_depth))
    return value, F


class FlowShares(Mapping):
    """theta, the proportional flow, as a read-only mapping from each vertex
    given a share (an int) to its share (a float), in increasing id order,
    over two read-only arrays that array readers such as flow_energy_check
    read directly: ids, the vertices given a share, and theta, the share by
    vertex id (0 where none, the total at the root). A key that is not an
    integer (operator.index) or names no vertex given a share is missing."""

    __slots__ = ("ids", "theta", "_given")

    def __init__(self, given: np.ndarray, theta: np.ndarray):
        self.ids = np.flatnonzero(given)
        self.theta, self._given = theta, given
        for a in (self.ids, theta, given):
            a.flags.writeable = False

    def __getitem__(self, v) -> float:
        try:
            i = operator.index(v)
        except TypeError:
            raise KeyError(v) from None
        if not (0 <= i < self._given.size and self._given[i]):
            raise KeyError(v)
        return float(self.theta[i])

    def __iter__(self):
        return iter(self.ids.tolist())

    def __len__(self) -> int:
        return self.ids.size


def proportional_flow(tree: Tree, F: Sequence[float] | np.ndarray, depth: int,
                      total: float) -> FlowShares:
    """Route `total` units from the root along the max-flow profile F,
    splitting at each vertex proportionally to the children's capacities.
    F is indexed by vertex id at least through `depth`, as tree_max_flow
    returns it; theta is read no deeper.

    A vertex above `depth` with a positive inflow gives each child c with
    F[c] > 0 the share inflow * F[c] / s, s the sum of those F[c]; the last
    such child receives the exact remainder of the inflow instead. Both
    sums add one child at a time in id order, so theta does not depend on
    the interpreter: from Python 3.12 the builtin sum() compensates. Adding
    the shares up again can still round, so outflow matches inflow to
    within one ulp per child, not bitwise.

    Every vertex's s comes from one np.bincount through `depth`, the
    additions of Tree.child_sums; the shares, the remainders and theta run
    level by level on arrays, each level's inflow being the theta of the
    level above. The result maps each child given a share to it, in
    increasing id order, over those arrays (see FlowShares)."""
    F = np.asarray(F, dtype=np.float64)
    n = tree.n_vertices
    starts, parent = tree.levels.starts, tree.levels.parent
    pos = F > 0.0
    # s by vertex, through the cut
    m = starts[min(depth, tree.truncation_depth) + 1]
    s = np.bincount(parent[1:m], weights=np.where(pos[1:m], F[1:m], 0.0), minlength=m)
    # last[c]: c is the last child of its parent with F[c] > 0
    live = np.flatnonzero(pos)
    last = np.zeros(n, dtype=bool)
    last[live[-1:]] = last[live[:-1][parent[live[1:]] != parent[live[:-1]]]] = True
    theta = np.zeros(n)
    theta[0] = total
    with np.errstate(divide="ignore", invalid="ignore"):  # in discarded entries
        for d, e, chain in tree.level_runs(0, min(depth, tree.truncation_depth), 1):
            a, b = starts[d + 1], starts[e + 1]  # the levels d + 1 .. e
            if chain:  # each inflow passes whole to the only child, while F > 0
                inflow = theta[starts[d]:a]
                live = np.logical_and.accumulate(pos[a:b].reshape(-1, a - starts[d]), axis=0)
                live &= inflow > 0.0
                np.copyto(theta[a:b].reshape(live.shape), inflow, where=live)
                continue
            up = parent[a:b]
            inflow = theta[up]
            live = pos[a:b] & (inflow > 0.0)
            share = theta[a:b]
            np.divide(inflow * F[a:b], s[up], out=share, where=live)
            rest = tree.child_sums(np.where(last[a:b], 0.0, share), d)
            np.subtract(inflow, rest[up - starts[d]], out=share, where=live & last[a:b])
    given = np.zeros(n, dtype=bool)  # F > 0 and a positive inflow, at depths 1 .. depth
    given[1:m] = pos[1:m] & (theta[parent[1:m]] > 0.0)
    return FlowShares(given, theta)


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

    The capacities are evaluated only on the cut depths and at the
    vertices with two or more children, and are +inf elsewhere (see
    environment._ruin_weights). That leaves F, so the max flow, theta and
    the energy, bitwise those of every capacity evaluated: Psi never
    increases down a root path, and gamma > 1.

    The flow is scaled so the total leaving the root is min(1, max flow).
    It is read as arrays, the ids given a share and theta by id
    (FlowShares.ids and .theta), the energy summed in id order over the
    shares above 0. Bounded energy across growing depths is the desk-scale
    signature of the transient regime; a flow decaying toward zero is
    flagged degenerate."""
    if not gamma > 1.0:
        raise InputError("gamma must exceed 1")
    tree = env.tree
    depths = _cut_depths(depths, tree.truncation_depth)
    cap = _ruin_weights(tree, env.potentials[3], gamma, depths)
    conductance = _conductance(env, 0, tree.n_vertices)
    rows = []
    for L in depths:
        max_flow, F = tree_max_flow(tree, cap, L)
        total = min(1.0, max_flow)
        flow = proportional_flow(tree, F, L, total)
        e, t = flow.ids, flow.theta[flow.ids]
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
    An escape frequency is at most 1, so a control within 3 sigma of 1
    leaves `transient-leaning` out of reach: the verdict then reads
    `recurrent-leaning` even when every walk escapes.

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
    """Annealed escape frequency, mean root returns and horizon-censored runs, every
    trial in one environment: alpha* = 1/m - 1, m = E[1/(1 + alpha)] exact under the law
    _index draws (an atom's mass is the part of [0, 1) between its cuts), rounded once.
    Those masses are >= 0 and sum to 1, so alpha* >= 0; a one-atom law keeps its atom.
    The law is annealed: mu is 1, so a walk reads alpha_v once, on v's first visit,
    independent of its past, and that step, affine in 1/(1 + alpha), goes to each child
    with mean probability m/deg, as under alpha*; the root steps uniformly in both. Trial
    t walks with seed _splitmix(h ^ 1), h = _splitmix(derive_seed(seed_base, 1) ^ t)."""
    stop = StopRule(max_steps=horizon, hit_depth=escape_depth, root_returns=K_RETURNS)
    cuts = [0, *(min(Fraction(c), 1) for c in dist._cuts), 1]  # probs may sum to 1 + 1e-12
    m = sum((b - a) / (1 + Fraction(x)) for a, b, x in zip(cuts, cuts[1:], dist.values))
    env = sample_random_environment(tree, AlphaDistribution.point(float(1 / m - 1)), seed_base)
    lane = derive_seed(seed_base, 1)
    escapes = returns_sum = censored = 0
    for t in range(trials):
        traj = simulate(env, stop, _splitmix(_splitmix(lane ^ t) ^ 1))
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

    Runs `trials` annealed walks on the family's tree cut at `escape_depth` by the one cut
    rule (tree._cut_tree: the depth-`depth` tree's prefix, so each walk is that tree's bit
    for bit), each stopped at the first of: reaching `escape_depth` (reading nothing there),
    returning to the root K_RETURNS times, or `horizon` steps. All walk the one environment
    of alpha* = 1/m - 1 (_escape_batch): a walk reads alpha_v once, independent of its past,
    and its step there is affine in 1/(1 + alpha), so it has the law's mean, alpha*'s, and
    the root is uniform in both; the escape law depends on the law only through m, as the
    threshold 2 - m does. The escape frequency is compared with a matched control, simple
    random walk (the zero environment) under the same stop rule without the horizon: on
    the same tree for excited runs (m < 1), isolating the excitation effect, and on the
    thin b = 0.25 polynomial tree, deep in the recurrent regime, for unexcited ones.

    Every family is spherically symmetric, so the control walks nothing: its escape
    frequency and mean returns are the exact law of _escape_law, read from the control
    family's level sizes; a control within 3 sigma of 1 leaves `transient-leaning` out of reach.

    Refuses an escape_depth past depth (by the cut rule, before anything else, as every
    command does), an escape_depth of 1, which every walk reaches on its first step, and
    near-critical configurations: the family's exact branching-ruin index must sit at least
    epsilon_margin away from the threshold 2 - m. The verdict also carries the family's
    branching-ruin estimate from min cutset sums over the default gamma grid and probe
    depths of every cutset table (tree.DEFAULT_GAMMAS, tree.default_depths).
    """
    _enough_trials(trials)
    tree = _cut_tree(tree_family.build, depth, [escape_depth])
    if escape_depth == 1:
        raise InputError("escape depth 1 is below 2: every walk reaches it on its first step")

    m = dist.m
    threshold = 2.0 - m
    br = tree_family.br_index
    gap = abs(br - threshold)
    if gap < epsilon_margin:
        raise RefusalError(
            f"near-critical configuration: |br_r - (2 - m)| = {gap:.4f} is "
            f"below the declared margin {epsilon_margin}; no verdict emitted")

    escape_freq, mean_ret, censored = _escape_batch(tree, dist, escape_depth, horizon, trials,
                                                    master_seed)

    control_family = tree_family if m < 1.0 else polynomial_family(0.25)
    control_freq, control_ret = _escape_law(list(control_family.level_sizes(escape_depth)))

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
