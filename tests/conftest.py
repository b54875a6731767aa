import math
import random
import warnings
from dataclasses import dataclass, replace
from itertools import product as _iproduct

import numpy as np
import pytest

import goerw.percolation as percolation
import goerw.walk as walk
from goerw.analysis import K_RETURNS, FlowEnergyRow
from goerw.environment import AlphaDistribution, Environment, _potentials, log_Psi
from goerw.errors import RefusalError
from goerw.percolation import adapted_conductance
from goerw.tree import Tree, build_from_edge_list
from goerw.walk import StopRule, WalkTrajectory, derive_seed, derive_seeds, simulate


def psi_simplified(alpha_parent: float, edge_depth: int) -> float:
    """Closed form of psi when mu == 1 and lam = 1 + alpha * deg: the vertex
    degree cancels and only the parent's alpha and the depth remain."""
    if edge_depth < 1:
        raise ValueError("edges start at depth 1")
    if edge_depth == 1:
        return 1.0
    return 1.0 - (2.0 * alpha_parent + 1.0) / ((alpha_parent + 1.0) * edge_depth)


def resistance(env: Environment, e: int) -> float:
    """R(e), read from the potential tables."""
    return float(_potentials(env)[0][e])


def phi(env: Environment, x: int) -> float:
    """phi(x), read from the potential tables."""
    return float(_potentials(env)[1][x])


def weights_of(tree: Tree, w) -> np.ndarray:
    """w(v) by vertex id, 0.0 at the root: a weight function as the array
    that the cutset DP and the tree flow take."""
    return np.array([0.0, *map(w, range(1, tree.n_vertices))])


def random_tree(rng: random.Random, max_edges: int = 20, max_depth: int = 6) -> Tree:
    """Random tree by preferential attachment to anything not yet at the
    depth cap. Always has at least one edge."""
    n_edges = rng.randint(1, max_edges)
    edges = []
    depths = {0: 0}
    frontier = [0]
    for child in range(1, n_edges + 1):
        parent = rng.choice(frontier)
        edges.append((parent, child))
        depths[child] = depths[parent] + 1
        if depths[child] < max_depth:
            frontier.append(child)
    return build_from_edge_list(edges)


def random_broom(rng: random.Random, max_edges: int = 20, max_depth: int = 5) -> Tree:
    """A random tree hung from the end of a path of 0 to 3 edges, its
    deepest vertices each extended by a path of the same 0 to 3 edges:
    levels in which every vertex has one child, above and below the
    branching."""
    t = random_tree(rng, max_edges, max_depth)
    top = rng.randint(0, 3)
    edges = [(k, k + 1) for k in range(top)]
    edges += [(top + t.parent[v], top + v) for v in range(1, t.n_vertices)]
    tail = rng.randint(0, 3)
    nxt = top + t.n_vertices
    for v in range(*t.levels.starts[t.truncation_depth:t.truncation_depth + 2]):
        end = top + v
        for _ in range(tail):
            edges.append((end, nxt))
            end, nxt = nxt, nxt + 1
    return build_from_edge_list(edges)


def chain_tree(width: int, chain: int, dead_end: bool) -> Tree:
    """A root with `width` children, each the top of a path down `chain`
    single-child levels (one chain of Tree.level_runs, `width` wide), whose
    bottom vertices have two children each, the leaves at the truncation
    depth chain + 2. With dead_end, the first bottom vertex has none: a dead
    end on a level that is not a chain."""
    parent = [-1] + [0] * width
    for _ in range(chain):
        top = len(parent) - width
        parent += range(top, top + width)
    top = len(parent) - width
    for i in range(width):
        parent += [top + i] * (0 if dead_end and i == 0 else 2)
    return Tree(parent)


def enumerate_cutsets(tree: Tree) -> list[frozenset[int]]:
    """All minimal cutsets, by brute force. Guarded to 20 edges; this exists
    as an oracle for the dynamic program, not for real use."""
    if tree.n_vertices - 1 > 20:
        raise ValueError("enumerate_cutsets is capped at 20 edges")
    L = tree.truncation_depth

    def for_edge(v: int) -> list[frozenset[int]]:
        if tree.depth[v] == L:
            return [frozenset((v,))]
        kids = tree.children[v]
        if not kids:
            # dead end: a minimal cutset never pays for this branch
            return [frozenset()]
        out = [frozenset((v,))]
        out.extend(combine(kids))
        return out

    def combine(kids: list[int]) -> list[frozenset[int]]:
        pools = [for_edge(c) for c in kids]
        return [frozenset().union(*combo) for combo in _iproduct(*pools)]

    return combine(tree.children[0])


# ---------------------------------------------------------------------------
# scalar oracles for the level-by-level array passes: one vertex at a time
# over breadth-first ids, every sum a left-to-right loop


def cut_dp_ref(tree: Tree, w, depth: int) -> tuple[float, list[float]]:
    """Bottom-up over BFS ids: F[v] = w(v) at `depth`, 0 at a dead end above
    it, else min(w(v), sum of F over the children). Returns (sum of F over
    the root's children, F)."""
    n = tree.n_vertices
    F = [0.0] * n
    for v in range(n - 1, 0, -1):
        d = tree.depth[v]
        if d >= depth:
            if d == depth:
                F[v] = w(v)
            continue
        kids = tree.children[v]
        if not kids:
            continue  # dead end short of the cut depth: nothing to separate
        below = 0.0
        for c in kids:
            below += F[c]
        wv = w(v)
        F[v] = wv if wv <= below else below
    value = 0.0
    for c in tree.children[0]:
        value += F[c]
    return value, F


def potentials_ref(env: Environment) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(R, phi, psi, log Psi) by vertex id, one vertex at a time over
    breadth-first ids: each log Psi is its parent's plus math.log of the
    vertex's own psi, one call per entry (-inf where psi is 0), and the
    root holds R = phi = log Psi = 0 and psi = 1."""
    tree = env.tree
    n = tree.n_vertices
    lam, mu = env.lam.tolist(), env.mu.tolist()
    deg = [ref_deg(tree, v) for v in range(n)]
    R, ph, ps, lp = [0.0] * n, [0.0] * n, [1.0] * n, [0.0] * n
    for v in range(1, n):
        w = tree.parent[v]
        if w == 0:
            R[v] = ph[v] = 1.0
        else:
            R[v] = R[w] * mu[w]
            ph[v] = ph[w] + R[v]
            factor = (lam[w] + (deg[w] - 2) * mu[w] / (mu[w] + 1.0)) / (lam[w] + deg[w] - 1.0)
            ps[v] = 1.0 - (1.0 - ph[tree.parent[w]] / ph[v]) * factor
        lp[v] = lp[w] + (math.log(ps[v]) if ps[v] != 0.0 else -math.inf)
    return tuple(np.array(t) for t in (R, ph, ps, lp))


def proportional_flow_ref(tree: Tree, F, depth: int, total: float) -> dict[int, float]:
    """Route `total` from the root along F, splitting each positive inflow
    above `depth` over the children with F > 0 in proportion to F, the last
    of them taking the remainder. Sums are explicit loops: from Python 3.12
    the builtin sum() compensates."""
    theta: dict[int, float] = {}

    def split(amount, kids):
        live = [c for c in kids if F[c] > 0.0]
        if not live:
            return
        s = 0.0
        for c in live:
            s += F[c]
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


def flow_energy_rows_ref(env, gamma: float, depths) -> list[FlowEnergyRow]:
    """flow_energy_check's rows from the scalar accessors, the scalar DP and
    flow above, and the energy summed edge by edge in theta's order."""
    tree = env.tree
    rows = []
    for L in sorted(depths):
        max_flow, F = cut_dp_ref(tree, lambda v: math.exp(gamma * log_Psi(env, v)), L)
        total = min(1.0, max_flow)
        theta = proportional_flow_ref(tree, F, L, total)
        energy = 0.0
        support = 0
        for e, t in theta.items():
            if t > 0.0:
                support += 1
                energy += t * t / adapted_conductance(env, e)
        rows.append(FlowEnergyRow(depth=L, max_flow=max_flow, flow_total=total,
                                  energy=energy, support_edges=support))
    return rows


# ---------------------------------------------------------------------------
# the direct walk's loop before the single-child table, on parent-step
# probabilities computed one vertex at a time


def ref_deg(tree: Tree, v: int) -> int:
    return len(tree.children[v]) + (v != 0)


def ref_alpha_env(tree: Tree, alpha) -> tuple[list[float], list[float], list[float]]:
    """(alpha, lam, mu) of the alpha family, one vertex at a time."""
    alpha = [float(a) for a in alpha]
    alpha[0] = 0.0
    lam = [1.0 + alpha[v] * ref_deg(tree, v) for v in range(tree.n_vertices)]
    return alpha, lam, [1.0] * tree.n_vertices


def ref_tables(tree: Tree, lam, mu) -> tuple[list[float], list[float]]:
    """(pf, pl): lam/(lam + d - 1) and mu/(mu + d - 1), 1 at a vertex
    without children, 0 at the root."""
    n = tree.n_vertices
    pf = [0.0] * n
    pl = [0.0] * n
    for v in range(1, n):
        if not tree.children[v]:
            pf[v] = pl[v] = 1.0
            continue
        d = ref_deg(tree, v)
        pf[v] = lam[v] / (lam[v] + d - 1)
        pl[v] = mu[v] / (mu[v] + d - 1)
    return pf, pl


def simulate_ref(env: Environment, stop: StopRule, seed: int,
                 record: bool = True) -> WalkTrajectory:
    """walk.simulate as a plain loop: a visited flag per vertex, a branch
    per bound and the child index computed at every down-step, with the
    parent-step probabilities of ref_tables. The referee its trajectories
    must equal bitwise."""
    pf, pl = ref_tables(env.tree, env.lam.tolist(), env.mu.tolist())
    tree = env.tree
    parent, children, depth = tree.parent, tree.children, tree.depth
    rng = random.Random(seed)
    rnd = rng.random
    cap = stop.max_steps
    hd = stop.hit_depth
    rr = stop.root_returns
    visited = bytearray(len(parent))
    positions = [0] if record else None
    v = 0
    steps = 0
    returns = 0
    maxd = 0
    reason = "max_steps"
    while steps < cap:
        if v:
            if visited[v]:
                p = pl[v]
            else:
                visited[v] = 1
                p = pf[v]
            r = rnd()
            if r < p:
                v = parent[v]
            else:
                kids = children[v]
                k = len(kids)
                idx = int((r - p) / (1.0 - p) * k)
                v = kids[idx if idx < k else k - 1]
        else:
            kids = children[0]
            k = len(kids)
            idx = int(rnd() * k)
            v = kids[idx if idx < k else k - 1]
        steps += 1
        if record:
            positions.append(v)
        d = depth[v]
        if d > maxd:
            maxd = d
            if hd is not None and d >= hd:
                reason = "hit_depth"
                break
        if v == 0:
            returns += 1
            if rr is not None and returns >= rr:
                reason = "root_returns"
                break
    return WalkTrajectory(positions, steps, returns, maxd, reason)


class _ReadLog(list):
    """A list that appends to log what each read of one entry names: the
    entry itself (value=True) or its index."""

    def __init__(self, items, log: list, value: bool):
        super().__init__(items)
        self.log, self.value = log, value

    def __getitem__(self, i):
        x = list.__getitem__(self, i)
        self.log.append(x if self.value else i)
        return x


def simulate_recorded(env: Environment, stop: StopRule, seed: int) -> WalkTrajectory:
    """walk.simulate(env, stop, seed) with its positions, read off the
    kernel's own reads: for the one call, both tables of the pair
    _transition_table hands it and tree.parent are lists that log each
    read. Every arrival reads the bias of the vertex it arrives at, one of
    the two tables (the root's first-visit bias before the first step), and
    an up-step reads parent[v], the vertex it moves to, first, so a run that
    ends on a root return, which reads no bias after it, is recorded too.
    The walk never stays put, so the positions are the log with
    consecutive repeats collapsed. The tree's tables that read parent are
    built first, and the tree's list and the kernel's table reader put back
    after, since family trees are shared."""
    tree = env.tree
    tree.levels, tree.only_child  # built from the plain list
    parent, table = tree.parent, walk._transition_table
    log: list[int] = []
    pair = tuple(_ReadLog(t, log, False) for t in table(env))
    tree.parent, walk._transition_table = _ReadLog(parent, log, True), lambda env: pair
    try:
        traj = simulate(env, stop, seed)
    finally:
        tree.parent, walk._transition_table = parent, table
    positions = [v for v, u in zip(log, [-1, *log]) if v != u]
    return replace(traj, positions=positions)


def escape_batch_ref(tree: Tree, dist: AlphaDistribution, escape_depth: int,
                     horizon: int, trials: int, seed_base: int,
                     lane: int, tables: list | None = None) -> tuple[float, float, int]:
    """analysis._escape_batch as a plain loop with its seeds derived under
    `lane` (the shipped batch is lane 1): every trial draws its alphas
    by inverse transform from its own generator (even for a one-atom law,
    whose draws all land on the atom), builds lam and mu one vertex at a
    time (ref_alpha_env), hands them to Environment, which copies and
    checks them, and walks with simulate_ref; each trial's ref_tables are
    appended to tables if it is given. Returns (escape frequency, mean
    root returns, censored runs)."""
    stop = StopRule(max_steps=horizon, hit_depth=escape_depth,
                    root_returns=K_RETURNS)
    n = tree.n_vertices
    escapes = returns = censored = 0
    for t in range(trials):
        u = np.random.default_rng(derive_seed(seed_base, lane, t, 0)).random(n)
        idx = np.searchsorted(np.cumsum(dist.probs), u, side="right")
        alpha = np.asarray(dist.values, dtype=float)[np.minimum(idx, len(dist.values) - 1)]
        _, lam, mu = ref_alpha_env(tree, alpha.tolist())
        env = Environment(tree, lam, mu)
        if tables is not None:
            tables.append(ref_tables(tree, lam, mu))
        traj = simulate_ref(env, stop, derive_seed(seed_base, lane, t, 1), record=False)
        escapes += traj.escaped
        returns += traj.root_returns
        censored += traj.stop_reason == "max_steps"
    return escapes / trials, returns / trials, censored


# ---------------------------------------------------------------------------
# the quasi-independence chain: the constant M = (1 + K)^2 e^(2K) of the
# transience proof, from the sup of R/phi, and the desk-scale statistic that
# checks the inequality on one pair of edges by rejection conditioning


def rt_hypothesis_sup(env: Environment) -> float:
    """sup over edges at depth >= 2 of R(e) / phi(e's parent).

    The recurrence criterion is stated under the standing assumption that
    this is finite along the tree; at desk scale we report the exact max over
    the truncation. Trees of depth < 2 have no such edges, which is reported
    as 0 with a warning since the hypothesis is then vacuous.
    """
    tree = env.tree
    if tree.truncation_depth < 2:
        warnings.warn("tree has no edges at depth >= 2; hypothesis is vacuous",
                      stacklevel=2)
        return 0.0
    R, ph = _potentials(env)[:2]
    a = tree.levels.starts[2]
    # fmax skips a NaN ratio, as the scalar running max did
    return float(np.fmax.reduce(R[a:] / ph[tree.levels.parent[a:]], initial=0.0))



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
    trials it keeps run toward edge_b. Both go in lockstep, == scalar runs,
    on the percolation layer's extension_reach and step cap, read from
    goerw.percolation, so a test that patches either there patches this too.
    """
    tree = env.tree
    # ids are breadth first: the deepest common vertex has the largest id
    shared = max(set(tree.root_path(edge_a)) & set(tree.root_path(edge_b)))
    if shared in (edge_a, edge_b):
        raise ValueError("edges on the same root path make a degenerate pair")
    ds, da, db = tree.depth[shared], tree.depth[edge_a], tree.depth[edge_b]

    seeds = derive_seeds(master_seed, trials)
    reach, cap = percolation.extension_reach, percolation._EXTENSION_CAP
    reach_a, capped_a, _ = reach(env, edge_a, seeds, cap)
    reached = ~capped_a & (reach_a >= ds)
    reach_b, capped_b, _ = reach(env, edge_b, seeds[reached], cap)
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


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
