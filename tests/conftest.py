import math
import random
from itertools import product as _iproduct

import numpy as np
import pytest

from goerw.analysis import K_RETURNS, FlowEnergyRow
from goerw.environment import (AlphaDistribution, Environment, _potentials,
                               environment_from_alpha, log_Psi)
from goerw.percolation import adapted_conductance
from goerw.tree import Tree, build_from_edge_list
from goerw.walk import StopRule, WalkTrajectory, derive_seed


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
    for v in t.vertices_at_depth(t.truncation_depth):
        end = top + v
        for _ in range(tail):
            edges.append((end, nxt))
            end, nxt = nxt, nxt + 1
    return build_from_edge_list(edges)


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


def escape_batch_ref(tree: Tree, dist: AlphaDistribution, escape_depth: int,
                     horizon: int, trials: int, seed_base: int,
                     lane: int) -> tuple[float, float, int]:
    """analysis._escape_batch as a plain loop with its seeds derived under
    `lane` (the shipped batch is lane 1): every trial draws its alphas
    by inverse transform from its own generator (even for a one-atom law,
    whose draws all land on the atom), passes them to
    environment_from_alpha and walks with simulate_ref. Returns (escape
    frequency, mean root returns, censored runs)."""
    stop = StopRule(max_steps=horizon, hit_depth=escape_depth,
                    root_returns=K_RETURNS)
    n = tree.n_vertices
    escapes = returns = censored = 0
    for t in range(trials):
        u = np.random.default_rng(derive_seed(seed_base, lane, t, 0)).random(n)
        idx = np.searchsorted(np.cumsum(dist.probs), u, side="right")
        alpha = np.asarray(dist.values, dtype=float)[np.minimum(idx, len(dist.values) - 1)]
        env = environment_from_alpha(tree, alpha)
        traj = simulate_ref(env, stop, derive_seed(seed_base, lane, t, 1), record=False)
        escapes += traj.escaped
        returns += traj.root_returns
        censored += traj.stop_reason == "max_steps"
    return escapes / trials, returns / trials, censored


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
