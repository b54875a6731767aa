"""The walk itself, in three coupled constructions.

The law: on the first visit to a vertex the walk steps to the parent with
probability lam/(lam + deg - 1) and to each child with probability
1/(lam + deg - 1); on every later visit the same with mu in place of lam.
At the root all children are uniform, every time.

Three ways to run it:

- simulate: draws the law directly from a seeded generator, one draw per
  step. Fastest; it serves `goerw simulate` and the phase diagnostic's
  excited lane, which read only the trajectory summary, so it records no
  positions. A step reads the bias of the vertex it reaches, a child off
  Levels.first or Tree.only_child, and the depth only on a first visit;
  where mu == 1 its later-visit list is the tree's (Tree.parent_step). The
  trajectory is bitwise the plain loop's, kept in the tests as the referee.
- simulate_rubin: the clock construction. A first visit to v makes
  simulate's step on the table's uniform for v (ClockTable.draw) and the
  first-visit probabilities simulate reads (_transition_table). Every
  oriented edge (v, u) owns a sequence of unit exponential clocks
  xi(v, u, j), j >= 1; a later visit races the pending clock of each
  neighbor scaled by that direction's later-visit rate, and the smallest
  total wins. Running totals per direction make this exactly the classical
  race: consumed time accumulates, and each comparison is between totals
  since the vertex was first left. As in Gibson and Bruck's next-reaction
  method, each direction keeps its pending time (total plus next clock
  over rate) from the race that first needs it until it wins, so a later
  visit reads at most one clock. No command runs it: it is the full walk
  that the coupling checks (criterion 02, the benchmark's cluster replay)
  restrict to a path.
- simulate_extension: a walk on a single root path that reads the same
  clock table. At a fresh interior vertex it makes the full walk's first
  step from the same uniform; if that step is on the path it moves there,
  otherwise it races the two on-path j=1 clocks under the later-visit
  rates, consumes the winner and keeps the loser's pending time. Later
  visits race the two on-path pending times, kept as in simulate_rubin. At
  the root it always moves down the path, and at the path's end it
  reflects. One runner (_extension_run) holds this race: simulate_extension
  starts it at the root for the coupling checks, and the percolation
  sampler (sample_ruin_percolation) starts it from a snapshot, the race
  states and step count another run had at its first arrival at a vertex
  both paths share. extension_reach, which serves the connection Monte
  Carlo (`goerw percolate`), runs many of these runs, one per seed, in
  lockstep on numpy arrays and a batch's last few on _extension_run:
  uint64 hashes, float64 races in the scalar order and math.log for every
  log (np.log is not bitwise equal to it), so every run is == its scalar
  run. A cell is one (lane, path index), and the race state is side-major,
  so both sides of a race are one gather. A batch's last few lanes finish
  on _extension_run, each on a clock table seeded with the hash prefixes
  its cells hold.

Built this way, the extension reproduces the restriction of the full walk
to the path, position by position, on the same clock table: the on-path
running totals of both processes are identical because off-path excursions
only spend time, they never touch an on-path clock. That exact coincidence
is what the percolation layer relies on, and it is asserted wholesale in the
test suite.

The scalar kernels read the first-visit probabilities, mu and the child
offsets Levels.first through memoryviews made once per call or percolation
sample: no copy, no child lists, and plain Python floats and ints, faster
to read than numpy scalars.

Every run stops at the first bound of its StopRule it meets. The step
budget is required and honoured as given; no module-wide cap lowers it.
An unset probe depth or return count is math.inf, which no run reaches.

All randomness is derived from explicit integer seeds by a splitmix-style
mixer, so every run is reproducible bit for bit across platforms. A
ClockTable keeps three memo levels: the hash of (seed, v) per vertex, of
(seed, v, u) per direction and every clock value, so a new direction costs
one hash and runs that share a table hash a clock once; a vertex's
first-step uniform costs one hash each time it is drawn.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .environment import Environment, _each, _transition_table

__all__ = [
    "ClockTable",
    "StopRule",
    "WalkTrajectory",
    "derive_seed",
    "derive_seeds",
    "simulate",
    "simulate_rubin",
    "simulate_extension",
    "extension_reach",
    "restriction",
]

_M64 = (1 << 64) - 1


def _splitmix(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _M64
    z = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def _uniform(h):
    """The float64 uniform in (0, 1) of a 64-bit hash h, an int or a uint64 array."""
    return ((h >> 11) + 0.5) * (2.0 ** -53)


def _first_step(r: float, p: float, up: int, c: int, n: int) -> int:
    """simulate's first-visit step on the uniform r: to up if r < p (0 at the root, 1 at
    a leaf), else to child c + min(int((r - p) / (1 - p) * n), n - 1) of c .. c + n - 1."""
    return up if r < p else c + min(int((r - p) / (1.0 - p) * n), n - 1)


def derive_seed(master: int, *parts: int) -> int:
    """Stable child seed from a master seed and indices (trial number,
    replica number and so on)."""
    h = _splitmix(master & _M64)
    for p in parts:
        h = _splitmix(h ^ (p & _M64))
    return h


class ClockTable:
    """Deterministic table of unit-rate exponential clocks xi(v, u, j) and
    of one first-step uniform per vertex, draw(v).

    Both are pure functions of the seed and their arguments, so two
    processes handed the same table read literally the same numbers; that
    is the whole coupling. The table computes each clock on its first read
    and keeps every value it returns, keyed by (v, u, j), so a later read of
    it hashes nothing; it also keeps the hash of (seed, v) of each vertex
    (_vertex_hash) and of (seed, v, u) of each direction asked for, so a new
    clock costs one _splitmix, and a new direction one more, not two.
    draw(v) hashes v's kept hash under key 1, which no direction's key
    u << 20 (even) takes, and keeps nothing more. The memos grow with the
    distinct clocks read over the table's life (one percolation sample or
    one walk) and go with the table.
    """

    __slots__ = ("seed", "_vertex", "_prefix", "_clock")

    def __init__(self, seed: int):
        self.seed = seed & _M64
        self._vertex: dict[int, int] = {}
        self._prefix: dict[tuple[int, int], int] = {}
        self._clock: dict[tuple[int, int, int], float] = {}

    def _vertex_hash(self, v: int) -> int:
        g = self._vertex.get(v)
        if g is None:
            g = self._vertex[v] = _splitmix(self.seed ^ v)
        return g

    def draw(self, v: int) -> float:
        return _uniform(_splitmix(self._vertex_hash(v) ^ 1))

    def xi(self, v: int, u: int, j: int) -> float:
        x = self._clock.get((v, u, j))
        if x is None:
            h = self._prefix.get((v, u))
            if h is None:
                h = self._prefix[v, u] = _splitmix(self._vertex_hash(v) ^ (u << 20))
            x = self._clock[v, u, j] = -math.log(_uniform(_splitmix(h ^ j)))
        return x


@dataclass(frozen=True)
class StopRule:
    """First-of stopping: a step budget, always given and honoured as
    given, and optionally a probe depth and a count of returns to the root,
    which are math.inf, and so never bind, when unset."""

    max_steps: int
    hit_depth: float = math.inf
    root_returns: float = math.inf


@dataclass
class WalkTrajectory:
    """One run. positions is X_0..X_n from the clock and extension kernels
    that record it; simulate fills only the summary fields and leaves it
    None."""

    positions: list[int] | None
    steps: int
    root_returns: int
    max_depth: int
    stop_reason: str

    @property
    def escaped(self) -> bool:
        return self.stop_reason == "hit_depth"


# ---------------------------------------------------------------------------
# the direct law


def simulate(env: Environment, stop: StopRule, seed: int) -> WalkTrajectory:
    """Run the walk from the root by drawing the law directly: one draw r
    per step, up if r < p (the parent-step probability, lam's on a first
    visit, mu's after), else to child first[v] + int((r - p) / (1 - p) * k)
    of its k (Levels.first), Tree.only_child's where k is 1. A step reads
    the p of the vertex it reaches and tests only what its move can change:
    an up-step, onto a visited vertex, a root return; a down-step the visited
    flag, and a first visit, the only arrival that can go deeper, the depth.
    Trajectories are == the plain loop's, which tests both bounds at every
    step. p comes from _transition_table: first visits read a memoryview of
    an array, later ones a list, both Python floats. positions is None."""
    pf, pl = _transition_table(env)
    tree = env.tree
    parent, depth, only = tree.parent, tree.depth, tree.only_child
    first = memoryview(tree.levels.first)
    rnd = random.Random(seed).random
    hd, rr = stop.hit_depth, stop.root_returns
    visited = bytearray(len(parent))
    visited[0] = 1
    p = pf[0]
    v = steps = returns = maxd = 0
    reason = "max_steps"
    for steps in range(1, stop.max_steps + 1):
        # at the root p is 0, so (r - p) / (1 - p) * k is r * k exactly
        r = rnd()
        if r < p:
            v = parent[v]
            if not v:
                returns += 1
                if returns >= rr:
                    reason = "root_returns"
                    break
            p = pl[v]
        else:
            c = only[v]
            if c:
                v = c
            else:
                a = first[v]
                k = first[v + 1] - a
                idx = int((r - p) / (1.0 - p) * k)
                v = a + (idx if idx < k else k - 1)
            if visited[v]:
                p = pl[v]
            else:
                visited[v] = 1
                p = pf[v]
                if depth[v] > maxd:
                    maxd = depth[v]
                    if maxd >= hd:
                        reason = "hit_depth"
                        break
    return WalkTrajectory(None, steps, returns, maxd, reason)


# ---------------------------------------------------------------------------
# clock construction


def simulate_rubin(env: Environment, stop: StopRule,
                   clocks: ClockTable) -> WalkTrajectory:
    """Run the walk by racing exponential clocks, recording every position.

    A first visit to v steps as simulate does (_first_step), on the uniform
    clocks.draw(v) and v's first-visit p from _transition_table. Per visited
    vertex the race state is (neighbors, running totals, next clock indices,
    pending times) per direction, every index starting at 1.
    A pending time, the total plus the next clock over the rate, is None
    until a later race needs it and again once its direction wins. Neighbors
    are listed parent first then children, which is ascending id order, so a
    strict minimum scan breaks the measure-zero ties toward the lowest id.
    """
    xi, draw, pf = clocks.xi, clocks.draw, _transition_table(env, later=False)[0]
    tree = env.tree
    parent, depth, first = tree.parent, tree.depth, memoryview(tree.levels.first)
    mu = memoryview(env.mu)
    cap, hd, rr = stop.max_steps, stop.hit_depth, stop.root_returns
    state: dict[int, tuple[list[int], list[float], list[int]]] = {}
    positions = [0]
    v = steps = returns = maxd = 0
    reason = "max_steps"
    while steps < cap:
        st = state.get(v)
        if st is None:
            c, n = first[v], first[v + 1] - first[v]
            neis = [parent[v], *range(c, c + n)] if v else list(range(c, c + n))
            state[v] = (neis, [0.0] * len(neis), [1] * len(neis), [None] * len(neis))
            v = _first_step(draw(v), pf[v], parent[v], c, n)
        else:
            neis, elapsed, nxt, pending = st
            best = math.inf
            widx = 0
            for i, p in enumerate(pending):
                if p is None:
                    x = xi(v, neis[i], nxt[i])
                    p = pending[i] = elapsed[i] + (x / mu[v] if (v and i == 0) else x)
                if p < best:
                    best = p
                    widx = i
            elapsed[widx] = best
            nxt[widx] += 1
            pending[widx] = None
            v = neis[widx]
        steps += 1
        positions.append(v)
        d = depth[v]
        if d > maxd:
            maxd = d
            if d >= hd:
                reason = "hit_depth"
                break
        if v == 0:
            returns += 1
            if returns >= rr:
                reason = "root_returns"
                break
    return WalkTrajectory(positions, steps, returns, maxd, reason)


def simulate_extension(env: Environment, clocks: ClockTable, target: int,
                       stop: StopRule) -> WalkTrajectory:
    """Run the coupled extension on the root path of target, reading the
    same clock table as the full walk.

    The path is indexed by depth; hit_depth in the stop rule refers to that
    depth, so StopRule(hit_depth=|target|, root_returns=1) asks the ruin
    question directly: did the path walk reach the target before coming back
    to the root. At the target the process reflects to the parent. It
    records every position, as the coupling checks read them.
    """
    if target == 0:
        raise ValueError("extension needs a non-root target")
    path, pf = env.tree.root_path(target), _transition_table(env, later=False)[0]
    return _extension_run(memoryview(env.tree.levels.first), pf, memoryview(env.mu), clocks,
                          path, 0, [None] * len(path), 0,
                          stop.max_steps, stop.hit_depth, stop.root_returns, [0])


def _extension_run(first: memoryview, pf: memoryview, mu: memoryview,
                   clocks: ClockTable, path: list[int], pos: int, states: list,
                   steps: int, cap: int, hd: float, rr: float,
                   positions: list | None = None, snaps: dict | None = None) -> WalkTrajectory:
    """The extension on path from index pos, never yet passed, after steps
    steps and no root return, until the step cap, the hit depth hd or the
    rr-th root return. It reads the first-visit probabilities pf, mu and the
    child offsets first through memoryviews (of _transition_table's array,
    the environment's and Levels.first). states[i] is index i's race state,
    [total_up, total_down, next_j_up, next_j_down, pending_up, pending_down]
    or None before its first visit, updated in place; a pending time (total
    plus next clock over rate) is None until a race needs it and again once
    its side wins; positions, unless None, gets each position. The first
    arrival at an index i in snaps stores there (copies of states[1:i],
    steps), from which a run on another path through path[i] can start."""
    xi, draw = clocks.xi, clocks.draw
    k = len(path) - 1
    returns = 0
    maxd = pos
    reason = "max_steps"
    while steps < cap:
        if pos == 0:
            pos = 1
        elif pos == k:
            pos -= 1
        else:
            u = path[pos]
            par = path[pos - 1]
            dn = path[pos + 1]
            st = states[pos]
            if st is None:
                w = _first_step(draw(u), pf[u], par, first[u], first[u + 1] - first[u])
                if w == par or w == dn:
                    states[pos] = [0.0, 0.0, 1, 1, None, None]
                    pos += 1 if w == dn else -1
                else:
                    # the step went off the path: race the two on-path j=1
                    # clocks under later-visit rates, consume the winner and
                    # keep the loser's (a total of 0.0 plus it is itself)
                    a = xi(u, par, 1) / mu[u]
                    b = xi(u, dn, 1)
                    if a <= b:
                        states[pos] = [a, 0.0, 2, 1, None, b]
                        pos -= 1
                    else:
                        states[pos] = [0.0, b, 1, 2, a, None]
                        pos += 1
            else:
                a = st[4]
                if a is None:
                    a = st[4] = st[0] + xi(u, par, st[2]) / mu[u]
                b = st[5]
                if b is None:
                    b = st[5] = st[1] + xi(u, dn, st[3])
                if a <= b:
                    st[0] = a
                    st[2] += 1
                    st[4] = None
                    pos -= 1
                else:
                    st[1] = b
                    st[3] += 1
                    st[5] = None
                    pos += 1
        steps += 1
        if positions is not None:
            positions.append(path[pos])
        if pos > maxd:
            maxd = pos
            if snaps is not None and pos in snaps:
                snaps[pos] = ([r.copy() for r in states[1:pos]], steps)
            if pos >= hd:
                reason = "hit_depth"
                break
        if pos == 0:
            returns += 1
            if returns >= rr:
                reason = "root_returns"
                break
    return WalkTrajectory(positions, steps, returns, maxd, reason)


# ---------------------------------------------------------------------------
# the extension in lockstep

# most cells one batch of extension_reach holds: lanes x (path + 1).
# Criterion 01's 10 x 100k trials run as fast as at 1 << 20 and peak at
# 39 MiB RSS instead of 69 MiB (2-core Xeon, Python 3.11, numpy 2.4).
_CELL_BUDGET = 1 << 16

_HANDOFF_LANES = 8  # live lanes at which a batch stops sweeping

# 0-d arrays, which numpy combines with arrays faster than its scalars
_GOLDEN, _MIX1, _MIX2, _S27, _S30, _S31 = (
    np.array(c, np.uint64) for c in (0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9,
                                     0x94D049BB133111EB, 27, 30, 31))


def _splitmix_array(x: np.ndarray) -> np.ndarray:
    """_splitmix on a uint64 array: unsigned arithmetic wraps mod 2^64."""
    z = x + _GOLDEN
    z ^= z >> _S30
    z *= _MIX1
    z ^= z >> _S27
    z *= _MIX2
    z ^= z >> _S31
    return z


def derive_seeds(master: int, n: int) -> np.ndarray:
    """derive_seed(master, i) for i in range(n), as a uint64 array."""
    return _splitmix_array(np.uint64(_splitmix(master & _M64)) ^ np.arange(n, dtype=np.uint64))


def _xi_array(h: np.ndarray) -> np.ndarray:
    """ClockTable.xi from its last hashes h: the same float64 uniform, and
    its log by math.log, since np.log is not bitwise equal to it."""
    return -_each(math.log, _uniform(h))


# a clock over a tiny mu is +inf, as in the scalar run; a first step's
# (r - p) / (1 - p) is -inf where p is 1, and there r < p decides
@np.errstate(over="ignore", divide="ignore")
def extension_reach(env: Environment, target: int, seeds: np.ndarray,
                    cap: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """simulate_extension toward target under StopRule(max_steps=cap,
    hit_depth=|target|, root_returns=1) on ClockTable(s) for every seed s,
    in lockstep batches of _CELL_BUDGET // (k + 1) lanes, k = |target|.
    Returns each run's max_depth, whether it stopped on the cap, and its
    steps, each == the scalar run's.

    Cell lane * k + i holds path index i; a run moves its lane's cell and
    ends on a multiple of k (index 0 or k). pre, total and nxt (on-path hash
    prefixes, running totals, next clock indices) are (2, n * k), row 0 the
    parent side: a race takes both sides of its cells and puts each winner
    at cell + side * n * k. first_mv is the first visit's move if the full
    walk's first step (ClockTable.draw's uniform, simulate's rule) is on the
    path, else 0 (a race of the j=1 clocks, as on a later visit), zeroed
    once read. A batch down to _HANDOFF_LANES live lanes resumes each on
    _extension_run from its cells' race states (no pending time kept) and a
    ClockTable given pre's prefixes."""
    if target == 0:
        raise ValueError("extension needs a non-root target")
    path, first = env.tree.root_path(target), memoryview(env.tree.levels.first)
    k, mu_path = len(path) - 1, env.mu[path]
    pf, mu = _transition_table(env, later=False)[0], memoryview(env.mu)
    up, dn = [*zip(path[1:k], path)], [*zip(path[1:k], path[2:])]  # pre's (v, u) per row
    seeds = np.asarray(seeds, dtype=np.uint64)
    reach, capped, steps = (np.zeros(seeds.size, t) for t in (np.int64, bool, np.int64))
    batch = max(1, _CELL_BUDGET // (k + 1))
    for lo in range(0, seeds.size, batch):
        n = min(batch, seeds.size - lo)
        pre = np.zeros((2, n * k), np.uint64)
        total = np.zeros((2, n * k))
        nxt = np.ones((2, n * k), np.uint64)
        flat_total, flat_nxt = total.reshape(-1), nxt.reshape(-1)
        first_mv = np.zeros(n * k, np.int8)
        first_mv[::k] = 1  # the root always steps down
        # each live lane's cell, and the cell of the deepest index it has left
        lane, cell, deep = np.arange(n), np.arange(0, n * k, k), np.arange(-1, n * k - 1, k)
        ends = np.arange(n * k + 1) % k == 0
        raced = t = 0
        while lane.size > _HANDOFF_LANES and t < cap:
            if raced < k - 1 and (cell % k).max() > raced:
                # when the first lane gets to a new index, every live lane's
                # first step there and its two on-path hash prefixes
                raced += 1
                u = path[raced]
                c = lane * k + raced
                g = _splitmix_array(seeds[lo + lane] ^ np.uint64(u))
                for side, w in enumerate((path[raced - 1], path[raced + 1])):
                    pre[side, c] = _splitmix_array(g ^ np.uint64((w << 20) & _M64))
                r = _uniform(_splitmix_array(g ^ np.uint64(1)))
                p, a, kids = pf[u], first[u], first[u + 1] - first[u]
                idx = np.minimum(np.floor((r - p) / (1.0 - p) * kids), kids - 1)
                first_mv[c] = np.where(r < p, -1, idx == path[raced + 1] - a)
            mv = first_mv[cell]
            first_mv[cell] = 0  # read on the first visit only
            np.maximum(deep, cell, out=deep)
            r = mv == 0
            if np.count_nonzero(r):
                # race the two on-path running totals, the parent's under mu
                c = cell[r]
                x = _xi_array(_splitmix_array(pre.take(c, 1) ^ nxt.take(c, 1)))
                x[0] /= mu_path[c % k]
                x += total.take(c, 1)
                side = x[0] > x[1]  # a tie goes to the parent
                win = c + side * (n * k)
                flat_total[win] = x.min(axis=0)
                flat_nxt[win] += 1
                mv[r] = np.where(side, 1, -1)
            cell += mv
            t += 1
            done = ends[cell]
            if np.count_nonzero(done):
                gone, keep = lane[done], ~done
                reach[lo + gone] = np.maximum(deep, cell)[done] - gone * k
                steps[lo + gone] = t
                lane, cell, deep = lane[keep], cell[keep], deep[keep]
        for j, p, lf in zip(lane.tolist(), (cell - lane * k).tolist(), (deep - lane * k).tolist()):
            c = slice(j * k + 1, j * k + lf + 1)
            states = [None] * (k + 1)
            states[1:lf + 1] = ([*s, None, None]
                                for s in zip(*total[:, c].tolist(), *nxt[:, c].tolist()))
            table = ClockTable(int(seeds[lo + j]))
            table._prefix.update(zip(up[:lf] + dn[:lf], pre[:, c].ravel().tolist()))
            run = _extension_run(first, pf, mu, table, path, p, states, t, cap, k, 1)
            reach[lo + j] = max(run.max_depth, lf)
            capped[lo + j], steps[lo + j] = run.stop_reason == "max_steps", run.steps
    return reach, capped, steps


def restriction(positions: Sequence[int], members) -> list[int]:
    """The view of a trajectory from inside a vertex set: keep positions in
    the set, collapse consecutive repeats (time spent outside does not
    move the restricted walk)."""
    mem = set(members)
    out: list[int] = []
    for x in positions:
        if x in mem and (not out or out[-1] != x):
            out.append(x)
    return out
