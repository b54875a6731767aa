"""The walk itself, in three coupled constructions.

The law: on the first visit to a vertex the walk steps to the parent with
probability lam/(lam + deg - 1) and to each child with probability
1/(lam + deg - 1); on every later visit the same with mu in place of lam.
At the root all children are uniform, every time.

Three ways to run it:

- simulate: draws the law directly from a seeded generator, one draw per
  step. Fastest; it serves `goerw simulate` and the phase diagnostic's
  excited lane, where only the trajectory summary matters. A step down
  from a vertex with one child reads it from Tree.only_child, which covers
  most vertices of a thin poly tree; the trajectory is bitwise the one the
  plain loop draws, which computes the child index at every step and is
  kept in the tests as the referee. Where mu == 1 its later-visit list is
  the tree's (Tree.parent_step).
- simulate_rubin: the clock construction. Every oriented edge (v, u) owns a
  sequence of unit exponential clocks xi(v, u, j); a visit to v races the
  pending clock of each neighbor scaled by that direction's rate, the
  smallest total wins, and the excited first step simply races the j=0
  clocks under the first-visit rates. The winner of the excited step has its
  j=1 clock skipped (its later-visit race starts at j=2), everyone else
  starts at j=1. Running totals per direction make this exactly the
  classical race: consumed time accumulates, and each comparison is between
  totals since the vertex was first left. No command runs it: it is the
  full walk that the coupling checks (criterion 02, the benchmark's
  cluster replay) restrict to a path.
- simulate_extension: a walk on a single root path that reads the same
  clock table. At a fresh interior vertex it first checks which neighbor of
  the full tree would have won the excited race; if that winner is on the
  path it moves there (skipping that direction's j=1 clock), otherwise it
  races the two on-path j=1 clocks under the later-visit rates and consumes
  the winner. Later visits race the two on-path running totals. At the root
  it always moves down the path, and at the path's end it reflects.
  One runner (_extension_run) holds this race: simulate_extension starts it
  at the root for the coupling checks, and the percolation sampler
  (sample_ruin_percolation) starts it from a snapshot, the race states and
  step count another run had at its first arrival at a vertex both paths
  share.
  extension_reach, which serves the connection Monte Carlo (`goerw
  percolate`) and the quasi-independence statistic, runs many of these
  runs, one per seed, in lockstep on numpy arrays and a batch's last few
  on _extension_run: uint64 hashes, float64 races in the scalar order and
  math.log for every log kept (np.log is not bitwise equal to it), so
  every run is == its scalar run.

Built this way, the extension reproduces the restriction of the full walk
to the path, position by position, on the same clock table: the on-path
running totals of both processes are identical because off-path excursions
only spend time, they never touch an on-path clock. That exact coincidence
is what the percolation layer relies on, and it is asserted wholesale in the
test suite.

The scalar clock kernels read lam and mu through memoryviews of the arrays,
made once per call or percolation sample: they copy nothing and yield plain
Python floats, which the loops read faster than np.float64 scalars.

Every run stops at the first bound of its StopRule it meets. The step
budget is required and honoured as given; no module-wide cap lowers it.
An unset probe depth or return count is math.inf, which no run reaches.

All randomness is derived from explicit integer seeds by a splitmix-style
mixer, so every run is reproducible bit for bit across platforms. A
ClockTable keeps every clock value it has computed, not only each
direction's hash prefix, so runs that share a table hash a clock once.
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


def derive_seed(master: int, *parts: int) -> int:
    """Stable child seed from a master seed and indices (trial number,
    replica number and so on)."""
    h = _splitmix(master & _M64)
    for p in parts:
        h = _splitmix(h ^ (p & _M64))
    return h


class ClockTable:
    """Deterministic table of unit-rate exponential clocks xi(v, u, j).

    A clock is a pure function of (seed, v, u, j), so two processes handed
    the same table read literally the same numbers; that is the whole
    coupling. The table computes each clock on its first read and keeps
    every value it returns, keyed by (v, u, j), so a later read of it
    hashes nothing; it also keeps the hash of (seed, v, u) of each direction
    asked for, so a new clock costs one _splitmix, not three. Both grow with
    the distinct clocks read over the table's life (one percolation sample
    or one walk) and go with the table.
    """

    __slots__ = ("seed", "_prefix", "_clock")

    def __init__(self, seed: int):
        self.seed = seed & _M64
        self._prefix: dict[tuple[int, int], int] = {}
        self._clock: dict[tuple[int, int, int], float] = {}

    def xi(self, v: int, u: int, j: int) -> float:
        x = self._clock.get((v, u, j))
        if x is None:
            h = self._prefix.get((v, u))
            if h is None:
                h = self._prefix[v, u] = _splitmix(_splitmix(self.seed ^ v) ^ (u << 20))
            h = _splitmix(h ^ j)
            x = self._clock[v, u, j] = -math.log(((h >> 11) + 0.5) * (2.0 ** -53))
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
    """One run. positions is X_0..X_n when recording was on, else None and
    only the summary fields are filled."""

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


def simulate(env: Environment, stop: StopRule, seed: int,
             record: bool = True) -> WalkTrajectory:
    """Run the walk from the root by drawing the law directly: one draw r
    per step, up if r < p (the parent-step probability, lam's on a first
    visit, mu's after), else to child int((r - p) / (1 - p) * k) of k, read
    off Tree.only_child where k is 1. Up-steps check only for root returns,
    down-steps only for a new depth. Trajectories
    are == the plain loop's, which checks both bounds at every step. p is
    read from _transition_table: first visits through a memoryview of an
    array, later ones from a list, both yielding Python floats."""
    pf, pl = _transition_table(env)
    tree = env.tree
    parent, children, depth, only = tree.parent, tree.children, tree.depth, tree.only_child
    rnd = random.Random(seed).random
    hd, rr = stop.hit_depth, stop.root_returns
    visited = bytearray(len(parent))
    positions = [0] if record else None
    v = steps = returns = maxd = 0
    reason = "max_steps"
    for steps in range(1, stop.max_steps + 1):
        # at the root p is 0, so (r - p) / (1 - p) * k is r * k exactly
        if visited[v]:
            p = pl[v]
        else:
            visited[v] = 1
            p = pf[v]
        r = rnd()
        if r < p:
            v = parent[v]
            if record:
                positions.append(v)
            if not v:
                returns += 1
                if returns >= rr:
                    reason = "root_returns"
                    break
        else:
            c = only[v]
            if c:
                v = c
            else:
                kids = children[v]
                k = len(kids)
                idx = int((r - p) / (1.0 - p) * k)
                v = kids[idx if idx < k else k - 1]
            if record:
                positions.append(v)
            if depth[v] > maxd:
                maxd = depth[v]
                if maxd >= hd:
                    reason = "hit_depth"
                    break
    return WalkTrajectory(positions, steps, returns, maxd, reason)


# ---------------------------------------------------------------------------
# clock construction


def simulate_rubin(env: Environment, stop: StopRule,
                   clocks: ClockTable) -> WalkTrajectory:
    """Run the walk by racing exponential clocks, recording every position.

    Per visited vertex the race state is (neighbors, running totals, next
    clock index per direction). Neighbors are listed parent first then
    children, which is ascending id order, so a strict minimum scan breaks
    the measure-zero ties toward the lowest id.
    """
    xi = clocks.xi
    tree = env.tree
    parent, children, depth = tree.parent, tree.children, tree.depth
    lam, mu = memoryview(env.lam), memoryview(env.mu)
    cap, hd, rr = stop.max_steps, stop.hit_depth, stop.root_returns
    state: dict[int, tuple[list[int], list[float], list[int]]] = {}
    positions = [0]
    v = 0
    steps = 0
    returns = 0
    maxd = 0
    reason = "max_steps"
    while steps < cap:
        st = state.get(v)
        if st is None:
            # excited departure: race the j=0 clocks under first-visit rates
            # (at the root, whose lam is 1, the first child's clock as it is)
            neis = [parent[v]] + children[v] if v else list(children[0])
            best = xi(v, neis[0], 0) / lam[v]
            widx = 0
            for i in range(1, len(neis)):
                val = xi(v, neis[i], 0)
                if val < best:
                    best = val
                    widx = i
            elapsed = [0.0] * len(neis)
            nxt = [1] * len(neis)
            nxt[widx] = 2  # the excited winner's j=1 clock is never raced
            state[v] = (neis, elapsed, nxt)
            v = neis[widx]
        else:
            neis, elapsed, nxt = st
            muv = mu[v]
            best = math.inf
            widx = 0
            for i, u in enumerate(neis):
                pend = elapsed[i] + (xi(v, u, nxt[i]) / muv if (v and i == 0)
                                     else xi(v, u, nxt[i]))
                if pend < best:
                    best = pend
                    widx = i
            elapsed[widx] = best
            nxt[widx] += 1
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
                       stop: StopRule, record: bool = True) -> WalkTrajectory:
    """Run the coupled extension on the root path of target, reading the
    same clock table as the full walk.

    The path is indexed by depth; hit_depth in the stop rule refers to that
    depth, so StopRule(hit_depth=|target|, root_returns=1) asks the ruin
    question directly: did the path walk reach the target before coming back
    to the root. At the target the process reflects to the parent.
    """
    if target == 0:
        raise ValueError("extension needs a non-root target")
    path = env.tree.root_path(target)
    return _extension_run(env.tree.children, memoryview(env.lam), memoryview(env.mu), clocks,
                          path, 0, [None] * len(path), 0, stop, [0] if record else None)


def _extension_run(children: list[list[int]], lam: memoryview, mu: memoryview,
                   clocks: ClockTable, path: list[int], pos: int, states: list,
                   steps: int, stop: StopRule, positions: list | None = None,
                   snaps: dict | None = None) -> WalkTrajectory:
    """The extension on path from index pos, never yet passed, after steps
    steps and no root return, under the float views lam and mu (memoryviews
    of the environment's arrays). states[i] is index i's race state,
    [total_up, total_down, next_j_up, next_j_down] or None before its first
    visit, updated in place; positions, unless None, gets each position. The
    first arrival at an index i in snaps stores there (copies of states[1:i],
    steps), from which a run on another path through path[i] can start."""
    xi = clocks.xi
    k = len(path) - 1
    cap, hd, rr = stop.max_steps, stop.hit_depth, stop.root_returns
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
                # who would have won the excited race in the full tree
                best = xi(u, par, 0) / lam[u]
                gwin = par
                for w in children[u]:
                    val = xi(u, w, 0)
                    if val < best:
                        best = val
                        gwin = w
                if gwin == par:
                    states[pos] = [0.0, 0.0, 2, 1]
                    pos -= 1
                elif gwin == dn:
                    states[pos] = [0.0, 0.0, 1, 2]
                    pos += 1
                else:
                    # excited step went off the path: race the two on-path
                    # j=1 clocks under later-visit rates and consume the winner
                    a = xi(u, par, 1) / mu[u]
                    b = xi(u, dn, 1)
                    if a <= b:
                        states[pos] = [a, 0.0, 2, 1]
                        pos -= 1
                    else:
                        states[pos] = [0.0, b, 1, 2]
                        pos += 1
            else:
                a = st[0] + xi(u, par, st[2]) / mu[u]
                b = st[1] + xi(u, dn, st[3])
                if a <= b:
                    st[0] = a
                    st[2] += 1
                    pos -= 1
                else:
                    st[1] = b
                    st[3] += 1
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

# most cells one batch of extension_reach holds: lanes x (path + widest race).
# Criterion 01's 10 x 100k trials run as fast as at 1 << 20 (2-core x86
# host) and peak at half the memory, 38 MB instead of 77 MB.
_CELL_BUDGET = 1 << 16

_HANDOFF_LANES = 8  # live lanes at which a batch stops sweeping

# 0-d arrays, which numpy combines with arrays faster than its scalars
_GOLDEN, _MIX1, _MIX2, _S11, _S27, _S30, _S31 = (
    np.array(c, np.uint64) for c in (0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9,
                                     0x94D049BB133111EB, 11, 27, 30, 31))


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


def _xi_array(h: np.ndarray, log=lambda u: _each(math.log, u)) -> np.ndarray:
    """ClockTable.xi from its last hashes h: the same float64 uniform, and
    its log by math.log, since np.log is not bitwise equal to it; log=np.log
    is about 30 times faster and at most an ulp off, enough to rank clocks."""
    return -log(((h >> _S11) + 0.5) * (2.0 ** -53))


def extension_reach(env: Environment, target: int, seeds: np.ndarray,
                    cap: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """simulate_extension toward target under StopRule(max_steps=cap,
    hit_depth=|target|, root_returns=1) on ClockTable(s) for every seed s,
    in lockstep batches of _CELL_BUDGET // (k + 1 + widest race) lanes,
    k = |target|. Returns each run's max_depth, whether it stopped on the
    cap, and its steps, each == the scalar run's.

    Cell lane * k + i holds path index i: the on-path clock hash prefixes,
    running totals and next clock indices (parent side first), and the
    first visit's move if the excited winner is on the path, else 0 (that
    visit races the j=1 clocks as a later one does). A run is on a first
    visit iff past the deepest index it has left. The excited race keeps no
    value: np.log's clocks rank it unless two are within 1e-9 relative. A
    batch down to _HANDOFF_LANES live lanes resumes each on _extension_run
    from its cells' race states (None past the deepest index it has left)."""
    if target == 0:
        raise ValueError("extension needs a non-root target")
    path, children = env.tree.root_path(target), env.tree.children
    k, mu_path = len(path) - 1, env.mu[path]
    lam, mu, stop = memoryview(env.lam), memoryview(env.mu), StopRule(cap, k, 1)
    seeds = np.asarray(seeds, dtype=np.uint64)
    reach, capped, steps = (np.zeros(seeds.size, t) for t in (np.int64, bool, np.int64))
    wide = max((len(children[u]) + 1 for u in path[1:-1]), default=1)
    batch = max(1, _CELL_BUDGET // (k + 1 + wide))
    for lo in range(0, seeds.size, batch):
        n = min(batch, seeds.size - lo)
        pre = np.zeros((n * k, 2), np.uint64)
        total = np.zeros((n * k, 2))
        nxt = np.ones((n * k, 2), np.uint64)
        first_mv = np.zeros(n * k, np.int8)
        first_mv[::k] = 1  # the root always steps down
        lane, pos, left = np.arange(n), np.zeros(n, np.int64), np.full(n, -1)
        raced = t = 0
        while lane.size > _HANDOFF_LANES and t < cap:
            if raced < k - 1 and pos.max() > raced:
                # when the first lane gets to a new index, the excited race
                # over the full tree's j=0 clocks for every live lane (near
                # ties by math.log); an on-path winner skips its j=1 clock
                raced += 1
                u = path[raced]
                row = [path[raced - 1]] + children[u]
                down = row.index(path[raced + 1])
                c = lane * k + raced
                mid = _splitmix_array(
                    _splitmix_array(seeds[lo + lane] ^ np.uint64(u))[:, None]
                    ^ np.array([(w << 20) & _M64 for w in row], np.uint64))
                pre[c] = mid[:, [0, down]]
                h = _splitmix_array(mid)
                rate = np.array([env.lam[u]] + [1.0] * len(children[u]))
                race = _xi_array(h, np.log) / rate
                near = (race <= race.min(axis=1, keepdims=True) * (1 + 1e-9)).sum(axis=1) > 1
                race[near] = _xi_array(h[near]) / rate
                win = race.argmin(axis=1)
                first_mv[c] = mv = (win == down).astype(np.int8) - (win == 0)
                nxt[c] = 1 + np.stack((mv < 0, mv > 0), axis=1)
            cell = lane * k + pos
            mv = np.where(pos > left, first_mv[cell], 0)
            np.maximum(left, pos, out=left)
            r = mv == 0
            if np.count_nonzero(r):
                # race the two on-path running totals, the parent's under mu
                c = cell[r]
                x = _xi_array(_splitmix_array(pre[c] ^ nxt[c]))
                x[:, 0] /= mu_path[pos[r]]
                x += total[c]
                side = (~(x[:, 0] <= x[:, 1])).astype(np.intp)
                total[c, side] = x[np.arange(c.size), side]
                nxt[c, side] += 1
                mv[r] = 2 * side - 1
            pos += mv
            t += 1
            done = (pos == k) | (pos == 0)
            if np.count_nonzero(done):
                reach[lo + lane[done]] = np.maximum(left, pos)[done]
                steps[lo + lane[done]] = t
                lane, pos, left = lane[~done], pos[~done], left[~done]
        for j, p, lf in zip(lane.tolist(), pos.tolist(), left.tolist()):
            c = slice(j * k + 1, j * k + lf + 1)
            states = [None] * (k + 1)
            states[1:lf + 1] = map(list.__add__, total[c].tolist(), nxt[c].tolist())
            run = _extension_run(children, lam, mu, ClockTable(int(seeds[lo + j])),
                                 path, p, states, t, stop)
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
