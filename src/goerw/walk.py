"""The walk itself, in three coupled constructions.

The law: on the first visit to a vertex the walk steps to the parent with
probability lam/(lam + deg - 1) and to each child with probability
1/(lam + deg - 1); on every later visit the same with mu in place of lam.
At the root all children are uniform, every time.

Three ways to run it:

- simulate: draws the law directly from a seeded generator. Fastest, used
  for phase scans where only the trajectory summary matters.
- simulate_rubin: the clock construction. Every oriented edge (v, u) owns a
  sequence of unit exponential clocks xi(v, u, j); a visit to v races the
  pending clock of each neighbor scaled by that direction's rate, the
  smallest total wins, and the excited first step simply races the j=0
  clocks under the first-visit rates. The winner of the excited step has its
  j=1 clock skipped (its later-visit race starts at j=2), everyone else
  starts at j=1. Running totals per direction make this exactly the
  classical race: consumed time accumulates, and each comparison is between
  totals since the vertex was first left.
- simulate_extension: a walk on a single root path that reads the same
  clock table. At a fresh interior vertex it first checks which neighbor of
  the full tree would have won the excited race; if that winner is on the
  path it moves there (skipping that direction's j=1 clock), otherwise it
  races the two on-path j=1 clocks under the later-visit rates and consumes
  the winner. Later visits race the two on-path running totals. At the root
  it always moves down the path, and at the path's end it reflects.

Built this way, the extension reproduces the restriction of the full walk
to the path, position by position, on the same clock table: the on-path
running totals of both processes are identical because off-path excursions
only spend time, they never touch an on-path clock. That exact coincidence
is what the percolation layer relies on, and it is asserted wholesale in the
test suite.

All randomness is derived from explicit integer seeds by a splitmix-style
mixer, so every run is reproducible bit for bit across platforms.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Sequence

from .environment import Environment

__all__ = [
    "ClockTable",
    "StopRule",
    "WalkTrajectory",
    "derive_seed",
    "simulate",
    "simulate_rubin",
    "simulate_extension",
    "restriction",
    "HARD_STEP_CAP",
]

HARD_STEP_CAP = 100_000_000

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
    coupling. Nothing is stored, clocks are recomputed on demand.
    """

    __slots__ = ("seed",)

    def __init__(self, seed: int):
        self.seed = seed & _M64

    def xi(self, v: int, u: int, j: int) -> float:
        h = _splitmix(self.seed ^ v)
        h = _splitmix(h ^ (u << 20))
        h = _splitmix(h ^ j)
        u01 = ((h >> 11) + 0.5) * (2.0 ** -53)
        return -math.log(u01)


@dataclass(frozen=True)
class StopRule:
    """First-of stopping: a step budget, a probe depth, a count of returns
    to the root. Unset bounds do not bind; the hard step cap always does."""

    max_steps: int | None = None
    hit_depth: int | None = None
    root_returns: int | None = None

    def effective_cap(self) -> int:
        if self.max_steps is None:
            return HARD_STEP_CAP
        return min(self.max_steps, HARD_STEP_CAP)


@dataclass
class WalkTrajectory:
    """One run. positions is X_0..X_n when recording was on, else None and
    only the summary fields are filled."""

    positions: list[int] | None
    steps: int
    root_returns: int
    max_depth: int
    escaped: bool
    stop_reason: str
    seed: int | None = None


# ---------------------------------------------------------------------------
# the direct law


def _transition_table(env: Environment) -> tuple[list[float], list[float]]:
    """Parent-step probabilities per vertex: lam/(lam + deg - 1) on the
    first visit and mu/(mu + deg - 1) on later ones, 0 at the root, as
    lists for the walk. Built on the first walk in an environment, in
    float64 on whole arrays as lam / ((lam + deg) - 1): the scalar
    expression's operation order, so every entry is bitwise the same."""
    if env._trans is None:
        lam, mu = env._tables
        d = env.tree.degrees
        pf = lam / ((lam + d) - 1)
        pl = mu / ((mu + d) - 1)
        pf[0] = pl[0] = 0.0
        env._trans = (pf.tolist(), pl.tolist())
    return env._trans


def _finish(positions, steps, returns, maxd, reason, seed):
    return WalkTrajectory(
        positions=positions,
        steps=steps,
        root_returns=returns,
        max_depth=maxd,
        escaped=(reason == "hit_depth"),
        stop_reason=reason,
        seed=seed,
    )


def simulate(env: Environment, stop: StopRule, seed: int,
             record: bool = True) -> WalkTrajectory:
    """Run the walk from the root by drawing the law directly."""
    pf, pl = _transition_table(env)
    tree = env.tree
    parent, children, depth = tree.parent, tree.children, tree.depth
    rng = random.Random(seed)
    rnd = rng.random
    cap = stop.effective_cap()
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
    return _finish(positions, steps, returns, maxd, reason, seed)


# ---------------------------------------------------------------------------
# clock construction


def _clocks_of(clocks) -> ClockTable:
    return clocks if isinstance(clocks, ClockTable) else ClockTable(int(clocks))


def simulate_rubin(env: Environment, stop: StopRule, clocks,
                   record: bool = True) -> WalkTrajectory:
    """Run the walk by racing exponential clocks.

    Per visited vertex the race state is (neighbors, running totals, next
    clock index per direction). Neighbors are listed parent first then
    children, which is ascending id order, so a strict minimum scan breaks
    the measure-zero ties toward the lowest id.
    """
    table = _clocks_of(clocks)
    xi = table.xi
    tree = env.tree
    parent, children, depth = tree.parent, tree.children, tree.depth
    lam, mu = env.lam, env.mu
    cap = stop.effective_cap()
    hd = stop.hit_depth
    rr = stop.root_returns
    state: dict[int, tuple[list[int], list[float], list[int]]] = {}
    positions = [0] if record else None
    v = 0
    steps = 0
    returns = 0
    maxd = 0
    reason = "max_steps"
    while steps < cap:
        st = state.get(v)
        if st is None:
            # excited departure: race the j=0 clocks under first-visit rates
            if v:
                neis = [parent[v]] + children[v]
                best = xi(v, neis[0], 0) / lam[v]
                widx = 0
                for i in range(1, len(neis)):
                    val = xi(v, neis[i], 0)
                    if val < best:
                        best = val
                        widx = i
            else:
                neis = list(children[0])
                best = math.inf
                widx = 0
                for i, u in enumerate(neis):
                    val = xi(v, u, 0)
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
    return _finish(positions, steps, returns, maxd, reason, None)


def simulate_extension(env: Environment, clocks, target: int,
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
    table = _clocks_of(clocks)
    xi = table.xi
    tree = env.tree
    path = tree.root_path(target)
    k = len(path) - 1
    children = tree.children
    lam, mu = env.lam, env.mu
    cap = stop.effective_cap()
    hd = stop.hit_depth
    rr = stop.root_returns
    # per interior index: [total_up, total_down, next_j_up, next_j_down]
    states: list[list | None] = [None] * (k + 1)
    positions = [0] if record else None
    pos = 0
    steps = 0
    returns = 0
    maxd = 0
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
        if record:
            positions.append(path[pos])
        if pos > maxd:
            maxd = pos
            if hd is not None and pos >= hd:
                reason = "hit_depth"
                break
        if pos == 0:
            returns += 1
            if rr is not None and returns >= rr:
                reason = "root_returns"
                break
    return _finish(positions, steps, returns, maxd, reason, None)


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
