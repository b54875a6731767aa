"""Per-vertex bias environments and the potential theory built on them.

A walk environment assigns each vertex two positive numbers: lam (the bias
toward the parent on the first visit) and mu (the bias toward the parent on
every later visit). The root carries the fixed values 1, they are never used.

From mu alone come the chain quantities that control whether excursions
return:

- resistance R(e) of an edge at depth |e|: the product of mu over the
  vertices strictly between the root and the edge's child, so depth-1 edges
  have resistance 1 and mu==2 gives R = 4 at depth 3.
- potential phi(x): the running sum of resistances along the path from the
  root to x (phi of the root is 0, and mu==1 makes phi(x) = |x|).

From both biases comes the per-edge ruin factor psi, the probability that a
walk freshly dropped at the edge's parent makes it down across the edge
before ruining back to the root, and its running product Psi along the path.
Psi is the exact connection probability in the ruin percolation, so it is the
closed form the Monte Carlo layers are checked against. Products are
accumulated in log space so deep paths stay accurate.

The alpha family ties lam to the local geometry: lam = 1 + alpha * deg with
mu == 1, where alpha is drawn fresh for each vertex. Its annealed mean
m = E[1/(alpha+1)] sets the recurrence threshold for polynomially growing
trees, so the distribution object computes m analytically.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import RefusalError
from .tree import DEFAULT_THRESHOLD, BranchingTable, Tree, _cut_dp
from .tree import min_cutset_sum  # unused here; perfbench/tracer.py patches this name

__all__ = [
    "AlphaDistribution",
    "Environment",
    "assign_deterministic",
    "environment_from_alpha",
    "sample_random_environment",
    "psi",
    "Psi",
    "log_Psi",
    "rt_hypothesis_sup",
    "rt_estimate",
]


@dataclass(frozen=True)
class AlphaDistribution:
    """A finitely supported law for the per-vertex excitement alpha >= 0.

    m is the annealed mean E[1/(alpha+1)], computed exactly from the support.
    """

    values: tuple[float, ...]
    probs: tuple[float, ...]

    def __post_init__(self):
        if len(self.values) != len(self.probs) or not self.values:
            raise ValueError("need matching nonempty values and probs")
        for x in (*self.values, *self.probs):
            if not math.isfinite(x):
                raise ValueError(f"alpha law entries must be finite, got {x!r}")
        if any(a < 0 for a in self.values):
            raise ValueError("alpha values must be >= 0")
        if any(p < 0 for p in self.probs) or abs(sum(self.probs) - 1.0) > 1e-12:
            raise ValueError("probs must be nonnegative and sum to 1")

    @property
    def m(self) -> float:
        return sum(p / (1.0 + a) for a, p in zip(self.values, self.probs))

    @classmethod
    def point(cls, a: float) -> "AlphaDistribution":
        return cls((float(a),), (1.0,))

    @classmethod
    def two_point(cls, a0: float, a1: float, p1: float) -> "AlphaDistribution":
        """Mass 1-p1 at a0 and p1 at a1."""
        return cls((float(a0), float(a1)), (1.0 - p1, p1))

    @cached_property
    def _inverse(self) -> tuple[list[float], np.ndarray]:
        return np.cumsum(self.probs)[:-1].tolist(), np.asarray(self.values, dtype=float)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw iid alphas by inverse transform: a uniform u gets the atom
        whose index counts the first k-1 of the k cumulative weights (made
        once per law) at or below u, so only the generator's uniforms count."""
        cuts, atoms = self._inverse
        u = rng.random(size)
        return atoms.take(sum((c <= u for c in cuts), np.zeros(size, np.intp)))

    def spec_string(self) -> str:
        if len(self.values) == 1:
            return f"alpha:point={self.values[0]:g}"
        parts = ",".join(f"{v:g}" for v in self.values)
        pp = ",".join(f"{p:g}" for p in self.probs)
        return f"alpha:support={parts};probs={pp}"


@dataclass(eq=False)
class Environment:
    """Bias assignment bound to one tree, with cached potential theory.

    lam, mu and alpha (None outside the alpha family) are read-only float64
    arrays by vertex id, each the environment's own copy, with the root's lam
    and mu fixed at 1. Every non-root bias must be finite and positive; the
    first vertex that is not is named.

    The potential tables R, phi, psi and log Psi are flat float64 arrays
    indexed by vertex id, held in _pot. Nothing is computed before the
    first query; that query fills all four for the whole tree in one pass,
    level by level (see _potentials), and _trans the direct walk's
    parent-step probabilities (see _transition_table).
    """

    tree: Tree
    lam: np.ndarray
    mu: np.ndarray
    alpha: np.ndarray | None = None
    _pot: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None = field(
        default=None, init=False, repr=False)
    _trans: tuple[memoryview, Sequence[float]] | None = field(
        default=None, init=False, repr=False)

    def __post_init__(self):
        n = self.tree.n_vertices
        if len(self.lam) != n or len(self.mu) != n:
            raise ValueError("lam and mu must have one entry per vertex")
        # copies, so fixing the root's biases at 1 leaves the caller's alone
        lam = np.array(self.lam, dtype=np.float64)
        mu = np.array(self.mu, dtype=np.float64)
        lam[0] = mu[0] = 1.0
        # min and max propagate NaN, and NaN fails both comparisons
        if not (lam.min() > 0 and mu.min() > 0 and lam.max() < math.inf
                and mu.max() < math.inf):
            for v in range(1, n):
                for b in (lam[v], mu[v]):
                    if not math.isfinite(b):
                        raise ValueError(f"biases must be finite, vertex {v}")
                    if b <= 0:
                        raise ValueError(f"biases must be positive, vertex {v}")
        lam.flags.writeable = mu.flags.writeable = False
        self.lam, self.mu = lam, mu
        if self.alpha is not None:
            self.alpha = np.array(self.alpha, dtype=np.float64)
            self.alpha.flags.writeable = False


def assign_deterministic(tree: Tree, lam: float = 1.0, mu: float = 1.0) -> Environment:
    """The same lam and mu at every vertex."""
    n = tree.n_vertices
    return Environment(tree, np.full(n, float(lam)), np.full(n, float(mu)))


def environment_from_alpha(tree: Tree, alpha: Sequence[float]) -> Environment:
    """The alpha family: lam = 1 + alpha * deg, mu == 1.

    alpha (a list or an array, never written to) has one entry per vertex;
    the root's is read as 0. lam is float64 arithmetic on whole arrays, the
    same operations per entry as the scalar 1.0 + alpha[v] * deg(v), and no
    table is ever turned into a list: with mu == 1 the direct walk's
    later-visit probabilities are the tree's (Tree.parent_step)."""
    a = np.array(alpha, dtype=np.float64)
    if a.shape != (tree.n_vertices,):
        raise ValueError("need one alpha per vertex")
    a[0] = 0.0
    return Environment(tree, 1.0 + a * tree.degrees, np.ones(tree.n_vertices), alpha=a)


def sample_random_environment(tree: Tree, dist: AlphaDistribution, seed: int) -> Environment:
    """Fresh iid alphas for every vertex, lam = 1 + alpha * deg, mu == 1.
    A one-atom law draws nothing: every vertex gets the atom, and a run on
    point laws alone never loads numpy.random."""
    if len(dist.values) == 1:
        alpha = np.full(tree.n_vertices, dist.values[0])
    else:
        alpha = dist.sample(np.random.default_rng(seed), tree.n_vertices)
    return environment_from_alpha(tree, alpha)


# ---------------------------------------------------------------------------
# potential theory


def _each(f: Callable[[float], float], x: np.ndarray) -> np.ndarray:
    """f applied to every entry of x as a Python float, in an array of x's
    shape. For math.exp and math.log: np.exp and np.log do not round every
    value as they do, and the tables are kept bitwise."""
    return np.fromiter(map(f, x.ravel().tolist()), dtype=np.float64,
                       count=x.size).reshape(x.shape)


def _potentials(env: Environment) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The read-only tables (R, phi, psi, log Psi) by vertex id, filled for
    the whole tree on the first call.

    R, phi and log Psi are running products and sums down the root paths
    (Tree.scan_down), psi one whole-tree expression in between. Every entry
    is the float64 operations of the scalar recursion in the same order, so
    the tables are bitwise those of a vertex-by-vertex loop (the logs are
    math.log's, and -inf where psi is 0). A product of mu or its running
    sum that overflows is refused, naming the first vertex in id order
    where R or phi is not finite, since psi would read NaN from it."""
    if env._pot is None:
        tree = env.tree
        n = tree.n_vertices
        parent = tree.levels.parent
        deep = slice(tree.levels.starts[2], None)  # the edges at depth >= 2
        lam, mu = env.lam, env.mu
        deg = tree.degrees
        # the root names no edge: R and phi 0 and an empty product; depth-1
        # edges have R = phi = psi = 1
        R, ph, ps = np.ones(n), np.zeros(n), np.ones(n)
        R[0] = 0.0
        with np.errstate(over="ignore"):  # refused below, by vertex
            tree.scan_down(np.multiply, R, mu[parent], 2)  # reads no y at the root
            tree.scan_down(np.add, ph, R, 1)
        for name, table in (("R", R), ("phi", ph)):
            bad = np.flatnonzero(~np.isfinite(table))
            if bad.size:
                raise RefusalError(f"{name} at vertex {bad[0]} is {float(table[bad[0]])!r}: "
                                   "the potential pass overflows float64")
        # at the parent w, the mix of first- and later-visit bias that holds
        # a fresh arrival there
        w = parent[deep]
        factor = (lam[w] + (deg[w] - 2) * mu[w] / (mu[w] + 1.0)) / (lam[w] + deg[w] - 1.0)
        drop = 1.0 - ph[parent[w]] / ph[deep]
        ps[deep] = 1.0 - drop * factor
        # psi rounds to 0 where the drop is 1 and the bracket rounds to 1;
        # math.log refuses 0, its log is -inf, and Psi below is exactly 0
        zero = ps == 0.0
        logs = _each(math.log, np.where(zero, 1.0, ps))
        logs[zero] = -math.inf
        lp = np.zeros(n)
        tree.scan_down(np.add, lp, logs, 1)
        for table in (R, ph, ps, lp):
            table.flags.writeable = False
        env._pot = (R, ph, ps, lp)
    return env._pot


def _conductance(env: Environment, a: int, b: int) -> np.ndarray:
    """The adapted conductance of the edges above the ids a .. b - 1: 1 at
    depth 1, below it Psi(e) / (1 - psi(e)), the root-connection
    probability over that of the edge closing under a connected parent
    end, and +inf where psi is 1 (resistance 0), whatever Psi."""
    _, _, ps, lp = (table[a:b] for table in _potentials(env))
    with np.errstate(divide="ignore", invalid="ignore"):  # set below
        c = _each(math.exp, lp) / (1.0 - ps)
    c[ps == 1.0] = math.inf
    c[:max(0, env.tree.levels.starts[2] - a)] = 1.0
    return c


def _transition_table(env: Environment) -> tuple[memoryview, Sequence[float]]:
    """Parent-step probabilities per vertex: lam/(lam + deg - 1) on the
    first visit and mu/(mu + deg - 1) on later ones, exactly 1 at a vertex
    with no children and 0 at the root. Built on the first walk in an
    environment, in float64 on whole arrays as lam / ((lam + deg) - 1): the
    scalar expression's operation order, so every entry is bitwise the
    same. At a childless vertex that expression can round below 1
    (0.9999999999999992 for lam = 0.1), which would let a draw pick a child
    that is not there. First visits read the array through a memoryview
    (Python floats, no copy); later ones read a list, which where every mu
    is 1 is exactly 1/deg, the tree's shared Tree.parent_step."""
    if env._trans is None:
        d = env.tree.degrees
        unit = (env.mu == 1.0).all()
        p = [b / ((b + d) - 1) for b in ((env.lam,) if unit else (env.lam, env.mu))]
        for q in p:
            q[d == 1] = 1.0
            q[0] = 0.0
        p[0].flags.writeable = False
        env._trans = (memoryview(p[0]), env.tree.parent_step if unit else p[1].tolist())
    return env._trans


def psi(env: Environment, u: int) -> float:
    """Single-edge ruin factor for the edge above u.

    Depth 1 is 1 by convention. Deeper, a fresh arrival at the parent w
    either drops toward the root (potential ratio term) or is held by the
    mix of its first-visit bias lam_w and later-visit bias mu_w; the bracket
    is that mix, exactly the weight the walk puts on going down across the
    edge before its excursion back to the root succeeds.
    """
    if u == 0:
        raise ValueError("the root names no edge")
    return float(_potentials(env)[2][u])


def log_Psi(env: Environment, u: int) -> float:
    if u == 0:
        raise ValueError("the root names no edge")
    return float(_potentials(env)[3][u])


def Psi(env: Environment, u: int) -> float:
    """Product of psi along the root path, the exact probability that the
    edge above u is connected to the root in the ruin percolation."""
    return math.exp(log_Psi(env, u))


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


def _ruin_weights(tree: Tree, lp: np.ndarray, gamma: float | np.ndarray,
                  cuts: Sequence[int]) -> np.ndarray:
    """Psi**gamma = exp(gamma * log Psi) by vertex id, from lp = log Psi
    through the deepest cut (one row per gamma if gamma is an array), where
    a cutset DP (tree._cut_dp) at a depth in cuts can read it: on a cut
    depth and at a vertex with two or more children. Every other entry is
    +inf, and the DP's F stays bitwise the same for gamma >= 0:
    - a dead end above a cut reads no weight, its F is 0;
    - psi lies in [0, 1], so log Psi, and with it the weight, never
      increases down a root path. At a vertex v above a cut with one child
      c, F(c) <= w(c) <= w(v), so the DP returns F(c) at v whether w(v) is
      that weight or +inf (a NaN weight, which only a NaN log Psi gives,
      reads as +inf too).
    A Psi of 0 weighs 0.0**gamma: 1 at gamma 0, where exp(0 * -inf) would
    be NaN."""
    starts = tree.levels.starts
    read = tree.levels.kids[:lp.size] > 1
    for d in cuts:
        read[starts[d]:starts[d + 1]] = True
    ids = np.flatnonzero(read)
    with np.errstate(invalid="ignore"):  # 0 * -inf, mended next
        x = np.multiply.outer(gamma, lp[ids])
    x[np.isnan(x) & np.isneginf(lp[ids])] = 0.0
    w = np.full(x.shape[:-1] + lp.shape, math.inf)
    w[..., ids] = _each(math.exp, x)
    return w


# weights per cutset pass of rt_estimate: bounds its memory on large trees
_RT_CELLS = 1 << 18


def rt_estimate(pair_family: Callable[[int], tuple[Tree, Environment]],
                gamma_grid: Sequence[float], depths: Sequence[int],
                threshold: float = DEFAULT_THRESHOLD) -> BranchingTable:
    """Branching-ruin style table with ruin weights: min cutset sums under
    w(e) = Psi(e)**gamma across depths, read the same way as the plain
    growth-index table.

    pair_family(L) returns a tree of truncation depth at least L and its
    environment. It is called once, for the deepest depth, and depth L cuts
    that tree at level L, as in flow_energy_check; a depth below 1 or past
    the tree is refused. psi at depth <= L reads no bias or degree at depth
    L or below, so with environments that nest as a family's trees do (the
    CLI's draw alphas in id order from one seed) each row is its own tree's.

    Only the weights a cut can read are evaluated (see _ruin_weights): on
    the cut level and at the vertices with two or more children, +inf
    elsewhere. For gamma >= 0 that is exact, every value bitwise that
    of the DP on every weight, so a negative or NaN gamma is refused.
    """
    for g in gamma_grid:
        if not g >= 0:  # NaN fails too
            raise ValueError(f"gamma must be at least 0, got {g!r}")
    gammas = sorted(gamma_grid)
    depths = sorted(depths)
    if not gammas or not depths:
        raise ValueError("gamma grid and depth list must be nonempty")
    if depths[0] < 1:
        raise ValueError(f"depth {depths[0]} is below 1")
    tree, env = pair_family(depths[-1])
    if depths[-1] > tree.truncation_depth:
        raise ValueError(f"depth {depths[-1]} exceeds the tree depth {tree.truncation_depth}")
    values: dict[tuple[float, int], float] = {}
    for L in depths:
        lp = _potentials(env)[3][:tree.levels.starts[L + 1]]  # through the cut
        # w = exp(g * log Psi), one row per gamma, as many gammas per cutset
        # pass as fit in _RT_CELLS weights
        rows = max(1, _RT_CELLS // lp.size)
        for k in range(0, len(gammas), rows):
            chunk = gammas[k:k + rows]
            w = _ruin_weights(tree, lp, np.asarray(chunk, dtype=np.float64), [L])
            values.update(zip([(g, L) for g in chunk], _cut_dp(tree, w, L)[0]))
    return BranchingTable(gammas, depths, values, threshold)
