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
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Callable, Sequence

import numpy as np

from .errors import InputError, RefusalError
from .tree import (DEFAULT_THRESHOLD, BranchingTable, Tree, _cut_depths, _cut_dp, _frozen,
                   _gammas)
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
    "rt_estimate",
]


@dataclass(frozen=True)
class AlphaDistribution:
    """A finitely supported law for the per-vertex excitement alpha >= 0.

    The law is its atoms of positive mass: every entry given is checked, then the zero-mass
    atoms are dropped. m is the annealed mean E[1/(alpha+1)], computed exactly from the support.
    A draw is an atom index (_index) over cumulative weights made once per law, _atoms its alpha.
    """

    values: tuple[float, ...]
    probs: tuple[float, ...]

    def __post_init__(self):
        if len(self.values) != len(self.probs) or not self.values:
            raise InputError("need matching nonempty values and probs")
        for x in (*self.values, *self.probs):
            if not math.isfinite(x):
                raise InputError(f"alpha law entries must be finite, got {x!r}")
        if any(a < 0 for a in self.values):
            raise InputError("alpha values must be >= 0")
        if any(p < 0 for p in self.probs) or abs(sum(self.probs) - 1.0) > 1e-12:
            raise InputError("probs must be nonnegative and sum to 1")
        values, probs = zip(*((a, p) for a, p in zip(self.values, self.probs) if p > 0))
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "_cuts", tuple(np.cumsum(probs)[:-1].tolist()))
        object.__setattr__(self, "_atoms", _frozen(np.array(values, dtype=np.float64)))

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

    def _index(self, seed: int, size: int) -> np.ndarray:
        """size iid atom indices by inverse transform: u counts the first k-1 of the k
        cumulative weights at or below it. A one-atom law draws nothing, nor loads numpy.random."""
        cuts = self._cuts
        if not cuts:
            return np.zeros(size, np.intp)
        u = np.random.default_rng(seed).random(size)
        if len(cuts) == 1:  # two atoms: the comparison is the index
            return cuts[0] <= u
        return sum((c <= u for c in cuts), np.zeros(size, np.intp))

    def spec_string(self) -> str:
        if len(self.values) == 1:
            return f"alpha:point={self.values[0]:g}"
        parts = ",".join(f"{v:g}" for v in self.values)
        pp = ",".join(f"{p:g}" for p in self.probs)
        return f"alpha:support={parts};probs={pp}"


@dataclass(eq=False)
class Environment:
    """Bias assignment bound to one tree, with cached potential theory.

    lam and mu are read-only float64 arrays by vertex id, each the
    environment's own copy, with the root's lam and mu fixed at 1. Every
    non-root bias must be finite and positive; the first vertex that is not
    is named. alpha is None but in an alpha environment (a read-only
    array), whose mu is its tree's Tree.ones.

    The potential tables R, phi, psi and log Psi are flat float64 arrays
    indexed by vertex id, held in _pot. Nothing is computed before the
    first query; that query fills all four for the whole tree in one pass,
    level by level (see _potentials), and _trans the direct walk's
    parent-step probabilities (see _transition_table).
    """

    tree: Tree
    lam: np.ndarray
    mu: np.ndarray
    alpha: np.ndarray | None = field(default=None, init=False)
    _pot: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None = field(
        default=None, init=False, repr=False)
    _trans: tuple[memoryview, Sequence[float] | None] | None = field(
        default=None, init=False, repr=False)
    _first: Callable[[], np.ndarray] | None = field(default=None, init=False, repr=False)

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
                        raise InputError(f"biases must be finite, vertex {v}")
                    if b <= 0:
                        raise InputError(f"biases must be positive, vertex {v}")
        lam.flags.writeable = mu.flags.writeable = False
        self.lam, self.mu = lam, mu


def assign_deterministic(tree: Tree, lam: float = 1.0, mu: float = 1.0) -> Environment:
    """The same lam and mu at every vertex."""
    n = tree.n_vertices
    return Environment(tree, np.full(n, float(lam)), np.full(n, float(mu)))


def environment_from_alpha(tree: Tree, alpha: Sequence[float]) -> Environment:
    """The alpha family: lam = 1 + alpha * deg, mu == 1.

    alpha (a list or an array, never written to) has one entry per vertex;
    the root's is read as 0. lam is float64 arithmetic on whole arrays, the
    same operations per entry as the scalar 1.0 + alpha[v] * deg(v), and
    is refused as Environment refuses it. alpha is copied once; neither it
    nor lam is copied or checked again, and mu is the tree's Tree.ones, so
    the later-visit probabilities are Tree.parent_step."""
    a = np.array(alpha, dtype=np.float64)
    if a.shape != (tree.n_vertices,):
        raise ValueError("need one alpha per vertex")
    a[0] = 0.0
    with np.errstate(over="ignore"):  # refused below, by vertex
        lam = 1.0 + a * tree.float_degrees  # exactly 1 at the root
    if not (lam.min() > 0 and lam.max() < math.inf):  # as in Environment
        Environment(tree, lam, tree.ones)  # refuses the first bad vertex
    return _alpha_env(tree, a, lam)


def _alpha_env(tree: Tree, alpha: np.ndarray, lam: np.ndarray,
               first: Callable[[], np.ndarray] | None = None) -> Environment:
    """An alpha environment of checked arrays, kept uncopied; first builds its first visits."""
    env = object.__new__(Environment)  # no __post_init__: made and checked by the caller
    env.tree, env.lam, env.mu, env.alpha = tree, _frozen(lam), tree.ones, _frozen(alpha)
    env._pot, env._trans, env._first = None, None, first
    return env


@lru_cache(maxsize=16)
def _law_tables(dist: AlphaDistribution, degrees: tuple[float, ...]) -> tuple:
    """lam = 1.0 + a * deg and _first_visit of atom i at degree class c (Tree._classes) in entry
    i * len(degrees) + c, as environment_from_alpha does, and if every lam is finite. alpha is
    gathered from dist._atoms instead: as a cache key, a law with atom -0.0 equals one with 0.0."""
    d = np.asarray(degrees)
    with np.errstate(over="ignore"):  # an overflowing lam is refused where drawn
        lam = 1.0 + np.multiply.outer(dist._atoms, d)  # the root's class reads degree 0: lam 1
    return _frozen(lam.ravel()), _frozen(_first_visit(lam, d).ravel()), bool(lam.max() < math.inf)


def sample_random_environment(tree: Tree, dist: AlphaDistribution, seed: int) -> Environment:
    """Fresh iid alphas for every vertex, lam = 1 + alpha * deg, mu == 1: one
    uniform per vertex draws its atom index (AlphaDistribution._index); alpha,
    lam and, on the first walk, the first-visit table are gathered by (atom,
    degree class) from _law_tables, bitwise as environment_from_alpha and
    _transition_table make them, and an overflowing lam is refused where drawn."""
    cls, degrees = tree._classes
    lam_of, first_of, finite = _law_tables(dist, degrees)
    idx = dist._index(seed, tree.n_vertices)
    at = cls + len(degrees) * idx
    lam = lam_of.take(at)
    if not (finite or lam.max() < math.inf):
        Environment(tree, lam, tree.ones)  # refuses the first bad vertex
    alpha = dist._atoms.take(idx)
    alpha[0] = 0.0
    return _alpha_env(tree, alpha, lam, partial(first_of.take, at))


# ---------------------------------------------------------------------------
# potential theory


def _each(f: Callable[[float], float], x: np.ndarray) -> np.ndarray:
    """f applied to every entry of x as a Python float, in an array of x's
    shape. For math.exp and math.log: np.exp and np.log do not round every
    value as they do, and the tables are kept bitwise. One call per entry,
    repeated or not: the exp arguments of the weights and conductances and
    the clock logs are nearly all distinct, so finding the repeats first
    would cost more than it saves (_potentials, whose psi repeat, does)."""
    return np.fromiter(map(f, x.ravel().tolist()), dtype=np.float64,
                       count=x.size).reshape(x.shape)


def _potentials(env: Environment) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The read-only tables (R, phi, psi, log Psi) by vertex id, filled for
    the whole tree on the first call.

    R, phi and log Psi are running products and sums down the root paths
    (Tree.scan_down), psi one whole-tree expression in between, its bias
    factor taken once per vertex and gathered at each edge's parent. Every
    entry is the float64 operations of the scalar recursion in the same
    order, so the tables are bitwise those of a vertex-by-vertex loop (the
    logs are math.log's, and -inf where psi is 0). A product of mu or its
    running sum that overflows is refused, naming the first vertex in id
    order where R or phi is not finite, since psi would read NaN from it.

    psi depends only on the edge's parent, so it repeats: under a finitely
    supported law or det: on a family tree it takes at most one value per
    (atom, degree) pair on a level. math.log is taken once per distinct
    psi and gathered back to every edge, which is exact since equal floats
    have equal logs."""
    if env._pot is None:
        tree = env.tree
        n = tree.n_vertices
        parent = tree.levels.parent
        deep = slice(tree.levels.starts[2], None)  # the edges at depth >= 2
        lam, mu = env.lam, env.mu
        deg = tree.float_degrees
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
        # at the parent w, the mix of first- and later-visit bias that holds a
        # fresh arrival there, at every vertex (a leaf, never a w, may divide by 0)
        w = parent[deep]
        with np.errstate(divide="ignore", invalid="ignore"):
            factor = (lam + (deg - 2) * mu / (mu + 1.0)) / (lam + deg - 1.0)
        drop = 1.0 - ph[parent][w] / ph[deep]
        ps[deep] = 1.0 - drop * factor[w]
        # psi rounds to 0 where the drop is 1 and the bracket rounds to 1;
        # math.log refuses 0, its log is -inf, and Psi below is exactly 0
        values, at = np.unique(ps, return_inverse=True)
        zero = values == 0.0
        logs = _each(math.log, np.where(zero, 1.0, values))
        logs[zero] = -math.inf
        lp = np.zeros(n)
        tree.scan_down(np.add, lp, logs[at], 1)
        R.flags.writeable = ph.flags.writeable = ps.flags.writeable = lp.flags.writeable = False
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


def _first_visit(b: np.ndarray, d: np.ndarray) -> np.ndarray:
    """b / ((b + d) - 1), the parent step of bias b at float degree d, in the scalar order; on
    the last axis the root (entry 0) is 0 and a leaf (degree 1) is 1, where the expression
    can round below 1 (0.9999999999999992 for b = 0.1) and let a draw pick no child."""
    with np.errstate(divide="ignore", invalid="ignore"):  # a leaf's (b + 1) - 1 can be 0
        p = b / ((b + d) - 1.0)
    p[..., d == 1.0] = 1.0
    p[..., 0] = 0.0
    return p


def _transition_table(env: Environment,
                      later: bool = True) -> tuple[memoryview, Sequence[float] | None]:
    """Parent-step probabilities per vertex (_first_visit), lam's on the first visit
    and mu's on later ones, each built on the first walk that reads it; a sampled
    environment gathers its first-visit ones from its law's table (_first). First
    visits read the array through a memoryview (Python floats, no copy), later ones
    a list: where every mu is 1, exactly 1/deg, the tree's shared Tree.parent_step.
    The clock kernels pass later=False, which leaves an unbuilt later-visit table
    None. A root-only tree is refused."""
    tree = env.tree
    if env._trans is None:
        if tree.n_vertices == 1:
            raise InputError("a walk needs a tree with an edge; this one is a root only (depth 0)")
        first = env._first() if env._first else _first_visit(env.lam, tree.float_degrees)
        env._trans, env._first = (memoryview(_frozen(first)), None), None
    if later and env._trans[1] is None:
        unit = env.mu is tree.ones or (env.mu == 1.0).all()
        pl = tree.parent_step if unit else _first_visit(env.mu, tree.float_degrees).tolist()
        env._trans = (env._trans[0], pl)
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
    A vertex on a cut with one child is such a vertex for every deeper
    cut, so one table serves every depth in cuts. A Psi of 0 weighs
    0.0**gamma: 1 at gamma 0, where exp(0 * -inf) would be NaN."""
    starts = tree.levels.starts
    read = tree.levels.kids[:lp.size] > 1
    for d in cuts:
        read[starts[d]:starts[d + 1]] = True
    ids = np.flatnonzero(read)
    with np.errstate(over="ignore", invalid="ignore"):  # -inf is weight 0; 0 * -inf mended next
        x = np.multiply.outer(gamma, lp[ids])
    x[np.isnan(x) & np.isneginf(lp[ids])] = 0.0
    w = np.full(x.shape[:-1] + lp.shape, math.inf)
    w[..., ids] = _each(math.exp, x)
    return w


# weights per cutset pass of rt_estimate, counted over its depth blocks
# (blocks x gammas x vertices): bounds its memory on large trees
_RT_CELLS = 1 << 18


def rt_estimate(pair_family: Callable[[int], tuple[Tree, Environment]],
                gamma_grid: Sequence[float], depths: Sequence[int],
                threshold: float = DEFAULT_THRESHOLD) -> BranchingTable:
    """Branching-ruin style table with ruin weights: min cutset sums under
    w(e) = Psi(e)**gamma across depths, read the same way as the plain
    growth-index table.

    pair_family(L) returns a tree of truncation depth at least L and its
    environment. It is called once, for the deepest depth, and depth L cuts
    that tree at level L, as in flow_energy_check (tree._cut_depths checks
    the depths). psi at depth <= L reads no bias or degree at depth L or
    below, so with environments that nest as a family's trees do (the CLI's
    draw alphas in id order from one seed) each row is its own tree's.

    Only the weights a cut can read are evaluated (see _ruin_weights): on
    the cut levels and at the vertices with two or more children, +inf
    elsewhere. For gamma >= 0 that is exact, every value bitwise that
    of the DP on every weight, so a negative or NaN gamma is refused. One
    weight table serves every depth, and one cutset pass (tree._cut_dp)
    cuts it at all of them, one block per depth, for as many gammas as fit
    in _RT_CELLS block cells; a tree too large for one gamma's blocks is
    cut one depth per pass.
    """
    gammas = _gammas(gamma_grid)
    depths = _cut_depths(depths)
    tree, env = pair_family(depths[-1])
    _cut_depths(depths, tree.truncation_depth)
    starts = tree.levels.starts
    # every depth in one pass where one gamma's blocks fit in _RT_CELLS,
    # else one depth per pass
    fits = len(depths) * starts[depths[-1] + 1] <= _RT_CELLS
    values: dict[tuple[float, int], float] = {}
    for cuts in [depths] if fits else [[L] for L in depths]:
        lp = _potentials(env)[3][:starts[cuts[-1] + 1]]  # through the deepest cut
        rows = max(1, _RT_CELLS // (len(cuts) * lp.size))
        for k in range(0, len(gammas), rows):
            # w = exp(g * log Psi), one row per gamma of the chunk
            chunk = gammas[k:k + rows]
            w = _ruin_weights(tree, lp, np.asarray(chunk, dtype=np.float64), cuts)
            for L, cut in zip(cuts, _cut_dp(tree, w, cuts)[0]):
                values.update(zip([(g, L) for g in chunk], cut))
    return BranchingTable(gammas, depths, values, threshold)
