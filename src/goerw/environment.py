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
from typing import Callable, Sequence

import numpy as np

from .tree import Tree, TreeFamily, BranchingTable, min_cutset_sum, _atomic_write

__all__ = [
    "AlphaDistribution",
    "Environment",
    "assign_deterministic",
    "environment_from_alpha",
    "sample_random_environment",
    "resistance",
    "phi",
    "psi",
    "Psi",
    "log_Psi",
    "psi_simplified",
    "rt_hypothesis_sup",
    "rt_estimate",
    "write_env_file",
    "read_env_file",
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

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw iid alphas. Uses inverse transform on the cumulative weights
        so the output depends only on the generator's uniforms."""
        cum = np.cumsum(self.probs)
        idx = np.searchsorted(cum, rng.random(size), side="right")
        idx = np.minimum(idx, len(self.values) - 1)
        return np.asarray(self.values, dtype=float)[idx]

    def spec_string(self) -> str:
        if len(self.values) == 1:
            return f"alpha:point={self.values[0]:g}"
        parts = ",".join(f"{v:g}" for v in self.values)
        pp = ",".join(f"{p:g}" for p in self.probs)
        return f"alpha:support={parts};probs={pp}"


@dataclass
class Environment:
    """Bias assignment bound to one tree, with cached potential theory.

    lam and mu (lists or arrays, never written to) are stored twice: as
    float lists for the kernels that index one vertex at a time, and as
    float64 arrays (_tables) for whole-tree arithmetic. Every non-root bias
    must be finite and positive; the first vertex that is not is named.

    The potential tables R, phi, psi and log Psi are flat lists indexed by
    vertex id. They hold a prefix 0..k of the breadth-first ids and grow by
    one forward pass when a query names an id past k. Every parent precedes
    its children in that order, so the prefix up to v contains v's whole
    root path: a shallow query touches only the low ids, a full sweep costs
    one pass over the tree, and nothing is computed before the first query.
    """

    tree: Tree
    lam: list[float]
    mu: list[float]
    alpha: list[float] | None = None
    m: float | None = None
    seed: int | None = None
    dist_spec: str | None = None
    _R: list[float] = field(default_factory=list, init=False, repr=False, compare=False)
    _phi: list[float] = field(default_factory=list, init=False, repr=False, compare=False)
    _psi: list[float] = field(default_factory=list, init=False, repr=False, compare=False)
    _log_Psi: list[float] = field(default_factory=list, init=False, repr=False, compare=False)
    _tables: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)
    # (pf, pl): parent-step probabilities on first and later visits, filled
    # by goerw.walk on the first direct walk
    _trans: tuple[list[float], list[float]] | None = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.tree.n_vertices
        if len(self.lam) != n or len(self.mu) != n:
            raise ValueError("lam and mu must have one entry per vertex")
        # copies, so fixing the root's biases at 1 leaves the caller's alone
        lam = np.array(self.lam, dtype=np.float64)
        mu = np.array(self.mu, dtype=np.float64)
        lam[0] = mu[0] = 1.0
        self.lam, self.mu = lam.tolist(), mu.tolist()
        # min and max propagate NaN, and NaN fails both comparisons
        if not (lam.min() > 0 and mu.min() > 0 and lam.max() < math.inf
                and mu.max() < math.inf):
            for v in range(1, n):
                for b in (self.lam[v], self.mu[v]):
                    if not math.isfinite(b):
                        raise ValueError(f"biases must be finite, vertex {v}")
                    if b <= 0:
                        raise ValueError(f"biases must be positive, vertex {v}")
        self._tables = (lam, mu)


def assign_deterministic(tree: Tree, lam=1.0, mu=1.0) -> Environment:
    """Constant or rule-based biases. lam and mu may be numbers or callables
    taking the vertex id."""
    lam_list = [float(lam(v)) if callable(lam) else float(lam) for v in range(tree.n_vertices)]
    mu_list = [float(mu(v)) if callable(mu) else float(mu) for v in range(tree.n_vertices)]
    return Environment(tree, lam_list, mu_list)


def environment_from_alpha(tree: Tree, alpha: Sequence[float], m: float | None = None,
                           seed: int | None = None, dist_spec: str | None = None) -> Environment:
    """The alpha family: lam = 1 + alpha * deg, mu == 1.

    alpha (a list or an array, never written to) has one entry per vertex;
    the root's is read as 0. lam is float64 arithmetic on whole arrays, the
    same operations per entry as the scalar 1.0 + alpha[v] * deg(v)."""
    a = np.array(alpha, dtype=np.float64)
    if a.shape != (tree.n_vertices,):
        raise ValueError("need one alpha per vertex")
    a[0] = 0.0
    lam = 1.0 + a * tree.degrees
    mu = np.ones(tree.n_vertices)
    return Environment(tree, lam, mu, alpha=a.tolist(), m=m, seed=seed,
                       dist_spec=dist_spec)


def sample_random_environment(tree: Tree, dist: AlphaDistribution, seed: int) -> Environment:
    """Fresh iid alphas for every vertex, lam = 1 + alpha * deg, mu == 1."""
    rng = np.random.default_rng(seed)
    alpha = dist.sample(rng, tree.n_vertices)
    return environment_from_alpha(tree, alpha, m=dist.m, seed=seed,
                                  dist_spec=dist.spec_string())


# ---------------------------------------------------------------------------
# potential theory


def _extend(env: Environment, v: int) -> None:
    """Fill the potential tables forward in id order through vertex v."""
    R, ph, ps, lp = env._R, env._phi, env._psi, env._log_Psi
    if not R:  # the root names no edge; phi 0 and an empty product
        R.append(0.0)
        ph.append(0.0)
        ps.append(1.0)
        lp.append(0.0)
    tree = env.tree
    parent, children = tree.parent, tree.children
    lam, mu = env.lam, env.mu
    log = math.log
    for u in range(len(R), v + 1):
        w = parent[u]
        if w:
            R_u = R[w] * mu[w]
            phi_u = ph[w] + R_u
            degw = len(children[w]) + 1
            lamw = lam[w]
            muw = mu[w]
            drop = 1.0 - ph[parent[w]] / phi_u
            factor = (lamw + (degw - 2) * muw / (muw + 1.0)) / (lamw + degw - 1.0)
            psi_u = 1.0 - drop * factor
        else:
            R_u = phi_u = psi_u = 1.0
        R.append(R_u)
        ph.append(phi_u)
        ps.append(psi_u)
        lp.append(lp[w] + log(psi_u))


def resistance(env: Environment, e: int) -> float:
    """R(e): the product of mu over the vertices strictly inside the root
    path of edge e. Depth-1 edges have resistance 1."""
    if e == 0:
        raise ValueError("the root names no edge")
    if e >= len(env._R):
        _extend(env, e)
    return env._R[e]


def phi(env: Environment, x: int) -> float:
    """Potential: sum of resistances along the root path (0 at the root)."""
    if x >= len(env._phi):
        _extend(env, x)
    return env._phi[x]


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
    if u >= len(env._psi):
        _extend(env, u)
    return env._psi[u]


def log_Psi(env: Environment, u: int) -> float:
    if u == 0:
        raise ValueError("the root names no edge")
    if u >= len(env._log_Psi):
        _extend(env, u)
    return env._log_Psi[u]


def Psi(env: Environment, u: int) -> float:
    """Product of psi along the root path, the exact probability that the
    edge above u is connected to the root in the ruin percolation."""
    return math.exp(log_Psi(env, u))


def psi_simplified(alpha_parent: float, edge_depth: int) -> float:
    """Closed form of psi when mu == 1 and lam = 1 + alpha * deg: the vertex
    degree cancels and only the parent's alpha and the depth remain."""
    if edge_depth < 1:
        raise ValueError("edges start at depth 1")
    if edge_depth == 1:
        return 1.0
    return 1.0 - (2.0 * alpha_parent + 1.0) / ((alpha_parent + 1.0) * edge_depth)


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
    best = 0.0
    for v in range(1, tree.n_vertices):
        if tree.depth[v] < 2:
            continue
        val = resistance(env, v) / phi(env, tree.parent[v])
        if val > best:
            best = val
    return best


def rt_estimate(pair_family: Callable[[int], tuple[Tree, Environment]],
                gamma_grid: Sequence[float], depths: Sequence[int],
                threshold: float = 0.1) -> BranchingTable:
    """Branching-ruin style table with ruin weights: min cutset sums under
    w(e) = Psi(e)**gamma across depths, read the same way as the plain
    growth-index table.

    pair_family(L) must return the truncated tree together with its
    environment, extending consistently as L grows (same seed and rule) so
    the depths are comparable.
    """
    gammas = sorted(gamma_grid)
    depths = sorted(depths)
    if not gammas or not depths:
        raise ValueError("gamma grid and depth list must be nonempty")
    values: dict[tuple[float, int], float] = {}
    for L in depths:
        tree, env = pair_family(L)
        logs = [0.0] * tree.n_vertices
        for v in range(1, tree.n_vertices):
            logs[v] = log_Psi(env, v)
        for g in gammas:
            values[(g, L)], _ = min_cutset_sum(
                tree, lambda e, g=g: math.exp(g * logs[e]))
    return BranchingTable(gammas, depths, values, threshold)


# ---------------------------------------------------------------------------
# file format


def write_env_file(env: Environment, path: str) -> None:
    """'# goerw-env v1 seed=<s> dist=<spec> m=<m>' then one line per vertex:
    id, lam, mu and alpha when the environment carries one."""
    seed = "none" if env.seed is None else str(env.seed)
    dist = env.dist_spec or "none"
    m = "none" if env.m is None else repr(env.m)
    lines = [f"# goerw-env v1 seed={seed} dist={dist} m={m}"]
    for v in range(env.tree.n_vertices):
        row = f"{v} {env.lam[v]!r} {env.mu[v]!r}"
        if env.alpha is not None:
            row += f" {env.alpha[v]!r}"
        lines.append(row)
    _atomic_write(path, "\n".join(lines) + "\n")


def read_env_file(path: str, tree: Tree) -> Environment:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if not header.startswith("# goerw-env v1 "):
            raise ValueError(f"{path}: not a goerw-env v1 file")
        fields = dict(part.split("=", 1) for part in header[len("# goerw-env v1 "):].split())
        rows = []
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            rows.append(line.split())
    if len(rows) != tree.n_vertices:
        raise ValueError(
            f"{path}: {len(rows)} vertex rows for a tree of {tree.n_vertices}")
    lam = [0.0] * tree.n_vertices
    mu = [0.0] * tree.n_vertices
    alpha: list[float] | None = [0.0] * tree.n_vertices if len(rows[0]) == 4 else None
    for row in rows:
        v = int(row[0])
        if not 0 <= v < tree.n_vertices:
            raise ValueError(f"{path}: vertex id {v} out of range")
        lam[v] = float(row[1])
        mu[v] = float(row[2])
        if alpha is not None:
            alpha[v] = float(row[3])
    lam[0], mu[0] = 1.0, 1.0
    seed = None if fields.get("seed") in (None, "none") else int(fields["seed"])
    m = None if fields.get("m") in (None, "none") else float(fields["m"])
    dist_spec = None if fields.get("dist") in (None, "none") else fields["dist"]
    return Environment(tree, lam, mu, alpha=alpha, m=m, seed=seed, dist_spec=dist_spec)
