"""Rooted trees with a finite truncation depth, plus the cutset machinery
used to measure how fast a tree grows.

A tree is stored as one flat parent list over vertex ids assigned in
breadth-first order with the root at 0; children and depths are read from
it. An edge is identified by its child endpoint throughout the package: "edge e"
means the edge between vertex e and its parent, and the depth |e| of the edge
equals the depth of that child vertex.

A cutset is a set of edges meeting every path from the root to the truncation
boundary (the vertices at maximal depth). The least total weight of a cutset
is found by the usual downward dynamic program: for each edge, either cut it
or recurse into all edges below it. On spherically symmetric trees with
level-constant weights the optimum is always a full level, which gives a
closed form that scales to trees far too large to materialize; that shortcut
is what makes the growth-index estimates workable at large depth.
"""

from __future__ import annotations

import gc
import math
import operator
import os
import tempfile
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property, lru_cache
from fractions import Fraction
from itertools import groupby, islice, repeat
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

__all__ = [
    "Levels",
    "Tree",
    "TreeFamily",
    "build_path",
    "build_regular",
    "build_polynomial",
    "build_from_edge_list",
    "polynomial_level_sizes",
    "min_cutset_sum",
    "min_level_cutset_sum",
    "DEFAULT_GAMMAS",
    "DEFAULT_THRESHOLD",
    "default_depths",
    "branching_ruin_estimate",
    "BranchingTable",
    "path_family",
    "regular_family",
    "polynomial_family",
    "write_tree_file",
    "read_tree_file",
]


class Levels(NamedTuple):
    """A tree's breadth-first ids as arrays. Level d is the ids starts[d]
    to starts[d + 1] - 1, for d up to one past the truncation depth (that
    level is empty), and vertex v has kids[v] children. parent[0] is -1.
    single[d] says that every vertex of level d has exactly one child."""

    parent: np.ndarray
    starts: list[int]
    kids: np.ndarray
    single: list[bool]


@dataclass
class Tree:
    """A rooted tree truncated at a fixed depth, held as its parent list:
    parent[v] is the id of v's parent, -1 for the root. Ids are
    breadth-first (parent[0] == -1 <= 0 == parent[1] <= parent[2] <= ...,
    each parent[v] < v; the constructor refuses any other list), so every
    level and every vertex's children are consecutive ids, in order, which
    lets whole-tree passes run level by level on arrays (see levels,
    level_runs, child_sums and scan_down). Read from parent on first use:
    children[v] in id order, depth[v], truncation_depth, degrees (neighbor
    counts, a read-only int64 array), only_child (each vertex's only child,
    0 where it has none or several) and parent_step (1/deg, 0 at the root,
    a tuple). Trees are equal when their parent lists are."""

    parent: list[int]

    def __post_init__(self) -> None:
        # parent[:2] == [-1, 0], parent nondecreasing, each parent[v] < v
        parent = self.parent
        if not (parent[:2] in ([-1], [-1, 0])
                and all(map(operator.le, parent, islice(parent, 1, None)))
                and all(map(operator.lt, parent, range(len(parent))))):
            raise ValueError("vertex ids are not in breadth-first order")

    @property
    def n_vertices(self) -> int:
        return len(self.parent)

    @cached_property
    def children(self) -> list[list[int]]:
        # a parent's id is the int object parent holds: each id stored once;
        # lists of ints form no cycle, so the cyclic collector pauses meanwhile
        enabled = gc.isenabled()
        gc.disable()
        try:
            ids = list(range(len(self.parent)))
            for p in islice(self.parent, 1, None):
                ids[p] = p
            children: list[list[int]] = [[] for _ in ids]
            for v, p in enumerate(islice(self.parent, 1, None), 1):
                children[p].append(ids[v])
        finally:
            (gc.enable if enabled else gc.disable)()
        return children

    @cached_property
    def depth(self) -> list[int]:
        starts = self.levels.starts
        return np.repeat(np.arange(len(starts) - 2), np.diff(starts[:-1])).tolist()

    @cached_property
    def truncation_depth(self) -> int:
        return len(self.levels.starts) - 3

    @cached_property
    def degrees(self) -> np.ndarray:
        """Neighbor counts by vertex id: child count + 1, and at the root,
        which has no parent, just its child count."""
        deg = self.levels.kids + 1
        deg[0] -= 1
        deg.flags.writeable = False
        return deg

    @cached_property
    def only_child(self) -> list[int]:
        """The only child of each vertex, or 0 (never a child) where it has
        none or several: the direct walk's down-step from a single-child
        vertex is one list read."""
        return [kids[0] if len(kids) == 1 else 0 for kids in self.children]

    @cached_property
    def parent_step(self) -> tuple[float, ...]:
        """1/deg of each vertex, 0 at the root: simple random walk's parent
        step, shared as the later-visit one by every mu == 1 direct walk."""
        return (0.0, *(1.0 / self.degrees[1:]).tolist())

    @cached_property
    def levels(self) -> Levels:
        """The level and child ranges of the ids, built on first use."""
        # level d + 1 ends at the first id whose parent is past level d
        starts = [0, 1]
        while starts[-1] > starts[-2]:
            starts.append(bisect_left(self.parent, starts[-1], starts[-1]))
        parent = np.array(self.parent, dtype=np.int64)
        kids = np.bincount(parent[1:], minlength=len(parent))
        width = np.diff(starts)
        # per level, how many of its vertices have one child
        ones = np.diff(np.concatenate(([0], np.cumsum(kids == 1)))[starts])
        single = (ones == width) & (width > 0)
        return Levels(parent, starts, kids, single.tolist())

    def level_runs(self, first: int, stop: int,
                   step: int) -> Iterator[tuple[int, int, bool]]:
        """Split the levels first, first + step, ... (stop excluded) into
        pieces (d, e, chain), visited in that order. A piece is one level d
        (e = d + step, chain False), or, where every vertex has one child,
        the longest run d, d + step, ..., e - step of such levels (chain
        True). Below a chain, each level repeats its width, and the vertex
        at each position is the only child of the one above it."""
        single = self.levels.single
        d = first
        while d * step < stop * step:
            e = d + step
            if single[d]:
                while e != stop and single[e]:
                    e += step
            yield d, e, single[d]
            d = e

    def child_sums(self, X: np.ndarray, d: int) -> np.ndarray:
        """For each vertex of level d, the sum of X over its children. The
        last axis of X runs over level d + 1 and that of the result over
        level d. Each sum starts from 0.0 and adds one child at a time in id
        order, as a scalar loop does: np.bincount adds its weights in index
        order, never pairwise, so the result does not depend on numpy's or
        the interpreter's summation."""
        lv = self.levels
        a, b = lv.starts[d], lv.starts[d + 1]
        rows = math.prod(X.shape[:-1])
        at = np.arange(rows)[:, None] * (b - a) + (lv.parent[b:lv.starts[d + 2]] - a)
        sums = np.bincount(at.ravel(), weights=X.ravel(), minlength=rows * (b - a))
        # with no children at all, bincount gives integer zeros
        return sums.reshape(X.shape[:-1] + (b - a,)).astype(np.float64, copy=False)

    def scan_down(self, op: np.ufunc, X: np.ndarray, y: np.ndarray, start: int) -> None:
        """Set X[u] = op(X[parent of u], y[u]) for every u at depth >= start,
        parents first: the scalar recursion down each root path, one level
        at a time, and a chain of levels (see level_runs) in one
        op.accumulate down its columns, the same operations in order."""
        starts = self.levels.starts
        for d, e, chain in self.level_runs(start - 1, self.truncation_depth, 1):
            a, b = starts[d + 1], starts[e + 1]  # the levels d + 1 .. e
            if chain:
                run = np.concatenate((X[starts[d]:a], y[a:b]))
                X[a:b] = op.accumulate(run.reshape(-1, a - starts[d]), axis=0)[1:].ravel()
            else:
                X[a:b] = op(X[self.levels.parent[a:b]], y[a:b])

    def root_path(self, v: int) -> list[int]:
        """Vertices from the root down to v, inclusive."""
        out = []
        while v != -1:
            out.append(v)
            v = self.parent[v]
        out.reverse()
        return out

    def vertices_at_depth(self, d: int) -> range:
        if not 0 <= d <= self.truncation_depth:
            raise ValueError(f"tree has no vertices at depth {d}")
        starts = self.levels.starts
        return range(starts[d], starts[d + 1])

    def leftmost_at_depth(self, d: int) -> int:
        """Smallest vertex id at depth d. Breadth-first ids make this the
        leftmost vertex of the level."""
        return self.vertices_at_depth(d).start


# vertex cap of build_regular and build_polynomial
_MAX_VERTICES = 2_000_000


def _grow(level_sizes: Iterable[int], max_vertices: int) -> Tree:
    """The tree whose level n holds level_sizes[n] vertices (1 at the root,
    each size dividing the next), every vertex of a level with as many
    children as the next. The sizes are read a run of equal ones at a time
    and counted before any level is built: a tree over max_vertices is
    refused with no level built and no size read past the cap."""
    runs: list[tuple[int, int]] = []  # (size, how many levels in a row have it)
    total = 0
    for size, run in groupby(level_sizes):
        # room // size + 1 more levels of this size are over the cap
        count = sum(islice(run, (max_vertices - total) // size + 1)) // size
        runs.append((size, count))
        total += size * count
        if total > max_vertices:
            raise ValueError(f"tree has {total} vertices by depth {sum(c for _, c in runs) - 1}, "
                             f"over the {max_vertices} vertex cap; use the level-size "
                             "shortcut instead of materializing it")
    parent: list[int] = []
    above = 1  # the root hangs from a level of one vertex, id -1
    for size, count in runs:
        a = len(parent) - above  # the level above: ids a .. a + above - 1
        for p in range(a, a + above):
            parent += [p] * (size // above)
        # below the first level of a run every vertex has one child
        parent += range(a + above, a + above + (count - 1) * size)
        above = size
    return Tree(parent)


def _levels(depth: int) -> range:
    if depth < 0:
        raise ValueError(f"tree depth must be at least 0, got {depth}")
    return range(depth + 1)


def _path_sizes(length: int) -> Iterator[int]:
    return repeat(1, length + 1)


def build_path(length: int) -> Tree:
    """A single path of the given length hanging off the root."""
    if length < 1:
        raise ValueError("path length must be at least 1")
    return _grow(_path_sizes(length), 10_000_000)


def _regular_sizes(d: int, depth: int) -> Iterator[int]:
    return (d * (d - 1) ** (n - 1) if n else 1 for n in _levels(depth))


def build_regular(d: int, depth: int) -> Tree:
    """The d-regular tree: the root has d children and every other internal
    vertex has d-1, so all non-root vertices have d neighbors."""
    if d < 2:
        raise ValueError("regular tree needs d >= 2")
    return _grow(_regular_sizes(d, depth), _MAX_VERTICES)


def _dyadic_floor(b: float, n: int) -> int:
    # floor(b * log2 n), nudged so that products landing exactly on an
    # integer are not pulled down by float rounding.
    return math.floor(b * math.log2(n) + 1e-9)


def _polynomial_sizes(b: float, depth: int) -> Iterator[int]:
    if b <= 0:
        raise ValueError("polynomial growth exponent must be positive")
    return (1 << _dyadic_floor(b, n) if n else 1 for n in _levels(depth))


def polynomial_level_sizes(b: float, depth: int) -> list[int]:
    """Level sizes s(n) = 2**floor(b*log2 n), the dyadic staircase tracking
    n**b: n**b/2 < s(n) <= n**b for every n >= 1 (the upper end up to a
    factor 2**1e-9, from the rounding nudge in _dyadic_floor)."""
    return list(_polynomial_sizes(b, depth))


def build_polynomial(b: float, depth: int) -> Tree:
    """Spherically symmetric tree whose level n holds exactly
    2**floor(b*log2 n) vertices. Each vertex of a level has the ratio of
    consecutive level sizes as children: a power of two, above 2 for b > 1
    where the dyadic staircase jumps more than one step at once."""
    return _grow(_polynomial_sizes(b, depth), _MAX_VERTICES)


def build_from_edge_list(edges: Sequence[tuple[int, int]]) -> Tree:
    """Build a tree from (parent, child) pairs with arbitrary integer labels.

    Validates that the edges form one tree: a single root, no vertex with two
    parents, no cycles, everything reachable. Vertices are relabeled in
    breadth-first order (children sorted by their original label).
    """
    if not edges:
        raise ValueError("empty edge list")
    kids: dict[int, list[int]] = {}
    par: dict[int, int] = {}
    for p, c in edges:
        if c in par:
            raise ValueError(f"vertex {c} has two parents; not a tree")
        par[c] = p
        kids.setdefault(p, []).append(c)
    roots = kids.keys() - par.keys()
    if len(roots) != 1:
        raise ValueError(f"expected one root, found {len(roots)}")

    # the label of new id i is order[i]; the loop reads order as it grows
    order = [roots.pop()]
    parent = [-1]
    for i, v in enumerate(order):
        for c in sorted(kids.get(v, ())):
            order.append(c)
            parent.append(i)
    if len(order) != len(par) + 1:
        raise ValueError("edge list is disconnected or contains a cycle")
    return Tree(parent)


# ---------------------------------------------------------------------------
# cutsets


def _cut_dp(tree: Tree, w: np.ndarray, depth: int) -> tuple[float | list[float], np.ndarray]:
    """Bottom-up, level by level: F[v] = w[v] at `depth`, 0 at a dead end
    above it, else min(w[v], sum of F over the children). F[v] is both the
    least cut below v and, with capacities w, the most flow through v.

    w is an array of weights by vertex id, at least through `depth`: 1-D,
    or 2-D with one weighting per row, all solved in one pass. The child
    sums are sequential (Tree.child_sums), and a chain of levels (Tree.level_runs)
    is one running minimum with the scalar step's ties, so F is what a
    scalar loop over the ids gives, on any interpreter. Returns (sum of F over the root's
    children, F): a float and a 1-D F, or a list with one float per row and
    a 2-D F. F stops at the cut level (ids below starts[depth + 1])."""
    starts = tree.levels.starts
    w = np.asarray(w, dtype=np.float64)
    F = np.zeros(w.shape[:-1] + (starts[depth + 1],))
    F[..., starts[depth]:starts[depth + 1]] = w[..., starts[depth]:starts[depth + 1]]
    kids = tree.levels.kids
    for d, e, chain in tree.level_runs(depth - 1, 0, -1):
        a, b = starts[e + 1], starts[d + 1]  # the levels e + 1 .. d
        wl = w[..., a:b]
        if chain:
            # below a vertex is 0.0 + F of its only child, so down a chain
            # F is a running minimum that passes over a NaN weight and keeps
            # a NaN from below; a zero F is the weight if that is zero (and
            # keeps its sign), else +0.0
            width = starts[d + 2] - b
            rows = wl.reshape(w.shape[:-1] + (d - e, width))[..., ::-1, :]
            run = np.concatenate((F[..., None, b:b + width],
                                  np.where(np.isnan(rows), np.inf, rows)), axis=-2)
            run = np.minimum.accumulate(run, axis=-2)[..., 1:, :]
            run = np.where(run == 0.0, np.where(rows == 0.0, rows, 0.0), run)
            F[..., a:b] = run[..., ::-1, :].reshape(wl.shape)
        else:
            below = tree.child_sums(F[..., b:starts[d + 2]], d)
            # a dead end short of the cut depth has nothing to separate
            F[..., a:b] = np.where(kids[a:b] > 0, np.where(wl <= below, wl, below), 0.0)
    return tree.child_sums(F[..., 1:starts[2]], 0)[..., 0].tolist(), F


def min_cutset_sum(tree: Tree, weights: np.ndarray) -> float | list[float]:
    """Minimum total weight of a cutset separating the root from the
    truncation boundary. weights[e] is the positive weight of edge e (named
    by its child id) in an array by vertex id; a 2-D one gives one minimum
    per row, as a list. Dead-end branches that stop short of the boundary
    need no cut."""
    return _cut_dp(tree, weights, tree.truncation_depth)[0]


def min_level_cutset_sum(level_sizes: Sequence[int],
                         weight_by_depth: Callable[[int], float]) -> float:
    """Minimum of _level_product(s(m), w(m)) over levels m >= 1. Equals
    min_cutset_sum on a spherically symmetric tree with level weights.

    Why full levels suffice: weights are level-constant and the subtree below
    any vertex of level m is a copy of every other, so replacing the cheapest
    mixed cutset's deepest fragment by the corresponding full level never
    increases the total.
    """
    L = len(level_sizes) - 1
    if L < 1:
        raise ValueError("need at least one level below the root")
    return min(_level_product(level_sizes[m], weight_by_depth(m)) for m in range(1, L + 1))


def _level_product(n: int, w: float) -> float:
    """n * w; where n has no float, the exact product rounded once, or
    +-inf beyond the float range."""
    try:
        return n * w
    except OverflowError:
        try:
            return float(n * Fraction(w))
        except OverflowError:
            return math.copysign(math.inf, w)


# ---------------------------------------------------------------------------
# canonical families and the growth-index estimate


@dataclass(frozen=True)
class TreeFamily:
    """A tree family indexed by truncation depth.

    Every family is spherically symmetric: level_sizes(L) lists the level
    sizes of build(L), which lets the cutset analysis run without
    materializing the tree. Depths nest: level_sizes(L) is the first L + 1
    entries of level_sizes(L + k), and build(L) the breadth-first prefix of
    build(L + k) through depth L. br_index is the family's exact branching-ruin
    number (math.inf for exponentially growing families). The families
    below keep the last tree they built and return it again for the same
    depth, so repeated experiments on one family share one tree and the
    tables it caches.
    """

    name: str
    build: Callable[[int], Tree]
    level_sizes: Callable[[int], list[int]]
    br_index: float


def path_family() -> TreeFamily:
    return TreeFamily(name="path", build=lru_cache(maxsize=1)(build_path),
                      level_sizes=lambda L: list(_path_sizes(L)), br_index=0.0)


def regular_family(d: int) -> TreeFamily:
    return TreeFamily(name=f"regular-{d}",
                      build=lru_cache(maxsize=1)(lambda L: build_regular(d, L)),
                      level_sizes=lambda L: list(_regular_sizes(d, L)),
                      br_index=math.inf if d >= 3 else 0.0)


def polynomial_family(b: float) -> TreeFamily:
    return TreeFamily(name=f"poly-{b:g}",
                      build=lru_cache(maxsize=1)(lambda L: build_polynomial(b, L)),
                      level_sizes=lambda L: polynomial_level_sizes(b, L), br_index=float(b))


@dataclass
class BranchingTable:
    """Grid of min cutset sums with weights depth**-gamma, plus the reading
    of it: the largest gamma whose value at the deepest truncation still
    clears the threshold."""

    gammas: list[float]
    depths: list[int]
    values: dict[tuple[float, int], float]
    threshold: float

    @property
    def estimate(self) -> float | None:
        """None when no gamma clears the threshold."""
        deepest = self.depths[-1]
        return max((g for g in self.gammas if self.values[(g, deepest)] >= self.threshold),
                   default=None)

    def rows(self) -> list[tuple[float, int, float]]:
        return [(g, L, self.values[(g, L)]) for g in self.gammas for L in self.depths]


# a cutset table's default gamma grid (0.1, 0.2, ..., 3.0) and threshold
DEFAULT_GAMMAS = tuple(round(0.1 * g, 10) for g in range(1, 31))
DEFAULT_THRESHOLD = 0.1


def default_depths(L: int) -> list[int]:
    """The default probe depths of a cutset table on a depth-L tree: 8, 16,
    32, ... up to L, else [L]."""
    return [1 << k for k in range(3, L.bit_length())] or [L]


def branching_ruin_estimate(family: TreeFamily, gamma_grid: Sequence[float],
                            depths: Sequence[int],
                            threshold: float = DEFAULT_THRESHOLD) -> BranchingTable:
    """Estimate the branching-ruin number of a family from min cutset sums
    with weights |e|**-gamma across a grid of gammas and truncation depths.
    The level sizes are read once, for the deepest depth (see TreeFamily).

    Below the true index the sums stay bounded away from zero as the depth
    grows; above it they decay to zero. The estimate reported is the largest
    grid gamma whose value at the deepest truncation is still >= threshold
    (None if no gamma qualifies). Finite depth biases the estimate upward, so
    treat it as an upper bracket; families built by this module carry their
    exact index in TreeFamily.br_index.
    """
    gammas = sorted(gamma_grid)
    depths = sorted(depths)
    if not gammas or not depths:
        raise ValueError("gamma grid and depth list must be nonempty")
    values: dict[tuple[float, int], float] = {}
    deepest = family.level_sizes(depths[-1])
    for L in depths:
        sizes = deepest[:L + 1]
        for g in gammas:
            values[(g, L)] = min_level_cutset_sum(sizes, lambda m, g=g: m ** -g)
    return BranchingTable(gammas, depths, values, threshold)


# ---------------------------------------------------------------------------
# file format


def write_tree_file(tree: Tree, path: str) -> None:
    """Write the tree as '# goerw-tree v1 depth=<L>' followed by one
    'parent child' line per edge in breadth-first order."""
    lines = [f"# goerw-tree v1 depth={tree.truncation_depth}"]
    lines += (f"{p} {v}" for v, p in enumerate(islice(tree.parent, 1, None), 1))
    _atomic_write(path, "\n".join(lines) + "\n")


def read_tree_file(path: str) -> Tree:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        prefix = "# goerw-tree v1 depth="
        if not header.startswith(prefix):
            raise ValueError(f"{path}: not a goerw-tree v1 file")
        declared = int(header[len(prefix):])
        edges = []
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            p, c = line.split()
            edges.append((int(p), int(c)))
    tree = build_from_edge_list(edges)
    if tree.truncation_depth != declared:
        raise ValueError(
            f"{path}: header says depth {declared} but edges reach "
            f"{tree.truncation_depth}"
        )
    return tree


def _atomic_write(path: str, text: str) -> None:
    """Write via a temp file and rename, so failed runs leave nothing behind."""
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
