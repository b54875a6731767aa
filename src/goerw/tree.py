"""Rooted trees with a finite truncation depth, plus the cutset machinery
used to measure how fast a tree grows.

A tree is stored as one flat parent list over vertex ids assigned in
breadth-first order with the root at 0; child ranges and depths are read
from it. An edge is identified by its child endpoint throughout the
package: "edge e" means the edge between vertex e and its parent, and the
depth |e| of the edge equals the depth of that child vertex.

A cutset is a set of edges meeting every path from the root to the truncation
boundary (the vertices at maximal depth). The least total weight of a cutset
is found by the usual downward dynamic program: for each edge, either cut it
or recurse into all edges below it. On spherically symmetric trees with
level-constant weights the optimum is always a full level, so the
branching-ruin table reads a stream of level sizes, keeps none and builds no
tree; that shortcut makes the growth-index estimates workable at large depth.
"""

from __future__ import annotations

import math
import operator
import os
import tempfile
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import groupby, islice, pairwise, repeat
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import InputError

__all__ = [
    "Levels",
    "Tree",
    "TreeFamily",
    "build_path",
    "build_regular",
    "build_polynomial",
    "build_from_edge_list",
    "min_cutset_sum",
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
    level is empty); vertex v has kids[v] children, the ids first[v] to
    first[v + 1] - 1 (first is read-only, first[0] == 1, first[n] == n).
    parent[0] is -1. single[d] says every vertex of level d has one child."""

    parent: np.ndarray
    starts: list[int]
    kids: np.ndarray
    first: np.ndarray
    single: list[bool]


def _scan(op: np.ufunc, run: np.ndarray) -> None:
    """run[..., k, :] = op(run[..., k - 1, :], run[..., k, :]) for k = 1, 2, ...,
    in place, down a chain's columns: one op call a level where levels hold 256
    entries or more, else one accumulate (numpy 2.4 on a Xeon: 5 ns an entry, 1.5 us a call)."""
    if run[..., 0, :].size < 256:
        op.accumulate(run, axis=-2, out=run)
    else:
        for k in range(1, run.shape[-2]):
            op(run[..., k - 1, :], run[..., k, :], out=run[..., k, :])


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass
class Tree:
    """A rooted tree truncated at a fixed depth, held as its parent list:
    parent[v] is the id of v's parent, -1 for the root. Ids are
    breadth-first (parent[0] == -1 <= 0 == parent[1] <= parent[2] <= ...,
    each parent[v] < v; the constructor refuses any other list), so every
    level and every vertex's children are consecutive ids, in order: the
    kernels read v's children as range(first[v], first[v + 1]) (Levels),
    and whole-tree passes run level by level on arrays (level_runs,
    child_sums, scan_down). Read from parent on first use: depth[v],
    truncation_depth, levels, float_degrees (neighbor counts, read-only
    float64), ones (a read-only 1.0 per vertex, the mu every alpha
    environment on the tree shares), only_child (v's only child, 0 where it
    has none or several) and parent_step (1/deg, 0 at the root, a tuple).
    chain(head) keeps each head's leftmost chain once asked for it.
    Equal parent lists make equal trees."""

    parent: list[int]

    def __post_init__(self) -> None:
        # parent[:2] == [-1, 0], parent nondecreasing, each parent[v] < v
        parent = self.parent
        if not (parent[:2] in ([-1], [-1, 0])
                and all(map(operator.le, parent, islice(parent, 1, None)))
                and all(map(operator.lt, parent, range(len(parent))))):
            raise ValueError("vertex ids are not in breadth-first order")
        self._chains: dict[int, tuple[list[int], list[int]]] = {}  # chain(head) by head

    @property
    def n_vertices(self) -> int:
        return len(self.parent)

    @cached_property
    def children(self) -> list[list[int]]:
        """Each vertex's child ids as a list, built from levels.first; only
        the benchmark's flow-conservation check and the tests read it."""
        return [list(range(a, b)) for a, b in pairwise(memoryview(self.levels.first))]

    @cached_property
    def depth(self) -> list[int]:
        starts = self.levels.starts
        return np.repeat(np.arange(len(starts) - 2), np.diff(starts[:-1])).tolist()

    @cached_property
    def truncation_depth(self) -> int:
        return len(self.levels.starts) - 3

    @cached_property
    def float_degrees(self) -> np.ndarray:
        """Child count + 1, and at the root, which has no parent, the child count."""
        deg = self.levels.kids + 1.0
        deg[0] -= 1.0
        return _frozen(deg)

    @cached_property
    def ones(self) -> np.ndarray:
        return _frozen(np.ones(self.n_vertices))

    @cached_property
    def only_child(self) -> list[int]:
        """The only child of each vertex, or 0 (never a child) where it has
        none or several: the direct walk's down-step from a single-child
        vertex is one list read."""
        return np.where(self.levels.kids == 1, self.levels.first[:-1], 0).tolist()

    @cached_property
    def parent_step(self) -> tuple[float, ...]:
        """1/deg of each vertex, 0 at the root: simple random walk's parent
        step, shared as the later-visit one by every mu == 1 direct walk."""
        return (0.0, *(1.0 / self.float_degrees[1:]).tolist())

    @cached_property
    def levels(self) -> Levels:
        """The level and child ranges of the ids, built on first use."""
        # level d + 1 ends at the first id whose parent is past level d
        starts = [0, 1]
        while starts[-1] > starts[-2]:
            starts.append(bisect_left(self.parent, starts[-1], starts[-1]))
        parent = np.array(self.parent, dtype=np.int64)
        kids = np.bincount(parent[1:], minlength=len(parent))
        first = np.concatenate(([1], 1 + np.cumsum(kids)))
        width = np.diff(starts)
        # per level, how many of its vertices have one child
        ones = np.diff(np.concatenate(([0], np.cumsum(kids == 1)))[starts])
        single = (ones == width) & (width > 0)
        return Levels(parent, starts, kids, _frozen(first), single.tolist())

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
        the interpreter's summation. Row r of X adds into stretch r of one
        bincount; a 1-D X's index is its parents' places on level d alone."""
        lv = self.levels
        a, b = lv.starts[d], lv.starts[d + 1]
        rows = math.prod(X.shape[:-1])
        at = lv.parent[b:lv.starts[d + 2]] - a
        at = (np.arange(rows)[:, None] * (b - a) + at).ravel() if X.ndim > 1 else at
        sums = np.bincount(at, weights=X.ravel(), minlength=rows * (b - a))
        # with no children at all, bincount gives integer zeros
        return sums.reshape(X.shape[:-1] + (b - a,)).astype(np.float64, copy=False)

    def scan_down(self, op: np.ufunc, X: np.ndarray, y: np.ndarray, start: int) -> None:
        """Set X[u] = op(X[parent of u], y[u]) for every u at depth >= start,
        parents first: the scalar recursion down each root path, one level
        at a time, and a chain of levels (see level_runs) by _scan down its
        columns in X (1-D, contiguous), the same operations in order."""
        starts = self.levels.starts
        for d, e, chain in self.level_runs(start - 1, self.truncation_depth, 1):
            a, b = starts[d + 1], starts[e + 1]  # the levels d + 1 .. e
            if chain:
                X[a:b] = y[a:b]
                _scan(op, X[starts[d]:b].reshape(-1, a - starts[d]))
            else:
                op(X[self.levels.parent[a:b]], y[a:b], out=X[a:b])

    def root_path(self, v: int) -> list[int]:
        """Vertices from the root down to v, inclusive."""
        out = []
        while v != -1:
            out.append(v)
            v = self.parent[v]
        out.reverse()
        return out

    def leftmost_at_depth(self, d: int) -> int:
        """The first (leftmost) id at depth d; a d outside 0..L is a bug."""
        if not 0 <= d <= self.truncation_depth:
            raise ValueError(f"tree has no vertices at depth {d}")
        return self.levels.starts[d]

    def chain(self, head: int) -> tuple[list[int], list[int]]:
        """head's leftmost chain (head, its first child, that one's first
        child, ... down to a vertex with no children) and the depths of the
        chain's vertices with two or more children. Kept per head on its
        first call, so only the heads asked for are ever held."""
        got = self._chains.get(head)
        if got is None:
            first, v = memoryview(self.levels.first), head
            chain = [v]
            while first[v] < first[v + 1]:
                v = first[v]
                chain.append(v)
            d = self.depth[head]
            got = self._chains[head] = (chain, [d + i for i, v in enumerate(chain)
                                                if first[v + 1] - first[v] > 1])
        return got


# vertex caps of build_regular and build_polynomial, and of build_path
_MAX_VERTICES = 2_000_000
_MAX_PATH_VERTICES = 10_000_000


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
            # a count past 100 bits is shown as a power of 2: str() refuses 4,300 digits
            shown = total if total.bit_length() <= 100 else f"at least 2**{total.bit_length() - 1}"
            raise InputError(f"tree has {shown} vertices by depth {sum(c for _, c in runs) - 1}, "
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


def _levels(depth: int, cap: int = _MAX_VERTICES) -> range:
    """Levels 0..depth; a negative depth, or one past the deepest level of a
    tree within cap vertices, is refused before any level is listed."""
    if depth < 0:
        raise InputError(f"tree depth must be at least 0, got {depth}")
    if depth >= cap:
        raise InputError(f"tree depth must be at most {cap - 1}, got {depth}: a tree has at "
                         f"least {cap + 1} vertices by depth {cap}, over the {cap} vertex cap")
    return range(depth + 1)


def _path_sizes(length: int) -> Iterator[int]:
    return repeat(1, len(_levels(length, _MAX_PATH_VERTICES)))


def build_path(length: int) -> Tree:
    """A single path of the given length hanging off the root."""
    return _grow(_path_sizes(length), _MAX_PATH_VERTICES)


# one level-size function per family kind, its parameter checked when made
def _regular_sizes(d: int) -> Callable[[int], Iterator[int]]:
    if d < 2:
        raise InputError("regular tree needs d >= 2")
    return lambda depth: (d * (d - 1) ** (n - 1) if n else 1 for n in _levels(depth))


def build_regular(d: int, depth: int) -> Tree:
    """The d-regular tree: the root has d children and every other internal
    vertex has d-1, so all non-root vertices have d neighbors."""
    return _grow(_regular_sizes(d)(depth), _MAX_VERTICES)


# largest level-size exponent of a poly tree, a 128 KiB integer: the
# level-size path (the tables) has no vertex cap to stop a larger one
_MAX_LEVEL_BITS = 1 << 20


def _dyadic_floor(b: float, n: int) -> int:
    # floor(b * log2 n), nudged so that products landing exactly on an
    # integer are not pulled down by float rounding; refused past the bound
    # before any 1 << k
    k = b * math.log2(n) + 1e-9
    if k > _MAX_LEVEL_BITS:
        raise InputError(f"polynomial growth exponent b={b!r} gives about 2**{k:.6g} vertices at "
                         f"depth {n}, past the 2**{_MAX_LEVEL_BITS} level-size bound")
    return math.floor(k)


def _polynomial_sizes(b: float) -> Callable[[int], Iterator[int]]:
    """Level sizes s(n) = 2**floor(b*log2 n), the dyadic staircase tracking
    n**b: n**b/2 < s(n) <= n**b for every n >= 1 (the upper end up to a
    factor 2**1e-9, from the rounding nudge in _dyadic_floor)."""
    if not 0 < b < math.inf:  # NaN fails both
        raise InputError(f"polynomial growth exponent b must be positive and finite, got {b!r}")
    return lambda depth: (1 << _dyadic_floor(b, n) if n else 1 for n in _levels(depth))


def build_polynomial(b: float, depth: int) -> Tree:
    """Spherically symmetric tree whose level n holds exactly
    2**floor(b*log2 n) vertices. Each vertex of a level has the ratio of
    consecutive level sizes as children: a power of two, above 2 for b > 1
    where the dyadic staircase jumps more than one step at once."""
    return _grow(_polynomial_sizes(b)(depth), _MAX_VERTICES)


def build_from_edge_list(edges: Sequence[tuple[int, int]]) -> Tree:
    """Build a tree from (parent, child) pairs with arbitrary integer labels.

    Validates that the edges form one tree: a single root, no vertex with two
    parents, no cycles, everything reachable. Vertices are relabeled in
    breadth-first order (children sorted by their original label).
    """
    if not edges:
        raise InputError("empty edge list")
    kids: dict[int, list[int]] = {}
    par: dict[int, int] = {}
    for p, c in edges:
        if c in par:
            raise InputError(f"vertex {c} has two parents; not a tree")
        par[c] = p
        kids.setdefault(p, []).append(c)
    roots = kids.keys() - par.keys()
    if len(roots) != 1:
        raise InputError(f"expected one root, found {len(roots)}")

    # the label of new id i is order[i]; the loop reads order as it grows
    order = [roots.pop()]
    parent = [-1]
    for i, v in enumerate(order):
        for c in sorted(kids.get(v, ())):
            order.append(c)
            parent.append(i)
    if len(order) != len(par) + 1:
        raise InputError("edge list is disconnected or contains a cycle")
    return Tree(parent)


# ---------------------------------------------------------------------------
# cutsets


def _cut_depths(depths: Iterable[int], deepest: float = math.inf) -> list[int]:
    """A cutset table's probe depths, sorted; none, one below 1 or one past
    deepest is refused."""
    cuts = sorted(depths)
    if not cuts:
        raise InputError("empty depth list")
    if cuts[0] < 1:
        raise InputError(f"depth {cuts[0]} is below 1")
    if cuts[-1] > deepest:
        raise InputError(f"depth {cuts[-1]} exceeds the tree depth {deepest}")
    return cuts


def _cut_tree(build: Callable[[int], Tree], L: int, depths: Iterable[int] | None) -> Tree:
    """The one cut rule: build(D), the depth-L tree's breadth-first prefix through the
    deepest D of depths (checked against L, _cut_depths), or build(L) for None. Values read
    at depths up to D come from the levels above D (an edge's psi and Psi, a walk stopped on
    reaching D); ids are breadth first and alpha draws nest, so each is the depth-L tree's
    bit for bit, and the vertex cap and bias or overflow refusals meet only the cut tree."""
    return build(L if depths is None else _cut_depths(depths, L)[-1])


def _gammas(grid: Sequence[float]) -> list[float]:
    """A cutset table's gamma grid, sorted, for the library and --gamma-grid
    alike; an empty one, or a NaN, infinite or negative gamma, is refused."""
    for g in grid:
        if not 0 <= g < math.inf:  # NaN fails both
            raise InputError(f"gamma must be finite and at least 0, got {g!r}")
    if not grid:
        raise InputError("empty gamma grid")
    return sorted(grid)


def _cut_dp(tree: Tree, w: np.ndarray, cuts: Sequence[int]) -> tuple[list, np.ndarray]:
    """Bottom-up, level by level: F[v] = w[v] at the cut depth, 0 at a dead
    end above it, else min(w[v], sum of F over the children). F[v] is both
    the least cut below v and, with capacities w, the most flow through v.

    cuts is a sorted list of cut depths (see _cut_depths; repeats allowed),
    all cut in one upward pass from the deepest: F has one block per listed
    depth L, set to w at level L and updated above it, so level d is solved
    at once for every block cut below d, and a block's levels below its
    cut are never read or written (they stay 0.0).

    w is an array of weights by vertex id, at least through the deepest
    cut: 1-D, or 2-D with one weighting per row, all solved in one pass.
    The child sums are sequential (Tree.child_sums), and a chain of levels
    (Tree.level_runs) is one running minimum (_scan) with the scalar step's
    ties, so each block is what a scalar loop over the ids gives at its
    depth, on any interpreter. A repair runs only where it can change F: a
    chain's NaN weights become +inf, and its zero F take their signs, where
    it holds one; a level's dead ends get F = 0 where it holds one. Returns
    (values, F): values holds, per block, the sum of F over the root's
    children (a float for 1-D w, a list with one float per row for 2-D w),
    and F has a leading block axis and stops at the deepest cut level (ids
    below starts[cuts[-1] + 1])."""
    starts = tree.levels.starts
    w = np.asarray(w, dtype=np.float64)
    F = np.zeros((len(cuts),) + w.shape[:-1] + (starts[cuts[-1] + 1],))
    for block, L in zip(F, cuts):
        block[..., starts[L]:starts[L + 1]] = w[..., starts[L]:starts[L + 1]]
    # deepest first: the levels hi - 1 .. lo (.. 1 below the shallowest
    # cut), for the blocks F[i:], those cut at hi or deeper
    for i in reversed(range(len(cuts))):
        lo, hi, G = cuts[i - 1] if i else 0, cuts[i], F[i:]
        for d, e, chain in tree.level_runs(hi - 1, max(lo, 1) - 1, -1):
            a, b = starts[e + 1], starts[d + 1]  # the levels e + 1 .. d
            wl = w[..., a:b]
            if chain:
                # F below a vertex is 0.0 + its only child's, so up a chain F is
                # a running minimum from F below over the weights (NaN weights as
                # +inf, a NaN from below kept); a zero F is w if w is 0, else +0.0
                width, run = starts[d + 2] - b, G[..., a:b]
                run[...] = np.where(np.isnan(wl), np.inf, wl) if np.isnan(wl).any() else wl
                _scan(np.minimum, G[..., a:b + width].reshape(
                    G.shape[:-1] + (d - e + 1, width))[..., ::-1, :])
                if not run.all():
                    np.copyto(run, np.where(wl == 0.0, wl, 0.0), where=run == 0.0)
            else:
                below = tree.child_sums(G[..., b:starts[d + 2]], d)
                G[..., a:b] = np.where(wl <= below, wl, below)
                if not tree.levels.kids[a:b].all():  # dead ends above a cut separate nothing
                    G[..., a:b][..., tree.levels.kids[a:b] == 0] = 0.0
    return tree.child_sums(F[..., 1:starts[2]], 0)[..., 0].tolist(), F


def min_cutset_sum(tree: Tree, weights: np.ndarray) -> float | list[float]:
    """Minimum total weight of a cutset separating the root from the
    truncation boundary. weights[e] is the positive weight of edge e (named
    by its child id) in an array by vertex id; a 2-D one gives one minimum
    per row, as a list. Dead-end branches that stop short of the boundary
    need no cut. This is _cut_dp's one block at the truncation depth."""
    (value,), _ = _cut_dp(tree, weights, [tree.truncation_depth])
    return value


def _level_product(n: int, w: float) -> float:
    """n * w; where n has no float, the exact n * p / q (w = p / q) in one
    int / int division, rounded once, or +-inf beyond the float range."""
    try:
        return n * w
    except OverflowError:
        try:
            p, q = w.as_integer_ratio()
            return (n * p) / q
        except OverflowError:
            return math.copysign(math.inf, w)


# ---------------------------------------------------------------------------
# canonical families and the growth-index estimate


@dataclass(frozen=True)
class TreeFamily:
    """A tree family indexed by truncation depth.

    Every family is spherically symmetric: level_sizes(L) yields the level
    sizes of build(L), root first, which lets the cutset analysis run
    without materializing the tree. Depths nest: level_sizes(L) yields the
    first L + 1 sizes of level_sizes(L + k), and build(L) is the
    breadth-first prefix of build(L + k) through depth L. br_index is the
    family's exact branching-ruin number (math.inf for exponentially growing
    families), and vertex_cap build's vertex cap, which also bounds the
    depth level_sizes takes: a depth past it is refused at the call, before
    any size is yielded (see _levels). The families below keep the last tree
    they built and return it again for the same depth, so repeated
    experiments on one family share one tree and the tables it caches.
    """

    name: str
    build: Callable[[int], Tree]
    level_sizes: Callable[[int], Iterator[int]]
    br_index: float
    vertex_cap: int = _MAX_VERTICES


def path_family() -> TreeFamily:
    return TreeFamily(name="path", build=lru_cache(maxsize=1)(build_path),
                      level_sizes=_path_sizes, br_index=0.0,
                      vertex_cap=_MAX_PATH_VERTICES)


def regular_family(d: int) -> TreeFamily:
    """The d-regular trees; a d below 2 is refused here, before any depth."""
    return TreeFamily(name=f"regular-{d}",
                      build=lru_cache(maxsize=1)(lambda L: build_regular(d, L)),
                      level_sizes=_regular_sizes(d),
                      br_index=math.inf if d >= 3 else 0.0)


def polynomial_family(b: float) -> TreeFamily:
    """The poly-b trees; a b not positive and finite is refused here, before any depth."""
    return TreeFamily(name=f"poly-{b:g}",
                      build=lru_cache(maxsize=1)(lambda L: build_polynomial(b, L)),
                      level_sizes=_polynomial_sizes(b), br_index=float(b))


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
    A full level is a least cutset: the weights are level-constant and the
    subtree below any vertex of level m is a copy of every other, so
    replacing the cheapest mixed cutset's deepest fragment by the
    corresponding full level never increases the total. So no tree is built:
    one pass over the level sizes for the deepest depth (see TreeFamily)
    folds each level's _level_product(s(m), m**-gamma) into every gamma's
    running minimum (min(best, w) keeps best on a tie, as min over the whole
    run does), keeps no size once its level is done and reads the minima at
    each depth. A depth past the family's last level is refused after it.

    Below the true index the sums stay bounded away from zero as the depth
    grows; above it they decay to zero. The estimate reported is the largest
    grid gamma whose value at the deepest truncation is still >= threshold
    (None if no gamma qualifies). Finite depth biases the estimate upward, so
    treat it as an upper bracket; families built by this module carry their
    exact index in TreeFamily.br_index.
    """
    gammas = _gammas(gamma_grid)
    depths = _cut_depths(depths)
    reads = set(depths)
    best = [math.inf] * len(gammas)
    values: dict[tuple[float, int], float] = {}
    m = 0
    for m, s in enumerate(islice(family.level_sizes(depths[-1]), 1, None), 1):
        best = [min(b, _level_product(s, m ** -g)) for b, g in zip(best, gammas)]
        if m in reads:
            values.update(zip([(g, m) for g in gammas], best))
    _cut_depths(depths, m)
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
    """A write_tree_file text's tree; a bad header or edge line is refused by path and line."""
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        header = fh.readline().strip()
        prefix = "# goerw-tree v1 depth="
        if not header.startswith(prefix):
            raise InputError(f"{path}: not a goerw-tree v1 file")
        try:
            declared = int(header[len(prefix):])
        except ValueError:
            raise InputError(f"{path}:1: bad depth {header[len(prefix):]!r}") from None
        edges = []
        for ln, line in enumerate(fh, start=2):
            fields = line.split()
            if not fields or fields[0].startswith("#"):
                continue
            try:
                p, c = map(int, fields)
            except ValueError:  # not two fields, or not integers
                raise InputError(f"{path}:{ln}: want 'parent child', "
                                 f"got {line.strip()!r}") from None
            edges.append((p, c))
    tree = build_from_edge_list(edges) if edges else Tree([-1])
    if tree.truncation_depth != declared:
        raise InputError(
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
