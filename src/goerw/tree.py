"""Rooted trees with a finite truncation depth, plus the cutset machinery
used to measure how fast a tree grows.

Trees are stored flat. Vertex ids are assigned in breadth-first order with
the root at 0, and each vertex knows its parent, its children and its depth.
An edge is identified by its child endpoint throughout the package: "edge e"
means the edge between vertex e and its parent, and the depth |e| of the edge
equals the depth of that child vertex.

A cutset is a set of edges meeting every path from the root to the truncation
boundary (the vertices at maximal depth). The minimum-weight cutset is found
by the usual downward dynamic program: for each edge, either cut it or recurse
into all edges below it. On spherically symmetric trees with level-constant
weights the optimum is always a full level, which gives a closed form that
scales to trees far too large to materialize; that shortcut is what makes the
growth-index estimates workable at large depth.
"""

from __future__ import annotations

import math
import os
import tempfile
from dataclasses import dataclass, field
from itertools import product as _iproduct
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "Tree",
    "TreeFamily",
    "build_path",
    "build_regular",
    "build_polynomial",
    "build_from_edge_list",
    "polynomial_level_sizes",
    "min_cutset_sum",
    "min_level_cutset_sum",
    "enumerate_cutsets",
    "branching_ruin_estimate",
    "BranchingTable",
    "path_family",
    "regular_family",
    "polynomial_family",
    "write_tree_file",
    "read_tree_file",
]


@dataclass
class Tree:
    """A rooted tree truncated at a fixed depth.

    parent[v] is the id of v's parent (-1 for the root), children[v] the list
    of v's children in id order, depth[v] the distance from the root.
    degrees holds every vertex's neighbor count as one read-only int64
    array, built on first use.
    """

    parent: list[int]
    children: list[list[int]]
    depth: list[int]
    truncation_depth: int
    _levels: list[list[int]] | None = field(default=None, repr=False, compare=False)
    _degrees: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def n_vertices(self) -> int:
        return len(self.parent)

    @property
    def n_edges(self) -> int:
        return len(self.parent) - 1

    @property
    def degrees(self) -> np.ndarray:
        """Neighbor counts by vertex id: child count + 1, and at the root,
        which has no parent, just its child count."""
        if self._degrees is None:
            deg = np.fromiter(map(len, self.children), dtype=np.int64,
                              count=len(self.children)) + 1
            deg[0] -= 1
            deg.flags.writeable = False
            self._degrees = deg
        return self._degrees

    def deg(self, v: int) -> int:
        """Neighbor count of one vertex, read from degrees."""
        return int(self.degrees[v])

    def root_path(self, v: int) -> list[int]:
        """Vertices from the root down to v, inclusive."""
        out = []
        while v != -1:
            out.append(v)
            v = self.parent[v]
        out.reverse()
        return out

    def vertices_at_depth(self, d: int) -> list[int]:
        if not 0 <= d <= self.truncation_depth:
            raise ValueError(f"tree has no vertices at depth {d}")
        if self._levels is None:
            levels: list[list[int]] = [[] for _ in range(self.truncation_depth + 1)]
            for v, dv in enumerate(self.depth):
                levels[dv].append(v)
            self._levels = levels
        return self._levels[d]

    def leftmost_at_depth(self, d: int) -> int:
        """Smallest vertex id at depth d. Breadth-first ids make this the
        leftmost vertex of the level."""
        verts = self.vertices_at_depth(d)
        if not verts:
            raise ValueError(f"tree has no vertices at depth {d}")
        return verts[0]

    def level_sizes(self) -> list[int]:
        return [len(self.vertices_at_depth(d)) for d in range(self.truncation_depth + 1)]


def _grow(child_counts: Iterable[int] | Callable[[int, int], int], depth: int,
          max_vertices: int) -> Tree:
    """Generic breadth-first builder. child_counts(level, index_in_level)
    gives the number of children of each vertex on that level."""
    parent = [-1]
    children: list[list[int]] = [[]]
    depths = [0]
    prev = [0]
    for n in range(depth):
        nxt = []
        for i, p in enumerate(prev):
            k = child_counts(n, i) if callable(child_counts) else child_counts[n]
            for _ in range(k):
                vid = len(parent)
                parent.append(p)
                children.append([])
                depths.append(n + 1)
                children[p].append(vid)
                nxt.append(vid)
        if len(parent) > max_vertices:
            raise ValueError(
                f"tree exceeds {max_vertices} vertices by depth {n + 1}; "
                "use the level-size shortcut instead of materializing it"
            )
        prev = nxt
    return Tree(parent, children, depths, depth)


def build_path(length: int) -> Tree:
    """A single path of the given length hanging off the root."""
    if length < 1:
        raise ValueError("path length must be at least 1")
    return _grow([1] * length, length, max_vertices=10_000_000)


def build_regular(d: int, depth: int, max_vertices: int = 2_000_000) -> Tree:
    """The d-regular tree: the root has d children and every other internal
    vertex has d-1, so all non-root vertices have d neighbors."""
    if d < 2:
        raise ValueError("regular tree needs d >= 2")
    counts = [d] + [d - 1] * (depth - 1)
    return _grow(counts, depth, max_vertices)


def _dyadic_floor(b: float, n: int) -> int:
    # floor(b * log2 n), nudged so that products landing exactly on an
    # integer are not pulled down by float rounding.
    return math.floor(b * math.log2(n) + 1e-9)


def polynomial_level_sizes(b: float, depth: int) -> list[int]:
    """Level sizes s(n) = 2**floor(b*log2 n), the dyadic staircase tracking
    n**b: n**b/2 < s(n) <= n**b for every n >= 1 (the upper end up to a
    factor 2**1e-9, from the rounding nudge in _dyadic_floor)."""
    if b <= 0:
        raise ValueError("polynomial growth exponent must be positive")
    return [1] + [1 << _dyadic_floor(b, n) for n in range(1, depth + 1)]


def build_polynomial(b: float, depth: int, max_vertices: int = 2_000_000) -> Tree:
    """Spherically symmetric tree whose level n holds exactly
    2**floor(b*log2 n) vertices.

    Every vertex on level n gets the same number of children, the ratio of
    consecutive level sizes (a power of two; it can exceed 2 for b > 1 where
    the dyadic staircase jumps more than one step at once).
    """
    sizes = polynomial_level_sizes(b, depth)
    if sum(sizes) > max_vertices:
        raise ValueError(
            f"polynomial tree b={b} depth={depth} has {sum(sizes)} vertices, "
            f"over the {max_vertices} cap; use polynomial_family for analysis"
        )
    counts = [sizes[n + 1] // sizes[n] for n in range(depth)]
    return _grow(counts, depth, max_vertices)


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
    verts: set[int] = set()
    for p, c in edges:
        verts.add(p)
        verts.add(c)
        if c in par:
            raise ValueError(f"vertex {c} has two parents; not a tree")
        par[c] = p
        kids.setdefault(p, []).append(c)
    roots = verts - par.keys()
    if len(roots) != 1:
        raise ValueError(f"expected one root, found {len(roots)}")
    root = roots.pop()

    order = [root]
    new_id = {root: 0}
    parent = [-1]
    children: list[list[int]] = [[]]
    depths = [0]
    head = 0
    while head < len(order):
        v = order[head]
        head += 1
        for c in sorted(kids.get(v, ())):
            new_id[c] = len(order)
            order.append(c)
            parent.append(new_id[v])
            children.append([])
            depths.append(depths[new_id[v]] + 1)
            children[new_id[v]].append(new_id[c])
    if len(order) != len(verts):
        raise ValueError("edge list is disconnected or contains a cycle")
    return Tree(parent, children, depths, max(depths))


# ---------------------------------------------------------------------------
# cutsets


def _weight_fn(tree: Tree, weights) -> Callable[[int], float]:
    if callable(weights):
        return weights
    if isinstance(weights, Mapping):
        return weights.__getitem__
    raise TypeError("weights must be a mapping edge->weight or a callable")


def _cut_dp(tree: Tree, w: Callable[[int], float],
            depth: int) -> tuple[float, list[float], bytearray]:
    """Bottom-up over BFS ids: F[v] = w(v) at `depth`, 0 at a dead end above
    it, else min(w(v), sum of F over the children) with ties to w(v), marked
    in cut_here. F[v] is both the least cut below v and, with capacities w,
    the most flow through v. Returns (sum of F over the root's children, F,
    cut_here)."""
    n = tree.n_vertices
    F = [0.0] * n
    cut_here = bytearray(n)
    tree_depth = tree.depth
    children = tree.children
    for v in range(n - 1, 0, -1):
        d = tree_depth[v]
        if d >= depth:
            if d == depth:
                F[v] = w(v)
                cut_here[v] = 1
            continue
        kids = children[v]
        if not kids:
            continue  # dead end short of the cut depth: nothing to separate
        below = 0.0
        for c in kids:
            below += F[c]
        wv = w(v)
        if wv <= below:
            F[v] = wv
            cut_here[v] = 1
        else:
            F[v] = below
    value = 0.0
    for c in children[0]:
        value += F[c]
    return value, F, cut_here


def min_cutset_sum(tree: Tree, weights) -> tuple[float, frozenset[int]]:
    """Minimum total weight of a cutset separating the root from the
    truncation boundary, and one optimal cutset (edges named by child id).

    weights maps each edge (child id) to a positive weight, either as a
    mapping or a callable. Ties between cutting an edge and cutting below it
    go to the edge itself, so the reported cutset is the shallowest optimum.
    Dead-end branches that stop short of the boundary need no cut.
    """
    value, _, cut_here = _cut_dp(tree, _weight_fn(tree, weights),
                                 tree.truncation_depth)
    cut = []
    stack = list(tree.children[0])
    while stack:
        v = stack.pop()
        if cut_here[v]:
            cut.append(v)
        else:
            stack.extend(tree.children[v])
    return value, frozenset(cut)


def enumerate_cutsets(tree: Tree) -> list[frozenset[int]]:
    """All minimal cutsets, by brute force. Guarded to 20 edges; this exists
    as an oracle for the dynamic program, not for real use."""
    if tree.n_edges > 20:
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


def min_level_cutset_sum(level_sizes: Sequence[int],
                         weight_by_depth: Callable[[int], float]) -> tuple[float, int]:
    """Minimum of s(m) * w(m) over levels m >= 1, with ties going to the
    shallower level. Equals min_cutset_sum on a spherically symmetric tree
    whose edge weights depend only on depth.

    Why full levels suffice: weights are level-constant and the subtree below
    any vertex of level m is a copy of every other, so replacing the cheapest
    mixed cutset's deepest fragment by the corresponding full level never
    increases the total.
    """
    L = len(level_sizes) - 1
    if L < 1:
        raise ValueError("need at least one level below the root")
    best = math.inf
    best_m = 1
    for m in range(1, L + 1):
        val = level_sizes[m] * weight_by_depth(m)
        if val < best:
            best = val
            best_m = m
    return best, best_m


# ---------------------------------------------------------------------------
# canonical families and the growth-index estimate


@dataclass(frozen=True)
class TreeFamily:
    """A tree family indexed by truncation depth.

    level_sizes(L) is available for spherically symmetric families and lets
    the cutset analysis run without materializing the tree. br_index is the
    family's exact branching-ruin number where known (math.inf for
    exponentially growing families).
    """

    name: str
    build: Callable[[int], Tree]
    level_sizes: Callable[[int], list[int]] | None = None
    br_index: float | None = None


def path_family() -> TreeFamily:
    return TreeFamily(
        name="path",
        build=build_path,
        level_sizes=lambda L: [1] * (L + 1),
        br_index=0.0,
    )


def regular_family(d: int) -> TreeFamily:
    def sizes(L: int) -> list[int]:
        out = [1]
        for n in range(1, L + 1):
            out.append(d if n == 1 else out[-1] * (d - 1))
        return out

    return TreeFamily(
        name=f"regular-{d}",
        build=lambda L: build_regular(d, L),
        level_sizes=sizes,
        br_index=math.inf if d >= 3 else 0.0,
    )


def polynomial_family(b: float) -> TreeFamily:
    return TreeFamily(
        name=f"poly-{b:g}",
        build=lambda L: build_polynomial(b, L),
        level_sizes=lambda L: polynomial_level_sizes(b, L),
        br_index=float(b),
    )


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


def branching_ruin_estimate(family: TreeFamily, gamma_grid: Sequence[float],
                            depths: Sequence[int], threshold: float = 0.1) -> BranchingTable:
    """Estimate the branching-ruin number of a family from min cutset sums
    with weights |e|**-gamma across a grid of gammas and truncation depths.

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
    for L in depths:
        if family.level_sizes is not None:
            sizes = family.level_sizes(L)
            for g in gammas:
                values[(g, L)], _ = min_level_cutset_sum(sizes, lambda m, g=g: m ** -g)
        else:
            tree = family.build(L)
            for g in gammas:
                values[(g, L)], _ = min_cutset_sum(tree, lambda e, g=g: tree.depth[e] ** -g)
    return BranchingTable(gammas, depths, values, threshold)


# ---------------------------------------------------------------------------
# file format


def write_tree_file(tree: Tree, path: str) -> None:
    """Write the tree as '# goerw-tree v1 depth=<L>' followed by one
    'parent child' line per edge in breadth-first order."""
    lines = [f"# goerw-tree v1 depth={tree.truncation_depth}"]
    for v in range(1, tree.n_vertices):
        lines.append(f"{tree.parent[v]} {v}")
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
