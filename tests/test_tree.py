import ast
import dataclasses
import math
import random
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goerw import tree as tree_module
from goerw.analysis import flow_energy_check, tree_max_flow
from goerw.cli import main
from goerw.environment import (AlphaDistribution, assign_deterministic, environment_from_alpha,
                               rt_estimate)
from goerw.errors import InputError
from goerw.percolation import concentration_experiment, sample_ruin_percolation
from goerw.tree import (
    BranchingTable,
    Tree,
    TreeFamily,
    _cut_dp,
    _grow,
    _level_product,
    branching_ruin_estimate,
    build_from_edge_list,
    build_path,
    build_polynomial,
    build_regular,
    min_cutset_sum,
    path_family,
    polynomial_family,
    read_tree_file,
    regular_family,
    write_tree_file,
)
from goerw.walk import (ClockTable, StopRule, derive_seeds, extension_reach, simulate,
                        simulate_extension, simulate_rubin)

from conftest import (chain_tree, cut_dp_ref, enumerate_cutsets, random_broom, random_tree,
                      weights_of)


def level_sizes(t):
    return [len(range(*t.levels.starts[d:d + 2])) for d in range(t.truncation_depth + 1)]


def sized(sizes):
    """A family whose level_sizes(L) is a one-shot iterator over sizes[:L + 1],
    so a reader that indexes the sizes or reads them twice fails; it builds
    no tree."""
    return TreeFamily("sized", lambda L: pytest.fail("a tree was built"),
                      lambda L: iter(sizes[:L + 1]), math.nan)


def sized_minimum(sizes, gamma, L):
    """The branching-ruin table's value at (gamma, L) on sized(sizes)."""
    return branching_ruin_estimate(sized(sizes), [gamma], [L]).values[(gamma, L)]


def full_binary(depth):
    """Root with two children, every internal vertex with two children."""
    edges = []
    next_id = 1
    frontier = [(0, 0)]
    while frontier:
        v, d = frontier.pop(0)
        if d == depth:
            continue
        for _ in range(2):
            edges.append((v, next_id))
            frontier.append((next_id, d + 1))
            next_id += 1
    return build_from_edge_list(edges)


class TestBuilders:
    def test_path(self):
        t = build_path(5)
        assert t.n_vertices == 6
        assert t.depth == [0, 1, 2, 3, 4, 5]
        assert all(len(t.children[v]) == 1 for v in range(5))
        assert t.children[5] == []
        assert t.root_path(5) == [0, 1, 2, 3, 4, 5]

    def test_regular_level_sizes(self):
        t = build_regular(3, 2)
        assert level_sizes(t) == [1, 3, 6]
        assert t.float_degrees[0] == 3
        assert t.float_degrees[1] == 3
        assert t.float_degrees[4] == 1  # truncation leaf

    @pytest.mark.parametrize("family", [path_family(), regular_family(2), regular_family(3),
                                        regular_family(5), polynomial_family(0.5),
                                        polynomial_family(1.2), polynomial_family(2.0)],
                             ids=lambda f: f.name)
    @pytest.mark.parametrize("depth", [0, 1, 2, 4, 9])
    def test_build_matches_family_sizes(self, family, depth):
        t = family.build(depth)
        assert level_sizes(t) == list(family.level_sizes(depth))
        assert t.truncation_depth == depth

    @pytest.mark.parametrize("b,depth", [(0.5, 64), (1.0, 64), (1.2, 64),
                                         (1.5, 32), (2.0, 32), (3.0, 12)])
    def test_polynomial_level_invariant_exact(self, b, depth):
        t = build_polynomial(b, depth)
        expected = [2 ** math.floor(b * math.log2(n) + 1e-9) if n else 1
                    for n in range(depth + 1)]
        assert level_sizes(t) == expected
        assert list(polynomial_family(b).level_sizes(depth)) == expected

    def test_polynomial_small_b_is_a_path_at_desk_depth(self):
        t = build_polynomial(0.05, 16)
        assert level_sizes(t) == [1] * 17

    def test_polynomial_vertex_cap(self):
        with pytest.raises(ValueError, match="cap"):
            build_polynomial(3.0, 128)

    @pytest.mark.parametrize("build,args,depth", [
        (build_regular, (3, 25), 20),
        (build_regular, (3, 10**6), 20),
        (build_path, (10_000_001,), 10_000_000),
        (build_polynomial, (3.0, 128), 57),
    ])
    def test_oversize_tree_refused_before_it_is_built(self, build, args, depth):
        """The vertices are counted level by level before any level is
        built, so a tree over the cap costs neither its levels nor the
        sizes of the levels past the one that crosses the cap."""
        tracemalloc.start()
        start = time.perf_counter()
        try:
            with pytest.raises(ValueError, match=f"by depth {depth}, over the .* vertex cap"):
                build(*args)
            seconds = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert seconds < 1.0
        assert peak < 100 * 2**20

    def test_a_tree_of_exactly_the_cap_builds(self, monkeypatch):
        monkeypatch.setattr(tree_module, "_MAX_VERTICES", 22)
        assert build_regular(3, 3).n_vertices == 22
        monkeypatch.setattr(tree_module, "_MAX_VERTICES", 21)
        with pytest.raises(ValueError, match="22 vertices by depth 3, over the 21 vertex cap"):
            build_regular(3, 3)
        assert _grow([1] * 6, 6) == build_path(5)
        with pytest.raises(ValueError, match="7 vertices by depth 6, over the 6 vertex cap"):
            _grow([1] * 7, 6)

    @pytest.mark.parametrize("build,args", [(build_regular, (3, -1)), (build_regular, (2, -5)),
                                            (build_polynomial, (1.2, -3)),
                                            (build_polynomial, (0.5, -1)),
                                            (build_path, (-1,)), (build_path, (-4,))])
    def test_negative_depth_refused(self, build, args):
        with pytest.raises(ValueError, match=f"tree depth must be at least 0, got {args[-1]}"):
            build(*args)

    def test_edge_list_two_parents(self):
        with pytest.raises(ValueError, match="two parents"):
            build_from_edge_list([(0, 1), (2, 1)])

    def test_edge_list_two_roots(self):
        with pytest.raises(ValueError, match="one root"):
            build_from_edge_list([(0, 1), (5, 6)])

    def test_edge_list_cycle(self):
        with pytest.raises(ValueError, match="one root"):
            build_from_edge_list([(1, 2), (2, 1)])

    def test_edge_list_detached_cycle(self):
        with pytest.raises(ValueError, match="disconnected"):
            build_from_edge_list([(0, 1), (2, 3), (3, 4), (4, 2)])

    def test_edge_list_relabels_to_bfs(self):
        t = build_from_edge_list([(10, 30), (10, 20), (30, 40)])
        assert t.parent == [-1, 0, 0, 2]
        assert t.depth == [0, 1, 1, 2]
        assert t.truncation_depth == 2


FAMILY_TREES = pytest.mark.parametrize(
    "t", [build_path(6), build_regular(2, 5), build_regular(3, 6), build_polynomial(1.5, 12),
          build_polynomial(0.5, 20), build_regular(3, 0)],
    ids=["path6", "regular2-5", "regular3-6", "poly1.5-12", "poly0.5-20", "root"])


@st.composite
def bfs_trees(draw):
    """A tree from drawn child counts, vertex by vertex in breadth-first order."""
    counts = draw(st.lists(st.integers(0, 3), max_size=40))
    parent = [-1]
    for v, k in enumerate(counts):
        if v == len(parent):
            break
        parent += [v] * k
    return Tree(parent)


class TestChildren:
    @FAMILY_TREES
    def test_children_of_family_trees(self, t):
        want = [[] for _ in t.parent]
        for v in range(1, t.n_vertices):
            want[t.parent[v]].append(v)
        assert t.children == want

    @staticmethod
    def check_first(t):
        lv = t.levels
        first = lv.first
        assert first.dtype == np.int64 and first.shape == (t.n_vertices + 1,)
        assert not first.flags.writeable
        assert first[0] == 1 and first[-1] == t.n_vertices
        assert (first[1:] - first[:-1] == lv.kids).all()
        for v in range(t.n_vertices):
            assert all(t.parent[u] == v for u in range(first[v], first[v + 1]))

    @FAMILY_TREES
    def test_first_matches_the_parent_list(self, t):
        self.check_first(t)

    @settings(max_examples=200, deadline=None)
    @given(bfs_trees())
    def test_first_matches_drawn_parent_lists(self, t):
        self.check_first(t)

    @FAMILY_TREES
    def test_only_child_from_first(self, t):
        want = [kids[0] if len(kids) == 1 else 0 for kids in t.children]
        assert t.only_child == want


class TestNoChildLists:
    """The walk, extension and cluster kernels read child ranges from
    Levels.first; no module of the package builds per-vertex child lists."""

    def test_kernels_leave_no_child_lists(self):
        t = build_regular(3, 5)
        env = environment_from_alpha(t, [0.5] * t.n_vertices)
        stop = StopRule(max_steps=500, hit_depth=5)
        simulate(env, stop, 1)
        simulate_rubin(env, stop, ClockTable(2))
        simulate_extension(env, ClockTable(3), t.n_vertices - 1, stop)
        extension_reach(env, t.n_vertices - 1, derive_seeds(4, 50), 10_000)
        sample_ruin_percolation(env, 5)
        concentration_experiment(t, AlphaDistribution.two_point(0.0, 2.0, 0.5), 0.5,
                                 [2, 4], 3, 6)
        assert "children" not in t.__dict__

    def test_walk_bytes_per_vertex(self):
        """The first walk on a fresh tree (its level arrays, with the child
        offsets, came with the environment) keeps depth, only_child,
        parent_step and the first-visit array: under 96 bytes a vertex.
        Per-vertex child lists alone took about that much again."""
        t = build_regular(3, 10)
        n = t.n_vertices
        env = environment_from_alpha(t, np.zeros(n))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            simulate(env, StopRule(max_steps=1000), 1)
            retained = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert n == 3070 and "levels" in t.__dict__
        assert retained <= 96 * n

    def test_no_module_reads_children(self):
        """Only the benchmark and the tests read Tree.children."""
        src = Path(tree_module.__file__).parent
        reads = [f"{path.name}:{node.lineno}"
                 for path in sorted(src.glob("*.py"))
                 for node in ast.walk(ast.parse(path.read_text(), str(path)))
                 if isinstance(node, ast.Attribute) and node.attr == "children"]
        assert reads == []


class TestCutsets:
    def test_enumerate_path3(self):
        assert len(enumerate_cutsets(build_path(3))) == 3

    def test_enumerate_two_leaves(self):
        t = build_from_edge_list([(0, 1), (0, 2)])
        cuts = enumerate_cutsets(t)
        assert cuts == [frozenset({1, 2})]

    def test_enumerate_two_paths_of_two(self):
        t = build_from_edge_list([(0, 1), (1, 2), (0, 3), (3, 4)])
        assert len(enumerate_cutsets(t)) == 4

    def test_enumerate_guard(self):
        with pytest.raises(ValueError, match="20 edges"):
            enumerate_cutsets(build_path(21))

    def test_path_harmonic_weights(self):
        t = build_path(5)
        value = min_cutset_sum(t, weights_of(t, lambda e: 1.0 / t.depth[e]))
        assert value == pytest.approx(0.2, abs=1e-15)

    def test_binary_tie_goes_shallow(self):
        t = full_binary(4)
        value = min_cutset_sum(t, weights_of(t, lambda e: 1.0 / t.depth[e]))
        assert value == pytest.approx(2.0, abs=1e-12)

    def test_equal_weights_tie_on_path(self):
        t = build_path(4)
        value = min_cutset_sum(t, np.ones(t.n_vertices))
        assert value == 1.0

    def test_dead_end_needs_no_cut(self):
        # a stub at depth 1 that never reaches the boundary at depth 2
        t = build_from_edge_list([(0, 1), (1, 2), (0, 3)])
        value = min_cutset_sum(t, np.ones(t.n_vertices))
        assert value == 1.0

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_dp_matches_enumeration(self, seed):
        rng = random.Random(seed)
        t = random_tree(rng, max_edges=14, max_depth=5)
        weights = {v: rng.uniform(0.05, 3.0) for v in range(1, t.n_vertices)}
        value = min_cutset_sum(t, weights_of(t, weights.__getitem__))
        candidates = enumerate_cutsets(t)
        best = min(sum(weights[v] for v in c) for c in candidates)
        assert value == pytest.approx(best, rel=1e-12)


class TestCutDpArrays:
    """The level-by-level DP against the scalar one, bitwise, on random
    trees with dead ends, wide vertices, zero and tied weights. F runs
    through the cut; the scalar F is 0.0 past it."""

    @staticmethod
    def through_cut(t, depth, ref):
        """The scalar (value, F) with F cut to the ids through `depth`,
        after checking that its tail is all 0.0."""
        value, F = ref
        m = t.levels.starts[depth + 1]
        assert repr(F[m:]) == repr([0.0] * (len(F) - m))
        return value, F[:m]

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_equals_scalar_dp(self, seed):
        rng = random.Random(seed)
        t = (random_tree if seed % 2 else random_broom)(rng, max_edges=30, max_depth=6)
        pool = [0.0, 0.5, 1.0, rng.uniform(0.0, 2.0)]
        rows = [[0.0] + [rng.choice(pool) if rng.random() < 0.5 else rng.uniform(0.0, 2.0)
                         for _ in range(1, t.n_vertices)] for _ in range(3)]
        for depth in range(1, t.truncation_depth + 1):
            refs = [self.through_cut(t, depth, cut_dp_ref(t, w.__getitem__, depth))
                    for w in rows]
            for w, (value, F) in zip(rows, refs):
                (got,), (F1,) = _cut_dp(t, np.array(w), [depth])
                assert type(got) is float
                assert repr((got, F1.tolist())) == repr((value, F))
            (values,), (F2,) = _cut_dp(t, np.array(rows), [depth])
            assert repr((values, F2.tolist())) == repr(tuple(map(list, zip(*refs))))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_equals_scalar_dp_on_signed_zero_inf_and_nan(self, seed):
        rng = random.Random(seed)
        t = (random_tree if seed % 2 else random_broom)(rng, max_edges=20, max_depth=5)
        pool = [0.0, -0.0, 0.5, 1.0, math.inf, math.nan]
        w = [0.0] + [rng.choice(pool) for _ in range(1, t.n_vertices)]
        for depth in range(1, t.truncation_depth + 1):
            (got,), (F,) = _cut_dp(t, np.array(w), [depth])
            want = self.through_cut(t, depth, cut_dp_ref(t, w.__getitem__, depth))
            assert repr((got, F.tolist())) == repr(want)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_every_depth_in_one_pass(self, seed):
        """A sorted depth list with 1, the truncation depth and a repeat,
        cut in one pass, 1-D and 2-D, signed zeros, inf and NaN among the
        weights: each block is the scalar DP at its depth through its cut,
        and 0.0 below it."""
        rng = random.Random(seed)
        t = (random_tree if seed % 2 else random_broom)(rng, max_edges=30, max_depth=6)
        top = t.truncation_depth
        pool = [0.0, -0.0, 0.5, 1.0, math.inf, math.nan]
        rows = [[0.0] + [rng.choice(pool) if rng.random() < 0.5 else rng.uniform(0.0, 2.0)
                         for _ in range(1, t.n_vertices)] for _ in range(3)]
        again = rng.randint(1, top)
        depths = sorted([1, top, again, again,
                         *rng.choices(range(1, top + 1), k=rng.randint(0, 3))])
        for w in (rows[0], rows):
            values, F = _cut_dp(t, np.array(w), depths)
            assert F.shape == (len(depths),) + np.shape(w)[:-1] + (t.levels.starts[top + 1],)
            for L, value, block in zip(depths, values, F):
                m = t.levels.starts[L + 1]
                refs = [self.through_cut(t, L, cut_dp_ref(t, r.__getitem__, L))
                        for r in (rows if w is rows else [w])]
                want = refs[0] if w is not rows else tuple(map(list, zip(*refs)))
                assert repr((value, block[..., :m].tolist())) == repr(want)
                assert repr(block[..., m:].tolist()) == repr(np.zeros(block[..., m:].shape).tolist())

    def test_root_only_tree_has_nothing_to_cut(self):
        t = build_regular(3, 0)
        assert t.n_vertices == 1 and min_cutset_sum(t, np.ones(1)) == 0.0
        assert min_cutset_sum(t, np.ones((2, 1))) == [0.0, 0.0]


class TestCutDpRepairs:
    """Each repair of _cut_dp runs only where it can change F: a chain's NaN
    weights read as +inf, its zero F take their signs and a level's dead
    ends get F = 0. Both sides of each, against the scalar DP, bitwise: a
    chain with and without a NaN weight, with and without a zero weight or
    a zero F from below (-0.0, which the chain turns to +0.0), a level
    with and without a dead end (weighing -1.0, so its F = 0 is seen), 1-D
    and 2-D weights, 1 to 3 blocks, and chains narrow enough for one
    accumulate and wide enough for one op call a level (tree._scan)."""

    @pytest.mark.parametrize("width", [3, 300], ids=["narrow", "wide"])
    @pytest.mark.parametrize("kind", ["plain", "nan", "zero", "minus-zero", "zero-below"])
    @pytest.mark.parametrize("dead_end", [False, True], ids=["no-dead-end", "dead-end"])
    @pytest.mark.parametrize("rows", [1, 2], ids=["1-D", "2-D"])
    def test_both_sides_of_each_repair(self, width, kind, dead_end, rows):
        t = chain_tree(width, 4, dead_end)
        starts, top = t.levels.starts, t.truncation_depth
        rng = random.Random(f"{width} {kind} {dead_end} {rows}")
        w = [[0.0] + [rng.uniform(0.5, 2.0) for _ in range(1, t.n_vertices)]
             for _ in range(rows)]
        if dead_end:
            w[0][starts[top - 1]] = -1.0
        # levels 1 .. 4 are the chain: a vertex on its level 3, or on the bottom level 5
        at = {"nan": (starts[3] + 1, math.nan), "zero": (starts[3] + 1, 0.0),
              "minus-zero": (starts[3] + 1, -0.0), "zero-below": (starts[top - 1] + 1, -0.0)}
        if kind in at:
            v, x = at[kind]
            w[0][v] = x
        weights = np.array(w[0] if rows == 1 else w)
        assert np.isnan(weights).any() == (kind == "nan")
        for cuts in ([top], [top - 1, top], [1, top - 1, top]):
            values, F = _cut_dp(t, weights, cuts)
            for L, value, block in zip(cuts, values, F):
                m = starts[L + 1]
                refs = [TestCutDpArrays.through_cut(t, L, cut_dp_ref(t, r.__getitem__, L))
                        for r in w]
                want = refs[0] if rows == 1 else tuple(map(list, zip(*refs)))
                assert repr((value, block[..., :m].tolist())) == repr(want)


class TestChildSums:
    """Tree.child_sums against a left-to-right scalar loop from 0.0, bitwise:
    signed zeros, infinities, NaN and cancellations come out as the loop
    gives them, which the DP tests, seeing the sums only through a
    comparison, cannot tell apart."""

    POOL = [0.0, -0.0, 1.0, -2.5, math.inf, -math.inf, math.nan, 1e16, -1e16]

    @staticmethod
    def loop(t, row, d):
        out = []
        for v in range(*t.levels.starts[d:d + 2]):
            total = 0.0
            for c in t.children[v]:
                total += row[c - t.levels.starts[d + 1]]
            out.append(total)
        return out

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_equals_scalar_loop_on_every_level(self, seed):
        rng = random.Random(seed)
        t = (random_tree if seed % 2 else random_broom)(rng, max_edges=30, max_depth=6)
        starts = t.levels.starts
        for d in range(t.truncation_depth + 1):
            rows = [[rng.choice(self.POOL) if rng.random() < 0.7 else rng.uniform(-2.0, 2.0)
                     for _ in range(starts[d + 1], starts[d + 2])] for _ in range(3)]
            X = np.array(rows).reshape(3, -1)
            assert repr(t.child_sums(X, d).tolist()) == repr([self.loop(t, r, d) for r in rows])
            assert repr(t.child_sums(X[1], d).tolist()) == repr(self.loop(t, rows[1], d))

    def test_sums_in_id_order_from_zero(self):
        t = build_regular(3, 1)
        assert t.child_sums(np.array([1e16, 1.0, -1e16]), 0).tolist() == [0.0]
        assert t.child_sums(np.array([1.0, 1e16, -1e16]), 0).tolist() == [0.0]
        assert t.child_sums(np.array([1e16, -1e16, 1.0]), 0).tolist() == [1.0]
        assert repr(t.child_sums(np.full((2, 3), -0.0), 0).tolist()) == "[[0.0], [0.0]]"

    def test_root_only_tree(self):
        t = build_regular(3, 0)
        assert repr(t.child_sums(np.zeros((2, 0)), 0).tolist()) == "[[0.0], [0.0]]"
        assert repr(t.child_sums(np.zeros(0), 0).tolist()) == "[0.0]"
        assert repr(min_cutset_sum(t, np.ones((2, 1)))) == "[0.0, 0.0]"


class TestBreadthFirstLayout:
    """The array passes rely on every level and every vertex's children
    being consecutive ids in order; every way of building a tree gives that."""

    @staticmethod
    def check(t):
        lv = t.levels
        assert t.depth == sorted(t.depth)
        assert len(lv.starts) == t.truncation_depth + 3
        for d in range(t.truncation_depth + 2):
            assert t.depth[lv.starts[d]:lv.starts[d + 1]] == [d] * (lv.starts[d + 1] - lv.starts[d])
        assert lv.parent.tolist() == t.parent
        following = 1
        for v, kids in enumerate(t.children):
            assert kids == list(range(following, following + len(kids)))
            assert int(lv.kids[v]) == len(kids)
            following += len(kids)
        assert following == t.n_vertices

    def test_build_functions(self):
        for t in (build_path(7), build_regular(3, 4), build_polynomial(1.5, 12),
                  build_polynomial(0.5, 9), full_binary(4)):
            self.check(t)

    def test_grow(self, rng):
        for _ in range(30):
            sizes = [1]
            for _ in range(rng.randint(1, 6)):
                sizes.append(sizes[-1] * rng.randint(1, 4))
            t = _grow(sizes, 10_000)
            self.check(t)
            assert level_sizes(t) == sizes

    def test_edge_lists_and_file_round_trip(self, rng, tmp_path):
        path = str(tmp_path / "t.tree")
        for _ in range(40):
            # random labels, so the relabeling to breadth-first ids is exercised
            t = random_tree(rng, max_edges=30, max_depth=6)
            labels = rng.sample(range(1000), t.n_vertices)
            t = build_from_edge_list([(labels[t.parent[v]], labels[v])
                                      for v in range(1, t.n_vertices)])
            self.check(t)
            write_tree_file(t, path)
            self.check(read_tree_file(path))

    def test_non_breadth_first_ids_refused(self):
        """A parent list is refused at construction unless it starts -1, 0,
        never decreases and has each parent[v] < v."""
        for parent in ([-1, 2, 0], [0], [-1, 1], [-1, 0, 1, 0], [-1, -1], [], [-1, 0, -1],
                       [-1, 0, 2], [-1, 0, 0, 3]):
            with pytest.raises(ValueError, match="vertex ids are not in breadth-first order"):
                Tree(parent)
        assert Tree([-1]).truncation_depth == 0
        assert Tree([-1, 0, 0, 1, 2, 2]).children == [[1, 2], [3], [4, 5], [], [], []]


class TestLevelShortcut:
    @pytest.mark.parametrize("family,depth", [
        (path_family(), 6),
        (regular_family(3), 5),
        (polynomial_family(0.5), 6),
        (polynomial_family(1.2), 6),
        (polynomial_family(2.0), 5),
    ])
    @pytest.mark.parametrize("gamma", [0.3, 1.0, 2.0])
    def test_matches_explicit_dp(self, family, depth, gamma):
        tree = family.build(depth)
        explicit = min_cutset_sum(tree, weights_of(tree, lambda e: tree.depth[e] ** -gamma))
        shortcut = branching_ruin_estimate(family, [gamma], [depth]).values[(gamma, depth)]
        assert shortcut == pytest.approx(explicit, rel=1e-12)

    @pytest.mark.parametrize("family", [path_family(), regular_family(3),
                                        polynomial_family(1.2)], ids=["path", "regular", "poly"])
    def test_family_keeps_its_last_tree(self, family):
        a = family.build(5)
        assert family.build(5) is a
        b = family.build(6)
        assert b is not a and family.build(6) is b
        assert family.build(5) is not a  # one tree kept, the last one built
        assert [sum(1 for d in b.depth if d == n) for n in range(7)] == list(family.level_sizes(6))

    def test_tie_prefers_shallow_level(self):
        # sizes 2, 4 with weights 1, 1/2 (gamma 1) tie at value 2
        assert sized_minimum([1, 2, 4], 1.0, 2) == 2.0

    def test_level_size_beyond_the_float_range(self):
        """Where a level size has no float, its product is the exact one
        rounded once, or inf beyond the float range; every other product
        stays the plain float one. In each case that product is the least
        over the levels read, so it is the table's value."""
        huge = 10**400
        # levels 1-9 give 10**400 * m**-300 >= 1e114; level 10 the exact 1e100
        assert 10 ** -300.0 == 1e-300
        value = sized_minimum([1] + [huge] * 10, 300.0, 10)
        assert value == float(Fraction(huge) * Fraction(1e-300)) == 1e100
        # huge * 1.0 and huge * 0.5, both past the float range
        assert sized_minimum([1, huge, huge], 1.0, 2) == math.inf
        # plain: float(2**53 + 1) * (1/3); the exact product rounds elsewhere
        odd, third = 2**53 + 1, 3 ** -1.0
        value = sized_minimum([1, huge, huge, odd], 1.0, 3)
        assert value == odd * third != float(odd * Fraction(third))

    @staticmethod
    def fraction_route(n, w):
        """_level_product as it was: the exact product as a Fraction,
        whose float rounds once."""
        try:
            return n * w
        except OverflowError:
            try:
                return float(n * Fraction(w))
            except OverflowError:
                return math.copysign(math.inf, w)

    def test_level_product_equals_the_fraction_route(self):
        """One int / int division rounds as the Fraction's float does: repr
        equal on level sizes up to 6,000 bits and weights of every exponent
        down to the least subnormal, both signs, to +-inf past the range."""
        rng = random.Random(36)
        weights = [5e-324, -5e-324, 2.2250738585072014e-308, 0.5, 1.0, 1.7976931348623157e308]
        for _ in range(3000):
            n = rng.getrandbits(rng.randint(1, 6000)) | 1
            w = (rng.choice(weights) if rng.random() < 0.2
                 else math.copysign(math.ldexp(rng.random(), rng.randint(-1074, 1023)),
                                    rng.random() - 0.5))
            assert repr(_level_product(n, w)) == repr(self.fraction_route(n, w))
        huge = 10**400
        assert _level_product(huge, math.inf) == math.inf
        assert _level_product(huge, -math.inf) == -math.inf
        assert repr(_level_product(huge, 0.0)) == repr(_level_product(huge, -0.0)) == "0.0"
        with pytest.raises(ValueError):
            _level_product(huge, math.nan)


class TestBranchingEstimate:
    def test_regular_tree_values_bounded_below(self):
        table = branching_ruin_estimate(regular_family(3), [0.5, 1.0, 1.5, 2.0],
                                        depths=[4, 8, 16, 32])
        for L in table.depths:
            assert table.values[(1.0, L)] >= 3.0
        assert table.estimate == 2.0  # exponential growth swamps any gamma

    def test_path_estimate_is_small(self):
        table = branching_ruin_estimate(path_family(), [0.25, 0.5, 1.0, 2.0],
                                        depths=[64, 256])
        assert table.values[(1.0, 256)] == pytest.approx(1 / 256)
        assert table.estimate == 0.25

    def test_polynomial_values_track_the_exponent(self):
        fam = polynomial_family(1.5)
        table = branching_ruin_estimate(fam, [1.2, 2.0], depths=[8, 32, 128])
        assert table.values[(1.2, 128)] >= 0.1
        assert table.values[(2.0, 128)] < table.values[(2.0, 8)]
        assert fam.br_index == 1.5

    def test_rows_cover_grid(self):
        table = branching_ruin_estimate(path_family(), [0.5, 1.0], depths=[4, 8])
        assert len(table.rows()) == 4

    @pytest.mark.parametrize("family", [path_family(), regular_family(3),
                                        polynomial_family(1.5)], ids=["path", "regular", "poly"])
    def test_reads_level_sizes_once(self, family):
        """One level_sizes stream, for the deepest depth, read at each depth:
        every row equal to the table of that depth's own stream."""
        calls = []
        counted = dataclasses.replace(
            family, level_sizes=lambda L: calls.append(L) or family.level_sizes(L))
        grid = [0.25, 1.0, 2.0]
        table = branching_ruin_estimate(counted, grid, [40, 3, 9])
        assert calls == [40]
        for L in (3, 9, 40):
            single = branching_ruin_estimate(family, grid, [L])
            assert repr([row for row in table.rows() if row[1] == L]) == repr(single.rows())

    def test_keeps_no_level_size(self):
        """The pass keeps no size once its level is done: the depth-4000
        regular table, whose exact sizes take over 1 MiB as one list, peaks
        under 64 KiB."""
        tracemalloc.start()
        try:
            branching_ruin_estimate(regular_family(3), [1.0], [4000])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    @pytest.mark.parametrize("family", [path_family(), regular_family(3), polynomial_family(0.25),
                                        polynomial_family(1.2), polynomial_family(1.5)],
                             ids=["path", "regular", "poly-0.25", "poly-1.2", "poly-1.5"])
    def test_one_pass_per_gamma_equals_plain_minimum(self, family):
        """The one pass over the deepest level sizes reads, for every gamma at
        every depth L, the builtin min of the level products over levels 1 .. L."""
        grid = [0.0, 0.25, 1.2, 1.5, 3.0]
        depths = [1, 2, 7, 7, 40]
        table = branching_ruin_estimate(family, grid, depths)
        sizes = list(family.level_sizes(40))
        for g in grid:
            for L in depths:
                want = min(_level_product(sizes[m], m ** -g) for m in range(1, L + 1))
                assert repr(table.values[(g, L)]) == repr(want)

    @pytest.mark.parametrize("grid,message", [
        ([math.nan, 0.5], "gamma must be finite and at least 0, got nan"),
        ([-1.0], "gamma must be finite and at least 0, got -1.0"),
        ([0.5, math.inf], "gamma must be finite and at least 0, got inf"),
        ([], "empty gamma grid")], ids=["nan", "negative", "inf", "empty"])
    def test_bad_gamma_grid_refused_as_in_rt_estimate(self, grid, message):
        t = build_path(16)
        for table in (lambda: branching_ruin_estimate(polynomial_family(1.5), grid, [8, 16]),
                      lambda: rt_estimate(lambda L: (t, assign_deterministic(t)), grid, [8, 16])):
            with pytest.raises(InputError, match=f"^{message}$"):
                table()

    @pytest.mark.parametrize("depths", [[0], [0, 8], [-2, 8]])
    def test_depth_below_one_refused(self, depths):
        with pytest.raises(ValueError, match=f"depth {min(depths)} is below 1"):
            branching_ruin_estimate(polynomial_family(1.5), [1.0], depths)

    def test_estimate_reads_deepest_depth(self):
        values = {(0.5, 4): 0.05, (0.5, 8): 0.3, (1.0, 4): 0.9, (1.0, 8): 0.2,
                  (2.0, 4): 0.5, (2.0, 8): 0.01}
        table = BranchingTable([0.5, 1.0, 2.0], [4, 8], values, 0.1)
        assert table.estimate == 1.0
        table.threshold = 0.5
        assert table.estimate is None


class TestCutDepths:
    @pytest.mark.parametrize("depths,message,cli", [
        pytest.param([], "empty depth list", None, id="empty"),
        pytest.param([0], "depth 0 is below 1", ("poly:b=1.5,L=0", []), id="0"),
        pytest.param([-2, 8], "depth -2 is below 1", ("regular:d=3,L=4", ["--depths=-2,8"]),
                     id="-2,8"),
        pytest.param([5, 2], "depth 5 exceeds the tree depth 4",
                     ("regular:d=3,L=4", ["--depths", "5,2"]), id="one-past"),
    ])
    def test_every_cutset_table_refuses_a_bad_depth_list(self, capsys, depths, message, cli):
        """Every reader of a depth list refuses it with one message, on a
        depth-4 tree (and a family whose levels end there). tree_max_flow
        takes one depth a call, so it is given each depth in turn, and has
        no empty list to refuse. The CLI's three cutset tables print that
        message too: on a depth-0 tree, whose default depth list is [0],
        and with --depths, where a depth below 1 is refused as the flag's."""
        t = build_regular(3, 4)
        env = assign_deterministic(t)
        ends_at_4 = sized(list(regular_family(3).level_sizes(4)))
        callers = {
            "rt_estimate": lambda d: rt_estimate(lambda L: (t, env), [1.0], d),
            "branching_ruin_estimate": lambda d: branching_ruin_estimate(ends_at_4, [1.0], d),
            "flow_energy_check": lambda d: flow_energy_check(env, 2.0, d),
            "concentration_experiment": lambda d: concentration_experiment(
                t, AlphaDistribution.two_point(0.0, 3.0, 0.5), 0.5, d, 1, 0),
            "tree_max_flow": lambda d: [tree_max_flow(t, np.ones(t.n_vertices), L)
                                        for L in sorted(d)],
        }
        if not depths:
            del callers["tree_max_flow"]
        for name, call in callers.items():
            with pytest.raises(ValueError) as e:
                call(depths)
            assert str(e.value) == message, name
        if cli is None:
            return
        spec, flags = cli
        where = "--depths: " if depths[0] < 1 and flags else ""
        for argv in (["estimate-br"], ["estimate-rt", "--env", "det:mu=1"],
                     ["flow-check", "--env", "det:mu=1", "--gamma", "2"]):
            code = main([*argv, "--tree", spec, *flags])
            out, err = capsys.readouterr()
            assert (code, out, err) == (2, "", f"error: {where}{message}\n"), argv[0]


class TestTreeFile:
    def test_round_trip(self, tmp_path):
        t = build_regular(3, 3)
        p = str(tmp_path / "t.tree")
        write_tree_file(t, p)
        back = read_tree_file(p)
        assert back.parent == t.parent
        assert back.children == t.children
        assert back.depth == t.depth
        assert back.truncation_depth == t.truncation_depth

    def test_root_only_round_trip(self, tmp_path):
        """A depth-0 tree's file is its header alone, read back as the root."""
        t = build_regular(3, 0)
        p = tmp_path / "t.tree"
        write_tree_file(t, str(p))
        assert p.read_text() == "# goerw-tree v1 depth=0\n"
        assert read_tree_file(str(p)) == t == Tree([-1])
        p.write_text("# goerw-tree v1 depth=2\n")
        with pytest.raises(ValueError, match="header says depth 2 but edges reach 0"):
            read_tree_file(str(p))

    def test_header_required(self, tmp_path):
        p = tmp_path / "bad.tree"
        p.write_text("0 1\n")
        with pytest.raises(ValueError, match="goerw-tree"):
            read_tree_file(str(p))

    def test_depth_mismatch_rejected(self, tmp_path):
        p = tmp_path / "bad.tree"
        p.write_text("# goerw-tree v1 depth=9\n0 1\n")
        with pytest.raises(ValueError, match="depth"):
            read_tree_file(str(p))

    def test_leftmost_at_depth(self):
        t = build_regular(3, 2)
        assert t.leftmost_at_depth(1) == 1
        assert t.leftmost_at_depth(2) == 4
        with pytest.raises(ValueError):
            build_path(2).leftmost_at_depth(9)
        # the level past the tree and a negative depth name no vertex
        for d in (3, -1):
            with pytest.raises(ValueError, match=f"^tree has no vertices at depth {d}$"):
                t.leftmost_at_depth(d)
