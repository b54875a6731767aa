import dataclasses
import gc
import math
import random
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goerw import tree as tree_module
from goerw.tree import (
    BranchingTable,
    Tree,
    _cut_dp,
    _grow,
    branching_ruin_estimate,
    build_from_edge_list,
    build_path,
    build_polynomial,
    build_regular,
    min_cutset_sum,
    min_level_cutset_sum,
    path_family,
    polynomial_family,
    polynomial_level_sizes,
    read_tree_file,
    regular_family,
    write_tree_file,
)

from conftest import cut_dp_ref, enumerate_cutsets, random_broom, random_tree, weights_of


def level_sizes(t):
    return [len(t.vertices_at_depth(d)) for d in range(t.truncation_depth + 1)]


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
        assert t.degrees[0] == 3
        assert t.degrees[1] == 3
        assert t.degrees[4] == 1  # truncation leaf

    @pytest.mark.parametrize("family", [path_family(), regular_family(2), regular_family(3),
                                        regular_family(5), polynomial_family(0.5),
                                        polynomial_family(1.2), polynomial_family(2.0)],
                             ids=lambda f: f.name)
    @pytest.mark.parametrize("depth", [0, 1, 2, 4, 9])
    def test_build_matches_family_sizes(self, family, depth):
        if family.name == "path" and depth == 0:
            with pytest.raises(ValueError, match="at least 1"):
                family.build(depth)
            return
        t = family.build(depth)
        assert level_sizes(t) == family.level_sizes(depth)
        assert t.truncation_depth == depth

    @pytest.mark.parametrize("b,depth", [(0.5, 64), (1.0, 64), (1.2, 64),
                                         (1.5, 32), (2.0, 32), (3.0, 12)])
    def test_polynomial_level_invariant_exact(self, b, depth):
        t = build_polynomial(b, depth)
        expected = [2 ** math.floor(b * math.log2(n) + 1e-9) if n else 1
                    for n in range(depth + 1)]
        assert level_sizes(t) == expected
        assert polynomial_level_sizes(b, depth) == expected

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
                                            (build_polynomial, (0.5, -1))])
    def test_negative_depth_refused(self, build, args):
        with pytest.raises(ValueError, match=f"tree depth must be at least 0, got {args[1]}"):
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


class TestChildren:
    @pytest.mark.parametrize("t", [build_path(6), build_regular(2, 5), build_regular(3, 6),
                                   build_polynomial(1.5, 12), build_polynomial(0.5, 20),
                                   build_regular(3, 0)],
                             ids=["path6", "regular2-5", "regular3-6", "poly1.5-12",
                                  "poly0.5-20", "root"])
    def test_children_of_family_trees(self, t):
        want = [[] for _ in t.parent]
        for v in range(1, t.n_vertices):
            want[t.parent[v]].append(v)
        assert t.children == want

    @pytest.mark.parametrize("enabled", [True, False])
    def test_collector_state_restored(self, enabled):
        """The cyclic collector is paused while the lists are built and
        left as the caller had it."""
        was = gc.isenabled()
        try:
            (gc.enable if enabled else gc.disable)()
            assert build_regular(3, 6).children[0] == [1, 2, 3]
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()


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
                got = _cut_dp(t, np.array(w), depth)
                assert type(got[0]) is float
                assert repr((got[0], got[1].tolist())) == repr((value, F))
            values, F2 = _cut_dp(t, np.array(rows), depth)
            assert repr((values, F2.tolist())) == repr(tuple(map(list, zip(*refs))))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_equals_scalar_dp_on_signed_zero_inf_and_nan(self, seed):
        rng = random.Random(seed)
        t = (random_tree if seed % 2 else random_broom)(rng, max_edges=20, max_depth=5)
        pool = [0.0, -0.0, 0.5, 1.0, math.inf, math.nan]
        w = [0.0] + [rng.choice(pool) for _ in range(1, t.n_vertices)]
        for depth in range(1, t.truncation_depth + 1):
            got = _cut_dp(t, np.array(w), depth)
            want = self.through_cut(t, depth, cut_dp_ref(t, w.__getitem__, depth))
            assert repr((got[0], got[1].tolist())) == repr(want)

    def test_root_only_tree_has_nothing_to_cut(self):
        t = build_regular(3, 0)
        assert t.n_vertices == 1 and min_cutset_sum(t, np.ones(1)) == 0.0
        assert min_cutset_sum(t, np.ones((2, 1))) == [0.0, 0.0]


class TestChildSums:
    """Tree.child_sums against a left-to-right scalar loop from 0.0, bitwise:
    signed zeros, infinities, NaN and cancellations come out as the loop
    gives them, which the DP tests, seeing the sums only through a
    comparison, cannot tell apart."""

    POOL = [0.0, -0.0, 1.0, -2.5, math.inf, -math.inf, math.nan, 1e16, -1e16]

    @staticmethod
    def loop(t, row, d):
        out = []
        for v in t.vertices_at_depth(d):
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
        sizes = family.level_sizes(depth)
        shortcut = min_level_cutset_sum(sizes, lambda m: m ** -gamma)
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
        # sizes 2, 4 with weights 1, 1/2 tie at value 2
        value = min_level_cutset_sum([1, 2, 4], lambda m: 1.0 if m == 1 else 0.5)
        assert value == 2.0

    def test_level_size_beyond_the_float_range(self):
        """Where a level size has no float, its product is the exact one
        rounded once, or inf beyond the float range; every other product
        stays the plain float one."""
        huge = 10**400
        value = min_level_cutset_sum([1, huge], lambda m: 1e-300)
        assert value == float(Fraction(huge) * Fraction(1e-300)) == 1e100
        assert min_level_cutset_sum([1, huge], lambda m: 0.5) == math.inf
        # plain: float(2**53 + 1) * 3.0; the exact product rounds elsewhere
        odd = 2**53 + 1
        value = min_level_cutset_sum([1, huge, odd], lambda m: 3.0)
        assert value == odd * 3.0 != float(3 * odd)


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
        """One level_sizes list, for the deepest depth, cut to each depth:
        every row equal to the table of that depth's own list."""
        calls = []
        counted = dataclasses.replace(
            family, level_sizes=lambda L: calls.append(L) or family.level_sizes(L))
        grid = [0.25, 1.0, 2.0]
        table = branching_ruin_estimate(counted, grid, [40, 3, 9])
        assert calls == [40]
        for L in (3, 9, 40):
            single = branching_ruin_estimate(family, grid, [L])
            assert repr([row for row in table.rows() if row[1] == L]) == repr(single.rows())

    def test_estimate_reads_deepest_depth(self):
        values = {(0.5, 4): 0.05, (0.5, 8): 0.3, (1.0, 4): 0.9, (1.0, 8): 0.2,
                  (2.0, 4): 0.5, (2.0, 8): 0.01}
        table = BranchingTable([0.5, 1.0, 2.0], [4, 8], values, 0.1)
        assert table.estimate == 1.0
        table.threshold = 0.5
        assert table.estimate is None


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
