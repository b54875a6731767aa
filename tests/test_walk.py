import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

import goerw.analysis as analysis
import goerw.cli as cli
import goerw.percolation as percolation
import goerw.tree as tree_module
import goerw.walk as walk
from goerw.environment import Environment, Psi, assign_deterministic, environment_from_alpha
from goerw.tree import (build_path, build_polynomial, build_regular, polynomial_family,
                        regular_family)
from goerw.walk import (
    ClockTable,
    StopRule,
    derive_seed,
    derive_seeds,
    extension_reach,
    restriction,
    simulate,
    simulate_extension,
    simulate_rubin,
)

from conftest import (escape_exact, random_broom, random_tree, simulate_recorded,
                      simulate_ref)


class TestClockTable:
    def test_deterministic(self):
        a = ClockTable(123)
        b = ClockTable(123)
        assert a.xi(3, 1, 7) == b.xi(3, 1, 7)
        assert a.xi(3, 1, 7) != a.xi(1, 3, 7)
        assert a.xi(3, 1, 7) != a.xi(3, 1, 8)

    def test_seed_changes_values(self):
        assert ClockTable(1).xi(0, 1, 0) != ClockTable(2).xi(0, 1, 0)

    def test_unit_exponential_moments(self):
        t = ClockTable(99)
        draws = [t.xi(5, 6, j) for j in range(20000)]
        assert min(draws) > 0
        assert np.mean(draws) == pytest.approx(1.0, abs=0.03)
        assert np.std(draws) == pytest.approx(1.0, abs=0.05)

    def test_derive_seed_spreads(self):
        seeds = {derive_seed(7, i) for i in range(1000)}
        assert len(seeds) == 1000
        assert derive_seed(7, 3) == derive_seed(7, 3)
        assert derive_seed(7, 3) != derive_seed(8, 3)


def xi_ref(seed, v, u, j):
    """The clock by ClockTable's one-hash key layout, computed afresh."""
    h = walk._splitmix((seed & walk._M64) ^ v)
    h = walk._splitmix(h ^ (u << 32) ^ j)
    return -math.log(((h >> 11) + 0.5) * (2.0 ** -53))


def tree_caps():
    return tree_module._MAX_VERTICES, tree_module._MAX_PATH_VERTICES


class TestClockPrefixCache:
    """ClockTable keeps one hash prefix, the vertex hash h_v that every key
    of v extends, and every clock value it has computed; every clock it
    returns, first or repeated, in any order, is still == the one-hash
    formula xi(v, u, j) = -log U(splitmix(h_v ^ (u << 32) ^ j)), and v's
    draw is h_v's own uniform."""

    def test_repeated_and_interleaved_queries(self, rng):
        t = ClockTable(2024)
        keys = [(rng.randrange(50), rng.randrange(50)) for _ in range(20)]
        for _ in range(3000):
            v, u = rng.choice(keys)
            j = rng.randrange(1, 7)
            assert t.xi(v, u, j) == xi_ref(2024, v, u, j)
            if rng.random() < 0.2:
                assert t.draw(v) == walk._uniform(walk._splitmix(2024 ^ v))
        assert t._vertex.keys() == {v for v, _ in keys}

    def test_wide_directions(self, rng):
        """Directions up to 2^32 - 1, the top of the key domain, and the
        largest vertex ids the tree caps allow."""
        t = ClockTable(-7)
        wide = [0, 1, (1 << 20) + 3, (1 << 31) + 12345, (1 << 32) - 1]
        for _ in range(2):
            for u in wide:
                for v in (0, 3, *(cap - 1 for cap in tree_caps())):
                    for j in (1, 2, 9):
                        assert t.xi(v, u, j) == xi_ref(-7, v, u, j)

    def test_large_clock_index(self, rng):
        """Clock indices up to 2^32 - 1, the top of the key domain."""
        t = ClockTable(11)
        for j in [1, 1 << 20, percolation._EXTENSION_CAP, (1 << 32) - 1,
                  *(rng.randrange(1, 1 << 32) for _ in range(50))]:
            assert t.xi(4, 5, j) == xi_ref(11, 4, 5, j)
            assert t.xi(5, 4, j) == xi_ref(11, 5, 4, j)

    def test_key_domain(self, rng):
        """Vertex ids lie below the tree caps and clock indices below the
        step cap, each below 2^32, and there every clock key (u << 32) ^ j
        is a nonzero 64-bit word from which (u, j) reads back, so keys are
        distinct; the draw's key is 0."""
        assert max(*tree_caps(), percolation._EXTENSION_CAP) < 1 << 32
        edge = [0, 1, 2, (1 << 31) - 1, (1 << 32) - 2, (1 << 32) - 1]
        us = edge + [rng.randrange(1 << 32) for _ in range(40)]
        js = edge[1:] + [rng.randrange(1, 1 << 32) for _ in range(40)]
        keys = {(u << 32) ^ j: (u, j) for u in us for j in js}
        assert len(keys) == len(set(us)) * len(set(js))
        assert all(0 < key <= walk._M64 and (key >> 32, key & 0xFFFFFFFF) == uj
                   for key, uj in keys.items())

    def test_draw_is_the_vertex_hash_uniform(self, rng):
        for seed in (0, 5, -1, rng.getrandbits(64)):
            t = ClockTable(seed)
            for v in (0, 1, 7, *(cap - 1 for cap in tree_caps())):
                assert t.draw(v) == walk._uniform(t._vertex_hash(v))
                assert t.draw(v) == walk._uniform(walk._splitmix((seed & walk._M64) ^ v))
            assert not t._clock

    def test_tables_never_share_a_prefix(self, rng):
        a, b = ClockTable(1), ClockTable(2)
        keys = [(rng.randrange(30), rng.randrange(30)) for _ in range(200)]
        for v, u in keys:
            j = rng.randrange(1, 5)
            assert a.xi(v, u, j) == xi_ref(1, v, u, j)
            assert b.xi(v, u, j) == xi_ref(2, v, u, j)
        assert a._vertex is not b._vertex
        assert a._vertex.keys() == b._vertex.keys() == {v for v, _ in keys}
        assert all(a._vertex[v] != b._vertex[v] for v, _ in keys)

    def test_shuffled_and_repeated_reads(self, rng):
        t = ClockTable(31)
        wanted = [(v, u, j) for v, u in [(0, 1), (1, 0), (1, 2), (5, 2)] for j in (2, 1, 3, 7)]
        reads = [*wanted, *rng.choices(wanted, k=60)]
        rng.shuffle(reads)
        reads = [(1, 2, 2), (1, 2, 1), (1, 2, 2), *reads]  # j=2 before j=1, then again
        for v, u, j in reads:
            assert t.xi(v, u, j) == xi_ref(31, v, u, j)
        assert t._clock.keys() == set(wanted)
        assert t._vertex.keys() == {v for v, _, _ in wanted}

    def test_a_cluster_sample_hashes_each_clock_once(self, monkeypatch):
        """Five samples on the cluster benchmark's tree: each table makes 1
        hash per vertex, then 1 per distinct clock, however often the
        sample's runs read it; a first-step draw, however often a vertex is
        drawn, hashes nothing."""
        tree = cli.parse_tree_spec("regular:d=3,L=7")
        env = cli.build_environment(tree, "alpha:two=0,3,0.5", 12)
        want = [percolation.sample_ruin_percolation(env, 40, i) for i in range(5)]
        seeds, tables, hashes = {i: derive_seed(40, i) for i in range(5)}, [], []
        reads, draws = Counter(), Counter()

        def table(s):
            tables.append(ClockTable(s))
            return tables[-1]

        def splitmix(x, real=walk._splitmix):
            hashes.append(x)
            return real(x)

        def xi(self, v, u, j, real=ClockTable.xi):
            reads[self, v, u, j] += 1
            return real(self, v, u, j)

        def draw(self, v, real=ClockTable.draw):
            draws[self, v] += 1
            return real(self, v)

        # each sample's seed is derived before the count starts: only the tables hash
        monkeypatch.setattr(percolation, "derive_seed", lambda m, i: seeds[i])
        monkeypatch.setattr(percolation, "ClockTable", table)
        monkeypatch.setattr(walk, "_splitmix", splitmix)
        monkeypatch.setattr(ClockTable, "xi", xi)
        monkeypatch.setattr(ClockTable, "draw", draw)
        assert [percolation.sample_ruin_percolation(env, 40, i) for i in range(5)] == want
        assert len(tables) == 5
        assert len(hashes) == sum(len(t._vertex) + len(t._clock) for t in tables)
        for t in tables:
            assert t._clock.keys() == {(v, u, j) for s, v, u, j in reads if s is t}
            assert t._vertex.keys() >= {v for s, v in draws if s is t}
        assert sum(reads.values()) > len(reads) and sum(draws.values()) > len(draws)


class TestClockIndependence:
    """A draw reads the same vertex hash h_v that keys v's clocks. Over 10^6
    table seeds (derive_seeds, as the samplers make them) at a few (v, u, j),
    draw(v) against xi(v, u, 1) and xi(v, u, j) against xi(v, u, j + 1), each
    as a uniform (exp(-xi)), must pass a 10 x 10 joint chi-square against
    n / 100 per cell (99 degrees of freedom) and a correlation |z| bound,
    each at a false alarm rate near 1e-6. The bounds are calibrated on
    numpy's independent uniforms, which pass them (chi-square mean about
    100 over such pairs), and a draw equal to a j = 1 clock's uniform fails
    both."""

    N = 1_000_000
    CHI2 = float(stats.chi2.isf(1e-6, 99))  # 180.8
    Z = 5.0
    SITES = [(1, 0, 1), (4, 13, 7), (1_999_999, 666_666, 1), (9_999_999, 9_999_998, 2 ** 32 - 2)]

    @staticmethod
    def statistic(x, y):
        """(chi-square of the decile pairs, |z| of the correlation) of two uniform arrays."""
        n = x.size
        cells = np.bincount((x * 10).astype(np.int64) * 10 + (y * 10).astype(np.int64),
                            minlength=100)
        return (float(((cells - n / 100) ** 2).sum() / (n / 100)),
                abs(float(np.corrcoef(x, y)[0, 1])) * math.sqrt(n))

    def passes(self, x, y):
        chi, z = self.statistic(x, y)
        return chi < self.CHI2 and z < self.Z

    def test_draw_and_consecutive_clocks_are_independent(self):
        seeds = derive_seeds(43, self.N)
        spot = seeds[:: self.N // 100].tolist()
        for v, u, j in self.SITES:
            h = walk._splitmix_array(seeds ^ np.uint64(v))

            def clock(i):
                return walk._uniform(walk._splitmix_array(h ^ np.uint64((u << 32) ^ i)))

            draw, first, xj, xj1 = walk._uniform(h), clock(1), clock(j), clock(j + 1)
            # the arrays are the table's own numbers
            for k, s in enumerate(spot):
                t, i = ClockTable(s), k * (self.N // 100)
                assert t.draw(v) == draw[i]
                assert (t.xi(v, u, 1), t.xi(v, u, j), t.xi(v, u, j + 1)) == (
                    -math.log(first[i]), -math.log(xj[i]), -math.log(xj1[i]))
            assert self.passes(draw, first), (v, u, j, self.statistic(draw, first))
            assert self.passes(xj, xj1), (v, u, j, self.statistic(xj, xj1))
        # calibration: numpy's independent uniforms pass; a draw equal to
        # its j = 1 clock's uniform fails both bounds
        gen = np.random.default_rng(43)
        assert self.passes(gen.random(self.N), gen.random(self.N))
        chi, z = self.statistic(first, first)
        assert chi > self.CHI2 and z > self.Z


class TestPendingTimes:
    """A later visit races each direction's pending time, computed the first
    time it is needed and kept until that direction wins, so a run reads
    each clock once: a later race reads at most the last winner's next
    clock, and the off-path excited step keeps the loser of its race."""

    @pytest.mark.parametrize("law", ["alpha:two=0,3,0.5", "det:lambda=2.5,mu=0.3"])
    def test_a_run_reads_each_clock_once(self, law, monkeypatch):
        reads = []

        def xi(self, v, u, j, real=ClockTable.xi):
            reads.append((v, u, j))
            return real(self, v, u, j)

        monkeypatch.setattr(ClockTable, "xi", xi)
        env = cli.build_environment(cli.parse_tree_spec("regular:d=3,L=5"), law, 1)
        target = env.tree.n_vertices - 1
        later = 0
        for i in range(20):
            for run in (lambda t: simulate_rubin(env, StopRule(300), t),
                        lambda t: simulate_extension(env, t, target, StopRule(300))):
                reads.clear()
                run(ClockTable(derive_seed(8, i)))
                assert len(reads) == len(set(reads))
                later += sum(j > 1 for _, _, j in reads)
        assert later > 1000


class TestDirectLaw:
    """The law as simulate draws it, tallied step by step on the 3-regular
    tree of depth 2, whose depth-2 leaves always step back up, and on a
    path, whose interior vertices each have one child."""

    def test_step_probabilities_fresh(self):
        t = build_regular(3, 2)
        env = assign_deterministic(t, lam=3.0)
        trials = 40000
        up = 0
        by_child = Counter()
        for i in range(trials):
            _, v, w = simulate_recorded(env, StopRule(max_steps=2), derive_seed(7, i)).positions
            # step 1 reaches a depth-1 vertex, step 2 is its fresh departure
            if w == 0:
                up += 1
            else:
                by_child[t.children[v].index(w)] += 1
        # deg 3, lam 3: parent 3/5, each child 1/5
        assert up / trials == pytest.approx(0.6, abs=0.012)
        for k in range(2):
            assert by_child[k] / trials == pytest.approx(0.2, abs=0.012)

    def test_step_probabilities_later(self):
        t = build_regular(3, 2)
        env = assign_deterministic(t, lam=3.0, mu=0.5)
        pos = simulate_recorded(env, StopRule(max_steps=100_000), 8).positions
        seen = set()
        departures = up = 0
        for v, w in zip(pos, pos[1:]):
            if t.depth[v] != 1:
                continue
            if v in seen:
                departures += 1
                up += w == 0
            seen.add(v)
        assert departures >= 40000
        assert up / departures == pytest.approx(0.2, abs=0.012)  # 0.5/2.5

    def test_root_is_uniform(self):
        t = build_regular(3, 2)
        env = assign_deterministic(t, lam=9.0)
        pos = simulate_recorded(env, StopRule(max_steps=10**8, root_returns=30000), 9).positions
        # the start and every return but the last are followed by a departure
        hits = Counter(w for v, w in zip(pos, pos[1:]) if v == 0)
        assert sum(hits.values()) == 30000
        for c in t.children[0]:
            assert hits[c] / 30000 == pytest.approx(1 / 3, abs=0.012)

    def test_single_child_fresh_and_later(self):
        """Every interior vertex of a path has one child, so each departure
        from one is a single-child step: fresh ones go up with probability
        lam/(lam + 1) = 3/4, later ones with mu/(mu + 1) = 1/3."""
        L = 30
        env = assign_deterministic(build_path(L), lam=3.0, mu=0.5)
        fresh = fresh_up = later = later_up = 0
        for i in range(2100):
            pos = simulate_recorded(env, StopRule(max_steps=100), derive_seed(12, i)).positions
            seen = set()
            for v, w in zip(pos, pos[1:]):
                if not 0 < v < L:
                    continue
                if v in seen:
                    later += 1
                    later_up += w < v
                else:
                    fresh += 1
                    fresh_up += w < v
                seen.add(v)
        assert fresh >= 40000 and later >= 40000
        assert fresh_up / fresh == pytest.approx(0.75, abs=0.012)
        assert later_up / later == pytest.approx(1 / 3, abs=0.012)


class TestSimulate:
    def test_top_draw_takes_the_last_child(self, monkeypatch):
        """Below the root of regular:d=4 with lam = 0.068, a draw of
        1 - 2**-53 rounds the child index up to k = 3. It is clipped to the
        last child, as in the plain loop, and never read as an id past the
        vertex's own child range."""
        top = 1 - 2 ** -53

        class Top(random.Random):
            def random(self):
                return top

        t = build_regular(4, 5)
        env = assign_deterministic(t, lam=0.068)
        p = 0.068 / ((0.068 + 4) - 1)  # lam / ((lam + deg) - 1), as the kernel rounds it
        assert int((top - p) / (1.0 - p) * 3) == 3
        monkeypatch.setattr(random, "Random", Top)
        stop = StopRule(max_steps=10, hit_depth=5)
        traj = simulate_recorded(env, stop, 1)
        assert traj == simulate_ref(env, stop, 1)
        assert traj.steps == 5 and traj.escaped
        assert all(b == t.children[a][-1] for a, b in zip(traj.positions, traj.positions[1:]))

    def test_root_only_tree_refused(self):
        """A root-only tree has no edge to step along: refused by name, not
        an IndexError on the first down-step."""
        env = assign_deterministic(build_regular(3, 0))
        for _ in range(2):  # nothing half-built is kept
            with pytest.raises(ValueError, match="root only"):
                simulate(env, StopRule(max_steps=10), 0)

    def test_equals_plain_loop_bitwise(self):
        """The single-child table and the one-bound checks draw and
        compare exactly as the plain loop does: positions and every
        summary field are ==, on 2,400 random cases."""
        rng = random.Random(0x5EED)
        fixed = [build_path(7), build_regular(3, 3), build_polynomial(1.2, 12),
                 build_polynomial(0.5, 9)]
        for i in range(2400):
            kind = i % 3
            t = (random_tree(rng) if kind == 0 else random_broom(rng) if kind == 1
                 else fixed[i // 3 % len(fixed)])
            n = t.n_vertices
            if rng.random() < 0.5:
                pool = [0.0, 0.5, 3.0, rng.uniform(0.0, 20.0)]
                env = environment_from_alpha(t, [rng.choice(pool) for _ in range(n)])
            else:
                env = Environment(t, [rng.uniform(0.05, 8.0) for _ in range(n)],
                                  [rng.uniform(0.05, 8.0) for _ in range(n)])
            stop = StopRule(max_steps=rng.choice([0, 1, 2, 3, 40, 400]),
                            hit_depth=rng.choice([math.inf, math.inf, 1, 2, 3,
                                                  t.truncation_depth]),
                            root_returns=rng.choice([math.inf, math.inf, 0, 1, 2, 5]))
            seed = derive_seed(31, i)
            assert simulate_recorded(env, stop, seed) == simulate_ref(env, stop, seed)
            a = simulate(env, stop, seed)
            b = simulate_ref(env, stop, seed, record=False)
            assert a == b and a.positions is None

    def test_summary_equals_plain_loop_under_every_bound(self):
        """Read without the recorder: the summary is == the plain loop's
        under every step cap from 1 to 40, return count 1, 2, 3 or none and
        probe depth 1 to L or none, one walk cut at each bound, on random
        trees with multi-child vertices under a det law with mu != 1 (the
        later-visit list), a det law with mu == 1 (the tree's shared
        parent_step) and a two-atom alpha law."""
        rng = random.Random(0x5CA9)
        reasons = Counter()
        for i in range(4):
            t = random_tree(rng, max_edges=16, max_depth=5)
            while not (t.levels.kids > 1).any():
                t = random_tree(rng, max_edges=16, max_depth=5)
            laws = [assign_deterministic(t, lam=rng.uniform(0.2, 4.0), mu=rng.uniform(0.2, 0.9)),
                    assign_deterministic(t, lam=rng.uniform(0.2, 4.0)),
                    cli.build_environment(t, "alpha:two=0,3,0.5", i)]
            assert [env.later_visit is t.parent_step for env in laws] == [
                False, True, True]
            bounds = itertools.product(
                laws, (1, 2, 3, math.inf), (*range(1, t.truncation_depth + 1), math.inf))
            for j, (law, rr, hd) in enumerate(bounds):
                seed = derive_seed(53, i, j)
                for cap in range(1, 41):
                    stop = StopRule(max_steps=cap, hit_depth=hd, root_returns=rr)
                    a = simulate(law, stop, seed)
                    assert a == simulate_ref(law, stop, seed, record=False)
                    reasons[a.stop_reason] += 1
        assert min(reasons.values()) >= 500 and len(reasons) == 3

    def test_childless_vertex_steps_to_parent(self, monkeypatch):
        """lam/((lam + deg) - 1) rounds to 0.9999999999999992 at the leaf
        of a 2-edge path when lam = 0.1; the leaf's parent-step probability
        is exactly 1, so no draw below 1 can ask it for a child."""

        class Top:
            def __init__(self, seed):
                pass

            def random(self):
                return 0.9999999999999999

        monkeypatch.setattr(walk.random, "Random", Top)
        env = assign_deterministic(build_path(2), lam=0.1)
        traj = simulate_recorded(env, StopRule(max_steps=3), 0)
        assert traj.positions == [0, 1, 2, 1]

    def test_step_budget_is_required(self):
        """Every run names its step budget; no implicit cap stands in."""
        with pytest.raises(TypeError, match="max_steps"):
            StopRule(hit_depth=2, root_returns=1)

    def test_max_steps_counts_moves(self):
        env = assign_deterministic(build_regular(3, 4))
        traj = simulate_recorded(env, StopRule(max_steps=25), 1)
        assert traj.steps == 25
        assert len(traj.positions) == 26
        assert traj.stop_reason == "max_steps"
        assert not traj.escaped

    def test_hit_depth_stops_and_flags(self):
        env = assign_deterministic(build_regular(3, 6))
        traj = simulate_recorded(env, StopRule(max_steps=10**6, hit_depth=4), 2)
        assert traj.escaped
        assert traj.stop_reason == "hit_depth"
        assert traj.max_depth == 4
        assert env.tree.depth[traj.positions[-1]] == 4

    def test_root_returns_stop(self):
        env = assign_deterministic(build_path(30))
        traj = simulate_recorded(env, StopRule(max_steps=10**6, root_returns=3), 3)
        assert traj.stop_reason == "root_returns"
        assert traj.root_returns == 3
        assert traj.positions.count(0) == 4  # start plus three returns

    def test_steps_are_nearest_neighbor(self):
        env = assign_deterministic(build_regular(3, 4))
        traj = simulate_recorded(env, StopRule(max_steps=500), 4)
        t = env.tree
        for a, b in zip(traj.positions, traj.positions[1:]):
            assert t.parent[b] == a or t.parent[a] == b

    def test_unrecorded_run_keeps_summary(self):
        env = assign_deterministic(build_regular(3, 4))
        full = simulate_recorded(env, StopRule(max_steps=300), 6)
        slim = simulate(env, StopRule(max_steps=300), seed=6)
        assert slim.positions is None
        assert slim.steps == full.steps
        assert slim.max_depth == full.max_depth
        assert slim.root_returns == full.root_returns

    def test_same_seed_same_trajectory(self):
        env = assign_deterministic(build_regular(3, 4), lam=0.5)
        a = simulate_recorded(env, StopRule(max_steps=200), 11)
        b = simulate_recorded(env, StopRule(max_steps=200), 11)
        assert a.positions == b.positions


class TestRecorder:
    """conftest.simulate_recorded reads simulate's moves off its reads of
    the bias tables and tree.parent; every other test of positions relies
    on it."""

    def test_positions_equal_the_plain_loop(self):
        """Regular, poly, path and random trees (a family's shared tree
        among them), det and alpha laws, each stop bound: 252 runs == the
        plain loop's, and the tree keeps its own lists and each environment
        its own tables."""
        rng = random.Random(0x2EC0)
        trees = [build_regular(3, 5), build_polynomial(1.5, 20), build_path(12),
                 cli.parse_family_spec("poly:b=1.5,L=20")[0].build(20)]
        runs = 0
        for i in range(14):
            for t in [*trees, random_tree(rng), random_broom(rng)][i % 2::2]:
                parent, depth = t.parent, t.depth
                stops = [StopRule(max_steps=300),
                         StopRule(max_steps=5000, hit_depth=min(4, t.truncation_depth)),
                         StopRule(max_steps=5000, root_returns=2)]
                laws = [assign_deterministic(t, lam=rng.uniform(0.2, 4.0),
                                             mu=rng.uniform(0.2, 4.0)),
                        cli.build_environment(t, "alpha:two=0,3,0.5", i)]
                for env, stop in itertools.product(laws, stops):
                    seed = derive_seed(77, runs)
                    assert simulate_recorded(env, stop, seed) == simulate_ref(env, stop, seed)
                    runs += 1
                assert t.parent is parent and t.depth is depth
                assert all(type(env.first_visit) is memoryview
                           and type(env.later_visit) in (list, tuple) for env in laws)
                assert type(parent) is list and type(depth) is list
        assert runs == 252


class TestEscapeExact:
    """End to end against the exact law. In the zero environment the walk
    is simple random walk, and a poly tree is spherically symmetric, so an
    excursion from the root reaches level E before it returns with
    probability C / s(1), C = 1 / sum_{n <= E} 1/s(n) the effective
    conductance to level E (Lyons-Peres ch. 2). The walk escapes within K
    returns with probability 1 - (1 - C/s(1))^K."""

    @pytest.mark.parametrize("b,E,K", [(1.0, 16, 2), (0.5, 8, 3), (2.0, 10, 1)])
    def test_escape_frequency(self, b, E, K):
        sizes = list(polynomial_family(b).level_sizes(E))
        C = 1 / sum(Fraction(1, sizes[n]) for n in range(1, E + 1))
        exact = float(1 - (1 - C / sizes[1]) ** K)
        assert 0.1 <= exact <= 0.9
        env = assign_deterministic(build_polynomial(b, E))
        stop = StopRule(max_steps=10**6, hit_depth=E, root_returns=K)
        trials = 4000
        reasons = Counter(simulate(env, stop, derive_seed(41, E, t)).stop_reason
                          for t in range(trials))
        assert reasons["max_steps"] == 0
        z = (reasons["hit_depth"] / trials - exact) / math.sqrt(exact * (1 - exact) / trials)
        assert abs(z) <= 4.5


class TestExactReferee:
    """simulate and simulate_rubin against the exact law of the excited
    walk (conftest.escape_exact): the probability of reaching depth E
    before the K-th root return, on trees small enough to solve exactly.
    Swapping lam and mu moves the second case from 0.6305 to 0.8625."""

    CASES = [("regular:d=2,L=3", "det:lambda=2", 3, 2, 0.3779),
             ("regular:d=3,L=3", "det:lambda=3,mu=0.5", 3, 2, 0.6305),
             ("poly:b=1.5,L=4", "det:lambda=2.5", 4, 1, 0.2860)]

    @pytest.mark.parametrize("spec,law,E,K,approx", CASES, ids=[c[0] for c in CASES])
    def test_escape_frequency(self, spec, law, E, K, approx):
        env = cli.build_environment(cli.parse_tree_spec(spec), law, 0)
        exact = float(escape_exact(env, E, K))
        assert exact == pytest.approx(approx, abs=1e-4)
        stop = StopRule(max_steps=10**6, hit_depth=E, root_returns=K)
        trials = 4000
        for run in (lambda i: simulate(env, stop, derive_seed(61, i)),
                    lambda i: simulate_rubin(env, stop, ClockTable(derive_seed(62, i)))):
            reasons = Counter(run(i).stop_reason for i in range(trials))
            assert reasons["max_steps"] == 0
            z = (reasons["hit_depth"] / trials - exact) / math.sqrt(exact * (1 - exact) / trials)
            assert abs(z) <= 4.5

    def test_zero_environment_is_the_control_law(self):
        """With lam = mu = 1 the solver gives _escape_law's value exactly."""
        env = cli.build_environment(cli.parse_tree_spec("regular:d=2,L=3"), "det:mu=1", 0)
        want = analysis._escape_law(list(regular_family(2).level_sizes(3)))[0]
        assert float(escape_exact(env, 3, analysis.K_RETURNS)) == want


class TestRubin:
    def test_first_departure_matches_law(self):
        t = build_path(2)
        env = assign_deterministic(t, lam=2.0)
        up = 0
        trials = 30000
        for i in range(trials):
            traj = simulate_rubin(env, StopRule(max_steps=2), ClockTable(derive_seed(1, i)))
            # step 1 reaches the depth-1 vertex, step 2 is its excited departure
            if traj.positions[2] == 0:
                up += 1
        assert up / trials == pytest.approx(2 / 3, abs=0.011)

    def test_later_departure_matches_law(self):
        t = build_path(2)
        env = assign_deterministic(t, lam=1.0, mu=3.0)
        up = 0
        trials = 30000
        n_used = 0
        for i in range(trials):
            traj = simulate_rubin(env, StopRule(max_steps=4), ClockTable(derive_seed(2, i)))
            p = traj.positions
            # want: root, down, up, down, then the second departure from depth 1
            if p[:4] == [0, 1, 0, 1]:
                n_used += 1
                if p[4] == 0:
                    up += 1
        # mu 3, deg 2: parent probability 3/4
        se = math.sqrt(0.75 * 0.25 / n_used)
        assert up / n_used == pytest.approx(0.75, abs=4 * se)

    def test_same_table_same_trajectory(self):
        """Two runs on one clock table are the same trajectory, and a run
        under a depth or return bound is the unbounded run cut at the first
        step that reaches depth h or makes the r-th return to the root."""
        env = assign_deterministic(build_regular(3, 4), lam=2.0, mu=0.7)
        a = simulate_rubin(env, StopRule(max_steps=300), ClockTable(42))
        b = simulate_rubin(env, StopRule(max_steps=300), ClockTable(42))
        assert a.positions == b.positions
        # later visits lean to the parent, so the walk returns to the root
        env = assign_deterministic(build_regular(3, 4), lam=2.0, mu=3.0)
        depth = env.tree.depth
        bounds = [(h, math.inf) for h in (1, 2, 3, 4)] + [(math.inf, r) for r in (1, 2, 3)]
        bounds += [(4, 1), (2, 3), (4, 3), (3, 2)]
        reasons = set()
        for (hd, rr), seed in itertools.product(bounds, (42, 43)):
            a = simulate_rubin(env, StopRule(max_steps=300), ClockTable(seed))
            returns = 0
            for i, v in enumerate(a.positions[1:], 1):
                returns += v == 0
                if depth[v] >= hd:
                    reason = "hit_depth"
                    break
                if returns >= rr:
                    reason = "root_returns"
                    break
            else:
                pytest.fail(f"the unbounded run meets neither bound {hd}, {rr}")
            c = simulate_rubin(env, StopRule(max_steps=300, hit_depth=hd, root_returns=rr),
                               ClockTable(seed))
            assert c.positions == a.positions[:i + 1]
            assert (c.steps, c.root_returns, c.max_depth, c.stop_reason) == (
                i, returns, max(depth[u] for u in c.positions), reason)
            reasons.add(reason)
        assert reasons == {"hit_depth", "root_returns"}

    def test_distribution_matches_direct(self):
        """The two constructions sample the same law: compare the depth
        profile after 8 steps and the root-return counts by chi-square."""
        t = build_regular(3, 4)
        env = environment_from_alpha(t, [1.0] * t.n_vertices)
        trials = 4000
        depth_direct = Counter()
        depth_rubin = Counter()
        ret_direct = Counter()
        ret_rubin = Counter()
        for i in range(trials):
            a = simulate_recorded(env, StopRule(max_steps=8), derive_seed(100, i))
            b = simulate_rubin(env, StopRule(max_steps=8), ClockTable(derive_seed(200, i)))
            depth_direct[t.depth[a.positions[-1]]] += 1
            depth_rubin[t.depth[b.positions[-1]]] += 1
            ret_direct[min(a.root_returns, 3)] += 1
            ret_rubin[min(b.root_returns, 3)] += 1
        for da, db in ((depth_direct, depth_rubin), (ret_direct, ret_rubin)):
            cats = sorted(set(da) | set(db))
            table = np.array([[da.get(c, 0) for c in cats],
                              [db.get(c, 0) for c in cats]])
            table = table[:, table.sum(axis=0) > 0]
            _, p, _, _ = stats.chi2_contingency(table)
            assert p > 1e-4


class TestFirstStep:
    """The clock kernels' first step from a vertex is simulate's, on the
    clock table's uniform for it (ClockTable.draw). With the uniforms
    stubbed, one per fresh vertex in the order simulate draws them, the
    vertex simulate moves to from a fresh v is the one simulate_rubin moves
    to, and the extension through v moves there too whenever it is on its
    path. The cases: the root (p = 0), an interior vertex, one whose lam of
    1e308 rounds p to 1 and a leaf (p = 1); the uniforms include p itself,
    which goes to the first child (r < p is up)."""

    @staticmethod
    def env():
        t = build_regular(3, 3)
        lam = [2.5] * t.n_vertices
        lam[6] = 1e308  # depth 2, under vertex 2
        return Environment(t, lam, [0.7] * t.n_vertices)

    @staticmethod
    def steer(env, path, r):
        """{vertex: uniform} that takes a first-visit walk down path and
        then draws r at its end."""
        pf, first = env.first_visit, env.tree.levels.first
        out = {}
        for v, c in zip(path, path[1:]):
            k, p = first[v + 1] - first[v], pf[v]
            out[v] = p + (c - first[v] + 0.5) / k * (1 - p)
            assert int((out[v] - p) / (1 - p) * k) == c - first[v]
        return {**out, path[-1]: r}

    @pytest.mark.parametrize("v", [0, 1, 6, 12])
    def test_rubin_and_extension_step_as_simulate(self, v, monkeypatch):
        env = self.env()
        t, pf = env.tree, env.first_visit
        p = pf[v]
        assert p == {0: 0.0, 1: 2.5 / 4.5, 6: 1.0, 12: 1.0}[v]
        path, d = t.root_path(v), t.depth[v]
        kids = t.children[v]
        rs = {2 ** -54, 0.5, 1 - 2 ** -53, p, math.nextafter(p, 0.0), math.nextafter(p, 1.0)}
        rs |= {p + (i + 0.5) / len(kids) * (1 - p) for i in range(len(kids))} if p < 1 else set()
        seen = set()
        for r in sorted(x for x in rs if 0 < x < 1):
            script = self.steer(env, path, r)

            class Script:
                def __init__(self, seed):
                    self.draws = iter(script[u] for u in path)

                def random(self):
                    return next(self.draws)

            monkeypatch.setattr(random, "Random", Script)
            monkeypatch.setattr(ClockTable, "draw", lambda self, u: script[u])
            w = simulate_recorded(env, StopRule(d + 1), 0).positions[d + 1]
            assert w == (t.parent[v] if r < p else kids[min(int((r - p) / (1 - p) * len(kids)),
                                                            len(kids) - 1)])
            seen.add(w)
            assert simulate_rubin(env, StopRule(d + 1), ClockTable(1)).positions[d + 1] == w
            for c in kids if v else ():
                ext = simulate_extension(env, ClockTable(1), c, StopRule(d + 1))
                if w in (t.parent[v], c):
                    assert ext.positions[d + 1] == w
        # every neighbor a first step can reach is reached
        assert seen == ({t.parent[v]} if p == 1 else {t.parent[v], *kids} if v else set(kids))

    def test_lockstep_steps_down_at_r_equal_p(self, monkeypatch):
        """lam at vertex 1 is set so that its first-visit p equals one
        seed's draw there: that lane steps to the first child, as simulate
        would, in the lockstep sweep and on the scalar runner alike. The
        search computes p in _first_visit's order at degree 3."""
        t = build_regular(3, 3)
        seeds = derive_seeds(5, 30)
        s = seeds.tolist()[0]
        r = ClockTable(s).draw(1)
        lam = 2 * r / (1 - r)
        for _ in range(100):
            if lam / ((lam + 3.0) - 1.0) == r:
                break
            lam = math.nextafter(lam, math.inf if lam / ((lam + 3.0) - 1.0) < r else 0.0)
        env = Environment(t, [1.0, lam] + [2.0] * (t.n_vertices - 2), [0.5] * t.n_vertices)
        assert env.first_visit[1] == r
        target = t.children[1][0]
        for lanes in (0, 30):  # every lane swept, or handed off before its first step
            monkeypatch.setattr(walk, "_HANDOFF_LANES", lanes)
            got = lockstep_runs(env, target, seeds, 10_000_000)
            assert got == scalar_runs(env, target, seeds, 10_000_000)
            assert got[0] == (2, False, 2)


class TestExtension:
    def test_depth_one_edge_always_open(self):
        t = build_regular(3, 3)
        env = assign_deterministic(t)
        traj = simulate_extension(env, ClockTable(5), 1,
                                  StopRule(max_steps=10**8, hit_depth=1, root_returns=1))
        assert traj.escaped and traj.steps == 1

    def test_reflects_at_target(self):
        t = build_path(2)
        env = assign_deterministic(t)
        traj = simulate_extension(env, ClockTable(6), 2, StopRule(max_steps=20))
        for a, b in zip(traj.positions, traj.positions[1:]):
            assert abs(t.depth[a] - t.depth[b]) == 1
        assert max(t.depth[p] for p in traj.positions) == 2

    def test_open_frequency_matches_psi_product(self):
        t = build_regular(3, 3)
        env = environment_from_alpha(t, [1.0] * t.n_vertices)
        target = t.leftmost_at_depth(2)
        trials = 30000
        opens = 0
        for i in range(trials):
            traj = simulate_extension(env, ClockTable(derive_seed(3, i)), target,
                                      StopRule(max_steps=10**8, hit_depth=2, root_returns=1))
            opens += traj.escaped
        expect = Psi(env, target)
        assert expect == pytest.approx(0.25, rel=1e-12)
        se = math.sqrt(expect * (1 - expect) / trials)
        assert opens / trials == pytest.approx(expect, abs=4 * se)

    def test_needs_non_root_target(self):
        env = assign_deterministic(build_path(2))
        with pytest.raises(ValueError, match="non-root"):
            simulate_extension(env, ClockTable(1), 0, StopRule(max_steps=5))


def scalar_runs(env, target, seeds, cap):
    """(max_depth, capped, steps) of simulate_extension per clock seed, under
    the stop rule extension_reach runs."""
    out = []
    for s in seeds.tolist():
        traj = simulate_extension(
            env, ClockTable(s), target,
            StopRule(max_steps=cap, hit_depth=env.tree.depth[target], root_returns=1))
        out.append((traj.max_depth, traj.stop_reason == "max_steps", traj.steps))
    return out


def lockstep_runs(env, target, seeds, cap):
    reach, capped, steps = extension_reach(env, target, seeds, cap)
    return list(zip(reach.tolist(), capped.tolist(), steps.tolist()))


class TestLockstep:
    """The numpy lockstep extension reads the same clocks as the scalar one
    and must give == the same runs."""

    WORDS = [0, 1, 2 ** 63, 2 ** 64 - 1, 0x9E3779B97F4A7C15]

    def test_splitmix_and_seeds_equal_scalar(self, rng):
        xs = self.WORDS + [rng.getrandbits(64) for _ in range(2000)]
        got = walk._splitmix_array(np.array(xs, dtype=np.uint64)).tolist()
        assert got == [walk._splitmix(x) for x in xs]
        for master in (0, 7, -3, 2 ** 64 + 5, rng.getrandbits(64)):
            assert derive_seeds(master, 500).tolist() == [derive_seed(master, i)
                                                         for i in range(500)]
        assert derive_seeds(1, 0).size == 0

    def test_clocks_equal_clock_table(self, rng):
        """10^4 random clocks ==, which an np.log in place of math.log
        would break (a 1-ulp log differs in about 0.35% of draws)."""
        n = 10_000
        seeds = [rng.getrandbits(64) for _ in range(n)]
        v = [rng.randrange(1 << 20) for _ in range(n)]
        u = [rng.randrange(1 << 20) for _ in range(n)]
        j = [rng.randrange(1, 50) for _ in range(n)]
        h = walk._splitmix_array(np.array(seeds, dtype=np.uint64) ^ np.array(v, dtype=np.uint64))
        h = walk._splitmix_array(h ^ (np.array(u, dtype=np.uint64) << np.uint64(32))
                                 ^ np.array(j, dtype=np.uint64))
        want = [ClockTable(s).xi(a, b, c) for s, a, b, c in zip(seeds, v, u, j)]
        assert walk._xi_array(h).tolist() == want
        assert walk._xi_array(h.reshape(-1, 4)).ravel().tolist() == want

    def test_random_trees_every_depth(self, rng):
        """Random lam and mu (mu != 1), a target at every depth, and every
        leaf."""
        runs = Counter()
        for k in range(40):
            t = random_tree(rng, max_edges=30, max_depth=7)
            lam = [rng.uniform(0.2, 4.0) for _ in range(t.n_vertices)]
            mu = [rng.uniform(0.2, 4.0) for _ in range(t.n_vertices)]
            env = Environment(t, lam, mu)
            targets = {rng.choice(range(*t.levels.starts[d:d + 2]))
                       for d in range(1, t.truncation_depth + 1)}
            targets |= {v for v in range(1, t.n_vertices) if not t.children[v]}
            for target in sorted(targets):
                seeds = derive_seeds(k, 60)
                got = lockstep_runs(env, target, seeds, 10_000_000)
                assert got == scalar_runs(env, target, seeds, 10_000_000)
                runs.update(r[0] == t.depth[target] for r in got)
        assert runs[True] > 100 and runs[False] > 100

    @pytest.mark.parametrize("cap", [0, 1, 2, 3, 6])
    def test_cap_hits(self, rng, cap):
        capped = 0
        for k in range(30):
            t = random_tree(rng, max_edges=20, max_depth=6)
            env = Environment(t, [rng.uniform(0.2, 4.0) for _ in range(t.n_vertices)],
                              [rng.uniform(0.2, 4.0) for _ in range(t.n_vertices)])
            target = rng.randrange(1, t.n_vertices)
            seeds = derive_seeds(100 + k, 40)
            got = lockstep_runs(env, target, seeds, cap)
            assert got == scalar_runs(env, target, seeds, cap)
            capped += sum(r[1] for r in got)
        assert capped > 0

    def test_runs_span_batches(self, rng, monkeypatch):
        """A cell budget of 28 holds 4 lanes toward a depth-6 target, so 101
        seeds take 26 batches."""
        monkeypatch.setattr(walk, "_CELL_BUDGET", 28)
        t = build_regular(3, 6)
        env = Environment(t, [rng.uniform(0.2, 4.0) for _ in range(t.n_vertices)],
                          [rng.uniform(0.2, 4.0) for _ in range(t.n_vertices)])
        for target in (t.leftmost_at_depth(6), t.n_vertices - 1, 2):
            seeds = derive_seeds(11, 101)
            assert (lockstep_runs(env, target, seeds, 10_000_000)
                    == scalar_runs(env, target, seeds, 10_000_000))

    @pytest.mark.parametrize("law", ["det:lambda=1e-308,mu=1", "det:lambda=1,mu=1e-320"])
    def test_clocks_over_a_tiny_rate_overflow_silently(self, law):
        """A clock over lam 1e-308 or mu 1e-320 is +inf in the lockstep
        sweeps as in the scalar run, so the runs stay ==, and numpy's
        overflow warning (an error under the test suite's warning filter)
        stays silent."""
        env = cli.build_environment(cli.parse_tree_spec("regular:d=3,L=3"), law, 1)
        seeds = derive_seeds(1, 100)
        for target in (env.tree.leftmost_at_depth(3), env.tree.n_vertices - 1):
            got = lockstep_runs(env, target, seeds, 10_000_000)
            assert got == scalar_runs(env, target, seeds, 10_000_000)

    def test_needs_non_root_target(self):
        env = assign_deterministic(build_path(2))
        with pytest.raises(ValueError, match="non-root"):
            extension_reach(env, 0, derive_seeds(1, 3), 5)


def handoff_cases(rng, n, seeds, caps):
    """(env, target, seeds, cap, the scalar runs) on n random trees with
    random lam and mu, toward the deepest vertex and a random one."""
    cases = []
    for k in range(n):
        t = random_tree(rng, max_edges=25, max_depth=7)
        env = Environment(t, [rng.uniform(0.2, 4.0) for _ in range(t.n_vertices)],
                          [rng.uniform(0.2, 4.0) for _ in range(t.n_vertices)])
        for target in {t.n_vertices - 1, rng.randrange(1, t.n_vertices)}:
            for cap in caps:
                s = derive_seeds(300 + k, seeds)
                cases.append((env, target, s, cap, scalar_runs(env, target, s, cap)))
    return cases


class TestHandOff:
    """Once a batch is down to _HANDOFF_LANES live lanes, each finishes on
    the scalar runner from the race states its cells hold; the runs stay ==
    the scalar ones whenever the hand-off happens."""

    @staticmethod
    def spy_tail(monkeypatch):
        """Count the runs extension_reach hands off, by (whether the lane
        had stepped before, how the run stopped)."""
        tail = Counter()
        run = walk._extension_run

        def spy(*args):
            traj = run(*args)
            tail[args[7] > 0, traj.stop_reason] += 1
            return traj

        monkeypatch.setattr(walk, "_extension_run", spy)
        return tail

    def test_every_threshold_up_to_the_batch(self, rng, monkeypatch):
        """From 0 (no hand-off) to the batch size (every lane handed off
        before its first step), with caps that bind after the hand-off."""
        cases = handoff_cases(rng, 10, 24, (1, 3, 6, 10, 10_000_000))
        tail = self.spy_tail(monkeypatch)
        for lanes in range(25):
            monkeypatch.setattr(walk, "_HANDOFF_LANES", lanes)
            for env, target, seeds, cap, want in cases:
                assert lockstep_runs(env, target, seeds, cap) == want
        assert tail[True, "max_steps"] > 0 and tail[False, "max_steps"] > 0
        assert tail[True, "hit_depth"] > 0 and tail[True, "root_returns"] > 0

    def test_single_lane_batches(self, rng, monkeypatch):
        """A cell budget of 1 makes every batch one lane: handed off before
        its first step at threshold 1; at 0 only a lane the cap stopped
        reaches the scalar runner, which stops it at once."""
        cases = handoff_cases(rng, 10, 12, (2, 5, 10_000_000))
        monkeypatch.setattr(walk, "_CELL_BUDGET", 1)
        tail = self.spy_tail(monkeypatch)
        for lanes in (0, 1):
            monkeypatch.setattr(walk, "_HANDOFF_LANES", lanes)
            tail.clear()
            for env, target, seeds, cap, want in cases:
                assert lockstep_runs(env, target, seeds, cap) == want
            if lanes:
                assert tail.keys() <= {(False, r) for r in ("max_steps", "hit_depth",
                                                            "root_returns")}
                assert sum(tail.values()) == sum(c[2].size for c in cases)
            else:
                assert tail.keys() == {(True, "max_steps")}

    def test_batches_each_hand_off(self, rng, monkeypatch):
        """201 lanes in batches of 4 toward a depth-6 target, handing off at
        2 live lanes: each batch finishes its own last lanes, and the lone
        lane of the last batch is handed off before its first step."""
        monkeypatch.setattr(walk, "_CELL_BUDGET", 28)
        monkeypatch.setattr(walk, "_HANDOFF_LANES", 2)
        t = build_regular(3, 6)
        env = Environment(t, [rng.uniform(0.2, 4.0) for _ in range(t.n_vertices)],
                          [rng.uniform(0.2, 4.0) for _ in range(t.n_vertices)])
        seeds = derive_seeds(12, 201)
        want = scalar_runs(env, t.leftmost_at_depth(6), seeds, 10_000_000)
        tail = self.spy_tail(monkeypatch)
        assert lockstep_runs(env, t.leftmost_at_depth(6), seeds, 10_000_000) == want
        assert sum(n for (stepped, _), n in tail.items() if not stepped) == 1
        assert sum(tail.values()) > 25


class TestEdgeMcShape:
    """What the lockstep skips on the benchmark's edge-mc shape (the README
    percolate recipe: regular:d=3,L=5, alpha:point=1, depths 1-5)."""

    def test_no_empty_exact_race_and_seeded_hand_off(self, monkeypatch):
        """No _xi_array call is made on an empty selection, and each
        handed-off lane runs on the table its seed makes, with nothing
        seeded into it: no vertex hash and no clock kept yet."""
        env = cli.build_environment(cli.parse_tree_spec("regular:d=3,L=5"), "alpha:point=1", 1)
        exact_sizes, handed = [], Counter()
        xi_array, run = walk._xi_array, walk._extension_run

        def spy_xi(h):
            exact_sizes.append(h.size)
            return xi_array(h)

        def spy_run(first, pf, mu, clocks, path, pos, states, *rest):
            left = [i for i, st in enumerate(states) if st is not None]
            assert left == list(range(1, len(left) + 1))
            assert clocks.seed in lane_seeds
            assert not clocks._vertex and not clocks._clock
            handed[len(left) > 0] += 1
            return run(first, pf, mu, clocks, path, pos, states, *rest)

        monkeypatch.setattr(walk, "_xi_array", spy_xi)
        monkeypatch.setattr(walk, "_extension_run", spy_run)
        for d in range(1, 6):
            seeds = derive_seeds(d, 400)
            lane_seeds = set(seeds.tolist())
            extension_reach(env, env.tree.leftmost_at_depth(d), seeds, 10_000_000)
        assert exact_sizes and min(exact_sizes) > 0
        assert handed[True] > 0


class TestRestriction:
    def test_collapses_consecutive_repeats(self):
        # path positions with off-set excursions marked by ids outside members
        positions = [0, 9, 0, 1, 8, 8, 1, 2, 9, 2, 1]
        assert restriction(positions, {0, 1, 2}) == [0, 1, 2, 1]

    def test_empty_start(self):
        assert restriction([5, 5, 6], {1, 2}) == []


class TestCoincidence:
    def test_extension_equals_restriction_on_shared_clocks(self, rng):
        """The core coupling identity, checked on random trees and biases."""
        mismatches = 0
        for trial in range(200):
            t = random_tree(rng, max_edges=18, max_depth=5)
            deep = [v for v in range(1, t.n_vertices) if t.depth[v] >= 2]
            if not deep:
                continue
            lam = [rng.choice([0.5, 1.0, 2.0, 3.0]) for _ in range(t.n_vertices)]
            mu = [rng.choice([0.5, 1.0, 2.0]) for _ in range(t.n_vertices)]
            env = Environment(t, lam, mu)
            target = rng.choice(deep)
            table = ClockTable(derive_seed(4, trial))
            walk = simulate_rubin(env, StopRule(max_steps=300), table)
            want = restriction(walk.positions, t.root_path(target))
            ext = simulate_extension(env, table, target,
                                     StopRule(max_steps=len(want) - 1))
            if ext.positions != want:
                mismatches += 1
        assert mismatches == 0

    def test_nested_extensions_agree_until_split(self, rng):
        """Extensions toward an ancestor and a descendant coincide until the
        ancestor is first hit, which is what makes openness monotone."""
        t = build_regular(3, 4)
        env = environment_from_alpha(t, [1.0] * t.n_vertices)
        deep = t.leftmost_at_depth(4)
        mid = t.root_path(deep)[2]
        for trial in range(300):
            table = ClockTable(derive_seed(5, trial))
            long = simulate_extension(env, table, deep, StopRule(max_steps=60))
            short = simulate_extension(env, table, mid, StopRule(max_steps=60))
            lp, sp = long.positions, short.positions
            try:
                cut = lp.index(mid)
            except ValueError:
                cut = len(lp)
            assert lp[: cut + 1] == sp[: cut + 1]
