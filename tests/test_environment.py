import ast
import math
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goerw import environment
from goerw.errors import RefusalError
from goerw.environment import (
    AlphaDistribution,
    Environment,
    Psi,
    assign_deterministic,
    environment_from_alpha,
    log_Psi,
    psi,
    rt_estimate,
    sample_random_environment,
)
from goerw.cli import build_environment, parse_tree_spec
from goerw.tree import (branching_ruin_estimate, build_path, build_regular, path_family,
                        polynomial_family, regular_family)

from conftest import (chain_tree, cut_dp_ref, phi, potentials_ref, psi_simplified,
                      random_broom, random_tree, resistance, rt_hypothesis_sup)


def reference_potentials(env):
    """R, phi, psi, log Psi and Psi per vertex, each computed by walking the
    vertex's own root path, in the same arithmetic order as the package."""
    tree = env.tree
    out = {}
    for v in range(1, tree.n_vertices):
        R_u = phi_u = logpsi = 0.0
        phis = {0: 0.0}
        for u in tree.root_path(v)[1:]:
            w = tree.parent[u]
            if tree.depth[u] == 1:
                R_u = 1.0
                psi_u = 1.0
                phi_u = phi_u + R_u
            else:
                R_u = R_u * env.mu[w]
                phi_u = phi_u + R_u
                degw = len(tree.children[w]) + 1
                lamw, muw = env.lam[w], env.mu[w]
                drop = 1.0 - phis[tree.parent[w]] / phi_u
                factor = (lamw + (degw - 2) * muw / (muw + 1.0)) / (lamw + degw - 1.0)
                psi_u = 1.0 - drop * factor
            phis[u] = phi_u
            logpsi = logpsi + math.log(psi_u)
        out[v] = (R_u, phi_u, psi_u, logpsi, math.exp(logpsi))
    return out


class TestPotentialPass:
    """The forward pass over breadth-first ids reproduces the root-path
    computation bit for bit, whatever order the vertices are asked in."""

    @pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
    def test_matches_root_path_reference_bitwise(self, rng, order):
        for _ in range(60):
            t = random_tree(rng, max_edges=30, max_depth=8)
            lam = [rng.uniform(0.1, 5.0) for _ in range(t.n_vertices)]
            mu = [rng.uniform(0.1, 5.0) for _ in range(t.n_vertices)]
            ref = reference_potentials(Environment(t, lam, mu))
            ids = list(range(1, t.n_vertices))
            if order == "descending":
                ids.reverse()
            elif order == "shuffled":
                rng.shuffle(ids)
            for k, query in enumerate((resistance, phi, psi, log_Psi, Psi)):
                env = Environment(t, lam, mu)
                for v in ids:
                    assert query(env, v) == ref[v][k]

    def test_chains_match_root_path_reference_bitwise(self, rng):
        """Levels in which every vertex has one child go by accumulate."""
        for _ in range(60):
            t = random_broom(rng, max_edges=20, max_depth=5)
            lam = [rng.uniform(0.1, 5.0) for _ in range(t.n_vertices)]
            mu = [rng.uniform(0.1, 5.0) for _ in range(t.n_vertices)]
            env = Environment(t, lam, mu)
            ref = reference_potentials(env)
            for k, query in enumerate((resistance, phi, psi, log_Psi, Psi)):
                for v in range(1, t.n_vertices):
                    assert query(env, v) == ref[v][k]

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_log_Psi_never_increases_down_a_path(self, seed):
        """psi lies in [0, 1], so log Psi at a child is at most its
        parent's: the property that lets the cutset passes skip weights.
        Extreme biases round some psi to 0 or 1."""
        rng = random.Random(seed)
        t = (random_tree if seed % 2 else random_broom)(rng, max_edges=40, max_depth=8)

        def bias(pool):
            return rng.choice(pool) if rng.random() < 0.2 else rng.uniform(0.1, 5.0)

        # a mu of 1e300 would overflow R two levels down
        env = Environment(t, [bias([1e-300, 1e-8, 1e8, 1e300]) for _ in t.parent],
                          [bias([1e-8, 1e8]) for _ in t.parent])
        lp = [log_Psi(env, v) for v in range(1, t.n_vertices)]
        assert all(x <= 0.0 for x in lp)
        assert all(lp[v - 1] <= lp[t.parent[v] - 1] for v in range(1, t.n_vertices)
                   if t.parent[v] > 0)

    @pytest.mark.parametrize("mu,table", [
        ([1.0, 1e200, 1e200, 1.0, 1.0], "R"),   # R(3) = 1e400
        ([1.0, 1e308, 1.0, 1.0, 1.0], "phi"),   # R(3) finite, phi(3) = 1 + 2e308
    ])
    def test_overflow_refused_naming_the_vertex(self, mu, table):
        env = Environment(build_path(4), [1.0] * 5, mu)
        with pytest.raises(RefusalError) as e:
            psi(env, 1)
        assert str(e.value) == f"{table} at vertex 3 is inf: the potential pass overflows float64"
        assert "potentials" not in vars(env)

    def test_largest_finite_tables_kept(self):
        """mu = 1e154 leaves R(3) = 1e308 and phi(3) below the float range:
        the pass computes, with the same values as the root-path loop."""
        env = Environment(build_path(3), [1.0] * 4, [1.0, 1e154, 1e154, 1.0])
        ref = reference_potentials(env)
        assert resistance(env, 3) == ref[3][0] == 1e154 * 1e154
        assert [phi(env, v) for v in (1, 2, 3)] == [ref[v][1] for v in (1, 2, 3)]

    def test_root_only_tree(self):
        env = assign_deterministic(build_regular(3, 0))
        assert (phi(env, 0), vars(env)["potentials"][0].tolist()) == (0.0, [0.0])

    def test_nothing_computed_before_first_query(self):
        t = build_regular(3, 5)
        env = assign_deterministic(t, lam=2.0)
        assert not {"potentials", "first_visit", "later_visit"} & vars(env).keys()
        psi(env, 4)
        assert [len(table) for table in vars(env)["potentials"]] == [t.n_vertices] * 4


class TestOneLogPerDistinctPsi:
    """The potential pass takes math.log once per distinct psi and gathers it back
    to every edge: the four tables are bitwise the per-entry form
    (conftest.potentials_ref) where no psi repeats, where they repeat and
    where one is 0."""

    @staticmethod
    def assert_bitwise(env):
        got, want = env.potentials, potentials_ref(env)
        assert [t.tobytes() for t in got] == [t.tobytes() for t in want]

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_continuous_biases(self, seed):
        rng = random.Random(seed)
        t = (random_tree if seed % 2 else random_broom)(rng, max_edges=40, max_depth=8)
        env = Environment(t, [rng.uniform(0.1, 5.0) for _ in t.parent],
                          [rng.uniform(0.1, 5.0) for _ in t.parent])
        deep = slice(t.levels.starts[2], None)  # psi is one value per parent there
        assert np.unique(env.potentials[2][deep]).size == np.unique(t.levels.parent[deep]).size
        self.assert_bitwise(env)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(["path:L=24", "regular:d=3,L=6", "poly:b=1.2,L=24",
                            "poly:b=1.5,L=16"]),
           st.sampled_from(["alpha:point=1", "alpha:two=0,3,0.5",
                            "alpha:support=0,1,3;probs=0.5,0.25,0.25",
                            "det:lambda=2,mu=1", "det:lambda=0.5,mu=3"]),
           st.integers(0, 2**32 - 1))
    def test_atom_laws_on_family_trees(self, tree_spec, env_spec, seed):
        self.assert_bitwise(build_environment(parse_tree_spec(tree_spec), env_spec, seed))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_zero_psi(self, seed):
        """A first-visit bias of 1e300 at depth 1 rounds psi below it to 0,
        and log Psi to -inf from there down."""
        rng = random.Random(seed)
        t = (random_tree if seed % 2 else random_broom)(rng, max_edges=40, max_depth=8)
        lam = [1e300 if t.depth[v] == 1 else rng.uniform(0.1, 5.0) for v in range(t.n_vertices)]
        env = Environment(t, lam, [rng.uniform(0.1, 5.0) for _ in t.parent])
        ps = env.potentials[2]
        assert (ps == 0.0).any() == (t.truncation_depth >= 2)
        self.assert_bitwise(env)

    @pytest.mark.parametrize("width", [3, 300], ids=["narrow", "wide"])
    @pytest.mark.parametrize("dead_end", [False, True], ids=["no-dead-end", "dead-end"])
    def test_leaves_that_divide_by_zero_and_wide_chains(self, width, dead_end):
        """The bias factor is taken at every vertex and gathered at the
        parents. At a leaf with lam = 1e-300 its denominator rounds to 0: it
        divides by 0 (mu = 1e8) or takes 0 / 0 (mu = 1e-300), warning nothing
        (tier-1 turns warnings into errors), and no edge reads it. Chains are
        narrow and wide: Tree.scan_down runs one accumulate or one op call a
        level (tree._scan)."""
        t = chain_tree(width, 4, dead_end)
        rng = random.Random(f"{width} {dead_end}")
        lam = [rng.uniform(0.1, 5.0) for _ in t.parent]
        mu = [rng.uniform(0.1, 5.0) for _ in t.parent]
        for leaf, m in zip(np.flatnonzero(t.levels.kids == 0)[:2].tolist(), (1e8, 1e-300)):
            lam[leaf], mu[leaf] = 1e-300, m
            assert (1e-300 + t.float_degrees[leaf]) - 1.0 == 0.0
        self.assert_bitwise(Environment(t, lam, mu))

    def test_one_log_per_distinct_psi(self, monkeypatch):
        """The benchmark's flow tree, poly:b=1.5,L=64 under a two-atom law:
        9,216 vertices and about a hundred distinct psi values."""
        env = build_environment(parse_tree_spec("poly:b=1.5,L=64"), "alpha:two=0,3,0.5", 5)
        calls = []
        log = math.log
        with monkeypatch.context() as m:
            m.setattr(math, "log", lambda x: calls.append(x) or log(x))
            ps = env.potentials[2]
        assert len(calls) == np.unique(ps).size < env.tree.n_vertices // 50
        assert sorted(calls) == np.unique(ps).tolist()


class TestResistanceAndPotential:
    def test_doubling_bias_resistances(self):
        t = build_path(4)
        env = assign_deterministic(t, lam=1.0, mu=2.0)
        assert resistance(env, 1) == 1.0
        assert resistance(env, 2) == 2.0
        assert resistance(env, 3) == 4.0

    def test_doubling_bias_potential(self):
        t = build_path(4)
        env = assign_deterministic(t, lam=1.0, mu=2.0)
        assert phi(env, 3) == 7.0
        assert phi(env, 0) == 0.0

    def test_unbiased_potential_is_depth(self):
        t = build_regular(3, 4)
        env = assign_deterministic(t)
        for v in (1, 4, t.leftmost_at_depth(4)):
            assert phi(env, v) == float(t.depth[v])

    def test_root_names_no_edge(self):
        env = assign_deterministic(build_path(2))
        with pytest.raises(ValueError):
            psi(env, 0)


class TestPsi:
    def test_unbiased_on_path(self):
        t = build_path(10)
        env = assign_deterministic(t)
        for v in range(1, 11):
            n = t.depth[v]
            assert psi(env, v) == pytest.approx(1.0 if n == 1 else 1 - 1 / n, rel=1e-14)
            assert Psi(env, v) == pytest.approx(1.0 / n, rel=1e-13)

    def test_excitement_one_on_ternary(self):
        t = build_regular(3, 5)
        env = environment_from_alpha(t, [1.0] * t.n_vertices)
        path = t.root_path(t.leftmost_at_depth(5))
        expected_psi = [1.0, 1 / 4, 1 / 2, 5 / 8, 7 / 10]
        expected_Psi = [1.0, 1 / 4, 1 / 8, 5 / 64, 7 / 128]
        for v, ep, eP in zip(path[1:], expected_psi, expected_Psi):
            assert psi(env, v) == pytest.approx(ep, rel=1e-13)
            assert Psi(env, v) == pytest.approx(eP, rel=1e-13)

    def test_excitement_one_degree_cancels(self):
        # same alpha on a bare path gives the same psi values as the ternary
        t = build_path(5)
        env = environment_from_alpha(t, [1.0] * 6)
        assert psi(env, 3) == pytest.approx(0.5, rel=1e-14)
        assert Psi(env, 5) == pytest.approx(7 / 128, rel=1e-13)

    def test_Psi_is_product_of_psi(self, rng):
        t = random_tree(rng, max_edges=18, max_depth=6)
        alpha = [rng.uniform(0, 3) for _ in range(t.n_vertices)]
        env = environment_from_alpha(t, alpha)
        v = max(range(t.n_vertices), key=lambda u: t.depth[u])
        prod = 1.0
        for u in t.root_path(v)[1:]:
            prod *= psi(env, u)
        assert Psi(env, v) == pytest.approx(prod, rel=1e-12)
        assert log_Psi(env, v) == pytest.approx(math.log(prod), abs=1e-12)

    def test_psi_stays_in_unit_interval(self, rng):
        for _ in range(50):
            t = random_tree(rng, max_edges=20, max_depth=6)
            lam = [rng.uniform(0.1, 5.0) for _ in range(t.n_vertices)]
            mu = [rng.uniform(0.1, 5.0) for _ in range(t.n_vertices)]
            env = Environment(t, lam, mu)
            for v in range(1, t.n_vertices):
                assert 0.0 < psi(env, v) <= 1.0

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_simplified_formula_matches_general(self, seed):
        r = random.Random(seed)
        t = random_tree(r, max_edges=16, max_depth=6)
        alpha = [r.choice([0.0, 0.25, 1.0, r.uniform(0, 10)]) for _ in range(t.n_vertices)]
        env = environment_from_alpha(t, alpha)
        for v in range(1, t.n_vertices):
            d = t.depth[v]
            expect = psi_simplified(env.alpha[t.parent[v]], d)
            assert psi(env, v) == pytest.approx(expect, rel=1e-12)

    def test_simplified_formula_validates_depth(self):
        with pytest.raises(ValueError):
            psi_simplified(1.0, 0)


class TestAlphaDistribution:
    def test_point_mass_m(self):
        assert AlphaDistribution.point(0.0).m == 1.0
        assert AlphaDistribution.point(1.0).m == 0.5

    def test_two_point_m(self):
        dist = AlphaDistribution.two_point(0.0, 3.0, 0.5)
        assert dist.m == pytest.approx(0.625)

    @pytest.mark.parametrize("law", [AlphaDistribution.two_point(0.0, 3.0, 0.0),
                                     AlphaDistribution((0.0, 3.0), (1.0, 0.0))],
                             ids=["two", "support"])
    def test_a_law_is_its_atoms_of_positive_mass(self, law):
        assert law == AlphaDistribution.point(0.0)
        assert law.spec_string() == "alpha:point=0"
        assert AlphaDistribution((2.0, 0.0, 3.0), (0.5, 0.0, 0.5)).values == (2.0, 3.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            AlphaDistribution((-1.0,), (1.0,))
        with pytest.raises(ValueError):
            AlphaDistribution((1.0,), (0.7,))
        with pytest.raises(ValueError):
            AlphaDistribution((1.0, 2.0), (0.5,))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entries_named(self, bad):
        with pytest.raises(ValueError, match=f"finite, got {bad!r}"):
            AlphaDistribution.point(bad)
        with pytest.raises(ValueError, match=f"finite, got {bad!r}"):
            AlphaDistribution((0.0, 3.0), (bad, 0.5))
        with pytest.raises(ValueError, match=f"finite, got {bad!r}"):
            AlphaDistribution.two_point(0.0, bad, 0.5)

    def test_sampling_is_seeded_and_on_support(self):
        t = build_regular(3, 3)
        dist = AlphaDistribution.two_point(0.0, 3.0, 0.5)
        e1 = sample_random_environment(t, dist, seed=11)
        e2 = sample_random_environment(t, dist, seed=11)
        e3 = sample_random_environment(t, dist, seed=12)
        assert e1.alpha.dtype == e3.alpha.dtype == np.float64
        assert e1.alpha.tolist() == e2.alpha.tolist()
        assert e1.alpha.tolist() != e3.alpha.tolist()
        assert set(e1.alpha.tolist()) <= {0.0, 3.0}

    @pytest.mark.parametrize("values, probs", [
        ((1.5,), (1.0,)),
        ((0.0, 3.0), (0.5, 0.5)),
        ((0.0, 1.0, 3.0), (0.2, 0.3, 0.5)),
        ((2.0, 0.5, 1.0), (0.1, 0.2, 0.7)),  # cumulative 0.1, 0.30000000000000004, 1.0
        ((2.0, 0.5, 1.0), (0.7, 0.2, 0.1)),  # the last is 0.9999999999999999: clipped
        # zero-mass atoms are dropped, and the draws stay the listed law's
        ((0.0, 1.0, 3.0), (0.25, 0.0, 0.75)),
        ((1.0, 0.0, 3.0), (0.0, 0.5, 0.5)),
    ])
    def test_sample_equals_searchsorted(self, monkeypatch, values, probs):
        """The atom index of each uniform is the inverse transform's:
        searchsorted on the cumulative weights, side right, clipped to the
        last atom, also for a uniform exactly at a cumulative weight or next
        to one."""
        dist = AlphaDistribution(values, probs)
        cum = np.cumsum(probs)
        edges = cum.tolist() + [0.0, 1.0 - 2.0 ** -53]
        u = np.array(edges + [math.nextafter(x, d) for x in edges for d in (0.0, 2.0)]
                     + np.random.default_rng(3).random(1000).tolist())

        class Uniforms:
            def random(self, size):
                assert size == u.size
                return u.copy()

        monkeypatch.setattr(np.random, "default_rng", lambda seed: Uniforms())
        want = np.asarray(values).take(np.searchsorted(cum, u, side="right"), mode="clip")
        got = np.asarray(dist.values).take(dist._index(0, u.size))
        assert got.tolist() == want.tolist()

    def test_point_mass_draws_nothing(self, monkeypatch):
        def no_draw(*args):
            raise AssertionError("a one-atom law drew alphas")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        t = build_regular(3, 3)
        ref = environment_from_alpha(t, [1.5] * t.n_vertices)
        for seed in (1, 2):
            env = sample_random_environment(t, AlphaDistribution.point(1.5), seed)
            assert env.lam.dtype == env.mu.dtype == env.alpha.dtype == np.float64
            assert env.lam.tolist() == ref.lam.tolist()
            assert env.mu.tolist() == ref.mu.tolist()
            assert env.alpha.tolist() == ref.alpha.tolist()

    def test_sampling_frequencies_rough(self):
        t = build_regular(3, 7)  # 190 vertices... more below
        dist = AlphaDistribution.two_point(0.0, 3.0, 0.5)
        env = sample_random_environment(t, dist, seed=5)
        frac = np.mean(np.asarray(env.alpha[1:]) == 3.0)
        assert 0.4 < frac < 0.6

    def test_alpha_sets_lambda_through_degree(self):
        t = build_regular(3, 2)
        env = environment_from_alpha(t, [1.0] * t.n_vertices)
        assert env.lam[1] == 4.0  # degree 3, alpha 1
        assert env.mu[1] == 1.0
        assert env.lam[4] == 2.0  # truncation leaf, degree 1


class TestHypothesisSup:
    def test_doubling_bias_path(self):
        t = build_path(3)
        env = assign_deterministic(t, mu=2.0)
        assert rt_hypothesis_sup(env) == pytest.approx(2.0)

    def test_unbiased_value(self):
        t = build_regular(3, 4)
        env = assign_deterministic(t)
        assert rt_hypothesis_sup(env) == pytest.approx(1.0)

    def test_equals_scalar_max(self, rng):
        for _ in range(60):
            t = random_tree(rng, max_edges=30, max_depth=7)
            if t.truncation_depth < 2:
                continue
            env = Environment(t, [1.0] * t.n_vertices,
                              [rng.uniform(0.1, 5.0) for _ in range(t.n_vertices)])
            best = 0.0
            for v in range(1, t.n_vertices):
                if t.depth[v] >= 2:
                    val = resistance(env, v) / phi(env, t.parent[v])
                    if val > best:
                        best = val
            got = rt_hypothesis_sup(env)
            assert type(got) is float and got == best

    def test_shallow_tree_warns(self):
        t = build_path(1)
        env = assign_deterministic(t)
        with pytest.warns(UserWarning, match="vacuous"):
            assert rt_hypothesis_sup(env) == 0.0


class TestRtEstimate:
    def test_unbiased_matches_growth_table(self):
        fam = polynomial_family(1.2)
        grid = [0.5, 1.0, 1.5]
        depths = [4, 8, 16]
        growth = branching_ruin_estimate(fam, grid, depths)

        def pairs(L):
            t = fam.build(L)
            return t, assign_deterministic(t)

        ruin = rt_estimate(pairs, grid, depths)
        for key, val in growth.values.items():
            assert ruin.values[key] == pytest.approx(val, rel=1e-9)
        assert ruin.estimate == growth.estimate

    def test_excitement_shifts_values_down(self):
        fam = polynomial_family(1.2)

        def pairs(L):
            t = fam.build(L)
            return t, environment_from_alpha(t, [1.0] * t.n_vertices)

        plain = rt_estimate(lambda L: (fam.build(L), assign_deterministic(fam.build(L))),
                            [1.0], [8])
        excited = rt_estimate(pairs, [1.0], [8])
        assert excited.values[(1.0, 8)] < plain.values[(1.0, 8)]


    @pytest.mark.parametrize("cells", [None, 1, 64])
    def test_equals_scalar_tables(self, rng, monkeypatch, cells):
        """One random tree cut at every depth: many-gamma DPs that cut every
        depth in one pass, one block per depth, as many gammas per pass as
        fit in the cell budget (blocks x rows x cells), against one scalar
        DP per gamma and depth."""
        if cells is not None:
            monkeypatch.setattr(environment, "_RT_CELLS", cells)
        shapes = []
        solve = environment._cut_dp
        monkeypatch.setattr(environment, "_cut_dp", lambda t, w, d: shapes.append(
            (len(d),) + w.shape) or solve(t, w, d))
        grid = [0.0, *(0.1 * g for g in range(1, 31)), 250.0]
        passes = 0
        for _ in range(3):
            t = random_tree(rng, max_edges=30, max_depth=6)
            env = Environment(t, [rng.uniform(0.1, 5.0) for _ in range(t.n_vertices)],
                              [rng.uniform(0.1, 5.0) for _ in range(t.n_vertices)])
            depths = list(range(1, t.truncation_depth + 1))
            table = rt_estimate(lambda L: (t, env), grid, depths)
            assert sorted(table.values) == sorted((g, L) for g in grid for L in depths)
            for (g, L), value in table.values.items():
                want = cut_dp_ref(t, lambda e: math.exp(g * log_Psi(env, e)), L)[0]
                assert type(value) is float and repr(value) == repr(want)
            passes += len(grid) * len(depths)
        budget = environment._RT_CELLS
        assert all(blocks * rows * n <= budget or blocks == rows == 1
                   for blocks, rows, n in shapes)
        assert sum(blocks * rows for blocks, rows, _ in shapes) == passes

    @pytest.mark.parametrize("family", [path_family(), regular_family(3),
                                        polynomial_family(1.5)], ids=["path", "regular", "poly"])
    @pytest.mark.parametrize("law", ["det:lambda=2,mu=1.5", "alpha:point=1",
                                     "alpha:two=0,3,0.5", "alpha:support=0,1,3;probs=0.2,0.3,0.5"])
    def test_one_pair_for_every_depth(self, family, law):
        """The pair is built once, for the deepest depth, and each depth's
        rows are repr-equal to the table of that depth's own pair."""
        calls = []

        def pair(L):
            calls.append(L)
            t = family.build(L)
            return t, build_environment(t, law, 9)

        grid = [0.0, 0.5, 1.0, 2.5]
        depths = [1, 2, 5, 7] if family.name == "regular-3" else [1, 3, 8, 20]
        table = rt_estimate(pair, grid, depths[::-1])
        assert calls == [depths[-1]]
        for L in depths:
            single = rt_estimate(pair, grid, [L])
            assert repr([row for row in table.rows() if row[1] == L]) == repr(single.rows())

    @pytest.mark.parametrize("depths,message", [
        ([0, 2], "depth 0 is below 1"),
        ([-3, 4], "depth -3 is below 1"),
        ([2, 5], "depth 5 exceeds the tree depth 4"),
    ])
    def test_depth_outside_the_tree_refused(self, depths, message):
        t = build_path(4)
        with pytest.raises(ValueError, match=message):
            rt_estimate(lambda L: (t, assign_deterministic(t)), [1.0], depths)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_benchmark_shapes_equal_scalar_tables(self, seed):
        """poly:b=1.5 under a two-atom law: chains 128 wide below a
        branching level, where most weights are never evaluated."""
        fam = polynomial_family(1.5)
        dist = AlphaDistribution.two_point(0.0, 3.0, 0.5)
        pairs = {}
        for L in (8, 16, 32):
            t = fam.build(L)
            pairs[L] = t, sample_random_environment(t, dist, seed)
        grid = [round(0.1 * g, 10) for g in range(1, 31)]
        table = rt_estimate(pairs.__getitem__, grid, list(pairs))
        for (g, L), value in table.values.items():
            t, env = pairs[L]
            want = cut_dp_ref(t, lambda e: math.exp(g * log_Psi(env, e)), L)[0]
            assert repr(value) == repr(want)

    def test_exp_only_where_a_cut_reads(self, monkeypatch):
        """30 gammas on poly:b=1.5,L=32 (1,792 vertices) evaluate exp at
        the 255 vertices with other than one child (127 with two, the 128
        on the cut), 30 times each."""
        calls = []
        each = environment._each
        monkeypatch.setattr(environment, "_each", lambda f, x: (
            calls.append(x.size) if f is math.exp else None) or each(f, x))
        t = polynomial_family(1.5).build(32)
        env = environment_from_alpha(t, [1.0] * t.n_vertices)
        rt_estimate(lambda L: (t, env), [0.1 * g for g in range(1, 31)], [32])
        read = int((t.levels.kids != 1).sum())
        assert (t.n_vertices, read, int((t.levels.kids > 1).sum())) == (1792, 255, 127)
        assert sum(calls) == 30 * read

    def test_zero_psi_weighs_zero_to_the_gamma(self):
        """psi rounds to 0 at depth 2 under alpha = 1e300: every deeper edge
        weighs 0.0 ** gamma, 1 at gamma 0, never NaN."""
        fam = polynomial_family(1.5)

        def pairs(L):
            t = fam.build(L)
            return t, environment_from_alpha(t, [1e300] * t.n_vertices)

        def weight(env, g, e):
            return 0.0 ** g if Psi(env, e) == 0.0 else math.exp(g * log_Psi(env, e))

        grid = [0.0, 0.5, 1.0, 7.0]
        table = rt_estimate(pairs, grid, [4, 8])
        for (g, L), value in table.values.items():
            t, env = pairs(L)
            assert repr(value) == repr(cut_dp_ref(t, lambda e: weight(env, g, e), L)[0])
        assert [table.values[(g, 8)] for g in grid] == [1.0, 0.0, 0.0, 0.0]

    @pytest.mark.parametrize("gamma", [-0.5, -1e-300, math.nan, -math.inf])
    def test_negative_or_nan_gamma_refused(self, gamma):
        t = build_path(4)
        with pytest.raises(ValueError,
                           match=f"gamma must be finite and at least 0, got {gamma!r}"):
            rt_estimate(lambda L: (t, assign_deterministic(t)), [1.0, gamma], [4])


class TestValidation:
    def test_bias_positivity(self):
        t = build_path(2)
        with pytest.raises(ValueError, match="positive"):
            assign_deterministic(t, lam=0.0)
        with pytest.raises(ValueError, match="positive"):
            assign_deterministic(t, mu=-1.0)

    def test_caller_lists_left_alone(self):
        t = build_path(2)
        lam = [5.0, 2.0, 2.0]
        mu = [3.0, 1.0, 1.0]
        env = Environment(t, lam, mu)
        assert lam[0] == 5.0 and mu[0] == 3.0
        assert env.lam[0] == 1.0 and env.mu[0] == 1.0

    def test_length_mismatch(self):
        t = build_path(2)
        with pytest.raises(ValueError, match="per vertex"):
            environment_from_alpha(t, [1.0, 1.0])


def test_tables_are_derived_only_through_the_attributes():
    """environment.py is the one module that names the table builders
    _potentials and _first_visit: every other module reads an environment's
    tables through Environment.potentials, first_visit and later_visit."""
    builders = {"_potentials", "_first_visit"}
    touched = []
    for path in sorted(Path(environment.__file__).parent.glob("*.py")):
        if path.name == "environment.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            # a Name's id, an Attribute's attr, an import alias's or a def's name
            names = (getattr(node, key, None) for key in ("id", "attr", "name"))
            touched += [f"{path.name}:{node.lineno} {x}" for x in names if x in builders]
    assert touched == []
