import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goerw.environment import (
    AlphaDistribution,
    Environment,
    Psi,
    assign_deterministic,
    environment_from_alpha,
    log_Psi,
    phi,
    psi,
    psi_simplified,
    read_env_file,
    resistance,
    rt_estimate,
    rt_hypothesis_sup,
    sample_random_environment,
    write_env_file,
)
from goerw.tree import branching_ruin_estimate, build_path, build_regular, polynomial_family

from conftest import random_tree


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
                degw = tree.deg(w)
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

    def test_nothing_computed_before_first_query(self):
        t = build_regular(3, 5)
        env = assign_deterministic(t, lam=2.0)
        assert env._R == [] and env._trans is None
        psi(env, 4)
        assert len(env._R) == 5


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
            resistance(env, 0)
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
            env = assign_deterministic(
                t,
                lam=lambda v, r=rng: r.uniform(0.1, 5.0),
                mu=lambda v, r=rng: r.uniform(0.1, 5.0),
            )
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
        assert e1.alpha == e2.alpha
        assert e1.alpha != e3.alpha
        assert set(e1.alpha) <= {0.0, 3.0}
        assert e1.m == pytest.approx(0.625)

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


class TestEnvFile:
    def test_round_trip_with_alpha(self, tmp_path):
        t = build_regular(3, 3)
        dist = AlphaDistribution.two_point(0.0, 3.0, 0.25)
        env = sample_random_environment(t, dist, seed=42)
        p = str(tmp_path / "e.env")
        write_env_file(env, p)
        back = read_env_file(p, t)
        assert back.lam == env.lam
        assert back.mu == env.mu
        assert back.alpha == env.alpha
        assert back.m == env.m
        assert back.seed == 42
        assert back.dist_spec == env.dist_spec

    def test_round_trip_deterministic(self, tmp_path):
        t = build_path(3)
        env = assign_deterministic(t, lam=2.0, mu=0.5)
        p = str(tmp_path / "e.env")
        write_env_file(env, p)
        back = read_env_file(p, t)
        assert back.lam == env.lam
        assert back.mu == env.mu
        assert back.alpha is None
        assert back.m is None and back.seed is None

    def test_row_count_checked(self, tmp_path):
        t = build_path(3)
        env = assign_deterministic(t)
        p = str(tmp_path / "e.env")
        write_env_file(env, p)
        with pytest.raises(ValueError, match="rows"):
            read_env_file(p, build_path(5))

    def test_header_checked(self, tmp_path):
        p = tmp_path / "bad.env"
        p.write_text("0 1.0 1.0\n")
        with pytest.raises(ValueError, match="goerw-env"):
            read_env_file(str(p), build_path(1))


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
