"""The bias tables built on whole arrays equal, bit for bit, the per-vertex
loops they replaced: lam, mu and alpha of the alpha family, and the direct
walk's parent-step probabilities pf and pl."""

import math
import random

import numpy as np
import pytest

import goerw.cli as cli
from goerw.environment import Environment, environment_from_alpha
from goerw.tree import build_path, build_regular
from goerw.walk import _transition_table, derive_seed

from conftest import random_tree


# ---------------------------------------------------------------------------
# the per-vertex loops, kept as the reference; degrees are counted here from
# the child lists, not read from Tree


def ref_deg(tree, v):
    return len(tree.children[v]) + (v != 0)


def ref_alpha_env(tree, alpha):
    """(alpha, lam, mu) of the alpha family, one vertex at a time."""
    alpha = [float(a) for a in alpha]
    alpha[0] = 0.0
    lam = [1.0 + alpha[v] * ref_deg(tree, v) for v in range(tree.n_vertices)]
    return alpha, lam, [1.0] * tree.n_vertices


def ref_tables(tree, lam, mu):
    """(pf, pl): lam/(lam + d - 1) and mu/(mu + d - 1), 0 at the root."""
    n = tree.n_vertices
    pf = [0.0] * n
    pl = [0.0] * n
    for v in range(1, n):
        d = ref_deg(tree, v)
        pf[v] = lam[v] / (lam[v] + d - 1)
        pl[v] = mu[v] / (mu[v] + d - 1)
    return pf, pl


def assert_tables_equal(env, alpha, lam, mu):
    assert env.alpha == alpha
    assert env.lam == lam
    assert env.mu == mu
    assert all(type(x) is float for x in env.lam + env.mu)
    pf, pl = _transition_table(env)
    assert (pf, pl) == ref_tables(env.tree, lam, mu)
    assert all(type(x) is float for x in pf + pl)


def random_alpha(rng, n):
    pool = [0.0, 5e-324, 1e-300, 1e-17, 1e-9, 0.5, 1.0, 3.0, 1e6, 1e12, 1e250]
    return [rng.choice(pool) if rng.random() < 0.5 else rng.uniform(0.0, 50.0)
            for _ in range(n)]


def test_degrees_count_neighbors():
    t = build_regular(3, 3)
    assert t.degrees.dtype == np.int64
    assert t.degrees.tolist() == [ref_deg(t, v) for v in range(t.n_vertices)]
    assert t.degrees is t.degrees
    assert [t.deg(v) for v in range(t.n_vertices)] == t.degrees.tolist()
    with pytest.raises(ValueError):
        t.degrees[1] = 7


def test_alpha_family_matches_loop_on_random_trees():
    rng = random.Random(0xA1FA)
    seen = set()
    for _ in range(240):
        t = random_tree(rng, max_edges=60, max_depth=12)
        alpha = random_alpha(rng, t.n_vertices)
        seen.update(alpha)
        ref = ref_alpha_env(t, alpha)
        assert_tables_equal(environment_from_alpha(t, alpha), *ref)
        assert_tables_equal(environment_from_alpha(t, np.array(alpha)), *ref)
    assert {0.0, 5e-324, 1e250} <= seen


def test_direct_biases_match_loop():
    rng = random.Random(0xB1A5)
    for _ in range(200):
        t = random_tree(rng, max_edges=40, max_depth=10)
        lam = [rng.choice([1e-9, 1.0, 1e9]) if rng.random() < 0.2
               else rng.uniform(0.01, 20.0) for _ in range(t.n_vertices)]
        mu = [rng.uniform(0.01, 20.0) for _ in range(t.n_vertices)]
        env = Environment(t, lam, mu)
        assert_tables_equal(env, None, [1.0, *lam[1:]], [1.0, *mu[1:]])


@pytest.mark.parametrize("spec", [
    "det:lambda=2.5,mu=0.3",
    "det:mu=2",
    "alpha:point=1",
    "alpha:point=0",
    "alpha:two=0,3,0.5",
    "alpha:support=0,0.25,7;probs=0.2,0.3,0.5",
])
@pytest.mark.parametrize("tree_spec", ["path:L=12", "regular:d=3,L=5",
                                       "poly:b=1.2,L=64"])
def test_every_cli_spec_kind_matches_loop(spec, tree_spec):
    t = cli.parse_tree_spec(tree_spec)
    n = t.n_vertices
    kind, payload = cli.parse_env_spec(spec)
    for seed in range(3):
        env = cli.build_environment(t, spec, seed)
        if kind == "det":
            lam, mu = payload
            assert_tables_equal(env, None, [1.0] + [lam] * (n - 1),
                                [1.0] + [mu] * (n - 1))
        elif len(payload.values) == 1:
            assert_tables_equal(env, *ref_alpha_env(t, [payload.values[0]] * n))
        else:
            rng = np.random.default_rng(derive_seed(seed, 0xE17))
            alpha = payload.sample(rng, n).tolist()
            assert_tables_equal(env, *ref_alpha_env(t, alpha))


def test_caller_sequences_left_alone():
    t = build_regular(3, 2)
    n = t.n_vertices
    alpha = [2.0] * n
    environment_from_alpha(t, alpha)
    assert alpha == [2.0] * n
    alpha_arr = np.full(n, 2.0)
    environment_from_alpha(t, alpha_arr)
    assert alpha_arr.tolist() == [2.0] * n
    lam = [5.0] * n
    mu = [3.0] * n
    env = Environment(t, lam, mu)
    _transition_table(env)
    assert lam == [5.0] * n and mu == [3.0] * n
    lam_arr, mu_arr = np.full(n, 5.0), np.full(n, 3.0)
    Environment(t, lam_arr, mu_arr)
    assert lam_arr.tolist() == [5.0] * n and mu_arr.tolist() == [3.0] * n


def test_table_is_built_on_first_walk_only():
    t = build_path(4)
    env = environment_from_alpha(t, [1.0] * t.n_vertices)
    assert env._trans is None
    first = _transition_table(env)
    assert _transition_table(env) is first


class TestRejection:
    """A bad bias is named by its first vertex in id order, with the
    message the per-vertex loop gave for a non-positive one."""

    @pytest.mark.parametrize("bad, word", [
        (0.0, "positive"), (-2.0, "positive"), (-math.inf, "finite"),
        (math.nan, "finite"), (math.inf, "finite"),
    ])
    def test_first_bad_vertex_named(self, bad, word):
        t = build_path(6)
        for v in range(1, t.n_vertices):
            for which in ("lam", "mu"):
                biases = {"lam": [1.0] * t.n_vertices, "mu": [1.0] * t.n_vertices}
                biases[which][v] = bad
                # a later bad vertex of the other kind is not the one named
                if v + 1 < t.n_vertices:
                    biases["mu"][v + 1] = math.nan if word == "positive" else -1.0
                with pytest.raises(ValueError) as err:
                    Environment(t, biases["lam"], biases["mu"])
                assert str(err.value) == f"biases must be {word}, vertex {v}"

    def test_nan_found_wherever_it_sits(self):
        t = build_regular(3, 3)
        n = t.n_vertices
        for v in (1, n // 2, n - 1):
            lam = [2.0] * n
            lam[v] = math.nan
            with pytest.raises(ValueError, match=f"finite, vertex {v}$"):
                Environment(t, lam, [1.0] * n)
            with pytest.raises(ValueError, match=f"finite, vertex {v}$"):
                Environment(t, np.array(lam), np.ones(n))

    def test_root_entries_ignored(self):
        t = build_path(2)
        env = Environment(t, [math.nan, 2.0, 2.0], [-1.0, 1.0, 1.0])
        assert env.lam[0] == 1.0 and env.mu[0] == 1.0

    def test_alpha_family_overflow_rejected(self):
        t = build_regular(3, 2)
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite, vertex 1$"):
            environment_from_alpha(t, [1e308] * t.n_vertices)
