"""The bias tables built on whole arrays equal, bit for bit, the per-vertex
loops they replaced: lam, mu and alpha of the alpha family, and the direct
walk's parent-step probabilities pf and pl."""

import gc
import math
import random
import tracemalloc

import numpy as np
import pytest

import goerw.cli as cli
from goerw.environment import (AlphaDistribution, Environment, environment_from_alpha,
                               sample_random_environment)
from goerw.tree import build_path, build_polynomial, build_regular
from goerw.percolation import sample_ruin_percolation
from goerw.walk import (ClockTable, StopRule, derive_seed, derive_seeds, extension_reach,
                        simulate, simulate_extension, simulate_rubin)

from conftest import random_tree, ref_alpha_env, ref_deg, ref_tables


# ---------------------------------------------------------------------------
# the per-vertex loops, kept as the reference, are in conftest.py, where the
# walk's and the annealed lane's referee loops read them too; degrees are
# counted there from the child lists, not read from Tree


def assert_tables_equal(env, alpha, lam, mu):
    assert (env.alpha is None) == (alpha is None)
    if alpha is not None:
        assert env.alpha.dtype == np.float64 and env.alpha.tolist() == alpha
    assert env.lam.dtype == env.mu.dtype == np.float64
    assert env.lam.tolist() == lam
    assert env.mu.tolist() == mu
    pf, pl = env.first_visit, env.later_visit
    # pf is a memoryview of an array, pl a list or the tree's tuple; every
    # entry the walk reads is a Python float
    pf, pl = list(pf), list(pl)
    assert (pf, pl) == ref_tables(env.tree, lam, mu)
    assert all(type(x) is float for x in pf + pl)


def random_alpha(rng, n):
    pool = [0.0, 5e-324, 1e-300, 1e-17, 1e-9, 0.5, 1.0, 3.0, 1e6, 1e12, 1e250]
    return [rng.choice(pool) if rng.random() < 0.5 else rng.uniform(0.0, 50.0)
            for _ in range(n)]


def test_degrees_count_neighbors():
    t = build_regular(3, 3)
    assert t.float_degrees.dtype == np.float64
    assert t.float_degrees.tolist() == [ref_deg(t, v) for v in range(t.n_vertices)]
    assert t.float_degrees is t.float_degrees
    with pytest.raises(ValueError):
        t.float_degrees[1] = 7.0


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
    "alpha:support=0,0.25,7,1.5,40;probs=0.1,0.2,0.3,0.15,0.25",
    "alpha:two=1e-320,3,0.5",
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
            idx = payload._index(derive_seed(seed, 0xE17), n)
            alpha = np.asarray(payload.values).take(idx).tolist()
            assert_tables_equal(env, *ref_alpha_env(t, alpha))


@pytest.mark.parametrize("law", [
    AlphaDistribution.two_point(0.2, 3.0, 0.5),
    AlphaDistribution((0.3, 0.7, 1e6, 0.2), (0.25, 0.25, 0.25, 0.25)),
], ids=["two", "four"])
def test_sampled_laws_match_loop_at_leaves(law):
    """At a leaf, lam = 1.2 (alpha 0.2) makes (lam + 1) - 1 != lam, so a
    first-visit entry there is 1 only by the leaf fix; 0.3 rounds it above
    1, 0.7 below. Sampled environments give the per-vertex loop's entries
    on random trees, whose leaves sit above their deepest level too."""
    leaf = 1.0 + 0.2
    assert leaf / ((leaf + 1) - 1) != 1.0
    rng = random.Random(0x1EAF)
    for _ in range(20):
        t = random_tree(rng, max_edges=80, max_depth=9)
        for seed in range(2):
            alpha = law._atoms.take(law._index(seed, t.n_vertices)).tolist()
            assert_tables_equal(sample_random_environment(t, law, seed),
                                *ref_alpha_env(t, alpha))


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
    env.first_visit, env.later_visit
    assert lam == [5.0] * n and mu == [3.0] * n
    lam_arr, mu_arr = np.full(n, 5.0), np.full(n, 3.0)
    Environment(t, lam_arr, mu_arr)
    assert lam_arr.tolist() == [5.0] * n and mu_arr.tolist() == [3.0] * n


def test_table_is_built_on_first_walk_only():
    t = build_path(4)
    env = environment_from_alpha(t, [1.0] * t.n_vertices)
    assert not {"first_visit", "later_visit"} & vars(env).keys()
    pf, pl = env.first_visit, env.later_visit
    assert env.first_visit is pf and env.later_visit is pl


@pytest.mark.parametrize("spec", ["det:lambda=2,mu=3", "det:lambda=2,mu=1",
                                  "alpha:two=0,3,0.5"])
def test_clock_kernels_leave_the_later_visits_unbuilt(spec):
    """The clock kernels read first visits only: after every one of them has
    walked, no later-visit table is built, not even the tree's parent_step,
    and simulate's first call keeps their first-visit array."""
    t = build_regular(3, 5)
    env = cli.build_environment(t, spec, 4)
    table = ClockTable(7)
    simulate_rubin(env, StopRule(200), table)
    simulate_extension(env, table, t.leftmost_at_depth(4), StopRule(200))
    extension_reach(env, t.leftmost_at_depth(3), derive_seeds(5, 40), 500)
    sample_ruin_percolation(env, 3, 0)
    pf = vars(env)["first_visit"]
    assert "later_visit" not in vars(env) and "parent_step" not in vars(t)
    assert env.first_visit is pf and "later_visit" not in vars(env)
    simulate(env, StopRule(200), 1)
    assert env.first_visit is pf and "later_visit" in vars(env)
    assert list(pf) == ref_tables(t, env.lam.tolist(), env.mu.tolist())[0]


class TestSharedLaterVisits:
    """Where every mu is 1 the later-visit table is the tree's parent_step,
    one tuple for every such environment on the tree; any other mu gets
    the environment's own list."""

    def test_fresh_alpha_environments_share_one_table(self):
        t = build_polynomial(1.2, 20)
        n = t.n_vertices
        envs = [cli.build_environment(t, "alpha:two=0,3,0.5", seed) for seed in (1, 2)]
        envs.append(environment_from_alpha(t, np.full(n, 0.5)))
        tables = [(env.first_visit, env.later_visit) for env in envs]
        assert all(pl is t.parent_step for _, pl in tables)
        assert type(t.parent_step) is tuple
        assert all(pf.readonly and pf.format == "d" for pf, _ in tables)
        assert list(tables[0][0]) != list(tables[1][0])  # first visits differ

    def test_alpha_with_other_mu_gets_its_own_list(self):
        t = build_regular(3, 4)
        n = t.n_vertices
        alpha = np.full(n, 0.5)
        lam = (1.0 + alpha * t.float_degrees).tolist()
        env = Environment(t, lam, np.full(n, 3.0))
        pl = env.later_visit
        assert pl is not t.parent_step and type(pl) is list
        assert_tables_equal(env, None, [1.0, *lam[1:]], [1.0] + [3.0] * (n - 1))

    @pytest.mark.parametrize("spec, shared", [
        ("det:lambda=2,mu=1", True), ("det:lambda=1,mu=1", True),
        ("det:lambda=2,mu=1.0000000000000002", False)])
    def test_deterministic_mu_one_shares(self, spec, shared):
        t = build_regular(3, 4)
        env = cli.build_environment(t, spec, 0)
        assert (env.later_visit is t.parent_step) == shared


class TestStoredOnce:
    """lam, mu and alpha are each stored once, as a read-only float64 array
    that is the environment's own copy of its input; the alpha family's mu
    is the tree's one unit array."""

    def test_read_only_float64_arrays(self):
        t = build_regular(3, 2)
        n = t.n_vertices
        fam = environment_from_alpha(t, [2.0] * n)
        direct = Environment(t, [5.0] * n, np.full(n, 3.0))
        assert direct.alpha is None
        for table in (fam.lam, fam.mu, fam.alpha, direct.lam, direct.mu):
            assert type(table) is np.ndarray and table.dtype == np.float64
            assert table.shape == (n,) and not table.flags.writeable
            with pytest.raises(ValueError):
                table[1] = 7.0

    def test_alpha_is_not_a_constructor_argument(self):
        """Only environment_from_alpha sets alpha."""
        t = build_regular(3, 2)
        n = t.n_vertices
        with pytest.raises(TypeError, match="alpha"):
            Environment(t, [5.0] * n, [1.0] * n, alpha=[0.5] * n)

    def test_root_fix_leaves_the_input_alone(self):
        t = build_regular(3, 2)
        n = t.n_vertices
        lam, mu, alpha = np.full(n, 5.0), np.full(n, 3.0), np.full(n, 2.0)
        env = Environment(t, lam, mu)
        assert (env.lam[0], env.mu[0]) == (1.0, 1.0)
        assert not np.shares_memory(env.lam, lam) and not np.shares_memory(env.mu, mu)
        fam = environment_from_alpha(t, alpha)
        assert fam.alpha[0] == 0.0 and not np.shares_memory(fam.alpha, alpha)
        for given, value in ((lam, 5.0), (mu, 3.0), (alpha, 2.0)):
            assert given.flags.writeable and given.tolist() == [value] * n

    def test_retained_bytes_per_vertex(self):
        t = build_regular(3, 15)
        n = t.n_vertices
        alpha = np.random.default_rng(3).random(n)
        t.float_degrees, t.ones  # built once per tree, not per environment
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            env = environment_from_alpha(t, alpha)
            retained = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert n == 98_302 and env.alpha is not None
        # lam and alpha: 16 bytes per vertex; mu is the tree's
        assert env.mu is t.ones
        assert retained <= 24 * n

    def test_sampled_environment_retains_no_more_than_its_alphas(self):
        """An unwalked sampled environment keeps lam and alpha, 16 bytes per
        vertex, as environment_from_alpha's does: the drawn atom indices
        are dropped once the alphas are gathered."""
        t = build_regular(3, 15)
        n = t.n_vertices
        law = AlphaDistribution.two_point(0.0, 3.0, 0.5)
        t.float_degrees, t.ones  # built once per tree, not per environment
        sample_random_environment(t, law, 1)  # numpy.random and the law's own tables
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            env = sample_random_environment(t, law, 3)
            retained = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert n == 98_302 and env.alpha is not None
        assert not {"first_visit", "later_visit"} & vars(env).keys()
        assert env.mu is t.ones
        assert retained <= 17 * n

    def test_walked_environment_bytes_per_vertex(self):
        """A walked alpha environment, sampled or given, keeps lam, alpha
        and the first-visit array, 24 bytes per vertex; mu and the
        later-visit table are the tree's."""
        t = build_regular(3, 15)
        n = t.n_vertices
        stop = StopRule(max_steps=2000)
        law = AlphaDistribution.two_point(0.0, 3.0, 0.5)
        simulate(environment_from_alpha(t, np.zeros(n)), stop, 1)  # the tree's tables
        simulate(sample_random_environment(t, law, 1), stop, 1)  # and the law's
        alpha = np.random.default_rng(3).random(n)
        for build, bound in ((lambda: environment_from_alpha(t, alpha), 32),
                             (lambda: sample_random_environment(t, law, 3), 25)):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                env = build()
                traj = simulate(env, stop, 2)
                del traj
                retained = tracemalloc.get_traced_memory()[0] - base
            finally:
                tracemalloc.stop()
            assert {"first_visit", "later_visit"} <= vars(env).keys()
            assert retained <= bound * n

    def test_alpha_environments_share_one_read_only_mu(self):
        t = build_polynomial(1.2, 20)
        n = t.n_vertices
        envs = [cli.build_environment(t, spec, seed)
                for spec, seed in (("alpha:two=0,3,0.5", 1), ("alpha:two=0,3,0.5", 2),
                                   ("alpha:point=1", 0))]
        envs.append(environment_from_alpha(t, np.full(n, 0.5)))
        assert all(env.mu is t.ones for env in envs)
        assert t.ones.dtype == np.float64 and t.ones.tolist() == [1.0] * n
        with pytest.raises(ValueError):
            envs[0].mu[1] = 2.0
        # built directly, an environment keeps its own copy of an all-1 mu
        direct = Environment(t, envs[0].lam, t.ones)
        assert direct.mu is not t.ones and not np.shares_memory(direct.mu, t.ones)
        assert direct.lam is not envs[0].lam

    def test_fresh_trees_leave_memory_flat(self):
        """Walking fresh environments on 200 freshly built trees keeps less
        than one tree once they are dropped: no table outlives its tree."""
        stop = StopRule(max_steps=100)
        held = []

        def walk_fresh(seed, hold=False):
            t = build_regular(3, 7)
            env = cli.build_environment(t, "alpha:two=0,3,0.5", seed)
            simulate(env, stop, seed)
            if hold:
                held.append(env)

        for seed in range(20):
            walk_fresh(seed)
        tracemalloc.start()
        try:
            for seed in range(20):  # the interpreter's free lists settle
                walk_fresh(seed)
            gc.collect()
            base = tracemalloc.get_traced_memory()[0]
            for seed in range(200):
                walk_fresh(seed)
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - base
            walk_fresh(0, hold=True)
            one_tree = tracemalloc.get_traced_memory()[0] - base - grown
        finally:
            tracemalloc.stop()
        assert one_tree > 40_000
        assert grown < one_tree


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

    @pytest.mark.parametrize("seed, vertex", [(0, 1), (1, 3), (2, 1), (3, 1)])
    def test_sampled_overflow_names_the_first_vertex_that_drew_it(self, seed, vertex):
        """Under alpha:two=0,1e308,0.5, lam = 1 + 1e308 * 3 overflows at a
        vertex of degree 3 that draws 1e308, and the refusal names the first
        such vertex in id order, with no overflow warning raised first
        (warnings are errors here). A leaf that draws it, degree 1, is finite."""
        t = cli.parse_tree_spec("regular:d=3,L=3")
        law = "alpha:two=0,1e308,0.5"
        idx = cli.parse_env_spec(law)[1]._index(derive_seed(seed, 0xE17), t.n_vertices)
        drew = [v for v in range(1, t.n_vertices) if idx[v] and t.float_degrees[v] == 3.0]
        assert drew[0] == vertex
        with pytest.raises(ValueError) as err:
            cli.build_environment(t, law, seed)
        assert str(err.value) == f"biases must be finite, vertex {vertex}"

    def test_sampled_overflowing_atom_builds_at_the_leaves(self):
        """On regular:d=3,L=1 every non-root vertex is a leaf, 1 + 1e308 is
        finite, and the same law builds."""
        t = cli.parse_tree_spec("regular:d=3,L=1")
        law = cli.parse_env_spec("alpha:two=0,1e308,0.5")[1]
        drawn = set()
        for seed in range(4):
            env = cli.build_environment(t, "alpha:two=0,1e308,0.5", seed)
            alpha = law._atoms.take(law._index(derive_seed(seed, 0xE17), t.n_vertices)).tolist()
            assert_tables_equal(env, *ref_alpha_env(t, alpha))
            drawn.update(alpha[1:])
        assert 1e308 in drawn
