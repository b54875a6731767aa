import math
import random
from collections import Counter
from collections.abc import Mapping
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import goerw.analysis as analysis
import goerw.tree as tree_module
from goerw.analysis import (
    FlowEnergyReport,
    GamblerChain,
    PhaseVerdict,
    flow_energy_check,
    gambler_ruin_exact,
    gambler_ruin_mc,
    phase_diagnostic,
    proportional_flow,
    tree_max_flow,
)
from goerw.cli import build_environment, parse_tree_spec
from goerw.environment import (AlphaDistribution, Environment, _transition_table,
                               assign_deterministic, sample_random_environment)
from goerw.errors import InputError, RefusalError
from goerw.percolation import edge_connection_probability_mc
from goerw.tree import (
    build_from_edge_list,
    build_path,
    build_polynomial,
    build_regular,
    path_family,
    polynomial_family,
    regular_family,
)
from goerw.walk import simulate

from conftest import (chain_tree, cut_dp_ref, escape_batch_ref, flow_energy_rows_ref, phi,
                      proportional_flow_ref, random_broom, random_tree, weights_of)


class TestGamblerExact:
    def test_frozen_rationals(self):
        c = GamblerChain(N=3, mu=(Fraction(2), Fraction(2)), start=1)
        assert gambler_ruin_exact(c) == Fraction(6, 7)
        c = GamblerChain(N=2, mu=(Fraction(2),), start=1)
        assert gambler_ruin_exact(c) == Fraction(2, 3)

    def test_symmetric_is_linear(self):
        for N in (2, 5, 10):
            for i in range(N + 1):
                c = GamblerChain(N=N, mu=(Fraction(1),) * (N - 1), start=i)
                assert gambler_ruin_exact(c) == 1 - Fraction(i, N)

    def test_boundaries(self):
        c = GamblerChain(N=4, mu=(2.0, 0.5, 3.0), start=0)
        assert gambler_ruin_exact(c) == 1
        c = GamblerChain(N=4, mu=(2.0, 0.5, 3.0), start=4)
        assert gambler_ruin_exact(c) == 0

    def test_difference_equation_residual(self):
        rng = random.Random(2024)
        for _ in range(100):
            N = rng.randint(2, 50)
            mu = tuple(rng.uniform(0.2, 5.0) for _ in range(N - 1))
            x = [gambler_ruin_exact(GamblerChain(N, mu, i)) for i in range(N + 1)]
            assert x[0] == 1 and x[N] == 0
            for i in range(1, N):
                q = mu[i - 1] / (1.0 + mu[i - 1])
                p = 1.0 - q
                residual = x[i] - (q * x[i - 1] + p * x[i + 1])
                assert abs(residual) <= 1e-12

    def test_antitone_in_start(self):
        rng = random.Random(7)
        mu = tuple(rng.uniform(0.3, 4.0) for _ in range(9))
        xs = [gambler_ruin_exact(GamblerChain(10, mu, i)) for i in range(11)]
        assert all(a >= b for a, b in zip(xs, xs[1:]))

    def test_validation(self):
        with pytest.raises(ValueError, match=r"at least two sites \(N >= 2\), got N = 1"):
            GamblerChain(N=1, mu=(), start=0)
        with pytest.raises(ValueError, match="interior biases"):
            GamblerChain(N=3, mu=(1.0,), start=1)
        with pytest.raises(ValueError, match="start"):
            GamblerChain(N=3, mu=(1.0, 1.0), start=4)
        with pytest.raises(ValueError, match="bias at site 2 must be positive and finite, got -2.0"):
            GamblerChain(N=3, mu=(1.0, -2.0), start=1)

    @pytest.mark.parametrize("N,mu", [(1, ()), (0, ()), (3, (1.0, math.inf)),
                                      (3, (math.nan, 1.0)), (2, (Fraction(0),))],
                             ids=["one-site", "no-site", "inf", "nan", "zero"])
    def test_bad_chain_is_an_input_error(self, N, mu):
        with pytest.raises(InputError):
            GamblerChain(N=N, mu=mu, start=1)

    def test_bridge_to_path_potentials(self):
        # On a path with biases mu, the ratio phi(u-2)/phi(u) of the tree
        # potential equals the chain's success probability started at u-2
        # targeting u.
        rng = random.Random(99)
        for _ in range(100):
            L = rng.randint(3, 20)
            tree = build_path(L)
            mu_vals = [1.0] + [rng.uniform(0.3, 4.0) for _ in range(L)]
            env = Environment(tree, [1.0] * (L + 1), list(mu_vals))
            u = rng.randint(3, L)
            chain = GamblerChain(N=u, mu=tuple(env.mu[1:u]), start=u - 2)
            success = 1 - gambler_ruin_exact(chain)
            ratio = phi(env, u - 2) / phi(env, u)
            assert success == pytest.approx(ratio, rel=1e-12)


class TestGamblerMC:
    def test_matches_exact(self):
        chain = GamblerChain(N=3, mu=(2.0, 2.0), start=1)
        est, se = gambler_ruin_mc(chain, trials=20000, seed=5)
        assert abs(est - 6 / 7) < 3 * se

    def test_symmetric_target(self):
        chain = GamblerChain(N=4, mu=(1.0, 1.0, 1.0), start=2)
        est, se = gambler_ruin_mc(chain, trials=20000, seed=6)
        assert abs(est - 0.5) < 3 * se

    @pytest.mark.parametrize("bias", [Fraction(10**400), Fraction(1, 10**400)],
                             ids=["past-the-float-range", "below-the-float-range"])
    def test_any_positive_fraction_bias(self, bias):
        """m / (1 + m) is computed exactly and rounded once: a bias with no
        float of its own still has a step-down probability."""
        chain = GamblerChain(N=4, mu=(Fraction(2), bias, Fraction(1, 2)), start=2)
        est, se = gambler_ruin_mc(chain, trials=2000, seed=8)
        assert abs(est - float(gambler_ruin_exact(chain))) <= 4.5 * se

    def test_trial_floor(self):
        with pytest.raises(ValueError, match="100"):
            gambler_ruin_mc(GamblerChain(2, (1.0,), 1), trials=50, seed=1)

    def test_deterministic(self):
        chain = GamblerChain(N=5, mu=(0.5, 2.0, 1.0, 3.0), start=2)
        assert gambler_ruin_mc(chain, 500, 11) == gambler_ruin_mc(chain, 500, 11)

    def test_sweep_cap_is_a_refusal_naming_the_cap(self, monkeypatch):
        monkeypatch.setattr(analysis, "_SWEEP_CAP", 3)
        chain = GamblerChain(N=40, mu=(1.0,) * 39, start=20)
        with pytest.raises(RefusalError, match="sweep cap 3 exceeded"):
            gambler_ruin_mc(chain, 200, 1)


@pytest.mark.parametrize("estimate", [
    lambda trials: gambler_ruin_mc(GamblerChain(2, (1.0,), 1), trials, 1),
    lambda trials: phase_diagnostic(polynomial_family(1.2), AlphaDistribution.point(1.0), 0.1,
                                    escape_depth=4, horizon=100, trials=trials,
                                    master_seed=1, depth=8),
    lambda trials: edge_connection_probability_mc(assign_deterministic(build_path(3)), 3,
                                                  trials, 1),
], ids=["gambler", "phase", "edge-mc"])
def test_every_estimate_refuses_99_trials_alike(estimate):
    with pytest.raises(ValueError, match="^need at least 100 trials$"):
        estimate(99)


class TestTreeFlow:
    def test_blocked_root_edge_routes_around(self):
        # two depth-2 paths below the root; zero capacity on one root edge
        tree = build_from_edge_list([(0, 1), (0, 2), (1, 3), (2, 4)])
        cap = weights_of(tree, lambda v: 0.0 if v == 1 else 1.0)
        total, F = tree_max_flow(tree, cap, 2)
        assert total == 1.0
        theta = proportional_flow(tree, F, 2, total)
        assert theta.get(1, 0.0) == 0.0 and theta.get(3, 0.0) == 0.0
        assert theta[2] == 1.0 and theta[4] == 1.0

    def test_conservation_is_exact(self):
        tree = build_polynomial(1.5, 16)
        env = assign_deterministic(tree)
        rep = flow_energy_check(env, 1.5, [16])
        # rebuild theta to inspect conservation directly
        cap = weights_of(tree, lambda v: (1.0 / tree.depth[v]) ** 1.5)
        total, F = tree_max_flow(tree, cap, 16)
        theta = proportional_flow(tree, F, 16, min(1.0, total))
        for v in range(1, tree.n_vertices):
            t_in = theta.get(v, 0.0)
            if t_in > 0.0 and tree.depth[v] < 16:
                out = sum(theta.get(c, 0.0) for c in tree.children[v])
                assert out == t_in  # bitwise, by remainder assignment
        assert rep.rows[0].flow_total == pytest.approx(min(1.0, total))

    def test_bounded_energy_on_fast_growth(self):
        tree = build_polynomial(3.0, 32)
        env = assign_deterministic(tree)
        rep = flow_energy_check(env, 1.5, [8, 16, 32])
        assert not rep.degenerate
        energies = [r.energy for r in rep.rows]
        assert max(energies) < 1.1 * min(energies)
        assert all(r.max_flow > 0.9 for r in rep.rows)

    def test_path_flow_degenerates(self):
        env = assign_deterministic(build_path(32))
        rep = flow_energy_check(env, 1.5, [8, 16, 32])
        assert rep.degenerate
        flows = [r.max_flow for r in rep.rows]
        assert flows == sorted(flows, reverse=True)
        assert rep.rows[-1].max_flow == pytest.approx(32.0 ** -1.5, rel=1e-9)

    def test_validation(self):
        env = assign_deterministic(build_path(8))
        with pytest.raises(ValueError, match="gamma"):
            flow_energy_check(env, 1.0, [4])
        with pytest.raises(ValueError, match="depth"):
            flow_energy_check(env, 1.5, [16])
        with pytest.raises(ValueError, match="depth"):
            flow_energy_check(env, 1.5, [])

    @pytest.mark.parametrize("gamma", [math.nan, -math.inf])
    def test_gamma_nan_or_minus_inf_refused(self, gamma):
        env = assign_deterministic(build_path(8))
        with pytest.raises(ValueError, match="gamma must exceed 1"):
            flow_energy_check(env, gamma, [4])


class TestFlowArrays:
    """The level-by-level flow and energy against the scalar loops,
    bitwise: theta's keys, values and order, and every FlowEnergyRow."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_proportional_flow_equals_scalar(self, seed):
        rng = random.Random(seed)
        t = (random_tree if seed % 2 else random_broom)(rng, max_edges=40, max_depth=6)
        pool = [0.0, 0.25, 1.0, rng.uniform(0.0, 2.0)]
        w = [0.0] + [rng.choice(pool) if rng.random() < 0.5 else rng.uniform(0.0, 2.0)
                     for _ in range(1, t.n_vertices)]
        for depth in range(1, t.truncation_depth + 1):
            value, F = cut_dp_ref(t, w.__getitem__, depth)
            for total in (min(1.0, value), rng.uniform(0.0, 3.0), 0.0):
                want = proportional_flow_ref(t, F, depth, total)
                got = proportional_flow(t, np.array(F), depth, total)
                assert repr(list(got.items())) == repr(list(want.items()))
                assert dict(got) == want and list(got) == sorted(want)
                assert all(type(k) is int and type(x) is float for k, x in got.items())

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_proportional_flow_skips_what_is_not_positive(self, seed):
        """On any profile F, not only a max-flow one: children whose F is
        -0.0, negative or NaN get no share and add nothing to the sum the
        shares divide by, bitwise as in the scalar loop."""
        rng = random.Random(seed)
        t = (random_tree if seed % 2 else random_broom)(rng, max_edges=40, max_depth=6)
        pool = [0.0, -0.0, -1.0, math.nan, 0.5, 2.0]
        F = [0.0] + [rng.choice(pool) if rng.random() < 0.5 else rng.uniform(0.0, 2.0)
                     for _ in range(1, t.n_vertices)]
        for depth in range(1, t.truncation_depth + 1):
            want = proportional_flow_ref(t, F, depth, 1.0)
            got = proportional_flow(t, np.array(F), depth, 1.0)
            assert repr(list(got.items())) == repr(list(want.items()))

    @pytest.mark.parametrize("width", [3, 300], ids=["narrow", "wide"])
    @pytest.mark.parametrize("dead_end", [False, True], ids=["no-dead-end", "dead-end"])
    @pytest.mark.parametrize("blocked", [False, True], ids=["open", "blocked-chain"])
    def test_proportional_flow_on_chains(self, width, dead_end, blocked):
        """The shares are written into theta in place, and the vertices
        given a share read off theta after the last level: against the
        scalar flow on a chain narrow and wide, with F = 0 partway down it
        under a positive F above (the flow stops there), a dead end below
        it, and a total of 5e-324 whose shares round to 0 (a child given 0.0
        passes nothing on)."""
        t = chain_tree(width, 4, dead_end)
        rng = random.Random(f"{width} {dead_end} {blocked}")
        w = [0.0] + [rng.uniform(0.5, 2.0) for _ in range(1, t.n_vertices)]
        for depth in range(1, t.truncation_depth + 1):
            value, F = cut_dp_ref(t, w.__getitem__, depth)
            if blocked and depth >= 3:
                F[t.levels.starts[3] + 1] = 0.0
            for total in (min(1.0, value), 5e-324, 0.0):
                want = proportional_flow_ref(t, F, depth, total)
                got = proportional_flow(t, np.array(F), depth, total)
                assert repr(list(got.items())) == repr(list(want.items()))
                assert got.ids.tolist() == list(want)

    def test_reads_as_a_dict_would(self):
        """theta is a read-only Mapping: a key that is not an int, names no
        vertex or names one given no share is missing, and len and bool are
        those of the dict it stands for."""
        tree = build_from_edge_list([(0, 1), (0, 2), (1, 3), (2, 4)])
        F = tree_max_flow(tree, weights_of(tree, lambda v: 0.0 if v == 1 else 1.0), 2)[1]
        theta = proportional_flow(tree, F, 2, 1.0)
        want = {2: 1.0, 4: 1.0}
        assert isinstance(theta, Mapping) and dict(theta) == want and theta == want
        assert (len(theta), bool(theta), list(theta.items())) == (2, True, list(want.items()))
        assert theta.get(np.int64(4)) == 1.0 and 2 in theta
        for key in (0, 1, 3, -1, -4, 5, 10**30, "2", 2.5, None, (2,)):
            assert theta.get(key) is None and theta.get(key, -7.0) == -7.0 and key not in theta
            with pytest.raises(KeyError):
                theta[key]
        with pytest.raises(TypeError):
            theta[2] = 0.5
        with pytest.raises(TypeError):
            del theta[2]
        for a in (theta.ids, theta.theta):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 3
        empty = proportional_flow(tree, F, 2, 0.0)
        assert (len(empty), bool(empty), dict(empty), empty.get(2)) == (0, False, {}, None)

    def test_energy_reads_only_the_arrays(self, monkeypatch):
        """flow_energy_check reads the flow's ids and theta arrays: its rows
        stay the same when the mapping cannot be iterated or indexed."""
        env = build_environment(parse_tree_spec("poly:b=1.5,L=64"), "alpha:two=0,3,0.5", 5)
        want = repr(flow_energy_check(env, 1.5, [8, 16, 32, 64]).rows)

        def refuse(*args):
            raise AssertionError("read as a mapping")

        monkeypatch.setattr(analysis.FlowShares, "__iter__", refuse)
        monkeypatch.setattr(analysis.FlowShares, "__getitem__", refuse)
        assert repr(flow_energy_check(env, 1.5, [8, 16, 32, 64]).rows) == want

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_flow_energy_rows_equal_scalar(self, seed):
        rng = random.Random(seed)
        t = (random_tree if seed % 2 else random_broom)(rng, max_edges=40, max_depth=6)
        lam = [rng.uniform(0.1, 5.0) for _ in range(t.n_vertices)]
        mu = [rng.uniform(0.1, 5.0) for _ in range(t.n_vertices)]
        env = Environment(t, lam, mu)
        gamma = rng.uniform(1.01, 3.0)
        depths = rng.sample(range(1, t.truncation_depth + 1),
                            rng.randint(1, t.truncation_depth))
        rows = flow_energy_check(env, gamma, depths).rows
        assert repr(rows) == repr(flow_energy_rows_ref(env, gamma, depths))
        for r in rows:
            assert [type(x) for x in (r.depth, r.max_flow, r.flow_total, r.energy,
                                      r.support_edges)] == [int, float, float, float, int]


    @pytest.mark.parametrize("seed", [0, 1])
    def test_benchmark_shapes_equal_scalar(self, seed):
        """poly:b=1.5 under a two-atom law, cut at 8, 16 and 32: chains
        128 wide below a branching level, where most capacities are never
        evaluated."""
        t = polynomial_family(1.5).build(32)
        env = sample_random_environment(t, AlphaDistribution.two_point(0.0, 3.0, 0.5), seed)
        rows = flow_energy_check(env, 1.5, [8, 16, 32]).rows
        assert repr(rows) == repr(flow_energy_rows_ref(env, 1.5, [8, 16, 32]))


class TestUnitPsiFlow:
    """psi rounds to exactly 1 below a first-visit bias of 1e-300: the flow's
    conductance there is +inf, as adapted_conductance's, and the flow warns
    nothing, also where Psi is 0 above it (lam = 1e300 at vertex 1)."""

    @pytest.mark.parametrize("lam", [
        [1.0] + [1e-300] * 8,
        [1.0, 1e300, 1e-300, 1e-300, 1.0, 1.0, 1.0, 1.0, 1.0],
    ], ids=["unit-psi", "unit-psi-under-zero-Psi"])
    def test_equals_scalar(self, lam):
        env = Environment(build_path(8), lam, [1.0] * 9)
        rows = flow_energy_check(env, 1.5, [2, 4, 8]).rows
        assert repr(rows) == repr(flow_energy_rows_ref(env, 1.5, [2, 4, 8]))


# the random tree has leaves above its deepest level
ANNEALED_TREES = [build_polynomial(1.2, 24), regular_family(3).build(6),
                  random_tree(random.Random(0x1EAF), max_edges=80, max_depth=9)]


class TestEscapeBatch:
    """The annealed lane equals, bit for bit, the plain loop that draws
    every trial's environment itself and walks it with the referee loop."""

    @pytest.mark.parametrize("dist", [
        AlphaDistribution.point(0.0),
        AlphaDistribution.point(1.0),
        AlphaDistribution.two_point(0.0, 3.0, 0.5),
        AlphaDistribution((0.0, 0.25, 7.0), (0.2, 0.3, 0.5)),
    ], ids=["zero", "point", "two", "three"])
    @pytest.mark.parametrize("lane", [1])  # the excited lane; the control walks nothing
    def test_equals_plain_loop_bitwise(self, dist, lane):
        tree = build_polynomial(1.2, 40)
        for seed, horizon in ((11, 10**6), (12, 400)):
            args = (tree, dist, 30, horizon, 60, seed)
            got = analysis._escape_batch(*args)
            assert got == escape_batch_ref(*args, lane)
            if horizon == 400:
                assert got[2] > 0  # the short horizon censors some runs

    @pytest.mark.parametrize("dist", [
        AlphaDistribution.two_point(0.2, 3.0, 0.5),
        AlphaDistribution((0.0, 0.2, 7.0), (0.2, 0.3, 0.5)),
        AlphaDistribution((0.3, 0.7, 1e6, 0.2), (0.25, 0.25, 0.25, 0.25)),
    ], ids=["two", "three", "four"])
    @pytest.mark.parametrize("tree", ANNEALED_TREES + [
        regular_family(5).build(4),
        random_broom(random.Random(0xB800), max_edges=60, max_depth=7),
    ], ids=["poly", "regular", "random", "regular-5", "broom"])
    def test_equals_the_per_vertex_loop(self, monkeypatch, tree, dist):
        """Each trial's environment and first-visit table equal those of
        the per-vertex loop too. At a leaf, lam = 1.2 (alpha 0.2) makes
        (lam + 1) - 1 != lam, so a first-visit entry there is 1 only by
        the leaf fix; 0.3 rounds it above 1, 0.7 below. On regular-5 the
        root's child count is its own (5, below it 4 or 0), and the broom
        has single-child levels above and below its branching."""
        leaf = 1.0 + 0.2
        assert leaf / ((leaf + 1) - 1) != 1.0
        walked = []

        def spy(env, stop, seed):
            walked.append(tuple(map(list, _transition_table(env))))
            return simulate(env, stop, seed)

        monkeypatch.setattr(analysis, "simulate", spy)
        depth = tree.truncation_depth
        for seed, horizon in ((21, 10**6), (22, 60)):
            args = (tree, dist, depth, horizon, 40, seed)
            tables = []
            got = analysis._escape_batch(*args)
            assert got == escape_batch_ref(*args, 1, tables)
            assert walked == tables
            walked.clear()

    @pytest.mark.parametrize("tree,p", [(t, 0.1) for t in ANNEALED_TREES]
                             + [(ANNEALED_TREES[0], 1e-15)],
                             ids=["poly", "regular", "random", "poly-undrawn"])
    def test_an_overflowing_draw_is_refused_as_the_loop_refuses_it(self, tree, p):
        """alpha = 1e308 overflows lam at every vertex with two or more
        neighbors; both refuse the first such vertex a trial draws. At mass
        1e-15 no vertex draws it, and both run."""
        dist = AlphaDistribution((0.0, 1e308), (1.0 - p, p))
        args = (tree, dist, tree.truncation_depth, 1000, 40, 5)

        def outcome(batch):
            try:
                return batch(*args)
            except InputError as e:
                return str(e)

        got = outcome(analysis._escape_batch)
        assert got == outcome(lambda *a: escape_batch_ref(*a, 1))
        if p == 0.1:
            assert got.startswith("biases must be finite, vertex ")
        else:
            assert isinstance(got, tuple)


def exact_control(sizes, K):
    """Simple random walk from the root of a spherically symmetric tree: an
    excursion reaches level E = len(sizes) - 1 before it returns with
    probability C / s(1), C the effective conductance of the levels in
    series; escape within K returns and the mean returns, exact and then
    rounded once."""
    q = 1 - 1 / (sizes[1] * sum(Fraction(1, s) for s in sizes[1:]))
    return float(1 - q ** K), float(q * (1 - q ** K) / (1 - q))


class TestControlLaw:
    """The control lane is the exact escape law of simple random walk on
    the control family's tree: no walk, no control tree built."""

    @staticmethod
    def level_counts(tree, E):
        depths = Counter(tree.depth)
        return [depths[n] for n in range(E + 1)]

    @pytest.mark.parametrize("fam,dist,E,L,control", [
        (path_family(), AlphaDistribution.point(1.0), 9, 12, "path"),
        (path_family(), AlphaDistribution.point(0.0), 9, 12, "poly-0.25"),
        (regular_family(3), AlphaDistribution.point(1.0), 6, 7, "regular-3"),
        (regular_family(3), AlphaDistribution.point(0.0), 6, 7, "poly-0.25"),
        (polynomial_family(1.2), AlphaDistribution.two_point(0.0, 3.0, 0.5), 48, 64,
         "poly-1.2"),
        (polynomial_family(1.2), AlphaDistribution.point(0.0), 48, 64, "poly-0.25"),
        (polynomial_family(2.5), AlphaDistribution.point(0.0), 7, 9, "poly-0.25"),
    ], ids=["path-same", "path-thin", "regular-same", "regular-thin", "poly-same",
            "poly-thin", "poly-2.5-thin"])
    def test_equals_fraction_formula(self, monkeypatch, fam, dist, E, L, control):
        monkeypatch.setattr(analysis, "_escape_batch", lambda *args: (0.5, 1.0, 0))
        v = phase_diagnostic(fam, dist, 0.1, escape_depth=E, horizon=10**4,
                             trials=100, master_seed=3, depth=L)
        assert v.control_family == control and v.control_env_spec == "alpha:point=0"
        sizes = self.level_counts((fam if control == fam.name else
                                   polynomial_family(0.25)).build(E), E)
        assert (v.control_escape_freq, v.control_mean_returns) == exact_control(sizes, 10)
        assert v.sigma == 0.05  # the excited lane's term alone: (50 + 1) / 102 is 1/2

    def test_criterion_08_controls(self):
        """The two exact controls of criterion 08's configuration."""
        for dist, freq in ((AlphaDistribution.point(0.0), 0.27574),
                           (AlphaDistribution.point(1.0), 0.93084)):
            v = phase_diagnostic(polynomial_family(1.2), dist, 0.1, escape_depth=48,
                                 horizon=10**6, trials=100, master_seed=1008, depth=64)
            assert v.control_escape_freq == pytest.approx(freq, abs=5e-6)

    @pytest.mark.parametrize("dist", [AlphaDistribution.point(0.0),
                                      AlphaDistribution.two_point(0.0, 3.0, 0.5)],
                             ids=["control-poly-0.25", "control-same-tree"])
    def test_one_walk_per_trial_and_one_tree(self, monkeypatch, dist):
        walks, built = [], []

        def counted(*args, **kwargs):
            walks.append(args[0].tree)
            return simulate(*args, **kwargs)

        def build(b, L):
            built.append((b, L))
            return build_polynomial(b, L)

        monkeypatch.setattr(analysis, "simulate", counted)
        monkeypatch.setattr(tree_module, "build_polynomial", build)
        fam = polynomial_family(1.2)
        for seed in (1, 2):
            phase_diagnostic(fam, dist, 0.1, escape_depth=16, horizon=10**5,
                             trials=120, master_seed=seed, depth=24)
        assert len(walks) == 240 and built == [(1.2, 16)]  # cut at the escape depth
        assert all(t is walks[0] for t in walks)  # one tree over both calls


class TestPhaseDiagnostic:
    fam = polynomial_family(1.2)

    def test_unexcited_fast_growth_leans_transient(self):
        v = phase_diagnostic(self.fam, AlphaDistribution.point(0.0), 0.1,
                             escape_depth=16, horizon=10**5, trials=150,
                             master_seed=77, depth=24)
        assert v.verdict == "transient-leaning"
        assert v.threshold == 1.0 and v.br_exact == 1.2
        assert v.control_family == "poly-0.25"
        assert v.escape_freq > v.control_escape_freq + 3 * v.sigma

    def test_excited_same_tree_leans_recurrent(self):
        v = phase_diagnostic(self.fam, AlphaDistribution.point(1.0), 0.1,
                             escape_depth=16, horizon=10**5, trials=150,
                             master_seed=77, depth=24)
        assert v.verdict == "recurrent-leaning"
        assert v.threshold == 1.5
        assert v.control_family == self.fam.name  # same tree, zero alphas
        assert v.escape_freq < v.control_escape_freq + 3 * v.sigma

    def test_near_critical_refusal(self):
        # two-point alpha with m = 0.8 puts the threshold exactly at br
        d = AlphaDistribution.two_point(0.0, 3.0, 4 / 15)
        assert 2 - d.m == pytest.approx(1.2)
        with pytest.raises(RefusalError, match="margin"):
            phase_diagnostic(self.fam, d, 0.1, 16, 10**5, 150,
                             master_seed=1, depth=24)

    def test_deterministic_given_seed(self):
        kw = dict(escape_depth=12, horizon=10**4, trials=100,
                  master_seed=5, depth=20)
        a = phase_diagnostic(self.fam, AlphaDistribution.point(1.0), 0.1, **kw)
        b = phase_diagnostic(self.fam, AlphaDistribution.point(1.0), 0.1, **kw)
        assert a == b

    def test_verdict_serializes(self):
        v = phase_diagnostic(self.fam, AlphaDistribution.point(0.0), 0.1,
                             escape_depth=12, horizon=10**4, trials=100,
                             master_seed=5, depth=20)
        d = v.to_dict()
        assert d["verdict"] == v.verdict
        assert set(d) == set(PhaseVerdict.__dataclass_fields__)

    def test_horizon_censoring_withholds_the_verdict(self, monkeypatch):
        """With horizon 1000, 179 of 300 excited runs stop on the horizon.
        Counted as non-escapes they would read recurrent-leaning."""
        stops = []

        def counted(*args, **kwargs):
            traj = simulate(*args, **kwargs)
            stops.append(traj.stop_reason)
            return traj

        monkeypatch.setattr(analysis, "simulate", counted)
        v = phase_diagnostic(self.fam, AlphaDistribution.two_point(0.0, 3.0, 0.5),
                             0.1, escape_depth=48, horizon=1000, trials=300,
                             master_seed=1, depth=64)
        assert v.censored == 179
        assert stops[:300].count("max_steps") == v.censored
        assert v.verdict == "inconclusive"
        assert v.escape_freq < v.control_escape_freq + 3 * v.sigma

    def test_censoring_limit_is_one_percent(self, monkeypatch):
        """Three censored runs of 300 keep the verdict, four withhold it."""
        for n_censored, verdict in ((3, "recurrent-leaning"), (4, "inconclusive")):
            def batch(*args):
                return 0.0, 1.0, n_censored
            monkeypatch.setattr(analysis, "_escape_batch", batch)
            v = phase_diagnostic(self.fam, AlphaDistribution.point(1.0), 0.1,
                                 escape_depth=12, horizon=10**4, trials=300,
                                 master_seed=5, depth=20)
            assert v.verdict == verdict

    @pytest.mark.parametrize("freq,verdict", [(0.0, "recurrent-leaning"),
                                              (0.03, "inconclusive"),
                                              (0.05, "transient-leaning")])
    def test_a_small_escape_above_the_control_is_inconclusive(self, monkeypatch, freq, verdict):
        """Against an exact control of 0 and sigma of about 0.0017 at 10,000
        trials, an escape frequency of 0.03 clears control + 3 sigma but
        not 0.05: neither lean is shown, and the verdict is inconclusive."""
        monkeypatch.setattr(analysis, "_escape_batch", lambda *args: (freq, 1.0, 0))
        monkeypatch.setattr(analysis, "_escape_law", lambda sizes: (0.0, 1.0))
        v = phase_diagnostic(self.fam, AlphaDistribution.point(1.0), 0.1, escape_depth=12,
                             horizon=10**4, trials=10_000, master_seed=5, depth=20)
        assert v.verdict == verdict
        if verdict == "inconclusive":
            assert v.control_escape_freq + 3 * v.sigma < freq < 0.05

    def test_probe_depths_are_the_shared_defaults(self, monkeypatch):
        """The branching-ruin reading takes the default grid and probe
        depths of every cutset table, so at L = 300 it reads depth 256."""
        calls = []

        def spy(family, gammas, depths, *args):
            calls.append((family.name, tuple(gammas), list(depths)))
            return tree_module.branching_ruin_estimate(family, gammas, depths, *args)

        monkeypatch.setattr(analysis, "branching_ruin_estimate", spy)
        v = phase_diagnostic(path_family(), AlphaDistribution.point(1.0), 0.1,
                             escape_depth=2, horizon=10**4, trials=100,
                             master_seed=5, depth=300)
        gammas = tuple(round(0.1 * g, 10) for g in range(1, 31))
        assert calls == [("path", gammas, [8, 16, 32, 64, 128, 256])]
        assert gammas == tree_module.DEFAULT_GAMMAS
        assert v.br_estimate == tree_module.branching_ruin_estimate(
            path_family(), gammas, [8, 16, 32, 64, 128, 256]).estimate

    def test_walks_the_tree_cut_at_the_escape_depth(self, monkeypatch):
        """The walks run on the family's tree cut at the escape depth, so
        the excited lane reads the same on regular-3 at L = 25 (over the
        vertex cap) as at L = 8, and the deep tree is never built."""
        built = []
        monkeypatch.setattr(tree_module, "build_regular",
                            lambda d, L: built.append(L) or build_regular(d, L))
        kw = dict(escape_depth=8, horizon=10**5, trials=100, master_seed=38)
        dist = AlphaDistribution.two_point(0.0, 3.0, 0.5)
        deep, cut = (phase_diagnostic(regular_family(3), dist, 0.1, depth=L, **kw)
                     for L in (25, 8))
        for key in ("escape_freq", "mean_returns", "censored"):
            assert getattr(deep, key) == getattr(cut, key)
        assert (deep.depth, cut.depth) == (25, 8) and built == [8, 8]

    @pytest.mark.parametrize("fam", [path_family(), regular_family(3), polynomial_family(1.2)],
                             ids=["path", "regular", "poly"])
    def test_escape_depth_1_is_refused(self, fam):
        """The root's parent step is 0, so every walk, and the control,
        reaches depth 1 on its first step."""
        with pytest.raises(InputError, match="^escape depth 1 is below 2: every walk"):
            phase_diagnostic(fam, AlphaDistribution.two_point(0.0, 3.0, 0.5), 0.1,
                             escape_depth=1, horizon=10**4, trials=100, master_seed=1,
                             depth=2)

    def test_point_mass_under_a_negative_seed(self):
        """A one-atom law builds one environment from the master seed
        itself, which may be negative, as derive_seed takes it."""
        kw = dict(escape_depth=12, horizon=10**4, trials=100, depth=20)
        a = phase_diagnostic(self.fam, AlphaDistribution.point(1.0), 0.1,
                             master_seed=-5, **kw)
        assert a.master_seed == -5 and a.verdict == "recurrent-leaning"

    def test_validation(self):
        dist = AlphaDistribution.point(1.0)
        with pytest.raises(ValueError, match="trials"):
            phase_diagnostic(self.fam, dist, 0.1, 16, 10**4, 50, master_seed=1,
                             depth=20)
        with pytest.raises(ValueError, match="^depth 0 is below 1$"):
            phase_diagnostic(self.fam, dist, 0.1, 0, 10**4, 100, master_seed=1,
                             depth=20)
        with pytest.raises(ValueError, match="^depth 16 exceeds the tree depth 8$"):
            phase_diagnostic(self.fam, dist, 0.1, 16, 10**4, 100,
                             master_seed=1, depth=8)
