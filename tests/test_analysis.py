import math
import random
from fractions import Fraction

import pytest

import goerw.analysis as analysis
from goerw.analysis import (
    FlowEnergyReport,
    GamblerChain,
    PhaseVerdict,
    flow_energy_check,
    gambler_ruin_exact,
    gambler_ruin_mc,
    hoeffding_bound,
    phase_diagnostic,
    proportional_flow,
    tree_max_flow,
)
from goerw.environment import AlphaDistribution, Environment, assign_deterministic, phi
from goerw.errors import RefusalError
from goerw.tree import (
    build_from_edge_list,
    build_path,
    build_polynomial,
    polynomial_family,
)
from goerw.walk import simulate


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
        with pytest.raises(ValueError, match="N >= 2"):
            GamblerChain(N=1, mu=(), start=0)
        with pytest.raises(ValueError, match="interior biases"):
            GamblerChain(N=3, mu=(1.0,), start=1)
        with pytest.raises(ValueError, match="start"):
            GamblerChain(N=3, mu=(1.0, 1.0), start=4)
        with pytest.raises(ValueError, match="positive"):
            GamblerChain(N=3, mu=(1.0, -2.0), start=1)

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


class TestHoeffding:
    def test_frozen_value(self):
        assert hoeffding_bound(1.0, [(0.0, 1.0)]) == pytest.approx(
            2 * math.exp(-2), rel=1e-12)

    def test_cap_at_one(self):
        assert hoeffding_bound(1e-9, [(0.0, 1.0)]) == 1.0

    def test_monotone_in_t_and_width(self):
        ranges = [(0.0, 1.0), (0.0, 2.0)]
        assert hoeffding_bound(2.0, ranges) < hoeffding_bound(1.0, ranges)
        assert hoeffding_bound(1.0, [(0.0, 2.0)]) > hoeffding_bound(1.0, [(0.0, 1.0)])

    def test_degenerate_ranges_give_zero(self):
        assert hoeffding_bound(0.5, [(1.0, 1.0), (2.0, 2.0)]) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError, match="positive"):
            hoeffding_bound(0.0, [(0.0, 1.0)])
        with pytest.raises(ValueError, match="non-empty"):
            hoeffding_bound(1.0, [])
        with pytest.raises(ValueError, match="b < a"):
            hoeffding_bound(1.0, [(2.0, 1.0)])

    def test_log_squared_shape(self):
        # ranges (1/n, 2/n) for n = 3..N with t = (eps/2) log N stay within
        # the pi^2/6 slack of the closed form 2 exp(-(3 eps^2 / pi^2) log^2 N)
        eps, N = 0.5, 200
        ranges = [(1 / n, 2 / n) for n in range(3, N + 1)]
        t = 0.5 * eps * math.log(N)
        got = hoeffding_bound(t, ranges)
        closed = 2 * math.exp(-(3 * eps**2 / math.pi**2) * math.log(N) ** 2)
        assert got <= closed  # the true sum of widths is below pi^2/6


class TestTreeFlow:
    def test_blocked_root_edge_routes_around(self):
        # two depth-2 paths below the root; zero capacity on one root edge
        tree = build_from_edge_list([(0, 1), (0, 2), (1, 3), (2, 4)])
        cap = lambda v: 0.0 if v == 1 else 1.0
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
        cap = lambda v: (1.0 / tree.depth[v]) ** 1.5
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
        assert (v.censored, v.control_censored) == (179, 110)
        assert stops[:300].count("max_steps") == v.censored
        assert stops[300:].count("max_steps") == v.control_censored
        assert v.verdict == "inconclusive"
        assert v.escape_freq < v.control_escape_freq + 3 * v.sigma

    @pytest.mark.parametrize("censoring_lane", [1, 2])  # excited, control
    def test_censoring_limit_is_one_percent(self, monkeypatch, censoring_lane):
        """Three censored runs of 300 in either lane keep the verdict, four
        withhold it."""
        for n_censored, verdict in ((3, "recurrent-leaning"), (4, "inconclusive")):
            def batch(*args):
                lane = args[-1]
                return (0.0 if lane == 1 else 0.5, 1.0,
                        n_censored if lane == censoring_lane else 0)
            monkeypatch.setattr(analysis, "_escape_batch", batch)
            v = phase_diagnostic(self.fam, AlphaDistribution.point(1.0), 0.1,
                                 escape_depth=12, horizon=10**4, trials=300,
                                 master_seed=5, depth=20)
            assert v.verdict == verdict

    def test_validation(self):
        dist = AlphaDistribution.point(1.0)
        with pytest.raises(ValueError, match="trials"):
            phase_diagnostic(self.fam, dist, 0.1, 16, 10**4, 50, master_seed=1)
        with pytest.raises(ValueError, match="escape depth"):
            phase_diagnostic(self.fam, dist, 0.1, 0, 10**4, 100, master_seed=1)
        with pytest.raises(ValueError, match="below the escape depth"):
            phase_diagnostic(self.fam, dist, 0.1, 16, 10**4, 100,
                             master_seed=1, depth=8)
