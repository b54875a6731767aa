import math
import tracemalloc
from collections import Counter

import pytest

import goerw.percolation as percolation
import goerw.tree as tree_module
from goerw.analysis import flow_energy_check
from goerw.environment import (
    AlphaDistribution,
    Environment,
    Psi,
    _conductance,
    assign_deterministic,
    environment_from_alpha,
    psi,
)
from goerw.errors import RefusalError
from goerw.percolation import (
    adapted_conductance,
    concentration_experiment,
    edge_connection_probability_mc,
    sample_ruin_percolation,
)
from goerw.tree import build_from_edge_list, build_path, build_regular
from goerw.walk import (ClockTable, StopRule, _extension_run, derive_seed, derive_seeds,
                        extension_reach, simulate_extension, simulate_rubin)

from conftest import (flow_energy_rows_ref, quasi_independence_constant,
                      quasi_independence_statistic, random_broom, random_tree)


def ternary_excited(depth):
    t = build_regular(3, depth)
    return t, environment_from_alpha(t, [1.0] * t.n_vertices)


# ---------------------------------------------------------------------------
# per-edge reference: one extension per edge, each asked on its own whether
# it reaches its edge before the root


def edge_open_ref(env, table, v):
    """True/False per the extension toward v alone; None if it capped."""
    traj = simulate_extension(
        env, table, v,
        StopRule(max_steps=percolation._EXTENSION_CAP,
                 hit_depth=env.tree.depth[v], root_returns=1)
    )
    if traj.stop_reason == "max_steps":
        return None
    return traj.escaped


def sample_ref(env, master_seed, sample_index):
    """(open_edges, root_cluster, valid, violations) from every edge's own
    extension; violations counts open edges under a closed parent."""
    t = env.tree
    table = ClockTable(derive_seed(master_seed, sample_index))
    open_edges = [False] * t.n_vertices
    valid = True
    for v in range(1, t.n_vertices):
        status = edge_open_ref(env, table, v)
        if status is None:
            valid = False
        open_edges[v] = bool(status)
    cluster = {v for v in range(1, t.n_vertices)
               if all(open_edges[g] for g in t.root_path(v)[1:])}
    violations = sum(1 for v in range(1, t.n_vertices)
                     if t.depth[v] >= 2 and open_edges[v]
                     and not open_edges[t.parent[v]])
    return open_edges, frozenset(cluster), valid, violations


def connection_ref(env, edge, trials, master_seed):
    """(n_connected, invalid_runs): a trial is connected when every edge of
    the root path is open, invalid when any of their runs capped."""
    n_connected = invalid = 0
    for i in range(trials):
        table = ClockTable(derive_seed(master_seed, i))
        status = [edge_open_ref(env, table, v) for v in env.tree.root_path(edge)[1:]]
        if None in status:
            invalid += 1
        elif all(status):
            n_connected += 1
    return n_connected, invalid


def steps_ref(env, edge, trials, master_seed):
    """Total steps of one scalar extension toward edge per trial."""
    return sum(
        simulate_extension(
            env, ClockTable(derive_seed(master_seed, i)), edge,
            StopRule(max_steps=percolation._EXTENSION_CAP,
                     hit_depth=env.tree.depth[edge], root_returns=1)).steps
        for i in range(trials))


def quasi_ref(env, edge_a, edge_b, trials, master_seed):
    """(kept, hit_a, hit_b, hit_both, invalid) with one extension per path
    edge. A trial is invalid when a run it needs capped: any run on edge_a's
    path, or, once the ancestor is connected, any run below it toward
    edge_b."""
    t = env.tree
    pa, pb = t.root_path(edge_a), t.root_path(edge_b)
    n_cond = sum(1 for x, y in zip(pa[1:], pb[1:]) if x == y)
    kept = hit_a = hit_b = hit_both = invalid = 0
    for i in range(trials):
        table = ClockTable(derive_seed(master_seed, i))
        sa = [edge_open_ref(env, table, v) for v in pa[1:]]
        if None not in sa and not all(sa[:n_cond]):
            continue
        sb = ([] if None in sa else
              [edge_open_ref(env, table, v) for v in pb[1 + n_cond:]])
        if None in sa or None in sb:
            invalid += 1
            continue
        kept += 1
        ca, cb = all(sa), all(sb)
        hit_a += ca
        hit_b += cb
        hit_both += ca and cb
    return kept, hit_a, hit_b, hit_both, invalid


def chain_heads(t, s):
    """The vertices a sample runs an extension for: the root's children and
    every child of a cluster vertex other than its first."""
    return [v for v in range(1, t.n_vertices)
            if t.parent[v] == 0
            or (t.parent[v] in s.root_cluster and t.children[t.parent[v]][0] != v)]


def chain_end(t, v):
    """The end of v's leftmost chain, which a run for head v targets."""
    while t.children[v]:
        v = t.children[v][0]
    return v


def random_lams(rng, t):
    lam = [rng.uniform(0.2, 4.0) for _ in range(t.n_vertices)]
    mu = [rng.uniform(0.2, 4.0) for _ in range(t.n_vertices)]
    return Environment(t, lam, mu)


def random_env(rng, max_edges=24, max_depth=6):
    t = random_tree(rng, max_edges=max_edges, max_depth=max_depth)
    return t, random_lams(rng, t)


def disjoint_pair(t, rng):
    """Two edges neither of which is on the other's root path, or None."""
    for _ in range(20 if t.n_vertices > 2 else 0):
        a, b = rng.sample(range(1, t.n_vertices), 2)
        if a not in t.root_path(b) and b not in t.root_path(a):
            return a, b
    return None


class TestSample:
    def test_depth_one_always_open_and_clustered(self):
        t, env = ternary_excited(3)
        for i in range(20):
            s = sample_ruin_percolation(env, master_seed=7, sample_index=i)
            for c in t.children[0]:
                assert s.open_edges[c]
                assert c in s.root_cluster

    def test_cluster_is_upward_closed_and_no_violations(self):
        t, env = ternary_excited(3)
        for i in range(50):
            s = sample_ruin_percolation(env, master_seed=8, sample_index=i)
            assert s.valid
            assert s.monotone_violations == 0
            for e in s.root_cluster:
                p = t.parent[e]
                assert p == 0 or p in s.root_cluster
            # cluster membership is exactly "all ancestors open"
            for v in range(1, t.n_vertices):
                expected = all(s.open_edges[g] for g in t.root_path(v)[1:])
                assert (v in s.root_cluster) == expected

    def test_deterministic_in_seed_and_index(self):
        _, env = ternary_excited(3)
        a = sample_ruin_percolation(env, master_seed=9, sample_index=4)
        b = sample_ruin_percolation(env, master_seed=9, sample_index=4)
        c = sample_ruin_percolation(env, master_seed=9, sample_index=5)
        assert a.open_edges == b.open_edges
        assert a.open_edges != c.open_edges


class TestWorkCounters:
    """runs, steps and clocks count the work a sample did, deterministically:
    one run per chain head, only the steps each run executed, not the
    prefix it resumed past, and the distinct clocks its table computed."""

    def test_clocks_are_the_tables_distinct_clocks(self, rng, monkeypatch):
        tables = []

        def table(seed, real=ClockTable):
            tables.append(real(seed))
            return tables[-1]

        monkeypatch.setattr(percolation, "ClockTable", table)
        counted = 0
        for k in range(40):
            _, env = random_env(rng)
            s = sample_ruin_percolation(env, master_seed=96, sample_index=k)
            assert s.clocks == len(tables[-1]._clock)
            assert sample_ruin_percolation(env, master_seed=96, sample_index=k) == s
            counted += s.clocks > 0
        assert counted > 20

    def test_runs_and_steps(self, rng):
        shorter = 0
        for k in range(60):
            t, env = random_env(rng)
            s = sample_ruin_percolation(env, master_seed=95, sample_index=k)
            heads = chain_heads(t, s)
            assert s.runs == len(heads)
            again = sample_ruin_percolation(env, master_seed=95, sample_index=k)
            assert (again.runs, again.steps) == (s.runs, s.steps)
            table = ClockTable(derive_seed(95, k))
            restart = 0
            for h in heads:
                end = chain_end(t, h)
                restart += simulate_extension(
                    env, table, end,
                    StopRule(max_steps=percolation._EXTENSION_CAP,
                             hit_depth=t.depth[end], root_returns=1)).steps
            assert 0 < s.steps <= restart
            shorter += s.steps < restart
        assert shorter > 0


class TestOneRunPerPath:
    """One extension per root path must give exactly what one extension per
    edge gives. This is the coupling check: nested extensions read the same
    clocks, so a run decides every edge above its target."""

    def test_sample_matches_per_edge_runs(self, rng):
        open_deep = closed_deep = 0
        for k in range(240):
            t, env = random_env(rng)
            s = sample_ruin_percolation(env, master_seed=30, sample_index=k)
            open_edges, cluster, valid, violations = sample_ref(env, 30, k)
            assert s.open_edges == open_edges
            assert s.root_cluster == cluster
            assert s.valid == valid
            assert violations == 0
            assert s.monotone_violations == 0
            for v in range(1, t.n_vertices):
                if t.depth[v] >= 2:
                    open_deep += open_edges[v]
                    closed_deep += not open_edges[v]
        # both outcomes occur below depth 1, so the comparison is not vacuous
        assert open_deep > 50 and closed_deep > 50

    def test_excited_winners_belong_to_one_sample(self, rng):
        """A vertex's first step depends on lam. Two environments that
        differ only in lam, sampled on one tree with the same seed and
        index, must each equal their own per-edge reference: a first step
        kept past its sample (on the tree, say) would hand the first
        environment's steps to the second."""
        differ = 0
        for k in range(80):
            t = random_tree(rng, max_edges=24, max_depth=6)
            mu = [rng.uniform(0.2, 4.0) for _ in range(t.n_vertices)]
            envs = [Environment(t, [rng.uniform(0.05, 20.0) for _ in range(t.n_vertices)], mu)
                    for _ in range(2)]
            got = [sample_ruin_percolation(env, master_seed=120, sample_index=k)
                   for env in envs]
            for env, s in zip(envs, got):
                assert (s.open_edges, s.root_cluster, s.valid) == sample_ref(env, 120, k)[:3]
            differ += got[0].open_edges != got[1].open_edges
        # lam moves only the first steps, so these samples differ by one
        assert differ > 10

    def test_connection_mc_matches_per_edge_runs(self, rng):
        connected = closed = 0
        for k in range(200):
            t, env = random_env(rng, max_edges=12, max_depth=5)
            edge = rng.randrange(1, t.n_vertices)
            est = edge_connection_probability_mc(env, edge, trials=100,
                                                 master_seed=40 + k)
            n_connected, invalid = connection_ref(env, edge, 100, 40 + k)
            assert est.n_connected == n_connected
            assert est.invalid_runs == invalid
            assert est.monotone_violations == 0
            assert est.steps == steps_ref(env, edge, 100, 40 + k)
            if t.depth[edge] >= 2:
                connected += n_connected
                closed += 100 - n_connected
        assert connected > 0 and closed > 0

    def test_quasi_independence_matches_per_edge_runs(self, rng):
        compared = 0
        while compared < 40:
            t, env = random_env(rng, max_edges=16, max_depth=5)
            pair = disjoint_pair(t, rng)
            if pair is None:
                continue
            a, b = pair
            seed = 50 + compared
            kept, hit_a, hit_b, hit_both, invalid = quasi_ref(env, a, b, 150, seed)
            assert invalid == 0
            if kept == 0:
                with pytest.raises(RefusalError):
                    quasi_independence_statistic(env, a, b, 150, seed,
                                                 min_conditioned=1)
                continue
            rep = quasi_independence_statistic(env, a, b, 150, seed,
                                               min_conditioned=1)
            assert (rep.kept, rep.invalid_runs) == (kept, 0)
            assert rep.p_a == hit_a / kept
            assert rep.p_b == hit_b / kept
            assert rep.p_joint == hit_both / kept
            compared += 1

    def test_one_run_per_chain(self, rng, monkeypatch):
        """A sample runs one extension per chain head (a root child, or a
        child of a cluster vertex other than its first) and never enters a
        subtree under a closed edge; the edge MC runs one lockstep lane per
        trial and no scalar run. The quasi-independence statistic runs no
        scalar run either: one lane toward edge_a per trial, then one toward
        edge_b per trial whose edge_a run reached the common ancestor
        without capping."""
        runs = []

        def counted(first, pf, mu, table, path, *args, **kwargs):
            runs.append(path[-1])
            return _extension_run(first, pf, mu, table, path, *args, **kwargs)

        def counted_lanes(env, target, seeds, cap):
            runs.extend([target] * seeds.size)
            return extension_reach(env, target, seeds, cap)

        monkeypatch.setattr(percolation, "_extension_run", counted)
        monkeypatch.setattr(percolation, "extension_reach", counted_lanes)
        for k in range(60):
            t, env = random_env(rng)
            runs.clear()
            s = sample_ruin_percolation(env, master_seed=90, sample_index=k)
            assert len(runs) == len(chain_heads(t, s))
            runs.clear()
            edge_connection_probability_mc(env, t.n_vertices - 1, trials=100,
                                           master_seed=90 + k)
            assert runs == [t.n_vertices - 1] * 100
            pair = disjoint_pair(t, rng)
            if pair is None or max(t.depth) < 2:  # K needs an edge at depth 2
                continue
            a, b = pair
            ds = sum(x == y for x, y in zip(t.root_path(a), t.root_path(b))) - 1
            conditioned = 0
            for i in range(100):
                traj = simulate_extension(
                    env, ClockTable(derive_seed(90 + k, i)), a,
                    StopRule(max_steps=percolation._EXTENSION_CAP,
                             hit_depth=t.depth[a], root_returns=1))
                conditioned += traj.stop_reason != "max_steps" and traj.max_depth >= ds
            runs.clear()
            try:
                quasi_independence_statistic(env, a, b, 100, 90 + k, min_conditioned=1)
            except RefusalError:
                assert conditioned == 0
            assert runs == [a] * 100 + [b] * conditioned


class TestSampleReuse:
    """What the clock kernels read and a sample keeps: no kernel reads a
    j = 0 clock, since a first step is a draw, and each chain head's
    leftmost chain is kept on the tree, for the heads run only."""

    def test_no_kernel_reads_a_j0_clock(self, rng, monkeypatch):
        """The sampler, the full walk and the extension read clocks j >= 1
        only, and every direction's reads on a table are j = 1, 2, ... with
        none skipped: a first step's direction starts at 1 as every other
        does. The lockstep's handed-off runs, which go on from the indices
        their sweep reached, read j >= 1 too."""
        reads = []
        real = ClockTable.xi

        def counted(table, v, u, j):
            reads.append((id(table), v, u, j))
            return real(table, v, u, j)

        def check(from_one=True):
            by_direction = {}
            for key in reads:
                by_direction.setdefault(key[:3], set()).add(key[3])
            for js in by_direction.values():
                assert js == set(range(1, len(js) + 1)) if from_one else min(js) >= 1
            reads.clear()
            return len(by_direction)

        monkeypatch.setattr(ClockTable, "xi", counted)
        t = build_regular(3, 7)
        envs = [(t, environment_from_alpha(t, [rng.choice((0.0, 3.0)) for _ in t.parent]))
                for _ in range(5)]
        envs += [random_env(rng) for _ in range(60)]
        directions = Counter()
        for k, (t, env) in enumerate(envs):
            sample_ruin_percolation(env, master_seed=130, sample_index=k)
            directions["sample"] += check()
            table = ClockTable(derive_seed(131, k))
            simulate_rubin(env, StopRule(max_steps=300), table)
            simulate_extension(env, table, t.n_vertices - 1, StopRule(max_steps=300))
            directions["walks"] += check()
            extension_reach(env, t.n_vertices - 1, derive_seeds(132 + k, 40), 10_000_000)
            directions["hand-off"] += check(from_one=False)
        assert min(directions.values()) > 200

    def test_chain_table_holds_only_the_heads_run(self, monkeypatch):
        """regular:d=3,L=14 has 49,150 vertices. Under mu = 4 the root
        cluster stays small, and the chain table holds exactly the heads
        the samples ran: 312 of them (their summed runs are 797), about
        131 KB, where a table of every head would take about 15 MB."""
        heads = set()

        def watched(first, pf, mu, table, path, pos, *args, **kwargs):
            heads.add(path[pos + 1])
            return _extension_run(first, pf, mu, table, path, pos, *args, **kwargs)

        monkeypatch.setattr(percolation, "_extension_run", watched)
        t = build_regular(3, 14)
        env = assign_deterministic(t, mu=4.0)
        t.levels, t.depth, t.float_degrees  # built before tracing: the whole-tree arrays
        tracemalloc.start()
        try:
            runs = sum(sample_ruin_percolation(env, master_seed=5, sample_index=i).runs
                       for i in range(40))
            traces = tracemalloc.take_snapshot().filter_traces(
                [tracemalloc.Filter(True, tree_module.__file__)])
        finally:
            tracemalloc.stop()
        assert set(t._chains) == heads
        assert len(heads) <= runs < t.n_vertices // 50
        assert sum(stat.size for stat in traces.statistics("filename")) < 256 * 1024


class TestCapHits:
    """With the step cap cut to a few steps, runs that dither stop on the
    cap. Such a run is invalid, never an ordinary closed edge, and the
    one-run-per-path answer still equals the per-edge one."""

    CAP = 5

    def test_sample_invalid_and_equal_to_per_edge_runs(self, rng, monkeypatch):
        monkeypatch.setattr(percolation, "_EXTENSION_CAP", self.CAP)
        invalid = 0
        for k in range(120):
            _, env = random_env(rng)
            s = sample_ruin_percolation(env, master_seed=60, sample_index=k)
            open_edges, cluster, valid, _ = sample_ref(env, 60, k)
            assert (s.open_edges, s.root_cluster, s.valid) == (open_edges, cluster, valid)
            invalid += not s.valid
        assert 0 < invalid < 120

    def test_trials_invalid_and_equal_to_per_edge_runs(self, rng, monkeypatch):
        monkeypatch.setattr(percolation, "_EXTENSION_CAP", self.CAP)
        invalid = 0
        for k in range(60):
            t, env = random_env(rng, max_edges=12, max_depth=5)
            edge = rng.randrange(1, t.n_vertices)
            est = edge_connection_probability_mc(env, edge, trials=100,
                                                 master_seed=70 + k)
            assert (est.n_connected, est.invalid_runs) == connection_ref(env, edge, 100, 70 + k)
            assert est.steps == steps_ref(env, edge, 100, 70 + k)
            invalid += est.invalid_runs
        assert invalid > 0

    def test_capped_trial_is_not_a_closed_edge(self, monkeypatch):
        monkeypatch.setattr(percolation, "_EXTENSION_CAP", self.CAP)
        t, env = ternary_excited(4)
        edge = t.leftmost_at_depth(4)
        est = edge_connection_probability_mc(env, edge, trials=400, master_seed=80)
        capped = closed = 0
        for i in range(400):
            traj = simulate_extension(
                env, ClockTable(derive_seed(80, i)), edge,
                StopRule(max_steps=self.CAP, hit_depth=4, root_returns=1))
            capped += traj.stop_reason == "max_steps"
            closed += traj.stop_reason == "root_returns"
        assert capped > 0 and closed > 0
        assert est.invalid_runs == capped
        assert est.n_connected == 400 - capped - closed

    def test_quasi_independence_leaves_capped_trials_out(self, rng, monkeypatch):
        monkeypatch.setattr(percolation, "_EXTENSION_CAP", self.CAP)
        compared = invalid = 0
        while compared < 40:
            t, env = random_env(rng, max_edges=16, max_depth=5)
            pair = disjoint_pair(t, rng)
            if pair is None:
                continue
            a, b = pair
            seed = 100 + compared
            kept, hit_a, hit_b, hit_both, n_invalid = quasi_ref(env, a, b, 150, seed)
            if kept == 0:
                continue
            rep = quasi_independence_statistic(env, a, b, 150, seed,
                                               min_conditioned=1)
            assert (rep.kept, rep.invalid_runs) == (kept, n_invalid)
            assert (rep.p_a, rep.p_b, rep.p_joint) == (
                hit_a / kept, hit_b / kept, hit_both / kept)
            invalid += n_invalid
            compared += 1
        assert invalid > 0

    def test_capped_trial_is_neither_kept_nor_rejected(self, monkeypatch):
        """Two depth-5 edges in different root subtrees: the conditioning is
        empty, so every trial is kept unless a run capped."""
        t, env = ternary_excited(5)
        a, b = t.levels.starts[5], t.levels.starts[6] - 1
        monkeypatch.setattr(percolation, "_EXTENSION_CAP", 6)
        rep = quasi_independence_statistic(env, a, b, 2000, master_seed=17)
        assert rep.invalid_runs > 0
        assert rep.kept + rep.invalid_runs == 2000

    def test_invalid_trials_withhold_holds(self, monkeypatch):
        """Same pair at 4,000 trials: 852 invalid trials bias p_a to 0.0038
        against 0.053 uncapped, so the report may not claim holds."""
        t, env = ternary_excited(5)
        a, b = t.levels.starts[5], t.levels.starts[6] - 1
        monkeypatch.setattr(percolation, "_EXTENSION_CAP", 6)
        rep = quasi_independence_statistic(env, a, b, 4000, master_seed=17)
        assert (rep.invalid_runs, rep.invalid_fraction) == (852, 852 / 4000)
        assert rep.p_joint <= rep.bound + 3 * rep.sigma_joint
        assert not rep.holds

    def test_invalid_fraction_limit(self, monkeypatch):
        """holds survives invalid trials up to 1% of those attempted."""
        t, env = ternary_excited(5)
        a, b = t.levels.starts[5], t.levels.starts[6] - 1
        for n_invalid, holds in ((0, True), (1, True), (2, False)):
            def first_lanes_capped(env, target, seeds, cap):
                reach, capped, steps = extension_reach(env, target, seeds, cap)
                if target == a:
                    capped[:n_invalid] = True
                return reach, capped, steps

            monkeypatch.setattr(percolation, "extension_reach", first_lanes_capped)
            rep = quasi_independence_statistic(env, a, b, 100, master_seed=17)
            assert (rep.invalid_runs, rep.invalid_fraction) == (n_invalid, n_invalid / 100)
            assert rep.p_joint <= rep.bound + 3 * rep.sigma_joint
            assert rep.holds is holds


class TestResumedUnderCaps:
    """A run that resumes from a parent chain's snapshot carries that
    chain's step count, so under every step cap the sample equals one
    restart-from-root run per edge, also when the cap binds in the middle
    of a resumed run."""

    def test_every_cap_equals_per_edge_runs(self, rng, monkeypatch):
        trees = [random_tree(rng, max_edges=24, max_depth=6) for _ in range(20)]
        trees += [random_broom(rng, max_edges=16, max_depth=4) for _ in range(8)]
        trees += [build_path(6), build_regular(4, 1)]
        envs = [random_lams(rng, t) for t in trees]
        resumed_binds = []

        def watched(first, pf, mu, table, path, pos, states, steps, cap, *args, **kwargs):
            out = _extension_run(first, pf, mu, table, path, pos, states, steps, cap,
                                 *args, **kwargs)
            if pos > 0 and steps < cap and out.stop_reason == "max_steps":
                resumed_binds.append((pos, steps, cap))
            return out

        monkeypatch.setattr(percolation, "_extension_run", watched)
        invalid = 0
        for cap in range(1, 41):
            monkeypatch.setattr(percolation, "_EXTENSION_CAP", cap)
            for k, env in enumerate(envs):
                s = sample_ruin_percolation(env, master_seed=110 + cap, sample_index=k)
                open_edges, cluster, valid, _ = sample_ref(env, 110 + cap, k)
                assert (s.open_edges, s.root_cluster, s.valid) == (open_edges, cluster, valid)
                invalid += not s.valid
        assert 0 < invalid < 40 * len(envs)
        # the cap bound inside runs that started below the root
        assert len(resumed_binds) > 0


class TestConnectionEstimate:
    def test_symmetric_edge_probability(self):
        t = build_regular(3, 3)
        env = assign_deterministic(t)
        edge = t.leftmost_at_depth(3)
        est = edge_connection_probability_mc(env, edge, trials=20000, master_seed=11)
        assert est.exact == pytest.approx(1 / 3, rel=1e-12)
        se = math.sqrt(est.exact * (1 - est.exact) / est.trials)
        assert abs(est.p_hat - est.exact) < 4 * se
        assert est.monotone_violations == 0
        assert est.invalid_runs == 0
        assert abs(est.z_score) < 4

    def test_excited_edge_probability(self):
        t, env = ternary_excited(3)
        edge = t.leftmost_at_depth(3)
        est = edge_connection_probability_mc(env, edge, trials=20000, master_seed=12)
        assert est.exact == pytest.approx(1 / 8, rel=1e-12)
        se = math.sqrt(est.exact * (1 - est.exact) / est.trials)
        assert abs(est.p_hat - est.exact) < 4 * se

    def test_minimum_trials(self):
        t, env = ternary_excited(2)
        with pytest.raises(ValueError, match="100"):
            edge_connection_probability_mc(env, 1, trials=50, master_seed=1)


class TestAdaptedConductance:
    def test_symmetric_is_one(self):
        t = build_path(6)
        env = assign_deterministic(t)
        for v in range(1, 7):
            assert adapted_conductance(env, v) == pytest.approx(1.0, rel=1e-12)

    def test_excited_depth_three(self):
        t, env = ternary_excited(3)
        e = t.leftmost_at_depth(3)
        # Psi = 1/8, psi = 1/2 at depth 3
        assert adapted_conductance(env, e) == pytest.approx(0.25, rel=1e-12)

    def test_depth_one_convention(self):
        t, env = ternary_excited(2)
        assert adapted_conductance(env, 1) == 1.0

    def test_unit_psi_is_infinite(self):
        """lam = 1e-300 rounds psi to exactly 1 below depth 1: resistance 0,
        conductance +inf, also under a Psi of 0 (lam = 1e300 at vertex 1
        makes psi 0 at vertex 2)."""
        env = assign_deterministic(build_path(6), lam=1e-300)
        for v in range(2, 7):
            assert (psi(env, v), adapted_conductance(env, v)) == (1.0, math.inf)
        env = Environment(build_path(4), [1.0, 1e300, 1e-300, 1e-300, 1.0], [1.0] * 5)
        assert (psi(env, 2), psi(env, 3), Psi(env, 3)) == (0.0, 1.0, 0.0)
        assert adapted_conductance(env, 3) == math.inf

    def test_unit_psi_under_zero_Psi_on_a_branching_tree(self):
        """Vertex 1 (lam 1e300, two children) rounds psi to 0 below it, so
        Psi is 0 on its whole subtree; lam = 1e-300 at the single-child
        vertices under it and under vertex 2 rounds psi to 1 there, with Psi
        0 and 1. Every psi of 1 gives conductance +inf, whatever Psi, the
        edge by edge reading is the whole table's, and the flow rows are
        repr-equal to the scalar reference's."""
        t = build_from_edge_list([(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (2, 6), (3, 7),
                                  (3, 8), (4, 9), (5, 10), (6, 11), (7, 12), (8, 13)])
        n = t.n_vertices
        lam = [1.0, 1e300, 1e-300, 2.0] + [1e-300] * 3 + [2.0] * (n - 7)
        env = Environment(t, lam, [1.0] * n)
        unit = [v for v in range(t.leftmost_at_depth(2), n) if psi(env, v) == 1.0]
        assert unit == [6, 9, 10, 11]
        assert [Psi(env, v) for v in unit] == [1.0, 0.0, 0.0, 1.0]
        assert [adapted_conductance(env, v) for v in unit] == [math.inf] * 4
        table = _conductance(env, 1, n).tolist()
        assert [adapted_conductance(env, v) for v in range(1, n)] == table
        assert table[:3] == [1.0] * 3 and math.isfinite(table[12 - 1])
        for depths in ([2, 3], [3]):
            rows = flow_energy_check(env, 1.5, depths).rows
            assert repr(rows) == repr(flow_energy_rows_ref(env, 1.5, depths))


class TestQuasiIndependence:
    def test_constant_for_unit_mu(self):
        t, env = ternary_excited(4)
        K, M = quasi_independence_constant(env)
        assert K == pytest.approx(3.0)
        assert M == pytest.approx(16 * math.exp(6.0))

    def test_sibling_pair_bound_holds(self):
        t, env = ternary_excited(3)
        e1, e2 = t.children[1][0], t.children[1][1]
        rep = quasi_independence_statistic(env, e1, e2, trials=4000, master_seed=13)
        assert rep.ancestor == 1
        assert rep.kept == 4000  # depth-1 edges are always open
        assert rep.holds
        # conditional marginal is psi at depth 2
        assert rep.p_a == pytest.approx(0.25, abs=0.03)
        assert rep.p_b == pytest.approx(0.25, abs=0.03)

    def test_disjoint_pair_is_independent(self):
        t, env = ternary_excited(3)
        e1 = t.children[t.children[0][0]][0]
        e2 = t.children[t.children[0][1]][0]
        rep = quasi_independence_statistic(env, e1, e2, trials=6000, master_seed=14)
        assert rep.ancestor == 0
        assert rep.independence_z is not None
        assert abs(rep.independence_z) < 3.5
        assert rep.ratio == pytest.approx(1.0, abs=0.15)
        assert rep.holds

    def test_starved_conditioning_refuses(self):
        t, env = ternary_excited(4)
        grandparent = t.children[1][0]  # depth 2, reached with prob 1/4
        e1, e2 = t.children[grandparent][0], t.children[grandparent][1]
        with pytest.raises(RefusalError, match="kept"):
            quasi_independence_statistic(env, e1, e2, trials=120, master_seed=15)

    def test_nested_pair_rejected(self):
        t, env = ternary_excited(3)
        child = t.children[1][0]
        with pytest.raises(ValueError, match="degenerate"):
            quasi_independence_statistic(env, 1, child, trials=100, master_seed=16)


class TestConcentration:
    dist = AlphaDistribution.two_point(0.0, 3.0, 0.5)

    def test_wide_band_never_violated(self):
        rep = concentration_experiment(build_path(16), self.dist, epsilon=1.0,
                                       depths=[4, 8, 16], env_samples=100,
                                       master_seed=17)
        assert rep.violations == [0, 0, 0]
        assert rep.m == pytest.approx(0.625)

    def test_narrow_band_violations_shrink_with_depth(self):
        rep = concentration_experiment(build_path(64), self.dist, epsilon=0.3,
                                       depths=[8, 64], env_samples=300,
                                       master_seed=18)
        assert rep.frequencies[0] > rep.frequencies[1]
        assert rep.n_environments == 300

    def test_depth_beyond_tree_rejected(self):
        with pytest.raises(ValueError, match="depth"):
            concentration_experiment(build_path(8), self.dist, 0.3, [16], 10, 19)

    def test_degenerate_distribution_refused(self):
        with pytest.raises(RefusalError, match="degenerate"):
            concentration_experiment(build_path(8), AlphaDistribution.point(1.0),
                                     0.3, [4], 10, 20)

    def test_epsilon_positive(self):
        with pytest.raises(ValueError, match="epsilon"):
            concentration_experiment(build_path(8), self.dist, 0.0, [4], 10, 21)

    @pytest.mark.parametrize("epsilon", [1e308, 400.0])
    def test_band_ends_past_the_float_range(self, epsilon):
        """An upper end d**(m - 2 + eps) past the float range reads +inf,
        which Psi <= 1 never exceeds, and the lower end underflows to 0."""
        rep = concentration_experiment(build_path(16), self.dist, epsilon, [1, 8, 16], 20, 22)
        assert rep.violations == [0, 0, 0]
