"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line. The
criteria pin the package's headline guarantees: exact formula oracles, the
walk/extension coupling, the cutset machinery, the phase-flip surrogate,
and CLI reproducibility. Tolerances are written into the assertions and are
not tunable from outside.
"""

import math
import random

import pytest

from goerw.analysis import (
    GamblerChain,
    gambler_ruin_exact,
    gambler_ruin_mc,
    phase_diagnostic,
)
from goerw.cli import main as cli_main
from goerw.environment import (
    AlphaDistribution,
    Environment,
    Psi,
    assign_deterministic,
    environment_from_alpha,
    psi,
)
from goerw.percolation import (
    adapted_conductance,
    concentration_experiment,
    edge_connection_probability_mc,
)
from goerw.tree import (
    branching_ruin_estimate,
    build_from_edge_list,
    build_path,
    build_regular,
    min_cutset_sum,
    polynomial_family,
)
from goerw.walk import ClockTable, StopRule, derive_seed, restriction, simulate_extension, simulate_rubin

from conftest import (enumerate_cutsets, psi_simplified, quasi_independence_constant,
                      quasi_independence_statistic, random_tree, weights_of)


def report(number: int, ok: bool, name: str, detail: str) -> None:
    print(f"CRITERION {number:02d} {'PASS' if ok else 'FAIL'} - {name}: {detail}")


def test_criterion_01_psi_identity_mc():
    """Exact ruin product vs coupled-extension MC, depths 1-5, both envs."""
    tree = build_regular(3, 5)
    envs = {
        "lam=1,mu=1": assign_deterministic(tree),
        "alpha=1,mu=1": environment_from_alpha(tree, [1.0] * tree.n_vertices),
    }
    trials = 100_000
    worst = 0.0
    ok = True
    details = []
    for name, env in envs.items():
        for d in (1, 2, 3, 4, 5):
            edge = tree.leftmost_at_depth(d)
            est = edge_connection_probability_mc(env, edge, trials,
                                                 derive_seed(1001, d))
            z = est.z_score
            worst = max(worst, abs(z))
            if abs(z) > 3.0 or est.monotone_violations or est.invalid_runs:
                ok = False
                details.append(f"{name} depth {d}: z={z:+.2f}")
    detail = (f"10 edges x {trials} samples, worst |z| = {worst:.2f} (limit 3)"
              + ("" if ok else "; " + "; ".join(details)))
    report(1, ok, "ruin-product identity", detail)
    assert ok, detail


def test_criterion_02_coincidence():
    """Walk restriction equals the path-confined process, 1000 shared-clock
    trials on a depth-5 random tree, zero mismatches."""
    rng = random.Random(0xACCE55)
    tree = random_tree(rng, max_edges=28, max_depth=5)
    while tree.truncation_depth != 5:
        tree = random_tree(rng, max_edges=28, max_depth=5)
    lam = [rng.choice([0.5, 1.0, 2.0, 3.0]) for _ in range(tree.n_vertices)]
    mu = [rng.choice([0.5, 1.0, 2.0]) for _ in range(tree.n_vertices)]
    env = Environment(tree, lam, mu)
    deep = [v for v in range(1, tree.n_vertices) if tree.depth[v] >= 2]
    mismatches = 0
    for trial in range(1000):
        target = rng.choice(deep)
        table = ClockTable(derive_seed(1002, trial))
        walk = simulate_rubin(env, StopRule(max_steps=300), table)
        want = restriction(walk.positions, tree.root_path(target))
        ext = simulate_extension(env, table, target,
                                 StopRule(max_steps=len(want) - 1))
        if ext.positions != want:
            mismatches += 1
    ok = mismatches == 0
    report(2, ok, "coincidence", f"1000 trials, {mismatches} mismatches")
    assert ok


def test_criterion_03_gambler_ruin():
    """Difference-equation residual on 1000 random chains; MC at 1e5 within
    3 sigma for 10 configurations."""
    rng = random.Random(0xBEAD)
    worst_residual = 0.0
    for _ in range(1000):
        N = rng.randint(2, 50)
        mu = tuple(rng.uniform(0.2, 5.0) for _ in range(N - 1))
        x = [gambler_ruin_exact(GamblerChain(N, mu, i)) for i in range(N + 1)]
        for i in range(1, N):
            q = mu[i - 1] / (1.0 + mu[i - 1])
            residual = abs(x[i] - (q * x[i - 1] + (1 - q) * x[i + 1]))
            worst_residual = max(worst_residual, residual)
    residual_ok = worst_residual <= 1e-12

    configs = [
        (2, (1.0,), 1), (2, (2.0,), 1), (3, (2.0, 2.0), 1),
        (4, (1.0, 1.0, 1.0), 2), (5, (0.5,) * 4, 2), (3, (3.0, 0.5), 2),
        (6, (2.0, 1.0, 0.5, 1.0, 2.0), 3), (4, (0.25, 1.0, 4.0), 1),
        (10, (1.5,) * 9, 5), (8, (0.8, 1.3, 2.1, 0.6, 1.0, 1.7, 0.9), 4),
    ]
    worst_z = 0.0
    mc_ok = True
    for k, (N, mu, start) in enumerate(configs):
        chain = GamblerChain(N, mu, start)
        exact = gambler_ruin_exact(chain)
        est, _ = gambler_ruin_mc(chain, 100_000, seed=derive_seed(1003, k))
        se = math.sqrt(max(exact * (1 - exact), 1e-12) / 100_000)
        z = (est - exact) / se
        worst_z = max(worst_z, abs(z))
        mc_ok = mc_ok and abs(z) <= 3.0
    ok = residual_ok and mc_ok
    report(3, ok, "gambler's ruin",
           f"worst residual {worst_residual:.2e} (limit 1e-12), "
           f"worst MC |z| {worst_z:.2f} over 10 configs (limit 3)")
    assert ok


def test_criterion_04_symmetric_closed_form():
    """lam=1, mu=1: Psi(e) = 1/|e| and c(e) = 1, depths up to 1000."""
    tree = build_path(1000)
    env = assign_deterministic(tree)
    worst_psi = 0.0
    worst_c = 0.0
    for n in range(1, 1001):
        worst_psi = max(worst_psi, abs(Psi(env, n) * n - 1.0))
        worst_c = max(worst_c, abs(adapted_conductance(env, n) - 1.0))
    ok = worst_psi <= 1e-12 and worst_c <= 1e-12
    report(4, ok, "symmetric closed form",
           f"worst rel err: Psi {worst_psi:.2e}, c {worst_c:.2e} (limit 1e-12)")
    assert ok


def test_criterion_05_simplified_psi():
    """General per-edge factor vs the mu=1 shortcut on 1000 random triples."""
    rng = random.Random(0xF00D)
    worst = 0.0
    for _ in range(1000):
        alpha = rng.uniform(0.0, 5.0)
        deg = rng.randint(2, 8)
        n = rng.randint(2, 40)
        edges = [(k, k + 1) for k in range(n - 1)]          # path to depth n-1
        w = n - 1
        extra = [(w, n + j) for j in range(deg - 1)]        # w gets deg-1 kids
        tree = build_from_edge_list(edges + extra)
        u = tree.children[w][0]
        assert tree.depth[u] == n and len(tree.children[w]) + 1 == deg
        lam = [1.0] * tree.n_vertices
        lam[w] = 1.0 + alpha * deg
        env = Environment(tree, lam, [1.0] * tree.n_vertices)
        got = psi(env, u)
        want = psi_simplified(alpha, n)
        worst = max(worst, abs(got - want) / abs(want))
    ok = worst <= 1e-12
    report(5, ok, "simplified per-edge factor",
           f"worst rel err {worst:.2e} over 1000 triples (limit 1e-12)")
    assert ok


def test_criterion_06_cutset_dp_vs_enumeration():
    """DP minimum equals the exhaustive minimum, exactly, 100 weightings."""
    rng = random.Random(0xD1CE)
    checked = 0
    exact = True
    while checked < 100:
        tree = random_tree(rng, max_edges=20, max_depth=6)
        if tree.n_vertices < 3:  # fewer than two edges
            continue
        cutsets = enumerate_cutsets(tree)
        for _ in range(5):
            if checked >= 100:
                break
            # dyadic weights make every partial sum exact, so "equal" is
            # independent of summation order
            weights = {e: rng.randrange(1, 2049) / 1024
                       for e in range(1, tree.n_vertices)}
            got = min_cutset_sum(tree, weights_of(tree, weights.__getitem__))
            want = min(sum(weights[e] for e in cs) for cs in cutsets)
            if got != want:
                exact = False
            checked += 1
    report(6, exact, "cutset DP vs brute force",
           f"{checked} weightings on random trees with <= 20 edges, exact match"
           if exact else "mismatch found")
    assert exact


def test_criterion_07_branching_ruin_trend():
    """Cutset sums with weights |e|^-gamma on the growth-b polynomial family
    (br_r = b): bounded below by 0.1 at gamma = b - 0.3, depths 8-128, and
    decaying to zero at gamma = b + 0.5, below 0.01 at depth 4096.

    Level n holds s(n) = 2**floor(b*log2 n) vertices, so n**b/2 < s(n) <= n**b
    and each level's sum s(n) * n**-(b+0.5) lies in (n**-0.5 / 2, n**-0.5].
    The minimum over levels 1..L is therefore in [L**-0.5 / 2, L**-0.5]: at
    depth 128 it is at least 0.044 for every b, and the first dyadic depth
    whose bracket admits a value below 0.01 is 4096 (at 2048 the lower end
    is 0.011). For these b, 12*b is an integer, so at 4096 the minimum sits
    at n = 4095 and equals 2**(12b-1) * 4095**-(b+0.5) ~ 0.0078.
    """
    lower_ok = True
    for b in (0.5, 1.5, 3.0):
        for L in (8, 16, 32, 64, 128):
            g = b - 0.3
            lo = branching_ruin_estimate(polynomial_family(b), [g], [L]).values[(g, L)]
            if lo < 0.1:
                lower_ok = False

    depths = [2 ** k for k in range(3, 13)]   # 8, 16, ..., 4096
    broken = []
    values = []
    for b in (0.5, 1.5, 3.0):
        prev = math.inf
        at = {}
        for L in depths:
            g = b + 0.5
            hi = branching_ruin_estimate(polynomial_family(b), [g], [L]).values[(g, L)]
            at[L] = hi
            if hi > prev:
                broken.append(f"1 (non-increasing) b={b:g} L={L}: "
                              f"{prev:.4f} -> {hi:.4f}")
            # the 1e-12 slack covers rounding where s(L) = L**b exactly
            if not 0.5 * L ** -0.5 <= hi <= L ** -0.5 * (1 + 1e-12):
                broken.append(f"2 (bracket) b={b:g} L={L}: {hi:.4f} outside "
                              f"[{0.5 * L ** -0.5:.4f}, {L ** -0.5:.4f}]")
            prev = hi
        if at[4096] >= 0.01:
            broken.append(f"3 (< 0.01) b={b:g}: {at[4096]:.4f} at depth 4096")
        values.append(f"b={b:g}: {at[128]:.4f} @128, {at[4096]:.4f} @4096")
    ok = lower_ok and not broken
    report(7, ok, "branching-ruin trend",
           f"gamma=b-0.3 floor 0.1 {'held' if lower_ok else 'broken'}; "
           f"gamma=b+0.5 {'; '.join(values)} (required < 0.01 @4096, "
           f"non-increasing, in [L^-0.5/2, L^-0.5])"
           + (f"; broken checks: {'; '.join(broken)}" if broken else ""))
    assert ok, (f"gamma=b-0.3 floor 0.1 {'held' if lower_ok else 'broken'}; "
                f"gamma=b+0.5 checks broken: {broken}")


def test_criterion_08_phase_flip():
    """Same tree, two environments: excitation flips the verdict."""
    fam = polynomial_family(1.2)
    kw = dict(epsilon_margin=0.1, escape_depth=48, horizon=10**6,
              trials=2000, master_seed=1008, depth=64)
    v0 = phase_diagnostic(fam, AlphaDistribution.point(0.0), **kw)
    v1 = phase_diagnostic(fam, AlphaDistribution.point(1.0), **kw)
    n = kw["trials"]
    p, q = v0.escape_freq, v1.escape_freq
    sigma = math.sqrt(p * (1 - p) / n + q * (1 - q) / n)
    gap_ok = p - q >= 3 * sigma
    verdict_ok = v1.verdict == "recurrent-leaning"
    ok = gap_ok and verdict_ok
    report(8, ok, "phase flip",
           f"escape alpha=0: {p:.3f} vs alpha=1: {q:.3f} "
           f"(gap {p - q:.3f}, 3 sigma = {3 * sigma:.3f}); "
           f"alpha=1 verdict: {v1.verdict}, alpha=0 verdict: {v0.verdict}")
    assert ok


def test_criterion_09_quasi_independence():
    """Joint conditional connection vs M * product bound on 10 close pairs;
    exact independence across disjoint subtrees."""
    tree = build_regular(3, 3)
    env = environment_from_alpha(tree, [1.0] * tree.n_vertices)
    K, M = quasi_independence_constant(env)
    assert K == pytest.approx(3.0)
    close_pairs = [(4, 5), (6, 7), (8, 9),                 # siblings, depth 2
                   (10, 11), (12, 13), (16, 17),           # siblings, depth 3
                   (10, 12), (14, 16), (18, 20), (11, 13)]  # cousins, depth 3
    ok = True
    failures = []
    for k, (a, b) in enumerate(close_pairs):
        rep = quasi_independence_statistic(env, a, b, trials=4000,
                                           master_seed=derive_seed(1009, k))
        if not rep.holds:
            ok = False
            failures.append(f"({a},{b})")
    worst_z = 0.0
    for k, (a, b) in enumerate([(4, 6), (10, 14), (5, 8)]):
        rep = quasi_independence_statistic(env, a, b, trials=4000,
                                           master_seed=derive_seed(1010, k))
        worst_z = max(worst_z, abs(rep.independence_z))
        if abs(rep.independence_z) > 3.0:
            ok = False
            failures.append(f"disjoint ({a},{b}) z={rep.independence_z:+.2f}")
    report(9, ok, "quasi-independence",
           f"10 close pairs within M = (1+K)^2 e^(2K), K = {K:g}; "
           f"3 disjoint pairs, worst |z| = {worst_z:.2f} (limit 3)"
           + ("" if ok else "; failed: " + ", ".join(failures)))
    assert ok


def test_criterion_10_concentration_trend():
    """Band-violation frequency nonincreasing in depth, within 2 sigma."""
    rep = concentration_experiment(
        build_path(128), AlphaDistribution.two_point(0.0, 3.0, 0.5),
        epsilon=0.3, depths=[8, 16, 32, 64, 128], env_samples=1000,
        master_seed=1010)
    n = rep.n_environments
    ok = True
    steps = []
    for f_prev, f_next in zip(rep.frequencies, rep.frequencies[1:]):
        se = math.sqrt(f_prev * (1 - f_prev) / n + f_next * (1 - f_next) / n)
        steps.append(f"{f_prev:.3f}->{f_next:.3f}")
        if f_next > f_prev + 2 * se:
            ok = False
    report(10, ok, "concentration trend",
           f"frequencies {' '.join(steps)} across depths 8..128 "
           f"({n} environments, 2 sigma slack)")
    assert ok


def test_criterion_11_cli_determinism(tmp_path, capsys):
    """Every file-writing subcommand reruns byte-identically (timestamp
    aside); stdout reruns are identical outright."""
    runs = [
        ["gen-tree", "--tree", "poly:b=1.2,L=6",
         "--output", str(tmp_path / "tree.txt")],
        ["compute-psi", "--tree", "path:L=8", "--env", "det:mu=2",
         "--edge-depth", "3"],
        ["simulate", "--tree", "regular:d=3,L=6", "--env", "alpha:point=1",
         "--trials", "50", "--max-steps", "200", "--seed", "3"],
        ["percolate", "--tree", "regular:d=3,L=3", "--env", "alpha:point=1",
         "--depths", "2", "--trials", "300", "--seed", "4"],
        ["estimate-br", "--tree", "poly:b=1.5,L=16",
         "--gamma-grid", "0.5:2.0:0.5"],
        ["estimate-rt", "--tree", "poly:b=1.2,L=8", "--env",
         "alpha:two=0,3,0.5", "--seed", "6", "--gamma-grid", "0.5,1.0",
         "--depths", "8"],
        ["flow-check", "--tree", "poly:b=3,L=8", "--env", "det:mu=1",
         "--gamma", "1.5", "--depths", "8"],
        ["phase-scan", "--tree", "poly:b=1.2,L=16", "--env", "alpha:point=1",
         "--escape-depth", "10", "--horizon", "10000", "--trials", "100",
         "--seed", "5"],
        ["gambler", "--mu", "2,2", "--start", "1", "--trials", "200",
         "--seed", "7"],
        ["concentration", "--tree", "path:L=16", "--env", "alpha:two=0,3,0.5",
         "--epsilon", "0.5", "--depths", "8,16", "--trials", "100",
         "--seed", "8"],
    ]
    strip = lambda text: "\n".join(ln for ln in text.splitlines()
                                   if "timestamp" not in ln)
    ok = True
    bad = []
    for k, argv in enumerate(runs):
        out = tmp_path / f"run{k}"
        full = argv + ([] if argv[0] == "gen-tree"
                       else ["--out-dir", str(out)])
        assert cli_main(full) == 0
        first_stdout = capsys.readouterr().out
        snapshot = {}
        files = sorted(out.iterdir()) if out.exists() else [tmp_path / "tree.txt"]
        for f in files:
            snapshot[f.name] = f.read_bytes()
        assert cli_main(full) == 0
        second_stdout = capsys.readouterr().out
        if first_stdout != second_stdout:
            ok = False
            bad.append(f"{argv[0]} stdout")
        for f in files:
            a, b = snapshot[f.name], f.read_bytes()
            if f.suffix == ".json":
                a, b = strip(a.decode()), strip(b.decode())
            if a != b:
                ok = False
                bad.append(f"{argv[0]}/{f.name}")
    report(11, ok, "CLI determinism",
           f"{len(runs)} subcommands rerun byte-identically"
           + ("" if ok else "; mismatches: " + ", ".join(bad)))
    assert ok
