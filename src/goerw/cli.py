"""Command-line experiment runner.

Every module is exposed as a subcommand that accepts only the options its
runner reads (``COMMANDS``). Options can also come from a flat key=value
config file: a dotted key scopes an option to one subcommand
(``phase-scan.escape-depth = 48``), an undotted one serves every subcommand
that reads it. Flags override file values. All randomness flows from the
single ``--seed``.

Outputs are written only after an experiment finishes, atomically, so a
refusal or a crash never leaves partial data files. JSON summaries carry a
``timestamp`` field; everything else is a pure function of config and seed,
so reruns are byte-identical once that field is stripped.

Exit codes: 0 success, 1 runtime refusal, 2 usage or validation error; a
bug surfaces as a traceback.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import sys
import time
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

from .analysis import (
    GamblerChain,
    flow_energy_check,
    gambler_ruin_exact,
    gambler_ruin_mc,
    phase_diagnostic,
)
from .environment import (
    AlphaDistribution,
    Environment,
    assign_deterministic,
    environment_from_alpha,
    log_Psi,
    psi as psi_of,
    Psi as Psi_of,
    rt_estimate,
    sample_random_environment,
)
from .errors import RefusalError
from .percolation import (
    adapted_conductance,
    concentration_experiment,
    edge_connection_probability_mc,
)
from .tree import (
    Tree,
    TreeFamily,
    _atomic_write,
    branching_ruin_estimate,
    path_family,
    polynomial_family,
    read_tree_file,
    regular_family,
    write_tree_file,
)
from .walk import StopRule, derive_seed, simulate


class UsageError(Exception):
    """Bad flags, bad config keys, malformed specs. Exits with status 2."""


# ---------------------------------------------------------------------------
# spec-string parsing


def _kv_pairs(body: str, what: str) -> dict[str, str]:
    out: dict[str, str] = {}
    if not body:
        return out
    for part in body.split(","):
        if "=" not in part:
            raise UsageError(f"malformed {what} entry {part!r} (want key=value)")
        k, v = part.split("=", 1)
        out[k.strip()] = v.strip()
    return out


def parse_tree_spec(spec: str) -> Tree:
    """Concrete tree from `path:L=5`, `regular:d=3,L=5`, `poly:b=1.5,L=64`,
    or `file:PATH`."""
    kind, _, body = spec.partition(":")
    if kind == "file":
        try:
            return read_tree_file(body)
        except OSError as e:
            raise UsageError(f"cannot read tree file {body}: {e.strerror}") from None
    fam, L = parse_family_spec(spec)
    return fam.build(L)


def parse_family_spec(spec: str) -> tuple[TreeFamily, int]:
    kind, _, body = spec.partition(":")
    kv = _kv_pairs(body, "tree spec")
    try:
        if kind == "path":
            return path_family(), int(kv.pop("L"))
        if kind == "regular":
            return regular_family(int(kv.pop("d"))), int(kv.pop("L"))
        if kind == "poly":
            return polynomial_family(float(kv.pop("b"))), int(kv.pop("L"))
    except KeyError as e:
        raise UsageError(f"tree spec {spec!r} is missing {e.args[0]}") from None
    except ValueError as e:
        raise UsageError(f"tree spec {spec!r}: {e}") from None
    if kind == "file":
        raise UsageError("this experiment needs a parametric tree family, "
                         "not a tree file")
    raise UsageError(f"unknown tree family {kind!r} "
                     "(expected path, regular, poly, or file)")


def parse_env_spec(spec: str):
    """Returns ('alpha', AlphaDistribution) or ('det', (lam, mu)).

    Alpha bodies are semicolon-separated key=value pairs whose values may
    hold comma lists: `alpha:point=1`, `alpha:two=0,3,0.5`,
    `alpha:support=0,3;probs=0.5,0.5`."""
    kind, _, body = spec.partition(":")
    if kind == "alpha":
        kv: dict[str, str] = {}
        for part in body.split(";"):
            if "=" not in part:
                raise UsageError(f"malformed env spec entry {part!r} "
                                 "(want key=value)")
            k, v = part.split("=", 1)
            kv[k.strip()] = v.strip()
        unknown = set(kv) - {"point", "two", "support", "probs"}
        if unknown:
            raise UsageError(f"unknown env key {sorted(unknown)[0]!r}")
        try:
            if "point" in kv:
                return "alpha", AlphaDistribution.point(float(kv["point"]))
            if "two" in kv:
                a0, a1, p1 = (float(x) for x in kv["two"].split(","))
                return "alpha", AlphaDistribution.two_point(a0, a1, p1)
            if "support" in kv:
                vals = [float(x) for x in kv["support"].split(",")]
                probs = [float(x) for x in kv["probs"].split(",")]
                return "alpha", AlphaDistribution(tuple(vals), tuple(probs))
        except (KeyError, ValueError) as e:
            raise UsageError(f"env spec {spec!r}: {e}") from None
        raise UsageError(f"env spec {spec!r} needs point=, two=, or support=")
    if kind == "det":
        kv = _kv_pairs(body, "env spec")
        unknown = set(kv) - {"lambda", "mu"}
        if unknown:
            raise UsageError(f"unknown env key {sorted(unknown)[0]!r}")
        try:
            lam = float(kv.get("lambda", "1"))
            mu = float(kv.get("mu", "1"))
        except ValueError as e:
            raise UsageError(f"env spec {spec!r}: {e}") from None
        return "det", (lam, mu)
    raise UsageError(f"unknown env kind {kind!r} (expected alpha or det)")


def build_environment(tree: Tree, env_spec: str, seed: int) -> Environment:
    kind, payload = parse_env_spec(env_spec)
    if kind == "det":
        lam, mu = payload
        return assign_deterministic(tree, lam, mu)
    dist = payload
    if len(dist.values) == 1:
        alpha = [float(dist.values[0])] * tree.n_vertices
        return environment_from_alpha(tree, alpha, m=dist.m,
                                      dist_spec=dist.spec_string())
    return sample_random_environment(tree, dist, derive_seed(seed, 0xE17))


def _parse_depths(text: str) -> list[int]:
    try:
        depths = [int(x) for x in text.split(",")]
    except ValueError:
        raise UsageError(f"bad depth list {text!r}") from None
    if not depths or any(d < 1 for d in depths):
        raise UsageError(f"bad depth list {text!r}")
    return sorted(set(depths))


def _parse_gamma_grid(text: str) -> list[float]:
    try:
        if ":" in text:
            start, stop, step = (float(x) for x in text.split(":"))
            if step <= 0 or stop < start:
                raise ValueError("empty range")
            n = int(round((stop - start) / step))
            grid = [round(start + k * step, 10) for k in range(n + 1)]
            return [g for g in grid if g <= stop + 1e-9]
        return sorted(float(x) for x in text.split(","))
    except ValueError:
        raise UsageError(f"bad gamma grid {text!r} "
                         "(want start:stop:step or a comma list)") from None


def _default_depths(L: int) -> list[int]:
    out = []
    d = 8
    while d <= L:
        out.append(d)
        d *= 2
    return out or [L]


# ---------------------------------------------------------------------------
# config file


def load_config(path: str) -> dict[str, str]:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as e:
        raise UsageError(f"cannot read config {path}: {e.strerror}") from None
    out: dict[str, str] = {}
    for ln, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{ln}: expected key = value")
        key, value = line.split("=", 1)
        key, value = key.strip(), value.strip()
        _validate_config_key(key, path, ln)
        out[key] = value
    return out


def _validate_config_key(key: str, path: str, ln: int) -> None:
    """A dotted key must name an option of its subcommand; an undotted key
    must name an option of some subcommand."""
    if "." in key:
        sub, _, name = key.partition(".")
        if sub not in COMMANDS:
            raise UsageError(f"{path}:{ln}: unknown config key {key!r} "
                             f"(no subcommand {sub!r})")
        if name not in COMMANDS[sub].options:
            raise UsageError(f"{path}:{ln}: unknown config key {key!r} "
                             f"({sub} takes no --{name})")
    elif key not in TYPES:
        raise UsageError(f"{path}:{ln}: unknown config key {key!r}")


class Options:
    """Merged view of flags over config values for one subcommand's
    declared options, typed via the registry."""

    def __init__(self, sub: str, flag_values: dict[str, object],
                 config: dict[str, str]):
        self.sub = sub
        self.names = COMMANDS[sub].options
        self._flags = flag_values
        self._config = config

    def get(self, name: str, default=None):
        if name not in self.names:
            raise KeyError(f"{self.sub} declares no option {name!r}")
        v = self._flags.get(name)
        if v is not None:
            return v
        for key in (f"{self.sub}.{name}", name):
            if key in self._config:
                conv = TYPES[name]
                try:
                    return conv(self._config[key])
                except ValueError:
                    raise UsageError(
                        f"config key {key!r}: cannot parse "
                        f"{self._config[key]!r}") from None
        return default

    def seed(self) -> int:
        """The seed the run uses: --seed, else 0."""
        return self.get("seed", 0)

    def require(self, name: str):
        v = self.get(name)
        if v is None:
            raise UsageError(f"missing required option --{name}")
        return v

    def effective(self) -> dict[str, object]:
        out = {}
        for name in sorted(self.names):
            v = self.get(name)
            if v is not None:
                out[name] = v
        return out


# ---------------------------------------------------------------------------
# output assembly


def _csv_text(header: Sequence[str], rows: Sequence[Sequence]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def _json_text(echo: dict, seed: int | None, stats: dict) -> str:
    payload = {
        "config": echo,
        "seed": seed,
        "statistics": stats,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


class Runner:
    """Collects stdout lines and output files; writes files only at the end
    so refusals leave nothing behind."""

    def __init__(self, opts: Options):
        self.opts = opts
        self.lines: list[str] = []
        self.files: dict[str, str] = {}

    def say(self, text: str) -> None:
        self.lines.append(text)

    def emit(self, basename: str, header, rows, stats: dict) -> None:
        fmt = self.opts.get("format")
        if fmt not in (None, "csv", "json"):
            raise UsageError(f"unknown format {fmt!r} (want csv or json)")
        echo = {"subcommand": self.opts.sub, "options": self.opts.effective()}
        if fmt in (None, "csv"):
            self.files[f"{basename}.csv"] = _csv_text(header, rows)
        if fmt in (None, "json"):
            seed = self.opts.seed() if "seed" in self.opts.names else None
            self.files[f"{basename}.json"] = _json_text(echo, seed, stats)

    def flush(self) -> None:
        out_dir = self.opts.get("out-dir")
        if self.files and out_dir is not None:
            os.makedirs(out_dir, exist_ok=True)
            for name, text in self.files.items():
                _atomic_write(os.path.join(out_dir, name), text)
                self.say(f"wrote {os.path.join(out_dir, name)}")
        print("\n".join(self.lines))


# ---------------------------------------------------------------------------
# subcommand implementations


def _run_gen_tree(r: Runner) -> None:
    o = r.opts
    tree = parse_tree_spec(o.require("tree"))
    out = o.get("output")
    if out is None:
        out_dir = o.get("out-dir", ".")
        out = os.path.join(out_dir, "tree.txt")
        os.makedirs(out_dir, exist_ok=True)
    write_tree_file(tree, out)
    r.say(f"wrote {out} (vertices={tree.n_vertices} depth={tree.truncation_depth})")


def _run_compute_psi(r: Runner) -> None:
    o = r.opts
    tree = parse_tree_spec(o.require("tree"))
    env = build_environment(tree, o.require("env"), o.seed())
    d = o.require("edge-depth")
    edge = tree.leftmost_at_depth(d)
    psi_v = psi_of(env, edge)
    Psi_v = Psi_of(env, edge)
    c_v = adapted_conductance(env, edge)
    r.say(f"edge {edge} at depth {d}")
    r.say(f"psi = {psi_v!r}")
    r.say(f"Psi = {Psi_v!r}")
    r.say(f"c = {c_v!r}")
    r.emit("compute-psi", ["edge", "depth", "psi", "Psi", "c"],
           [[edge, d, psi_v, Psi_v, c_v]],
           {"edge": edge, "depth": d, "psi": psi_v, "Psi": Psi_v, "c": c_v})


def _run_simulate(r: Runner) -> None:
    o = r.opts
    tree = parse_tree_spec(o.require("tree"))
    seed = o.seed()
    env = build_environment(tree, o.require("env"), seed)
    trials = o.get("trials", 100)
    stop = StopRule(max_steps=o.get("max-steps", 100_000),
                    hit_depth=o.get("depth"),
                    root_returns=o.get("returns"))
    rows = []
    escapes = 0
    steps_sum = 0
    returns_sum = 0
    deepest = 0
    for t in range(trials):
        traj = simulate(env, stop, derive_seed(seed, 1, t), record=False)
        rows.append([t, traj.steps, traj.root_returns, traj.max_depth,
                     int(traj.escaped), traj.stop_reason])
        escapes += traj.escaped
        steps_sum += traj.steps
        returns_sum += traj.root_returns
        deepest = max(deepest, traj.max_depth)
    stats = {
        "trials": trials,
        "escapes": escapes,
        "escape_freq": escapes / trials,
        "mean_steps": steps_sum / trials,
        "mean_returns": returns_sum / trials,
        "max_depth_seen": deepest,
    }
    r.say(f"trials={trials} escapes={escapes} escape_freq={escapes / trials!r} "
          f"mean_steps={steps_sum / trials!r} mean_returns={returns_sum / trials!r} "
          f"max_depth_seen={deepest}")
    r.emit("simulate", ["trial", "steps", "root_returns", "max_depth",
                        "escaped", "stop_reason"], rows, stats)


def _run_percolate(r: Runner) -> None:
    o = r.opts
    tree = parse_tree_spec(o.require("tree"))
    seed = o.seed()
    env = build_environment(tree, o.require("env"), seed)
    depths_text = o.get("depths")
    if depths_text is not None:
        depths = _parse_depths(depths_text)
    elif o.get("depth") is not None:
        depths = [o.get("depth")]
    else:
        raise UsageError("missing required option --depth or --depths")
    trials = o.get("trials", 10_000)
    rows = []
    stats = {"depths": {}}
    for d in depths:
        edge = tree.leftmost_at_depth(d)
        est = edge_connection_probability_mc(env, edge, trials,
                                             derive_seed(seed, 2, d))
        rows.append([d, edge, est.trials, est.n_connected, est.p_hat,
                     est.exact, est.stderr, est.z_score,
                     est.monotone_violations, est.invalid_runs])
        stats["depths"][str(d)] = {"edge": edge, "p_hat": est.p_hat,
                                   "exact": est.exact, "z": est.z_score}
        r.say(f"depth={d} edge={edge} exact={est.exact!r} p_hat={est.p_hat!r} "
              f"z={est.z_score:.3f}")
    r.emit("percolate",
           ["depth", "edge", "trials", "n_connected", "p_hat", "exact",
            "stderr", "z", "monotone_violations", "invalid_runs"],
           rows, stats)


def _family_and_depths(o: Options) -> tuple[TreeFamily, int, list[int]]:
    family, L = parse_family_spec(o.require("tree"))
    depths_text = o.get("depths")
    depths = _parse_depths(depths_text) if depths_text else _default_depths(L)
    if depths[-1] > L:
        raise UsageError(f"depth {depths[-1]} exceeds the family depth L={L}")
    return family, L, depths


def _run_estimate_br(r: Runner) -> None:
    o = r.opts
    family, L, depths = _family_and_depths(o)
    gammas = _parse_gamma_grid(o.get("gamma-grid", "0.1:3.0:0.1"))
    table = branching_ruin_estimate(family, gammas, depths,
                                    threshold=o.get("threshold", 0.1))
    rows = [[g, d, v] for (g, d, v) in table.rows()]
    stats = {"estimate": table.estimate, "threshold": table.threshold,
             "deepest": depths[-1], "exact_index": family.br_index}
    r.say(f"br estimate: {table.estimate} "
          f"(threshold {table.threshold}, deepest depth {depths[-1]})")
    r.emit("estimate-br", ["gamma", "depth", "min_cutset_sum"], rows, stats)


def _run_estimate_rt(r: Runner) -> None:
    o = r.opts
    family, L, depths = _family_and_depths(o)
    gammas = _parse_gamma_grid(o.get("gamma-grid", "0.1:3.0:0.1"))
    env_spec = o.require("env")
    seed = o.seed()

    def pair(Lq: int) -> tuple[Tree, Environment]:
        tree = family.build(Lq)
        return tree, build_environment(tree, env_spec, seed)

    table = rt_estimate(pair, gammas, depths, threshold=o.get("threshold", 0.1))
    rows = [[g, d, v] for (g, d, v) in table.rows()]
    stats = {"estimate": table.estimate, "threshold": table.threshold,
             "deepest": depths[-1]}
    r.say(f"rt estimate: {table.estimate} "
          f"(threshold {table.threshold}, deepest depth {depths[-1]})")
    r.emit("estimate-rt", ["gamma", "depth", "min_cutset_sum"], rows, stats)


def _run_flow_check(r: Runner) -> None:
    o = r.opts
    tree = parse_tree_spec(o.require("tree"))
    env = build_environment(tree, o.require("env"), o.seed())
    gamma = o.require("gamma")
    depths_text = o.get("depths")
    depths = (_parse_depths(depths_text) if depths_text
              else _default_depths(tree.truncation_depth))
    try:
        rep = flow_energy_check(env, gamma, depths)
    except ValueError as e:
        raise UsageError(str(e)) from None
    rows = [[row.depth, row.max_flow, row.flow_total, row.energy,
             row.support_edges] for row in rep.rows]
    for row in rep.rows:
        r.say(f"depth={row.depth} max_flow={row.max_flow!r} "
              f"energy={row.energy!r} support={row.support_edges}")
    r.say(f"degenerate: {rep.degenerate}")
    stats = {"gamma": gamma, "degenerate": rep.degenerate,
             "energies": [row.energy for row in rep.rows]}
    r.emit("flow-check",
           ["depth", "max_flow", "flow_total", "energy", "support_edges"],
           rows, stats)


def _run_phase_scan(r: Runner) -> None:
    o = r.opts
    family, L = parse_family_spec(o.require("tree"))
    kind, dist = parse_env_spec(o.require("env"))
    if kind != "alpha":
        raise UsageError("phase-scan needs an alpha env spec")
    verdict = phase_diagnostic(
        family, dist,
        epsilon_margin=o.get("epsilon", 0.1),
        escape_depth=o.require("escape-depth"),
        horizon=o.get("horizon", 1_000_000),
        trials=o.get("trials", 1000),
        master_seed=o.seed(),
        depth=o.get("depth", L))
    d = verdict.to_dict()
    r.say(f"verdict: {verdict.verdict} (escape {verdict.escape_freq!r} vs "
          f"control {verdict.control_escape_freq!r}, sigma {verdict.sigma!r})")
    r.say(f"m={verdict.m!r} threshold={verdict.threshold!r} "
          f"br_exact={verdict.br_exact!r} br_estimate={verdict.br_estimate!r}")
    r.say(f"censored by the horizon: {verdict.censored} of {verdict.trials} "
          f"(control {verdict.control_censored})")
    keys = sorted(d)
    r.emit("phase-scan", keys, [[d[k] for k in keys]], d)


def _run_gambler(r: Runner) -> None:
    o = r.opts
    mu_text = o.require("mu")
    try:
        mu_all = [Fraction(x) for x in mu_text.split(",")]
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"bad bias list {mu_text!r}") from None
    # Biases are listed per site 1..N along the path; the final site is
    # absorbing, so its bias never enters the answer.
    N = len(mu_all)
    if N < 2:
        raise UsageError("need at least two sites (two --mu entries)")
    if any(m <= 0 for m in mu_all):
        raise UsageError("biases must be positive")
    start = o.require("start")
    try:
        chain = GamblerChain(N=N, mu=tuple(mu_all[:N - 1]), start=start)
    except ValueError as e:
        raise UsageError(str(e)) from None
    exact = gambler_ruin_exact(chain)
    r.say(str(exact))
    stats = {"N": N, "start": start, "exact": float(exact),
             "exact_fraction": str(exact)}
    trials = o.get("trials")
    if trials is not None:
        float_chain = GamblerChain(N=N, mu=tuple(float(m) for m in mu_all[:N - 1]),
                                   start=start)
        est, se = gambler_ruin_mc(float_chain, trials, o.seed())
        r.say(f"mc = {est!r} stderr = {se!r}")
        stats.update({"mc_estimate": est, "mc_stderr": se, "trials": trials})
    r.emit("gambler", sorted(stats), [[stats[k] for k in sorted(stats)]], stats)


def _run_concentration(r: Runner) -> None:
    o = r.opts
    tree = parse_tree_spec(o.require("tree"))
    kind, dist = parse_env_spec(o.require("env"))
    if kind != "alpha":
        raise UsageError("concentration needs an alpha env spec")
    depths = _parse_depths(o.require("depths"))
    epsilon = o.require("epsilon")
    rep = concentration_experiment(tree, dist, epsilon, depths,
                                   env_samples=o.get("trials", 200),
                                   master_seed=o.seed())
    rows = [[d, v, f] for d, v, f in
            zip(rep.depths, rep.violations, rep.frequencies)]
    for d, v, f in zip(rep.depths, rep.violations, rep.frequencies):
        r.say(f"depth={d} violations={v}/{rep.n_environments} freq={f!r}")
    stats = {"m": rep.m, "epsilon": rep.epsilon,
             "n_environments": rep.n_environments,
             "violations": rep.violations, "frequencies": rep.frequencies}
    r.emit("concentration", ["depth", "violations", "frequency"], rows, stats)


# ---------------------------------------------------------------------------
# option registry: one table drives argparse, config validation, the typed
# option view and the JSON echo

TYPES: dict[str, Callable] = {
    "tree": str, "env": str, "seed": int, "trials": int, "depth": int,
    "depths": str, "edge-depth": int, "max-steps": int, "returns": int,
    "gamma": float, "gamma-grid": str, "threshold": float, "epsilon": float,
    "escape-depth": int, "horizon": int, "mu": str, "start": int,
    "output": str, "format": str, "out-dir": str,
}

_OUT = ("format", "out-dir")
_SAMPLED = ("tree", "env", "seed", "trials")
_TABLE = ("tree", "depths", "gamma-grid", "threshold", *_OUT)


class Command(NamedTuple):
    help: str
    run: Callable[[Runner], None]
    options: tuple[str, ...]  # exactly the options `run` reads


COMMANDS: dict[str, Command] = {
    "gen-tree": Command("build a tree and write it to a text file", _run_gen_tree,
                        ("tree", "output", "out-dir")),
    "compute-psi": Command("exact per-edge ruin factor, ruin product, and conductance",
                           _run_compute_psi, ("tree", "env", "seed", "edge-depth", *_OUT)),
    "simulate": Command("quenched walk trials with first-of stopping", _run_simulate,
                        (*_SAMPLED, "depth", "max-steps", "returns", *_OUT)),
    "percolate": Command("MC edge connection probabilities against the exact product",
                         _run_percolate, (*_SAMPLED, "depth", "depths", *_OUT)),
    "estimate-br": Command("branching-ruin table from min cutset sums",
                           _run_estimate_br, _TABLE),
    "estimate-rt": Command("cutset table with ruin-product weights",
                           _run_estimate_rt, ("env", "seed", *_TABLE)),
    "flow-check": Command("max flow and energy with capacity Psi^gamma", _run_flow_check,
                          ("tree", "env", "seed", "gamma", "depths", *_OUT)),
    "phase-scan": Command("escape-frequency phase diagnostic with matched control",
                          _run_phase_scan, (*_SAMPLED, "depth", "escape-depth",
                                            "horizon", "epsilon", *_OUT)),
    "gambler": Command("exact biased gambler's ruin probability", _run_gambler,
                       ("mu", "start", "trials", "seed", *_OUT)),
    "concentration": Command("band-violation frequencies of the ruin product",
                             _run_concentration, (*_SAMPLED, "depths", "epsilon", *_OUT)),
}

ALIASES = {"psi": "compute-psi"}


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def _build_parser():
    import argparse

    p = argparse.ArgumentParser(
        prog="goerw",
        description="Simulation and exact computation for once-excited "
                    "random walks on rooted trees.")
    p.add_argument("--config", help="flat key=value config file; flags override")
    subs = p.add_subparsers(dest="subcommand", metavar="subcommand")
    for name, cmd in COMMANDS.items():
        aliases = [a for a, target in ALIASES.items() if target == name]
        # no abbreviations: `--depth` must not pass for `--depths`
        sp = subs.add_parser(name, aliases=aliases, help=cmd.help, allow_abbrev=False)
        for opt in cmd.options:
            if opt == "format":
                sp.add_argument("--format", choices=["csv", "json"])
            else:
                sp.add_argument(f"--{opt}", type=TYPES[opt])
    return p


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.subcommand is None:
        parser.print_help()
        return 2
    sub = ALIASES.get(args.subcommand, args.subcommand)

    try:
        config = load_config(args.config) if args.config else {}
        flag_values = {k.replace("_", "-"): v for k, v in vars(args).items()
                       if k not in ("subcommand", "config")}
        opts = Options(sub, flag_values, config)
        runner = Runner(opts)
        COMMANDS[sub].run(runner)
        runner.flush()
        return 0
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except RefusalError as e:
        print(f"refused: {e}", file=sys.stderr)
        return 1
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
