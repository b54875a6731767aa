"""Command-line experiment runner.

Every module is exposed as a subcommand that accepts only the options its
runner reads (``COMMANDS``). Options can also come from a flat key=value
config file: a dotted key scopes an option to one subcommand
(``phase-scan.escape-depth = 48``), an undotted one serves every subcommand
that reads it. Flags override file values, and every option is resolved
and checked before the experiment starts. All randomness flows from the
single ``--seed``.

Outputs are written only after an experiment finishes, atomically, so a
refusal or a crash never leaves partial data files. JSON summaries carry a
``timestamp`` field; everything else is a pure function of config and seed,
so reruns are byte-identical once that field is stripped.

Exit codes: 0 success, 1 runtime refusal, 2 usage or validation error
(an unreadable input or an unwritable output among them); a bug surfaces
as a traceback.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import time
from argparse import ArgumentTypeError
from contextlib import contextmanager
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
    environment_from_alpha,  # unused here; perfbench/tracer.py patches this name
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
    DEFAULT_GAMMAS,
    DEFAULT_THRESHOLD,
    BranchingTable,
    Tree,
    TreeFamily,
    _atomic_write,
    branching_ruin_estimate,
    default_depths,
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


def _kv_pairs(body: str, what: str, keys: set[str], sep: str = ",") -> dict[str, str]:
    """The key=value entries of a spec body; every key must be one of keys."""
    out: dict[str, str] = {}
    if not body:
        return out
    for part in body.split(sep):
        if "=" not in part:
            raise UsageError(f"malformed {what} spec entry {part!r} (want key=value)")
        k, v = part.split("=", 1)
        out[k.strip()] = v.strip()
    unknown = set(out) - keys
    if unknown:
        raise UsageError(f"unknown {what} key {sorted(unknown)[0]!r}")
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
    keys = {"path": {"L"}, "regular": {"d", "L"}, "poly": {"b", "L"}}
    if kind == "file":
        raise UsageError("this experiment needs a parametric tree family, "
                         "not a tree file")
    if kind not in keys:
        raise UsageError(f"unknown tree family {kind!r} "
                         "(expected path, regular, poly, or file)")
    kv = _kv_pairs(body, "tree", keys[kind])
    try:
        family = (path_family() if kind == "path" else
                  regular_family(int(kv["d"])) if kind == "regular" else
                  polynomial_family(float(kv["b"])))
        L = int(kv["L"])
    except KeyError as e:
        raise UsageError(f"tree spec {spec!r} is missing {e.args[0]}") from None
    except ValueError as e:
        raise UsageError(f"tree spec {spec!r}: {e}") from None
    if L < 0:
        raise UsageError(f"tree spec {spec!r}: L must be at least 0, got {L}")
    return family, L


def parse_env_spec(spec: str):
    """Returns ('alpha', AlphaDistribution) or ('det', (lam, mu)).

    Alpha bodies are semicolon-separated key=value pairs whose values may
    hold comma lists: `alpha:point=1`, `alpha:two=0,3,0.5`,
    `alpha:support=0,3;probs=0.5,0.5`."""
    kind, _, body = spec.partition(":")
    keys = {"alpha": {"point", "two", "support", "probs"}, "det": {"lambda", "mu"}}
    if kind not in keys:
        raise UsageError(f"unknown env kind {kind!r} (expected alpha or det)")
    kv = _kv_pairs(body, "env", keys[kind], ";" if kind == "alpha" else ",")
    try:
        if kind == "det":
            return "det", (float(kv.get("lambda", "1")), float(kv.get("mu", "1")))
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


def build_environment(tree: Tree, env_spec: str, seed: int) -> Environment:
    kind, payload = parse_env_spec(env_spec)
    if kind == "det":
        lam, mu = payload
        return assign_deterministic(tree, lam, mu)
    return sample_random_environment(tree, payload, derive_seed(seed, 0xE17))


# ---------------------------------------------------------------------------
# config file and the run


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
        key, value = (x.strip() for x in line.split("=", 1))
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


class Run:
    """One run of one subcommand: its options and its outputs.

    Each declared option is resolved once, before the experiment starts:
    the flag, else the dotted config key, else the undotted one, converted
    by its TYPES entry (by argparse, for a flag not in IN_RUN). Stdout lines
    and output files are held until flush, so a refusal or a crash leaves
    no partial data files."""

    def __init__(self, sub: str, flag_values: dict[str, object],
                 config: dict[str, str]):
        self.sub = sub
        self.options: dict[str, object] = {}
        for name in COMMANDS[sub].options:
            v = flag_values.get(name)
            if v is not None and name in IN_RUN:
                v = _converted(name, v, f"--{name}")
            if v is None:
                v = self._config_value(name, config)
            if v is not None:
                self.options[name] = v
        if self.options.get("format") not in (None, "csv", "json"):
            raise UsageError(f"unknown format {self.options['format']!r} "
                             "(want csv or json)")
        self.lines: list[str] = []
        self.files: dict[str, str] = {}

    def _config_value(self, name: str, config: dict[str, str]):
        for key in (f"{self.sub}.{name}", name):
            if key in config:
                return _converted(name, config[key], f"config key {key!r}")
        return None

    def get(self, name: str, default=None):
        if name not in COMMANDS[self.sub].options:
            raise KeyError(f"{self.sub} declares no option {name!r}")
        return self.options.get(name, default)

    def seed(self) -> int:
        """The seed the run uses: --seed, else 0."""
        return self.get("seed", 0)

    def require(self, name: str):
        v = self.get(name)
        if v is None:
            raise UsageError(f"missing required option --{name}")
        return v

    def say(self, text: str) -> None:
        self.lines.append(text)

    def emit(self, header: Sequence[str], rows: Sequence[Sequence],
             stats: dict) -> None:
        """Queue <sub>.csv (header and rows) and <sub>.json (the options,
        the seed and stats) in --out-dir, as --format selects; without
        --out-dir there is nothing to write. The JSON is strict, with the
        CSV's "inf", "-inf" and "nan" for non-finite floats."""
        out_dir, fmt = self.get("out-dir"), self.get("format")
        if out_dir is None:
            return
        path = os.path.join(out_dir, self.sub)
        if fmt != "json":
            buf = io.StringIO()
            w = csv.writer(buf, lineterminator="\n")
            w.writerow(header)
            w.writerows(rows)
            self.files[f"{path}.csv"] = buf.getvalue()
        if fmt != "csv":
            payload = {
                "config": {"subcommand": self.sub, "options": self.options},
                "seed": self.seed() if "seed" in COMMANDS[self.sub].options else None,
                "statistics": stats,
                "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            }
            self.files[f"{path}.json"] = json.dumps(_spelled(payload), sort_keys=True,
                                                    indent=2, allow_nan=False) + "\n"

    def record(self, stats: dict, keys: Sequence[str] | None = None) -> None:
        """Emit stats as a one-row table, columns in the order of keys
        (default sorted)."""
        keys = sorted(stats) if keys is None else keys
        self.emit(keys, [[stats[k] for k in keys]], stats)

    def flush(self) -> None:
        for path, text in self.files.items():
            with _writing(path):
                _atomic_write(path, text)
            self.say(f"wrote {path}")
        print("\n".join(self.lines))


def _converted(name: str, text: str, where: str):
    """TYPES[name](text); a failure is a usage error naming where text is from."""
    try:
        return TYPES[name](text)
    except ValueError:
        raise UsageError(f"{where}: cannot parse {text!r}") from None
    except ArgumentTypeError as e:
        raise UsageError(f"{where}: {e}") from None


def _spelled(x):
    """x with each non-finite float, in dicts and lists too, as its str."""
    if isinstance(x, dict):
        return {k: _spelled(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return list(map(_spelled, x))
    return str(x) if isinstance(x, float) and not math.isfinite(x) else x


@contextmanager
def _writing(path: str):
    """Create path's directory for the write in the body; an OSError is a
    usage error naming the path."""
    try:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        yield
    except OSError as e:
        raise UsageError(f"cannot write {path}: {e.strerror}") from None


# ---------------------------------------------------------------------------
# subcommand implementations


def _run_gen_tree(r: Run) -> None:
    tree = parse_tree_spec(r.require("tree"))
    out = r.get("output", os.path.join(r.get("out-dir", "."), "tree.txt"))
    with _writing(out):
        write_tree_file(tree, out)
    r.say(f"wrote {out} (vertices={tree.n_vertices} depth={tree.truncation_depth})")


def _run_compute_psi(r: Run) -> None:
    tree = parse_tree_spec(r.require("tree"))
    env = build_environment(tree, r.require("env"), r.seed())
    d = r.require("edge-depth")
    edge = tree.leftmost_at_depth(d)
    stats = {"edge": edge, "depth": d, "psi": psi_of(env, edge),
             "Psi": Psi_of(env, edge), "c": adapted_conductance(env, edge)}
    r.say(f"edge {edge} at depth {d}")
    for k in ("psi", "Psi", "c"):
        r.say(f"{k} = {stats[k]!r}")
    r.record(stats, list(stats))


def _run_simulate(r: Run) -> None:
    tree = parse_tree_spec(r.require("tree"))
    seed = r.seed()
    env = build_environment(tree, r.require("env"), seed)
    trials = r.get("trials", 100)
    stop = StopRule(max_steps=r.get("max-steps", 100_000),
                    hit_depth=r.get("depth", math.inf),
                    root_returns=r.get("returns", math.inf))
    trajs = [simulate(env, stop, derive_seed(seed, 1, t), record=False)
             for t in range(trials)]
    escapes = sum(traj.escaped for traj in trajs)
    stats = {
        "trials": trials,
        "escapes": escapes,
        "escape_freq": escapes / trials,
        "mean_steps": sum(traj.steps for traj in trajs) / trials,
        "mean_returns": sum(traj.root_returns for traj in trajs) / trials,
        "max_depth_seen": max(traj.max_depth for traj in trajs),
        "censored": sum(traj.stop_reason == "max_steps" for traj in trajs),
    }
    rows = [[t, traj.steps, traj.root_returns, traj.max_depth, int(traj.escaped),
             traj.stop_reason] for t, traj in enumerate(trajs)]
    r.say(" ".join(f"{k}={v!r}" for k, v in stats.items()))
    r.emit(["trial", "steps", "root_returns", "max_depth", "escaped", "stop_reason"],
           rows, stats)


def _run_percolate(r: Run) -> None:
    depths, depth = r.get("depths"), r.get("depth")
    if depths is not None and depth is not None:
        raise UsageError("give --depth or --depths, not both")
    if depth is not None:
        depths = [depth]
    elif depths is None:
        raise UsageError("missing required option --depth or --depths")
    tree = parse_tree_spec(r.require("tree"))
    seed = r.seed()
    env = build_environment(tree, r.require("env"), seed)
    trials = r.get("trials", 10_000)
    rows = []
    stats = {"depths": {}}
    for d in depths:
        edge = tree.leftmost_at_depth(d)
        est = edge_connection_probability_mc(env, edge, trials,
                                             derive_seed(seed, 2, d))
        rows.append([d, edge, est.trials, est.n_connected, est.p_hat,
                     est.exact, est.stderr, est.z_score, est.invalid_runs])
        stats["depths"][str(d)] = {"edge": edge, "p_hat": est.p_hat, "exact": est.exact,
                                   "z": est.z_score, "steps": est.steps}
        r.say(f"depth={d} edge={edge} exact={est.exact!r} p_hat={est.p_hat!r} "
              f"z={est.z_score:.3f}")
    r.emit(["depth", "edge", "trials", "n_connected", "p_hat", "exact",
            "stderr", "z", "invalid_runs"], rows, stats)


def _table_inputs(r: Run) -> tuple[TreeFamily, Sequence[float], list[int], float]:
    """The family, gamma grid, depths and threshold of a cutset table, by
    default tree.DEFAULT_GAMMAS, tree.default_depths and DEFAULT_THRESHOLD."""
    family, L = parse_family_spec(r.require("tree"))
    depths = r.get("depths", default_depths(L))
    if depths[-1] > L:
        raise UsageError(f"depth {depths[-1]} exceeds the family depth L={L}")
    return (family, r.get("gamma-grid", DEFAULT_GAMMAS), depths,
            r.get("threshold", DEFAULT_THRESHOLD))


def _emit_table(r: Run, table: BranchingTable, **stats) -> None:
    """The estimate line, and the cutset table's rows and summary."""
    r.say(f"{r.sub.removeprefix('estimate-')} estimate: {table.estimate} "
          f"(threshold {table.threshold}, deepest depth {table.depths[-1]})")
    r.emit(["gamma", "depth", "min_cutset_sum"], table.rows(),
           {"estimate": table.estimate, "threshold": table.threshold,
            "deepest": table.depths[-1], **stats})


def _run_estimate_br(r: Run) -> None:
    family, *inputs = _table_inputs(r)
    _emit_table(r, branching_ruin_estimate(family, *inputs), exact_index=family.br_index)


def _run_estimate_rt(r: Run) -> None:
    family, *inputs = _table_inputs(r)
    env_spec, seed = r.require("env"), r.seed()

    def pair(L: int) -> tuple[Tree, Environment]:
        tree = family.build(L)
        return tree, build_environment(tree, env_spec, seed)

    _emit_table(r, rt_estimate(pair, *inputs))


def _run_flow_check(r: Run) -> None:
    tree = parse_tree_spec(r.require("tree"))
    env = build_environment(tree, r.require("env"), r.seed())
    gamma = r.require("gamma")
    rep = flow_energy_check(env, gamma, r.get("depths", default_depths(tree.truncation_depth)))
    rows = [[row.depth, row.max_flow, row.flow_total, row.energy,
             row.support_edges] for row in rep.rows]
    for row in rep.rows:
        r.say(f"depth={row.depth} max_flow={row.max_flow!r} "
              f"energy={row.energy!r} support={row.support_edges}")
    r.say(f"degenerate: {rep.degenerate}")
    stats = {"gamma": gamma, "degenerate": rep.degenerate,
             "energies": [row.energy for row in rep.rows]}
    r.emit(["depth", "max_flow", "flow_total", "energy", "support_edges"], rows, stats)


def _run_phase_scan(r: Run) -> None:
    family, L = parse_family_spec(r.require("tree"))
    kind, dist = parse_env_spec(r.require("env"))
    if kind != "alpha":
        raise UsageError("phase-scan needs an alpha env spec")
    verdict = phase_diagnostic(
        family, dist,
        epsilon_margin=r.get("epsilon", 0.1),
        escape_depth=r.require("escape-depth"),
        horizon=r.get("horizon", 1_000_000),
        trials=r.get("trials", 1000),
        master_seed=r.seed(),
        depth=L)
    r.say(f"verdict: {verdict.verdict} (escape {verdict.escape_freq!r} vs "
          f"exact control {verdict.control_escape_freq!r}, sigma {verdict.sigma!r})")
    r.say(f"m={verdict.m!r} threshold={verdict.threshold!r} "
          f"br_exact={verdict.br_exact!r} br_estimate={verdict.br_estimate!r}")
    r.say(f"censored by the horizon: {verdict.censored} of {verdict.trials}")
    r.record(verdict.to_dict())


def _run_gambler(r: Run) -> None:
    mu_text = r.require("mu")
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
    start = r.require("start")
    chain = GamblerChain(N=N, mu=tuple(mu_all[:N - 1]), start=start)
    exact = gambler_ruin_exact(chain)
    r.say(str(exact))
    stats = {"N": N, "start": start, "exact": float(exact),
             "exact_fraction": str(exact)}
    trials = r.get("trials")
    if trials is not None:
        mu_float = []
        for site, m in enumerate(mu_all[:N - 1], 1):
            try:
                mu_float.append(float(m))
            except OverflowError:
                mu_float.append(math.inf)
            if not 0.0 < mu_float[-1] < math.inf:
                raise UsageError(f"--mu entry {site} ({mu_text.split(',')[site - 1]}) "
                                 "has no positive finite float for the Monte Carlo")
        float_chain = GamblerChain(N=N, mu=tuple(mu_float), start=start)
        est, se = gambler_ruin_mc(float_chain, trials, r.seed())
        r.say(f"mc = {est!r} stderr = {se!r}")
        stats.update({"mc_estimate": est, "mc_stderr": se, "trials": trials})
    r.record(stats)


def _run_concentration(r: Run) -> None:
    tree = parse_tree_spec(r.require("tree"))
    kind, dist = parse_env_spec(r.require("env"))
    if kind != "alpha":
        raise UsageError("concentration needs an alpha env spec")
    depths = r.require("depths")
    epsilon = r.require("epsilon")
    rep = concentration_experiment(tree, dist, epsilon, depths,
                                   env_samples=r.get("trials", 200),
                                   master_seed=r.seed())
    rows = [list(row) for row in zip(rep.depths, rep.violations, rep.frequencies)]
    for d, v, f in rows:
        r.say(f"depth={d} violations={v}/{rep.n_environments} freq={f!r}")
    stats = {"m": rep.m, "epsilon": rep.epsilon,
             "n_environments": rep.n_environments,
             "violations": rep.violations, "frequencies": rep.frequencies}
    r.emit(["depth", "violations", "frequency"], rows, stats)


# ---------------------------------------------------------------------------
# option registry: one table drives argparse, config validation, option
# resolution and the JSON echo


def count(text: str) -> int:
    """A count, depth or step budget: an integer of at least 1."""
    n = int(text)
    if n < 1:
        raise ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def finite(text: str) -> float:
    """A float other than nan and +-inf."""
    x = float(text)
    if not math.isfinite(x):
        raise ArgumentTypeError(f"must be finite, got {text}")
    return x


def margin(text: str) -> float:
    """A finite float of at least 0."""
    x = finite(text)
    if x < 0:
        raise ArgumentTypeError(f"must be at least 0, got {text}")
    return x


def _parse_depths(text: str) -> list[int]:
    """A comma list of depths of at least 1, sorted, each once."""
    try:
        depths = sorted({int(x) for x in text.split(",")})
    except ValueError:
        raise ArgumentTypeError(f"bad depth list {text!r}") from None
    if depths[0] < 1:
        raise ArgumentTypeError(f"bad depth list {text!r}")
    return depths


def _parse_gamma_grid(text: str) -> list[float]:
    """start:stop:step (at most 10,000 points, rounded to 10 decimals) or a
    comma list, sorted; every gamma finite and at least 0."""
    try:
        if ":" in text:
            start, stop, step = (float(x) for x in text.split(":"))
            if step <= 0 or stop < start:
                raise ValueError("empty range")
            q = (stop - start) / step  # counted before the grid is built
            if q + 1 > 10_000:
                raise ArgumentTypeError(f"gamma grid {text!r} holds {q + 1:.6g} points; "
                                        "a range may hold at most 10,000")
            grid = [round(start + k * step, 10) for k in range(round(q) + 1)]
            grid = [g for g in grid if g <= stop + 1e-9]
            if any(a >= b for a, b in zip(grid, grid[1:])):
                raise ArgumentTypeError(f"gamma grid {text!r}: step {step:g} is too small "
                                        "for entries rounded to 10 decimals to stay distinct")
        else:
            grid = sorted(float(x) for x in text.split(","))
    except ValueError:
        raise ArgumentTypeError(f"bad gamma grid {text!r} "
                                "(want start:stop:step or a comma list)") from None
    if not all(0 <= g < math.inf for g in grid):  # NaN fails both
        raise ArgumentTypeError(f"gamma grid {text!r}: every gamma must be finite and at least 0")
    return grid


TYPES: dict[str, Callable] = {
    "tree": str, "env": str, "seed": int, "trials": count, "depth": count,
    "depths": _parse_depths, "edge-depth": count, "max-steps": count, "returns": count,
    "gamma": finite, "gamma-grid": _parse_gamma_grid, "threshold": finite, "epsilon": margin,
    "escape-depth": count, "horizon": count, "mu": str, "start": int,
    "output": str, "format": str, "out-dir": str,
}

# converted by Run, not argparse, so that main reports a bad list (exit 2)
IN_RUN = ("depths", "gamma-grid")

_OUT = ("format", "out-dir")
_SAMPLED = ("tree", "env", "seed", "trials")
_TABLE = ("tree", "depths", "gamma-grid", "threshold", *_OUT)


class Command(NamedTuple):
    help: str
    run: Callable[[Run], None]
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
                          _run_phase_scan, (*_SAMPLED, "escape-depth", "horizon",
                                            "epsilon", *_OUT)),
    "gambler": Command("exact biased gambler's ruin probability", _run_gambler,
                       ("mu", "start", "trials", "seed", *_OUT)),
    "concentration": Command("band-violation frequencies of the ruin product",
                             _run_concentration, (*_SAMPLED, "depths", "epsilon", *_OUT)),
}

ALIASES = {"psi": "compute-psi"}


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def _build_parser():
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
                sp.add_argument(f"--{opt}", type=str if opt in IN_RUN else TYPES[opt])
    return p


def _attach_float_values(argv: Sequence[str]) -> list[str]:
    """Every float option takes the next token as its value: argparse
    would read a token such as -1e-3 or -inf, which starts with '-' and is
    not a plain negative number, as a flag. `--gamma -1e-3` is passed on as
    `--gamma=-1e-3`. A next token that starts with '--' is an option, not a
    value, and is left to argparse."""
    flags = {f"--{k}" for k, conv in TYPES.items() if conv in (finite, margin)}
    out: list[str] = []
    for token in argv:
        if out and out[-1] in flags and not token.startswith("--"):
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(_attach_float_values(sys.argv[1:] if argv is None else argv))
    if args.subcommand is None:
        parser.print_help()
        return 2
    sub = ALIASES.get(args.subcommand, args.subcommand)

    try:
        config = load_config(args.config) if args.config else {}
        flag_values = {k.replace("_", "-"): v for k, v in vars(args).items()
                       if k not in ("subcommand", "config")}
        run = Run(sub, flag_values, config)
        COMMANDS[sub].run(run)
        run.flush()
        return 0
    except (UsageError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except RefusalError as e:
        print(f"refused: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
