"""The exit-code contract of errors.py: an InputError exits 2 with one
`error:` line, a RefusalError exits 1, and anything else, a plain
ValueError from a broken invariant among them, propagates out of main as a
bug. The library's invariant checks stay plain ValueErrors, so a bug that
trips one is never read as bad input."""

import ast
import contextlib
import io
import math
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import goerw.analysis as analysis
import goerw.cli as cli
import goerw.percolation as percolation
from goerw.analysis import GamblerChain
from goerw.cli import main
from goerw.environment import (AlphaDistribution, Environment, assign_deterministic,
                               environment_from_alpha, log_Psi, psi)
from goerw.errors import InputError
from goerw.percolation import adapted_conductance
from goerw.tree import (Tree, _cut_depths, _gammas, build_path, build_regular, path_family,
                        polynomial_family, regular_family)
from goerw.walk import ClockTable, StopRule, extension_reach, simulate_extension

ROOT = Path(__file__).resolve().parents[1]
SRC = sorted((ROOT / "src" / "goerw").glob("*.py"))


def test_input_error_is_a_value_error():
    assert issubclass(InputError, ValueError)


@pytest.mark.parametrize("exc", [ValueError("broken invariant"), KeyError("no such key")],
                         ids=["ValueError", "KeyError"])
def test_other_errors_in_a_runner_propagate(monkeypatch, exc):
    def broken(r):
        raise exc

    monkeypatch.setitem(cli.COMMANDS, "gambler", cli.COMMANDS["gambler"]._replace(run=broken))
    with pytest.raises(type(exc)) as caught:
        main(["gambler", "--mu", "2,2", "--start", "1"])
    assert caught.value is exc


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
def test_a_reader_that_closes_stdout_leaves_a_finished_run_at_exit_0(tmp_path, unbuffered):
    """`goerw ... | head -1` closes the pipe once it has its line. The run has
    finished by then, so every output file is written, nothing reaches
    stderr (at interpreter exit neither) and the exit is 0. The read end
    closes before the child can print: unbuffered, print meets the closed
    pipe; buffered, its flush does."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONUNBUFFERED": unbuffered}
    argv = [sys.executable, "-m", "goerw.cli", *shlex.split(
        "phase-scan --tree regular:d=3,L=8 --env alpha:two=0,3,0.5 --escape-depth 8 "
        "--trials 100"), "--out-dir", str(tmp_path)]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=env) as child:
        child.stdout.close()
        err = child.stderr.read()
    assert (child.returncode, err) == (0, b"")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["phase-scan.csv", "phase-scan.json"]


# ---------------------------------------------------------------------------
# every bad argv exits 2 with one error line

SIM = "simulate --tree path:L=8 --env"
WALK = "simulate --env det:mu=1 --tree"
GRID = "estimate-br --tree poly:b=1.2,L=16 --depths 8,16 --gamma-grid"

BAD_ARGV = [
    # the README's error examples
    ("walk-on-depth-0", "simulate --tree path:L=0 --env det:mu=1",
     "a walk needs a tree with an edge; this one is a root only (depth 0)"),
    ("unknown-spec-key", "compute-psi --tree path:L=8,depth=3 --env det:mu=2 --edge-depth 3",
     "unknown tree key 'depth'"),
    ("alpha-nan", f"{SIM} alpha:point=nan", "alpha law entries must be finite, got nan"),
    ("alpha-inf", f"{SIM} alpha:point=inf", "alpha law entries must be finite, got inf"),
    ("det-nan", f"{SIM} det:lambda=nan", "biases must be finite, vertex 1"),
    ("trials-0", f"{SIM} det:mu=1 --trials 0", "--trials: must be at least 1, got 0"),
    ("gamma-nan", "flow-check --tree path:L=8 --env det:mu=1 --gamma nan",
     "--gamma: must be finite, got nan"),
    ("epsilon--1", "phase-scan --tree poly:b=1.2,L=16 --env alpha:point=1 --escape-depth 8 "
     "--epsilon -1", "--epsilon: must be at least 0, got -1"),
    ("grid-non-finite", f"{GRID} 0.5,nan,inf",
     "--gamma-grid: gamma must be finite and at least 0, got nan"),
    ("grid-negative", f"{GRID}=-200,1",
     "--gamma-grid: gamma must be finite and at least 0, got -200.0"),
    ("grid-too-long", f"{GRID} 0:1:1e-9",
     "gamma grid '0:1:1e-9' holds 1e+09 points; a range may hold at most 10,000"),
    ("grid-step", f"{GRID} 0:1e-12:1e-13", "step 1e-13 is too small for entries rounded"),
    ("depths-empty", "estimate-br --tree path:L=16 --depths ''", "--depths: bad depth list ''"),
    ("depths-0", "estimate-br --tree path:L=16 --depths 0", "--depths: depth 0 is below 1"),
    ("depth-past-tree", "estimate-br --tree poly:b=1.2,L=4 --depths 5",
     "depth 5 exceeds the tree depth 4"),
    ("br-on-depth-0", "estimate-br --tree poly:b=1.5,L=0", "error: depth 0 is below 1"),
    ("rt-on-depth-0", "estimate-rt --tree poly:b=1.5,L=0 --env alpha:point=1",
     "error: depth 0 is below 1"),
    ("flow-on-depth-0", "flow-check --tree poly:b=1.5,L=0 --env alpha:point=1 --gamma 1.5",
     "error: depth 0 is below 1"),
    ("format-xml", "gambler --mu 2,2 --start 1 --format xml",
     "--format: unknown format 'xml' (want csv or json)"),
    ("over-the-cap", "simulate --tree regular:d=3,L=25 --env det:mu=1",
     "3145726 vertices by depth 20, over the 2000000 vertex cap"),
    ("unreadable-tree-file", f"{WALK} file:{{tmp}}/absent.txt",
     "cannot read tree file {tmp}/absent.txt"),
    ("unwritable-out-dir", "compute-psi --tree path:L=4 --env det:mu=1 --edge-depth 2 "
     "--out-dir {tmp}/F/sub", "cannot write {tmp}/F/sub/compute-psi.csv"),
    ("unwritable-output", "gen-tree --tree path:L=4 --output {tmp}/F/tree.txt",
     "cannot write {tmp}/F/tree.txt"),
    ("undeclared-flag", f"{SIM} det:mu=1 --horizon 5", "unrecognized arguments: --horizon 5"),
    ("percolate-depth", "percolate --tree path:L=3 --env det:mu=1 --depth 2",
     "unrecognized arguments: --depth 2"),
    ("config-unknown-key", "--config {tmp}/unknown.ini simulate --tree path:L=4",
     "unknown config key 'bogus'"),
    ("config-trials-0", "--config {tmp}/trials.ini simulate --tree path:L=4 --env det:mu=1",
     "config key 'trials': must be at least 1, got 0"),
    ("config-format-xml", "--config {tmp}/format.ini gambler --mu 2,2 --start 1",
     "config key 'format': unknown format 'xml' (want csv or json)"),
    ("config-depths-empty", "--config {tmp}/depths.ini estimate-br --tree path:L=16",
     "config key 'depths': bad depth list ''"),
    ("config-not-utf8", "--config {tmp}/bytes.ini gambler --mu 2,2 --start 1",
     "cannot read config {tmp}/bytes.ini: 'utf-8' codec can't decode byte 0xe9"),
    ("config-key-twice", "--config {tmp}/twice.ini simulate --tree path:L=3 --env det:mu=1",
     "{tmp}/twice.ini:3: config key 'trials' is set again (first at line 1)"),
    ("config-alias-twice", "--config {tmp}/alias.ini compute-psi --tree path:L=4 "
     "--env det:mu=1", "{tmp}/alias.ini:2: config key 'compute-psi.edge-depth' is set "
     "again (first at line 1)"),
    # malformed tree files, named by path and line
    ("file-three-fields", f"{WALK} file:{{tmp}}/three.txt",
     "{tmp}/three.txt:2: want 'parent child', got '0 1 2'"),
    ("file-bad-depth", f"{WALK} file:{{tmp}}/depth.txt",
     "{tmp}/depth.txt:1: bad depth 'x'"),
    ("file-bad-vertex", f"{WALK} file:{{tmp}}/vertex.txt",
     "{tmp}/vertex.txt:3: want 'parent child', got '0 a'"),
    ("file-not-utf8", f"{WALK} file:{{tmp}}/bytes.txt",
     "{tmp}/bytes.txt: not a goerw-tree v1 file"),
    # the poly exponent and the vertex cap
    ("poly-nan", f"{WALK} poly:b=nan,L=3",
     "polynomial growth exponent b must be positive and finite, got nan"),
    ("poly-inf", f"{WALK} poly:b=inf,L=3",
     "polynomial growth exponent b must be positive and finite, got inf"),
    ("poly-nan-table", "estimate-br --tree poly:b=nan,L=16",
     "polynomial growth exponent b must be positive and finite, got nan"),
    ("cap-past-the-str-limit", "compute-psi --tree poly:b=1e5,L=3 --env alpha:point=1 "
     "--edge-depth 2", "tree has at least 2**100000 vertices by depth 2, over the 2000000 "
     "vertex cap"),
    ("poly-level-past-bound", "estimate-br --tree poly:b=1e300,L=16",
     "polynomial growth exponent b=1e+300 gives about 2**1e+300 vertices at depth 2, past "
     "the 2**1048576 level-size bound"),
    ("poly-level-past-bound-walk", f"{WALK} poly:b=1.7e308,L=3",
     "polynomial growth exponent b=1.7e+308 gives about 2**1.7e+308 vertices at depth 2"),
    ("regular-d-1-table", "estimate-br --tree regular:d=1,L=10", "regular tree needs d >= 2"),
    # a family is checked when its spec is parsed, before any refusal reads it
    ("regular-d-1-phase-scan", "phase-scan --tree regular:d=1,L=8 --env alpha:point=0 "
     "--escape-depth 8 --epsilon 5", "tree spec 'regular:d=1,L=8': regular tree needs d >= 2"),
    ("poly-negative-phase-scan", "phase-scan --tree poly:b=-1,L=8 --env alpha:point=0 "
     "--escape-depth 8 --epsilon 5", "tree spec 'poly:b=-1,L=8': polynomial growth exponent "
     "b must be positive and finite, got -1.0"),
    # a spec key is given once, and an alpha law in exactly one form
    ("tree-key-twice", "compute-psi --tree regular:d=3,L=3,L=4 --env det:lambda=2 "
     "--edge-depth 2", "tree spec key 'L' is given twice"),
    ("env-key-twice", "compute-psi --tree path:L=3 --env det:lambda=2,lambda=3 "
     "--edge-depth 2", "env spec key 'lambda' is given twice"),
    ("alpha-two-forms", f"{SIM} 'alpha:point=1;two=0,1,0.5'",
     "needs exactly one of point=, two=, or support="),
    ("alpha-probs-without-support", f"{SIM} 'alpha:point=1;probs=0.5'",
     "env spec 'alpha:point=1;probs=0.5' needs exactly one of point=, two=, or support= "
     "(with probs=)"),
    # library rules a command line reaches
    ("flow-gamma", "flow-check --tree path:L=8 --env det:mu=1 --gamma 0.5", "gamma must exceed 1"),
    ("concentration-epsilon", "concentration --tree path:L=16 --env alpha:two=0,3,0.5 "
     "--depths 8 --epsilon 0", "epsilon must be positive"),
    ("gambler-start", "gambler --mu 2,2 --start 5", "start must lie in [0, N]"),
    ("gambler-negative-seed", "gambler --mu 2,2 --start 1 --trials 100 --seed -1",
     "seed must be at least 0, got -1"),
    ("edge-past-tree", "compute-psi --tree path:L=3 --env det:mu=1 --edge-depth 9",
     "depth 9 exceeds the tree depth 3"),
    ("few-trials", "percolate --tree path:L=3 --env det:mu=1 --depths 2 --trials 50",
     "need at least 100 trials"),
    ("trials-past-ceiling-gambler", "gambler --mu 2,2 --start 1 --trials 99999999999999999999",
     "need at most 10000000 trials, got 99999999999999999999"),
    ("trials-past-ceiling-percolate", "percolate --tree path:L=4 --env det:mu=1 --depths 2 "
     "--trials 99999999999999999999", "need at most 10000000 trials, got 99999999999999999999"),
    ("probe-past-tree", "simulate --tree path:L=3 --env det:mu=1 --depth 9 --trials 2 "
     "--max-steps 10", "depth 9 exceeds the tree depth 3"),
    ("escape-past-tree", "phase-scan --tree poly:b=1.2,L=16 --env alpha:point=1 "
     "--escape-depth 32", "depth 32 exceeds the tree depth 16"),
    ("two-parents", f"{WALK} file:{{tmp}}/parents.txt",
     "vertex 2 has two parents; not a tree"),
    # parser and writer errors of their own
    ("tree-entry-no-value", "compute-psi --tree poly:b --env det:mu=1 --edge-depth 2",
     "malformed tree spec entry 'b'"),
    ("table-on-a-tree-file", "estimate-br --tree file:t.txt",
     "needs a parametric tree family"),
    ("config-no-equals", "--config {tmp}/noeq.ini simulate --tree path:L=4 --env det:mu=1",
     "{tmp}/noeq.ini:1: expected key = value"),
    ("config-unknown-subcommand", "--config {tmp}/bogus.ini simulate --tree path:L=4 "
     "--env det:mu=1", "unknown config key 'bogus.trials' (no subcommand 'bogus')"),
    ("config-absent", "--config {tmp}/absent.ini simulate --tree path:L=4 --env det:mu=1",
     "cannot read config {tmp}/absent.ini: No such file or directory"),
    ("seed-not-a-number", "gambler --mu 2,2 --start 1 --seed abc", "--seed: cannot parse 'abc'"),
    ("phase-scan-det", "phase-scan --tree poly:b=1.2,L=16 --env det:mu=1 --escape-depth 8",
     "needs an alpha env spec"),
    ("bias-list", "gambler --mu 2,x --start 1", "bad bias list"),
    ("grid-step-0", f"{GRID} 1:0:1", "bad gamma grid"),
    ("grid-not-a-number", f"{GRID} 1,x", "bad gamma grid"),
    ("output-is-a-directory", "gen-tree --tree path:L=4 --output {tmp}/D",
     "cannot write {tmp}/D: Is a directory"),
]


@pytest.fixture
def inputs(tmp_path):
    files = {
        "F": "a regular file, not a directory\n",
        "unknown.ini": "bogus = 1\n",
        "trials.ini": "trials = 0\n",
        "format.ini": "format = xml\n",
        "depths.ini": "depths =\n",
        "twice.ini": "trials = 5\n# a comment\ntrials = 7\n",
        "alias.ini": "psi.edge-depth = 2\ncompute-psi.edge-depth = 3\n",
        "three.txt": "# goerw-tree v1 depth=2\n0 1 2\n",
        "depth.txt": "# goerw-tree v1 depth=x\n0 1\n",
        "vertex.txt": "# goerw-tree v1 depth=1\n0 1\n0 a\n",
        "parents.txt": "# goerw-tree v1 depth=2\n0 1\n0 2\n1 2\n",
        "noeq.ini": "trials 5\n",
        "bogus.ini": "bogus.trials = 5\n",
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    (tmp_path / "D").mkdir()
    (tmp_path / "bytes.txt").write_bytes(b"\xff\xfe# goerw-tree v1 depth=0\n")
    (tmp_path / "bytes.ini").write_bytes(b"seed = 1 # caf\xe9\n")
    return str(tmp_path)


def exit_code(argv):
    """main's exit code, argparse's own usage errors included, with its
    stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv,message", [pytest.param(a, m, id=i) for i, a, m in BAD_ARGV])
def test_bad_argv_exits_2_with_one_error_line(inputs, argv, message):
    code, out, err = exit_code(shlex.split(argv.format(tmp=inputs)))
    assert (code, out) == (2, "")
    lines = [ln for ln in err.splitlines() if "error:" in ln]
    assert len(lines) == 1 and message.format(tmp=inputs) in lines[0]
    assert "Traceback" not in err


def test_a_failed_write_leaves_no_temp_file(inputs):
    """An output path that is a directory fails the rename of the temp file
    written next to it, and that temp file is removed."""
    code, out, _ = exit_code(["gen-tree", "--tree", "path:L=4", "--output", f"{inputs}/D"])
    assert (code, out) == (2, "")
    assert list(Path(inputs).rglob("*.tmp")) == []


# one rule, one message: a bad value on the command line and the same value
# given to the rule's one home in the library
ONE_HOME = [
    ("gamma-grid", "estimate-br --tree poly:b=1.2,L=16 --gamma-grid 0.5,inf",
     lambda: _gammas([0.5, math.inf])),
    ("depths", "estimate-br --tree path:L=16 --depths 0,4", lambda: _cut_depths([0, 4])),
    ("regular-d", "estimate-br --tree regular:d=1,L=10", lambda: regular_family(1)),
    ("poly-b", "estimate-br --tree poly:b=-1,L=10", lambda: polynomial_family(-1.0)),
    ("depth", "simulate --env det:mu=1 --tree path:L=-1", lambda: build_path(-1)),
    ("gambler-sites", "gambler --mu 2 --start 1", lambda: GamblerChain(N=1, mu=(), start=1)),
    # one level past the deepest a tree within the vertex cap reaches: the
    # level-size list is refused before any of its 2,000,001 sizes is made
    ("depth-past-cap", "estimate-br --tree poly:b=1.5,L=2000000",
     lambda: polynomial_family(1.5).level_sizes(2_000_000)),
    # a path has its own cap of 10,000,000 vertices, build_path's
    ("path-depth-past-cap", "estimate-br --tree path:L=10000000",
     lambda: path_family().level_sizes(10_000_000)),
    # every walk and the exact control reach depth 1 on their first step
    ("escape-depth-1", "phase-scan --tree path:L=2 --env alpha:two=0,3,0.5 --escape-depth 1 "
     "--trials 100", lambda: analysis.phase_diagnostic(
         path_family(), AlphaDistribution.two_point(0.0, 3.0, 0.5), 0.1, 1, 10**6, 100, 0, 2)),
]


@pytest.mark.parametrize("spec,L", [("poly:b=1.5,L=1999999", 1_999_999),
                                    ("path:L=9999999", 9_999_999)], ids=["poly", "path"])
def test_the_deepest_level_within_the_cap_is_read(spec, L):
    """One level short of each family's refused depth, the spec is read;
    no level size is listed here."""
    assert cli.parse_family_spec(spec)[1] == L


@pytest.mark.parametrize("argv,rule", [pytest.param(a, r, id=i) for i, a, r in ONE_HOME])
def test_the_command_line_reports_the_library_rule(argv, rule):
    """The command line's one error line ends with the InputError the
    rule's owner raises for the same value, so a second copy of a rule in
    the CLI that drifts from it fails here."""
    with pytest.raises(InputError) as caught:
        rule()
    code, out, err = exit_code(shlex.split(argv))
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.endswith(f"{caught.value}\n")


@pytest.mark.parametrize("argv", [
    "simulate --tree path:L=4 --env det:mu=1 --max-steps 10",
    "concentration --tree path:L=16 --env alpha:two=0,3,0.5 --depths 8 --epsilon 0.5",
], ids=["simulate", "concentration"])
def test_trial_ceiling_comes_before_any_environment(monkeypatch, argv):
    """simulate and concentration have no floor of 100, but the one
    ceiling, checked before an environment is built or a walk run; a
    count at the ceiling still starts."""

    def never(*args):
        raise AssertionError("ran past the trial ceiling")

    monkeypatch.setattr(cli, "build_environment", never)
    monkeypatch.setattr(percolation, "sample_random_environment", never)
    code, out, err = exit_code(shlex.split(f"{argv} --trials 99999999999999999999"))
    assert (code, out, err) == (
        2, "", "error: need at most 10000000 trials, got 99999999999999999999\n")
    with pytest.raises(AssertionError, match="ceiling"):
        exit_code(shlex.split(f"{argv} --trials 10000000"))


# every command that reads a depth, given one past its tree's depth L
DEPTH_PAST_THE_TREE = [
    ("simulate", "simulate --tree path:L=3 --env det:mu=1 --depth 4", 4, 3),
    ("percolate", "percolate --tree path:L=3 --env det:mu=1 --depths 4", 4, 3),
    ("percolate-valid-first", "percolate --tree regular:d=3,L=5 --env alpha:point=1 "
     "--depths 5,9 --trials 2000000", 9, 5),
    ("compute-psi", "compute-psi --tree path:L=3 --env det:mu=1 --edge-depth 4", 4, 3),
    ("phase-scan", "phase-scan --tree poly:b=1.2,L=16 --env alpha:point=1 "
     "--escape-depth 17", 17, 16),
    ("estimate-br", "estimate-br --tree poly:b=1.2,L=16 --depths 8,17", 17, 16),
    ("estimate-rt", "estimate-rt --tree poly:b=1.2,L=16 --env alpha:point=1 --depths 8,17",
     17, 16),
    ("flow-check", "flow-check --tree poly:b=1.2,L=16 --env alpha:point=1 --gamma 1.5 "
     "--depths 8,17", 17, 16),
    ("concentration", "concentration --tree path:L=16 --env alpha:two=0,3,0.5 "
     "--depths 8,17 --epsilon 0.5", 17, 16),
]


@pytest.mark.parametrize("argv,depth,L", [pytest.param(a, d, L, id=i)
                                          for i, a, d, L in DEPTH_PAST_THE_TREE])
def test_a_depth_past_the_tree_is_refused_before_any_work(monkeypatch, argv, depth, L):
    """One rule (tree._cut_depths) and one message for every depth a command
    reads, checked before an environment is built, a walk or a trial run or
    a table computed, whichever depth of a list is the bad one."""
    calls = []
    for owner, name in [(cli, "build_environment"), (analysis, "sample_random_environment"),
                        (percolation, "sample_random_environment"), (cli, "simulate"),
                        (analysis, "simulate"), (cli, "edge_connection_probability_mc"),
                        (percolation, "extension_reach"), (cli, "branching_ruin_estimate"),
                        (cli, "rt_estimate"), (cli, "flow_energy_check")]:
        monkeypatch.setattr(owner, name, lambda *a, name=name, **k: calls.append(name))
    code, out, err = exit_code(shlex.split(argv))
    assert (code, out, err) == (2, "", f"error: depth {depth} exceeds the tree depth {L}\n")
    assert calls == []


def test_a_law_of_one_distinct_alpha_is_refused():
    """Two atoms of one value are the point law alpha = 1, which
    concentration refuses: exit 1, and the refusal says why."""
    code, out, err = exit_code(shlex.split(
        "concentration --tree path:L=8 --env alpha:two=1,1,0.5 --depths 4 --epsilon 1 "
        "--trials 5"))
    assert (code, out) == (1, "")
    assert err.startswith("refused: concentration over a degenerate") and "distinct" in err


def test_an_undotted_and_a_dotted_key_are_two_keys(tmp_path):
    (tmp_path / "both.ini").write_text("trials = 5\nsimulate.trials = 3\n")
    code, out, err = exit_code(shlex.split(
        f"--config {tmp_path}/both.ini simulate --tree path:L=3 --env det:mu=1 "
        "--max-steps 5"))
    assert (code, err) == (0, "")
    assert out.startswith("trials=3 ")


def test_an_overflowing_alpha_law_prints_only_the_refusal():
    """lam = 1 + 1e308 * 3 overflows at vertex 1: the refusal names it,
    and numpy's overflow warning (an error under the test suite's warning
    filter) is not raised first."""
    code, out, err = exit_code(shlex.split(
        "simulate --tree regular:d=3,L=3 --env alpha:point=1e308 --max-steps 5 --trials 1"))
    assert (code, out, err) == (2, "", "error: biases must be finite, vertex 1\n")


@pytest.mark.parametrize("seed, vertex", [(0, 1), (1, 3), (2, 1), (3, 1)])
def test_an_overflowing_atom_of_a_two_atom_law_prints_only_the_refusal(seed, vertex):
    """Under alpha:two=0,1e308,0.5 the refusal names the first vertex of
    degree 3 that draws 1e308, one error line and exit 2."""
    code, out, err = exit_code(shlex.split(
        f"simulate --tree regular:d=3,L=3 --env alpha:two=0,1e308,0.5 --seed {seed} "
        "--max-steps 5 --trials 1"))
    assert (code, out, err) == (2, "", f"error: biases must be finite, vertex {vertex}\n")


@pytest.mark.parametrize("argv", [
    "estimate-rt --tree regular:d=3,L=5 --env alpha:point=1 --seed 3 --depths 1,2,3 "
    "--gamma-grid 1e308",
    "flow-check --tree regular:d=3,L=5 --env alpha:point=1 --seed 3 --gamma 1e308 "
    "--depths 1,2,3",
    "simulate --tree regular:d=3,L=5 --env det:lambda=1e-300 --seed 3 --trials 100 "
    "--depth 3 --max-steps 1000 --returns 2",
    "percolate --tree regular:d=3,L=3 --env det:lambda=1e-308,mu=1 --depths 3 --trials 100 "
    "--seed 1",
    "percolate --tree regular:d=3,L=3 --env det:lambda=1,mu=1e-320 --depths 3 --trials 100 "
    "--seed 1",
], ids=["estimate-rt", "flow-check", "simulate", "percolate-tiny-lambda", "percolate-tiny-mu"])
def test_valid_input_prints_no_numpy_warning(argv):
    """gamma * log Psi overflows to -inf, whose weight 0 is right; at a
    leaf (1e-300 + 1) - 1 is 0, whose parent step is set to 1; and a clock
    over a tiny lam or mu overflows to +inf, which ranks as the scalar
    run's inf does: numpy's warnings (errors under the test suite's warning
    filter) stay silent."""
    code, out, err = exit_code(shlex.split(argv))
    assert (code, err) == (0, "")
    assert out


def test_a_band_end_past_the_float_range_exits_0():
    code, out, err = exit_code(shlex.split(
        "concentration --tree path:L=16 --env alpha:two=0,3,0.5 --depths 8 --epsilon 1e308 "
        "--trials 3"))
    assert (code, err) == (0, "")
    assert "depth=8 violations=0/3" in out


# tree-file texts near the format: headers with good and bad depths, edge
# lines with one to three fields of integers, words and comments
HEADER = st.sampled_from(["# goerw-tree v1 depth=", "# goerw-tree v2 depth=", "", "0 1"])
DEPTH = st.sampled_from(["0", "1", "2", "3", "-1", "x", "", "1 2"])
FIELD = st.sampled_from(["0", "1", "2", "3", "4", "-1", "10", "x", "#", "1.5"])
LINE = st.lists(FIELD, max_size=3).map(" ".join)
TEXT = st.one_of(
    st.builds(lambda h, d, lines: "\n".join([h + d, *lines]) + "\n",
              HEADER, DEPTH, st.lists(LINE, max_size=8)),
    st.text(max_size=60),
)


@settings(max_examples=150, deadline=None)
@given(TEXT)
def test_any_tree_file_exits_0_or_2(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "tree.txt"
        path.write_text(text, encoding="utf-8")
        code, _, err = exit_code(["simulate", "--tree", f"file:{path}", "--env", "det:mu=1",
                                  "--trials", "1", "--max-steps", "50"])
    assert code in (0, 2)
    assert (code == 2) == err.startswith("error: ")


# ---------------------------------------------------------------------------
# invariants are not input


def _invariants():
    tree = build_path(3)
    env = assign_deterministic(build_regular(3, 2), 1.0, 1.0)
    stop = StopRule(max_steps=10, hit_depth=2, root_returns=1)
    return {
        "breadth-first-order": lambda: Tree([-1, 0, 2]),
        "environment-length": lambda: Environment(tree, np.ones(2), np.ones(4)),
        "alpha-length": lambda: environment_from_alpha(tree, [0.0, 1.0]),
        "psi-of-root": lambda: psi(env, 0),
        "log-Psi-of-root": lambda: log_Psi(env, 0),
        "conductance-of-root": lambda: adapted_conductance(env, 0),
        "extension-to-root": lambda: simulate_extension(env, ClockTable(1), 0, stop),
        "reach-of-root": lambda: extension_reach(env, 0, np.arange(2, dtype=np.uint64), 10),
    }


@pytest.mark.parametrize("name", sorted(_invariants()))
def test_an_invariant_is_a_plain_value_error(name):
    with pytest.raises(ValueError) as caught:
        _invariants()[name]()
    assert not isinstance(caught.value, InputError)


# ---------------------------------------------------------------------------
# a catch-all cannot come back unnoticed


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_main_catches_exactly_input_and_refusal_errors():
    main_def = next(node for node in parse(ROOT / "src" / "goerw" / "cli.py").body
                    if isinstance(node, ast.FunctionDef) and node.name == "main")
    caught = []
    for node in ast.walk(main_def):
        if isinstance(node, ast.ExceptHandler):
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            caught += [ast.unparse(t) if t else "<bare except>" for t in types]
    assert sorted(caught) == ["InputError", "RefusalError"]


@pytest.mark.parametrize("path", SRC, ids=[p.name for p in SRC])
def test_no_second_input_error_vocabulary(path):
    for node in ast.walk(parse(path)):
        if isinstance(node, ast.ClassDef):
            assert node.name != "UsageError"
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            assert all(a.name.rpartition(".")[2] != "ArgumentTypeError" for a in node.names)
        elif isinstance(node, ast.Attribute):
            assert node.attr != "ArgumentTypeError"
