import csv
import json
import os
import re
import time
import warnings
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import goerw.cli as cli
import goerw.tree as tree_module
from goerw.cli import main, parse_env_spec, parse_family_spec, parse_tree_spec
from goerw.environment import AlphaDistribution
from goerw.walk import ClockTable, StopRule, derive_seed, simulate_extension


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestSpecParsing:
    def test_tree_specs(self):
        assert parse_tree_spec("path:L=5").n_vertices == 6
        assert parse_tree_spec("regular:d=3,L=2").n_vertices == 10
        fam, L = parse_family_spec("poly:b=1.5,L=64")
        assert fam.name == "poly-1.5" and L == 64

    def test_env_specs(self):
        kind, d = parse_env_spec("alpha:point=1")
        assert kind == "alpha" and d.values == (1.0,)
        kind, d = parse_env_spec("alpha:two=0,3,0.5")
        assert d.values == (0.0, 3.0) and d.probs == (0.5, 0.5)
        kind, d = parse_env_spec("alpha:support=0,1,3;probs=0.5,0.25,0.25")
        assert d.values == (0.0, 1.0, 3.0)
        kind, lm = parse_env_spec("det:lambda=2,mu=3")
        assert kind == "det" and lm == (2.0, 3.0)

    def test_spec_string_round_trips_through_parser(self):
        d = AlphaDistribution.two_point(0.0, 3.0, 0.25)
        kind, back = parse_env_spec(d.spec_string())
        assert back == d

    def test_bad_specs(self, capsys):
        code, _, err = run(capsys, "simulate", "--tree", "blob:L=4",
                           "--env", "alpha:point=1")
        assert code == 2 and "blob" in err
        code, _, err = run(capsys, "simulate", "--tree", "path:L=4",
                           "--env", "gamma:point=1")
        assert code == 2 and "gamma" in err
        code, _, err = run(capsys, "simulate", "--tree", "poly:b=1.5",
                           "--env", "alpha:point=1")
        assert code == 2 and "L" in err

    def test_unknown_tree_key_is_usage_error(self, capsys):
        code, out, err = run(capsys, "compute-psi", "--tree", "path:L=8,depth=3,foo=1",
                             "--env", "det:mu=2", "--edge-depth", "3")
        assert code == 2 and out == ""
        assert "unknown tree key 'depth'" in err
        for spec in ("regular:d=3,L=4,b=2", "poly:b=1.2,L=64,E=48"):
            with pytest.raises(cli.UsageError, match="unknown tree key"):
                parse_family_spec(spec)

    def test_negative_depth_is_usage_error(self):
        """A negative L names no tree: the spec is refused before any
        family builds from it."""
        for spec in ("path:L=-1", "regular:d=3,L=-1", "poly:b=1.2,L=-3"):
            with pytest.raises(cli.UsageError, match="L must be at least 0, got -"):
                parse_family_spec(spec)
        assert parse_family_spec("regular:d=3,L=0")[1] == 0

    @pytest.mark.parametrize("env", ["alpha:point=nan", "alpha:point=inf",
                                     "alpha:two=0,nan,0.5",
                                     "alpha:support=0,3;probs=0.5,nan",
                                     "det:lambda=nan", "det:mu=inf"])
    @pytest.mark.parametrize("sub", ["compute-psi", "simulate"])
    def test_non_finite_bias_is_usage_error(self, tmp_path, capsys, sub, env):
        extra = ["--edge-depth", "3"] if sub == "compute-psi" else ["--trials", "5"]
        code, out, err = run(capsys, sub, "--tree", "path:L=8", "--env", env,
                             *extra, "--out-dir", str(tmp_path / "never"))
        assert code == 2
        assert "finite" in err and out == ""
        assert not (tmp_path / "never").exists()

    def test_missing_tree_file_is_usage_error(self, tmp_path, capsys):
        path = str(tmp_path / "absent.txt")
        code, _, err = run(capsys, "simulate", "--tree", f"file:{path}",
                           "--env", "alpha:point=1")
        assert code == 2 and path in err


class TestGambler:
    def test_prints_exact_fraction(self, capsys):
        code, out, _ = run(capsys, "gambler", "--mu", "2,2,2", "--start", "1")
        assert code == 0
        assert out.splitlines()[0] == "6/7"

    def test_boundary_start(self, capsys):
        code, out, _ = run(capsys, "gambler", "--mu", "2,2,2", "--start", "0")
        assert code == 0 and out.splitlines()[0] == "1"

    def test_mc_line_when_trials_given(self, capsys):
        code, out, _ = run(capsys, "gambler", "--mu", "2,2", "--start", "1",
                           "--trials", "2000", "--seed", "3")
        assert code == 0
        assert out.splitlines()[1].startswith("mc = 0.6")

    def test_single_site_rejected(self, capsys):
        code, _, err = run(capsys, "gambler", "--mu", "2", "--start", "1")
        assert code == 2 and "two" in err


class TestPsi:
    def test_prints_all_three_quantities(self, capsys):
        code, out, _ = run(capsys, "psi", "--tree", "poly:b=1.5,L=64",
                           "--env", "alpha:point=1", "--edge-depth", "32")
        assert code == 0
        lines = out.splitlines()
        assert lines[1] == "psi = 0.953125"  # 1 - 3/(2*32)
        assert lines[2].startswith("Psi = ")
        assert lines[3].startswith("c = ")

    def test_symmetric_values(self, capsys):
        code, out, _ = run(capsys, "compute-psi", "--tree", "path:L=8",
                           "--env", "det:lambda=1,mu=1", "--edge-depth", "4")
        assert code == 0
        vals = {ln.split(" = ")[0]: float(ln.split(" = ")[1])
                for ln in out.splitlines()[1:]}
        assert vals["Psi"] == pytest.approx(0.25, rel=1e-12)
        assert vals["c"] == pytest.approx(1.0, rel=1e-12)


class TestZeroPsi:
    """alpha = 1e300 makes the depth-2 drop term exactly 1 and the bias
    bracket round to 1, so psi there is 0.0: log Psi is -inf and Psi is
    exactly 0 from depth 2 down, where math.log(0.0) used to end each of
    these subcommands in exit 2."""

    ENV = ("--tree", "poly:b=1.5,L=8", "--env", "alpha:point=1e300", "--seed", "1")

    def test_compute_psi_reports_zero(self, capsys):
        code, out, err = run(capsys, "compute-psi", *self.ENV, "--edge-depth", "3")
        assert (code, err) == (0, "")
        assert out.splitlines()[2:] == ["Psi = 0.0", "c = 0.0"]

    def test_percolate(self, capsys):
        code, out, err = run(capsys, "percolate", *self.ENV, "--depth", "3",
                             "--trials", "200")
        assert (code, err) == (0, "") and "exact=0.0 p_hat=0.0" in out

    def test_estimate_rt(self, tmp_path, capsys):
        code, _, err = run(capsys, "estimate-rt", *self.ENV, "--depths", "4,8",
                           "--gamma-grid", "0,1,2", "--out-dir", str(tmp_path))
        assert (code, err) == (0, "")
        rows = (tmp_path / "estimate-rt.csv").read_text().splitlines()[1:]
        # every cut below depth 1 weighs 0.0 ** gamma: 1 at gamma 0, else 0
        assert {r.split(",")[0]: r.split(",")[2] for r in rows} == {
            "0.0": "1.0", "1.0": "0.0", "2.0": "0.0"}

    def test_flow_check(self, capsys):
        code, out, err = run(capsys, "flow-check", *self.ENV, "--gamma", "1.5",
                             "--depths", "4,8")
        assert (code, err) == (0, "")
        assert "depth=8 max_flow=0.0 energy=0.0 support=0" in out


class TestUnitPsi:
    """lambda = 1e-300 on a path makes the drop term's bracket round to 0,
    so psi is exactly 1 from depth 2 down: the resistance (1 - psi)/Psi is 0
    and the conductance +inf, where compute-psi used to end in a
    ZeroDivisionError traceback and flow-check in a divide-by-zero warning."""

    ENV = ("--tree", "path:L=8", "--env", "det:lambda=1e-300,mu=1")

    def test_compute_psi_reports_infinite_conductance(self, capsys):
        code, out, err = run(capsys, "compute-psi", *self.ENV, "--edge-depth", "3")
        assert (code, err) == (0, "")
        assert out.splitlines()[1:] == ["psi = 1.0", "Psi = 1.0", "c = inf"]

    def test_flow_check_warns_nothing(self, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, "flow-check", *self.ENV, "--gamma", "1.5",
                                 "--depths", "4,8")
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert (code, err) == (0, "")
        # only the depth-1 edge has a finite conductance (1), and carries 1
        assert "depth=8 max_flow=1.0 energy=1.0 support=8" in out

    def test_json_is_strict(self, tmp_path, capsys):
        """The infinite conductance is the CSV's "inf" in the JSON too,
        which a parser that refuses Infinity, -Infinity and NaN reads."""
        code, _, err = run(capsys, "compute-psi", *self.ENV, "--edge-depth", "3",
                           "--format", "json", "--out-dir", str(tmp_path))
        assert (code, err) == (0, "")

        def refuse(name):
            raise ValueError(f"non-finite JSON constant {name}")

        doc = json.loads((tmp_path / "compute-psi.json").read_text(), parse_constant=refuse)
        assert doc["statistics"] == {"edge": 3, "depth": 3, "psi": 1.0, "Psi": 1.0, "c": "inf"}

    def test_spelled_like_the_csv(self):
        nested = {"a": [1.5, float("-inf"), (float("nan"), 2)], "b": {"c": float("inf")}}
        assert cli._spelled(nested) == {"a": [1.5, "-inf", ["nan", 2]], "b": {"c": "inf"}}


class TestOverflowRefused:
    """mu = 1e200 makes R = mu^(d-1) overflow at depth 3 of a path: the
    potential pass refuses by vertex and value instead of printing NaN."""

    @pytest.mark.parametrize("argv", [
        ["compute-psi", "--edge-depth", "6"],
        ["flow-check", "--gamma", "1.5", "--depths", "4,8"],
        ["estimate-rt", "--depths", "4,8"],
    ], ids=["compute-psi", "flow-check", "estimate-rt"])
    def test_refused_naming_the_vertex(self, tmp_path, capsys, argv):
        code, out, err = run(capsys, *argv, "--tree", "path:L=8", "--env",
                             "det:mu=1e200", "--out-dir", str(tmp_path))
        assert (code, out) == (1, "")
        assert err == "refused: R at vertex 3 is inf: the potential pass overflows float64\n"
        assert list(tmp_path.iterdir()) == []


class TestConfigFile:
    def test_unknown_key_named(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("lamda = 2\n")
        code, _, err = run(capsys, "--config", str(cfg), "simulate")
        assert code == 2 and "lamda" in err

    def test_dotted_keys_scope_to_subcommand(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("tree = path:L=4\nenv = det:lambda=1,mu=1\n"
                       "seed = 4\ntrials = 500\npercolate.depths = 1,2\n")
        code, out, _ = run(capsys, "--config", str(cfg), "percolate")
        assert code == 0
        assert "depth=1" in out and "depth=2" in out

    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("mu = 1,1\nstart = 1\n" if False else
                       "gambler.mu = 1,1\ngambler.start = 1\n")
        code, out, _ = run(capsys, "--config", str(cfg), "gambler",
                           "--mu", "2,2")
        assert code == 0
        assert out.splitlines()[0] == "2/3"  # overridden biases, config start

    def test_dotted_key_must_be_declared_by_its_subcommand(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("percolate.epsilon = 3\n")
        code, _, err = run(capsys, "--config", str(cfg), "percolate")
        assert code == 2 and "percolate.epsilon" in err and "--epsilon" in err

    def test_undotted_key_serves_only_subcommands_that_read_it(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("tree = path:L=8\nseed = 5\nepsilon = 0.3\n"
                       "gamma-grid = 0.5,1.0\n")
        out = tmp_path / "br"
        code, _, _ = run(capsys, "--config", str(cfg), "estimate-br",
                         "--out-dir", str(out), "--format", "json")
        assert code == 0
        doc = json.loads((out / "estimate-br.json").read_text())
        assert doc["seed"] is None
        assert doc["config"]["options"] == {
            "format": "json", "gamma-grid": [0.5, 1.0], "out-dir": str(out),
            "tree": "path:L=8"}

    def test_undotted_depth_does_not_cut_the_phase_scan_tree(self, tmp_path, capsys):
        """phase-scan takes its tree depth from the spec's L alone: an
        undotted depth meant for simulate leaves it whole, and --depth is
        not a phase-scan flag."""
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("tree = poly:b=1.2,L=16\nenv = alpha:point=1\nseed = 3\n"
                       "depth = 4\ntrials = 100\n")
        code, out, err = run(capsys, "--config", str(cfg), "phase-scan", "--escape-depth",
                             "8", "--out-dir", str(tmp_path), "--format", "json")
        assert code == 0, err
        assert out.startswith("verdict: ")
        assert json.loads((tmp_path / "phase-scan.json").read_text())["statistics"]["depth"] == 16
        with pytest.raises(SystemExit) as e:
            main(["--config", str(cfg), "phase-scan", "--escape-depth", "8", "--depth", "16"])
        assert e.value.code == 2
        assert "--depth" in capsys.readouterr().err

    def test_comments_and_blanks_ignored(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("# recipe\n\ngambler.mu = 2,2  # biased\n"
                       "gambler.start = 1\n")
        code, out, _ = run(capsys, "--config", str(cfg), "gambler")
        assert code == 0 and out.splitlines()[0] == "2/3"


class TestOutputs:
    args = ("percolate", "--tree", "regular:d=3,L=3", "--env", "alpha:point=1",
            "--depth", "2", "--trials", "300", "--seed", "9")

    def test_rerun_is_byte_identical_modulo_timestamp(self, tmp_path, capsys):
        out = str(tmp_path / "out")
        assert run(capsys, *self.args, "--out-dir", out)[0] == 0
        first_csv = (tmp_path / "out" / "percolate.csv").read_bytes()
        first_json = (tmp_path / "out" / "percolate.json").read_text()
        assert run(capsys, *self.args, "--out-dir", out)[0] == 0
        second_csv = (tmp_path / "out" / "percolate.csv").read_bytes()
        second_json = (tmp_path / "out" / "percolate.json").read_text()
        assert first_csv == second_csv
        strip = lambda t: [ln for ln in t.splitlines() if "timestamp" not in ln]
        assert strip(first_json) == strip(second_json)

    def test_format_selects_one_file(self, tmp_path, capsys):
        out = tmp_path / "only"
        code, _, _ = run(capsys, *self.args, "--out-dir", str(out),
                         "--format", "csv")
        assert code == 0
        assert sorted(p.name for p in out.iterdir()) == ["percolate.csv"]

    def test_json_carries_config_seed_stats(self, tmp_path, capsys):
        out = tmp_path / "payload"
        run(capsys, *self.args, "--out-dir", str(out))
        doc = json.loads((out / "percolate.json").read_text())
        assert set(doc) == {"config", "seed", "statistics", "timestamp"}
        assert doc["seed"] == 9
        assert set(doc["config"]) == {"subcommand", "options"}
        assert doc["config"]["subcommand"] == "percolate"
        assert doc["config"]["options"]["trials"] == 300
        assert set(doc["statistics"]["depths"]["2"]) == {"edge", "p_hat", "exact", "z", "steps"}

    def test_percolate_csv_columns(self, tmp_path, capsys):
        out = tmp_path / "columns"
        run(capsys, *self.args, "--out-dir", str(out), "--format", "csv")
        header = (out / "percolate.csv").read_text().splitlines()[0]
        assert header == "depth,edge,trials,n_connected,p_hat,exact,stderr,z,invalid_runs"

    def test_json_steps_are_the_runs_steps(self, tmp_path, capsys):
        """statistics.depths.<d>.steps sums the steps of every trial's run."""
        out = tmp_path / "steps"
        run(capsys, *self.args, "--out-dir", str(out))
        doc = json.loads((out / "percolate.json").read_text())
        tree = parse_tree_spec("regular:d=3,L=3")
        env = cli.build_environment(tree, "alpha:point=1", 9)
        edge = tree.leftmost_at_depth(2)
        master = derive_seed(9, 2, 2)
        want = sum(simulate_extension(env, ClockTable(derive_seed(master, i)), edge,
                                      StopRule(max_steps=10**8, hit_depth=2, root_returns=1),
                                      record=False).steps
                   for i in range(300))
        assert doc["statistics"]["depths"]["2"]["steps"] == want

    def test_simulate_counts_censored_runs(self, tmp_path, capsys):
        """Runs stopped by --max-steps are reported as censored, on the
        summary line and in the JSON, never as an ordinary outcome."""
        out = tmp_path / "sim"
        code, text, _ = run(capsys, "simulate", "--tree", "path:L=30", "--env",
                            "det:mu=1", "--trials", "200", "--max-steps", "6",
                            "--returns", "1", "--seed", "3", "--out-dir", str(out))
        assert code == 0
        with open(out / "simulate.csv", newline="") as fh:
            reasons = Counter(row["stop_reason"] for row in csv.DictReader(fh))
        assert 0 < reasons["max_steps"] < 200
        assert text.splitlines()[0].split()[-1] == f"censored={reasons['max_steps']}"
        doc = json.loads((out / "simulate.json").read_text())
        assert doc["statistics"]["censored"] == reasons["max_steps"]


class TestSeedEcho:
    """JSON names the seed the run used, which is 0 without --seed."""

    def test_default_seed_echoed(self, tmp_path, capsys):
        out = tmp_path / "psi"
        code, _, _ = run(capsys, "compute-psi", "--tree", "path:L=8", "--env",
                         "alpha:two=0,3,0.5", "--edge-depth", "3",
                         "--format", "json", "--out-dir", str(out))
        assert code == 0
        assert json.loads((out / "compute-psi.json").read_text())["seed"] == 0

    def test_default_seed_is_the_seed_used(self, tmp_path, capsys):
        argv = ["compute-psi", "--tree", "poly:b=1.2,L=8", "--env",
                "alpha:two=0,3,0.5", "--edge-depth", "5"]
        assert run(capsys, *argv)[1] == run(capsys, *argv, "--seed", "0")[1]
        assert run(capsys, *argv)[1] != run(capsys, *argv, "--seed", "1")[1]

    @pytest.mark.parametrize("sub, argv, seed", [
        ("flow-check", ["--tree", "poly:b=3,L=8", "--env", "det:mu=1",
                        "--gamma", "1.5", "--depths", "8"], 0),
        ("gambler", ["--mu", "2,2", "--start", "1", "--seed", "7"], 7),
        ("estimate-br", ["--tree", "poly:b=1.5,L=8", "--gamma-grid", "1.0"], None),
    ])
    def test_each_subcommand(self, tmp_path, capsys, sub, argv, seed):
        out = tmp_path / sub
        assert run(capsys, sub, *argv, "--format", "json", "--out-dir", str(out))[0] == 0
        assert json.loads((out / f"{sub}.json").read_text())["seed"] == seed


class TestRefusalHygiene:
    def test_near_critical_phase_scan_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "never"
        code, _, err = run(capsys, "phase-scan", "--tree", "poly:b=1.2,L=20",
                           "--env",
                           "alpha:support=0,3;probs=0.7333333333333333,0.26666666666666666",
                           "--escape-depth", "12", "--trials", "150",
                           "--seed", "1", "--out-dir", str(out))
        assert code == 1
        assert "margin" in err
        assert not out.exists()

    def test_degenerate_concentration_refused(self, tmp_path, capsys):
        out = tmp_path / "alsonever"
        code, _, err = run(capsys, "concentration", "--tree", "path:L=8",
                           "--env", "alpha:point=1", "--epsilon", "0.3",
                           "--depths", "4", "--trials", "100",
                           "--out-dir", str(out))
        assert code == 1
        assert not out.exists()


class TestRoundTrips:
    def test_gen_tree_then_simulate_from_file(self, tmp_path, capsys):
        path = str(tmp_path / "t.txt")
        code, out, _ = run(capsys, "gen-tree", "--tree", "poly:b=1.2,L=6",
                           "--output", path)
        assert code == 0 and "vertices=" in out
        code, out, _ = run(capsys, "simulate", "--tree", f"file:{path}",
                           "--env", "det:lambda=2,mu=1", "--trials", "20",
                           "--max-steps", "200", "--seed", "1")
        assert code == 0 and "trials=20" in out

    def test_gen_tree_output_creates_its_directory(self, tmp_path, capsys):
        path = tmp_path / "new" / "sub" / "tree.txt"
        code, out, err = run(capsys, "gen-tree", "--tree", "regular:d=3,L=3",
                             "--output", str(path))
        assert code == 0 and err == "" and f"wrote {path}" in out
        back = parse_tree_spec(f"file:{path}")
        want = parse_tree_spec("regular:d=3,L=3")
        assert (back.parent, back.truncation_depth) == (want.parent, 3)

    def test_gen_tree_spec_form(self, tmp_path, capsys):
        path = str(tmp_path / "r.txt")
        code, out, _ = run(capsys, "gen-tree", "--tree", "regular:d=4,L=3",
                           "--output", path)
        assert code == 0 and "vertices=53" in out


class TestOptionTable:
    OLD_ONLY = ("family", "b", "d", "L")  # gen-tree's options before --tree specs

    @staticmethod
    def accepts(sub, name):
        value = "csv" if name == "format" else "1"
        try:
            cli._build_parser().parse_args([sub, f"--{name}", value])
        except SystemExit:
            return False
        return True

    def test_each_subcommand_accepts_exactly_its_options(self, capsys):
        total = 0
        for sub, cmd in cli.COMMANDS.items():
            accepted = {name for name in (*cli.TYPES, *self.OLD_ONLY)
                        if self.accepts(sub, name)}
            assert accepted == set(cmd.options), sub
            total += len(accepted)
        capsys.readouterr()
        assert total == 70
        assert set(cli.TYPES) == {n for c in cli.COMMANDS.values() for n in c.options}

    def test_alias_takes_the_same_options(self, capsys):
        assert self.accepts("psi", "edge-depth")
        assert not self.accepts("psi", "depth")
        capsys.readouterr()

    def test_undeclared_flag_exits_2_naming_it(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["gambler", "--mu", "2,2,2", "--start", "1", "--tree", "x"])
        assert e.value.code == 2
        assert "--tree" in capsys.readouterr().err

    def test_readme_option_rules_match_the_table(self):
        """The README lists as count options the TYPES entries converted
        by count, as float options those converted by finite or margin,
        and as at least 0 those converted by margin."""
        readme = " ".join((Path(__file__).parents[1] / "README.md").read_text().split())

        def listed(lead):
            body = re.search(re.escape(lead) + r" \(([^)]*)\)", readme).group(1)
            return set(re.findall(r"`--([a-z-]+)`", body))

        def typed(*convs):
            return {name for name, conv in cli.TYPES.items() if conv in convs}

        assert listed("Every integer option that counts or bounds something") == \
            typed(cli.count)
        assert listed("Every float option") == typed(cli.finite, cli.margin)
        assert set(re.findall(r"`--([a-z-]+)` at least 0", readme)) == typed(cli.margin)

    def test_get_of_undeclared_option_is_a_bug(self):
        run = cli.Run("gambler", {}, {"tree": "path:L=3"})
        with pytest.raises(KeyError, match="tree"):
            run.get("tree")


class TestUsage:
    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as e:
            main(["frobnicate"])
        assert e.value.code == 2

    def test_no_subcommand_prints_help(self, capsys):
        code, out, _ = run(capsys)
        assert code == 2
        for name in ("gen-tree", "compute-psi", "simulate", "percolate",
                     "estimate-br", "estimate-rt", "flow-check", "phase-scan",
                     "gambler", "concentration"):
            assert name in out

    def test_oversize_tree_exits_2_before_it_is_built(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "simulate", "--tree", "regular:d=3,L=25",
                             "--env", "det:mu=1")
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert "3145726 vertices by depth 20, over the 2000000 vertex cap" in err

    def test_missing_required_option(self, capsys):
        code, _, err = run(capsys, "flow-check", "--tree", "path:L=8",
                           "--env", "det:mu=1")
        assert code == 2 and "--gamma" in err

    def test_runtime_error_propagates(self, monkeypatch):
        def broken(r):
            raise RuntimeError("bug")

        monkeypatch.setitem(cli.COMMANDS, "gambler",
                            cli.COMMANDS["gambler"]._replace(run=broken))
        with pytest.raises(RuntimeError, match="bug"):
            main(["gambler", "--mu", "2,2", "--start", "1"])

    def test_small_trial_count_is_usage_error(self, capsys):
        code, _, err = run(capsys, "percolate", "--tree", "path:L=3",
                           "--env", "det:mu=1", "--depth", "2",
                           "--trials", "50")
        assert code == 2 and "100" in err

    @pytest.mark.parametrize("mu,exact", [
        pytest.param("1e400,1", Fraction(10**400, 10**400 + 1), id="overflow"),
        pytest.param("1e-400,1", Fraction(1, 10**400 + 1), id="underflow"),
    ])
    def test_gambler_bias_without_a_float_is_usage_error(self, capsys, mu, exact):
        """The exact chain takes any positive bias; the Monte Carlo needs a
        positive finite float, and 1e400 and 1e-400 have none."""
        code, out, err = run(capsys, "gambler", "--mu", mu, "--start", "1",
                             "--trials", "100")
        assert code == 2 and out == ""
        assert f"--mu entry 1 ({mu.split(',')[0]}) has no positive finite float" in err
        code, out, _ = run(capsys, "gambler", "--mu", mu, "--start", "1")
        assert code == 0 and out.splitlines() == [str(exact)]

    def test_percolate_depth_and_depths_together_is_usage_error(self, capsys):
        code, out, err = run(capsys, "percolate", "--tree", "path:L=3",
                             "--env", "det:mu=1", "--depth", "2", "--depths", "3")
        assert code == 2 and out == ""
        assert "--depth" in err and "--depths" in err

    SIMULATE = ["simulate", "--tree", "path:L=4", "--env", "det:mu=1"]
    CONCENTRATION = ["concentration", "--tree", "path:L=16", "--env",
                     "alpha:two=0,3,0.5", "--depths", "8", "--epsilon", "0.5"]
    PHASE_SCAN = ["phase-scan", "--tree", "poly:b=1.2,L=16", "--env",
                  "alpha:point=1", "--escape-depth", "8"]
    COMPUTE_PSI = ["compute-psi", "--tree", "path:L=4", "--env", "det:mu=1"]

    # every integer option that counts, bounds a depth or a step budget
    @pytest.mark.parametrize("argv,option,value", [
        pytest.param(SIMULATE, "trials", "0", id="simulate-0"),
        pytest.param(SIMULATE, "trials", "-3", id="simulate--3"),
        pytest.param(CONCENTRATION, "trials", "0", id="concentration-0"),
        pytest.param(CONCENTRATION, "trials", "-3", id="concentration--3"),
        pytest.param(SIMULATE, "max-steps", "-1", id="simulate-max-steps--1"),
        pytest.param(SIMULATE, "depth", "0", id="simulate-depth-0"),
        pytest.param(SIMULATE, "returns", "0", id="simulate-returns-0"),
        pytest.param(PHASE_SCAN, "horizon", "0", id="phase-scan-horizon-0"),
        pytest.param(PHASE_SCAN, "escape-depth", "0", id="phase-scan-escape-depth-0"),
        pytest.param(COMPUTE_PSI, "edge-depth", "0", id="compute-psi-edge-depth-0"),
    ])
    def test_trials_below_one_names_the_flag(self, capsys, argv, option, value):
        with pytest.raises(SystemExit) as e:
            main([*argv, f"--{option}", value])
        assert e.value.code == 2
        assert (f"--{option}: must be at least 1, got {value}"
                in capsys.readouterr().err)

    ESTIMATE_BR = ["estimate-br", "--tree", "poly:b=1.2,L=16"]
    ESTIMATE_RT = ["estimate-rt", "--tree", "poly:b=1.2,L=16", "--env", "det:mu=1"]
    FLOW_CHECK = ["flow-check", "--tree", "poly:b=3,L=16", "--env", "det:mu=1"]

    # every float option: finite, and a margin is not negative
    BAD_FLOATS = [
        pytest.param(PHASE_SCAN, "epsilon", "-1", "must be at least 0", id="phase-scan-epsilon--1"),
        pytest.param(PHASE_SCAN, "epsilon", "nan", "must be finite", id="phase-scan-epsilon-nan"),
        pytest.param(CONCENTRATION, "epsilon", "inf", "must be finite", id="concentration-epsilon-inf"),
        pytest.param(ESTIMATE_BR, "threshold", "nan", "must be finite", id="estimate-br-threshold-nan"),
        pytest.param(ESTIMATE_RT, "threshold", "-inf", "must be finite", id="estimate-rt-threshold--inf"),
        pytest.param(FLOW_CHECK, "gamma", "nan", "must be finite", id="flow-check-gamma-nan"),
        pytest.param(FLOW_CHECK, "gamma", "inf", "must be finite", id="flow-check-gamma-inf"),
        pytest.param(FLOW_CHECK, "gamma", "-inf", "must be finite", id="flow-check-gamma--inf"),
        pytest.param(PHASE_SCAN, "epsilon", "-1e-3", "must be at least 0", id="phase-scan-epsilon--1e-3"),
    ]

    @pytest.mark.parametrize("argv,option,value,message", BAD_FLOATS)
    def test_bad_float_names_the_flag(self, capsys, argv, option, value, message):
        with pytest.raises(SystemExit) as e:
            main([*argv, f"--{option}={value}"])
        assert e.value.code == 2
        assert f"--{option}: {message}, got {value}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,option,value,message", BAD_FLOATS)
    def test_bad_float_as_next_token_names_the_flag(self, capsys, argv, option, value,
                                                    message):
        with pytest.raises(SystemExit) as e:
            main([*argv, f"--{option}", value])
        assert e.value.code == 2
        assert f"--{option}: {message}, got {value}" in capsys.readouterr().err

    def test_negative_float_as_next_token_is_a_value(self, capsys):
        code, out, err = run(capsys, *self.ESTIMATE_RT, "--threshold", "-1e-3")
        assert code == 0 and err == ""
        assert out == run(capsys, *self.ESTIMATE_RT, "--threshold=-1e-3")[1]
        # reaches gamma's own check, past argparse
        code, _, err = run(capsys, *self.FLOW_CHECK, "--gamma", "-1e-3")
        assert code == 2 and "gamma must exceed 1" in err

    def test_float_option_followed_by_an_option_has_no_value(self, capsys):
        with pytest.raises(SystemExit) as e:
            main([*self.FLOW_CHECK, "--gamma", "--depths", "4"])
        assert e.value.code == 2
        assert "--gamma: expected one argument" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value,message,argv", [
        pytest.param("epsilon", "-1", "must be at least 0", PHASE_SCAN, id="epsilon"),
        pytest.param("estimate-br.threshold", "nan", "must be finite", ESTIMATE_BR,
                     id="estimate-br.threshold"),
        pytest.param("gamma", "nan", "must be finite", FLOW_CHECK, id="gamma"),
    ])
    def test_bad_float_in_config_names_the_key(self, tmp_path, capsys, key, value,
                                               message, argv):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(f"{key} = {value}\n")
        code, out, err = run(capsys, "--config", str(cfg), *argv)
        assert code == 2 and out == ""
        assert f"config key {key!r}: {message}, got {value}" in err

    @pytest.mark.parametrize("key,argv", [
        pytest.param("trials", SIMULATE, id="trials"),
        pytest.param("simulate.trials", SIMULATE, id="simulate.trials"),
        pytest.param("max-steps", SIMULATE, id="max-steps"),
        pytest.param("simulate.depth", SIMULATE, id="simulate.depth"),
        pytest.param("returns", SIMULATE, id="returns"),
        pytest.param("phase-scan.horizon", PHASE_SCAN, id="phase-scan.horizon"),
        pytest.param("edge-depth", COMPUTE_PSI, id="edge-depth"),
    ])
    def test_trials_below_one_in_config_names_the_key(self, tmp_path, capsys,
                                                      key, argv):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(f"{key} = 0\n")
        code, out, err = run(capsys, "--config", str(cfg), *argv)
        assert code == 2 and out == ""
        assert f"config key {key!r}: must be at least 1, got 0" in err

    @pytest.mark.parametrize("argv,grid,message", [
        pytest.param(ESTIMATE_BR + ["--depths", "8,16"], "0.5,nan,inf",
                     "every gamma must be finite and at least 0",
                     id="0.5,nan,inf"),
        pytest.param(ESTIMATE_BR + ["--depths", "8,16"], "0:1e308:1e-300", "holds inf points",
                     id="0:1e308:1e-300"),
        pytest.param(["estimate-br", "--tree", "path:L=200"], "-200,1",
                     "every gamma must be finite and at least 0", id="br-negative"),
        pytest.param(["estimate-rt", "--tree", "poly:b=1.5,L=8", "--env", "alpha:point=1"],
                     "-300,1", "every gamma must be finite and at least 0", id="rt-negative"),
        pytest.param(ESTIMATE_BR + ["--depths", "8,16"], "0:1:1e-9",
                     "holds 1e+09 points; a range may hold at most 10,000", id="range-too-long"),
        pytest.param(ESTIMATE_BR + ["--depths", "8,16"],
                     "0.00000000001:0.00000000005:0.00000000001",
                     "step 1e-11 is too small for entries rounded to 10 decimals to stay distinct",
                     id="step-below-rounding"),
        pytest.param(ESTIMATE_BR + ["--depths", "8,16"], "0:1e-12:1e-13",
                     "step 1e-13 is too small for entries rounded to 10 decimals to stay distinct",
                     id="step-far-below-rounding"),
    ])
    def test_non_finite_gamma_grid_is_usage_error(self, capsys, argv, grid, message):
        code, out, err = run(capsys, *argv, f"--gamma-grid={grid}")
        assert code == 2 and out == ""
        assert f"gamma grid {grid!r}" in err and message in err

    @pytest.mark.parametrize("argv,path", [
        pytest.param(["compute-psi", "--tree", "path:L=4", "--env", "det:mu=1",
                      "--edge-depth", "2", "--out-dir"], "sub", id="out-dir"),
        pytest.param(["gen-tree", "--tree", "path:L=4", "--output"], "tree.txt",
                     id="gen-tree-output"),
    ])
    def test_unwritable_output_is_usage_error_naming_it(self, tmp_path, capsys,
                                                        argv, path):
        blocker = tmp_path / "F"
        blocker.write_text("a regular file, not a directory\n")
        target = str(blocker / path)
        code, out, err = run(capsys, *argv, target)
        assert code == 2 and out == ""
        assert f"cannot write {target}" in err

    def test_config_format_is_checked_before_the_run(self, tmp_path, capsys,
                                                     monkeypatch):
        calls = []
        real = cli.edge_connection_probability_mc
        monkeypatch.setattr(cli, "edge_connection_probability_mc",
                            lambda *a: calls.append(a) or real(*a))
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("format = xml\n")
        never = tmp_path / "never"
        code, out, err = run(capsys, "--config", str(cfg), "percolate",
                             "--tree", "path:L=3", "--env", "det:mu=1",
                             "--depths", "1,2,3", "--trials", "100",
                             "--out-dir", str(never))
        assert code == 2 and out == ""
        assert "unknown format 'xml'" in err
        assert calls == []
        assert not never.exists()

    @pytest.mark.parametrize("argv", [
        pytest.param(["estimate-br", "--tree", "path:L=16"], id="estimate-br"),
        pytest.param(["flow-check", "--tree", "path:L=16", "--env", "det:mu=1",
                      "--gamma", "1.5"], id="flow-check"),
    ])
    def test_empty_depth_list_is_usage_error(self, tmp_path, capsys, argv):
        """An empty --depths, or a config `depths =`, is no list: exit 2,
        not the default depths."""
        code, out, err = run(capsys, *argv, "--depths", "")
        assert code == 2 and out == ""
        assert "--depths: bad depth list ''" in err
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("depths =\n")
        code, out, err = run(capsys, "--config", str(cfg), *argv)
        assert code == 2 and out == ""
        assert "config key 'depths': bad depth list ''" in err

    def test_bad_depth_list_is_refused_before_the_tree_is_built(self, capsys,
                                                               monkeypatch):
        calls = []
        real = cli.parse_tree_spec
        monkeypatch.setattr(cli, "parse_tree_spec", lambda spec: calls.append(spec) or real(spec))
        code, out, err = run(capsys, "percolate", "--tree", "path:L=16", "--env",
                             "det:mu=1", "--depths", "x")
        assert code == 2 and out == ""
        assert "--depths: bad depth list 'x'" in err
        assert calls == []

    def test_level_sizes_beyond_the_float_range(self, capsys):
        """3 * 2**1099 vertices at depth 1100: no float holds the count."""
        code, out, err = run(capsys, "estimate-br", "--tree", "regular:d=3,L=1100",
                             "--depths", "1100")
        assert code == 0 and err == ""
        assert out == "br estimate: 3.0 (threshold 0.1, deepest depth 1100)\n"


class TestTables:
    def test_estimate_br_path_family(self, tmp_path, capsys):
        out = tmp_path / "br"
        code, stdout, _ = run(capsys, "estimate-br", "--tree", "path:L=16",
                              "--gamma-grid", "0.2:1.2:0.2",
                              "--out-dir", str(out))
        assert code == 0 and "br estimate:" in stdout
        doc = json.loads((out / "estimate-br.json").read_text())
        est = doc["statistics"]["estimate"]
        assert est is not None and est <= 0.9  # path index is 0; finite-L slack
        rows = (out / "estimate-br.csv").read_text().splitlines()
        assert rows[0] == "gamma,depth,min_cutset_sum"
        assert len(rows) == 1 + 6 * 2  # six gammas, depths 8 and 16

    def test_estimate_rt_shifts_down_under_excitement(self, capsys):
        _, plain, _ = run(capsys, "estimate-rt", "--tree", "poly:b=1.2,L=16",
                          "--env", "det:lambda=1,mu=1",
                          "--gamma-grid", "0.25:2.0:0.25")
        _, excited, _ = run(capsys, "estimate-rt", "--tree", "poly:b=1.2,L=16",
                            "--env", "alpha:point=1",
                            "--gamma-grid", "0.25:2.0:0.25")
        grab = lambda s: float(s.split("rt estimate: ")[1].split()[0])
        assert grab(excited) < grab(plain)

    def test_flow_check_table(self, tmp_path, capsys):
        out = tmp_path / "flow"
        code, stdout, _ = run(capsys, "flow-check", "--tree", "poly:b=3,L=16",
                              "--env", "det:lambda=1,mu=1", "--gamma", "1.5",
                              "--depths", "8,16", "--out-dir", str(out))
        assert code == 0 and "degenerate: False" in stdout
        doc = json.loads((out / "flow-check.json").read_text())
        assert doc["statistics"]["degenerate"] is False
        assert len(doc["statistics"]["energies"]) == 2

    def test_estimate_rt_builds_one_tree(self, capsys, monkeypatch):
        """Every depth of the default 8, 16, 32 cuts the one L = 32 tree."""
        built = []
        grow = tree_module._grow
        monkeypatch.setattr(tree_module, "_grow",
                            lambda sizes, cap: built.append(1) or grow(sizes, cap))
        code, out, _ = run(capsys, "estimate-rt", "--tree", "poly:b=1.5,L=32", "--env",
                           "alpha:two=0,3,0.5", "--seed", "3")
        assert code == 0 and out.startswith("rt estimate: ")
        assert len(built) == 1

    @pytest.mark.parametrize("sub,argv", [
        ("estimate-br", []),
        ("estimate-rt", ["--env", "alpha:two=0,3,0.5", "--seed", "4"]),
    ])
    def test_default_grid_and_depths(self, tmp_path, capsys, sub, argv):
        """Without --gamma-grid and --depths a table reads the shared
        defaults, byte for byte the table of the grid 0.1:3.0:0.1 at the
        depths 8, 16, 32."""
        base = [sub, "--tree", "poly:b=1.5,L=40", *argv, "--format", "csv"]
        assert run(capsys, *base, "--out-dir", str(tmp_path / "a"))[0] == 0
        assert run(capsys, *base, "--gamma-grid", "0.1:3.0:0.1", "--depths", "8,16,32",
                   "--out-dir", str(tmp_path / "b"))[0] == 0
        a, b = ((tmp_path / d / f"{sub}.csv").read_bytes() for d in "ab")
        assert a == b and len(a.splitlines()) == 1 + 30 * 3
