"""Golden sha256 pins of what the program prints, writes and tabulates.

Each pin is the digest of one artifact: the stdout and written files of a
README recipe run exactly as the README writes it (the JSON timestamp
removed), the potential, parent-step and conductance tables as raw float64
bytes on the trees and laws of test_bias_tables.py, and the rows of the
three cutset and flow tables on fixed inputs. A change that moves any
number the program prints or tabulates moves a pin; a change that does so
on purpose records the pins again and says which moved and why.
"""

import hashlib
import re
from pathlib import Path

import numpy as np
import pytest

import goerw.cli as cli
from goerw.analysis import flow_energy_check
from goerw.environment import _conductance, _potentials, _transition_table, rt_estimate
from goerw.tree import (DEFAULT_GAMMAS, branching_ruin_estimate, default_depths,
                        path_family, polynomial_family, regular_family)

README = Path(__file__).resolve().parent.parent / "README.md"

RECIPE_INI = """\
# recipe.ini
tree = poly:b=1.2,L=64
env = alpha:point=1
seed = 11
phase-scan.escape-depth = 48
"""

# each README recipe as the README writes it; "simulate" reads the tree
# file that "gen-tree" writes, so it runs that first
RECIPES = {
    "psi": ["psi --tree poly:b=1.5,L=64 --env alpha:point=1 --edge-depth 32"],
    "gambler": ["gambler --mu 2,2,2 --start 1"],
    "percolate": ["percolate --tree regular:d=3,L=5 --env alpha:point=1 "
                  "--depths 1,2,3,4,5 --trials 100000 --seed 7 --out-dir out/"],
    "phase-scan": ["phase-scan --tree poly:b=1.2,L=64 --env alpha:point=1 "
                   "--escape-depth 48 --trials 2000 --seed 11 --out-dir out/"],
    "gen-tree": ["gen-tree --tree poly:b=1.2,L=6 --output tree.txt"],
    "simulate": ["gen-tree --tree poly:b=1.2,L=6 --output tree.txt",
                 "simulate --tree file:tree.txt --env det:lambda=2,mu=1 --trials 20 "
                 "--depth 6 --returns 1"],
    "config": ["--config recipe.ini phase-scan"],
}

RECIPE_PINS = {
    "psi": "c986db5a09922e91e62d64d8755d2d92a26d2c3dcd94cca681c46c1609cff3e1",
    "gambler": "f081806a95c5dbc12e03330ea2deda7ce0fc1489702901142b08b72285a002ea",
    "percolate": "c36da563a098857b426fdf01e0c398c013ffe354174446669d22f8360d90d7ea",
    "phase-scan": "d572c5a86dbb793030bd55790b546da8873f1c82567995a1a527cf2a56bd4208",
    "gen-tree": "572cc226c0270dab459edf85d4210c3264a6e636924af3b3c464e56f972fbfd3",
    "simulate": "bf0696b591e277d9125622c7882281e3885f12126f3083935db65b8805bcd3bd",
    "config": "ab24222d5f4a6b51aefa4c4435b0cdb64b45b548fd0a63753e475a5dd57dedfb",
}

# the trees and laws of test_bias_tables.test_every_cli_spec_kind_matches_loop
TABLE_TREES = ["path:L=12", "regular:d=3,L=5", "poly:b=1.2,L=64"]
TABLE_LAWS = ["det:lambda=2.5,mu=0.3", "det:mu=2", "alpha:point=1", "alpha:point=0",
              "alpha:two=0,3,0.5", "alpha:support=0,0.25,7;probs=0.2,0.3,0.5"]

TABLE_PINS = {
    "potentials": "2aa840aa2d86f5a774bc17fe1c83099ce14d1f1071ff6253eb0c0a414a1763c7",
    "transition": "83e4da70ef00ca58d7f09602514c239aa82e627333f163cb728e2a2ced068c82",
    "conductance": "4729456a466477bfd5aa7264093e01e9b105b094cff5da6cc28cd58099518571",
}

ROW_PINS = {
    "rt_estimate": "486d68cd38e1cc7352ea44d296b49290cd9783aa0cb393638ffcd2b121526f27",
    "branching_ruin_estimate": "145057fbb7697a72c4015ef19a229584979452cf35507d0c4284196570e5b016",
    "flow_energy_check": "f21ac38d338668e00cd79b97721bb3135c9ca481dc41be1e27bcc2107323f8b7",
}


def digest(parts) -> str:
    """sha256 of the parts, each length-prefixed so no two splits collide."""
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


def readme_commands() -> set[str]:
    """The goerw command lines of the README, continuation lines joined and
    trailing comments dropped."""
    text = re.sub(r"\\\n\s*", "", README.read_text(encoding="utf-8"))
    return {" ".join(line.split("#", 1)[0].split()[1:])
            for line in text.splitlines() if line.startswith("goerw ")}


def test_recipes_are_the_readme_ones():
    assert {line for lines in RECIPES.values() for line in lines} <= readme_commands()
    assert RECIPE_INI in README.read_text(encoding="utf-8")


@pytest.mark.parametrize("name", RECIPES)
def test_readme_recipe(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    ini = tmp_path / "recipe.ini"
    ini.write_text(RECIPE_INI, encoding="utf-8")
    for line in RECIPES[name]:
        capsys.readouterr()
        assert cli.main(line.split()) == 0
    out, err = capsys.readouterr()
    assert err == ""
    parts = [out.encode()]
    for path in sorted(p for p in tmp_path.rglob("*") if p.is_file() and p != ini):
        text = re.sub(r'\n  "timestamp": "[^"]*"', "", path.read_text(encoding="utf-8"))
        parts += [path.relative_to(tmp_path).as_posix().encode(), text.encode()]
    assert digest(parts) == RECIPE_PINS[name]


def table_bytes(kind: str):
    for tree_spec in TABLE_TREES:
        t = cli.parse_tree_spec(tree_spec)
        for spec in TABLE_LAWS:
            for seed in range(3):
                env = cli.build_environment(t, spec, seed)
                if kind == "potentials":
                    yield from (table.tobytes() for table in _potentials(env))
                elif kind == "transition":
                    pf, pl = _transition_table(env)
                    yield pf.tobytes()
                    yield np.array(pl, dtype=np.float64).tobytes()
                else:
                    yield _conductance(env, 0, t.n_vertices).tobytes()


@pytest.mark.parametrize("kind", TABLE_PINS)
def test_bias_and_potential_tables(kind):
    assert digest(table_bytes(kind)) == TABLE_PINS[kind]


def rows(kind: str) -> list:
    if kind == "rt_estimate":
        fam = polynomial_family(1.5)

        def pair(L):
            tree = fam.build(L)
            return tree, cli.build_environment(tree, "alpha:two=0,3,0.5", 5)

        table = rt_estimate(pair, DEFAULT_GAMMAS, default_depths(32))
        return [table.rows(), table.estimate]
    if kind == "branching_ruin_estimate":
        out = []
        for fam, L in ((path_family(), 64), (regular_family(3), 64),
                       (polynomial_family(1.2), 256), (polynomial_family(1.5), 4096)):
            table = branching_ruin_estimate(fam, DEFAULT_GAMMAS, default_depths(L))
            out += [table.rows(), table.estimate]
        return out
    tree = cli.parse_tree_spec("poly:b=1.5,L=64")
    env = cli.build_environment(tree, "alpha:two=0,3,0.5", 5)
    return [flow_energy_check(env, gamma, default_depths(64)).rows
            for gamma in (1.5, 2.0, 3.0)]


@pytest.mark.parametrize("kind", ROW_PINS)
def test_table_rows(kind):
    # repr of a float is the shortest text that reads back to it
    assert digest([repr(rows(kind)).encode()]) == ROW_PINS[kind]
