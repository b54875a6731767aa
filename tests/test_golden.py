"""Golden sha256 pins of what the program prints, writes and tabulates.

Each pin is the digest of one artifact: the stdout and written files of a
README recipe run exactly as the README writes it (the JSON timestamp
removed), the potential, parent-step and conductance tables as raw float64
bytes on the trees and laws of test_bias_tables.py, the rows of the three
cutset and flow tables on fixed inputs, and what the walk kernels and the
percolation sampler return on the benchmark's trees and laws under fixed
seeds. A change that moves any number the program prints, tabulates or
samples moves a pin; a change that does so on purpose records the pins
again and says which moved and why.
"""

import hashlib
import re
from pathlib import Path

import numpy as np
import pytest

import goerw.cli as cli
from goerw.analysis import flow_energy_check
from goerw.environment import _conductance, _potentials, _transition_table, rt_estimate
from goerw.percolation import sample_ruin_percolation
from goerw.tree import (DEFAULT_GAMMAS, branching_ruin_estimate, default_depths,
                        path_family, polynomial_family, regular_family)
from goerw.walk import (ClockTable, StopRule, derive_seed, derive_seeds, extension_reach,
                        simulate, simulate_extension, simulate_rubin)

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
    "branching_ruin_exact_sizes": "2035f5c27df857d56f95053701f4d07c4ec053b8d4e91749cea1e7253f14632b",
    "flow_energy_check": "f21ac38d338668e00cd79b97721bb3135c9ca481dc41be1e27bcc2107323f8b7",
}

WALK_PINS = {
    "simulate": "bad886b6741e2b1b955563d6d4fff0595830379f70b6ab9f23137335deab3e5d",
    "extension_reach": "b784b127f2edc38b3f7409edc74107a549d53723b31ddec0bdc3baa1338aabde",
    "sample_ruin_percolation": "96aea18001c8072b58a30a0690d4c2fd84f1d11df7783a4dc4cba0f93e59a720",
    "simulate_rubin": "10a7c5a3c4e7215c17c08bc73ae1e5d965fcd7906e87619b028b7ff483047480",
    "simulate_extension": "999f53dee8c3bb8fd17a231a8a34cb24c28e1332fe22447df1a611ea9e012426",
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
    if kind == "branching_ruin_exact_sizes":
        # poly-100 sizes past the float range: 440 products are +inf, and at
        # gamma 100.5 the minima at depths 1300 and 1500 are exact integer
        # products rounded once (tree._level_product's int division)
        table = branching_ruin_estimate(polynomial_family(100.0), [0.5, 100.0, 100.5],
                                        [1024, 1300, 1500, 1700])
        return [table.rows(), table.estimate]
    tree = cli.parse_tree_spec("poly:b=1.5,L=64")
    env = cli.build_environment(tree, "alpha:two=0,3,0.5", 5)
    return [flow_energy_check(env, gamma, default_depths(64)).rows
            for gamma in (1.5, 2.0, 3.0)]


@pytest.mark.parametrize("kind", ROW_PINS)
def test_table_rows(kind):
    # repr of a float is the shortest text that reads back to it
    assert digest([repr(rows(kind)).encode()]) == ROW_PINS[kind]


def env_of(tree_spec: str, law: str, seed: int):
    return cli.build_environment(cli.parse_tree_spec(tree_spec), law, seed)


def walk_bytes(kind: str):
    if kind == "simulate":
        # phase-annealed's tree and law, each stop reason met, and a law
        # with mu != 1, whose later visits read their own list
        env = env_of("poly:b=1.2,L=64", "alpha:two=0,3,0.5", 3)
        stops = [StopRule(100_000, 48, 10), StopRule(3000, 48, 2), StopRule(1000, 20, 10)]
        runs = [(env, stop) for stop in stops]
        runs.append((env_of("regular:d=3,L=5", "det:lambda=2.5,mu=0.3", 0), StopRule(500, 5, 3)))
        for env, stop in runs:
            for t in range(100):
                w = simulate(env, stop, derive_seed(5, t))
                yield repr((w.steps, w.root_returns, w.max_depth, w.stop_reason)).encode()
    elif kind == "extension_reach":
        # edge-mc's tree and law toward every depth, and cluster's tree and
        # law toward its last leaf under a cap that binds
        env = env_of("regular:d=3,L=5", "alpha:point=1", 0)
        runs = [(env, env.tree.leftmost_at_depth(d), 10_000_000) for d in range(1, 6)]
        env = env_of("regular:d=3,L=7", "alpha:two=0,3,0.5", 1)
        runs.append((env, env.tree.n_vertices - 1, 20))
        for env, target, cap in runs:
            yield from (a.tobytes() for a in extension_reach(env, target, derive_seeds(7, 2000), cap))
    elif kind == "sample_ruin_percolation":
        for s in range(3):
            env = env_of("regular:d=3,L=7", "alpha:two=0,3,0.5", s)
            for i in range(3):
                sample = sample_ruin_percolation(env, 40, i)
                yield bytes(sample.open_edges)
                yield repr((sample.valid, sample.runs, sample.steps)).encode()
    else:
        # cluster's tree and law, and a law with mu != 1 that a later visit
        # divides by; the extension runs toward a deep vertex of each subtree
        for law in ("alpha:two=0,3,0.5", "det:lambda=2.5,mu=0.3"):
            env = env_of("regular:d=3,L=7", law, 2)
            targets = [env.tree.leftmost_at_depth(7), env.tree.n_vertices - 1, 200]
            for i in range(20):
                table = ClockTable(derive_seed(9, i))
                if kind == "simulate_rubin":
                    yield repr(simulate_rubin(env, StopRule(300), table).positions).encode()
                else:
                    for target in targets:
                        w = simulate_extension(env, table, target, StopRule(300))
                        yield repr(w.positions).encode()


@pytest.mark.parametrize("kind", WALK_PINS)
def test_walk_kernels(kind):
    assert digest(walk_bytes(kind)) == WALK_PINS[kind]
