"""The one cut rule (tree._cut_tree): every command that reads depths builds
the breadth-first prefix of its tree through the deepest depth it reads, and
prints and writes what the whole depth-L tree gives, bit for bit."""

import json
import random
import shlex
import time

import pytest

import goerw.cli as cli
import goerw.tree as tree_module
from goerw.cli import main
from goerw.tree import _cut_depths, build_polynomial

FAMILIES = ["regular:d=3,L=7", "poly:b=1.5,L=20", "path:L=12"]
FILE_SPEC = "poly:b=1.2,L=10"  # written by gen-tree, read back as file:


@pytest.fixture(scope="module")
def tree_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("tree") / "t.txt"
    assert main(["gen-tree", "--tree", FILE_SPEC, "--output", str(path)]) == 0
    return path


def _argvs(L: int, seed: int) -> dict[str, str]:
    """One command line per depth-reading command, its depths drawn from seed."""
    rng = random.Random(seed)
    d = rng.randint(2, L)
    two = ",".join(map(str, sorted(rng.sample(range(1, L + 1), 2))))
    return {
        "compute-psi": f"compute-psi --env det:lambda=2,mu=3 --edge-depth {d}",
        "compute-psi-alpha": f"compute-psi --env alpha:two=0,3,0.5 --edge-depth {d}",
        "simulate": f"simulate --env alpha:two=0,3,0.5 --depth {d} --trials 20 "
                    "--max-steps 3000 --returns 3",
        "percolate": f"percolate --env alpha:two=0,3,0.5 --depths {two} --trials 200",
        "flow-check": f"flow-check --env alpha:two=0,3,0.5 --gamma 1.5 --depths {two}",
        "flow-check-default": "flow-check --env det:lambda=2,mu=1 --gamma 1.5",
        "concentration": f"concentration --env alpha:two=0,3,0.5 --depths {two} "
                         "--epsilon 0.5 --trials 20",
    }


def _outputs(capsys, out_dir, argv: list[str]) -> tuple[str, dict[str, object]]:
    """Stdout (its file paths dropped) and every written file, each JSON
    without its timestamp."""
    code = main([*argv, "--out-dir", str(out_dir)])
    out = capsys.readouterr()
    assert (code, out.err) == (0, "")
    files = {}
    for p in sorted(out_dir.iterdir()):
        text = p.read_text()
        if p.suffix == ".json":
            text = json.loads(text)
            text.pop("timestamp")
        files[p.name] = text
    lines = [ln for ln in out.out.splitlines() if not ln.startswith("wrote ")]
    return "\n".join(lines), files


def _whole_tree(monkeypatch, built: list[int]) -> None:
    """The rule with the cut taken out: the depths still checked against L,
    the whole depth-L tree built, and each build depth recorded."""
    def whole(build, L, depths):
        if depths is not None:
            _cut_depths(depths, L)
        built.append(L)
        return build(L)

    monkeypatch.setattr(cli, "_cut_tree", whole)


@pytest.mark.parametrize("seed", [1, 7, 30])
@pytest.mark.parametrize("spec", [*FAMILIES, "file"])
@pytest.mark.parametrize("name", list(_argvs(8, 0)))
def test_each_command_reads_the_whole_trees_values(tmp_path, capsys, monkeypatch, tree_file,
                                                   seed, spec, name):
    """Stdout and written files of each depth-reading command on the cut tree are
    == those of the same library calls on the whole depth-L tree."""
    spec = f"file:{tree_file}" if spec == "file" else spec
    L = cli._tree_source(spec)[1]
    argv = [*shlex.split(_argvs(L, seed)[name]), "--tree", spec, "--seed", str(seed)]
    cut = _outputs(capsys, tmp_path, list(argv))  # one --out-dir: the JSON echoes it
    built: list[int] = []
    _whole_tree(monkeypatch, built)
    whole = _outputs(capsys, tmp_path, list(argv))
    assert built == [L]
    assert cut == whole


def _recorded(monkeypatch) -> list[int]:
    """The depth of every tree a spec is asked to build: a family's build or
    a tree file's prefix."""
    built: list[int] = []
    real = cli._tree_source

    def source(spec):
        build, L = real(spec)
        return (lambda D: built.append(D) or build(D)), L

    monkeypatch.setattr(cli, "_tree_source", source)
    return built


@pytest.mark.parametrize("argv,deepest", [
    ("compute-psi --tree regular:d=3,L=9 --env det:mu=2 --edge-depth 4", 4),
    ("simulate --tree regular:d=3,L=9 --env det:mu=1 --depth 5 --trials 3", 5),
    ("percolate --tree poly:b=1.5,L=20 --env alpha:point=1 --depths 6,3 --trials 100", 6),
    ("flow-check --tree poly:b=1.5,L=20 --env alpha:point=1 --gamma 1.5 --depths 5,9", 9),
    ("flow-check --tree poly:b=1.5,L=20 --env alpha:point=1 --gamma 1.5", 16),
    ("flow-check --tree poly:b=1.5,L=6 --env alpha:point=1 --gamma 1.5", 6),
    ("concentration --tree path:L=30 --env alpha:two=0,3,0.5 --depths 4,11 --epsilon 0.5 "
     "--trials 3", 11),
    ("gen-tree --tree regular:d=3,L=5 --output {tmp}/t.txt", 5),
    ("simulate --tree regular:d=3,L=5 --env det:mu=1 --trials 3 --max-steps 50", 5),
    ("simulate --tree file:{tmp}/t.txt --env det:mu=1 --depth 2 --trials 3", 2),
    ("compute-psi --tree file:{tmp}/t.txt --env det:mu=1 --edge-depth 3", 3),
    ("percolate --tree file:{tmp}/t.txt --env det:mu=1 --depths 1 --trials 100", 1),
    ("simulate --tree file:{tmp}/t.txt --env det:mu=1 --trials 3 --max-steps 50", 5),
], ids=["compute-psi", "simulate", "percolate", "flow-check", "flow-check-default",
        "flow-check-default-below-8", "concentration", "gen-tree", "simulate-whole",
        "simulate-file", "compute-psi-file", "percolate-file", "simulate-file-whole"])
def test_each_command_builds_the_deepest_depth_it_reads(tmp_path, capsys, monkeypatch, argv,
                                                        deepest):
    """A depth-reading command builds its tree, family or file prefix, once, at
    the deepest depth it reads (flow-check's defaults read off the spec's L);
    gen-tree and simulate without --depth build the whole tree."""
    assert main(["gen-tree", "--tree", "regular:d=3,L=5", "--output", f"{tmp_path}/t.txt"]) == 0
    built = _recorded(monkeypatch)
    assert main(shlex.split(argv.format(tmp=tmp_path))) == 0
    capsys.readouterr()
    assert built == [deepest]


def test_phase_scan_builds_the_escape_depth(capsys, monkeypatch):
    built = []
    monkeypatch.setattr(tree_module, "build_polynomial",
                        lambda b, L: built.append(L) or build_polynomial(b, L))
    assert main(shlex.split("phase-scan --tree poly:b=1.2,L=40 --env alpha:point=1 "
                            "--escape-depth 12 --trials 100")) == 0
    capsys.readouterr()
    assert built == [12]


def test_a_cut_under_the_vertex_cap_runs(capsys):
    """regular:d=3,L=25 is over the vertex cap, its depth-10 cut is not."""
    start = time.perf_counter()
    code = main(shlex.split("simulate --tree regular:d=3,L=25 --env det:mu=1 --depth 10 "
                            "--trials 10"))
    out = capsys.readouterr()
    assert time.perf_counter() - start < 1.0
    assert (code, out.err) == (0, "")
    assert out.out.startswith("trials=10 escapes=10 ")


def test_an_overflow_below_the_edge_is_not_read(capsys):
    """R overflows at vertex 3 of path:L=8 under mu = 1e200, below the depth-2
    edge, which the cut at depth 2 never builds."""
    code = main(shlex.split("psi --tree path:L=8 --env det:mu=1e200 --edge-depth 2"))
    out = capsys.readouterr()
    assert (code, out.err) == (0, "")
    assert out.out == "edge 2 at depth 2\npsi = 0.5\nPsi = 0.5\nc = 1.0\n"
