"""tools/ab_pairs.py's seed plan and summary, on canned runs: no benchmark
is run."""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tools"))
import ab_pairs  # noqa: E402

END_TO_END = [
    {"name": "wall_s", "better": "lower", "bound": 0.2},
    {"name": "ops_per_s", "better": "higher", "bound": 0.2},
]


def run(seed, side, ops, wall=None, exit=0, correct=True, failed=0):
    metrics = {"ops_per_s": {"value": ops}}
    if wall is not None:
        metrics["wall_s"] = {"value": wall}
    return {"seed": seed, "side": side, "exit": exit,
            "result": {"correct": correct, "attempted": 10, "failed": failed,
                       "metrics": metrics}}


def test_seeds_and_alternating_order():
    assert ab_pairs.parse_seeds("4401-4403") == [4401, 4402, 4403]
    assert ab_pairs.parse_seeds("7, 2-3") == [7, 2, 3]
    with pytest.raises(ValueError):
        ab_pairs.parse_seeds("1-3,2")
    assert ab_pairs.plan([1, 2]) == [(1, "parent"), (1, "change"),
                                     (2, "change"), (2, "parent")]


def test_medians_ratio_pairs_and_iqr():
    runs = [run(1, "parent", 100.0, 1.0), run(1, "change", 110.0, 0.9),
            run(2, "change", 90.0, 1.1), run(2, "parent", 100.0, 1.0),
            run(3, "parent", 120.0, 1.2), run(3, "change", 120.0, 1.2),
            run(4, "parent", 80.0, 0.8), run(4, "change", 100.0, 0.8)]
    s = ab_pairs.summarize(runs, END_TO_END)
    assert s["seeds"] == [1, 2, 3, 4]
    ops = s["metrics"]["ops_per_s"]
    assert ops["parent_runs"] == [100.0, 100.0, 120.0, 80.0]
    assert ops["parent"]["median"] == 100.0 and ops["change"]["median"] == 105.0
    assert ops["ratio"] == 1.05
    # better on seeds 1 and 4, worse on 2, tied on 3
    assert (ops["change_better_pairs"], ops["tied_pairs"]) == (2, 1)
    assert ops["parent_iqr"] == ops["parent"]["q3"] - ops["parent"]["q1"] == 10.0
    assert ops["worse_than_bound"] is False
    wall = s["metrics"]["wall_s"]
    # lower is better: seed 1 is better, seed 2 worse, seeds 3 and 4 tied
    assert (wall["change_better_pairs"], wall["tied_pairs"]) == (1, 2)
    assert s["counts"]["change"] == {"runs": 4, "nonzero_exit": 0, "incorrect": 0,
                                     "attempted_ops": 40, "failed_ops": 0}


def test_paired_ratio_stays_tight_where_the_medians_drift():
    """The machine slows by a quarter halfway through, on both sides of
    each pair alike: the medians and the parent's IQR move with it, and
    every pair still reads the change 2% faster."""
    runs = []
    for seed, speed in zip(range(1, 9), [1.0] * 4 + [0.75] * 4):
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        for side in order:
            ops = 100.0 * speed * (1.02 if side == "change" else 1.0)
            runs.append(run(seed, side, ops, 1.0 / ops))
    s = ab_pairs.summarize(runs, END_TO_END)
    ops, wall = s["metrics"]["ops_per_s"], s["metrics"]["wall_s"]
    assert ops["parent_iqr"] == pytest.approx(25.0)
    assert ops["parent"]["median"] == pytest.approx(87.5)
    assert ops["change_better_pairs"] == 8
    for key in ("q1", "median", "q3"):
        assert ops["paired_ratio"][key] == pytest.approx(1.02)
        assert wall["paired_ratio"][key] == pytest.approx(1 / 1.02)
    # a pair with a missing or zero parent value has no ratio
    runs[0]["result"]["metrics"]["ops_per_s"]["value"] = 0.0
    del runs[2]["result"]["metrics"]["ops_per_s"]
    assert ab_pairs.summarize(runs, END_TO_END)["metrics"]["ops_per_s"]["paired_ratio"][
        "median"] == pytest.approx(1.02)
    assert ab_pairs.summarize(runs[:2], END_TO_END)["metrics"]["ops_per_s"][
        "paired_ratio"] is None


@pytest.mark.parametrize("better, parent, change, worse", [
    ("higher", 100.0, 81.0, False), ("higher", 100.0, 79.0, True),
    ("lower", 1.0, 1.19, False), ("lower", 1.0, 1.21, True),
    ("lower", 1.0, 0.5, False)])
def test_worse_than_bound_is_relative_to_the_parent(better, parent, change, worse):
    runs = [run(1, "parent", parent), run(1, "change", change)]
    metric = [{"name": "ops_per_s", "better": better, "bound": 0.2}]
    assert ab_pairs.summarize(runs, metric)["metrics"]["ops_per_s"]["worse_than_bound"] is worse


def test_failed_runs_are_counted_not_dropped():
    """An incorrect run keeps its metrics; a crashed one, with no result,
    is counted and leaves its pair out; a side with no value at all is
    worse than any bound."""
    runs = [run(1, "parent", 100.0, 1.0), run(1, "change", 100.0, 1.0, correct=False, failed=2),
            run(2, "change", 100.0), run(2, "parent", 90.0),
            {"seed": 3, "side": "parent", "exit": 0, "result": None},
            {"seed": 3, "side": "change", "exit": 1, "result": None}]
    s = ab_pairs.summarize(runs, END_TO_END)
    assert s["counts"]["change"] == {"runs": 3, "nonzero_exit": 1, "incorrect": 2,
                                     "attempted_ops": 20, "failed_ops": 2}
    assert s["counts"]["parent"]["incorrect"] == 1
    ops = s["metrics"]["ops_per_s"]
    assert ops["change_runs"] == [100.0, 100.0, None]
    assert ops["change_better_pairs"] == 1 and ops["tied_pairs"] == 1
    wall = s["metrics"]["wall_s"]
    assert wall["change_runs"] == [1.0, None, None] and wall["parent"]["median"] == 1.0
    assert wall["worse_than_bound"] is False
    only_parent = ab_pairs.summarize(runs[4:5] + runs[:1], END_TO_END)
    assert only_parent["metrics"]["ops_per_s"]["worse_than_bound"] is True
    assert only_parent["metrics"]["ops_per_s"]["ratio"] is None
