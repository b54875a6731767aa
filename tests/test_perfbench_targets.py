"""The benchmark's tracer wraps goerw functions by (owner, attribute), and
its workloads call goerw's API directly. A name either one uses that goerw
no longer has makes the benchmark fail, so tier-1 checks the names and runs
one unit of every workload under the tracer, without timing anything. Each
unit's outputs must also be bitwise the recorded ones."""

import importlib.util
import os

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_tracer():
    return load("tracer")


def test_every_patched_attribute_exists():
    tracer = load_tracer()
    targets = tracer.replacements(tracer.Tracer())
    assert targets
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _ in targets if not hasattr(owner, attr)]
    assert missing == []


# the output digest of one seed-5 unit of each workload that walks, as the
# unit above runs it; a change that moves a trajectory, a clock or a sample
# moves it. ruin-tables is gated by perfbench/reference.json instead.
UNIT_DIGESTS = {
    "edge-mc": "36d7378929d7f4b283c6b46ea9565e96d5573a92f9b640740be4f23d628b13a8",
    "cluster": "3f5063c53b4a6c2de340fb5640bd434d2d34c44ab6fdde58b920ac07a5bc697e",
    "phase-annealed": "b513738739c8b396e635a33e77c93a5cd1673cfff9a6633679885b08c087d62f",
}


@pytest.mark.parametrize("name", ["edge-mc", "cluster", "phase-annealed", "ruin-tables"])
def test_one_unit_of_each_workload_passes_its_checks(name):
    tracer = load_tracer()
    wl = load("workloads").WORKLOADS[name]
    with tracer.patched(tracer.replacements(tracer.Tracer())):
        st = wl.setup(5)
        with tracer.patched(wl.observers(st)):
            wl.prepare(st, 0)
            ops, failed = wl.run(st, 0)
            wl.settle(st, 0)
    wl.check(st)
    assert ops > 0 and failed == 0
    assert st.failures == []
    if name in UNIT_DIGESTS:
        assert st.digest.hexdigest() == UNIT_DIGESTS[name]


def test_ruin_tables_match_the_reference_on_every_environment():
    """The ruin-tables digests (perfbench/reference.json, read only) cover
    ENV_POOL environments; one unit on each must reproduce its digest and
    conserve flow."""
    tracer = load_tracer()
    wl = load("workloads").WORKLOADS["ruin-tables"]
    failures = []
    for seed in range(wl.ENV_POOL):
        st = wl.setup(seed)
        with tracer.patched(wl.observers(st)):
            wl.run(st, 0)
        wl.settle(st, 0)
        wl.check(st)
        failures += st.failures
    assert failures == []


def test_traced_phase_unit_sees_every_direct_walk():
    """The tracer and the workload's censored-walk observer wrap
    analysis.simulate, so one phase-annealed unit must show every walk
    there, one per trial of the excited lane (the control lane is exact and
    walks nothing): a kernel the diagnostic called by another name would
    leave both blind."""
    tracer = load_tracer()
    wl = load("workloads").WORKLOADS["phase-annealed"]
    tr = tracer.Tracer()
    with tracer.patched(tracer.replacements(tr)):
        st = wl.setup(5)
        with tracer.patched(wl.observers(st)):
            wl.prepare(st, 0)
            wl.run(st, 0)
            wl.settle(st, 0)
    assert tr.counts["walk.simulate.calls"] == wl.TRIALS
    assert tr.counts["walk.simulate.steps"] > 0
    assert st.longest > 0


def test_traced_cluster_unit_sees_every_sample():
    """The tracer wraps percolation.sample_ruin_percolation and
    ClockTable.xi, so one cluster unit must show every sample, SAMPLES of
    them, and the clocks they read inside that span (charged to it as child
    time): a sampler that ran through another name would leave the tracer's
    cluster rows blind."""
    tracer = load_tracer()
    wl = load("workloads").WORKLOADS["cluster"]
    tr = tracer.Tracer()
    with tracer.patched(tracer.replacements(tr)):
        st = wl.setup(5)
        with tracer.patched(wl.observers(st)):
            wl.prepare(st, 0)
            wl.run(st, 0)
            wl.settle(st, 0)
    assert tr.counts["percolation.sample.calls"] == wl.SAMPLES
    assert tr.counts["walk.xi.calls"] > 0
    assert tr.self_ns["percolation.sample"] < tr.busy_ns["percolation.sample"]


def test_ruin_tables_unit_hands_every_flow_to_the_observer():
    """The flow-conservation gate checks only the flows that the workload's
    observer of analysis.proportional_flow collects, so one ruin-tables unit
    must hand it one flow per FLOW_DEPTHS entry before settle, as the tracer
    counts one tree_max_flow and one proportional_flow call per depth: a
    flow routed by another name would leave the gate checking nothing."""
    tracer = load_tracer()
    wl = load("workloads").WORKLOADS["ruin-tables"]
    tr = tracer.Tracer()
    with tracer.patched(tracer.replacements(tr)):
        st = wl.setup(5)
        with tracer.patched(wl.observers(st)):
            wl.prepare(st, 0)
            wl.run(st, 0)
            assert [depth for _, depth, _, _ in st.flows] == wl.FLOW_DEPTHS
            assert all(total > 0.0 and theta for _, _, total, theta in st.flows)
            wl.settle(st, 0)
    assert st.flows == [] and st.misses == 0
    depths = len(wl.FLOW_DEPTHS)
    assert tr.counts["analysis.tree_max_flow.calls"] == depths
    assert tr.counts["analysis.proportional_flow.calls"] == depths
