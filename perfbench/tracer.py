"""In-memory spans and counters around goerw's public functions.

Nothing inside the package changes: each function is replaced, for the
length of a ``with`` block, by a wrapper bound to the module attribute its
caller looks up at call time. Two kinds of wrapper exist:

* a span wrapper records (id, parent, name, start, end) for every call and
  charges its duration to the enclosing span, so self time is the span's
  duration minus the time its children cover;
* a leaf wrapper (``ClockTable.xi`` and the potential lookups, which run
  millions of times in a trace) keeps only a call count and busy time, and
  also charges that time to the enclosing span.

Counters that depend only on the inputs (calls, steps, vertices, cap hits)
are kept apart from timings so that two traced passes over the same inputs
can be compared exactly.
"""

from __future__ import annotations

import functools
import time
import weakref
from collections import Counter
from contextlib import contextmanager


@contextmanager
def patched(replacements):
    """Set each (owner, attribute) to a new value and restore the originals,
    in reverse order, on exit. replacements is a list of
    (owner, attribute, make) where make(original) returns the replacement."""
    saved = []
    try:
        for owner, attr, make in replacements:
            original = getattr(owner, attr)
            setattr(owner, attr, make(original))
            saved.append((owner, attr, original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, str, int, int]] = []
        self.counts: Counter = Counter()   # deterministic counters
        self.busy_ns: Counter = Counter()  # per name, summed span durations
        self.self_ns: Counter = Counter()  # per name, durations minus children
        self._stack: list[list] = []       # [span id, name, start, child ns]
        self._next_id = 0
        self._walked: dict[int, weakref.ref] = {}

    # -- recording ---------------------------------------------------------

    def span(self, name, fn, after=None):
        """Wrap fn in a span. after(tracer, args, result, duration_ns) runs
        once the span is closed and may update counters."""
        clock = time.perf_counter_ns
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, name, clock(), 0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[2]
                self.spans.append((sid, parent, name, frame[2], end))
                self.counts[name + ".calls"] += 1
                self.busy_ns[name] += dur
                self.self_ns[name] += dur - frame[3]
                if stack:
                    stack[-1][3] += dur
            if after is not None:
                after(self, args, result, dur)
            return result

        return wrapper

    def leaf(self, name, fn):
        """Wrap a hot leaf function: count and time it, record no span."""
        clock = time.perf_counter_ns
        stack = self._stack
        counts = self.counts
        busy = self.busy_ns
        key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args):
            t = clock()
            result = fn(*args)
            d = clock() - t
            counts[key] += 1
            busy[name] += d
            if stack:
                stack[-1][3] += d
            return result

        return wrapper

    def context(self) -> str | None:
        """Name of the outermost open span, or None outside any span."""
        return self._stack[0][1] if self._stack else None

    def first_walk_on(self, env) -> bool:
        """True the first time a walk runs on this environment object.

        Identity is checked through a weak reference, so an id that Python
        hands to a new object after the old one died is not mistaken for
        the old one."""
        key = id(env)
        ref = self._walked.get(key)
        if ref is not None and ref() is env:
            return False

        def forget(r, key=key, walked=self._walked):
            if walked.get(key) is r:
                del walked[key]

        self._walked[key] = weakref.ref(env, forget)
        return True

    # -- output ------------------------------------------------------------

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart_ns\tend_ns\n")
            for sid, parent, name, start, end in self.spans:
                fh.write(f"{sid}\t{parent}\t{name}\t{start}\t{end}\n")


# ---------------------------------------------------------------------------
# where goerw is wrapped


def _built_tree(tr, args, tree, dur):
    tr.counts["tree.build.vertices"] += tree.n_vertices


def _built_env(tr, args, env, dur):
    tr.counts["environment.build.vertices"] += env.tree.n_vertices


def _steps(name):
    def after(tr, args, traj, dur):
        tr.counts[name + ".steps"] += traj.steps
    return after


def _ruin_extension(tr, args, traj, dur):
    # Called from the percolation layer, every run asks whether the target
    # is reached before the root; stopping on the step cap is an invalid run.
    tr.counts["walk.simulate_extension.steps"] += traj.steps
    tr.counts["walk.simulate_extension.cap_hits"] += traj.stop_reason == "max_steps"
    outer = tr.context()
    if outer is not None:
        tr.counts[outer + ".extensions"] += 1


def _direct_walk(tr, args, traj, dur):
    tr.counts["walk.simulate.steps"] += traj.steps
    tr.counts["walk.simulate.censored"] += traj.stop_reason == "max_steps"
    if tr.first_walk_on(args[0]):
        tr.counts["walk.simulate.fresh_env"] += 1
        tr.busy_ns["walk.simulate.fresh_env"] += dur
    else:
        tr.busy_ns["walk.simulate.reused_env"] += dur


def _cutset_dp(tr, args, result, dur):
    tr.counts["tree.min_cutset_sum.vertices"] += args[0].n_vertices


def _edge_mc(tr, args, est, dur):
    tr.counts["percolation.edge_mc.trials"] += est.trials
    tr.counts["percolation.invalid_runs"] += est.invalid_runs
    tr.counts["percolation.monotone_violations"] += est.monotone_violations


def _sample(tr, args, sample, dur):
    tr.counts["percolation.sample.root_cluster_edges"] += len(sample.root_cluster)


def replacements(tr: Tracer):
    """The (owner, attribute, make) list that puts tr around every layer."""
    import goerw.analysis as analysis
    import goerw.cli as cli
    import goerw.environment as environment
    import goerw.percolation as percolation
    import goerw.tree as tree
    import goerw.walk as walk

    def span(name, after=None):
        return lambda fn: tr.span(name, fn, after)

    def leaf(name):
        return lambda fn: tr.leaf(name, fn)

    return [
        (tree, "build_regular", span("tree.build", _built_tree)),
        (tree, "build_polynomial", span("tree.build", _built_tree)),
        (cli, "environment_from_alpha", span("environment.build", _built_env)),
        (cli, "sample_random_environment", span("environment.build", _built_env)),
        (analysis, "environment_from_alpha", span("environment.build", _built_env)),
        (analysis, "sample_random_environment", span("environment.build", _built_env)),
        (walk.ClockTable, "xi", leaf("walk.xi")),
        (environment, "log_Psi", leaf("environment.potential")),
        (analysis, "log_Psi", leaf("environment.potential")),
        (percolation, "psi", leaf("environment.potential")),
        (percolation, "simulate_extension",
         span("walk.simulate_extension", _ruin_extension)),
        (walk, "simulate_extension",
         span("walk.simulate_extension", _steps("walk.simulate_extension"))),
        (walk, "simulate_rubin", span("walk.simulate_rubin", _steps("walk.simulate_rubin"))),
        (analysis, "simulate", span("walk.simulate", _direct_walk)),
        (environment, "min_cutset_sum", span("tree.min_cutset_sum", _cutset_dp)),
        (analysis, "branching_ruin_estimate", span("tree.branching_ruin_estimate")),
        (analysis, "tree_max_flow", span("analysis.tree_max_flow")),
        (analysis, "proportional_flow", span("analysis.proportional_flow")),
        (percolation, "edge_connection_probability_mc", span("percolation.edge_mc", _edge_mc)),
        (percolation, "sample_ruin_percolation", span("percolation.sample", _sample)),
        (environment, "rt_estimate", span("environment.rt_estimate")),
        (analysis, "flow_energy_check", span("analysis.flow_energy_check")),
        (analysis, "phase_diagnostic", span("analysis.phase_diagnostic")),
    ]


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tr: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, as name -> (value, unit)."""
    c, busy, own = tr.counts, tr.busy_ns, tr.self_ns

    def sec(ns):
        return ns / 1e9

    return {
        "walk.xi.calls": (c["walk.xi.calls"], "count"),
        "walk.xi.busy_s": (sec(busy["walk.xi"]), "s"),
        "walk.xi.ns_per_call": (_ratio(busy["walk.xi"], c["walk.xi.calls"]), "ns"),
        "walk.simulate_extension.calls": (c["walk.simulate_extension.calls"], "count"),
        "walk.simulate_extension.steps": (c["walk.simulate_extension.steps"], "count"),
        "walk.simulate_extension.busy_s": (sec(busy["walk.simulate_extension"]), "s"),
        "walk.simulate_extension.self_s": (sec(own["walk.simulate_extension"]), "s"),
        "walk.simulate_extension.cap_hits": (c["walk.simulate_extension.cap_hits"], "count"),
        "walk.simulate_rubin.calls": (c["walk.simulate_rubin.calls"], "count"),
        "walk.simulate_rubin.steps": (c["walk.simulate_rubin.steps"], "count"),
        "walk.simulate_rubin.busy_s": (sec(busy["walk.simulate_rubin"]), "s"),
        "walk.simulate.calls": (c["walk.simulate.calls"], "count"),
        "walk.simulate.steps": (c["walk.simulate.steps"], "count"),
        "walk.simulate.censored": (c["walk.simulate.censored"], "count"),
        "walk.simulate.fresh_env_busy_s": (sec(busy["walk.simulate.fresh_env"]), "s"),
        "walk.simulate.reused_env_busy_s": (sec(busy["walk.simulate.reused_env"]), "s"),
        "percolation.edge_mc.busy_s": (sec(busy["percolation.edge_mc"]), "s"),
        "percolation.edge_mc.trials": (c["percolation.edge_mc.trials"], "count"),
        "percolation.extensions_per_trial": (
            _ratio(c["percolation.edge_mc.extensions"], c["percolation.edge_mc.trials"]),
            "ext/trial"),
        "percolation.invalid_runs": (c["percolation.invalid_runs"], "count"),
        "percolation.monotone_violations": (c["percolation.monotone_violations"], "count"),
        "percolation.sample.busy_s": (sec(busy["percolation.sample"]), "s"),
        "percolation.sample.extensions": (c["percolation.sample.extensions"], "count"),
        "percolation.cluster_useful_ratio": (
            _ratio(c["percolation.sample.root_cluster_edges"],
                   c["percolation.sample.extensions"]),
            "ratio"),
        "environment.build.calls": (c["environment.build.calls"], "count"),
        "environment.build.vertices": (c["environment.build.vertices"], "count"),
        "environment.build.busy_s": (sec(busy["environment.build"]), "s"),
        "environment.potential.calls": (c["environment.potential.calls"], "count"),
        "environment.potential.busy_s": (sec(busy["environment.potential"]), "s"),
        "environment.rt_estimate.self_s": (sec(own["environment.rt_estimate"]), "s"),
        "tree.build.vertices": (c["tree.build.vertices"], "count"),
        "tree.build.busy_s": (sec(busy["tree.build"]), "s"),
        "tree.min_cutset_sum.calls": (c["tree.min_cutset_sum.calls"], "count"),
        "tree.min_cutset_sum.vertices": (c["tree.min_cutset_sum.vertices"], "count"),
        "tree.min_cutset_sum.busy_s": (sec(busy["tree.min_cutset_sum"]), "s"),
        "tree.branching_ruin_estimate.busy_s": (sec(busy["tree.branching_ruin_estimate"]), "s"),
        "analysis.tree_max_flow.busy_s": (sec(busy["analysis.tree_max_flow"]), "s"),
        "analysis.proportional_flow.busy_s": (sec(busy["analysis.proportional_flow"]), "s"),
        "analysis.flow_energy_check.self_s": (sec(own["analysis.flow_energy_check"]), "s"),
        "analysis.phase_diagnostic.self_s": (sec(own["analysis.phase_diagnostic"]), "s"),
    }
