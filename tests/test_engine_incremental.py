"""Oracle-vs-vectorized equivalence and event-loop regressions.

The allocator backends' contract (``docs/simulator.md``) is exact: for
any trace and failure schedule the vectorized columnar engine must be
*bit-identical* to the from-scratch scalar oracle — same flow and
coflow records, same event counts, and the same full rate map after
every single reallocation.  These tests enforce that contract on
randomized workloads, through the Figure 1(c) experiment pipeline, and
pin down an event-loop hazard (recursive completion draining blowing
the stack on long same-instant chains).
"""

import sys
from dataclasses import asdict

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.experiments import slowdown
from repro.experiments.config import StudyConfig
from repro.experiments.slowdown import evaluate_slowdown_payload
from repro.routing import GlobalOptimalRerouteRouter
from repro.simulation import CoflowSpec, FlowSpec, FluidSimulation
from repro.simulation import engine as engine_mod
from repro.topology import FatTree

HOSTS = [f"H.{p}.{e}.{h}" for p in range(4) for e in range(2) for h in range(2)]

VICTIMS = ["C.0", "C.3", "A.0.1", "A.2.0", "E.0.0", "E.1.1"]


@st.composite
def workloads(draw):
    num_coflows = draw(st.integers(min_value=1, max_value=4))
    coflows = []
    flow_id = 1
    for cid in range(1, num_coflows + 1):
        arrival = draw(st.floats(min_value=0.0, max_value=2.0))
        width = draw(st.integers(min_value=1, max_value=4))
        flows = []
        for _ in range(width):
            src = draw(st.sampled_from(HOSTS))
            dst = draw(st.sampled_from([h for h in HOSTS if h != src]))
            size = draw(st.floats(min_value=1e5, max_value=2e9))
            flows.append(FlowSpec(flow_id, cid, src, dst, size))
            flow_id += 1
        coflows.append(CoflowSpec(cid, arrival, tuple(flows)))
    return coflows


class RecordingMonitor:
    """Captures the engine's full rate map after every reallocation."""

    def __init__(self):
        self.events = []

    def on_reallocate(self, now, flow_segments, rates):
        self.events.append((now, dict(flow_segments), dict(rates)))


def run_mode(trace, allocator, fail=None):
    tree = FatTree(4)
    monitor = RecordingMonitor()
    sim = FluidSimulation(
        tree,
        GlobalOptimalRerouteRouter(tree),
        trace,
        horizon=10_000.0,
        monitor=monitor,
        allocator=allocator,
    )
    if fail is not None:
        node, t_fail, t_fix = fail
        sim.fail_node_at(t_fail, node)
        sim.restore_node_at(t_fix, node)
    return sim.run(), monitor


def assert_bit_identical(trace, fail=None):
    oracle, oracle_mon = run_mode(trace, "oracle", fail)
    got, got_mon = run_mode(trace, "vectorized", fail)
    # Dataclass equality on float fields is exact, so any drift —
    # however small — fails here, not just "close enough".
    assert got.flows == oracle.flows
    assert got.coflows == oracle.coflows
    assert got.end_time == oracle.end_time
    assert got.events_processed == oracle.events_processed
    assert got.reallocations == oracle.reallocations
    assert got_mon.events == oracle_mon.events


@given(workloads())
@settings(max_examples=25, deadline=None)
def test_challengers_match_oracle(trace):
    assert_bit_identical(trace)


@given(
    workloads(),
    st.sampled_from(VICTIMS),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=1.5, max_value=4.0),
)
@settings(max_examples=25, deadline=None)
def test_challengers_match_oracle_under_failure(trace, victim, t_fail, t_fix):
    assert_bit_identical(trace, fail=(victim, t_fail, t_fix))


@given(
    workloads(),
    st.sampled_from(VICTIMS),
    st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=15, deadline=None)
def test_challengers_match_oracle_unrepaired(trace, victim, t_fail):
    """No repair: stalled flows stay stalled and the horizon cuts the
    run short — the modes must agree on unfinished flows too."""
    a, a_mon = run_mode(trace, "oracle", fail=(victim, t_fail, 20_000.0))
    b, b_mon = run_mode(trace, "vectorized", fail=(victim, t_fail, 20_000.0))
    assert b.flows == a.flows
    assert b.coflows == a.coflows
    assert b.end_time == a.end_time
    assert b_mon.events == a_mon.events


@pytest.mark.parametrize("allocator", ["bogus", "incremental"])
def test_unknown_allocator_rejected(allocator):
    """Unknown modes, including the removed "incremental" backend, fail
    loudly and name the remaining choices."""
    tree = FatTree(4)
    trace = [
        CoflowSpec(1, 0.0, (FlowSpec(1, 1, HOSTS[0], HOSTS[-1], 1e6),))
    ]
    with pytest.raises(ValueError, match="unknown allocator") as excinfo:
        FluidSimulation(
            tree, GlobalOptimalRerouteRouter(tree), trace, allocator=allocator
        )
    assert "'vectorized'" in str(excinfo.value)
    assert "'oracle'" in str(excinfo.value)


def _stack_depth():
    depth = 0
    frame = sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    return depth


def test_same_instant_completion_chain_is_iterative():
    """Hundreds of identical flows finish at the same instant; the
    completion drain must handle the whole wave iteratively.  The old
    engine re-entered the post-event hook per completion wave, so a
    chain like this could recurse toward the interpreter stack limit.
    """
    n = 300
    flows = tuple(
        FlowSpec(i, 1, "H.0.0.0", "H.3.1.1", 1e6) for i in range(1, n + 1)
    )
    trace = [CoflowSpec(1, 0.0, flows)]
    tree = FatTree(4)
    sim = FluidSimulation(tree, GlobalOptimalRerouteRouter(tree), trace)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 60)
    try:
        result = sim.run()
    finally:
        sys.setrecursionlimit(limit)
    assert len(result.flows) == n
    assert all(r.completed for r in result.flows.values())
    finishes = {r.finish for r in result.flows.values()}
    assert len(finishes) == 1  # one same-instant wave, as constructed


# ----------------------------------------------------------------------
# pipeline-level A/B: the Figure 1(c) experiment, both allocators
# ----------------------------------------------------------------------

_PIPELINE_CONFIG = StudyConfig(
    k=4, hosts_per_edge=4, num_coflows=8, duration=3.0, seed=7
)


def _pipeline_payloads():
    config = asdict(_PIPELINE_CONFIG)
    return [
        {
            "config": config,
            "architecture": "fat-tree",
            "scenario": {"nodes": ["A.0.1"], "links": []},
        },
        {
            "config": config,
            "architecture": "sharebackup",
            "victim": "E.0.0",
        },
    ]


def test_pipeline_results_identical_across_allocators(monkeypatch):
    """Full experiment-pipeline A/B: every slowdown sample — including
    the memoised clean baselines — must match exactly across modes."""
    outputs = {}
    for mode in ("oracle", "vectorized"):
        monkeypatch.setattr(engine_mod, "DEFAULT_ALLOCATOR", mode)
        # The clean baselines are memoised per worker; rebuild them
        # under each allocator so the comparison covers them too.
        slowdown._rerouting_context.cache_clear()
        slowdown._sharebackup_context.cache_clear()
        outputs[mode] = [
            evaluate_slowdown_payload(p) for p in _pipeline_payloads()
        ]
    slowdown._rerouting_context.cache_clear()
    slowdown._sharebackup_context.cache_clear()
    assert outputs["vectorized"] == outputs["oracle"]
    assert all(out["slowdowns"] for out in outputs["vectorized"])
