"""Library micro-benchmarks (wall-clock performance of the hot primitives).

Unlike the experiment benches (one-shot pedantic runs that regenerate the
paper's artifacts), these exercise pytest-benchmark properly — many
rounds, statistics — over the primitives that dominate reproduction
runtime: the max-min allocator, ECMP selection, circuit failover, path
enumeration, and combined-table lookup.  Their timings are reported,
not gated or recorded: run them to spot a regression by hand (the
allocator once cost 2.6× end-to-end before its segment hash was fixed;
see docs/simulator.md).
"""

import numpy as np
import pytest

from repro.core import ImpersonationTables, ShareBackupNetwork
from repro.rng import ensure_rng
from repro.routing import EcmpSelector, Packet
from repro.simulation import allocate_dense, max_min_rates
from repro.simulation.columnar import ColumnarWorkspace, pack_paths, waterfill
from repro.simulation.fairshare import AllocatorWorkspace
from repro.topology import FatTree


def _allocation_problem(num_flows: int, seed: int = 7):
    """A fat-tree-shaped random allocation instance."""
    rng = ensure_rng(seed)
    num_segments = max(8, num_flows // 2)
    capacities = {s: 10e9 for s in range(num_segments)}
    flow_segments = {
        f: tuple(
            int(x) for x in rng.choice(num_segments, size=6, replace=False)
        )
        for f in range(num_flows)
    }
    return flow_segments, capacities


def test_perf_maxmin_small(benchmark):
    flow_segments, capacities = _allocation_problem(100)
    rates = benchmark(max_min_rates, flow_segments, capacities)
    assert len(rates) == 100


def test_perf_maxmin_large(benchmark):
    flow_segments, capacities = _allocation_problem(2000)
    rates = benchmark(max_min_rates, flow_segments, capacities)
    assert len(rates) == 2000


def _dense_problem(num_flows: int, seed: int = 7):
    """The same instance as :func:`_allocation_problem`, pre-interned the
    way the engine holds it: dense ids, flat capacity list."""
    flow_segments, capacities = _allocation_problem(num_flows, seed)
    caps = [capacities[s] for s in range(len(capacities))]
    pairs = list(flow_segments.items())
    return pairs, caps


def test_perf_allocate_dense_large(benchmark):
    """The oracle engine's hot call: dense core + reused workspace (no
    interning, no per-call array allocation — what a reallocation costs)."""
    pairs, caps = _dense_problem(2000)
    workspace = AllocatorWorkspace(len(caps))
    rates = benchmark(allocate_dense, pairs, caps, workspace)
    assert len(rates) == 2000


def test_perf_allocate_dense_many_components(benchmark):
    """200 disjoint 10-flow components: partition + per-component solves
    (the cost profile of a lightly-coupled trace)."""
    num_comps, flows_per, segs_per = 200, 10, 8
    pairs = []
    caps = [10e9] * (num_comps * segs_per)
    seed = 7
    rng = ensure_rng(seed)
    fid = 0
    for c in range(num_comps):
        base = c * segs_per
        for _ in range(flows_per):
            path = tuple(
                int(base + s)
                for s in rng.choice(segs_per, size=4, replace=False)
            )
            pairs.append((fid, path))
            fid += 1
    workspace = AllocatorWorkspace(len(caps))
    rates = benchmark(allocate_dense, pairs, caps, workspace)
    assert len(rates) == num_comps * flows_per


def _columnar_problem(num_flows: int, seed: int = 7):
    """The same instance again, packed the way the vectorized backend
    holds it: padded segment matrix, capacity array, reused workspace,
    and the incrementally-maintained incidence."""
    pairs, caps = _dense_problem(num_flows, seed)
    caps_arr = np.asarray(caps, dtype=np.float64)
    matrix = pack_paths([path for _, path in pairs], len(caps))
    workspace = ColumnarWorkspace(len(caps))
    incidence = np.bincount(matrix.ravel(), minlength=len(caps) + 1)
    return matrix, caps_arr, workspace, incidence


def test_perf_waterfill_large(benchmark):
    """The batched water-fill kernel alone on the 2000-flow instance —
    the vectorized engine's per-reallocation cost floor."""
    matrix, caps, workspace, incidence = _columnar_problem(2000)
    rates = benchmark(waterfill, matrix, caps, workspace, incidence)
    assert rates.shape[0] == 2000


@pytest.mark.parametrize("backend", ["oracle", "vectorized"])
def test_perf_reallocation_backend(benchmark, backend):
    """One full reallocation of the 2000-flow instance per backend: the
    oracle re-interns from dicts and runs the scalar solver, the
    vectorized one runs the batched kernel over the packed matrix.  Both
    produce bit-identical rates; the spread between their rounds is the
    engine-mode tradeoff quantified in docs/simulator.md."""
    if backend == "oracle":
        flow_segments, capacities = _allocation_problem(2000)
        rates = benchmark(max_min_rates, flow_segments, capacities)
        assert len(rates) == 2000
    else:
        matrix, caps, workspace, incidence = _columnar_problem(2000)
        rates = benchmark(waterfill, matrix, caps, workspace, incidence)
        assert rates.shape[0] == 2000


def test_perf_ecmp_selection(benchmark):
    tree = FatTree(16)
    selector = EcmpSelector(tree)
    hosts = tree.all_host_names()

    counter = iter(range(10**9))

    def select():
        label = next(counter)
        return selector.select(hosts[0], hosts[-1], label)

    path = benchmark(select)
    assert path is not None and path.hops == 6


def test_perf_path_enumeration_k16(benchmark):
    """All 64 equal-cost paths of one inter-pod edge pair, from the
    wiring tables (filled on the first round)."""
    tree = FatTree(16)
    selector = EcmpSelector(tree)
    paths = benchmark(selector.paths, "H.0.0.0", "H.15.7.0")
    assert len(paths) == 64


def test_perf_failover(benchmark):
    """One full circuit failover, including group bookkeeping.

    Rounds each build their own victim rotation by repairing afterwards,
    so the benchmark can iterate.
    """
    net = ShareBackupNetwork(8, n=1)
    group = net.group_of("A.0.0")

    def failover_and_recycle():
        spare = group.allocate_spare()
        # This bench times the raw failover primitive *below* the
        # controller on purpose — the controller's retry/degradation
        # wrapper is measured separately by the chaos benches.
        touched, _latency = net.failover("A.0.0", spare)  # repro: noqa[CHS001]
        # recycle: the displaced switch becomes the spare again
        displaced = sorted(group.offline)[0]
        group.reinstate(displaced)
        return touched

    touched = benchmark(failover_and_recycle)
    assert touched == 8


def test_perf_combined_table_lookup(benchmark):
    tree = FatTree(16)
    table = ImpersonationTables(tree).combined_edge_table(0)
    plan = tree.plan
    pkt = Packet(
        plan.host_address(0, 0, 0),
        plan.host_address(7, 3, 2),
        vlan=100,  # edge 0's VLAN
    )
    port = benchmark(table.lookup, pkt)
    assert port.startswith("up")


def test_perf_network_build(benchmark):
    """Full k=8 ShareBackup build (all cabling + circuits)."""
    net = benchmark(ShareBackupNetwork, 8, 1)
    assert net.num_circuit_switches == 96
