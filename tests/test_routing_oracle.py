"""The wiring-table router against the adjacency walk it replaced.

The oracle below is the original enumeration, kept verbatim in spirit:
every query walks the topology's adjacency (each aggregation neighbour
of the source edge, each core of those, each aggregation neighbour of
the core in the destination pod), filters by operational state when
asked, and resolves each hop's segment by sorting its parallel links.
Hypothesis drives both implementations over fat-tree, F10 and Aspen
fabrics with random failure sets, flow labels and segment loads, and
every answer must be identical.  Switch names sort as strings, not as
numbers: ``C.10`` precedes ``C.2`` from ``k = 8`` on, and ``A.0.10``
precedes ``A.0.2`` once ``k/2 >= 11``, which is why ``k = 24`` is in the
mix.

The second half states the routing rows of the paper's Table 3 as
properties over random single failures.
"""

from __future__ import annotations

import random
from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import PinIndex
from repro.failures import FailureScenario
from repro.routing import (
    F10LocalRerouteRouter,
    GlobalOptimalRerouteRouter,
    Path,
    flow_hash,
)
from repro.routing.paths import DirectedSegment
from repro.simulation.flow import CoflowSpec, FlowSpec
from repro.topology import AspenTree, F10Tree, FatTree, NodeKind

# ----------------------------------------------------------------------
# the oracle: the adjacency walk
# ----------------------------------------------------------------------


def _neighbours(tree, name: str, kind: NodeKind, operational: bool) -> list[str]:
    """Non-backup neighbours of ``kind``, sorted; live ones if asked."""
    if operational:
        found = {other for other, _link in tree.up_neighbors(name)}
    else:
        found = set(tree.neighbors(name))
    return sorted(
        other
        for other in found
        if tree.nodes[other].kind is kind and not tree.nodes[other].is_backup
    )


def _hop_ok(tree, a: str, b: str) -> bool:
    return bool(tree.operational_links_between(a, b))


def enumerate_edge_paths(
    tree, src_edge: str, dst_edge: str, operational_only: bool = False
) -> list[tuple[str, ...]]:
    """All shortest switch-level sequences from ``src_edge`` to ``dst_edge``."""
    if src_edge == dst_edge:
        return [(src_edge,)]
    src_pod = tree.nodes[src_edge].pod
    dst_pod = tree.nodes[dst_edge].pod
    middles: list[tuple[str, ...]] = []
    aggs = _neighbours(tree, src_edge, NodeKind.AGGREGATION, operational_only)
    if src_pod == dst_pod:
        for agg in aggs:
            if operational_only and not _hop_ok(tree, agg, dst_edge):
                continue
            if dst_edge in set(tree.neighbors(agg)):
                middles.append((src_edge, agg, dst_edge))
        return middles
    for agg in aggs:
        for core in _neighbours(tree, agg, NodeKind.CORE, operational_only):
            for dst_agg in _neighbours(
                tree, core, NodeKind.AGGREGATION, operational_only
            ):
                if tree.nodes[dst_agg].pod != dst_pod:
                    continue
                if dst_edge not in set(tree.neighbors(dst_agg)):
                    continue
                if operational_only and not _hop_ok(tree, dst_agg, dst_edge):
                    continue
                middles.append((src_edge, agg, core, dst_agg, dst_edge))
    return middles


def oracle_paths(tree, src: str, dst: str, operational_only: bool) -> list[Path]:
    src_edge, dst_edge = tree.edge_of_host(src), tree.edge_of_host(dst)
    if operational_only and not (
        _hop_ok(tree, src, src_edge) and _hop_ok(tree, dst, dst_edge)
    ):
        return []
    return [
        Path((src,) + middle + (dst,))
        for middle in enumerate_edge_paths(tree, src_edge, dst_edge, operational_only)
    ]


def oracle_select(tree, src: str, dst: str, label: int, operational_only: bool):
    paths = oracle_paths(tree, src, dst, operational_only)
    if not paths:
        return None
    return paths[flow_hash(src, dst, label) % len(paths)]


def oracle_segments(tree, path: Path, label: int) -> tuple[DirectedSegment, ...]:
    segs = []
    for hop, (a, b) in enumerate(zip(path.nodes, path.nodes[1:])):
        candidates = sorted(tree.links_between(a, b), key=lambda link: link.link_id)
        operational = [c for c in candidates if tree.link_is_operational(c.link_id)]
        if not operational:
            link = candidates[0]
        elif len(operational) == 1:
            link = operational[0]
        else:
            link = operational[flow_hash(label, hop) % len(operational)]
        segs.append(DirectedSegment(link.link_id, forward=(link.a == a)))
    return tuple(segs)


def oracle_repath(tree, src: str, dst: str, label: int, load) -> Path | None:
    best, best_key = None, None
    for path in oracle_paths(tree, src, dst, operational_only=True):
        segs = oracle_segments(tree, path, label)
        worst = max((load.get(seg, 0) for seg in segs), default=0)
        key = (worst, flow_hash(label, path.nodes) % (1 << 16))
        if best_key is None or key < best_key:
            best, best_key = path, key
    return best


def oracle_affected(tree, trace, scenario) -> tuple[int, list[int]]:
    """(affected flows, affected coflow ids in trace order), per scenario."""
    failed_nodes, failed_links = set(scenario.nodes), set(scenario.links)
    flows, coflows = 0, []
    for coflow in trace:
        hit_coflow = False
        for spec in coflow.flows:
            path = oracle_select(tree, spec.src, spec.dst, spec.flow_id, False)
            if path is None:
                continue
            if failed_nodes.intersection(path.nodes) or any(
                seg.link_id in failed_links
                for seg in oracle_segments(tree, path, spec.flow_id)
            ):
                flows += 1
                hit_coflow = True
        if hit_coflow:
            coflows.append(coflow.coflow_id)
    return flows, coflows


# ----------------------------------------------------------------------
# fabrics and random inputs
# ----------------------------------------------------------------------

FABRICS = [
    (cls, k)
    for cls in (FatTree, F10Tree, AspenTree)
    for k in (4, 6, 8, 12, 24)
    if not (cls is AspenTree and k % 4)
]


@lru_cache(maxsize=None)
def _fabric(cls, k: int):
    """One shared instance per fabric; every example clears its failures."""
    return cls(k, hosts_per_edge=2)


def _fresh(cls, k: int):
    tree = _fabric(cls, k)
    tree.clear_failures()
    return tree


def _fail_some(tree, rng: random.Random) -> None:
    """Fail a few random switches, hosts and links (possibly none)."""
    names = sorted(tree.nodes)
    for name in rng.sample(names, rng.choice((0, 1, 2, 4, 8))):
        tree.fail_node(name)
    links = sorted(tree.links)
    for link_id in rng.sample(links, rng.choice((0, 1, 3, 10, 30))):
        tree.fail_link(link_id)


def _host_pairs(tree, rng: random.Random, count: int) -> list[tuple[str, str]]:
    hosts = tree.all_host_names()
    pairs = []
    for _ in range(count):
        src = rng.choice(hosts)
        shape = rng.random()
        if shape < 0.15:  # same edge switch
            edge = tree.edge_of_host(src)
            peers = [h for h in hosts if tree.edge_of_host(h) == edge and h != src]
        elif shape < 0.35:  # same pod
            pod = tree.nodes[src].pod
            peers = [h for h in hosts if tree.nodes[h].pod == pod and h != src]
        else:
            peers = [h for h in hosts if h != src]
        pairs.append((src, rng.choice(peers)))
    return pairs


def _random_load(tree, candidates: list[Path], label: int, rng: random.Random):
    """Small loads on a random share of the candidates' segments, so the
    minimum is sometimes unique and sometimes widely tied."""
    load: dict[DirectedSegment, int] = {}
    for path in candidates:
        for seg in oracle_segments(tree, path, label):
            if rng.random() < 0.3:
                load[seg] = rng.randint(0, 3)
    return load


# ----------------------------------------------------------------------
# the wiring tables equal the walk
# ----------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    fabric=st.sampled_from(FABRICS),
    seed=st.integers(0, 2**32 - 1),
)
def test_selection_and_repair_match_the_adjacency_walk(fabric, seed):
    rng = random.Random(seed)
    tree = _fresh(*fabric)
    router = GlobalOptimalRerouteRouter(tree)
    selector = router.selector
    pairs = _host_pairs(tree, rng, 6)
    # Warm both views on the healthy fabric, so the answers below come
    # from views that invalidate() had to drop.
    for src, dst in pairs:
        selector.select(src, dst, 0, operational_only=True)
        selector.paths(src, dst)
    _fail_some(tree, rng)
    router.on_topology_change()
    for src, dst in pairs:
        for operational in (False, True):
            got = selector.paths(src, dst, operational_only=operational)
            want = oracle_paths(tree, src, dst, operational)
            assert [p.nodes for p in got] == [p.nodes for p in want]
        label = rng.randrange(1 << 20)
        for operational in (False, True):
            assert selector.select(
                src, dst, label, operational_only=operational
            ) == oracle_select(tree, src, dst, label, operational)
        candidates = oracle_paths(tree, src, dst, operational_only=True)
        load = _random_load(tree, candidates, label, rng)
        assert router.repath(src, dst, label, None, load) == oracle_repath(
            tree, src, dst, label, load
        )
        for path in candidates:
            assert path.segments(tree, label) == oracle_segments(tree, path, label)


def test_exact_ties_go_to_the_first_candidate():
    """Two cells with equal load and equal 16-bit hash key: the earlier
    one in candidate order wins.  Random labels almost never collide, so
    this label was searched for."""
    tree = FatTree(8, hosts_per_edge=2)
    label = 5901
    candidates = oracle_paths(tree, "H.0.0.0", "H.1.0.0", operational_only=True)
    keys = [flow_hash(label, path.nodes) % (1 << 16) for path in candidates]
    tied = [i for i, key in enumerate(keys) if key == min(keys)]
    assert len(tied) == 2
    repaired = GlobalOptimalRerouteRouter(tree).repath(
        "H.0.0.0", "H.1.0.0", label, None, {}
    )
    assert repaired == candidates[tied[0]]


def _random_trace(tree, rng: random.Random) -> list[CoflowSpec]:
    trace, flow_id = [], 0
    for coflow_id in range(rng.randint(1, 12)):
        flows = []
        for src, dst in _host_pairs(tree, rng, rng.randint(1, 5)):
            flow_id += 1
            flows.append(FlowSpec(flow_id, coflow_id, src, dst, 1e6))
        trace.append(CoflowSpec(coflow_id, 0.0, tuple(flows)))
    return trace


@settings(max_examples=25, deadline=None)
@given(
    fabric=st.sampled_from([f for f in FABRICS if f[1] <= 12]),
    seed=st.integers(0, 2**32 - 1),
)
def test_pin_index_counts_match_the_per_scenario_loop(fabric, seed):
    rng = random.Random(seed)
    tree = _fresh(*fabric)
    trace = _random_trace(tree, rng)
    pins = PinIndex(tree, trace)
    for _ in range(5):
        scenario = FailureScenario(
            nodes=tuple(rng.sample(sorted(tree.nodes), rng.choice((0, 1, 3)))),
            links=tuple(rng.sample(sorted(tree.links), rng.choice((0, 1, 4)))),
        )
        flows, coflows = oracle_affected(tree, trace, scenario)
        counts = pins.counts(scenario)
        assert counts.flows_affected == flows
        assert counts.coflows_affected == len(coflows)
        assert counts.flows_total == sum(len(c.flows) for c in trace)
        assert counts.coflows_total == len(trace)
        assert pins.affected_coflows(scenario) == coflows


# ----------------------------------------------------------------------
# Table 3's routing rows as properties
# ----------------------------------------------------------------------


def _single_failure(tree, rng: random.Random) -> None:
    if rng.random() < 0.5:
        switches = [n.name for n in tree.packet_switches()]
        tree.fail_node(rng.choice(switches))
    else:
        tree.fail_link(rng.choice(sorted(tree.links)))


@settings(max_examples=30, deadline=None)
@given(
    cls=st.sampled_from((FatTree, F10Tree)),
    k=st.sampled_from((4, 6, 8)),
    seed=st.integers(0, 2**32 - 1),
)
def test_global_rerouting_never_dilates(cls, k, seed):
    """Fat-tree's row: rerouting finds an equal-length path whenever one
    survives, and reports disconnection only when none does."""
    rng = random.Random(seed)
    tree = _fresh(cls, k)
    router = GlobalOptimalRerouteRouter(tree)
    pinned = []
    for src, dst in _host_pairs(tree, rng, 8):
        label = rng.randrange(1 << 20)
        pinned.append((src, dst, label, router.initial_path(src, dst, label)))
    _single_failure(tree, rng)
    router.on_topology_change()
    for src, dst, label, pin in pinned:
        repaired = router.repath(src, dst, label, pin, {})
        if oracle_paths(tree, src, dst, operational_only=True):
            assert repaired is not None and repaired.is_operational(tree)
            assert repaired.hops == pin.hops
        else:
            assert repaired is None


@settings(max_examples=30, deadline=None)
@given(k=st.sampled_from((4, 6, 8)), seed=st.integers(0, 2**32 - 1))
def test_f10_repairs_add_zero_or_two_hops(k, seed):
    """F10's row: a local detour bounces one level and back, so a
    repaired path is either as long as the pin or exactly two hops
    longer."""
    rng = random.Random(seed)
    tree = _fresh(F10Tree, k)
    router = F10LocalRerouteRouter(tree)
    pinned = []
    for src, dst in _host_pairs(tree, rng, 8):
        label = rng.randrange(1 << 20)
        pinned.append((src, dst, label, router.initial_path(src, dst, label)))
    _single_failure(tree, rng)
    router.on_topology_change()
    for src, dst, label, pin in pinned:
        repaired = router.repath(src, dst, label, pin, {})
        if repaired is not None:
            assert repaired.is_operational(tree)
            assert repaired.hops in (pin.hops, pin.hops + 2)
