"""ECMP path selection over static wiring tables.

Both networks in the paper's failure study "use ECMP routing": each flow
is pinned to one of the equal-cost shortest paths by a hash of its
five-tuple.  We model the five-tuple with a per-flow integer label and
use CRC32 for the hash — deterministic across runs (unlike ``hash()``,
which Python salts per process), uniform enough for load spreading, and
cheap.

``EcmpSelector`` chooses among the equal-cost paths of the two-level
Clos, which is equivalent to consistent per-hop hashing on a symmetric
Clos and keeps the flow→path pinning explicit for the simulator.  The
candidates between edge switches of two different pods form a grid of
*cells*: each aggregation parent of the source edge, times each core
above that parent, times the destination-pod aggregation switches that
link the core down to the destination edge (exactly one in a fat-tree).
Two *wiring tables*, read off the topology's adjacency one entry at a
time on the first query that touches it, describe the grid:

* each edge switch's aggregation switches, sorted by name;
* each aggregation switch's cores, sorted by name.

The way down from each core to a destination edge switch (its
*descent*) is derived from the same two tables, from the destination
side, once per destination edge and view.  Wiring never changes after
construction (failures only flip ``up``), so the static tables live as
long as the selector.  The *operational* view — the same tables
restricted to hops with a live link between live endpoints — is derived
lazily and held until :meth:`EcmpSelector.invalidate`, which routers
call from ``on_topology_change()``.

Candidate order is exactly that of walking the adjacency, source side
first: names sort as strings (``C.10`` precedes ``C.2``, and ``A.0.10``
precedes ``A.0.2`` once ``k/2 >= 11``), and F10's skewed and Aspen's
reduced parent sets come out of the same tables.  ``select`` sums the
cell counts per aggregation switch and walks to the hashed cell without
materialising the candidate list.
"""

from __future__ import annotations

import zlib
from collections.abc import Callable, Sequence
from functools import partial
from itertools import repeat

from ..topology.base import NodeKind
from ..topology.fattree import FatTree
from .paths import Path

__all__ = ["flow_hash", "EcmpSelector", "enumerate_paths", "operational_paths"]


def flow_hash(*parts: object) -> int:
    """Deterministic 32-bit hash of heterogeneous flow identifiers."""
    blob = "|".join(str(p) for p in parts).encode()
    return zlib.crc32(blob)


class _Table(dict):
    """A dict that fills a missing key from ``fill(key)`` on first access."""

    __slots__ = ("_fill",)

    def __init__(self, fill: Callable) -> None:
        super().__init__()
        self._fill = fill

    def __missing__(self, key):
        value = self[key] = self._fill(key)
        return value


def _wired(tree: FatTree, kind: NodeKind, name: str) -> tuple[str, ...]:
    """``name``'s non-backup neighbours of ``kind``, sorted by name."""
    nodes = tree.nodes
    return tuple(
        sorted(
            other
            for other in tree.neighbors(name)
            if nodes[other].kind is kind and not nodes[other].is_backup
        )
    )


def _operational(
    tree: FatTree, name: str, candidates: tuple[str, ...]
) -> tuple[str, ...]:
    """The ``candidates`` joined to ``name`` by a live link between live
    endpoints (``candidates`` itself when all of them are)."""
    nodes = tree.nodes
    if not nodes[name].up:
        return ()
    links = tree.links
    ids_between = tree.link_ids_between
    kept = []
    for other in candidates:
        if nodes[other].up:
            for link_id in ids_between(name, other):
                if links[link_id].up:
                    kept.append(other)
                    break
    return candidates if len(kept) == len(candidates) else tuple(kept)


def _live(tree: FatTree, table: _Table, name: str) -> tuple[str, ...]:
    return _operational(tree, name, table[name])


def _descent(
    tree: FatTree, aggs: _Table, cores: _Table, dst_edge: str
) -> dict[str, tuple[str, ...]]:
    """Each core's way down to ``dst_edge``: the aggregation switches of
    its pod joined to both, sorted by name."""
    nodes = tree.nodes
    pod = nodes[dst_edge].pod
    by_core: dict[str, tuple[str, ...]] = {}
    for down in aggs[dst_edge]:
        if nodes[down].pod == pod:
            entry = (down,)
            for core in cores[down]:
                by_core[core] = by_core.get(core, ()) + entry
    return by_core


class WiringView:
    """One view — static or operational — of the wiring tables.

    ``aggs[edge]`` and ``cores[agg]`` are tuples sorted by name; the
    operational view drops every entry whose hop has no live link
    between live endpoints.  ``descents[dst_edge]`` maps each core to
    the aggregation switches it reaches ``dst_edge`` through, derived
    from the two tables from the destination side.
    """

    __slots__ = ("tree", "aggs", "cores", "descents")

    def __init__(self, tree: FatTree, aggs: _Table, cores: _Table) -> None:
        self.tree = tree
        self.aggs = aggs
        self.cores = cores
        self.descents = _Table(partial(_descent, tree, aggs, cores))

    def shared_aggs(self, src_edge: str, dst_edge: str) -> list[str]:
        """Intra-pod candidates: parents of ``src_edge`` that reach ``dst_edge``."""
        reach = frozenset(self.aggs[dst_edge])
        return [agg for agg in self.aggs[src_edge] if agg in reach]

    def cells(self, agg: str, dst_edge: str) -> list[tuple[str, str]]:
        """The ``(core, dst_agg)`` cells completing a path from ``agg`` to
        ``dst_edge`` in another pod, in candidate order."""
        descent = self.descents[dst_edge]
        return [
            (core, down) for core in self.cores[agg] for down in descent.get(core, ())
        ]

    def row_sizes(self, src_edge: str, dst_edge: str) -> list[int]:
        """``len(self.cells(agg, dst_edge))`` per parent ``agg`` of ``src_edge``."""
        ways = self.descents[dst_edge].get
        cores = self.cores
        return [
            sum(map(len, map(ways, cores[agg], repeat(()))))
            for agg in self.aggs[src_edge]
        ]

    def middles(self, src_edge: str, dst_edge: str) -> list[tuple[str, ...]]:
        """Every candidate's switch sequence from ``src_edge`` to ``dst_edge``."""
        if src_edge == dst_edge:
            return [(src_edge,)]
        if self.tree.nodes[src_edge].pod == self.tree.nodes[dst_edge].pod:
            return [
                (src_edge, agg, dst_edge)
                for agg in self.shared_aggs(src_edge, dst_edge)
            ]
        return [
            (src_edge, agg, core, down, dst_edge)
            for agg in self.aggs[src_edge]
            for core, down in self.cells(agg, dst_edge)
        ]


class EcmpSelector:
    """Pins flows to equal-cost paths by five-tuple hash.

    The static wiring tables are filled lazily and kept; the operational
    view is rebuilt lazily after each :meth:`invalidate`.
    """

    def __init__(self, tree: FatTree) -> None:
        self.tree = tree
        self.static = WiringView(
            tree,
            _Table(partial(_wired, tree, NodeKind.AGGREGATION)),
            _Table(partial(_wired, tree, NodeKind.CORE)),
        )
        self.invalidate()

    def invalidate(self) -> None:
        """Drop the operational view (call after failure changes)."""
        tree, static = self.tree, self.static
        self.live = WiringView(
            tree,
            _Table(partial(_live, tree, static.aggs)),
            _Table(partial(_live, tree, static.cores)),
        )

    def view(self, operational_only: bool) -> WiringView:
        return self.live if operational_only else self.static

    def edges(
        self, src_host: str, dst_host: str, operational_only: bool = False
    ) -> tuple[str, str] | None:
        """The hosts' edge switches; ``None`` if an operational-only query
        finds a host link dead (hosts are single-homed)."""
        tree = self.tree
        src_edge = tree.edge_of_host(src_host)
        dst_edge = tree.edge_of_host(dst_host)
        if operational_only and not (
            _operational(tree, src_edge, (src_host,))
            and _operational(tree, dst_edge, (dst_host,))
        ):
            return None
        return src_edge, dst_edge

    def paths(
        self, src_host: str, dst_host: str, operational_only: bool = False
    ) -> list[Path]:
        """All equal-cost paths, in candidate order."""
        edges = self.edges(src_host, dst_host, operational_only)
        if edges is None:
            return []
        return [
            Path((src_host,) + middle + (dst_host,))
            for middle in self.view(operational_only).middles(*edges)
        ]

    def select(
        self,
        src_host: str,
        dst_host: str,
        flow_label: int,
        operational_only: bool = False,
    ) -> Path | None:
        """The ECMP choice for one flow, or ``None`` if no path survives.

        Counts the candidates and walks to the hashed one; only the
        selected path object is materialised.
        """
        edges = self.edges(src_host, dst_host, operational_only)
        if edges is None:
            return None
        src_edge, dst_edge = edges
        if src_edge == dst_edge:
            return Path((src_host, src_edge, dst_host))
        view = self.view(operational_only)
        if self.tree.nodes[src_edge].pod == self.tree.nodes[dst_edge].pod:
            aggs = view.shared_aggs(src_edge, dst_edge)
            if not aggs:
                return None
            agg = aggs[flow_hash(src_host, dst_host, flow_label) % len(aggs)]
            return Path((src_host, src_edge, agg, dst_edge, dst_host))
        sizes = view.row_sizes(src_edge, dst_edge)
        total = sum(sizes)
        if not total:
            return None
        index = flow_hash(src_host, dst_host, flow_label) % total
        for agg, size in zip(view.aggs[src_edge], sizes):
            if index < size:
                core, down = view.cells(agg, dst_edge)[index]
                return Path((src_host, src_edge, agg, core, down, dst_edge, dst_host))
            index -= size
        raise AssertionError("hashed index outside the candidate grid")

    @staticmethod
    def select_from(candidates: Sequence[Path], flow_label: int) -> Path | None:
        """Hash-pick from an explicit candidate list (used by rerouting)."""
        if not candidates:
            return None
        return candidates[flow_hash("re", flow_label) % len(candidates)]


def enumerate_paths(
    tree: FatTree,
    src_host: str,
    dst_host: str,
    operational_only: bool = False,
) -> list[Path]:
    """All shortest up/down paths between two hosts.

    With ``operational_only`` the set skips failed nodes/links, yielding
    the surviving equal-length path set (what ideal rerouting chooses
    from).  Longer detour paths are *not* produced here — those are the
    business of :mod:`repro.routing.reroute_f10`.
    """
    if src_host == dst_host:
        raise ValueError("source and destination host are identical")
    return EcmpSelector(tree).paths(src_host, dst_host, operational_only)


def operational_paths(tree: FatTree, src_host: str, dst_host: str) -> list[Path]:
    """Shortest operational paths; convenience wrapper."""
    return enumerate_paths(tree, src_host, dst_host, operational_only=True)
