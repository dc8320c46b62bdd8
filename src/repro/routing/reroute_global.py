"""Fat-tree baseline: ECMP with *global optimal rerouting*.

Section 2.2 of the paper: "Under failures, fat-tree uses global optimal
rerouting."  We realise the globally-informed ideal as follows: a flow
whose path is hit by a failure is re-pinned onto one of the *surviving
equal-length* shortest paths, choosing the path whose most-loaded
directed segment carries the fewest flows (ties broken by flow hash so
the choice stays deterministic).  This is the best a rerouting scheme can
do without adding hops: the alternative path set of a fat-tree always
has minimum length, so fat-tree suffers **no path dilation** (Table 3) —
but the surviving paths share fewer links, so congestion and therefore
bandwidth loss are unavoidable, which is exactly the effect Figure 1(c)
quantifies.

Fat-tree pays for this with **upstream repair**: a downward failure
(e.g. a core→agg link) can only be avoided by choices made near the
*source* (a different core), so failure information must propagate
upstream before rerouting is possible.  The recovery *timing* cost of
that propagation is modelled in :mod:`repro.core.recovery`; here we
compute only the steady state after rerouting, matching the paper's
methodology ("we simulate the final states after failures without the
transient dynamics").
"""

from __future__ import annotations

import zlib

from ..topology.fattree import FatTree
from .ecmp import EcmpSelector
from .paths import Path
from .router import LoadMap, Router

__all__ = ["GlobalOptimalRerouteRouter"]


class _Tokens(dict):
    """``repr(name) + ", "`` per node name: a path tuple's repr, piecewise."""

    def __missing__(self, name: str) -> bytes:
        piece = self[name] = f"{name!r}, ".encode()
        return piece


class GlobalOptimalRerouteRouter(Router):
    """ECMP initial placement + least-loaded surviving-shortest-path repair."""

    name = "fat-tree/global-optimal"

    def __init__(self, tree: FatTree) -> None:
        self.tree = tree
        self.selector = EcmpSelector(tree)
        self._tokens = _Tokens()

    def initial_path(
        self, src_host: str, dst_host: str, flow_label: int
    ) -> Path | None:
        return self.selector.select(
            src_host, dst_host, flow_label, operational_only=True
        )

    def repath(
        self,
        src_host: str,
        dst_host: str,
        flow_label: int,
        old_path: Path | None,
        link_load: LoadMap,
    ) -> Path | None:
        """The surviving shortest path whose busiest segment is least loaded.

        Each candidate cell of the operational wiring view scores the max
        load over its hops; ties at the minimum go to the least
        ``flow_hash(flow_label, nodes) % 2**16``, then to the first
        candidate.
        """
        selector = self.selector
        edges = selector.edges(src_host, dst_host, operational_only=True)
        if edges is None:
            return None
        src_edge, dst_edge = edges
        if src_edge == dst_edge:
            return Path((src_host, src_edge, dst_host))
        segment = selector.segment
        load = link_load.get
        view = selector.live
        intra = self.tree.nodes[src_edge].pod == self.tree.nodes[dst_edge].pod
        hosts = max(
            load(segment(src_host, src_edge, 0, flow_label), 0),
            load(segment(dst_edge, dst_host, 3 if intra else 5, flow_label), 0),
        )
        # Cells are (agg, rest), the path's nodes between the two edge
        # switches being (agg,) + rest.  Only cells at the running
        # minimum are kept, grouped by agg, in candidate order.
        best = -1
        ties: list[tuple[str, list[tuple[str, ...]]]] = []
        if intra:
            for agg in view.shared_aggs(src_edge, dst_edge):
                worst = max(
                    hosts,
                    load(segment(src_edge, agg, 1, flow_label), 0),
                    load(segment(agg, dst_edge, 2, flow_label), 0),
                )
                if worst < best or best < 0:
                    best, ties = worst, []
                if worst == best:
                    ties.append((agg, [()]))
        else:
            last_hop = {  # dst agg → load of its hop into dst_edge
                dst_agg: load(segment(dst_agg, dst_edge, 4, flow_label), 0)
                for dst_agg in view.aggs[dst_edge]
            }
            for agg in view.aggs[src_edge]:
                up = max(hosts, load(segment(src_edge, agg, 1, flow_label), 0))
                row: list[tuple[str, ...]] = []
                for core, dst_agg in view.cells(agg, dst_edge):
                    worst = load(segment(agg, core, 2, flow_label), 0)
                    if worst < up:
                        worst = up
                    hop = load(segment(core, dst_agg, 3, flow_label), 0)
                    if hop > worst:
                        worst = hop
                    if last_hop[dst_agg] > worst:
                        worst = last_hop[dst_agg]
                    if worst < best or best < 0:
                        best, ties, row = worst, [], []
                    if worst == best:
                        if not row:
                            ties.append((agg, row))
                        row.append((core, dst_agg))
        if not ties:
            return None
        agg, rest = self._tie_break(
            (src_host, src_edge), ties, (dst_edge, dst_host), flow_label
        )
        return Path((src_host, src_edge, agg) + rest + (dst_edge, dst_host))

    def _tie_break(
        self,
        head: tuple[str, str],
        ties: list[tuple[str, list[tuple[str, ...]]]],
        tail: tuple[str, str],
        flow_label: int,
    ) -> tuple[str, tuple[str, ...]]:
        """The first tied cell with the least ``flow_hash(flow_label,
        nodes) % 2**16`` over its path's ``nodes``.

        ``flow_hash`` is CRC-32 over ``f"{flow_label}|{nodes!r}"``.  The
        CRC is extended piece by piece along the tuple's repr, so each
        shared prefix is hashed once and no tuple is formatted.
        """
        tokens = self._tokens
        crc32 = zlib.crc32
        prefix = crc32(f"{flow_label}|(".encode())
        for name in head:
            prefix = crc32(tokens[name], prefix)
        suffix = f"{tail[0]!r}, {tail[1]!r})".encode()
        best = ties[0][0], ties[0][1][0]
        best_key = 1 << 16
        for agg, rests in ties:
            start = crc32(tokens[agg], prefix)
            for rest in rests:
                crc = start
                for name in rest:
                    crc = crc32(tokens[name], crc)
                key = crc32(suffix, crc) & 0xFFFF
                if key < best_key:
                    best, best_key = (agg, rest), key
        return best

    def on_topology_change(self) -> None:
        self.selector.invalidate()
